"""Results do not depend on which of numpy's CPU dispatch paths runs.

numpy picks its AVX-512 or its AVX2 loops at run time, and its float64
``exp`` and ``log2`` can round differently on the two.  The package's
scalar functions that feed QGAN training are computed here and in a child
process held to the AVX2 loops by ``NPY_DISABLE_CPU_FEATURES``, and the two
are compared bit for bit.  End to end, the six stages of a reduced desk run
go through ``cli.main`` once at each dispatch level, and every result file
must come out byte for byte the same.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qtwostage
from qtwostage.qgan import _sigmoid
from qtwostage.scenarios import js_agreement

AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")

PIPELINE = """
import sys
from qtwostage.cli import main
for stage in ("gen-data", "train-qgan", "run", "baselines", "resources",
              "report"):
    if main([stage, "--config", sys.argv[1]]) != 0:
        sys.exit(f"{stage} failed")
"""

# the desk run with fewer epochs, evaluations, lambdas and sweep points
PIPELINE_CONFIG = """
[qgan]
epochs = 40
[qaoa]
maxiter = 40
[sweep]
lambdas = 30, 150
n_values = 4, 8
m_values = 3
[output]
dir = {out}
"""

CHILD = """
import sys
import numpy as np
from test_cpu_dispatch import values
inputs = np.load(sys.argv[1])
np.save(sys.argv[2], values(inputs["z"], inputs["pairs"]))
"""


def values(z, pairs):
    """`_sigmoid` at every z, then `js_agreement` of every (p, q) pair."""
    return np.array([_sigmoid(x) for x in z]
                    + [js_agreement(p, q) for p, q in pairs])


def _avx512_paths():
    """The AVX-512 dispatch targets numpy has built and this CPU runs."""
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    return [f for f in AVX512 if f in umath.__cpu_dispatch__
            and umath.__cpu_features__.get(f)]


def _child_env(disabled) -> dict:
    """This environment, with the package and this directory importable and
    numpy's ``disabled`` dispatch targets switched off."""
    return {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled),
            "PYTHONPATH": os.pathsep.join(
                [str(Path(qtwostage.__file__).parents[1]),
                 str(Path(__file__).parent)])}


def _avx512_or_skip() -> list:
    paths = _avx512_paths()
    if "X86_V4" not in paths:
        # numpy refuses to disable a feature the CPU lacks
        pytest.skip(f"numpy has no AVX-512 path to disable here "
                    f"(dispatch targets that run: {paths})")
    return paths


def test_results_equal_with_avx512_loops_on_and_off(tmp_path):
    paths = _avx512_or_skip()
    rng = np.random.default_rng(11)
    z = np.linspace(-40.0, 40.0, 20001)
    pairs = rng.dirichlet(np.full(8, 0.5), size=(3000, 2))
    pairs[pairs < 0.02] = 0.0  # zero bins, as binned and trained ones have
    pairs /= pairs.sum(axis=-1, keepdims=True)
    np.savez(tmp_path / "in.npz", z=z, pairs=pairs)
    here = values(z, pairs)

    subprocess.run([sys.executable, "-c", CHILD, str(tmp_path / "in.npz"),
                    str(tmp_path / "out.npy")], env=_child_env(paths),
                   check=True)
    there = np.load(tmp_path / "out.npy")
    differ = int(np.sum(here.view(np.uint64) != there.view(np.uint64)))
    assert differ == 0, f"{differ} of {len(here)} values differ"


def test_pipeline_files_equal_with_avx512_loops_on_and_off(tmp_path):
    paths = _avx512_or_skip()
    children = {}
    for level, disabled in (("default", []), ("avx2", paths)):
        out = tmp_path / level
        out.mkdir()
        config = out / "config.ini"
        config.write_text(PIPELINE_CONFIG.format(out=out / "results"))
        # the two levels run side by side
        children[level] = subprocess.Popen(
            [sys.executable, "-c", PIPELINE, str(config)],
            env=_child_env(disabled), stdout=subprocess.DEVNULL)
    for level, child in children.items():
        assert child.wait() == 0, f"the {level} pipeline failed"

    def files(level):
        root = tmp_path / level / "results"
        return {path.relative_to(root): path.read_bytes()
                for path in sorted(root.rglob("*")) if path.is_file()}

    here, there = files("default"), files("avx2")
    assert here.keys() == there.keys()
    differ = [str(name) for name in here if here[name] != there[name]]
    assert not differ, f"files that differ: {differ}"
