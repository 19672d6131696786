"""Results do not depend on which CPU kernels numpy and OpenBLAS run.

numpy picks its AVX-512 or its AVX2 loops at run time, and its float64
``exp`` and ``log2`` can round differently on the two.  The package's
scalar functions that feed QGAN training are computed here and in a child
process held to the AVX2 loops by ``NPY_DISABLE_CPU_FEATURES``, and the two
are compared bit for bit.  OpenBLAS also picks its kernel by CPU, and its
kernels round products differently; the package's contractions are
``np.einsum`` with numpy's own loops, so none reaches it.  End to end, the
six stages of a reduced desk run go through ``cli.main`` under the default
kernels, with numpy's AVX-512 loops off, and under OpenBLAS's Haswell
kernel (``OPENBLAS_CORETYPE``), and every result file must come out byte for
byte the same each time.
"""

import ast
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

# numpy functions and methods that hand a product or a norm to BLAS
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "norm"}

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


def _child_env(disabled, **extra) -> dict:
    """This environment, with the package and this directory importable,
    numpy's ``disabled`` dispatch targets switched off and ``extra`` set."""
    return {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled),
            "PYTHONPATH": os.pathsep.join(
                [str(Path(qtwostage.__file__).parents[1]),
                 str(Path(__file__).parent)]), **extra}


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


def _pipeline_files(out: Path, env: dict) -> dict:
    """Every result file of the reduced desk run under ``env``, by path."""
    out.mkdir()
    config = out / "config.ini"
    config.write_text(PIPELINE_CONFIG.format(out=out / "results"))
    subprocess.run([sys.executable, "-c", PIPELINE, str(config)], env=env,
                   stdout=subprocess.DEVNULL, check=True)
    root = out / "results"
    return {path.relative_to(root): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.fixture(scope="module")
def default_files(tmp_path_factory):
    """The reduced run's files under the default numpy and BLAS kernels."""
    return _pipeline_files(tmp_path_factory.mktemp("pipeline") / "default",
                           _child_env([]))


def _assert_same_files(here: dict, there: dict) -> None:
    assert here.keys() == there.keys()
    differ = [str(name) for name in here if here[name] != there[name]]
    assert not differ, f"files that differ: {differ}"


def test_pipeline_files_equal_with_avx512_loops_on_and_off(tmp_path,
                                                           default_files):
    paths = _avx512_or_skip()
    _assert_same_files(default_files,
                       _pipeline_files(tmp_path / "avx2", _child_env(paths)))


def test_pipeline_files_equal_under_openblas_haswell_kernel(tmp_path,
                                                            default_files):
    # the kernel OpenBLAS runs on any AVX2 machine; on an AVX-512 one its
    # default kernel differs, and so would any product that reached BLAS
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    if not all(umath.__cpu_features__.get(f) for f in ("AVX2", "FMA3")):
        pytest.skip("OpenBLAS's Haswell kernel needs AVX2 and FMA3")
    env = _child_env([], OPENBLAS_CORETYPE="Haswell")
    _assert_same_files(default_files,
                       _pipeline_files(tmp_path / "haswell", env))


def test_src_writes_no_blas_product():
    # the Haswell run sees a BLAS product only where its kernel rounds
    # differently from the default; this holds the rule on any CPU: no
    # ``@``, no numpy product or norm that calls BLAS, and every einsum on
    # numpy's own loops, without ``optimize``
    found = []
    for path in sorted(Path(qtwostage.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(getattr(node, "op", None), ast.MatMult):
                found.append(f"{where} @")
            elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
                found.append(f"{where} {node.attr}")
            elif (isinstance(node, ast.Call) and node.keywords
                  and getattr(node.func, "attr", None) == "einsum"):
                found.append(f"{where} einsum with keywords")
    assert not found
