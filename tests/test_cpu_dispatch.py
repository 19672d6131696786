"""Results do not depend on which of numpy's CPU dispatch paths runs.

numpy picks its AVX-512 or its AVX2 loops at run time, and its float64
``exp`` and ``log2`` can round differently on the two.  The package's
scalar functions that feed QGAN training are computed here and in a child
process held to the AVX2 loops by ``NPY_DISABLE_CPU_FEATURES``, and the two
are compared bit for bit.
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


def test_results_equal_with_avx512_loops_on_and_off(tmp_path):
    paths = _avx512_paths()
    if "X86_V4" not in paths:
        # numpy refuses to disable a feature the CPU lacks
        pytest.skip(f"numpy has no AVX-512 path to disable here "
                    f"(dispatch targets that run: {paths})")
    rng = np.random.default_rng(11)
    z = np.linspace(-40.0, 40.0, 20001)
    pairs = rng.dirichlet(np.full(8, 0.5), size=(3000, 2))
    pairs[pairs < 0.02] = 0.0  # zero bins, as binned and trained ones have
    pairs /= pairs.sum(axis=-1, keepdims=True)
    np.savez(tmp_path / "in.npz", z=z, pairs=pairs)
    here = values(z, pairs)

    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(paths),
           "PYTHONPATH": os.pathsep.join(
               [str(Path(qtwostage.__file__).parents[1]),
                str(Path(__file__).parent)])}
    subprocess.run([sys.executable, "-c", CHILD, str(tmp_path / "in.npz"),
                    str(tmp_path / "out.npy")], env=env, check=True)
    there = np.load(tmp_path / "out.npy")
    differ = int(np.sum(here.view(np.uint64) != there.view(np.uint64)))
    assert differ == 0, f"{differ} of {len(here)} values differ"
