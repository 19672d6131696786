"""The benchmark's tracer must find every package function it wraps.

``perfbench/tracing.py`` looks each traced name up with ``getattr``, so a
function renamed or deleted in the package would stop ``--trace 1`` with an
AttributeError.  This installs and removes the tracer without running it.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_every_target(monkeypatch):
    monkeypatch.setattr(sys, "path", [str(ROOT / "perfbench"), *sys.path])
    import tracing

    package = tracing.load_package(ROOT)
    targets = [t.split(".") for t in tracing.SPANNED + tracing.COUNTED]
    before = {(m, f): getattr(package[m], f) for m, f in targets}
    minimize = package["qaoa"].minimize

    tracer = tracing.Tracer()
    tracer.install(package)
    try:
        assert all(getattr(package[m], f) is not orig
                   for (m, f), orig in before.items())
        assert package["qaoa"].minimize is not minimize
        assert len(tracer._patches) > len(before)
    finally:
        tracer.uninstall()
    assert all(getattr(package[m], f) is orig
               for (m, f), orig in before.items())
    assert package["qaoa"].minimize is minimize
