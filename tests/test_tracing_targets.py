"""The traced benchmark run wraps package functions by name
(``perfbench/tracing.py``): every target it names must exist, or the traced
run stops with ``TracingError``.  Installing the tracer here catches a
renamed or deleted target in the package's own tests."""

import importlib.util
from pathlib import Path

import vecfdp.cli  # noqa: F401  (imports every module the tracer wraps)
import vecfdp.vcoef

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_tracer_installs_on_every_target():
    original = vecfdp.vcoef.log_v
    lookup = vecfdp.vcoef.VCoefficients.log_v
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert vecfdp.vcoef.log_v is not original
        assert vecfdp.vcoef.VCoefficients.log_v is not lookup
    finally:
        tracer.disable()
    assert vecfdp.vcoef.log_v is original
    assert vecfdp.vcoef.VCoefficients.log_v is lookup
