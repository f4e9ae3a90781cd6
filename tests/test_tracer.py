"""The benchmark's span tracer still reads the package.

perfbench/tracer.py wraps module attributes of scarf by name and tells
find_eigen's re-solve shots from its polish shots by
ShootingConfig.resolve_delta.  A change to scarf that breaks either shows
here, not first in a benchmark run.
"""

import importlib.util
from pathlib import Path

import scarf
import scarf.verify
from scarf import oracle

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_band_verify():
    tracer = load_tracer().Tracer()
    oracle._shot.cache_clear()
    tracer.install()
    try:
        scarf.verify.run_verification(scarf.PotentialParams(0.4), 2)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["self_s"]["oracle.polish"] > 0.0
    assert summary["self_s"]["oracle.rebracket"] > 0.0
    counts = summary["counts"]
    assert (counts["kernels.calls"], counts["kernels.rk_steps"]) == (69, 3_246)
    assert counts["oracle.brackets_found"] == 6
    assert counts.get("oracle.brackets_failed", 0) == 0
    assert set(tracer.missing) <= {"scarf.verify.fd_bound_spectrum",
                                   "scarf.wavefunction.quad"}
