"""The benchmark's span tracer still reads the package.

perfbench/tracer.py wraps module attributes of scarf by name and labels
each shot by the find_eigen call around it, if any.  A change to scarf
that breaks either shows here, not first in a benchmark run.
"""

import importlib.util
from pathlib import Path

import scarf
import scarf.verify

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_band_verify():
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        scarf.verify.run_verification(scarf.PotentialParams(0.4), 2)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    counts = summary["counts"]
    # certify shoots each of the six edges four times, and no shot runs
    # inside a find_eigen span, so every one samples the oracle grid
    assert (counts["kernels.calls"], counts["kernels.rk_steps"]) == (24, 1_160)
    assert counts["oracle.grid_shoot_calls"] == 24
    assert {span[0] for span in tracer.spans if span[0].startswith("oracle.")} == {"oracle.grid"}
    # the hooks of the deleted blind scan, and two that were already dead
    assert sorted(tracer.missing) == [
        "scarf.oracle.brentq", "scarf.oracle.find_eigen", "scarf.verify.fd_bound_spectrum",
        "scarf.verify.scan_spectrum", "scarf.wavefunction.quad"]
