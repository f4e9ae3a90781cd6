"""The benchmark still reads the package.

perfbench/tracer.py wraps module attributes of scarf by name and labels
each shot by the find_eigen call around it, if any; perfbench/child.py
probe times `import scarf` and samples the host's speed while it runs.  A
change to scarf that breaks either shows here, not first in a benchmark
run.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import scarf
import scarf.cli  # the tracer hooks only modules already loaded
import scarf.verify

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_band_verify():
    module = load_tracer()
    assert {hook[0] for hook in module.SPAN_HOOKS} <= sys.modules.keys()
    tracer = module.Tracer()
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
    # the hooks of the deleted blind scan and of the deleted P_n builder,
    # and two that were already dead
    assert sorted(tracer.missing) == [
        "scarf.oracle.brentq", "scarf.oracle.find_eigen", "scarf.verify.fd_bound_spectrum",
        "scarf.verify.scan_spectrum", "scarf.wavefunction.build_poly",
        "scarf.wavefunction.quad"]


def test_import_probe():
    """`run.py setup` takes the median of the probe's speed samples, which
    are drawn only while `import scarf` runs."""
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), "probe"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert Path(probe["scarf_file"]).resolve().is_relative_to(ROOT / "src")
    assert len(probe["cal"]) >= 1
