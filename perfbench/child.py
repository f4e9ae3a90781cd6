"""Child processes of the scarf benchmark.

    child.py probe
        Time ``import scarf`` in this fresh interpreter and print one JSON
        line: import time, modules loaded, where scarf came from, the
        speed samples and the environment stamp (kernel backend, Python,
        numpy, scipy).
    child.py run SUMMARY_PATH ARGS...
        Run ``scarf ARGS...`` as the console script does, sampling the
        host's speed, and write the samples to SUMMARY_PATH.
    child.py cli SUMMARY_PATH ARGS...
        The same with the tracer installed; SUMMARY_PATH also receives the
        span summary.
    child.py worker
        Serve eigenstate jobs (public library calls, no oracle): read one
        JSON request per stdin line, ``{"jobs": [[s, n, edge], ...],
        "trace": bool}``, and answer with one JSON line of results.

The benchmark runs these with ``src`` on PYTHONPATH; the parent process
never imports scarf itself.

Calibration: on a shared host the speed of a vCPU drifts by tens of
percent within seconds.  Every process that runs jobs therefore samples
the host's speed while its jobs run: a SIGALRM every CAL_INTERVAL_S
runs one fixed unit of work and records its time (see ``Sampler``).  Job
times are taken on a clock that leaves the samples out, and the parent
scales them by the median sample time of the run (see ``run.py``).  A
sample changes no state a job can see, and takes about 3% of its time.
"""

from __future__ import annotations

import time

T_FIRST = time.perf_counter()

import json  # noqa: E402
import marshal  # noqa: E402
import math  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

clock = time.perf_counter

CAL_LIST = 2048
CAL_SIN_REPS = 4        # one calibration unit: sums of sines (compute) ...
CAL_LOAD_REPS = 5       # ... and loads of a code blob (allocation), about 0.9 ms
CAL_INTERVAL_S = 0.03   # a unit every this many wall seconds while jobs run
CAL_SOURCE = "\n".join(f"def f{i}(x, y={i}):\n    return [x * {i}, {{'k{i}': x}}, ('s{i}', x + y)]"
                       for i in range(60))


class Sampler:
    """Samples the host's speed while jobs run.

    A SIGALRM every CAL_INTERVAL_S runs one fixed unit of work and records
    its time in ``samples``.  The unit mixes floating-point work (sums of
    math.sin over a list) with allocation (unmarshalling a code object), so
    that it slows down on a busy host about as much as the jobs, which do
    both; it imports nothing and changes no state a job can see.
    ``clock()`` is the wall clock less the time spent in samples, the clock
    jobs and spans are timed by.
    """

    def __init__(self):
        self.data = [i / CAL_LIST for i in range(CAL_LIST)]
        self.blob = marshal.dumps(compile(CAL_SOURCE, "<calibration>", "exec"))
        self.samples: list[float] = []
        self.seconds = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        t0 = clock()
        for _ in range(CAL_SIN_REPS):
            sum(map(math.sin, self.data))
        for _ in range(CAL_LOAD_REPS):
            marshal.loads(self.blob)
        self.samples.append(clock() - t0)
        self.seconds += self.samples[-1]

    def start(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def clock(self) -> float:
        return clock() - self.seconds


def probe() -> None:
    sampler = Sampler()
    sampler.start()
    n0 = len(sys.modules)
    t0 = sampler.clock()
    import scarf
    import_s = sampler.clock() - t0
    n_modules = len(sys.modules) - n0
    sampler.stop()
    import platform
    import numpy
    import scipy
    print(json.dumps({
        "import_s": import_s,
        "modules": n_modules,
        "scarf_file": scarf.__file__,
        "numba_enabled": bool(scarf.kernels.NUMBA_ENABLED),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cal": sampler.samples,
    }))


def cli(summary_path: str, args: list[str], traced: bool) -> None:
    sampler = Sampler()
    sampler.start()
    if traced:
        from tracer import Tracer
        tracer = Tracer(sampler.clock)
        idx = tracer.open("process.import")
    from scarf.cli import main
    if traced:
        tracer.close(idx)
        tracer.install()
        idx = tracer.open("cli.main")
    code = 0
    try:
        main(args=args, prog_name="scarf")
    except SystemExit as exc:
        code = exc.code
    finally:
        if traced:
            tracer.close(idx)
    sys.stdout.flush()
    sampler.stop()
    summary = {"first": T_FIRST, "last": clock(), "cal": sampler.samples}
    if traced:
        summary.update(tracer.summary(), missing=tracer.missing)
    with open(summary_path, "w") as fh:
        json.dump(summary, fh)
    sys.exit(code)


def eigenstate(wavefunction, qmf, params, line) -> dict:
    """One level through the probes `scarf verify` runs, oracle excluded.

    Returns the raw measured values; the parent judges them against the
    closed forms at the thresholds `scarf verify` uses.
    """
    wf = wavefunction.build_wavefunction(params, line)
    chi = qmf.ChiFunction.from_wavefunction(wf)
    rep = qmf.residue_report(chi)
    riccati = qmf.verify_riccati(chi)
    chi_parity = qmf.chi_parity_defect(chi)
    res, scale = wavefunction.schrodinger_residual(wf)
    return {
        "lambda": line.lam,
        "energy": line.energy,
        "b1": [rep.b1_measured.real, rep.b1_measured.imag],
        "b1_prime": [rep.b1_prime_measured.real, rep.b1_prime_measured.imag],
        "d1": [rep.d1_measured.real, rep.d1_measured.imag],
        "moving_poles": rep.moving_pole_count,
        "sum_rule_defect": rep.sum_rule_defect,
        "riccati": riccati,
        "chi_parity": chi_parity,
        "schrodinger_rel": res / scale,
        "nodes": wavefunction.count_nodes(wf),
        "parity": wavefunction.parity(wf).value,
        "exponent": wavefunction.boundary_exponent(wf),
    }


def worker() -> None:
    import importlib
    import resource

    import scarf
    from tracer import Tracer
    wavefunction = importlib.import_module("scarf.wavefunction")
    qmf = importlib.import_module("scarf.qmf")
    sampler = Sampler()
    tracer = Tracer(sampler.clock)
    lines: dict[tuple[float, int, str], object] = {}

    def line_for(s, n, edge):
        if (s, n, edge) not in lines:
            params = scarf.PotentialParams(s=s)
            for ln in scarf.spectrum_lines(params, n):
                lines[(s, ln.n, ln.edge.value)] = (params, ln)
        return lines[(s, n, edge)]

    def run_job(params, line, traced):
        tracer.reset()
        values = error = None
        t0 = sampler.clock()
        try:
            if traced:
                values = tracer.call("bench.job", eigenstate, wavefunction, qmf, params, line)
            else:
                values = eigenstate(wavefunction, qmf, params, line)
        except scarf.ScarfError as exc:
            error = type(exc).__name__
        except Exception as exc:  # a traceback is a failed operation too
            error = f"traceback:{type(exc).__name__}: {exc}"
        result = {"t": sampler.clock() - t0, "values": values, "error": error}
        if traced:
            result["layers"] = tracer.summary()
        return result

    for request in sys.stdin:
        req = json.loads(request)
        if req["trace"]:
            tracer.install()
        else:
            tracer.uninstall()
        sampler.samples = []
        sampler.start()
        results = [run_job(*line_for(*spec), req["trace"]) for spec in req["jobs"]]
        sampler.stop()
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps({"results": results, "rss_kb": rss_kb, "cal": sampler.samples,
                          "missing": tracer.missing}), flush=True)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "probe":
        probe()
    elif mode in ("run", "cli"):
        cli(sys.argv[2], sys.argv[3:], traced=mode == "cli")
    elif mode == "worker":
        worker()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
