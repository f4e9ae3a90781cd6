"""Benchmark of the scarf package: the cost of proving the closed forms.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (``src/scarf`` next to ``perfbench``).
One closed loop, one job at a time: each job is either a fresh ``scarf``
CLI process or a batch of public library calls in one worker process, and
the next job starts only when the previous one has ended.  A run makes a
fixed number of jobs, ``--seconds`` worth on the reference box (see
``job_budget``), so the same seed gives the same operations and the same
failures on every run.  Every job's output is checked against the closed
forms (see ``workloads.py``).

Workloads (the seed chooses the couplings; seed 0 uses the acceptance
configs s = 2 and s = 0.4):

    verify_bound  scarf verify --n-max 2 --oracle both, s in [1.5, 2.5]
    verify_band   the same command, s in [0.2, 0.45]
    eigenstates   levels n = 0..24 at two couplings per regime through the
                  structure probes of scarf verify, as library calls, no
                  oracle
    cli_short     fresh spectrum, bands, wavefunction and table1 processes,
                  JSON and CSV

Set-up: byte-compile ``src``, then import scarf in a fresh interpreter,
once to warm the file cache and five times timed; ``setup_s`` is the
median time of those processes.

Times are reference seconds: wall seconds scaled by the machine's speed
while they were taken, which every child process samples as it runs
(see ``child.py``).  The wall figures are in the details line.

``--trace 0`` measures with tracing off and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced runs of each job
and reports the per-layer metrics from the traced ones, plus the tracing
overhead (traced minus untraced median job time).  Time metrics of a
layer are self times per job, averaged over the traced jobs; counts are
summed over one traced pass of the job set and repeat exactly.

The last line of stdout is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it holds the details (environment stamp, failure
fraction, tail percentile, checks).  Other modes:

    --workload all          every workload, untraced and traced
    --self-check            two traced passes must give identical counts
    --out PATH              also write the details to PATH
    --compare A B           compare two --out files (same backend only)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import NOMINAL_JOB_S, WORKLOADS, Job, make_jobs  # noqa: E402

clock = time.perf_counter

SETUP_REPEATS = 5
# Seconds one calibration unit of child.Sampler takes on the reference box
# (2-vCPU x86-64 VM, Python 3.11).  Times are reported in reference
# seconds: wall seconds times CAL_UNIT_S / (median unit time while measured).
CAL_UNIT_S = 0.0009
# A traced run runs each job untraced and traced: wall time of that pair
# over the untraced job's, on the reference box.
TRACED_FACTOR = 2.2

# per-layer time metric -> span names whose self times it sums
LAYER_SPANS = {
    "oracle.grid_s": ["oracle.grid"],
    "oracle.polish_s": ["oracle.find_eigen", "oracle.brentq", "oracle.polish"],
    "oracle.rebracket_s": ["oracle.rebracket"],
    "oracle.fd_s": ["oracle.fd"],
    "wavefunction.build_s": ["wavefunction.build"],
    "wavefunction.quad_s": ["wavefunction.quad"],
    "wavefunction.probe_s": ["wavefunction.probe"],
    "polynomials.build_s": ["polynomials.build"],
    "polynomials.roots_s": ["polynomials.roots"],
    "qmf.residue_report_s": ["qmf.residue_report"],
    "qmf.riccati_s": ["qmf.riccati", "qmf.chi_parity"],
    "cli.serialize_s": ["cli.serialize"],
    "cli.self_s": ["cli.main"],
    "verify.self_s": ["verify.run"],
    "process.import_s": ["process.import"],
    "process.startup_s": ["process.startup", "process.exit"],
}
COUNTS = ("kernels.calls", "kernels.rk_steps", "oracle.grid_shoot_calls",
          "oracle.brackets_found", "oracle.brackets_failed",
          "wavefunction.errors", "polynomials.errors", "qmf.errors")


class SetupError(Exception):
    """The tree cannot be benchmarked (no scarf source, import fails)."""


@dataclass
class Op:
    """One executed job."""

    key: int
    traced: bool
    seconds: float
    status: str               # "ok" | "failed" | "wrong"
    info: object
    digest: str
    rss_kb: int = 0
    layers: dict = field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_process(argv: list[str], tmp: Path) -> dict:
    """Run one child to completion; wall time, exit code, output, peak RSS."""
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = clock()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=ROOT, env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = clock()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"start": start, "end": end, "code": proc.returncode,
            "stdout": out_path.read_bytes(), "stderr": err_path.read_bytes(),
            "rss_kb": usage.ru_maxrss}


def judge(job: Job, output) -> tuple[str, object]:
    try:
        return job.check(output)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return "wrong", f"unreadable output: {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# executors: CLI processes and the library worker
# ---------------------------------------------------------------------------

class CliExecutor:
    """Each job is a fresh scarf process, as the console script runs it."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.cal: list[float] = []

    def batch(self, jobs: list[Job], i: int) -> list[Job]:
        return [jobs[i % len(jobs)]]

    def run(self, batch: list[Job], traced: bool) -> list[Op]:
        (job,) = batch
        summary_path = self.tmp / "summary.json"
        summary_path.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "child.py"), "cli" if traced else "run",
                str(summary_path), *job.argv]
        res = run_process(argv, self.tmp)
        summary = json.loads(summary_path.read_text()) if summary_path.exists() else {}
        self.cal += summary.get("cal", [])
        cal_s = sum(summary.get("cal", []))
        seconds = res["end"] - res["start"] - cal_s
        if b"Traceback (most recent call last)" in res["stderr"]:
            status, info = "failed", "traceback: " + res["stderr"].decode()[-300:]
        elif res["code"] != 0:
            status, info = "failed", f"exit {res['code']}: " + res["stderr"].decode()[-300:]
        else:
            status, info = judge(job, res["stdout"])
        layers = {}
        if traced and "self_s" in summary:
            layers = summary
            layers["self_s"]["process.startup"] = layers["first"] - res["start"]
            layers["self_s"]["process.exit"] = res["end"] - layers["last"]
        return [Op(job.key, traced, seconds, status, info,
                   hashlib.sha256(res["stdout"]).hexdigest(), res["rss_kb"], layers)]

    def close(self) -> None:
        pass


class LibraryExecutor:
    """Library jobs in one worker process; a batch is a pass over the set."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "worker"], cwd=ROOT, env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.missing: list[str] = []
        self.cal: list[float] = []

    def batch(self, jobs: list[Job], i: int) -> list[Job]:
        return jobs

    def run(self, batch: list[Job], traced: bool) -> list[Op]:
        request = {"jobs": [list(job.spec) for job in batch], "trace": traced}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SetupError("library worker exited")
        reply = json.loads(line)
        self.missing = reply["missing"]
        self.cal += reply["cal"]
        ops = []
        for job, res in zip(batch, reply["results"]):
            if res["error"] is not None:
                status, info = "failed", res["error"]
            else:
                status, info = judge(job, res["values"])
            digest = hashlib.sha256(json.dumps([res["values"], res["error"]],
                                               sort_keys=True).encode()).hexdigest()
            ops.append(Op(job.key, traced, res["t"], status, info, digest,
                          reply["rss_kb"], res.get("layers", {})))
        return ops

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def executor_for(workload: str, tmp: Path):
    return LibraryExecutor() if workload == "eigenstates" else CliExecutor(tmp)


# ---------------------------------------------------------------------------
# set-up, environment stamp
# ---------------------------------------------------------------------------

def setup(tmp: Path) -> dict:
    """Byte-compile src, then time `import scarf` in fresh interpreters."""
    if not (ROOT / "src" / "scarf" / "__init__.py").is_file():
        raise SetupError(f"no scarf source under {ROOT / 'src'}")
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    probes = []
    for i in range(SETUP_REPEATS + 1):   # the first one warms the file cache
        res = run_process([sys.executable, str(HERE / "child.py"), "probe"], tmp)
        if res["code"] != 0:
            raise SetupError("import scarf failed:\n" + res["stderr"].decode()[-2000:])
        probe = json.loads(res["stdout"])
        if not Path(probe["scarf_file"]).resolve().is_relative_to(ROOT / "src"):
            raise SetupError(f"scarf imported from {probe['scarf_file']}, not from src")
        speed = run_speed(probe["cal"])
        probe["setup_s"] = (res["end"] - res["start"] - sum(probe["cal"])) * speed
        probe["import_s"] *= speed
        if i:
            probes.append(probe)
    stamp = {k: probes[0][k] for k in ("numba_enabled", "python", "numpy", "scipy")}
    stamp.update(nproc=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)),
                 git_sha=git_sha(), src_sha256=source_digest())
    return {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "import_s": statistics.median(p["import_s"] for p in probes),
        "modules": [p["modules"] for p in probes],
        "env": stamp,
    }


def git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def job_budget(workload: str, seconds: float, traced: bool) -> int:
    """Jobs one run makes: `seconds` worth at the workload's nominal job time.

    The count, not the clock, ends a run, so a seed always gives the same
    operations and the same failures, however fast the host is."""
    per_job = NOMINAL_JOB_S[workload] * (TRACED_FACTOR if traced else 1.0)
    return int(round(seconds / per_job))


def measure(executor, jobs: list[Job], n_jobs: int, traced: bool) -> list[Op]:
    """Run jobs in a cycle, one at a time, until `n_jobs` have run.  Untraced,
    every job runs at least once and the first one twice (the repeat is
    checked for byte-identical output); traced, every job runs once
    untraced and once traced, back to back."""
    ops: list[Op] = []
    target = max(n_jobs, len(jobs) if traced else len(jobs) + 1)
    done = 0
    while done < target:
        batch = executor.batch(jobs, done)
        ops += executor.run(batch, traced=False)
        if traced:
            ops += executor.run(batch, traced=True)
        done += len(batch)
    return ops


def per_key_median(ops: list[Op], speed: float) -> dict[int, float]:
    """Median time of each job of the set, scaled by `speed`."""
    by_key: dict[int, list[float]] = {}
    for op in ops:
        by_key.setdefault(op.key, []).append(op.seconds * speed)
    return {k: statistics.median(v) for k, v in by_key.items()}


def tail(times: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    times = sorted(times)
    best = {"percentile": 50, "value_s": statistics.median(times)}
    for pct in (90, 95, 99, 99.9):
        if len(times) * (100 - pct) / 100 >= 10:
            idx = min(len(times) - 1, int(round(pct / 100 * (len(times) - 1))))
            best = {"percentile": pct, "value_s": times[idx]}
    best["samples"] = len(times)
    return best


def pass_counts(traced: list[Op]) -> tuple[dict, list[str]]:
    """Counts summed over one traced pass, and keys whose repeats differ."""
    first: dict[int, dict] = {}
    unstable = []
    for op in traced:
        counts = {name: op.layers.get("counts", {}).get(name, 0) for name in COUNTS}
        if op.key not in first:
            first[op.key] = counts
        elif first[op.key] != counts:
            unstable.append(op.key)
    totals = {name: sum(c[name] for c in first.values()) for name in COUNTS}
    return totals, unstable


def run_speed(cal: list[float]) -> float:
    """Reference seconds per wall second, from calibration sample times."""
    return CAL_UNIT_S / statistics.median(cal)


def evaluate(workload: str, seed: int, seconds: float, trace: bool, jobs: list[Job],
             ops: list[Op], setup_info: dict, cal: list[float],
             missing: list[str]) -> tuple[dict, dict]:
    """(result line, details) from the executed ops."""
    speed = run_speed(cal)
    untraced = [op for op in ops if not op.traced]
    traced = [op for op in ops if op.traced]
    levels = {job.key: job.levels for job in jobs}
    medians = per_key_median(untraced, speed)
    job_p50 = statistics.median(medians.values())
    problems = []

    digests: dict[int, set] = {}
    for op in ops:
        digests.setdefault(op.key, set()).add(op.digest)
    nondeterministic = sorted(k for k, d in digests.items() if len(d) > 1)
    if nondeterministic:
        problems.append(f"output differs between repeats of jobs {nondeterministic}")
    wrong = [(jobs[op.key].label, op.info) for op in ops if op.status == "wrong"]
    if wrong:
        problems.append(f"{len(wrong)} outputs contradict the closed forms, e.g. {wrong[0]}")
    if len(set(setup_info["modules"])) > 1:
        problems.append(f"import scarf loaded {setup_info['modules']} modules")

    failed = [op for op in ops if op.status == "failed"]
    failed_keys = {op.key for op in ops if op.status != "ok"}
    metrics = {
        "setup_s": setup_info["setup_s"],
        "job_p50_s": job_p50,
        "levels_per_s": sum(levels[k] for k in medians if k not in failed_keys)
        / sum(medians.values()),
        "peak_rss_mb": max(op.rss_kb for op in untraced) / 1024.0,
        "import.scarf_s": setup_info["import_s"],
        "import.modules": setup_info["modules"][0],
        "oracle.max_rel_err": max((op.info.get("max_rel_err", 0.0) for op in ops
                                   if isinstance(op.info, dict)), default=0.0),
    }
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": setup_info["env"],
        "jobs": [job.label for job in jobs],
        "fail_frac": {"value": len(failed) / len(ops), "unit": "ratio",
                      "failed": len(failed), "attempted": len(ops)},
        "failures": dict(Counter(f"{jobs[op.key].label}: {op.info}" for op in failed)),
        "job_tail": tail([op.seconds * speed for op in untraced]),
        "speed": speed,
        "wall_job_p50_s": statistics.median(per_key_median(untraced, 1.0).values()),
        "problems": problems,
        "missing_hooks": missing,
    }
    if trace:
        n = len(traced)
        self_sums = [sum(op.layers.get("self_s", {}).values()) for op in traced]
        for name, spans in LAYER_SPANS.items():
            metrics[name] = speed * sum(op.layers.get("self_s", {}).get(span, 0.0)
                                        for op in traced for span in spans) / n
        metrics["kernels.self_s"] = speed * sum(op.layers.get("kernel_s", 0.0)
                                                for op in traced) / n
        counts, unstable = pass_counts(traced)
        metrics.update(counts)
        if unstable:
            problems.append(f"counts differ between traced repeats of jobs {unstable}")
        traced_p50 = statistics.median(per_key_median(traced, speed).values())
        metrics["trace.job_p50_s"] = traced_p50
        metrics["trace.overhead_s"] = traced_p50 - job_p50
        metrics["trace.unattributed_s"] = speed * sum(op.seconds - s for op, s in
                                                      zip(traced, self_sums)) / n
        if not all(op.layers for op in traced):
            problems.append("a traced job left no span summary")
        details["self_time_check"] = {
            "mean_traced_job_s": speed * sum(op.seconds for op in traced) / n,
            "mean_self_sum_s": speed * sum(self_sums) / n,
            "within_overhead": abs(metrics["trace.unattributed_s"])
            <= abs(metrics["trace.overhead_s"]),
        }
    details["metrics"] = metrics
    result = {"correct": not problems, "attempted": len(ops), "failed": len(failed)}
    return result, details


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tmp: Path,
                 setup_info: dict) -> tuple[dict, dict]:
    jobs = make_jobs(workload, seed)
    executor = executor_for(workload, tmp)
    try:
        ops = measure(executor, jobs, job_budget(workload, seconds, trace), trace)
    finally:
        executor.close()
    missing = getattr(executor, "missing", [])
    for op in ops:
        missing = missing or op.layers.get("missing", [])
    result, details = evaluate(workload, seed, seconds, trace, jobs, ops, setup_info,
                               executor.cal, missing)
    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    result["metrics"] = {name: {"value": details["metrics"][name], "unit": unit}
                         for name, unit in declared.items()}
    return result, details


def print_table(details: dict, units: dict) -> None:
    print(f"# {details['workload']} seed={details['seed']} trace={details['trace']} "
          f"backend={'numba' if details['env']['numba_enabled'] else 'python'}",
          file=sys.stderr)
    for name, value in details["metrics"].items():
        print(f"  {name:28s} {value:>14.6g} {units.get(name, '')}", file=sys.stderr)
    ff = details["fail_frac"]
    print(f"  {'fail_frac':28s} {ff['value']:>14.6g} ratio ({ff['failed']}/{ff['attempted']})",
          file=sys.stderr)
    t = details["job_tail"]
    print(f"  job_p{t['percentile']}_s{'':21s} {t['value_s']:>14.6g} s ({t['samples']} samples)",
          file=sys.stderr)
    for problem in details["problems"]:
        print(f"  PROBLEM: {problem}", file=sys.stderr)


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def self_check(workload: str, seed: int, tmp: Path, setup_info: dict) -> int:
    """Two separate traced passes must report identical machine-independent counts."""
    passes = []
    for _ in range(2):
        _, details = run_workload(workload, seed, 0.0, True, tmp, setup_info)
        passes.append({name: details["metrics"][name] for name in COUNTS + ("import.modules",)})
        print_table(details, {})
    ok = passes[0] == passes[1]
    print(json.dumps({"self_check": "pass" if ok else "FAIL", "counts": passes}))
    return 0 if ok else 1


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    if a["env"]["numba_enabled"] != b["env"]["numba_enabled"]:
        print("refused: the two runs used different kernel backends "
              f"(numba_enabled {a['env']['numba_enabled']} vs {b['env']['numba_enabled']})",
              file=sys.stderr)
        return 2
    same_inputs = all(a[k] == b[k] for k in ("workload", "seed", "trace"))
    status = 0
    for name in a["metrics"]:
        va, vb = a["metrics"][name], b["metrics"].get(name)
        ratio = f"{vb / va:8.3f}x" if vb is not None and va else ""
        flag = ""
        if same_inputs and name in COUNTS + ("import.modules",) and va != vb:
            flag, status = "  COUNT CHANGED", 1
        print(f"{name:28s} {va:>14.6g} {vb if vb is not None else float('nan'):>14.6g} "
              f"{ratio}{flag}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the details JSON here")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp"))
    try:
        try:
            setup_info = setup(tmp)
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.self_check:
            return self_check(args.workload, args.seed, tmp, setup_info)
        runs = ([(w, t) for w in WORKLOADS for t in (False, True)]
                if args.workload == "all" else [(args.workload, bool(args.trace))])
        units = {**declared_metrics()["end_to_end"], **declared_metrics()["per_layer"]}
        all_correct = True
        outputs = []
        for workload, trace in runs:
            result, details = run_workload(workload, args.seed, args.seconds, trace, tmp,
                                           setup_info)
            all_correct = all_correct and result["correct"]
            print_table(details, units)
            outputs.append(details)
            print(json.dumps(details))
            print(json.dumps(result), flush=True)
        if args.out:
            saved = outputs[0] if len(outputs) == 1 else outputs
            Path(args.out).write_text(json.dumps(saved, indent=1) + "\n")
        return 0 if all_correct or args.workload != "all" else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
