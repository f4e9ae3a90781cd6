"""Workloads of the scarf benchmark: jobs made from a seed, and the checks
that hold every job's output to the paper's closed forms.

Nothing here imports scarf.  The closed forms are written out again on
purpose, so a defect in the package cannot also hide in its own check:

    bound level (s > 1/2)   lambda = n + 1/2 + s
    band upper edge         lambda = n + 1/2 + s
    band lower edge         lambda = n + 1/2 - s
    E = pi^2 lambda^2 / (2 m a^2)      (a = m = 1 throughout)

A check returns ``(status, info)``.  ``status`` is ``"ok"``, ``"failed"``
(the job refused, raised, exited non-zero or failed a threshold: a failed
operation) or ``"wrong"`` (the job reported success but its output
contradicts the closed forms: the benchmark's result is not correct).
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field

BOUND_RANGE = (1.5, 2.5)
BAND_RANGE = (0.2, 0.45)
ACCEPTANCE_BOUND_S = 2.0   # acceptance configs, used by the default seed 0
ACCEPTANCE_BAND_S = 0.4
VERIFY_TOL = 1e-8
EIGEN_N_MAX = 24
CLI_N_MAX = 3
WAVEFUNCTION_SAMPLES = 4096

ENERGY_RTOL = 1e-12

# Thresholds `scarf verify` applies to each level's structure probes.
RESIDUE_SUM_RULE_TOL = 1e-9
RESIDUE_TOL = 1e-10
CHI_PARITY_TOL = 1e-12
RICCATI_TOL = 1e-10            # times (1 + lambda^2)
SCHRODINGER_TOL = 1e-8
EXPONENT_TOL = 1e-3


def level_lambda(s: float, n: int, edge: str | None) -> float:
    return n + 0.5 - s if edge == "lower" else n + 0.5 + s


def level_energy(s: float, n: int, edge: str | None) -> float:
    return 0.5 * math.pi**2 * level_lambda(s, n, edge) ** 2


def closed_levels(s: float, n_max: int) -> list[tuple[int, str | None]]:
    """(n, edge) of every level through n_max; edge is None when bound."""
    if s > 0.5:
        return [(n, None) for n in range(n_max + 1)]
    return [(n, edge) for n in range(n_max + 1) for edge in ("lower", "upper")]


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


@dataclass
class Job:
    key: int
    label: str
    levels: int                 # closed-form levels this job proves or reports
    argv: list[str] = field(default_factory=list)   # CLI jobs
    spec: tuple = ()            # library jobs: (s, n, edge)
    check: object = None        # callable returning (status, info)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_level_entries(s: float, entries: list[dict], n_max: int | None):
    """JSON/CSV level entries against the closed forms; None when all agree."""
    want = closed_levels(s, n_max) if n_max is not None else None
    seen = []
    for e in entries:
        n = int(e["n"])
        edge = e["edge"] or None
        lam = level_lambda(s, n, edge)
        if _rel(float(e["energy"]), level_energy(s, n, edge)) > ENERGY_RTOL:
            return f"energy of (n={n}, {edge}) is {e['energy']}"
        if abs(float(e["lambda"]) - lam) > ENERGY_RTOL * (1.0 + lam):
            return f"lambda of (n={n}, {edge}) is {e['lambda']}"
        for key in ("nu1", "nu2"):
            if abs(float(e[key]) + lam) > ENERGY_RTOL * (1.0 + lam):
                return f"{key} of (n={n}, {edge}) is {e[key]}, not -lambda"
        seen.append((n, edge))
    if want is not None and sorted(seen, key=str) != sorted(want, key=str):
        return f"levels {seen} differ from the closed-form set {want}"
    return None


def parse_output(stdout: bytes, fmt: str):
    text = stdout.decode()
    if fmt == "json":
        return json.loads(text)
    return list(csv.DictReader(io.StringIO(text)))


def check_spectrum(s: float, fmt: str, with_bands: bool):
    def check(stdout: bytes):
        out = parse_output(stdout, fmt)
        entries = out["levels"] if fmt == "json" else out
        bad = check_level_entries(s, entries, CLI_N_MAX)
        if bad is None and with_bands and fmt == "json":
            energy = {(n, e): level_energy(s, n, e) for n, e in closed_levels(s, CLI_N_MAX)}
            scale = max(energy.values())
            for w in out["bands"]["widths"]:
                n = w["n"]
                if abs(w["width"] - (energy[n, "upper"] - energy[n, "lower"])) > ENERGY_RTOL * scale:
                    bad = f"band width {n} is {w['width']}"
            for g in out["bands"]["gaps"]:
                n = g["n"]
                if abs(g["gap"] - (energy[n + 1, "lower"] - energy[n, "upper"])) > ENERGY_RTOL * scale:
                    bad = f"band gap {n} is {g['gap']}"
        return ("wrong", bad) if bad else ("ok", {})
    return check


def check_wavefunction(s: float, n: int, edge: str | None, fmt: str):
    def check(stdout: bytes):
        out = parse_output(stdout, fmt)
        if fmt == "json":
            bad = check_level_entries(s, out["levels"], None)
            if bad is None and [(e["n"], e["edge"]) for e in out["levels"]] != [(n, edge)]:
                bad = f"levels {out['levels']} are not (n={n}, {edge})"
            if bad:
                return "wrong", bad
            cols = {k: [float(v) for v in vals] for k, vals in out["samples"].items()}
        else:
            cols = {k: [float(row[k]) for row in out] for k in ("x", "V", "psi", "psi_squared")}
        xs, psi = cols["x"], cols["psi"]
        count = WAVEFUNCTION_SAMPLES
        if len(xs) != count:
            return "wrong", f"{len(xs)} samples, asked for {count}"
        offset = 1.0 / (10.0 * count)
        step = (1.0 - 2.0 * offset) / (count - 1)
        for i, x in enumerate(xs):
            if abs(x - (offset + i * step)) > 1e-12:
                return "wrong", f"sample {i} at x={x}"
            v = -(0.25 - s * s) * math.pi**2 / (2.0 * math.sin(math.pi * x) ** 2)
            if _rel(cols["V"][i], v) > 1e-10:
                return "wrong", f"V({x}) = {cols['V'][i]}, closed form {v}"
            if abs(cols["psi_squared"][i] - psi[i] ** 2) > 1e-14 * psi[i] ** 2:
                return "wrong", f"psi_squared({x}) is not psi^2"
        norm = step * (sum(p * p for p in psi) - 0.5 * (psi[0] ** 2 + psi[-1] ** 2))
        if abs(norm - 1.0) > 1e-3:
            return "wrong", f"int psi^2 dx = {norm}"
        signs = [p > 0.0 for p in psi if p != 0.0]
        nodes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        if nodes != n:
            return "wrong", f"{nodes} sign changes, level n={n}"
        return "ok", {}
    return check


def check_table1(s: float, n: int, edge: str | None, fmt: str):
    lam = level_lambda(s, n, edge)
    b1 = (1.0 - lam) / 2.0

    def check(stdout: bytes):
        out = parse_output(stdout, fmt)
        if fmt == "json":
            if abs(out["lambda"] - lam) > ENERGY_RTOL * (1.0 + lam):
                return "wrong", f"lambda {out['lambda']}, closed form {lam}"
            sets = out["sets"]
        else:
            sets = [{k: (row[k] == "true" if k == "valid" else
                         row[k] if k == "remark" else float(row[k])) for k in row}
                    for row in out]
        tol = 1e-12 * (1.0 + lam)
        found = False
        for rs in sets:
            if abs(rs["n"] - (rs["d1"] - rs["b1"] - rs["b1_prime"])) > tol:
                return "wrong", f"set {rs['set']} breaks the sum rule"
            if min(abs(rs["d1"] - 0.5 + s), abs(rs["d1"] - 0.5 - s)) > tol:
                return "wrong", f"set {rs['set']} has d1={rs['d1']}, not 1/2 -+ s"
            if (abs(rs["b1"] - b1) <= tol and abs(rs["b1_prime"] - b1) <= tol
                    and abs(rs["n"] - n) <= tol):
                found = found or rs["valid"]
        if not found:
            return "wrong", f"no valid set with b1 = (1-lambda)/2 and n = {n}"
        return "ok", {}
    return check


def check_verify(s: float, n_max: int):
    levels = closed_levels(s, n_max)

    def check(stdout: bytes):
        report = json.loads(stdout.decode())
        if not report["summary"]["all_pass"]:
            return "failed", f"{report['summary']['n_failed']} checks failed"
        bad = check_level_entries(s, report["levels"], n_max)
        if bad:
            return "wrong", bad
        max_rel = 0.0
        for n, edge in levels:
            mine = [c for c in report["checks"] if c["n"] == n and c["edge"] == edge]
            shots = [c for c in mine if c["name"] == "oracle_shooting_rel_err"]
            if len(shots) != 1:
                return "wrong", f"(n={n}, {edge}) matched {len(shots)} times by shooting"
            rel = _rel(shots[0]["observed"], level_energy(s, n, edge))
            if rel > VERIFY_TOL:
                return "wrong", f"(n={n}, {edge}) shot at relative error {rel} with all_pass"
            max_rel = max(max_rel, rel)
            if s > 0.5 and not any(c["name"] == "oracle_fd_rel_err" for c in mine):
                return "wrong", f"(n={n}) has no finite-difference check"
        return "ok", {"max_rel_err": max_rel}
    return check


def check_eigenstate(s: float, n: int, edge: str | None):
    lam = level_lambda(s, n, edge)

    def check(values: dict):
        if _rel(values["energy"], level_energy(s, n, edge)) > ENERGY_RTOL:
            return "wrong", f"energy {values['energy']}"
        b1 = complex(*values["b1"])
        b1p = complex(*values["b1_prime"])
        d1 = complex(*values["d1"])
        expected_parity = "even" if n % 2 == 0 else "odd"
        defects = {
            "residue_sum_rule": values["sum_rule_defect"] > RESIDUE_SUM_RULE_TOL,
            "b1": abs(b1 - (1.0 - lam) / 2.0) > RESIDUE_TOL,
            "b1_parity": abs(b1 - b1p) > RESIDUE_TOL,
            "d1": abs(d1 - (n + 1.0 - lam)) > RESIDUE_TOL,
            "moving_poles": values["moving_poles"] != n,
            "chi_parity": values["chi_parity"] > CHI_PARITY_TOL,
            "riccati": values["riccati"] > RICCATI_TOL * (1.0 + lam**2),
            "schrodinger": values["schrodinger_rel"] > SCHRODINGER_TOL,
            "nodes": values["nodes"] != n,
            "parity": values["parity"] != expected_parity,
            "exponent": abs(values["exponent"] - (lam - n)) > EXPONENT_TOL,
        }
        failing = sorted(name for name, bad in defects.items() if bad)
        return ("failed", "checks " + ",".join(failing)) if failing else ("ok", {})
    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _triplet(rng: random.Random, lo: float, hi: float, seed: int, acceptance: float):
    """The middle of [lo, hi], then two couplings placed symmetrically about it.

    Verify time grows with s, so the median job is always the middle one
    and its time does not move with the seed while the other couplings
    do.  The middle job comes first, so it is the one run twice.  Seed 0
    puts the acceptance config in the triplet.
    """
    mid = 0.5 * (lo + hi)
    d = abs(acceptance - mid) if seed == 0 else rng.uniform(0.0, 0.5 * (hi - lo))
    return [round(mid, 6), round(mid - d, 6), round(mid + d, 6)]


def _verify_jobs(couplings: list[float]) -> list[Job]:
    jobs = []
    for s in couplings:
        argv = ["verify", "--s", repr(s), "--n-max", "2", "--oracle", "both",
                "--tol", repr(VERIFY_TOL)]
        jobs.append(Job(key=len(jobs), label=f"verify s={s}",
                        levels=len(closed_levels(s, 2)), argv=argv,
                        check=check_verify(s, 2)))
    return jobs


def _draw(rng: random.Random, lo: float, hi: float, seed: int, acceptance: float) -> float:
    return acceptance if seed == 0 else round(rng.uniform(lo, hi), 6)


def _strata(rng: random.Random, lo: float, hi: float, seed: int, acceptance: float):
    """One coupling from each half of [lo, hi], so the seed moves the spread
    of level times less than a single draw would; seed 0 puts the
    acceptance config in its half."""
    mid = 0.5 * (lo + hi)
    draws = [round(rng.uniform(lo, mid), 6), round(rng.uniform(mid, hi), 6)]
    if seed == 0:
        draws[acceptance >= mid] = acceptance
    return draws


def make_jobs(workload: str, seed: int) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify_bound":
        return _verify_jobs(_triplet(rng, *BOUND_RANGE, seed, ACCEPTANCE_BOUND_S))
    if workload == "verify_band":
        return _verify_jobs(_triplet(rng, *BAND_RANGE, seed, ACCEPTANCE_BAND_S))
    if workload == "eigenstates":
        specs = ([(s, n, "none") for s in _strata(rng, *BOUND_RANGE, seed, ACCEPTANCE_BOUND_S)
                  for n in range(EIGEN_N_MAX + 1)]
                 + [(s, n, e) for s in _strata(rng, *BAND_RANGE, seed, ACCEPTANCE_BAND_S)
                    for n in range(EIGEN_N_MAX + 1) for e in ("lower", "upper")])
        return [Job(key=i, label=f"eigenstate s={s} n={n} {e}", levels=1, spec=(s, n, e),
                    check=check_eigenstate(s, n, None if e == "none" else e))
                for i, (s, n, e) in enumerate(specs)]
    if workload == "cli_short":
        s_bound = _draw(rng, *BOUND_RANGE, seed, ACCEPTANCE_BOUND_S)
        s_band = _draw(rng, *BAND_RANGE, seed, ACCEPTANCE_BAND_S)
        n_bound, n_band = rng.randrange(6), rng.randrange(6)
        edge = rng.choice(["lower", "upper"])
        n_levels_band = len(closed_levels(s_band, CLI_N_MAX))
        table = [
            (["spectrum", "--s", repr(s_bound)], len(closed_levels(s_bound, CLI_N_MAX)),
             "json", check_spectrum(s_bound, "json", False)),
            (["spectrum", "--s", repr(s_band)], n_levels_band,
             "csv", check_spectrum(s_band, "csv", False)),
            (["bands", "--s", repr(s_band)], n_levels_band,
             "json", check_spectrum(s_band, "json", True)),
            (["bands", "--s", repr(s_band)], n_levels_band,
             "csv", check_spectrum(s_band, "csv", True)),
            (["wavefunction", "--s", repr(s_bound), "--n", str(n_bound),
              "--samples", str(WAVEFUNCTION_SAMPLES)], 1,
             "json", check_wavefunction(s_bound, n_bound, None, "json")),
            (["wavefunction", "--s", repr(s_band), "--n", str(n_band), "--edge", edge,
              "--samples", str(WAVEFUNCTION_SAMPLES)], 1,
             "csv", check_wavefunction(s_band, n_band, edge, "csv")),
            (["table1", "--s", repr(s_band), "--n", str(n_band), "--edge", edge], 1,
             "json", check_table1(s_band, n_band, edge, "json")),
            (["table1", "--s", repr(s_bound), "--n", str(n_bound)], 1,
             "csv", check_table1(s_bound, n_bound, None, "csv")),
        ]
        jobs = []
        for argv, levels, fmt, check in table:
            if argv[0] in ("spectrum", "bands"):
                argv = argv + ["--n-max", str(CLI_N_MAX)]
            jobs.append(Job(key=len(jobs), label=" ".join(argv + ["--format", fmt]),
                            levels=levels, argv=argv + ["--format", fmt], check=check))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verify_bound", "verify_band", "eigenstates", "cli_short")

# Wall seconds of one job on the reference box (2-vCPU x86-64 VM, pure-Python
# kernel), its calibration included.  A run of --seconds S makes
# S / NOMINAL_JOB_S jobs (see run.job_budget); an eigenstates job is one level.
NOMINAL_JOB_S = {"verify_bound": 5.3, "verify_band": 3.5, "eigenstates": 0.024,
                 "cli_short": 1.1}
