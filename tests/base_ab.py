"""The checks of a change against the tree it is based on, in one run.

    python tests/base_ab.py BASE

BASE is a directory that holds the base tree, or a git revision of this
repository, which is extracted whole with git archive into a temporary
directory.  The script compares that tree with this one in six parts
and prints what moved in each:

- Memory: the peak RSS (ru_maxrss from os.wait4) of a fresh
  `python -m scarf.cli` process of each tree at each MEMORY run, its
  stdout discarded, RSS_ROUNDS times a side, the trees alternating;
  prints the median and range.  Peak RSS moves with the name of the
  directory a process runs from, so each tree's src/ is copied first to
  rss/base and rss/head in the temporary directory, and each run renames
  its tree's copy to rss/run and back: every run uses one path.  It runs
  first, while this process is small: a forked child's ru_maxrss starts
  at its parent's RSS.
- CLI: each tree's own tests/cli_digest.py runs in a subprocess, whatever
  its exit code.  Prints the runs whose line moved.  Fails when the exit
  code of a run that both trees make moved: a report may change, a verdict
  not.  A run that raised reads traceback:<type> in place of its code.
- Probes: both trees' src/scarf load in one process under two package
  names, scarf_base and scarf_head (the package imports its own modules
  only by relative imports, so the two do not mix).  Every state of the
  660-state set runs this script's probe_values ROUNDS times on each
  tree, the trees alternating and the one that goes first alternating
  too.  Prints the states whose values moved and the median job of each
  tree.  Fails when a state that raised no longer raises, or the reverse.
- Size: the line count of each tree's src/scarf/*.py and the names that
  the package's __all__ gained and lost.
- Test IDs: pytest --collect-only in each tree, with PYTHONPATH=src.
  Prints the IDs that vanished and the new ones.  Fails when the head
  collects fewer tests, or when a vanished ID, with its [...] part
  dropped, is not named in the head's CHANGES.md.
- Work: kernel calls and RK steps (index 3 of kernels.shoot_halfcell's
  result), recurrence point-steps (n times the size of t, summed over the
  gegenbauer_ratios calls of wavefunction and qmf) and the grid size N of
  each oracle._collocate call (one dense eigvals call each, so the list
  also counts the dense-solver calls) of run_verification at the WORK
  configurations, on each tree, their ratio base / head, and whether the
  two reports are identical.

Exits 1 when the CLI, probe or test-ID rule fails, else 0.  Memory,
timings, size and work counts inform; they never fail the run.  pytest
does not collect this file (its name has no test_ prefix).
"""

from __future__ import annotations

import importlib.util
import io
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

from fixed_sets import STATE_FAMILIES, STATE_LEVELS

HEAD = Path(__file__).resolve().parents[1]
HIGH = (100, 200, 500)
ROUNDS = 3
RSS_ROUNDS = 3
# (s, n_max, oracle) of each run_verification the work ledger counts
WORK = ((0.4, 2, "both"), (2.0, 2, "both"), (30.0, 2, "both"), (0.4, 100, "both"),
        (2.0, 100, "both"), (30.0, 100, "both"), (2.0, 100, "shooting"),
        (1000.0, 2, "shooting"), (2.0, 500, "fd"))
# the CLI runs whose peak RSS the memory ledger prints
MEMORY = ("wavefunction --s 2 --samples 100000", "wavefunction --s 2 --samples 100000 --format csv",
          "spectrum --s 2 --n-max 20000", "verify --s 2 --n-max 2")


def base_tree(base: str, scratch: str) -> Path:
    """The base tree: base if it is a directory, else git revision base
    extracted whole into scratch."""
    if Path(base).is_dir():
        return Path(base).resolve()
    archive = subprocess.run(["git", "-C", str(HEAD), "archive", base],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(scratch, filter="data")
    return Path(scratch)


def python(tree: Path, *args: str, check: bool = True) -> list[str]:
    """The stdout lines of `python args`, run in tree with PYTHONPATH=src."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *args], cwd=tree, env=env, capture_output=True,
                          text=True, check=check).stdout.splitlines()


def peak_rss_mb(tree: Path, args: str) -> float:
    """Peak RSS in MB of a fresh `python -m scarf.cli args` in tree, with
    PYTHONPATH=src and its output discarded."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen([sys.executable, "-m", "scarf.cli", *args.split()], cwd=tree,
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024


def ledger_roots(roots: dict, scratch: Path) -> dict:
    """name -> scratch/rss/name, a copy of that tree's src/: the memory
    ledger's roots, whose paths have equal length for names of equal
    length, and which memory_ledger renames to scratch/rss/run in turn."""
    ledger = {name: scratch / "rss" / name for name in roots}
    for name, root in roots.items():
        shutil.copytree(root / "src", ledger[name] / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return ledger


def memory_ledger(roots: dict) -> None:
    """Print the median and range of each tree's peak RSS at each MEMORY
    run, the tree that goes first alternating.  roots are ledger_roots'
    copies: each run renames its tree's copy to run, next to it, and back."""
    for args in MEMORY:
        peaks = {name: [] for name in roots}
        for r in range(RSS_ROUNDS):
            for name in sorted(roots, reverse=r % 2 == 1):
                run = roots[name].rename(roots[name].with_name("run"))
                try:
                    peaks[name].append(peak_rss_mb(run, args))
                finally:
                    run.rename(roots[name])
        print(f"{args}: peak RSS " + ", ".join(
            f"{statistics.median(mb):.1f} MB {name} [{min(mb):.1f}-{max(mb):.1f}]"
            for name, mb in peaks.items()))


def load(name: str, src: Path):
    """The package in src/scarf, imported under name."""
    spec = importlib.util.spec_from_file_location(
        name, src / "scarf" / "__init__.py", submodule_search_locations=[str(src / "scarf")])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def moved(before: dict, after: dict) -> list:
    """The keys that both dicts hold with different values, sorted."""
    return sorted(k for k in before.keys() & after.keys() if before[k] != after[k])


def cli_rule(before: list[str], after: list[str]) -> bool:
    """Print the CLI runs whose line moved; True when the exit code of a
    run that both trees make moved.  A line reads: exit code, stdout
    sha256, the run's arguments."""
    runs = [{label: (code, digest) for code, digest, label in
             (line.split(" ", 2) for line in lines)} for lines in (before, after)]
    failed, changed = False, moved(*runs)
    for label in changed:
        (code_b, _), (code_h, _) = runs[0][label], runs[1][label]
        failed |= code_b != code_h
        print(f"moved: {label}" + (f" (exit code {code_b} -> {code_h})" if code_b != code_h else ""))
    for label in sorted(runs[0].keys() ^ runs[1].keys()):
        print(f"{'new' if label in runs[1] else 'gone'}: {label}")
    print(f"{len(changed)} of {len(runs[1])} CLI runs moved")
    return failed


def probe_rule(before: dict, after: dict) -> bool:
    """Print the states whose probe record moved; True when a state that
    raised no longer raises, or the reverse.  A record is ("ok", repr of
    the values) or (error type, None)."""
    failed, changed = False, moved(before, after)
    for label in changed:
        (b, _), (h, _) = before[label], after[label]
        failed |= (b == "ok") != (h == "ok")
        print(f"moved: {label}" + (f" ({b} -> {h})" if b != h else ""))
    print(f"{len(changed)} of {len(after)} states moved")
    return failed


def id_rule(before: set[str], after: set[str], changes: str) -> bool:
    """Print the test IDs that vanished and the new ones; True when the
    head collects fewer tests, or a vanished ID without its [...] part is
    not a substring of changes, the head's CHANGES.md."""
    unlisted = 0
    for test_id in sorted(before - after):
        listed = test_id.split("[", 1)[0] in changes
        unlisted += not listed
        print(f"vanished: {test_id}" + ("" if listed else " (not named in CHANGES.md)"))
    for test_id in sorted(after - before):
        print(f"new: {test_id}")
    print(f"{len(before)} tests at the base, {len(after)} at the head, "
          f"{unlisted} vanished IDs not named in CHANGES.md")
    return len(after) < len(before) or unlisted > 0


def probe_values(params, line, pkg) -> tuple:
    """The values `scarf verify` measures on one state, oracles excluded."""
    wf = pkg.build_wavefunction(params, line)
    chi = pkg.ChiFunction.from_wavefunction(wf)
    rep = pkg.residue_report(chi)
    return (rep.b1_measured, rep.b1_prime_measured, rep.d1_measured, rep.moving_pole_count,
            rep.sum_rule_defect, pkg.verify_riccati(chi), pkg.qmf.chi_parity_defect(chi),
            pkg.schrodinger_residual(wf), pkg.count_nodes(wf), pkg.parity(wf).value,
            pkg.boundary_exponent(wf))


def probe(pkg, params, line) -> tuple[float, tuple]:
    """(seconds, record) of one state's probes; the clock stops before the repr."""
    t0 = time.perf_counter()
    try:
        values = probe_values(params, line, pkg)
    except Exception as exc:  # any error: its type is the state's record
        return time.perf_counter() - t0, (type(exc).__name__, None)
    return time.perf_counter() - t0, ("ok", repr(values))


def probe_ab(trees: dict) -> tuple[dict, dict]:
    """label -> record of each state on each tree, and the job times of
    each tree by (tree, level group).  A state's params and line are built
    off the clock; where spectrum_line raises, its error is the record."""
    records = {name: {} for name in trees}
    times = {(name, group): [] for name in trees for group in ("low", "high")}
    for i, ((s, edge), n) in enumerate((family, n) for family in STATE_FAMILIES
                                       for n in STATE_LEVELS):
        label = f"s={s!r} edge={edge} n={n}"
        states = {}
        for name, pkg in trees.items():
            params = pkg.PotentialParams(s=s)
            try:
                states[name] = params, pkg.spectrum_line(params, n, pkg.Edge(edge))
            except Exception as exc:  # the state has no line on this tree
                records[name][label] = (type(exc).__name__, None)
        for r in range(ROUNDS):
            for name in sorted(states, reverse=(i + r) % 2 == 1):
                t, records[name][label] = probe(trees[name], *states[name])
                times[name, "high" if n in HIGH else "low"].append(t)
    return records, times


def work(pkg, s: float, n_max: int, oracle: str) -> tuple[int, int, int, list[int], str]:
    """(kernel calls, RK steps, recurrence point-steps, collocation grid
    sizes, repr of the report) of one run_verification."""
    counts, grids = [0, 0, 0], []
    shoot, ratios, collocate = (pkg.kernels.shoot_halfcell, pkg.wavefunction.gegenbauer_ratios,
                                pkg.oracle._collocate)

    def counted_shoot(*args):
        out = shoot(*args)
        counts[0] += 1
        counts[1] += out[3]
        return out

    def counted_ratios(n, kappa, t):
        counts[2] += n * t.size
        return ratios(n, kappa, t)

    def counted_collocate(s, mu, k):
        grids.append(pkg.oracle._grid_size(s, k))
        return collocate(s, mu, k)

    patches = [(pkg.kernels, "shoot_halfcell", counted_shoot),
               (pkg.wavefunction, "gegenbauer_ratios", counted_ratios),
               (pkg.qmf, "gegenbauer_ratios", counted_ratios),
               (pkg.oracle, "_collocate", counted_collocate)]
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    for module, name, wrapper in patches:
        setattr(module, name, wrapper)
    try:
        report = pkg.run_verification(pkg.PotentialParams(s=s), n_max, oracle)
    finally:
        for module, name, orig in saved:
            setattr(module, name, orig)
    return (*counts, grids, repr(report))


def ratio(base: float, head: float) -> str:
    return f"{base / head:.3f}" if head else "-"


def main(base: str) -> int:
    failed = []
    with tempfile.TemporaryDirectory() as scratch:
        roots = {"base": base_tree(base, str(Path(scratch) / "tree")), "head": HEAD}

        print("== memory")
        memory_ledger(ledger_roots(roots, Path(scratch)))

        print("== CLI digest")
        if cli_rule(*(python(root, "tests/cli_digest.py", check=False)
                      for root in roots.values())):
            failed.append("a CLI exit code moved")

        print("== probes")
        trees = {name: load(f"scarf_{name}", root / "src") for name, root in roots.items()}
        records, times = probe_ab(trees)
        if probe_rule(records["base"], records["head"]):
            failed.append("a probe state's raising flipped")
        for group, label in (("low", "n <= 40"), ("high", "n in {100, 200, 500}")):
            base_t, head_t = (statistics.median(times[name, group]) for name in trees)
            print(f"{label}: median job {base_t * 1e6:.0f} us base, {head_t * 1e6:.0f} us head, "
                  f"ratio {ratio(base_t, head_t)} over {len(times['head', group])} jobs each")

        print("== source size")
        for name, root in roots.items():
            lines = sum(p.read_bytes().count(b"\n") for p in (root / "src" / "scarf").glob("*.py"))
            print(f"{name}: {lines} lines in src/scarf, {len(trees[name].__all__)} names in __all__")
        exported = [set(pkg.__all__) for pkg in trees.values()]
        for name in sorted(exported[1] - exported[0]):
            print(f"added: {name}")
        for name in sorted(exported[0] - exported[1]):
            print(f"removed: {name}")

        print("== test IDs")
        ids = [{line.strip() for line in python(root, "-m", "pytest", "--collect-only", "-q",
                                                "-p", "no:cacheprovider", check=False)
                if "::" in line} for root in roots.values()]
        if id_rule(*ids, (HEAD / "CHANGES.md").read_text()):
            failed.append("tests vanished unnamed in CHANGES.md, or fewer were collected")

        print("== work")
        for s, n_max, oracle in WORK:
            base_w, head_w = (work(pkg, s, n_max, oracle) for pkg in trees.values())
            counted = "; ".join(f"{what} {b} base, {h} head (ratio {ratio(b, h)})" for what, b, h in
                                zip(("kernel calls", "RK steps", "recurrence point-steps"),
                                    base_w, head_w))
            print(f"s={s} n_max={n_max} {oracle}: {counted}; collocation grids N "
                  f"{base_w[3]} base, {head_w[3]} head; reports "
                  + ("identical" if base_w[4] == head_w[4] else "differ"))

    print("FAILED: " + "; ".join(failed) if failed else "every rule holds")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/base_ab.py BASE")
    sys.exit(main(sys.argv[1]))
