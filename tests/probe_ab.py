"""In-process probe timing of a base tree against this one, in alternating pairs.

    python tests/probe_ab.py BASE

BASE is the directory of a base checkout (its src/scarf is read), or a
git revision of this repository, whose src/scarf is extracted to a
temporary directory.  Both trees' src/scarf load in one process under two
package names, scarf_base and scarf_head; the package imports its own
modules only by relative imports, so the two do not mix.

Every state of probe_digest.py's 660-state set runs probe_values ROUNDS
times on each tree, base and head alternating, and the tree that goes
first alternating too; a state's params and line are built off the clock.
The script prints the median job of each tree for n <= 40 and for n in
{100, 200, 500}, the ratio base / head of each (above 1: the head is
faster), and whether every state's values (or error type) are
repr-identical on both trees.  It exits 0 whatever the timings and values
show: on a shared host such timings inform, they do not gate.  pytest does
not collect this file (its name has no test_ prefix).
"""

from __future__ import annotations

import importlib.util
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import probe_digest  # noqa: E402

ROUNDS = 3
HIGH = (100, 200, 500)


def load(name: str, src: Path):
    """The package in src/scarf, imported under name."""
    spec = importlib.util.spec_from_file_location(
        name, src / "scarf" / "__init__.py", submodule_search_locations=[str(src / "scarf")])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def base_src(base: str, scratch: Path) -> Path:
    """src/ of the base tree: base's own if base is a directory, else the
    src/scarf of git revision base, extracted under scratch."""
    if Path(base).is_dir():
        return Path(base) / "src"
    archive = subprocess.run(["git", "-C", str(HERE.parent), "archive", base, "src/scarf"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(scratch, filter="data")
    return scratch / "src"


def states(pkg) -> list[tuple]:
    """(n, params, line) of each state of the 660-state set on one tree;
    line is None where spectrum_line raises."""
    out = []
    for s, edge in probe_digest.FAMILIES:
        params = pkg.PotentialParams(s=s)
        for n in probe_digest.LEVELS:
            try:
                line = pkg.spectrum_line(params, n, pkg.Edge(edge.value))
            except Exception:  # the state has no line on this tree
                line = None
            out.append((n, params, line))
    return out


def run(pkg, params, line) -> tuple[float, str]:
    """(seconds, repr of the values or the error type) of one state's
    probes; the clock stops before the repr."""
    t0 = time.perf_counter()
    try:
        values = probe_digest.probe_values(params, line, pkg)
    except Exception as exc:  # any error: its type is the state's record
        return time.perf_counter() - t0, type(exc).__name__
    return time.perf_counter() - t0, repr(values)


def main(base: str) -> None:
    with tempfile.TemporaryDirectory() as scratch:
        trees = {"base": load("scarf_base", base_src(base, Path(scratch))),
                 "head": load("scarf_head", HERE.parent / "src")}
    sets = {name: states(pkg) for name, pkg in trees.items()}
    times = {name: {"low": [], "high": []} for name in trees}
    identical = True
    for i, pair in enumerate(zip(sets["base"], sets["head"], strict=True)):
        state = dict(zip(("base", "head"), pair))
        n = state["base"][0]
        if state["base"][2] is None or state["head"][2] is None:
            identical &= state["base"][2] is state["head"][2]
            continue
        for r in range(ROUNDS):
            seen = {}
            for name in ("base", "head") if (i + r) % 2 == 0 else ("head", "base"):
                t, seen[name] = run(trees[name], *state[name][1:])
                times[name]["high" if n in HIGH else "low"].append(t)
            identical &= seen["base"] == seen["head"]
    for group, label in (("low", "n <= 40"), ("high", "n in {100, 200, 500}")):
        base_t, head_t = (statistics.median(times[name][group]) for name in ("base", "head"))
        print(f"{label}: median job {base_t * 1e6:.0f} us base, {head_t * 1e6:.0f} us head, "
              f"ratio {base_t / head_t:.3f} over {len(times['head'][group])} jobs each")
    print("values identical" if identical else "values differ")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/probe_ab.py BASE")
    main(sys.argv[1])
