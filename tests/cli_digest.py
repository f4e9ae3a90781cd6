"""Exit code and stdout sha256 of a fixed set of CLI runs, one line each.

A refactor that must keep the reports byte-identical runs this script on
the tree before and after the change and diffs the two outputs:

    python tests/cli_digest.py > before.txt   # on the old tree
    python tests/cli_digest.py > after.txt    # on the new tree
    diff before.txt after.txt                 # empty when nothing moved

The set runs spectrum, bands, wavefunction, table1 and verify through
click's CliRunner at s in {0.05, 0.4, 0.4999, 0.5, 2, 2.37, 8}, with both
output formats and two (a, m) pairs, plus three invalid inputs.  Shooting
verify runs at s in {0.499999999, 0.5} and at --tol 1e-15 pin the pass or
fail of each level's certificate window, and those at s in {200, 300} pin
shots whose state the kernel renormalizes in flight.  At s = 0.5 and
--n-max 0 a verify run under each oracle pins the E = 0 fold, alone in its
family, with that family's completeness entries.  At each
s, a spectrum run and a verify run take s, a, m and the format from a
--config file, and one more run overrides two of its keys by flags; the
file is written to a temporary directory and its JSON printed with the
line.  pytest does not collect this file (its name has no test_ prefix).

A line starts with the run's exit code, or with traceback:<type> where the
run raised an uncaught exception, which CliRunner would report as exit
code 1, the code of a failed verification.  The script exits 1 after the
full listing when a run raised, else 0.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from click.testing import CliRunner  # noqa: E402

from scarf.cli import main  # noqa: E402

COUPLINGS = ("0.05", "0.4", "0.4999", "0.5", "2", "2.37", "8")
SCALES = (("1", "1"), ("2.5", "0.7"))
ORACLES = (
    ["verify", "--s", "0.499999999", "--n-max", "2", "--oracle", "shooting"],
    ["verify", "--s", "0.5", "--n-max", "2", "--oracle", "shooting"],
    ["verify", "--s", "0.5", "--n-max", "0", "--oracle", "shooting", "--format", "csv"],
    ["verify", "--s", "0.5", "--n-max", "0", "--oracle", "fd"],
    ["verify", "--s", "0.5", "--n-max", "0", "--oracle", "both"],
    ["verify", "--s", "0.4", "--n-max", "1", "--oracle", "shooting", "--tol", "1e-15"],
    ["verify", "--s", "2", "--n-max", "2", "--oracle", "shooting", "--tol", "1e-15"],
    ["verify", "--s", "200", "--n-max", "0", "--oracle", "shooting"],
    ["verify", "--s", "300", "--n-max", "0", "--oracle", "shooting"],
)
ERRORS = (
    ["spectrum", "--s", "-1"],
    ["wavefunction", "--s", "0.4", "--n", "0"],
    ["spectrum", "--s", "2", "--n-max", "-1"],
)


def config_cases():
    """(argument list, --config file contents) of the config runs."""
    for s in COUPLINGS:
        cfg = {"s": float(s), "a": 2.5, "m": 0.7, "format": "csv"}
        yield ["spectrum", "--config", "config.json"], cfg
        yield ["verify", "--config", "config.json", "--n-max", "1"], cfg
        yield (["spectrum", "--config", "config.json", "--format", "json", "--n-max", "1"],
               {**cfg, "n_max": 3})


def cases():
    """Every argument list of the set, in a fixed order."""
    for s in COUPLINGS:
        edges = [[]] if float(s) > 0.5 else [["--edge", "lower"], ["--edge", "upper"]]
        for a, m in SCALES:
            for fmt in ("json", "csv"):
                shared = ["--s", s, "--a", a, "--m", m, "--format", fmt]
                yield ["spectrum", *shared, "--n-max", "3"]
                yield ["bands", *shared, "--n-max", "2"]
                for edge in edges:
                    yield ["wavefunction", *shared, "--n", "1", "--samples", "16", *edge]
                    yield ["table1", *shared, "--n", "1", *edge]
                yield ["verify", *shared, "--n-max", "1"]
    yield from ORACLES
    yield from ERRORS


def main_digest() -> int:
    """Print the set's lines; 1 when a run raised, else 0."""
    runner = CliRunner()
    runs = [(args, None) for args in cases()] + list(config_cases())
    raised = False
    with runner.isolated_filesystem():
        for args, cfg in runs:
            label = " ".join(args)
            if cfg is not None:
                text = json.dumps(cfg)
                Path("config.json").write_text(text)
                label += " " + text
            result = runner.invoke(main, args)
            digest = hashlib.sha256(result.stdout_bytes).hexdigest()
            code = result.exit_code
            if result.exception is not None and not isinstance(result.exception, SystemExit):
                code, raised = f"traceback:{type(result.exception).__name__}", True
            print(code, digest, label)
    return 1 if raised else 0


if __name__ == "__main__":
    sys.exit(main_digest())
