"""Command-line front end.

Subcommands: spectrum, bands (spectrum restricted to the band regime),
wavefunction, verify, table1.  Data goes to stdout or --out; diagnostics
go to stderr only, at the level selected by SCARF_LOG={error,info,debug}.

Output is reproducible byte for byte: JSON uses a fixed field order and
fixed 17-significant-digit floats, CSV uses shortest round-trip floats,
comma separators, and LF line endings.

Exit codes: 0 success, 1 verification found failing checks, 2 invalid
configuration or parameters, 3 I/O failure.
"""

from __future__ import annotations

import json
import logging
import math
import os
import sys

import click

from .errors import RegimeError, ScarfError
from .potential import PotentialParams, Regime
from .spectrum import Edge, enumerate_residue_sets, spectrum_line, spectrum_lines
from .verify import level_report, params_entry, run_verification
from .wavefunction import build_wavefunction, sample_wavefunction

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_IO = 3

# named, not __name__, so that `python -m scarf.cli` logs under "scarf" too
logger = logging.getLogger("scarf.cli")


# --------------------------------------------------------------------------
# deterministic serialization
# --------------------------------------------------------------------------

def format_float(x: float) -> str:
    """Fixed 17-significant-digit decimal form, round-trip exact."""
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value {x} cannot be serialized")
    return format(float(x), ".17g")


def json_dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-order fields, fixed float format.

    The stdlib encoder formats floats via repr (shortest round trip); this
    hand emitter pins the 17-digit convention instead.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {json_dumps(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{json_dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)}")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip, also for np.float64
    return str(value)


def csv_lines(fieldnames: list[str], rows: list[dict]) -> str:
    lines = [",".join(fieldnames)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(name)) for name in fieldnames))
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w", newline="") as fh:
        fh.write(text)


# --------------------------------------------------------------------------
# subcommands: shared flags, the config file, emission
# --------------------------------------------------------------------------

def _load_config(ctx: click.Context, _param, path: str | None) -> None:
    """Eager --config callback: the file's non-null values become the
    command's default_map, as the text the flag would take, so click parses
    them as it parses flags and explicit flags still win.  The keys are the
    parameter names."""
    if path is None:
        return
    with open(path) as fh:
        try:
            file_cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed config {path}: {exc}") from None
    if not isinstance(file_cfg, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    names = {param.name for param in ctx.command.params} - {"config"}
    for key in file_cfg:
        if key not in names:
            raise ValueError(f"unknown config key {key!r}")
    ctx.default_map = {key: str(value) for key, value in file_cfg.items()
                       if value is not None}


def _line(params: PotentialParams, n: int, edge: str | None):
    """The level chosen by --n and --edge (no --edge for bound levels)."""
    return spectrum_line(params, n, Edge(edge or Edge.NOT_APPLICABLE))


class _Group(click.Group):
    """Maps outcomes to exit codes, once for every subcommand: a written
    verify report with failing checks exits 1; I/O failures exit 3;
    invalid parameters, configurations and levels exit 2, and so does
    arithmetic that leaves the float range for the given parameters."""

    def invoke(self, ctx):
        try:
            payload = super().invoke(ctx)
        except (OSError, ScarfError, ValueError, ArithmeticError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_IO if isinstance(exc, OSError) else EXIT_BAD_CONFIG)
        summary = payload.get("summary")
        if summary is not None and not summary["all_pass"]:
            click.echo(f"verification FAILED: {summary['n_failed']} check(s) above "
                       "tolerance", err=True)
            sys.exit(EXIT_CHECKS_FAILED)
        return payload


@click.group(cls=_Group)
def main():
    """Spectra and eigenfunctions of the Scarf potential, with built-in
    numerical verification."""
    level = os.environ.get("SCARF_LOG", "error").strip().lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    # a handler bound to the current stderr replaces the one of an earlier
    # call in this process (click's CliRunner swaps sys.stderr per call)
    package_logger = logging.getLogger("scarf")
    for old in [h for h in package_logger.handlers if h.get_name() == "scarf.cli"]:
        package_logger.removeHandler(old)
    handler = logging.StreamHandler(sys.stderr)
    handler.set_name("scarf.cli")
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    package_logger.addHandler(handler)
    package_logger.setLevel(levels.get(level, logging.ERROR))


_SHARED_OPTIONS = (
    click.option("--s", type=float, required=True,
                 help="Coupling parameter (here or in --config)."),
    click.option("--a", type=float, default=1.0, show_default=True,
                 help="Potential period."),
    click.option("--m", type=float, default=1.0, show_default=True,
                 help="Particle mass."),
    click.option("--format", type=click.Choice(["json", "csv"]), default="json",
                 show_default=True),
    click.option("--out", type=str, default=None,
                 help="Write data to PATH instead of stdout."),
    click.option("--config", type=str, default=None, is_eager=True, expose_value=False,
                 callback=_load_config,
                 help="JSON config file; flags override its values."),
)


def subcommand(*options):
    """Registers body(params, cfg) as a subcommand of main, with the shared
    flags followed by options.

    cfg holds every parameter but --config, whose file values click has
    parsed as it parses flags.  The body returns (payload,
    csv_header, csv_rows); the command writes the JSON payload or the CSV
    rows, whichever --format names, to --out or stdout and returns the
    payload.  csv_rows may be lazy: only the CSV format reads it.  body
    itself is returned unchanged, so one body can call another.
    """
    def register(body):
        def command(**cfg):
            params = PotentialParams(s=cfg["s"], a=cfg["a"], m=cfg["m"])
            payload, header, rows = body(params, cfg)
            _emit(json_dumps(payload) + "\n" if cfg["format"] == "json"
                  else csv_lines(header, rows), cfg["out"])
            return payload

        for option in reversed(_SHARED_OPTIONS + options):
            command = option(command)
        main.command(body.__name__, help=body.__doc__)(command)
        return body
    return register


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

@subcommand(click.option("--n-max", type=int, default=3, show_default=True,
                         help="Highest level/band index."))
def spectrum(params, cfg):
    """Closed-form spectrum for n = 0..n_max (both edges in the band
    regime, plus band widths and gaps)."""
    n_max = cfg["n_max"]
    lines = spectrum_lines(params, n_max)
    logger.info("spectrum: s=%g a=%g m=%g regime=%s n_max=%d",
                params.s, params.a, params.m, params.regime.value, n_max)
    payload = level_report(params, lines, [])
    if params.regime in (Regime.BANDS, Regime.FREE_PARTICLE):
        energy = {(ln.n, ln.edge): ln.energy for ln in lines}
        payload["bands"] = {
            "widths": [{"n": n, "width": energy[n, Edge.UPPER] - energy[n, Edge.LOWER]}
                       for n in range(n_max + 1)],
            "gaps": [{"n": n, "gap": energy[n + 1, Edge.LOWER] - energy[n, Edge.UPPER]}
                     for n in range(n_max)],
        }
    return payload, list(payload["levels"][0]), payload["levels"]


@subcommand(click.option("--n-max", type=int, default=3, show_default=True))
def bands(params, cfg):
    """Spectrum restricted to the band regime (0 < s < 1/2)."""
    if params.regime is not Regime.BANDS:
        raise RegimeError(f"s = {params.s} is not in the band regime (0 < s < 1/2)")
    return spectrum(params, cfg)


@subcommand(
    click.option("--n", type=int, default=0, show_default=True,
                 help="Level/band index."),
    click.option("--edge", type=click.Choice(["lower", "upper"]), default=None,
                 help="Band edge (band regime only)."),
    click.option("--samples", type=int, default=512, show_default=True),
)
def wavefunction(params, cfg):
    """Sample one normalized eigenfunction: columns x, V, psi, psi_squared."""
    line = _line(params, cfg["n"], cfg["edge"])
    cols = sample_wavefunction(build_wavefunction(params, line), cfg["samples"])
    payload = level_report(params, [line], [])
    samples = payload["samples"] = {name: list(map(float, arr)) for name, arr in cols.items()}
    return payload, list(samples), (dict(zip(samples, row)) for row in zip(*samples.values()))


@subcommand(
    click.option("--n-max", type=int, default=2, show_default=True),
    click.option("--oracle", type=click.Choice(["shooting", "fd", "both"]),
                 default="both", show_default=True,
                 help="fd is the Chebyshev-collocation oracle."),
    click.option("--tol", type=float, default=1e-8, show_default=True,
                 help="Relative tolerance for oracle-energy agreement.  A level "
                      "that the shooting oracle cannot certify within 1e-10 "
                      "fails at any tol."),
)
def verify(params, cfg):
    """Run every closed-form level through the oracles and structural
    checks; exit 0 only if all checks pass."""
    report = run_verification(params, cfg["n_max"], cfg["oracle"], cfg["tol"])
    return (report, ["n", "edge", "name", "value", "threshold", "pass", "observed"],
            report["checks"])


@subcommand(
    click.option("--lambda", type=float, default=None,
                 help="Dimensionless energy parameter (else derive from --n/--edge)."),
    click.option("--n", type=int, default=None, help="Level index."),
    click.option("--edge", type=click.Choice(["lower", "upper"]), default=None),
)
def table1(params, cfg):
    """Enumerate all residue combinations at a given lambda with their
    validity verdicts."""
    lam = cfg["lambda"]
    if lam is None:
        if cfg["n"] is None:
            raise ValueError("give --lambda or --n (with --edge in the band regime)")
        lam = _line(params, cfg["n"], cfg["edge"]).lam
    rows = [{"set": rs.set_id, "b1": rs.b1, "b1_prime": rs.b1_prime, "d1": rs.d1,
             "n": rs.n_value, "valid": rs.valid,
             "remark": "valid" if rs.valid else f"not valid ({rs.rejection_reason})"}
            for rs in enumerate_residue_sets(params, lam)]
    payload = {"params": params_entry(params), "regime": params.regime.value,
               "lambda": lam, "sets": rows}
    return payload, ["set", "b1", "b1_prime", "d1", "n", "valid", "remark"], rows


if __name__ == "__main__":
    main()
