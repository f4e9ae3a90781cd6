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
    if hasattr(obj, "item"):  # numpy scalar
        return json_dumps(obj.item(), indent)
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
        return repr(value)  # shortest round-trip representation
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
# shared options and config-file precedence
# --------------------------------------------------------------------------

def common_options(fn):
    fn = click.option("--config", "config_path", type=str, default=None,
                      help="JSON config file; flags override its values.")(fn)
    fn = click.option("--out", "out_path", type=str, default=None,
                      help="Write data to PATH instead of stdout.")(fn)
    fn = click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
                      default="json", show_default=True)(fn)
    fn = click.option("--m", type=float, default=1.0, show_default=True,
                      help="Particle mass.")(fn)
    fn = click.option("--a", type=float, default=1.0, show_default=True,
                      help="Potential period.")(fn)
    fn = click.option("--s", type=float, required=False, default=None,
                      help="Coupling parameter (required, here or in --config).")(fn)
    return fn


def resolve_config(ctx: click.Context, values: dict, config_path: str | None) -> dict:
    """flags > config file > declared defaults."""
    if config_path is None:
        return values
    with open(config_path) as fh:
        try:
            file_cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed config {config_path}: {exc}") from None
    if not isinstance(file_cfg, dict):
        raise ValueError(f"config {config_path} must hold a JSON object")
    options = {param.name: param for param in ctx.command.params}
    merged = dict(values)
    for key, file_val in file_cfg.items():
        if key not in merged:
            raise ValueError(f"unknown config key {key!r}")
        name = _param_name(key)
        if ctx.get_parameter_source(name) is not click.core.ParameterSource.COMMANDLINE:
            # parsed as the same text given as the flag would be
            merged[key] = (None if file_val is None
                           else options[name].type_cast_value(ctx, str(file_val)))
    return merged


_PARAM_ALIASES = {"out": "out_path", "format": "fmt", "n": "level_n", "lambda": "lam"}


def _param_name(key: str) -> str:
    return _PARAM_ALIASES.get(key, key)


def make_params(s: float | None, a: float, m: float) -> PotentialParams:
    if s is None:
        raise ValueError("--s is required")
    return PotentialParams(s=s, a=a, m=m)


def _line(params: PotentialParams, n: int, edge: str | None):
    """The level chosen by --n and --edge (no --edge for bound levels)."""
    return spectrum_line(params, n, Edge(edge or Edge.NOT_APPLICABLE))


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

class _Group(click.Group):
    """Maps errors to exit codes, once for every subcommand: I/O failures
    exit 3; invalid parameters, configurations and levels exit 2, and so
    does arithmetic that leaves the float range for the given parameters."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (OSError, ScarfError, ValueError, ArithmeticError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_IO if isinstance(exc, OSError) else EXIT_BAD_CONFIG)


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


def _spectrum_payload(params: PotentialParams, n_max: int) -> dict:
    if n_max < 0:
        raise ValueError("--n-max must be >= 0")
    logger.info("spectrum: s=%g a=%g m=%g regime=%s n_max=%d",
                params.s, params.a, params.m, params.regime.value, n_max)
    lines = spectrum_lines(params, n_max)
    payload = level_report(params, lines, [])
    if params.regime in (Regime.BANDS, Regime.FREE_PARTICLE):
        widths = []
        gaps = []
        for n in range(n_max + 1):
            lo = next(ln for ln in lines if ln.n == n and ln.edge is Edge.LOWER)
            hi = next(ln for ln in lines if ln.n == n and ln.edge is Edge.UPPER)
            widths.append({"n": n, "width": hi.energy - lo.energy})
            if n < n_max:
                nxt = next(ln for ln in lines if ln.n == n + 1 and ln.edge is Edge.LOWER)
                gaps.append({"n": n, "gap": nxt.energy - hi.energy})
        payload["bands"] = {"widths": widths, "gaps": gaps}
    return payload


def _emit_spectrum(payload: dict, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        _emit(json_dumps(payload) + "\n", out_path)
    else:
        rows = [dict(level, edge=level["edge"] or "") for level in payload["levels"]]
        _emit(csv_lines(list(rows[0]), rows), out_path)


@main.command()
@common_options
@click.option("--n-max", type=int, default=3, show_default=True,
              help="Highest level/band index.")
@click.pass_context
def spectrum(ctx, s, a, m, fmt, out_path, config_path, n_max):
    """Closed-form spectrum for n = 0..n_max (both edges in the band
    regime, plus band widths and gaps)."""
    cfg = resolve_config(ctx, {"s": s, "a": a, "m": m, "format": fmt,
                               "out": out_path, "n_max": n_max}, config_path)
    params = make_params(cfg["s"], cfg["a"], cfg["m"])
    _emit_spectrum(_spectrum_payload(params, cfg["n_max"]), cfg["format"], cfg["out"])


@main.command()
@common_options
@click.option("--n-max", type=int, default=3, show_default=True)
@click.pass_context
def bands(ctx, s, a, m, fmt, out_path, config_path, n_max):
    """Spectrum restricted to the band regime (0 < s < 1/2)."""
    cfg = resolve_config(ctx, {"s": s, "a": a, "m": m, "format": fmt,
                               "out": out_path, "n_max": n_max}, config_path)
    params = make_params(cfg["s"], cfg["a"], cfg["m"])
    if params.regime is not Regime.BANDS:
        raise RegimeError(f"s = {params.s} is not in the band regime (0 < s < 1/2)")
    _emit_spectrum(_spectrum_payload(params, cfg["n_max"]), cfg["format"], cfg["out"])


@main.command()
@common_options
@click.option("--n", "level_n", type=int, default=0, show_default=True,
              help="Level/band index.")
@click.option("--edge", type=click.Choice(["lower", "upper"]), default=None,
              help="Band edge (band regime only).")
@click.option("--samples", type=int, default=512, show_default=True)
@click.pass_context
def wavefunction(ctx, s, a, m, fmt, out_path, config_path, level_n, edge, samples):
    """Sample one normalized eigenfunction: columns x, V, psi, psi_squared."""
    cfg = resolve_config(ctx, {"s": s, "a": a, "m": m, "format": fmt,
                               "out": out_path, "n": level_n, "edge": edge,
                               "samples": samples}, config_path)
    params = make_params(cfg["s"], cfg["a"], cfg["m"])
    line = _line(params, cfg["n"], cfg["edge"])
    cols = sample_wavefunction(build_wavefunction(params, line), cfg["samples"])
    if cfg["format"] == "json":
        payload = level_report(params, [line], [])
        payload["samples"] = {name: list(map(float, arr)) for name, arr in cols.items()}
        _emit(json_dumps(payload) + "\n", cfg["out"])
    else:
        names = ["x", "V", "psi", "psi_squared"]
        rows = [{name: float(cols[name][i]) for name in names}
                for i in range(len(cols["x"]))]
        _emit(csv_lines(names, rows), cfg["out"])


@main.command()
@common_options
@click.option("--n-max", type=int, default=2, show_default=True)
@click.option("--oracle", type=click.Choice(["shooting", "fd", "both"]),
              default="both", show_default=True)
@click.option("--tol", type=float, default=1e-8, show_default=True,
              help="Relative tolerance for oracle-energy agreement.")
@click.pass_context
def verify(ctx, s, a, m, fmt, out_path, config_path, n_max, oracle, tol):
    """Run every closed-form level through the oracles and structural
    checks; exit 0 only if all checks pass."""
    cfg = resolve_config(ctx, {"s": s, "a": a, "m": m, "format": fmt,
                               "out": out_path, "n_max": n_max,
                               "oracle": oracle, "tol": tol}, config_path)
    params = make_params(cfg["s"], cfg["a"], cfg["m"])
    if cfg["n_max"] < 0 or cfg["tol"] <= 0:
        raise ValueError("need --n-max >= 0 and --tol > 0")
    report = run_verification(params, cfg["n_max"], cfg["oracle"], cfg["tol"])
    if cfg["format"] == "json":
        _emit(json_dumps(report) + "\n", cfg["out"])
    else:
        rows = [dict(c, edge=c["edge"] or "") for c in report["checks"]]
        _emit(csv_lines(["n", "edge", "name", "value", "threshold", "pass", "observed"],
                        rows), cfg["out"])
    if not report["summary"]["all_pass"]:
        n_failed = report["summary"]["n_failed"]
        click.echo(f"verification FAILED: {n_failed} check(s) above tolerance", err=True)
        sys.exit(EXIT_CHECKS_FAILED)


@main.command()
@common_options
@click.option("--lambda", "lam", type=float, default=None,
              help="Dimensionless energy parameter (else derive from --n/--edge).")
@click.option("--n", "level_n", type=int, default=None, help="Level index.")
@click.option("--edge", type=click.Choice(["lower", "upper"]), default=None)
@click.pass_context
def table1(ctx, s, a, m, fmt, out_path, config_path, lam, level_n, edge):
    """Enumerate all residue combinations at a given lambda with their
    validity verdicts."""
    cfg = resolve_config(ctx, {"s": s, "a": a, "m": m, "format": fmt,
                               "out": out_path, "lambda": lam, "n": level_n,
                               "edge": edge}, config_path)
    params = make_params(cfg["s"], cfg["a"], cfg["m"])
    lam_val = cfg["lambda"]
    if lam_val is None:
        if cfg["n"] is None:
            raise ValueError("give --lambda or --n (with --edge in the band regime)")
        lam_val = _line(params, cfg["n"], cfg["edge"]).lam
    rows = [
        {
            "set": rs.set_id,
            "b1": rs.b1,
            "b1_prime": rs.b1_prime,
            "d1": rs.d1,
            "n": rs.n_value,
            "valid": rs.valid,
            "remark": "valid" if rs.valid else f"not valid ({rs.rejection_reason})",
        }
        for rs in enumerate_residue_sets(params.s, lam_val)
    ]
    if cfg["format"] == "json":
        payload = {
            "params": params_entry(params),
            "regime": params.regime.value,
            "lambda": lam_val,
            "sets": rows,
        }
        _emit(json_dumps(payload) + "\n", cfg["out"])
    else:
        _emit(csv_lines(["set", "b1", "b1_prime", "d1", "n", "valid", "remark"], rows),
              cfg["out"])


if __name__ == "__main__":
    main()
