"""Span tracer for the scarf benchmark.

The tracer records spans from the benchmark's own files: it replaces the
module attributes through which scarf's callers look up each layer
(``scarf.oracle.shoot``, ``scarf.verify.scan_spectrum``, ...) with wrappers
that open a span around the call.  ``src/`` is not edited; ``uninstall``
puts every original back.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 for a root).  Spans are kept in memory and summarised
when a job ends.  A span's self time is its duration minus the durations
of its child spans, so the self times of one job add up to the time its
root spans cover.

The kernel ``scarf.kernels.shoot_halfcell`` is counted, not spanned: each
call adds to ``kernels.calls``, to ``kernels.rk_steps`` (the step count in
its return value) and to ``kernel_s``.  Its time therefore stays inside
the self time of the ``shoot`` span that called it (grid, polish or
re-bracket), and ``kernel_s`` is a cross-cut of those layers.

``shoot`` calls are named by where they happen: outside ``find_eigen``
they sample the scan grid (``oracle.grid``); inside it they polish a root
(``oracle.polish``) or, when made with a smaller start offset than the
enclosing ``find_eigen`` (the delta-halving re-solve), re-bracket it
(``oracle.rebracket``).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

clock = time.perf_counter

# Layers whose escaping ScarfErrors are counted as "<layer>.errors".
ERROR_LAYERS = ("wavefunction", "polynomials", "qmf")

PROBES = ("schrodinger_residual", "count_nodes", "parity", "boundary_exponent")

# (module, attribute, span name).  Each attribute is a name some caller
# looks up at call time; modules not yet imported are skipped.
SPAN_HOOKS = [
    ("scarf.cli", "run_verification", "verify.run"),
    ("scarf.cli", "json_dumps", "cli.serialize"),
    ("scarf.cli", "csv_lines", "cli.serialize"),
    ("scarf.cli", "_emit", "cli.serialize"),
    ("scarf.cli", "build_wavefunction", "wavefunction.build"),
    ("scarf.cli", "sample_wavefunction", "wavefunction.sample"),
    ("scarf.verify", "scan_spectrum", "oracle.scan"),
    ("scarf.verify", "fd_bound_spectrum", "oracle.fd"),
    ("scarf.verify", "build_wavefunction", "wavefunction.build"),
    ("scarf.verify", "residue_report", "qmf.residue_report"),
    ("scarf.verify", "verify_riccati", "qmf.riccati"),
    ("scarf.verify", "chi_parity_defect", "qmf.chi_parity"),
    *[("scarf.verify", name, "wavefunction.probe") for name in PROBES],
    ("scarf.wavefunction", "build_wavefunction", "wavefunction.build"),
    *[("scarf.wavefunction", name, "wavefunction.probe") for name in PROBES],
    ("scarf.wavefunction", "build_poly", "polynomials.build"),
    ("scarf.wavefunction", "quad", "wavefunction.quad"),
    ("scarf.qmf", "residue_report", "qmf.residue_report"),
    ("scarf.qmf", "verify_riccati", "qmf.riccati"),
    ("scarf.qmf", "chi_parity_defect", "qmf.chi_parity"),
    ("scarf.qmf", "real_roots", "polynomials.roots"),
    ("scarf.oracle", "brentq", "oracle.brentq"),
]


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self, clock=clock):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.kernel_s = 0.0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._find_eigen_delta: list[float] = []
        self._undo: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.clock(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def _note_error(self, name: str, exc: Exception) -> None:
        """Count an exception once, at the innermost span it escapes."""
        if getattr(exc, "_perfbench_layer", None) is not None:
            return
        layer = name.split(".", 1)[0]
        exc._perfbench_layer = layer
        if layer in ERROR_LAYERS:
            self.counts[f"{layer}.errors"] += 1

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self._note_error(name, exc)
            raise
        finally:
            self.close(idx)

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("reset with open spans")
        self.spans = []
        self.counts = Counter()
        self.kernel_s = 0.0

    def summary(self) -> dict:
        """Self time per span name, counters, and the kernel cross-cut."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
        return {"self_s": dict(self_s), "counts": dict(self.counts),
                "kernel_s": self.kernel_s}

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name: str, orig):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            # recursive calls (json_dumps) stay inside the outer span
            if self._stack and self.spans[self._stack[-1]][0] == name:
                return orig(*args, **kwargs)
            return self.call(name, orig, *args, **kwargs)
        return wrapper

    def _shoot(self, orig):
        @functools.wraps(orig)
        def wrapper(params, energy, cfg):
            if not self._find_eigen_delta:
                name = "oracle.grid"
                self.counts["oracle.grid_shoot_calls"] += 1
            elif cfg.resolve_delta(params.a) < self._find_eigen_delta[-1]:
                name = "oracle.rebracket"
            else:
                name = "oracle.polish"
            return self.call(name, orig, params, energy, cfg)
        return wrapper

    def _find_eigen(self, orig):
        @functools.wraps(orig)
        def wrapper(params, bracket, cfg, *args, **kwargs):
            self._find_eigen_delta.append(cfg.resolve_delta(params.a))
            try:
                res = self.call("oracle.find_eigen", orig, params, bracket, cfg,
                                *args, **kwargs)
            except Exception:
                self.counts["oracle.brackets_failed"] += 1
                raise
            finally:
                self._find_eigen_delta.pop()
            self.counts["oracle.brackets_found"] += 1
            return res
        return wrapper

    def _kernel(self, orig):
        @functools.wraps(orig)
        def wrapper(*args):
            t0 = self.clock()
            out = orig(*args)
            self.kernel_s += self.clock() - t0
            self.counts["kernels.calls"] += 1
            self.counts["kernels.rk_steps"] += int(out[3])
            return out
        return wrapper

    def _patch(self, module_name: str, attr: str, make) -> None:
        module = sys.modules.get(module_name)
        if module is None:
            return
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        setattr(module, attr, make(orig))
        self._undo.append((module, attr, orig))

    def install(self) -> None:
        """Wrap every hook whose module is loaded; idempotent."""
        if self._undo:
            return
        self.missing = []
        for module_name, attr, name in SPAN_HOOKS:
            self._patch(module_name, attr, functools.partial(self._spanned, name))
        self._patch("scarf.oracle", "shoot", self._shoot)
        self._patch("scarf.oracle", "find_eigen", self._find_eigen)
        self._patch("scarf.kernels", "shoot_halfcell", self._kernel)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, orig = self._undo.pop()
            setattr(module, attr, orig)
