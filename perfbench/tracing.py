"""Spans and counts around the public functions of each ``dts_ldpc`` layer.

The tracer wraps functions from outside the package: it replaces every
binding of a wrapped function in every ``dts_ldpc`` module, because
modules such as ``cli`` import names like ``to_alist`` directly and call
them through their own globals.  Methods are wrapped on their class.

A span records name, start, end, parent span and command id.  Spans stay
in memory until the batch ends.  A span's self time is its duration minus
the time covered by its child spans; since the program is single
threaded, children never overlap, so that is the sum of their durations.
``GaloisField.add`` and ``gf.det`` run millions of times per batch, so
they are counted, not timed.

Wrappers record only while a command runs, so the benchmark's own
correctness checks, which call the same functions, leave no trace.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

_clock = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    command: int
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.command: int | None = None
        self._stack: list[int] = []
        self.add_calls = {"char2": 0, "odd": 0}
        self.det_calls = 0
        self.refusals = 0
        # per-span-name totals of values read off results
        self.tallies: dict[str, int] = {}

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, _clock(), 0.0, parent, self.command))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = _clock()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.end - span.start

    def run_command(self, index: int, fn, *args):
        """Call ``fn(*args)`` as command ``index`` under a ``cli.command`` span."""
        self.command = index
        idx = self._open("cli.command")
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.command = None

    def tally(self, key: str, amount: int) -> None:
        self.tallies[key] = self.tallies.get(key, 0) + amount

    def spanned(self, name: str, fn, on_result=None):
        from dts_ldpc.errors import BudgetExhausted, HorizonTooLarge

        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.command is None:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except (HorizonTooLarge, BudgetExhausted) as exc:
                # count each refusal once, in the innermost span it leaves
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    tracer.refusals += 1
                raise
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        from dts_ldpc import analysis, code, dts, formats, gf

        modules = [m for name, m in sys.modules.items()
                   if name == "dts_ldpc" or name.startswith("dts_ldpc.")]

        def everywhere(fn, wrapper):
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)

        def wrap(name, fn, on_result=None):
            everywhere(fn, self.spanned(name, fn, on_result))

        def wrap_method(name, cls, attr, on_result=None):
            setattr(cls, attr, self.spanned(name, getattr(cls, attr), on_result))

        # gf: table builds (every construction path goes through __init__)
        wrap_method("gf.build", gf.GaloisField, "__init__")
        add = gf.GaloisField.add
        counts = self.add_calls
        tracer = self

        def counted_add(field, a, b):
            if tracer.command is not None:
                counts["char2" if field.p == 2 else "odd"] += 1
            return add(field, a, b)

        gf.GaloisField.add = counted_add
        det = gf.det

        def counted_det(field, grid):
            if tracer.command is not None:
                tracer.det_calls += 1
            return det(field, grid)

        everywhere(det, counted_det)

        # code
        nnz = lambda m: self.tally("code.sliding_nnz", m.nonzero_count)  # noqa: E731
        wrap_method("code.spec", code.CodeSpec, "__init__")
        wrap_method("code.sliding", code.CodeSpec, "sliding_matrix", nnz)
        wrap_method("code.sliding", code.CodeSpec, "full_sliding_matrix", nnz)

        # dts
        wrap("dts.search", dts.search_min_scope,
             lambda r: self.tally("dts.search_nodes", r.certificate.nodes))
        wrap("dts.validate", dts.validate)

        # analysis
        def minors(r):
            self.tally("analysis.minors_checked", r.checked)
            self.tally("analysis.minor_failures", len(r.failures))

        def cycles(r):
            self.tally("analysis.cycles_found", len(r.cycles))
            self.tally("analysis.frc_failures", len(r.frc_failures))

        wrap("analysis.minors", analysis.check_minors, minors)
        wrap("analysis.cycles", analysis.enumerate_cycles, cycles)
        wrap("analysis.distance", analysis.column_distance)
        wrap("analysis.distance", analysis.free_distance)
        wrap("analysis.assumption", analysis.check_distance_assumptions)

        # formats: the CLI's exporters
        for fn in (formats.to_alist, formats.matrix_to_json_dict, formats.render_pretty):
            wrap("formats.export", fn)

    # -- results -------------------------------------------------------------

    def layer_metrics(self, stdout_bytes: list[int], scales: list[float]) -> dict[str, float]:
        """Per-layer totals for the batch, times in reference seconds.

        ``stdout_bytes`` and ``scales`` (reference seconds per second) are
        indexed by command.
        """
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        export_cmds = set()
        for span in self.spans:
            self_s[span.name] = self_s.get(span.name, 0.0) + span.self_s * scales[span.command]
            calls[span.name] = calls.get(span.name, 0) + 1
            if span.name == "formats.export":
                export_cmds.add(span.command)
        t = self.tallies.get
        search_s = self_s.get("dts.search", 0.0)
        return {
            "gf.build_s": self_s.get("gf.build", 0.0),
            "gf.builds": calls.get("gf.build", 0),
            "gf.add_calls.char2": self.add_calls["char2"],
            "gf.add_calls.odd": self.add_calls["odd"],
            "gf.det_calls": self.det_calls,
            "analysis.minors_s": self_s.get("analysis.minors", 0.0),
            "analysis.minors_checked": t("analysis.minors_checked", 0),
            "analysis.minor_failures": t("analysis.minor_failures", 0),
            "analysis.cycles_s": self_s.get("analysis.cycles", 0.0),
            "analysis.cycles_found": t("analysis.cycles_found", 0),
            "analysis.frc_failures": t("analysis.frc_failures", 0),
            "analysis.distance_s": self_s.get("analysis.distance", 0.0),
            "analysis.assumption_s": self_s.get("analysis.assumption", 0.0),
            "analysis.budget_refusals": self.refusals,
            "dts.search_s": search_s,
            "dts.search_nodes": t("dts.search_nodes", 0),
            "dts.nodes_per_s": t("dts.search_nodes", 0) / search_s if search_s else 0.0,
            "dts.validate_s": self_s.get("dts.validate", 0.0),
            "code.spec_s": self_s.get("code.spec", 0.0),
            "code.sliding_s": self_s.get("code.sliding", 0.0),
            "code.sliding_nnz": t("code.sliding_nnz", 0),
            "formats.export_s": self_s.get("formats.export", 0.0),
            "formats.export_bytes": sum(stdout_bytes[i] for i in export_cmds),
            "cli.self_s": self_s.get("cli.command", 0.0),
            "cli.commands": calls.get("cli.command", 0),
        }

    def span_records(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.command] for s in self.spans]
