"""Per-layer spans for the traced run, recorded from outside the program.

The program has no tracing of its own yet.  ``Tracer.install`` replaces
public functions with timing wrappers at the names their callers look up
(``scheduler.session_stc`` rather than ``thermal_model.session_stc``,
because the scheduler imported the name), and ``uninstall`` puts the
originals back, so untraced runs execute the program untouched.

Each call becomes one span ``[id, parent, name, start, end, size, ok]``
kept in memory; ``size`` is a per-function work count (members of an STC
evaluation, cores admitted to a session, ...).  A layer's self time is its
spans' duration minus the time covered by their direct child spans.  A
function that no longer exists is reported as missing, and every metric
that needs it is left out instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def _pairs(args, result):
    return sum(1 for _ in result.pairs())


def _sessions(args, result):
    return len(result.sessions)


def _admitted(args, result):
    return len(result)


def _members(args, result):
    return len(args[0])


# (module, attribute where callers look it up, span name, work count)
PATCHES = (
    ("cli", "main", "cli.main", None),
    ("cli", "parse_floorplan", "floorplan.parse_floorplan", None),
    ("cli", "parse_power_profile", "floorplan.parse_power_profile", None),
    ("floorplan", "build_adjacency", "floorplan.build_adjacency", _pairs),
    ("cli", "generate_schedule", "scheduler.generate_schedule", _sessions),
    ("scheduler", "screen_cores", "scheduler.screen_cores", None),
    ("scheduler", "build_session", "scheduler.build_session", _admitted),
    ("scheduler", "session_stc", "thermal_model.session_stc", _members),
    ("scheduler", "simulate_session", "thermal_sim.simulate_session", None),
    ("thermal_sim", "build_network", "thermal_sim.build_network", None),
    ("thermal_sim", "solve_steady_state", "thermal_sim.solve_steady_state", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.spans = []
        self.missing = []
        for module_name, attr, span, size in PATCHES:
            try:
                module = importlib.import_module(f"thermsched.{module_name}")
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(span)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original, size))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        # Tuples of plain values drop out of the garbage collector's scans, so
        # the kept spans do not slow the untraced operations that follow.
        self.spans = [tuple(record) for record in self.spans]

    def _wrap(self, name, fn, size):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, None, False]
            spans.append(record)
            stack.append(record[0])
            record[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = perf_counter()
                stack.pop()
            record[6] = True
            if size is not None:
                try:
                    record[5] = size(args, result)
                except (AttributeError, TypeError, IndexError):
                    pass  # the return type changed; the count is reported missing
            return result

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, size, ok in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start": start, "end": end, "size": size, "ok": ok}
                    )
                    + "\n"
                )


class _Totals:
    """Per span name: call count, busy time, self time, and the work counts
    of the calls that returned."""

    def __init__(self, spans: list[list], missing: list[str]):
        self.missing = set(missing)
        self.count: dict[str, int] = defaultdict(int)
        self.ok: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.sizes: dict[str, list] = defaultdict(list)
        self.child_count: dict[tuple[str, str], int] = defaultdict(int)
        covered = [0.0] * len(spans)
        for span_id, parent, name, start, end, size, ok in spans:
            if parent >= 0:
                covered[parent] += end - start
                self.child_count[(spans[parent][2], name)] += 1
        for span_id, parent, name, start, end, size, ok in spans:
            self.count[name] += 1
            self.ok[name] += ok
            self.busy[name] += end - start
            self.self_time[name] += end - start - covered[span_id]
            if ok:
                self.sizes[name].append(size)

    def size_sum(self, name: str) -> int:
        sizes = self.sizes[name]
        if None in sizes:
            raise LookupError(name)
        return sum(sizes)


def _sessions_accepted(t: _Totals) -> int:
    return t.size_sum("scheduler.generate_schedule")


# name -> (unit, spans it needs, value from the totals)
LAYER_METRICS = {
    "floorplan.parse_s": ("s", ("floorplan.parse_floorplan", "floorplan.parse_power_profile"),
                          lambda t: t.busy["floorplan.parse_floorplan"]
                          + t.busy["floorplan.parse_power_profile"]),
    "floorplan.adjacency_s": ("s", ("floorplan.build_adjacency",),
                              lambda t: t.busy["floorplan.build_adjacency"]),
    "floorplan.adjacent_pairs": ("count", ("floorplan.build_adjacency",),
                                 lambda t: t.sizes["floorplan.build_adjacency"][-1]),
    "thermal_model.stc_calls": ("count", ("thermal_model.session_stc",),
                                lambda t: t.count["thermal_model.session_stc"]),
    "thermal_model.stc_member_terms": ("count", ("thermal_model.session_stc",),
                                       lambda t: t.size_sum("thermal_model.session_stc")),
    "thermal_model.stc_s": ("s", ("thermal_model.session_stc",),
                            lambda t: t.busy["thermal_model.session_stc"]),
    "thermal_sim.solves": ("count", ("thermal_sim.simulate_session",),
                           lambda t: t.count["thermal_sim.simulate_session"]),
    "thermal_sim.solve_s": ("s", ("thermal_sim.simulate_session",),
                            lambda t: t.busy["thermal_sim.simulate_session"]),
    "thermal_sim.assemble_s": ("s", ("thermal_sim.build_network",),
                               lambda t: t.busy["thermal_sim.build_network"]),
    "thermal_sim.factor_s": ("s", ("thermal_sim.solve_steady_state",),
                             lambda t: t.busy["thermal_sim.solve_steady_state"]),
    "scheduler.screen_s": ("s", ("scheduler.screen_cores",),
                           lambda t: t.busy["scheduler.screen_cores"]),
    "scheduler.screen_solves": ("count", ("scheduler.screen_cores", "thermal_sim.simulate_session"),
                                lambda t: t.child_count[("scheduler.screen_cores",
                                                         "thermal_sim.simulate_session")]),
    "scheduler.pack_s": ("s", ("scheduler.build_session",),
                         lambda t: t.busy["scheduler.build_session"]),
    "scheduler.attempts": ("count", ("scheduler.build_session",),
                           lambda t: t.count["scheduler.build_session"]),
    "scheduler.discards": ("count", ("scheduler.build_session", "scheduler.generate_schedule"),
                           lambda t: t.count["scheduler.build_session"] - _sessions_accepted(t)),
    "scheduler.accept_ratio": ("ratio", ("scheduler.build_session", "scheduler.generate_schedule"),
                               lambda t: _sessions_accepted(t) / t.count["scheduler.build_session"]),
    "scheduler.stc_admit_ratio": ("ratio", ("scheduler.build_session", "thermal_model.session_stc"),
                                  lambda t: (t.size_sum("scheduler.build_session")
                                             - t.count["scheduler.build_session"])
                                  / t.count["thermal_model.session_stc"]),
    "scheduler.self_s": ("s", ("scheduler.generate_schedule",),
                         lambda t: t.self_time["scheduler.generate_schedule"]),
    "cli.self_s": ("s", ("cli.main",), lambda t: t.self_time["cli.main"]),
    "cli.points": ("count", ("scheduler.generate_schedule",),
                   lambda t: t.ok["scheduler.generate_schedule"]),
}


def layer_metrics(spans: list, missing: list[str]) -> tuple[dict[str, float], list[str]]:
    """Per-layer values of one traced operation's spans, and the metrics left
    out; ``missing`` names the wrapped functions that were not found."""
    totals = _Totals(spans, missing)
    values: dict[str, float] = {}
    left_out: list[str] = []
    for name, (_, needs, value) in LAYER_METRICS.items():
        if totals.missing.intersection(needs):
            left_out.append(name)
            continue
        try:
            result = value(totals)
        except (LookupError, TypeError, ZeroDivisionError):
            result = None
        if isinstance(result, (int, float)):
            values[name] = result
        else:
            left_out.append(name)
    return values, left_out
