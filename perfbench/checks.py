"""Output checks: invariants on every seed, stored references on the default one.

Sweep CSV: the header, one row per grid point in row-major order over TL,
and per row 0 < schedule length <= simulation effort and a peak below TL.
Schedule JSON: every core in exactly one session, every session below TL,
each session as long as its longest member test, total length equal to the
sum of session durations and simulation effort at least that long.

The references hold the default seed's sweep CSV bytes, and for a schedule
the session membership, total length and effort (all exact) plus the peaks,
member temperatures, per-session temperature sums and screening BCMTs
(relative 1e-9).
"""

from __future__ import annotations

import math

SWEEP_HEADER = "tl_C,stcl,schedule_length_s,simulation_effort_s,max_temperature_C"
TEMP_RTOL = 1e-9
SUM_RTOL = 1e-12


class CheckError(Exception):
    """An output broke an invariant or differs from its reference."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def check_sweep(text: str, grid: list[tuple[float, float]], reference: str | None
                ) -> tuple[float, float]:
    """Check a sweep CSV; return its summed schedule length and effort."""
    if reference is not None:
        _require(text == reference, "sweep CSV differs from the reference bytes")
    lines = text.splitlines()
    _require(lines[:1] == [SWEEP_HEADER], f"bad sweep header {lines[:1]!r}")
    rows = [line.split(",") for line in lines[1:]]
    _require(len(rows) == len(grid), f"{len(rows)} sweep rows for {len(grid)} grid points")
    length_sum = effort_sum = 0.0
    for row, (tl, stcl) in zip(rows, grid):
        _require(len(row) == 5, f"malformed sweep row {row!r}")
        _require(row[:2] == [f"{tl:g}", f"{stcl:g}"], f"row {row!r} is not grid point {tl:g},{stcl:g}")
        length, effort, peak = (float(v) for v in row[2:])
        _require(0 < length <= effort, f"row {row!r}: need 0 < length <= effort")
        _require(peak < tl, f"row {row!r}: peak reaches TL")
        length_sum += length
        effort_sum += effort
    return length_sum, effort_sum


def check_schedule(doc: dict, durations: dict[str, float], tl: float, stcl: float,
                   reference: dict | None) -> tuple[float, float]:
    """Check a schedule document; return its total length and effort."""
    _require(doc["config"]["tl_c"] == tl and doc["config"]["stcl"] == stcl,
             "config echo differs from the limits passed")
    sessions = doc["sessions"]
    scheduled = [core for s in sessions for core in s["cores"]]
    _require(len(scheduled) == len(durations) and set(scheduled) == set(durations),
             "cores are not each scheduled exactly once")
    for k, s in enumerate(sessions):
        _require(max(s["temps_c"].values()) < tl and s["peak"]["temperature_c"] < tl,
                 f"session {k} reaches TL")
        _require(s["duration_s"] == max(durations[c] for c in s["cores"]),
                 f"session {k} is not as long as its longest test")
    length, effort = doc["total_length_s"], doc["simulation_effort_s"]
    _require(math.isclose(length, sum(s["duration_s"] for s in sessions), rel_tol=SUM_RTOL),
             "total length is not the sum of session durations")
    _require(effort >= length * (1 - SUM_RTOL), "simulation effort is below the schedule length")
    if reference is not None:
        _compare(schedule_summary(doc), reference)
    return length, effort


def schedule_summary(doc: dict) -> dict:
    """The parts of a schedule document the stored reference keeps."""
    return {
        "total_length_s": doc["total_length_s"],
        "simulation_effort_s": doc["simulation_effort_s"],
        "stage1_bcmt_c": doc["stage1_bcmt_c"],
        "sessions": [
            {
                "cores": s["cores"],
                "peak": s["peak"],
                "member_temps_c": [s["temps_c"][c] for c in s["cores"]],
                "temps_sum_c": math.fsum(s["temps_c"].values()),
            }
            for s in doc["sessions"]
        ],
    }


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TEMP_RTOL)


def _compare(got: dict, ref: dict) -> None:
    for key in ("total_length_s", "simulation_effort_s"):
        _require(got[key] == ref[key], f"{key} {got[key]!r} != reference {ref[key]!r}")
    _require(got["stage1_bcmt_c"].keys() == ref["stage1_bcmt_c"].keys()
             and all(_close(v, ref["stage1_bcmt_c"][c]) for c, v in got["stage1_bcmt_c"].items()),
             "screening BCMTs differ from the reference")
    _require(len(got["sessions"]) == len(ref["sessions"]), "session count differs from the reference")
    for k, (g, r) in enumerate(zip(got["sessions"], ref["sessions"])):
        _require(g["cores"] == r["cores"], f"session {k} membership differs from the reference")
        _require(g["peak"]["core"] == r["peak"]["core"]
                 and _close(g["peak"]["temperature_c"], r["peak"]["temperature_c"])
                 and _close(g["temps_sum_c"], r["temps_sum_c"])
                 and all(map(_close, g["member_temps_c"], r["member_temps_c"])),
                 f"session {k} temperatures differ from the reference")

