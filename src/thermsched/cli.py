"""Command-line front end: single schedule runs and TL x STCL sweeps.

Single run (writes a JSON schedule document, or a text summary):

    thermsched --floorplan die.flp --power tests.csv --tl 145 --stcl 40

Sweep (writes one CSV row per grid point, row-major over TL then STCL):

    thermsched --floorplan die.flp --power tests.csv \\
               --sweep-tl 145:185:5 --sweep-stcl 20:100:10

A sweep compiles the die and screens its cores once, then schedules the
grid points on that compiled die; each distinct session is solved once,
and an attempt that an earlier run made at an STCL within its margins is
not packed again (``CompiledDie``).
Each run reports the rectangle of limits over which it makes the same
decisions (``Schedule.covers``), so a point inside the rectangle of the
run behind the previous point in its TL row, or behind the point at the
same STCL in the previous TL row, gets that run's row with its own limits
instead of a run of its own.

Exit codes: 0 success, 1 input error or unsolvable thermal network,
2 screening failure, 3 a run used up its attempt budget,
``scheduler.ATTEMPTS_PER_CORE`` packing attempts per core (a weight factor
just above 1 can need millions).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, Sequence

from .floorplan import Floorplan, PowerProfile, parse_floorplan, parse_power_profile
from .scheduler import (
    AttemptBudgetError,
    Schedule,
    SchedulerConfig,
    ScreeningError,
    check_tl,
    compile_die,
    generate_schedule,
    schedule_to_json,
)
from .thermal_model import ThermalParams
from .thermal_sim import NetworkSolveError

SWEEP_HEADER = "tl_C,stcl,schedule_length_s,simulation_effort_s,max_temperature_C"
# A sweep holds one CSV row per grid point until it writes its output:
# about 120 bytes a point at its peak (tracemalloc, 10^6 points on a
# one-core die), where a point also runs fastest, about 3 us on a 2-vCPU
# host.  A grid at this cap would hold some 1.2 TB, so no sweep that can
# finish is refused, while a range with a tiny step is counted and refused
# instead of built.
MAX_SWEEP_POINTS = 10_000_000_000


def _sweep_row(tl: float, stcl: float, schedule: Schedule) -> str:
    """One grid point's CSV row, matching SWEEP_HEADER column for column."""
    return (
        f"{tl:g},{stcl:g},{schedule.total_length:g},"
        f"{schedule.simulation_effort:g},{schedule.max_temperature:.4f}"
    )


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # report usage problems through the normal error path (exit code 1)
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(
        prog="thermsched",
        description="Generate thermal-safe test schedules for a core-based SoC.",
    )
    p.add_argument("--floorplan", required=True, metavar="PATH",
                   help="floorplan file: 'name width height left_x bottom_y' records, meters")
    p.add_argument("--power", required=True, metavar="PATH",
                   help="power profile CSV: core_id,power_watts,duration_s")
    p.add_argument("--tl", type=float, metavar="DEG_C",
                   help="max allowable core temperature (single run)")
    p.add_argument("--stcl", type=float, metavar="KW",
                   help="session thermal characteristic limit (single run)")
    p.add_argument("--sweep-tl", metavar="RANGE",
                   help="TL grid: start:stop:step (inclusive) or comma list")
    p.add_argument("--sweep-stcl", metavar="RANGE",
                   help="STCL grid: start:stop:step (inclusive) or comma list")
    p.add_argument("--ambient", type=float, default=ThermalParams.t_ambient,
                   metavar="DEG_C", help="ambient temperature (default %(default)s)")
    p.add_argument("--k-silicon", type=float, default=ThermalParams.k_silicon,
                   metavar="W_PER_MK",
                   help="silicon thermal conductivity (default %(default)s)")
    p.add_argument("--die-thickness", type=float, default=ThermalParams.die_thickness,
                   metavar="M", help="die thickness (default %(default)s)")
    p.add_argument("--r-vertical", type=float, default=ThermalParams.r_vertical_per_area,
                   metavar="KM2_PER_W",
                   help="area-normalized vertical resistance (default %(default)s)")
    p.add_argument("--weight-factor", type=float,
                   default=SchedulerConfig.weight_factor, metavar="F",
                   help="weight multiplier applied to violating cores (default %(default)s)")
    p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    p.add_argument("--format", choices=("json", "text"), default="json",
                   help="single-run output format (default json)")
    return p


def _parse_axis(text: str) -> tuple[int, Callable[[], list[float]]]:
    """Check a sweep axis, 'start:stop:step' (inclusive) or a comma list, and
    return its number of values and a function that builds them, so that a
    grid can be refused before either of its axes is built."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise _UsageError(f"bad range {text!r}: expected start:stop:step")
            start, stop, step = (float(p) for p in parts)
            if not all(math.isfinite(v) for v in (start, stop, step)):
                raise _UsageError(
                    f"bad range {text!r}: start, stop and step must be finite"
                )
            if step <= 0:
                raise _UsageError(f"bad range {text!r}: step must be positive")
            if stop < start:
                raise _UsageError(f"bad range {text!r}: stop is below start")
            # steps from start to stop, counted before any value is built;
            # inf when the quotient overflows
            steps = (stop - start) / step + 1e-9
            count = math.floor(steps) + 1 if math.isfinite(steps) else math.inf
            if count > MAX_SWEEP_POINTS:
                raise _UsageError(
                    f"bad range {text!r}: {count} points; a sweep holds "
                    f"at most {MAX_SWEEP_POINTS}"
                )
            return count, lambda: [start + k * step for k in range(count)]
        values = [float(p) for p in text.split(",") if p.strip()]
        if not values:
            raise _UsageError(f"empty value list {text!r}")
        if not all(math.isfinite(v) for v in values):
            raise _UsageError(f"bad value list {text!r}: values must be finite")
        return len(values), lambda: values
    except ValueError:
        raise _UsageError(f"non-numeric value in {text!r}") from None


def _load_inputs(args) -> tuple[Floorplan, PowerProfile, ThermalParams]:
    with open(args.floorplan, encoding="utf-8") as fh:
        fp = parse_floorplan(fh)
    with open(args.power, encoding="utf-8") as fh:
        power = parse_power_profile(fh, fp)
    return fp, power, ThermalParams(
        k_silicon=args.k_silicon,
        die_thickness=args.die_thickness,
        r_vertical_per_area=args.r_vertical,
        t_ambient=args.ambient,
    )


def _write(payload: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _format_text(schedule: Schedule, config: SchedulerConfig) -> str:
    lines = []
    hottest = max(schedule.stage1_report.values())
    lines.append(
        f"screened {len(schedule.stage1_report)} cores; hottest alone "
        f"{hottest:.2f} C (limit {config.tl:g} C)"
    )
    for k, s in enumerate(schedule.sessions, start=1):
        peak_core, peak_temp = s.result.peak
        lines.append(
            f"session {k}: [{' '.join(sorted(s.cores))}] duration {s.duration:g} s "
            f"peak {peak_temp:.2f} C ({peak_core})"
        )
    lines.append(
        f"total length {schedule.total_length:g} s; simulation effort "
        f"{schedule.simulation_effort:g} s; max temperature "
        f"{schedule.max_temperature:.2f} C"
    )
    return "\n".join(lines) + "\n"


def _config(args, tl: float, stcl: float) -> SchedulerConfig:
    return SchedulerConfig(tl=tl, stcl=stcl, weight_factor=args.weight_factor)


def run_single(args) -> int:
    fp, power, params = _load_inputs(args)
    config = _config(args, args.tl, args.stcl)
    check_tl(config.tl, params.t_ambient)
    schedule = generate_schedule(compile_die(fp, power, params), config)
    if args.format == "json":
        payload = schedule_to_json(schedule, config, params)
    else:
        payload = _format_text(schedule, config)
    _write(payload, args.out)
    return 0


def run_sweep(args) -> int:
    fp, power, params = _load_inputs(args)
    (tl_count, tl_axis), (stcl_count, stcl_axis) = (
        _parse_axis(args.sweep_tl), _parse_axis(args.sweep_stcl)
    )
    points = tl_count * stcl_count
    if points > MAX_SWEEP_POINTS:
        raise _UsageError(
            f"sweep grid has {points} points; a sweep holds at most {MAX_SWEEP_POINTS}"
        )
    tl_values, stcl_values = tl_axis(), stcl_axis()
    # validate the whole grid before the first run, so a bad point anywhere
    # fails fast instead of discarding the rows already computed.  Each limit
    # is checked on its own: every TL against ambient (_parse_axis already
    # refused a non-finite one), and every STCL, with the weight factor, by
    # one config in the first TL row.
    for tl in tl_values:
        check_tl(tl, params.t_ambient)
    for stcl in stcl_values:
        _config(args, tl_values[0], stcl)
    die = compile_die(fp, power, params)
    lines = [SWEEP_HEADER]
    # the run behind each point of the previous TL row; None where it failed
    above: list[Schedule | None] = [None] * len(stcl_values)
    for tl in tl_values:
        row_runs: list[Schedule | None] = [None] * len(stcl_values)
        left = None
        try:
            for j, stcl in enumerate(stcl_values):
                if left is not None and left.covers(tl, stcl):
                    schedule = left
                elif above[j] is not None and above[j].covers(tl, stcl):
                    schedule = above[j]
                else:
                    schedule = generate_schedule(die, _config(args, tl, stcl))
                row_runs[j] = left = schedule
                lines.append(_sweep_row(tl, stcl, schedule))
        except ScreeningError as exc:
            # this TL cannot host any schedule; its grid rows are skipped
            print(f"skipping TL={tl:g}: {exc}", file=sys.stderr)
        above = row_runs
    _write("\n".join(lines) + "\n", args.out)
    return 0 if len(lines) > 1 else 2


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        sweep_mode = args.sweep_tl is not None or args.sweep_stcl is not None
        if sweep_mode:
            if args.tl is not None or args.stcl is not None:
                raise _UsageError(
                    "use either --tl/--stcl or --sweep-tl/--sweep-stcl, not both"
                )
            if args.sweep_tl is None or args.sweep_stcl is None:
                raise _UsageError("sweep mode needs both --sweep-tl and --sweep-stcl")
            return run_sweep(args)
        if args.tl is None or args.stcl is None:
            raise _UsageError("single-run mode needs both --tl and --stcl")
        return run_single(args)
    except ScreeningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AttemptBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (_UsageError, OSError, ValueError, NetworkSolveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
