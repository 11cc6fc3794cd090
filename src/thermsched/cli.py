"""Command-line front end: single schedule runs and TL x STCL sweeps.

Single run (writes the JSON schedule document's bytes, ``scheduler._json_bytes``):

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
same STCL in the last TL row that ran, gets that run's row with its own
limits instead of a run of its own.

Either mode writes UTF-8 bytes, to stdout or to ``--out``, whatever the
encoding of stdout, so a core name holding "é" exits 0 under any locale.
A sweep writes each TL row's lines when the row ends, the header with the
first of them; ``--out`` is created at the first write, so a run that
fails before it leaves no file.

Exit codes: 0 success; 1 input error, unsolvable thermal network, or a
weight or simulation effort that overflows in double precision; 2 screening
failure (for a sweep, at every TL).
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

from .floorplan import Floorplan, PowerProfile, parse_floorplan, parse_power_profile
from .scheduler import (
    Schedule,
    SchedulerConfig,
    ScreeningError,
    _json_bytes,
    check_tl,
    compile_die,
    generate_schedule,
)
from .thermal_model import ThermalParams
from .thermal_sim import NetworkSolveError

SWEEP_HEADER = "tl_C,stcl,schedule_length_s,simulation_effort_s,max_temperature_C"
# A sweep writes each TL row as it ends, so what it holds grows with its
# axes, each built as a list, and not with its grid.  An STCL value costs
# about 100 bytes before the first run (its float, its text and its slot
# in the row above), so an axis at this cap holds about 100 MB.
MAX_AXIS_POINTS = 1_000_000
# A point runs in about 3 us at its fastest (a one-core die, a 2-vCPU
# host), so a grid at this cap would run for some 30,000 s: no sweep that
# can finish is refused, while a range with a tiny step is counted and
# refused instead of built.
MAX_SWEEP_POINTS = 10_000_000_000


def _limit(value: float) -> str:
    """A grid limit or a total as a sweep prints it: in ``:g`` form where
    that reads back as the same float, else by its repr, so each row names
    its point and its totals exactly."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def _totals(schedule: Schedule) -> str:
    """A run's columns of its sweep rows: length, effort and peak."""
    return (
        f"{_limit(schedule.total_length)},{_limit(schedule.simulation_effort)},"
        f"{schedule.max_temperature:.4f}"
    )


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a word that starts like a negative number is a value: argparse's own
        # pattern takes -10 and -1.5 but reads -1e1, -5:0:5 and -5,0 as
        # options.  No option starts with a digit.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

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
    p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
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
            if count > MAX_AXIS_POINTS:
                raise _UsageError(
                    f"bad range {text!r}: {count} points; an axis holds "
                    f"at most {MAX_AXIS_POINTS}"
                )
            return count, lambda: [start + k * step for k in range(count)]
        values = [float(p) for p in text.split(",") if p.strip()]
        if not values:
            raise _UsageError(f"empty value list {text!r}")
        if len(values) > MAX_AXIS_POINTS:
            # the text itself is not repeated: it is longer than any message
            raise _UsageError(
                f"value list has {len(values)} values; an axis holds "
                f"at most {MAX_AXIS_POINTS}"
            )
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


@contextmanager
def _output(out: str | None) -> Iterator[Callable[[bytes], None]]:
    """A function that writes UTF-8 bytes of the output to ``out``, or else
    to stdout.  ``out`` is created at the first write; stdout is flushed at
    every write, so lines on stderr keep their order relative to it."""
    fh = None

    def write(payload: bytes) -> None:
        nonlocal fh
        if out:
            if fh is None:
                fh = open(out, "wb")
            fh.write(payload)
        elif hasattr(sys.stdout, "buffer"):  # UTF-8, whatever stdout's encoding
            sys.stdout.flush()
            sys.stdout.buffer.write(payload)
            sys.stdout.buffer.flush()
        else:  # a stream of text alone, such as a StringIO, takes the text
            sys.stdout.write(payload.decode())

    try:
        yield write
    finally:
        if fh is not None:
            fh.close()


def run_single(args) -> int:
    fp, power, params = _load_inputs(args)
    config = SchedulerConfig(args.tl, args.stcl)
    check_tl(config.tl, params.t_ambient)
    schedule = generate_schedule(compile_die(fp, power, params), config)
    with _output(args.out) as write:
        write(_json_bytes(schedule, config, params))
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
    # refused a non-finite one), and every STCL by one config in the first
    # TL row.
    for tl in tl_values:
        check_tl(tl, params.t_ambient)
    for stcl in stcl_values:
        SchedulerConfig(tl_values[0], stcl)
    die = compile_die(fp, power, params)
    # each row is `tl,stcl,totals` in SWEEP_HEADER's columns, each limit
    # formatted once and each run's totals once
    stcl_texts = [_limit(stcl) for stcl in stcl_values]
    # the run behind each point of the last TL row that ran, with its
    # totals' text; None before the first.  A row overwrites each entry
    # after reading it, so a screened-out TL row leaves the list as it was
    above: list[tuple[Schedule, str] | None] = [None] * len(stcl_values)
    # written with the first row's lines, or alone if every TL fails
    header = SWEEP_HEADER + "\n"
    with _output(args.out) as write:
        for tl in tl_values:
            tl_text = _limit(tl)
            left = None
            lines = [header]
            try:
                for j, stcl in enumerate(stcl_values):
                    if left is not None and left[0].covers(tl, stcl):
                        run = left
                    elif above[j] is not None and above[j][0].covers(tl, stcl):
                        run = above[j]
                    else:
                        schedule = generate_schedule(die, SchedulerConfig(tl, stcl))
                        run = (schedule, _totals(schedule))
                    above[j] = left = run
                    lines.append(f"{tl_text},{stcl_texts[j]},{run[1]}\n")
            except ScreeningError as exc:
                # this TL cannot host any schedule; its grid rows are skipped
                print(f"skipping TL={tl_text}: {exc}", file=sys.stderr)
            if len(lines) > 1:
                write("".join(lines).encode())
                header = ""
        if header:
            write(header.encode())
            return 2
    return 0


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
    except (_UsageError, OSError, ValueError, NetworkSolveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
