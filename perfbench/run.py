"""thermsched benchmark: one workload per run, in-process, one closed-loop client.

    python3 perfbench/run.py --workload synth-tight --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py            # all three workloads, default seed, untraced

Run from the repository root; the program is imported from ``src/``.  Each
operation is one ``thermsched.cli.main`` call on input files this script
wrote, started only after the previous one returned; its output is checked
(see checks.py) before the next starts.  Repetitions continue until
``--seconds`` is used up, and times are medians over them.  End-to-end times
are corrected for the CPU's speed drift and read as seconds at a reference
speed (see speedclock.py); the raw wall-clock medians are printed beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced operations and reports the per-layer metrics of
tracing.py, the tracing overhead, and fails if any work counter differs
between two traced operations.  The spans of the last traced operation are
written to ``.perfbench/spans-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every operation passed its checks.
"""

from __future__ import annotations

import os

# One BLAS thread: the program is single-threaded Python around small dense
# solves, and a second thread on a 2-core machine made N=400 runs vary by 40 %.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
WORK_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 0
MIN_OPS = 3
# Set-up is timed in short batches between operations, so that its median
# spans the whole run rather than one moment of a machine whose speed drifts.
SETUP_BATCH_S = 0.2

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import speedclock  # noqa: E402
import synth  # noqa: E402
import tracing  # noqa: E402


def _import_program():
    """Import thermsched from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "thermsched" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    package = importlib.import_module("thermsched")
    if not Path(package.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: imported thermsched from {package.__file__}, not {src}")
    return (importlib.import_module("thermsched.cli"),
            importlib.import_module("thermsched.floorplan"))


@dataclass
class Case:
    """One workload instance: CLI arguments, its input files and its check."""

    argv: list[str]
    floorplan: Path
    power: Path
    out: Path
    inputs: dict
    check: Callable[[str, bool], tuple[float, float]]  # (output, is reference seed)


def prepare_demo_sweep(seed: int, work: Path) -> Case:
    """The paper's TL x STCL sweep on the bundled demo15.  The seed shifts
    both axes by a fraction of their step; the default seed gives
    145:185:1 x 20:100:2 exactly.  41 x 41 = 1681 points either way."""
    data = ROOT / "src" / "thermsched" / "data"
    tl0 = 145 + seed % 10 / 10
    stcl0 = 20 + seed // 10 % 10 / 5
    sweep_tl, sweep_stcl = f"{tl0:g}:{tl0 + 40:g}:1", f"{stcl0:g}:{stcl0 + 80:g}:2"
    grid = [(tl0 + i, stcl0 + 2 * j) for i in range(41) for j in range(41)]
    out = work / "sweep.csv"
    reference = REFERENCE_DIR / "demo-sweep.csv"

    def check(text: str, is_reference_seed: bool) -> tuple[float, float]:
        expected = reference.read_text(encoding="utf-8") if is_reference_seed else None
        return checks.check_sweep(text, grid, expected)

    return Case(
        argv=["--floorplan", str(data / "demo15.flp"), "--power", str(data / "demo15.csv"),
              "--sweep-tl", sweep_tl, "--sweep-stcl", sweep_stcl, "--out", str(out)],
        floorplan=data / "demo15.flp",
        power=data / "demo15.csv",
        out=out,
        inputs={"cores": 15, "sweep_tl": sweep_tl, "sweep_stcl": sweep_stcl,
                "grid_points": len(grid)},
        check=check,
    )


def prepare_synth(regime: str) -> Callable[[int, Path], Case]:
    def prepare(seed: int, work: Path) -> Case:
        base = synth.canonical()
        tl, stcl = synth.limits(base, regime)
        inst = synth.variant(base, seed)
        flp, csv = inst.write(work)
        durations = dict(zip(inst.names, inst.duration.tolist()))
        out = work / "schedule.json"
        reference = REFERENCE_DIR / f"synth-{regime}.json"

        def check(text: str, is_reference_seed: bool) -> tuple[float, float]:
            expected = (json.loads(reference.read_text(encoding="utf-8"))
                        if is_reference_seed else None)
            return checks.check_schedule(json.loads(text), durations, tl, stcl, expected)

        return Case(
            argv=["--floorplan", str(flp), "--power", str(csv), "--tl", repr(tl),
                  "--stcl", repr(stcl), "--out", str(out)],
            floorplan=flp,
            power=csv,
            out=out,
            inputs={"cores": len(inst.names), "tl_c": tl, "stcl": stcl},
            check=check,
        )

    return prepare


WORKLOADS = {
    "demo-sweep": prepare_demo_sweep,
    "synth-tight": prepare_synth("tight"),
    "synth-loose": prepare_synth("loose"),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s": "s",
    "peak_rss_mb": "MiB",
    "schedule_length_s": "s",
    "simulation_effort_s": "s",
}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


Interval = tuple[float, float]  # (start, end) from perf_counter


def measure_setup(floorplan_mod, case: Case, min_reps: int, min_s: float) -> list[Interval]:
    """Parse both input files and build adjacency, repeatedly."""
    intervals: list[Interval] = []
    while len(intervals) < min_reps or sum(e - s for s, e in intervals) < min_s:
        start = perf_counter()
        with open(case.floorplan, encoding="utf-8") as fh:
            fp = floorplan_mod.parse_floorplan(fh)
        with open(case.power, encoding="utf-8") as fh:
            floorplan_mod.parse_power_profile(fh, fp)
        fp.adjacency()
        intervals.append((start, perf_counter()))
    return intervals


class Runner:
    """Runs operations one after another and checks each output."""

    def __init__(self, cli, case: Case, seed: int):
        self.cli = cli
        self.case = case
        self.is_reference_seed = seed == DEFAULT_SEED
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None
        self.outcome: tuple[float, float] | None = None

    def op(self) -> Interval | None:
        """One checked operation; its (start, end), or None if it failed."""
        self.attempted += 1
        errors = io.StringIO()
        try:
            with contextlib.redirect_stderr(errors):
                start = perf_counter()
                code = self.cli.main(self.case.argv)
                end = perf_counter()
            if code != 0:
                raise checks.CheckError(f"exit code {code}: {errors.getvalue().strip()}")
            text = self.case.out.read_text(encoding="utf-8")
            digest = hashlib.sha256(text.encode()).hexdigest()
            if self.digest is None:
                self.outcome = self.case.check(text, self.is_reference_seed)
                self.digest = digest
            elif digest != self.digest:
                raise checks.CheckError("output differs from the first operation's")
        except Exception:  # any failure of the program counts against it
            self.failed += 1
            print(f"operation {self.attempted} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        return start, end

    def fail(self, message: str) -> None:
        self.failed += 1
        print(message, file=sys.stderr)


def _keep_going(start: float, seconds: float, last: Interval | None, ops: int) -> bool:
    if ops < MIN_OPS:
        return True
    used = perf_counter() - start
    return used + (last[1] - last[0] if last else 0.0) <= seconds


def run_untraced(runner: Runner, floorplan_mod, seconds: float) -> dict[str, float]:
    ops: list[Interval] = []
    with speedclock.SpeedClock() as clock:
        start, last = perf_counter(), None
        setup = measure_setup(floorplan_mod, runner.case, 5, SETUP_BATCH_S)
        while _keep_going(start, seconds, last, runner.attempted):
            last = runner.op()
            if last is not None:
                ops.append(last)
            setup += measure_setup(floorplan_mod, runner.case, 3, SETUP_BATCH_S)
    print(clock.summary())
    print(f"setup_s samples: {len(setup)} repetitions; raw wall median "
          f"{statistics.median(e - s for s, e in setup):.6g} s")
    metrics = {
        "setup_s": statistics.median(clock.reference_seconds(setup)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if ops:
        op_ref = clock.reference_seconds(ops)
        raw = [e - s for s, e in ops]
        metrics["op_s"] = statistics.median(op_ref)
        print(f"op_s samples: {len(ops)} ops, min {min(op_ref):.4f} s, max {max(op_ref):.4f} s; "
              f"raw wall median {statistics.median(raw):.4f} s, "
              f"min {min(raw):.4f} s, max {max(raw):.4f} s")
    if runner.outcome is not None:
        metrics["schedule_length_s"], metrics["simulation_effort_s"] = runner.outcome
    return metrics


def _on_reference_clock(clock: speedclock.SpeedClock, spans: list) -> list:
    """Spans with their start and end moved onto the speed-corrected clock."""
    if not spans:
        return spans
    starts = clock.timeline([span[3] for span in spans]).tolist()
    ends = clock.timeline([span[4] for span in spans]).tolist()
    return [(*span[:3], start, end, *span[5:]) for span, start, end in zip(spans, starts, ends)]


def run_traced(runner: Runner, seconds: float, spans_path: Path) -> dict[str, float]:
    tracer = tracing.Tracer()
    ops: list[tuple[bool, Interval]] = []  # (traced, interval) in the order run
    traced_spans: list[list] = []  # the spans of each traced operation
    with speedclock.SpeedClock() as clock:
        start, last = perf_counter(), None
        while _keep_going(start, seconds, last, runner.attempted) or len(traced_spans) < 2:
            traced = runner.attempted % 2 == 0
            if traced:
                tracer.install()
            try:
                last = runner.op()
            finally:
                tracer.uninstall()
            if last is None:
                break
            ops.append((traced, last))
            if traced:
                traced_spans.append(tracer.spans)
    print(clock.summary())
    per_op: list[dict[str, float]] = []
    left_out: list[str] = []
    for spans in traced_spans:
        values, left_out = tracing.layer_metrics(_on_reference_clock(clock, spans), tracer.missing)
        per_op.append(values)
    if left_out or tracer.missing:
        print(f"missing metrics: {', '.join(left_out)} "
              f"(functions not found: {', '.join(tracer.missing) or 'none'})")
    metrics: dict[str, float] = {}
    for name, value in (per_op[0] if per_op else {}).items():
        unit = tracing.LAYER_METRICS[name][0]
        if unit == "s":
            metrics[name] = statistics.median(op[name] for op in per_op)
            continue
        metrics[name] = value
        if unit == "count" and any(op[name] != value for op in per_op):
            runner.fail(f"self-test: {name} differs between traced operations: "
                        f"{[op[name] for op in per_op]}")
    # Each traced operation against the untraced one right after it.
    times = clock.reference_seconds([interval for _, interval in ops])
    ratios = [t / u for (a, _), t, (b, _), u in zip(ops, times, ops[1:], times[1:])
              if a and not b]
    if ratios:
        metrics["trace.overhead_ratio"] = statistics.median(ratios)
    if tracer.spans:
        tracer.write(spans_path)
    return metrics


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name == "trace.overhead_ratio":
        return "ratio"
    return tracing.LAYER_METRICS[name][0]


def run_workload(args) -> int:
    cli, floorplan_mod = _import_program()
    print("env " + json.dumps(environment()))
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=WORK_DIR) as tmp:
        case = WORKLOADS[args.workload](args.seed, Path(tmp))
        print("inputs " + json.dumps({"workload": args.workload, "seed": args.seed, **case.inputs}))
        runner = Runner(cli, case, args.seed)
        if args.write_reference:
            return write_reference(args.workload, runner)
        if args.trace:
            metrics = run_traced(runner, args.seconds, WORK_DIR / f"spans-{args.workload}.jsonl")
        else:
            metrics = run_untraced(runner, floorplan_mod, args.seconds)
    correct = runner.failed == 0
    print(f"failed_ratio = {runner.failed / runner.attempted:g} "
          f"({runner.failed} of {runner.attempted} operations)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def write_reference(workload: str, runner: Runner) -> int:
    runner.is_reference_seed = False
    if runner.op() is None:
        return 1
    text = runner.case.out.read_text(encoding="utf-8")
    REFERENCE_DIR.mkdir(exist_ok=True)
    if workload == "demo-sweep":
        path = REFERENCE_DIR / "demo-sweep.csv"
        path.write_text(text, encoding="utf-8")
    else:
        path = REFERENCE_DIR / f"{workload}.json"
        summary = checks.schedule_summary(json.loads(text))
        path.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print(f"== {workload} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return proc.returncode or 1
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store one operation's output as the default seed's reference")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.write_reference and (args.workload == "all" or args.seed != DEFAULT_SEED):
        parser.error(f"--write-reference needs one --workload and --seed {DEFAULT_SEED}")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
