"""The bench's tracer still finds every function it wraps in the program,
and counts the demo sweep's packing and solves as pinned here."""

import importlib.util
from pathlib import Path

from thermsched import cli
from util import DATA

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_finds_every_wrapped_function_and_metric(tmp_path):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(
            ["--floorplan", str(DATA / "demo15.flp"), "--power", str(DATA / "demo15.csv"),
             "--tl", "165", "--stcl", "100", "--out", str(tmp_path / "schedule.json")]
        )
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.missing == []
    values, left_out = tracing.layer_metrics(tracer.spans, tracer.missing)
    assert left_out == []
    assert set(values) == set(tracing.LAYER_METRICS)


def test_tracer_counts_the_demo_sweeps_packing_and_solves(tmp_path):
    # the benchmark's demo-sweep grid.  The bench checks only that traced
    # operations agree with each other, so a count that fell to 0 -- say,
    # validation solving past scheduler.simulate_session -- fails only here.
    # scheduler.attempts counts fresh build_session calls, not the runs'
    # attempts that the die's memo answers.
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(
            ["--floorplan", str(DATA / "demo15.flp"), "--power", str(DATA / "demo15.csv"),
             "--sweep-tl", "145:185:1", "--sweep-stcl", "20:100:2",
             "--out", str(tmp_path / "sweep.csv")]
        )
    finally:
        tracer.uninstall()
    assert code == 0
    values, left_out = tracing.layer_metrics(tracer.spans, tracer.missing)
    assert left_out == []
    assert {name: values[name] for name in (
        "scheduler.attempts", "thermal_model.stc_calls",
        "thermal_model.stc_member_terms", "thermal_sim.solves",
    )} == {
        "scheduler.attempts": 2485, "thermal_model.stc_calls": 19177,
        "thermal_model.stc_member_terms": 36182, "thermal_sim.solves": 89,
    }
