"""The bench's tracer still finds every function it wraps in the program."""

import importlib.util
from pathlib import Path

from thermsched import cli
from util import DATA

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_finds_every_wrapped_function_and_metric(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
