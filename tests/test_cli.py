"""Command-line interface tests."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from thermsched import cli, floorplan, scheduler, thermal_sim
from thermsched.cli import (
    MAX_AXIS_POINTS,
    MAX_SWEEP_POINTS,
    SWEEP_HEADER,
    _limit,
    _parse_axis,
    main,
)
from thermsched.floorplan import Floorplan
from thermsched.scheduler import SchedulerConfig, ScreeningError, compile_die, generate_schedule
from thermsched.thermal_model import ThermalParams
from util import (
    DATA,
    core_records,
    load_inputs,
    memo_entries,
    random_floorplan,
    random_profile,
    reference_schedule,
    reference_stc,
    sweep_row,
    traced_peak,
)


FLP_3 = """\
# three cores in a row, 4 mm x 4 mm each
a 0.004 0.004 0.0 0.0
b 0.004 0.004 0.004 0.0
c 0.004 0.004 0.008 0.0
"""

POWER_3 = """\
a,1.0,1.0
b,1.2,1.0
c,0.8,1.0
"""


@pytest.fixture
def three_core_files(tmp_path):
    flp = tmp_path / "die.flp"
    flp.write_text(FLP_3)
    power = tmp_path / "power.csv"
    power.write_text(POWER_3)
    return flp, power


# ── axis parsing ─────────────────────────────────────────────────────────


def axis_values(text):
    """The values of a sweep axis, built."""
    return _parse_axis(text)[1]()


def test_parse_axis_range_inclusive():
    assert axis_values("145:185:5") == [145.0 + 5 * k for k in range(9)]
    assert axis_values("20:100:10") == [20.0 + 10 * k for k in range(9)]
    assert axis_values("7:7:1") == [7.0]
    assert _parse_axis("145:185:5")[0] == 9


def test_parse_axis_comma_list_and_single():
    assert axis_values("1,2.5,4") == [1.0, 2.5, 4.0]
    assert axis_values("42") == [42.0]
    assert _parse_axis("1,2.5,4")[0] == 3


def test_parse_axis_errors():
    from thermsched.cli import _UsageError

    with pytest.raises(_UsageError):
        axis_values("1:2:0")
    with pytest.raises(_UsageError):
        axis_values("5:1:1")
    with pytest.raises(_UsageError):
        axis_values("a,b")
    with pytest.raises(_UsageError):
        axis_values("1:2:3:4")
    with pytest.raises(_UsageError, match="empty"):
        axis_values(" , ")  # an empty axis never reaches the sweep
    for text in ("145:inf:1", "145:150:nan", "-inf:150:1", "145:150:inf"):
        with pytest.raises(_UsageError, match="start, stop and step must be finite"):
            axis_values(text)


def test_parse_axis_counts_a_range_before_building_it(monkeypatch):
    from thermsched.cli import _UsageError

    # a range at the limit holds far too many values to build in a test, so
    # the values are not built: the count handed to range() is recorded
    counts = []
    monkeypatch.setattr(
        cli, "range", lambda n: counts.append(n) or range(0), raising=False
    )
    assert axis_values("0:2.5:1") == [] and counts == [3]
    # at the limit, also when stop is not a whole number of steps from start
    for text in (f"0:{MAX_AXIS_POINTS - 1}:1", f"0.5:{MAX_AXIS_POINTS}:1"):
        counts.clear()
        axis_values(text)
        assert counts == [MAX_AXIS_POINTS], text
    # one past it: the exact count, in full digits
    for text in (f"0:{MAX_AXIS_POINTS}:1", f"0:{MAX_AXIS_POINTS}.5:1"):
        counts.clear()
        with pytest.raises(
            _UsageError, match=f": {MAX_AXIS_POINTS + 1} points; an axis holds at most "
        ):
            axis_values(text)
        assert counts == [], text


def test_parse_axis_bounds_a_value_list(monkeypatch):
    from thermsched.cli import _UsageError

    # a list at the real limit is megabytes of text, so the limit is lowered
    monkeypatch.setattr(cli, "MAX_AXIS_POINTS", 3)
    assert _parse_axis("1,2,3")[0] == 3
    with pytest.raises(
        _UsageError, match="^value list has 4 values; an axis holds at most 3$"
    ):
        _parse_axis("1,2,3,4")


def test_sweep_row_format():
    schedule = SimpleNamespace(total_length=7.0, simulation_effort=8.0, max_temperature=144.29)
    row = sweep_row(145.0, 20.0, schedule)
    assert row == "145,20,7,8,144.2900"
    assert len(row.split(",")) == len(SWEEP_HEADER.split(","))


def test_sweep_rows_name_their_grid_point_exactly(tmp_path, capsys):
    # six significant digits would print each of these grids' limits alike
    demo = ["--floorplan", str(DATA / "demo15.flp"), "--power", str(DATA / "demo15.csv")]
    code = main([*demo, "--sweep-tl", "165.00001,165.00002",
                 "--sweep-stcl", "100.000001,100.000002"])
    assert code == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [
        ["165.00001", "100.000001"], ["165.00001", "100.000002"],
        ["165.00002", "100.000001"], ["165.00002", "100.000002"],
    ]
    # a TL that fails screening is named exactly too
    assert main([*demo, "--sweep-tl", "80.0000001,165", "--sweep-stcl", "100"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1].startswith("165,100,")
    assert captured.err.startswith("skipping TL=80.0000001: ")
    # a limit that :g prints exactly keeps its short form
    schedule = SimpleNamespace(total_length=7.0, simulation_effort=8.0, max_temperature=144.29)
    assert sweep_row(145.0, 1e-9, schedule) == "145,1e-09,7,8,144.2900"


def test_sweep_rows_print_large_totals_exactly(tmp_path, capsys):
    # six significant digits would round both totals past a million seconds
    flp = tmp_path / "strip.flp"
    flp.write_text("a 0.001 0.001 0 0\nb 0.001 0.001 0.001 0\n")
    power = tmp_path / "strip.csv"
    power.write_text("a,1,1234567.5\nb,1,1234568.5\n")
    code = main(["--floorplan", str(flp), "--power", str(power),
                 "--sweep-tl", "2000", "--sweep-stcl", "1e-9,1e300"])
    assert code == 0
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
    # one core a session, then both cores in one
    assert [row[:4] for row in rows] == [
        ["2000", "1e-09", "2469136.0", "2469136.0"],
        ["2000", "1e+300", "1234568.5", "1234568.5"],
    ]


# ── single runs ──────────────────────────────────────────────────────────


def test_single_run_json(three_core_files, tmp_path, capsys):
    flp, power = three_core_files
    out = tmp_path / "schedule.json"
    code = main(
        [
            "--floorplan", str(flp),
            "--power", str(power),
            "--tl", "200",
            "--stcl", "500",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["tl_c"] == 200.0
    assert len(doc["sessions"]) == 1  # generous limits: everything in one go
    assert sorted(doc["sessions"][0]["cores"]) == ["a", "b", "c"]
    assert doc["max_temperature_c"] < 200.0


def test_single_run_writes_utf8_to_an_ascii_stdout(tmp_path):
    # a name holding "é" reaches stdout as the same bytes as the --out file,
    # even where Python would encode stdout's text as ASCII
    flp = tmp_path / "die.flp"
    flp.write_text("é1 0.004 0.004 0.0 0.0\né2 0.004 0.004 0.004 0.0\n", encoding="utf-8")
    power = tmp_path / "power.csv"
    power.write_text("é1,1.0,1.0\né2,1.2,1.0\n", encoding="utf-8")
    out = tmp_path / "schedule.json"
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONIOENCODING": "ascii",
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    args = [sys.executable, "-m", "thermsched", "--floorplan", str(flp), "--power", str(power),
            "--tl", "200", "--stcl", "500"]
    to_stdout = subprocess.run(args, capture_output=True, env=env, timeout=120, check=False)
    to_file = subprocess.run([*args, "--out", str(out)], capture_output=True, env=env,
                             timeout=120, check=False)
    assert (to_stdout.returncode, to_file.returncode) == (0, 0), to_stdout.stderr.decode()
    assert to_stdout.stdout == out.read_bytes()
    assert set(json.loads(to_stdout.stdout)["stage1_bcmt_c"]) == {"é1", "é2"}


def test_single_run_writes_to_a_stdout_of_text_alone(three_core_files, tmp_path):
    # a caller may redirect stdout to a stream that has no bytes beneath it
    flp, power = three_core_files
    out = tmp_path / "schedule.json"
    args = ["--floorplan", str(flp), "--power", str(power), "--tl", "200", "--stcl", "500"]
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(args) == 0
    assert main([*args, "--out", str(out)]) == 0
    assert text.getvalue() == out.read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_single_run_has_one_output_and_no_format_flag(three_core_files, capsys, fmt):
    # a single run writes only the JSON document, so there is no renderer to pick
    flp, power = three_core_files
    args = ["--floorplan", str(flp), "--power", str(power), "--tl", "200", "--stcl", "500"]
    assert main(args + ["--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --format" in captured.err


def test_single_run_screening_failure_exit_2(three_core_files, capsys):
    flp, power = three_core_files
    code = main(
        ["--floorplan", str(flp), "--power", str(power), "--tl", "46", "--stcl", "10"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "screening failed" in err
    assert "b:" in err  # the hottest core is named with its temperature
    assert "raise the temperature limit" in err


def test_unsolvable_network_exit_1(capsys):
    # a vertical resistance this large all but vanishes from G's diagonal:
    # G still factors, but the first screening solve misses its tolerance
    code = main(
        ["--floorplan", str(DATA / "demo15.flp"), "--power", str(DATA / "demo15.csv"),
         "--tl", "165", "--stcl", "60", "--r-vertical", "1e300"]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert re.fullmatch(
        r"error: solve residual \S+ is not within tolerance 1\.600e-08: "
        r"the lateral conductances swamp the vertical ones in double precision; "
        r"check k_silicon, die_thickness and r_vertical_per_area "
        r"\(screening core 'c01' alone\)",
        lines[0],
    ), lines[0]


def test_nan_residual_exit_1(tmp_path, capsys):
    # powers this large overflow every screening solve to NaN; a NaN
    # residual compares false with its tolerance and must still fail
    fp, _ = load_inputs("demo15")
    power = tmp_path / "huge.csv"
    power.write_text("".join(f"{name},1e308,1.0\n" for name in fp.names))
    code = main(
        ["--floorplan", str(DATA / "demo15.flp"), "--power", str(power),
         "--tl", "165", "--stcl", "60"]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: solve residual nan is not within tolerance 1.000e+300 "
        "(screening core 'c01' alone)"
    ]


@pytest.mark.parametrize("overrides, message", [
    # k * t * edge underflows to zero
    (["--k-silicon", "1e-320"],
     "lateral conductance between 'c01' and 'c02' is zero or not finite in double "
     "precision; check k_silicon and die_thickness"),
    # k * t overflows, so the lateral resistance is zero
    (["--k-silicon", "1e308", "--die-thickness", "1e308"],
     "lateral conductance between 'c01' and 'c02' is zero or not finite in double "
     "precision; check k_silicon and die_thickness"),
    # the vertical resistance is subnormal and its reciprocal overflows
    (["--r-vertical", "1e-320"],
     "vertical conductance of 'c01' is zero or not finite in double precision; "
     "check r_vertical_per_area"),
    # every conductance is finite, but a node's total is not
    (["--k-silicon", "1e300", "--die-thickness", "1e8"],
     "total conductance of 'c01' is not finite in double precision; check "
     "k_silicon, die_thickness and r_vertical_per_area"),
    # every total is finite, but the lateral conductances swamp the vertical
    # ones, so rounding leaves G without a positive pivot
    (["--k-silicon", "1e300"],
     "conductance matrix is not positive definite in double precision: the "
     "lateral conductances swamp the vertical ones; check k_silicon, "
     "die_thickness and r_vertical_per_area"),
])
def test_degenerate_conductance_exit_1(overrides, message, capsys):
    code = main(
        ["--floorplan", str(DATA / "demo15.flp"), "--power", str(DATA / "demo15.csv"),
         "--tl", "165", "--stcl", "60", *overrides]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("limits", [
    ["--tl", "185", "--stcl", "20"],    # no discard
    ["--tl", "165", "--stcl", "100"],   # discards
    ["--sweep-tl", "165:185:20", "--sweep-stcl", "20:100:80"],
])
def test_infinite_weight_factor_exit_1(limits, capsys):
    # the weight factor is fixed at 1.1: neither inf nor even 1.1 is an option
    for factor in ("inf", "1.1"):
        code = main(
            ["--floorplan", str(DATA / "demo15.flp"), "--power", str(DATA / "demo15.csv"),
             "--weight-factor", factor, *limits]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: unrecognized arguments: --weight-factor {factor}"
        ]


@pytest.mark.parametrize("limits", [
    ["--tl", "45.0004", "--stcl", "1e300"],
    ["--sweep-tl", "45.0004", "--sweep-stcl", "1.7e308"],
])
def test_weight_overflow_exit_1(limits, tmp_path, capsys):
    # at a microwatt a core's STC term lies so far below STCL that its weight,
    # bumped at every discard of the too-hot pair, overflows before the term
    # passes STCL
    flp = tmp_path / "strip.flp"
    flp.write_text("a 0.001 0.001 0 0\nb 0.001 0.001 0.001 0\n")
    power = tmp_path / "strip.csv"
    power.write_text("a,1e-6,1\nb,1e-6,1\n")
    out = tmp_path / "out"
    code = main(["--floorplan", str(flp), "--power", str(power), "--out", str(out), *limits])
    assert code == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: weight for 'a' overflowed at weight factor 1.1 before the core's "
        "STC term passed STCL; lower STCL"
    ]


@pytest.mark.parametrize("limits", [
    ["--tl", "2000", "--stcl", "1e-9"],
    ["--sweep-tl", "2000", "--sweep-stcl", "1e-9"],
])
def test_overflowing_totals_exit_1(limits, tmp_path, capsys):
    # at this STCL each core has a session of its own, and two 1e308 s
    # sessions sum past the largest double: no document may say Infinity
    flp = tmp_path / "strip.flp"
    flp.write_text("a 0.001 0.001 0 0\nb 0.001 0.001 0.001 0\n")
    power = tmp_path / "strip.csv"
    power.write_text("a,1,1e308\nb,1,1e308\n")
    out = tmp_path / "out"
    code = main(["--floorplan", str(flp), "--power", str(power), "--out", str(out), *limits])
    assert code == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    message = ("simulation effort overflowed to inf s in double precision; "
               "shorten the test durations")
    assert captured.err.splitlines() == [f"error: {message}"]
    fp, profile = load_inputs("strip", tmp_path)
    with pytest.raises(ValueError) as err:
        reference_schedule(fp, profile, ThermalParams(), SchedulerConfig(tl=2000.0, stcl=1e-9))
    assert str(err.value) == message


def test_out_of_memory_exit_1(monkeypatch, capsys):
    message = (
        "Unable to allocate 1.19 TiB for an array with shape (400000, 400000) "
        "and data type float64"
    )

    def no_memory(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "compile_die", no_memory)
    code = main(
        ["--floorplan", str(DATA / "demo15.flp"), "--power", str(DATA / "demo15.csv"),
         "--tl", "165", "--stcl", "60"]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: out of memory: {message}"]


def test_missing_floorplan_exit_1(capsys):
    code = main(
        ["--floorplan", "no/such/file.flp", "--power", "also_missing.csv",
         "--tl", "100", "--stcl", "10"]
    )
    assert code == 1
    assert "no/such/file.flp" in capsys.readouterr().err


def test_malformed_floorplan_exit_1(tmp_path, capsys):
    flp = tmp_path / "bad.flp"
    flp.write_text("a 1 1 0\n")
    power = tmp_path / "p.csv"
    power.write_text("a,1,1\n")
    code = main(
        ["--floorplan", str(flp), "--power", str(power), "--tl", "100", "--stcl", "10"]
    )
    assert code == 1
    assert "line 1" in capsys.readouterr().err


def test_mode_flag_conflicts(three_core_files, capsys):
    flp, power = three_core_files
    base = ["--floorplan", str(flp), "--power", str(power)]
    assert main(base + ["--tl", "100", "--stcl", "10", "--sweep-tl", "1:2:1"]) == 1
    assert main(base + ["--sweep-tl", "100:110:10"]) == 1  # missing --sweep-stcl
    assert main(base) == 1  # no mode at all
    assert main(base + ["--tl", "100"]) == 1  # missing --stcl


def test_param_overrides_change_results(three_core_files, tmp_path):
    flp, power = three_core_files
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    base = ["--floorplan", str(flp), "--power", str(power), "--tl", "300", "--stcl", "500"]
    assert main(base + ["--out", str(out_a)]) == 0
    assert main(base + ["--ambient", "25", "--out", str(out_b)]) == 0
    doc_a = json.loads(out_a.read_text())
    doc_b = json.loads(out_b.read_text())
    assert doc_b["thermal_params"]["t_ambient"] == 25.0
    # shifting ambient shifts every steady temperature by the same offset
    assert doc_b["max_temperature_c"] == pytest.approx(
        doc_a["max_temperature_c"] - 20.0, abs=1e-9
    )


def test_each_param_flag_reaches_the_document(three_core_files, tmp_path, capsys):
    flp, power = three_core_files
    base = ["--floorplan", str(flp), "--power", str(power), "--tl", "300", "--stcl", "500"]
    # with no flag given, the parameters are ThermalParams' defaults
    args = cli.build_parser().parse_args(base)
    assert ThermalParams(
        k_silicon=args.k_silicon, die_thickness=args.die_thickness,
        r_vertical_per_area=args.r_vertical, t_ambient=args.ambient,
    ) == ThermalParams()
    out = tmp_path / "s.json"
    flags = {"--ambient": ("t_ambient", 30.0), "--k-silicon": ("k_silicon", 150.0),
             "--die-thickness": ("die_thickness", 4e-4),
             "--r-vertical": ("r_vertical_per_area", 6e-4)}
    for flag, (field, value) in flags.items():
        assert main(base + [flag, repr(value), "--out", str(out)]) == 0
        echo = json.loads(out.read_text())["thermal_params"]
        assert echo == {**asdict(ThermalParams()), field: value}, flag
    # the parameter file format is gone
    assert main(base + ["--params", "x"]) == 1
    assert "unrecognized arguments: --params" in capsys.readouterr().err


def test_ambient_at_or_below_zero_runs_and_a_non_finite_one_exits_1(tmp_path, capsys):
    # ambient is in Celsius and only an offset: every temperature moves with it
    base = ["--floorplan", str(DATA / "demo15.flp"), "--power", str(DATA / "demo15.csv"),
            "--stcl", "100"]
    out = tmp_path / "s.json"
    assert main(base + ["--tl", "105", "--out", str(out)]) == 0
    reference = json.loads(out.read_text())["max_temperature_c"]
    for ambient in (0.0, -40.0):
        tl = ambient + 60.0
        assert main(base + ["--tl", repr(tl), "--ambient", repr(ambient), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["thermal_params"]["t_ambient"] == ambient
        assert doc["max_temperature_c"] == pytest.approx(reference - 45.0 + ambient, abs=1e-9)
    capsys.readouterr()
    for ambient in ("nan", "inf", "-inf"):
        assert main(base + ["--tl", "105", f"--ambient={ambient}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: t_ambient must be finite"]


@pytest.mark.parametrize("fixed, flag, value", [
    (["--tl", "50", "--stcl", "100"], "--ambient", "-1e1"),
    (["--ambient=-1e2", "--sweep-stcl", "20,100"], "--sweep-tl", "-50:-30:10"),
    (["--ambient=-1e2", "--sweep-stcl", "20:100:80"], "--sweep-tl", "-50,-40"),
])
def test_a_negative_value_after_a_space_reads_as_after_an_equals_sign(
    fixed, flag, value, capsys
):
    base = ["--floorplan", str(DATA / "demo15.flp"), "--power", str(DATA / "demo15.csv"),
            *fixed]
    assert main(base + [f"{flag}={value}"]) == 0
    joined = capsys.readouterr()
    assert main(base + [flag, value]) == 0
    spaced = capsys.readouterr()
    assert joined.out and spaced.out == joined.out
    assert spaced.err == joined.err == ""


# ── sweeps ───────────────────────────────────────────────────────────────


def test_sweep_single_point(three_core_files, capsys):
    flp, power = three_core_files
    code = main(
        ["--floorplan", str(flp), "--power", str(power),
         "--sweep-tl", "200", "--sweep-stcl", "500"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 2


def test_sweep_grid_shape_and_invariants(three_core_files, capsys):
    flp, power = three_core_files
    code = main(
        ["--floorplan", str(flp), "--power", str(power),
         "--sweep-tl", "150:200:25", "--sweep-stcl", "20:500:240"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 3 * 3
    tl_order = []
    for row in lines[1:]:
        tl, stcl, length, effort, max_temp = (float(x) for x in row.split(","))
        assert max_temp < tl
        assert effort >= length
        tl_order.append((tl, stcl))
    assert tl_order == sorted(tl_order)  # row-major emission


def test_sweep_skips_failing_tl(three_core_files, capsys):
    flp, power = three_core_files
    code = main(
        ["--floorplan", str(flp), "--power", str(power),
         "--sweep-tl", "46,200", "--sweep-stcl", "500"]
    )
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert len(lines) == 2  # header + the TL=200 row only
    assert lines[1].startswith("200,")
    assert "skipping TL=46" in captured.err


def test_sweep_all_tls_failing_exit_2(three_core_files, capsys):
    flp, power = three_core_files
    code = main(
        ["--floorplan", str(flp), "--power", str(power),
         "--sweep-tl", "46,47", "--sweep-stcl", "10"]
    )
    assert code == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [SWEEP_HEADER]


def test_sweep_skip_lines_keep_their_order_among_the_rows(three_core_files):
    # stderr merged into stdout: each TL row is written, and flushed, when
    # it ends, so a skipped TL's line lands between the rows around it
    flp, power = three_core_files
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    merged = subprocess.run(
        [sys.executable, "-m", "thermsched", "--floorplan", str(flp), "--power", str(power),
         "--sweep-tl", "46,200,47,201", "--sweep-stcl", "500"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, timeout=120, check=False,
    )
    assert merged.returncode == 0
    lines = merged.stdout.decode().splitlines()
    assert [line.split(":")[0].split(",")[0] for line in lines] == [
        "skipping TL=46", SWEEP_HEADER.split(",")[0], "200", "skipping TL=47", "201",
    ]


def test_sweep_failing_partway_keeps_the_rows_written_before(tmp_path, capsys):
    # two 0.6e308 s tests share one session at any STCL; at the lower TL the
    # pair is too hot, and its discards overflow the effort in the second row
    flp = tmp_path / "strip.flp"
    flp.write_text("a 0.001 0.001 0 0\nb 0.001 0.001 0.001 0\n")
    power = tmp_path / "strip.csv"
    power.write_text("a,1,0.6e308\nb,1,0.6e308\n")
    fp, profile = load_inputs("strip", tmp_path)
    die = compile_die(fp, profile, ThermalParams())
    pair = thermal_sim.simulate_session(fp.names, die.net, profile).peak[1]
    hot = (max(die.bcmt.values()) + pair) / 2
    out = tmp_path / "sweep.csv"
    code = main(["--floorplan", str(flp), "--power", str(power), "--out", str(out),
                 "--sweep-tl", f"{pair + 1!r},{hot!r}", "--sweep-stcl", "1e300"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: simulation effort overflowed")
    schedule = generate_schedule(die, SchedulerConfig(tl=pair + 1, stcl=1e300))
    assert out.read_text() == f"{SWEEP_HEADER}\n{sweep_row(pair + 1, 1e300, schedule)}\n"


@pytest.mark.parametrize(
    "sweep_tl, sweep_stcl, message",
    [
        ("150,200", "40,-1", "stcl"),
        ("150,40", "40", "ambient"),
        ("145:inf:1", "40", "error: bad range '145:inf:1': start, stop and step"),
        ("145:150:nan", "40", "error: bad range '145:150:nan': start, stop and step"),
        ("145,nan", "20", "error: bad value list '145,nan': values must be finite"),
        ("145", "20,-inf", "error: bad value list '20,-inf': values must be finite"),
    ],
)
def test_sweep_bad_grid_point_fails_before_any_run(
    three_core_files, tmp_path, monkeypatch, capsys, sweep_tl, sweep_stcl, message
):
    runs = []
    real = cli.generate_schedule
    monkeypatch.setattr(cli, "generate_schedule", lambda *args: runs.append(args) or real(*args))
    flp, power = three_core_files
    out = tmp_path / "sweep.csv"
    code = main(
        ["--floorplan", str(flp), "--power", str(power),
         "--sweep-tl", sweep_tl, "--sweep-stcl", sweep_stcl, "--out", str(out)]
    )
    assert code == 1
    assert runs == []
    assert not out.exists()
    assert message in capsys.readouterr().err


AXIS_CAP = f"; an axis holds at most {MAX_AXIS_POINTS}"


@pytest.mark.parametrize(
    "sweep_tl, sweep_stcl, message",
    [
        # the quotient overflows to inf
        ("0:1e300:1e-300", "40", f"error: bad range '0:1e300:1e-300': inf points{AXIS_CAP}"),
        ("145:1e12:1e-3", "40",
         f"error: bad range '145:1e12:1e-3': 999999999855001 points{AXIS_CAP}"),
        # a count of more than 15 digits is printed in short form
        ("150:151:1e-300", "60", f"error: bad range '150:151:1e-300': 1e+300 points{AXIS_CAP}"),
        # one STCL value past the cap, whose grid would fit
        ("150", f"1:{MAX_AXIS_POINTS + 1}:1",
         f"error: bad range '1:{MAX_AXIS_POINTS + 1}:1': {MAX_AXIS_POINTS + 1} points"
         f"{AXIS_CAP}"),
        # each axis fits, their product does not
        ("145:100145:1", "20:100019:1",
         f"error: sweep grid has 10000100000 points; a sweep holds at most {MAX_SWEEP_POINTS}"),
    ],
)
def test_sweep_grid_is_bounded_by_its_count_before_it_is_built(
    three_core_files, monkeypatch, capsys, sweep_tl, sweep_stcl, message
):
    built = []

    def counted_range(n):
        built.append(n)
        return range(n)

    class NoGrid(SchedulerConfig):
        def __post_init__(self):
            raise AssertionError("built the sweep grid")

    monkeypatch.setattr(cli, "range", counted_range, raising=False)
    monkeypatch.setattr(cli, "SchedulerConfig", NoGrid)
    flp, power = three_core_files
    code = main(
        ["--floorplan", str(flp), "--power", str(power),
         "--sweep-tl", sweep_tl, "--sweep-stcl", sweep_stcl]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{message}\n"
    # the counts of both axes refuse the grid before either axis is built
    assert built == []


def test_byte_order_marked_inputs_give_the_plain_files_document(tmp_path):
    # Windows editors and spreadsheet exports start UTF-8 files with U+FEFF
    flp, power = tmp_path / "demo15.flp", tmp_path / "demo15.csv"
    for copy in (flp, power):
        copy.write_bytes(b"\xef\xbb\xbf" + (DATA / copy.name).read_bytes())
    outs = []
    for inputs in ((DATA / flp.name, DATA / power.name), (flp, power)):
        outs.append(tmp_path / f"out{len(outs)}.json")
        code = main(["--floorplan", str(inputs[0]), "--power", str(inputs[1]),
                     "--tl", "165", "--stcl", "100", "--out", str(outs[-1])])
        assert code == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_cli_runs_build_no_core_geometry(tmp_path, monkeypatch):
    # the parser compares each record's geometry inline and fills the
    # floorplan's array straight from the text: a valid file's records never
    # reach the per-record check
    checked = []
    real = floorplan._check_core
    monkeypatch.setattr(
        floorplan, "_check_core", lambda name, *values: checked.append(name) or real(name, *values)
    )
    inputs = ["--floorplan", str(DATA / "demo15.flp"), "--power", str(DATA / "demo15.csv")]
    for limits in (["--tl", "165", "--stcl", "100"],
                   ["--sweep-tl", "145:185:1", "--sweep-stcl", "20:100:2"]):
        assert main([*inputs, *limits, "--out", str(tmp_path / "out")]) == 0
    assert checked == []
    # the spy sees the records Floorplan(records) checks
    Floorplan(core_records(load_inputs("demo15")[0]))
    assert len(checked) == 15


def test_sweep_deterministic_bytes(three_core_files, tmp_path):
    flp, power = three_core_files
    args = ["--floorplan", str(flp), "--power", str(power),
            "--sweep-tl", "150:200:25", "--sweep-stcl", "50,500"]
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_on_bundled_demo_assets(tmp_path):
    out = tmp_path / "demo.csv"
    code = main(
        ["--floorplan", str(DATA / "demo15.flp"),
         "--power", str(DATA / "demo15.csv"),
         "--sweep-tl", "165", "--sweep-stcl", "30", "--out", str(out)]
    )
    assert code == 0
    header, row = out.read_text().strip().splitlines()
    assert header == SWEEP_HEADER
    tl, stcl, length, effort, max_temp = (float(x) for x in row.split(","))
    assert (tl, stcl) == (165.0, 30.0)
    assert max_temp < 165.0


# ── sweep engine ─────────────────────────────────────────────────────────


@st.composite
def sweep_cases(draw):
    """A small random die and a TL x STCL grid on it, as the two axis texts.

    A scattered grid lists a few values, with one TL that fails screening
    placed anywhere in the TL axis.  A dense grid steps from a failing TL
    past the hottest BCMT, and across STCLs around the median singleton STC,
    so most points fall inside an earlier run's decision box; it is given as
    ascending ranges, as reversed lists, or as lists that repeat values."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fp = random_floorplan(rng, draw(st.integers(2, 8)))
    profile = random_profile(rng, fp)
    die = compile_die(fp, profile, ThermalParams())
    hottest = max(die.bcmt.values())
    failing = die.net.ambient + draw(st.floats(0.05, 1.0)) * (hottest - die.net.ambient)
    median = float(np.median([reference_stc({n}, profile, None, die.net) for n in fp.names]))
    layout = draw(st.sampled_from(["scattered", "ascending", "reversed", "repeated"]))
    if layout == "scattered":
        passing = [hottest + d for d in draw(st.lists(st.floats(0.5, 40.0), min_size=1, max_size=3))]
        tls = draw(st.permutations(passing + [failing]))
        stcls = [median * f for f in draw(st.lists(st.floats(0.4, 4.0), min_size=1, max_size=3))]
        return fp, profile, ",".join(map(repr, tls)), ",".join(map(repr, stcls))
    top = hottest + draw(st.floats(1.0, 30.0))
    tl_step = (top - failing) / draw(st.integers(3, 6))
    stcl_start = median * draw(st.floats(0.2, 1.0))
    stcl_step = median * draw(st.floats(0.05, 0.6))
    tl_axis = f"{failing!r}:{top!r}:{tl_step!r}"
    stcl_axis = f"{stcl_start!r}:{stcl_start + 5 * stcl_step!r}:{stcl_step!r}"
    if layout == "ascending":
        return fp, profile, tl_axis, stcl_axis
    tls, stcls = axis_values(tl_axis), axis_values(stcl_axis)
    if layout == "reversed":
        tls, stcls = tls[::-1], stcls[::-1]
    else:
        # each value once or twice in a row, and the first again at the end
        tls = [v for v in tls for _ in range(draw(st.integers(1, 2)))] + tls[:1]
        stcls = [v for v in stcls for _ in range(draw(st.integers(1, 2)))] + stcls[:1]
    return fp, profile, ",".join(map(repr, tls)), ",".join(map(repr, stcls))


def _sweep(fp, profile, tl_axis, stcl_axis):
    """A sweep of ``cli.main`` over the die, written to files with every
    float by its repr: its CSV bytes and its lines on stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        flp, power, out = Path(tmp) / "die.flp", Path(tmp) / "power.csv", Path(tmp) / "sweep.csv"
        flp.write_text("".join(
            f"{c.name} {c.width!r} {c.height!r} {c.left_x!r} {c.bottom_y!r}\n"
            for c in core_records(fp)
        ))
        power.write_text("".join(
            f"{n},{profile.power(n)!r},{profile.duration(n)!r}\n" for n in fp.names
        ))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(
                ["--floorplan", str(flp), "--power", str(power),
                 "--sweep-tl", tl_axis, "--sweep-stcl", stcl_axis, "--out", str(out)]
            )
        assert code == 0
        return out.read_bytes(), err.getvalue().splitlines()


@settings(max_examples=25, deadline=None)
@given(sweep_cases())
def test_sweep_matches_fresh_runs_at_every_point(case):
    fp, profile, tl_axis, stcl_axis = case
    tls, stcls = axis_values(tl_axis), axis_values(stcl_axis)
    expected_rows, expected_err = [SWEEP_HEADER], []
    for tl in tls:
        try:
            for stcl in stcls:
                die = compile_die(fp, profile, ThermalParams())
                schedule = generate_schedule(die, SchedulerConfig(tl=tl, stcl=stcl))
                expected_rows.append(sweep_row(tl, stcl, schedule))
        except ScreeningError as exc:
            expected_err.append(f"skipping TL={_limit(tl)}: {exc}")
    runs = []
    real = cli.generate_schedule
    cli.generate_schedule = lambda *args: runs.append(args) or real(*args)
    try:
        output, err = _sweep(fp, profile, tl_axis, stcl_axis)
    finally:
        cli.generate_schedule = real
    assert output == ("\n".join(expected_rows) + "\n").encode()
    assert err == expected_err
    # a failing TL row stops at its first run; a point that repeats the
    # point before it lies in that point's box
    most = len(expected_rows) - 1 + len(expected_err)
    assert len(runs) <= most
    if any(a == b for a, b in zip(stcls, stcls[1:])) and len(expected_rows) > 1:
        assert len(runs) < most


@settings(max_examples=25, deadline=None)
@given(sweep_cases())
def test_sweep_matches_the_paper_literal_reference_at_every_point(case):
    # the reference has no memo and no decision box, so every row the sweep
    # reuses from an earlier run, or packs from the die's memos, is checked
    fp, profile, tl_axis, stcl_axis = case
    rows, skipped = [SWEEP_HEADER], []
    for tl in axis_values(tl_axis):
        try:
            for stcl in axis_values(stcl_axis):
                config = SchedulerConfig(tl=tl, stcl=stcl)
                rows.append(sweep_row(
                    tl, stcl, reference_schedule(fp, profile, ThermalParams(), config)
                ))
        except ScreeningError as exc:
            skipped.append(f"skipping TL={_limit(tl)}: {exc}")
    assert _sweep(fp, profile, tl_axis, stcl_axis) == (
        ("\n".join(rows) + "\n").encode(), skipped
    )


def test_dense_demo_sweep_runs_once_per_decision_box(tmp_path, monkeypatch):
    # the benchmark's demo-sweep grid: 1681 points, 553 decision boxes
    configs, packed = [], []
    real_generate, real_build = cli.generate_schedule, scheduler.build_session

    def generate(die, config):
        configs.append(config)
        return real_generate(die, config)

    monkeypatch.setattr(cli, "generate_schedule", generate)
    monkeypatch.setattr(scheduler, "build_session", lambda *a: packed.append(1) or real_build(*a))
    out = tmp_path / "sweep.csv"
    code = main(
        ["--floorplan", str(DATA / "demo15.flp"), "--power", str(DATA / "demo15.csv"),
         "--sweep-tl", "145:185:1", "--sweep-stcl", "20:100:2", "--out", str(out)]
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 1 + 41 * 41
    # on the sweep's one die, the attempt memo packs 2,485 of the runs'
    # attempts; the rest repeat an attempt an earlier run packed
    assert (len(configs), len(packed)) == (553, 2485)
    # each of the same runs on a die of its own packs every attempt
    fp, profile = load_inputs("demo15")
    runs = []
    for config in configs:
        packed.clear()
        real_generate(compile_die(fp, profile, ThermalParams()), config)
        runs.append(len(packed))
    assert sum(runs) == 4616
    # the busiest run makes one attempt per core
    assert max(runs) == 15


def test_sweep_row_after_a_screened_out_tl_reuses_the_last_row_that_ran(
    tmp_path, monkeypatch, capsys
):
    # the middle TL fails screening; the third row repeats the first row's
    # TL, so the first row's runs, still the runs above it, cover every point
    die = compile_die(*load_inputs("demo15"), ThermalParams())
    failing = max(die.bcmt.values()) - 1
    runs = []
    real_generate = cli.generate_schedule
    monkeypatch.setattr(
        cli, "generate_schedule", lambda *args: runs.append(args[1].tl) or real_generate(*args)
    )
    out = tmp_path / "sweep.csv"
    code = main(
        ["--floorplan", str(DATA / "demo15.flp"), "--power", str(DATA / "demo15.csv"),
         "--sweep-tl", f"170,{failing!r},170", "--sweep-stcl", "20:100:2", "--out", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().err.count("skipping TL") == 1
    rows = out.read_bytes().splitlines()[1:]
    assert len(rows) == 2 * 41
    assert rows[41:] == rows[:41]
    # the first row's runs, then the screened-out TL's one call; the third
    # row calls nothing
    assert runs[-1] == failing
    assert runs.count(failing) == 1 and len(runs) > 1


def test_dense_demo_sweep_holds_far_less_than_its_output(tmp_path, monkeypatch):
    # 25,921 rows, a 601,462-byte CSV: written a TL row at a time, the rows
    # never pile up; the die and its memos, kept alive here, are not counted
    dies = []
    real = cli.compile_die
    monkeypatch.setattr(cli, "compile_die", lambda *a: dies.append(real(*a)) or dies[-1])
    out = tmp_path / "sweep.csv"
    code, peak = traced_peak(lambda: main(
        ["--floorplan", str(DATA / "demo15.flp"), "--power", str(DATA / "demo15.csv"),
         "--sweep-tl", "145:185:0.25", "--sweep-stcl", "20:100:0.5", "--out", str(out)]
    ))
    assert code == 0
    size = out.stat().st_size
    assert size == 601_462
    assert peak < 0.5 * size, (peak, size)


@pytest.fixture(scope="module")
def demo_grid_die(tmp_path_factory):
    """The one die of a sweep over the benchmark's demo-sweep grid, after it."""
    dies, real_compile = [], cli.compile_die
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "compile_die", lambda *a: dies.append(real_compile(*a)) or dies[-1])
        code = main(
            ["--floorplan", str(DATA / "demo15.flp"), "--power", str(DATA / "demo15.csv"),
             "--sweep-tl", "145:185:1", "--sweep-stcl", "20:100:2",
             "--out", str(tmp_path_factory.mktemp("sweep") / "s.csv")]
        )
    assert code == 0
    [die] = dies
    return die


def test_dense_demo_sweep_keeps_one_memo_entry_per_member_set(demo_grid_die):
    die = demo_grid_die
    names = die.net.nodes
    # 15 singletons from screening and 89 sessions the runs solved
    assert len(die._sessions) == 104
    assert sum(len(members) == 1 for members in die._sessions) == 15
    for members, (session, indices, temperatures) in die._sessions.items():
        assert session.cores == frozenset(names[i] for i in members)
        assert [names[i] for i in indices] == sorted(session.cores)
        assert np.array(temperatures).tobytes() == session.result.temperatures[indices].tobytes()
    # every attempt the runs packed shares its member set's memo value
    entries = memo_entries(die)
    assert len(entries) == 2485
    for _, _, validated, _ in entries:
        assert validated is die._sessions[frozenset(validated[1])]


def test_dense_demo_sweep_leaves_no_empty_memo_node(demo_grid_die):
    # a run descends into the memo only before another attempt, so every
    # node holds an entry; a child is keyed by its attempt's violator count
    entries = memo_entries(demo_grid_die)
    assert len(entries) == 2485
    children = [
        (violators, child, len(indices))
        for _, _, (_, indices, _), kids in entries for violators, child in kids.items()
    ]
    assert demo_grid_die._attempts
    assert sum(not child for _, child, _ in children) == 0
    assert all(type(violators) is int and 0 <= violators <= members
               for violators, _, members in children)


def test_dense_demo_sweep_builds_configs_for_its_axes_and_runs_only(tmp_path, monkeypatch):
    # the benchmark's demo-sweep grid: one config per STCL checks the STCLs,
    # and each of the 553 runs builds its own; a config per point would be
    # 1681 before the first run
    configs, runs, before_first_run = [], [], []
    real_generate = cli.generate_schedule

    class CountedConfig(SchedulerConfig):
        def __post_init__(self):
            super().__post_init__()
            configs.append(self)

    def generate(die, config):
        if not runs:
            before_first_run.append(len(configs) - 1)
        runs.append(config)
        return real_generate(die, config)

    monkeypatch.setattr(cli, "SchedulerConfig", CountedConfig)
    monkeypatch.setattr(cli, "generate_schedule", generate)
    out = tmp_path / "sweep.csv"
    code = main(
        ["--floorplan", str(DATA / "demo15.flp"), "--power", str(DATA / "demo15.csv"),
         "--sweep-tl", "145:185:1", "--sweep-stcl", "20:100:2", "--out", str(out)]
    )
    assert code == 0
    assert before_first_run[0] == 41
    assert len(runs) == 553
    assert len(configs) == 41 + 553
    assert configs[-len(runs):] == runs
    # every row is the one a run of its own at that point writes
    die = compile_die(*load_inputs("demo15"), ThermalParams())
    expected = [SWEEP_HEADER] + [
        sweep_row(tl, stcl, real_generate(die, SchedulerConfig(tl=tl, stcl=stcl)))
        for tl in axis_values("145:185:1")
        for stcl in axis_values("20:100:2")
    ]
    assert out.read_bytes() == ("\n".join(expected) + "\n").encode()


def test_sweep_compiles_screens_and_validates_each_session_once(tmp_path, monkeypatch):
    factors, solves, validated, built, solves_at_compile = [], [], [], [], []
    real_factor = thermal_sim.cho_factor
    real_solve = thermal_sim.cho_solve
    real_simulate = scheduler.simulate_session
    real_build = scheduler.build_session
    real_compile = cli.compile_die

    def solve(factor, injections, **kwargs):
        solves.append(np.shape(injections))
        return real_solve(factor, injections, **kwargs)

    def simulate(members, *args):
        validated.append(frozenset(members))
        return real_simulate(members, *args)

    def build(candidates, weights, stcl, net, *args):
        session = real_build(candidates, weights, stcl, net, *args)
        built.append(frozenset(net.nodes[i] for i in session))
        return session

    def compile_die_(*args):
        die = real_compile(*args)
        solves_at_compile.append(len(solves))
        return die

    monkeypatch.setattr(
        thermal_sim, "cho_factor",
        lambda g, **kwargs: factors.append(g) or real_factor(g, **kwargs),
    )
    monkeypatch.setattr(thermal_sim, "cho_solve", solve)
    monkeypatch.setattr(scheduler, "simulate_session", simulate)
    monkeypatch.setattr(scheduler, "build_session", build)
    monkeypatch.setattr(cli, "compile_die", compile_die_)
    code = main(
        ["--floorplan", str(DATA / "demo15.flp"), "--power", str(DATA / "demo15.csv"),
         "--sweep-tl", "145:185:5", "--sweep-stcl", "20:100:10",
         "--out", str(tmp_path / "sweep.csv")]
    )
    assert code == 0
    assert len(factors) == 1
    # compiling screens all 15 cores in one batched solve, one column per core
    assert solves_at_compile == [1]
    assert solves[0] == (15, 15)
    # that solve validated every singleton; every other packed session is
    # validated exactly once, however often it recurs, each by one
    # one-column solve
    assert any(len(session) == 1 for session in built)
    larger = {session for session in built if len(session) > 1}
    assert sorted(validated, key=sorted) == sorted(larger, key=sorted)
    assert solves[1:] == [(15, 1)] * len(validated)
    assert len(built) > len(validated)


# ── edge-valued inputs ───────────────────────────────────────────────────

# number tokens at and beyond the edges of what each field accepts
EDGE_NUMBERS = ["0", "-0", "1", "-1", "1e-3", "nan", "inf", "-inf", "1e308", "1e400",
                "5e-324", "1e16", "x", "0x10", "1_0", ""]
EDGE_NAMES = ["a", "b", "é", "a,b", "#a", " "]


@st.composite
def edge_cli_cases(draw):
    """A floorplan's and a power profile's bytes for a row of up to three
    4 mm cores of 1 W each, and the argument list of a single run or a sweep
    over them, with up to three fields or options set to edge tokens, now
    and then a line of a field too few or too many, and a byte that is not
    UTF-8."""
    n = draw(st.integers(1, 3))
    floorplan = [["abc"[k], "0.004", "0.004", repr(0.004 * k), "0"] for k in range(n)]
    profile = [["abc"[k], "1.0", "1.0"] for k in range(n)]
    # TL 46 fails screening at these powers, and TL 45 is the ambient
    options = [["--tl", "165"], ["--stcl", "60"], ["--ambient", "45"], ["--k-silicon", "100"]]
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(floorplan + profile + options))
        # an option's value, or any field of a line: a name or a number
        k = draw(st.integers(int(row[0].startswith("--")), len(row) - 1))
        row[k] = draw(st.sampled_from(EDGE_NAMES if k == 0 else EDGE_NUMBERS + ["46"]))
    for row in draw(st.lists(st.sampled_from(floorplan + profile), max_size=1)):
        row[:] = row[:-1] if draw(st.booleans()) else [*row, "1"]
    args = [word for option in options[2:] for word in option]
    if draw(st.booleans()):
        args += options[0] + options[1]
    else:
        args += ["--sweep-tl", draw(st.sampled_from(["145:185:20", "46,165", "46", "nan", "1:0:1"])),
                 "--sweep-stcl", draw(st.sampled_from(["20:100:40", "50", "0", "-1,inf", "1e400"]))]
    flp = "".join(" ".join(row) + "\n" for row in floorplan).encode()
    if draw(st.integers(0, 19)) == 19:
        flp = b"\xff" + flp
    return flp, "".join(",".join(row) + "\n" for row in profile).encode(), args


@settings(max_examples=200, deadline=None)
@given(edge_cli_cases())
def test_edge_valued_inputs_exit_0_1_or_2_with_one_error_line(case):
    floorplan, profile, args = case
    with tempfile.TemporaryDirectory() as tmp:
        flp, power, out = Path(tmp) / "die.flp", Path(tmp) / "power.csv", Path(tmp) / "out"
        flp.write_bytes(floorplan)
        power.write_bytes(profile)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            # any exception that escapes main fails the example
            code = main(["--floorplan", str(flp), "--power", str(power), "--out", str(out), *args])
        lines = err.getvalue().splitlines()
        event(f"{'single run' if '--tl' in args else 'sweep'} exit {code}")
        assert code in (0, 1, 2)
        if "--tl" in args:
            if code:
                assert len(lines) == 1 and lines[0].startswith("error: ")
            else:
                assert lines == [] and json.loads(out.read_bytes())["sessions"]
        else:
            # a sweep reports each TL row that screening refuses, and then
            # at most one error
            assert all(line.startswith(("skipping TL=", "error: ")) for line in lines)
            assert sum(line.startswith("error: ") for line in lines) == (code == 1)
