"""Floorplan parsing, geometry, and adjacency tests."""

import heapq
import io
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermsched import floorplan
from thermsched.floorplan import (
    EPSILON,
    Floorplan,
    FloorplanError,
    PowerProfile,
    PowerProfileError,
    parse_floorplan,
    parse_power_profile,
)
from thermsched.thermal_model import ThermalParams
from thermsched.thermal_sim import build_network
from util import (
    DATA,
    Core,
    core_center,
    core_edges,
    core_records,
    random_floorplan,
    reference_parse_floorplan,
    reference_parse_power_profile,
    shared_edge_length,
    strip_floorplan,
)


# ── parsing ──────────────────────────────────────────────────────────────


def test_parse_single_core():
    fp = parse_floorplan("c1 0.01 0.01 0.0 0.0")
    assert fp.names == ("c1",)
    (core,) = core_records(fp)
    assert core.width == 0.01
    assert core.height == 0.01
    assert core.left_x == 0.0
    assert core.bottom_y == 0.0


def test_parse_accepts_stream():
    fp = parse_floorplan(io.StringIO("c1 1 1 0 0\nc2 1 1 1 0\n"))
    assert fp.names == ("c1", "c2")


def test_parse_drops_one_leading_byte_order_mark():
    fp = parse_floorplan("\ufeffc1 1 1 0 0\nc2 1 1 1 0\n")
    assert fp.names == ("c1", "c2")
    profile = parse_power_profile(io.StringIO("\ufeffc1,2,1\nc2,3,1\n"), fp)
    assert (profile.power("c1"), profile.power("c2")) == (2.0, 3.0)


def test_parse_15_records_with_comments():
    lines = ["# header comment"]
    for i in range(15):
        lines.append(f"u{i} 1 1 {i} 0")
        if i % 3 == 0:
            lines.append(f"  # note after u{i}")
            lines.append("")
    fp = parse_floorplan("\n".join(lines))
    assert len(fp) == 15


def test_parse_trailing_comment_on_record():
    fp = parse_floorplan("c1 1 1 0 0  # the only core")
    assert fp.names == ("c1",)


# the separators str.splitlines() breaks at that open() does not translate
@pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_comment_runs_to_the_line_break_past_other_separators(sep):
    fp = parse_floorplan(f"a 1 1 0 0 # was{sep}b 1 1 1 0\nb 1 1 1 0\n")
    assert fp.names == ("a", "b")
    # an error on the next line reports the line number an editor shows
    with pytest.raises(FloorplanError, match=r"^line 2: expected"):
        parse_floorplan(f"a 1 1 0 0 # was{sep}b 1 1 1 0\nb 1 1 1\n")
    profile = parse_power_profile(f"a,1,1 # was{sep}b,2,1\nb,3,1\n", fp)
    assert (profile.power("a"), profile.power("b")) == (1.0, 3.0)
    with pytest.raises(PowerProfileError, match=r"^line 2: duplicate entry for core 'a'"):
        parse_power_profile(f"a,1,1 # was{sep}b,2,1\na,3,1\n", fp)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_text_handed_in_breaks_lines_as_open_does(newline):
    fp = parse_floorplan(f"a 1 1 0 0 # was{newline}b 1 1 1 0{newline}")
    assert fp.names == ("a", "b")
    with pytest.raises(FloorplanError, match=r"^line 3: expected 'name .*, got 'b 1 1'$"):
        parse_floorplan(f"a 1 1 0 0{newline}{newline}b 1 1{newline}")
    profile = parse_power_profile(f"a,1,1 # was{newline}b,3,1{newline}", fp)
    assert (profile.power("a"), profile.power("b")) == (1.0, 3.0)


def test_parse_malformed_line_reports_line_number():
    with pytest.raises(FloorplanError, match="line 2"):
        parse_floorplan("c1 1 1 0 0\nc2 1 1 0\n")
    with pytest.raises(FloorplanError, match="line 1"):
        parse_floorplan("c1 one 1 0 0")


def test_parse_duplicate_id():
    with pytest.raises(FloorplanError, match="duplicate core id 'c1'"):
        parse_floorplan("c1 1 1 0 0\nc1 1 1 1 0")


def test_parse_non_positive_dimensions():
    with pytest.raises(FloorplanError, match="non-positive"):
        parse_floorplan("c1 0 1 0 0")
    with pytest.raises(FloorplanError, match="non-positive"):
        parse_floorplan("c1 1 -2 0 0")


def test_overlap_error_names_both_cores():
    # 1 cm squares overlapping by 1 mm x 1 mm = 1 mm^2
    text = "left 0.01 0.01 0.0 0.0\nright 0.01 0.01 0.009 0.009"
    with pytest.raises(FloorplanError) as err:
        parse_floorplan(text)
    assert "left" in str(err.value) and "right" in str(err.value)


def test_abutment_is_legal():
    fp = parse_floorplan("c1 1 1 0 0\nc2 1 1 1 0")
    assert len(fp) == 2


def test_empty_floorplan_rejected():
    with pytest.raises(FloorplanError, match="no cores"):
        parse_floorplan("# only a comment\n")


# ── the parser against the reference parser ─────────────────────────────


def geometry_hex(fp):
    """A floorplan's geometry rows, every value by ``float.hex``."""
    return [list(map(float.hex, row)) for row in fp.geometry.tolist()]


def parse_outcome(parse, text):
    """What a parser makes of ``text``: the error message, or the names, the
    geometry and the adjacent pairs, floats compared bit for bit."""
    try:
        fp = parse(text)
    except FloorplanError as exc:
        return str(exc)
    return fp.names, geometry_hex(fp), repr(list(fp.adjacency().pairs()))


BAD_FIELDS = ["nan", "inf", "-inf", "1e309", "0", "-0.0", "-1e-3", "one", "0x1", "1..2"]


@st.composite
def floorplan_texts(draw):
    """A random guillotine die as floorplan text, with comments, blank lines,
    malformed records, bad geometry, duplicate ids and overlapping cores
    mixed in."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fp = random_floorplan(rng, draw(st.integers(1, 12)))
    lines = [
        f"{c.name} {c.width!r} {c.height!r} {c.left_x!r} {c.bottom_y!r}" for c in core_records(fp)
    ]
    for k in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(
            ["comment", "blank", "fields", "field", "duplicate", "overlap", "far"]
        ))
        if kind == "comment":
            line = draw(st.sampled_from(["# note", "   # 1 2 3 4", "x 1 1 0 0 # was"]))
        elif kind == "blank":
            line = draw(st.sampled_from(["", "   ", "\t"]))
        elif kind == "fields":
            line = " ".join(["x", "1", "1", "0", "0", "0"][:draw(st.sampled_from([1, 3, 4, 6]))])
        elif kind == "field":
            fields = [f"bad{k}", "0.001", "0.001", "9.0", f"{k}.0"]
            fields[draw(st.integers(1, 4))] = draw(st.sampled_from(BAD_FIELDS))
            line = " ".join(fields)
        elif kind == "duplicate":
            line = draw(st.sampled_from(lines)).split("#")[0].strip() or "x 1 1 0 0"
        elif kind == "overlap":
            line = f"over{k} 0.002 0.002 0.001 0.001"
        else:
            line = f"far{k} 0.001 0.002 {20 + k}.0 -5"
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(floorplan_texts())
def test_parser_matches_the_reference_parser(text):
    assert parse_outcome(parse_floorplan, text) == parse_outcome(reference_parse_floorplan, text)


def test_first_error_in_file_order_is_reported():
    # bad geometry on line 3 comes before a four-field record on line 7
    lines = ["a 1 1 0 0", "b 1 1 1 0", "c 0 1 2 0", "d 1 1 3 0", "# note", "", "e 1 1 4"]
    text = "\n".join(lines)
    message = "line 3: core 'c' has non-positive dimensions (0.0 x 1.0)"
    for parse in (parse_floorplan, reference_parse_floorplan):
        with pytest.raises(FloorplanError) as err:
            parse(text)
        assert str(err.value) == message
    # with line 3 mended, line 7 is the first error; a bad value after it,
    # and a duplicate id before it, are never reached
    lines[2] = "a 1 1 2 0"
    lines.append("f nan 1 5 0")
    with pytest.raises(FloorplanError, match=r"^line 7: expected 'name .*, got 'e 1 1 4'$"):
        parse_floorplan("\n".join(lines))


@pytest.mark.parametrize("stem", ["demo15", "density_contrast", "synth400"])
def test_parsed_cores_are_the_per_record_parsers_field_for_field(stem):
    path = (Path(__file__).resolve().parent / "golden" if stem == "synth400" else DATA)
    text = (path / f"{stem}.flp").read_text(encoding="utf-8")
    fp, reference = parse_floorplan(text), reference_parse_floorplan(text)
    assert fp.names == reference.names
    assert geometry_hex(fp) == geometry_hex(reference)
    assert core_records(fp) == core_records(reference)
    # rows left, bottom, width and height, as the first record gives them
    first = next(filter(None, (line.split("#")[0].strip() for line in text.splitlines())))
    name, width, height, left, bottom = first.split()
    assert fp.names[0] == name
    assert fp.geometry[:, 0].tolist() == list(map(float, (left, bottom, width, height)))


@pytest.mark.parametrize("build", [
    lambda: parse_floorplan("a 1 1 0 0\nb 1 1 1 0\n"),
    lambda: Floorplan([Core("a", 1, 1, 0, 0), Core("b", 1, 1, 1, 0)]),
])
def test_geometry_owns_its_memory_and_is_read_only(build):
    geometry = build().geometry
    assert geometry.base is None and not geometry.flags.writeable
    assert geometry.shape == (4, 2) and geometry.dtype == np.float64
    with pytest.raises(ValueError):
        geometry[0, 0] = 5.0


def test_floorplan_reads_five_field_records_as_tuples_or_lists():
    records = [("a", 1, 2, 0, 0), ("b", 1.5, 2.0, 1.0, 0.0)]
    built = [Floorplan(records), Floorplan(map(list, records)), Floorplan(Core(*r) for r in records)]
    for fp in built:
        assert fp.names == ("a", "b")
        assert fp.geometry.tolist() == [[0.0, 1.0], [0.0, 0.0], [1.0, 1.5], [2.0, 2.0]]
        assert repr(list(fp.adjacency().pairs())) == repr(list(built[0].adjacency().pairs()))
    # each record is checked with the parser's messages, less the line number
    for record, message in [
        (["c", 0.0, 1.0, 2.0, 0.0], "core 'c' has non-positive dimensions (0.0 x 1.0)"),
        (("c", 1.0, 1.0, math.nan, 0.0), "core 'c' has non-finite geometry"),
    ]:
        with pytest.raises(FloorplanError) as err:
            Floorplan([records[0], record])
        assert str(err.value) == message
        with pytest.raises(FloorplanError) as err:
            parse_floorplan(" ".join(map(str, record)))
        assert str(err.value) == f"line 1: {message}"


# ── power profiles ───────────────────────────────────────────────────────


def test_power_profile_single_core():
    fp = parse_floorplan("c1 1 1 0 0")
    profile = parse_power_profile("c1,10.0,1.0", fp)
    assert profile.power("c1") == 10.0
    assert profile.duration("c1") == 1.0


def test_power_profile_unknown_core():
    fp = parse_floorplan("c1 1 1 0 0")
    with pytest.raises(PowerProfileError, match="unknown core id 'c9'"):
        parse_power_profile("c1,10,1\nc9,5,1", fp)


def test_power_profile_missing_core_named():
    fp = parse_floorplan("c1 1 1 0 0\nc2 1 1 1 0\nc3 1 1 2 0")
    with pytest.raises(PowerProfileError, match="c2"):
        parse_power_profile("c1,10,1\nc3,5,1", fp)


def test_power_profile_negative_power():
    fp = parse_floorplan("c1 1 1 0 0")
    with pytest.raises(PowerProfileError, match="invalid test power"):
        parse_power_profile("c1,-1,1", fp)


def test_power_profile_rejects_non_finite_values():
    fp = parse_floorplan("c1 1 1 0 0")
    with pytest.raises(PowerProfileError, match="power"):
        parse_power_profile("c1,nan,1", fp)
    with pytest.raises(PowerProfileError, match="duration"):
        parse_power_profile("c1,1,inf", fp)


def test_parse_rejects_non_finite_geometry():
    with pytest.raises(FloorplanError, match="non-finite"):
        parse_floorplan("c1 nan 1 0 0")
    with pytest.raises(FloorplanError, match="non-finite"):
        parse_floorplan("c1 1 1 inf 0")


def test_power_profile_non_positive_duration():
    fp = parse_floorplan("c1 1 1 0 0")
    with pytest.raises(PowerProfileError, match="duration"):
        parse_power_profile("c1,1,0", fp)


def test_power_profile_duplicate_entry():
    fp = parse_floorplan("c1 1 1 0 0")
    with pytest.raises(PowerProfileError, match="duplicate"):
        parse_power_profile("c1,1,1\nc1,2,1", fp)


def test_power_profile_comments_and_blanks():
    fp = parse_floorplan("c1 1 1 0 0")
    profile = parse_power_profile("# powers\n\nc1, 2.5, 3.0\n", fp)
    assert profile.power("c1") == 2.5
    assert profile.duration("c1") == 3.0


@pytest.mark.parametrize("call, error, message", [
    (lambda fp: parse_power_profile("a,1", fp), PowerProfileError,
     "line 1: expected 'core_id,power_watts,duration_s', got 'a,1'"),
    (lambda fp: parse_power_profile("a,x,1", fp), PowerProfileError,
     "line 1: non-numeric field in 'a,x,1'"),
    (lambda fp: parse_power_profile("# none\n", fp), PowerProfileError,
     "no power entry for core(s): a"),
    (lambda fp: parse_power_profile("a,1,1\na,2,1", fp), PowerProfileError,
     "line 2: duplicate entry for core 'a'"),
    (lambda fp: parse_power_profile("\na , -0.5 ,1", fp), PowerProfileError,
     "line 2: core 'a' has invalid test power -0.5; need a finite value >= 0"),
    (lambda fp: parse_power_profile("a,0,-0.0", fp), PowerProfileError,
     "line 1: core 'a' has invalid test duration -0.0; need a finite value > 0"),
    (lambda fp: PowerProfile({"zz": (1.0, 1.0), "a": (1.0, 1.0), "yy": (1.0, 1.0)}, fp),
     PowerProfileError, "unknown core id(s): yy, zz"),
    (lambda fp: PowerProfile({"a": (1.0, 1.0)}, fp).power("zz"), KeyError,
     "no power entry for core 'zz'"),
    (lambda fp: PowerProfile({"a": (1.0, 1.0)}, fp).duration("zz"), KeyError,
     "no power entry for core 'zz'"),
], ids=["field-count", "non-numeric", "missing", "duplicate", "negative-power",
        "zero-duration", "unknown-ids", "power", "duration"])
def test_power_profile_error_messages(call, error, message):
    fp = parse_floorplan("a 1 1 0 0")
    with pytest.raises(error) as err:
        call(fp)
    assert err.value.args == (message,)


def test_power_profile_zero_power_allowed():
    fp = parse_floorplan("c1 1 1 0 0")
    profile = PowerProfile({"c1": (0.0, 1.0)}, fp)
    assert profile.power("c1") == 0.0


# ── the power-profile parser against the reference parser ───────────────


def profile_outcome(parse, text, fp):
    """What a parser makes of ``text``: the error type and message, or every
    core's power and duration bit for bit."""
    try:
        profile = parse(text, fp)
    except PowerProfileError as exc:
        return type(exc), str(exc)
    return [(profile.power(n).hex(), profile.duration(n).hex()) for n in fp.names]


POWER_FAULTS = {
    "fields": None,
    "unknown": None,
    "duplicate": None,
    "non-numeric": ["x", "", "1..2", "0x1", "1,"],
    "negative": ["-1e-3", "-5"],
    "nan-power": ["nan", "-nan"],
    "inf-power": ["inf", "-inf", "1e309"],
    "zero-duration": ["0", "-0.0", "0e5"],
    "nan-duration": ["nan"],
    "missing": None,
}


@st.composite
def power_profile_texts(draw):
    """A random guillotine die and a power profile of it as CSV text: the
    records in any order, spaces around fields, -0.0 powers, a byte-order
    mark, LF, CR LF or CR line ends, comments and blank lines, and at most
    one fault."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fp = random_floorplan(rng, draw(st.integers(1, 12)))
    pad = st.sampled_from(["", " ", "  ", "\t"])
    records = []
    for name in draw(st.permutations(fp.names)):
        power = draw(st.sampled_from([repr(rng.uniform(0.0, 5.0)), "-0.0", "0", "2e-3", "1_5"]))
        duration = draw(st.sampled_from([repr(rng.uniform(0.1, 3.0)), "1", "2.5E-1"]))
        records.append([name, power, duration])
    fault = draw(st.sampled_from([None, None, *POWER_FAULTS]))
    k = draw(st.integers(0, len(records) - 1))
    if fault == "fields":
        records[k] = records[k][:draw(st.sampled_from([1, 2]))] + ["1"] * draw(st.sampled_from([0, 2]))
    elif fault == "unknown":
        records.insert(k, ["zz", "1", "1"])
    elif fault == "duplicate":
        records.insert(draw(st.integers(k + 1, len(records))), [records[k][0], "3", "1"])
    elif fault == "missing":
        del records[k]
    elif fault is not None:
        column = 2 if fault.endswith("duration") else draw(st.sampled_from([1, 2]))
        if fault in ("negative", "nan-power", "inf-power"):
            column = 1
        records[k][column] = draw(st.sampled_from(POWER_FAULTS[fault]))
    lines = [",".join(draw(pad) + field + draw(pad) for field in fields) for fields in records]
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.sampled_from(["# core,power,duration", "", "   ", "\t# note"]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    if lines and draw(st.booleans()):
        lines[-1] += "  # last record"
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return fp, draw(st.sampled_from(["", "\ufeff"])) + text


@settings(max_examples=300, deadline=None)
@given(power_profile_texts())
def test_power_profile_parser_matches_the_reference_parser(case):
    fp, text = case
    outcome = profile_outcome(parse_power_profile, text, fp)
    assert outcome == profile_outcome(reference_parse_power_profile, text, fp)


# ── shared edges ─────────────────────────────────────────────────────────


def shared_edge(a, b):
    """The edge ``a`` and ``b`` share, as the floorplan of the two finds it."""
    pairs = list(Floorplan([a, b]).adjacency().pairs())
    assert [p[:2] for p in pairs] in ([], [(0, 1)])
    return pairs[0][2] if pairs else 0.0


def test_shared_edge_full_side():
    a = Core("a", 1, 1, 0, 0)
    b = Core("b", 1, 1, 1, 0)
    assert shared_edge(a, b) == 1.0


def test_shared_edge_corner_contact_is_zero():
    a = Core("a", 1, 1, 0, 0)
    b = Core("b", 1, 1, 1, 1)
    assert shared_edge(a, b) == 0.0


def test_shared_edge_partial_overlap():
    # y-intervals [0.4, 1.4] and [0, 1] intersect in [0.4, 1.0]
    a = Core("a", 1, 1, 0, 0)
    b = Core("b", 1, 1, 1, 0.4)
    assert shared_edge(a, b) == pytest.approx(0.6, abs=1e-15)


def test_shared_edge_separated_is_zero():
    a = Core("a", 1, 1, 0, 0)
    b = Core("b", 1, 1, 2.5, 0)
    assert shared_edge(a, b) == 0.0


def test_shared_edge_horizontal_seam():
    a = Core("a", 2, 1, 0, 0)
    b = Core("b", 1, 1, 0.5, 1)
    assert shared_edge(a, b) == pytest.approx(1.0)


def test_shared_edge_symmetry_random():
    rng = np.random.default_rng(11)
    fp = random_floorplan(rng, 12)
    cores = core_records(fp)
    for a in cores:
        for b in cores:
            if a.name != b.name:
                assert shared_edge(a, b) == shared_edge(b, a)


def test_shared_edge_tolerates_seam_error():
    a = Core("a", 1.0, 1.0, 0.0, 0.0)
    b = Core("b", 1.0, 1.0, 1.0 + 1e-12, 0.0)
    assert shared_edge(a, b) == pytest.approx(1.0)


# ── adjacency graph ──────────────────────────────────────────────────────


def test_strip_adjacency():
    fp = strip_floorplan(3)
    adj = fp.adjacency()
    pairs = list(adj.pairs())
    assert [(i, j) for i, j, _, _ in pairs] == [(0, 1), (1, 2)]
    # Python ints and floats, not numpy scalars, whose repr differs
    assert {tuple(map(type, pair)) for pair in pairs} == {(int, int, float, float)}
    assert pairs[0][2] == 1.0  # shared edge of s1 and s2
    assert pairs[1][3] == pytest.approx(1.0)  # center distance of s2 and s3


def test_adjacency_unpacks_to_four_read_only_arrays():
    fp = random_floorplan(np.random.default_rng(3), 12)
    i, j, edge, dist = fp.adjacency()
    assert [a.dtype for a in (i, j, edge, dist)] == [np.int64, np.int64, np.float64, np.float64]
    assert len({a.size for a in (i, j, edge, dist)}) == 1 and i.size > 0
    assert list(zip(i, j, edge, dist)) == list(fp.adjacency().pairs())
    for array in (i, j, edge, dist):
        with pytest.raises(ValueError):
            array[0] = 0


def test_single_core_graph_is_empty():
    fp = parse_floorplan("c1 1 1 0 0")
    adj = fp.adjacency()
    assert list(adj.pairs()) == []


def test_grid_2x2_has_four_edges_no_diagonals():
    fp = Floorplan(
        [
            Core("sw", 1, 1, 0, 0),
            Core("se", 1, 1, 1, 0),
            Core("nw", 1, 1, 0, 1),
            Core("ne", 1, 1, 1, 1),
        ]
    )
    adj = fp.adjacency()
    pairs = {frozenset((fp.names[i], fp.names[j])) for i, j, _, _ in adj.pairs()}
    assert pairs == {
        frozenset({"sw", "se"}),
        frozenset({"sw", "nw"}),
        frozenset({"se", "ne"}),
        frozenset({"nw", "ne"}),
    }


def test_translation_invariance():
    rng = np.random.default_rng(3)
    fp = random_floorplan(rng, 9)
    moved = Floorplan(
        [
            Core(c.name, c.width, c.height, c.left_x + 0.5, c.bottom_y - 1.25)
            for c in core_records(fp)
        ]
    )
    pairs = list(fp.adjacency().pairs())
    moved_pairs = list(moved.adjacency().pairs())
    assert [p[:2] for p in pairs] == [p[:2] for p in moved_pairs]
    for (_, _, edge, dist), (_, _, moved_edge, moved_dist) in zip(pairs, moved_pairs):
        assert edge == pytest.approx(moved_edge, rel=1e-12)
        assert dist == pytest.approx(moved_dist, rel=1e-12)


def test_random_floorplans_have_positive_center_distances():
    rng = np.random.default_rng(23)
    for _ in range(5):
        fp = random_floorplan(rng, 10)
        for _, _, shared_edge, center_distance in fp.adjacency().pairs():
            assert center_distance > 0
            assert shared_edge > 0


# ── bucketed scans against the all-pairs scan ────────────────────────────


def brute_force_scan(cores):
    """Reference O(N^2) scan: the overlap error the first overlapping pair
    raises, or the adjacent pairs in floorplan order."""
    for i in range(len(cores)):
        for j in range(i + 1, len(cores)):
            a, b = cores[i], cores[j]
            a_left, a_bottom, a_right, a_top = core_edges(a)
            b_left, b_bottom, b_right, b_top = core_edges(b)
            w = min(a_right, b_right) - max(a_left, b_left)
            h = min(a_top, b_top) - max(a_bottom, b_bottom)
            if w > EPSILON and h > EPSILON:
                return (
                    f"cores {a.name!r} and {b.name!r} overlap "
                    f"(intersection {w:.3e} m x {h:.3e} m)"
                )
    pairs = []
    for i in range(len(cores)):
        for j in range(i + 1, len(cores)):
            a, b = cores[i], cores[j]
            length = shared_edge_length(a, b)
            if length > EPSILON:
                pairs.append((i, j, length, math.dist(core_center(a), core_center(b))))
    return pairs


def bucketed_scan(cores):
    try:
        return list(Floorplan(cores).adjacency().pairs())
    except FloorplanError as exc:
        return str(exc)


@st.composite
def perturbed_dies(draw):
    """A shuffled random guillotine die, moved by an offset, some of whose
    edges are nudged by +-EPSILON and by a few ulps, optionally with one core
    grown or added so that it overlaps others."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fp = random_floorplan(rng, draw(st.integers(2, 40)))
    # at 1e7 m one ulp is about 2 * EPSILON
    offset = draw(st.sampled_from([0.0, -0.5, 3.0, 1e6, -1e7]))
    epsilon_rate = draw(st.sampled_from([0.0, 0.02, 0.1]))
    ulp_rate = draw(st.sampled_from([0.0, 0.3]))

    def nudged(v):
        if rng.random() < epsilon_rate:
            v += EPSILON if rng.random() < 0.5 else -EPSILON
        if rng.random() < ulp_rate:
            v += int(rng.integers(-3, 4)) * math.ulp(v)
        return v

    cores = []
    for c in core_records(fp):
        left, bottom, right, top = (nudged(v + offset) for v in core_edges(c))
        cores.append(Core(c.name, right - left, top - bottom, left, bottom))
    overlap = draw(st.sampled_from([None, None, "grow", "add"]))
    if overlap is not None:
        k = int(rng.integers(len(cores)))
        c = cores[k]
        if overlap == "grow":
            cores[k] = Core(c.name, c.width * 1.3, c.height * 1.2, c.left_x, c.bottom_y)
        else:
            cores.append(Core(
                "extra", c.width, c.height, c.left_x + 0.3 * c.width, c.bottom_y + 0.4 * c.height
            ))
    rng.shuffle(cores)
    return cores


@settings(max_examples=150, deadline=None)
@given(perturbed_dies())
def test_bucketed_scans_match_all_pairs_scan(cores):
    assert bucketed_scan(cores) == brute_force_scan(cores)


def test_bucketed_scans_on_hand_built_dies():
    # a seam just under EPSILON wide still touches; one just over does not
    for gap, touching in ((0.9 * EPSILON, True), (1.1 * EPSILON, False)):
        cores = [Core("a", 1.0, 1.0, 0.0, 0.0), Core("b", 1.0, 1.0, 1.0 + gap, 0.0)]
        assert bucketed_scan(cores) == brute_force_scan(cores)
        assert bool(bucketed_scan(cores)) == touching
    # 2 x 2 cores with seam gaps under EPSILON, sized so that the grid's one
    # inner line in each axis (extent / isqrt(4) from the die's corner) falls
    # exactly at the far side of the gap; dyadic values keep it exact
    for unit in (1.0, 2.0**-10):
        gap = 2.0**-30
        big = unit + gap
        cores = [
            Core("sw", unit, unit, 0.0, 0.0),
            Core("se", big, unit, big, 0.0),
            Core("nw", unit, big, 0.0, big),
            Core("ne", big, big, big, big),
        ]
        assert len(bucketed_scan(cores)) == 4
        assert bucketed_scan(cores) == brute_force_scan(cores)
    # a right edge that overflows to inf leaves no finite grid: all pairs
    # are scanned; huge finite coordinates still get one
    for cores in (
        [Core("a", 1e307, 1.0, 1.7e308, 0.0), Core("b", 1e307, 1.0, 1.6e308, 0.0),
         Core("c", 1.0, 1.0, 0.0, 0.0)],
        [Core("a", 1e300, 1.0, 1e300, 0.0), Core("b", 1e300, 1.0, 0.0, 0.0),
         Core("c", 1e300, 1.0, -1e300, 0.0)],
    ):
        assert bucketed_scan(cores) == brute_force_scan(cores) != []
    rng = np.random.default_rng(41)
    cores = list(core_records(random_floorplan(rng, 30)))
    c = cores[7]
    cores.insert(3, Core("intruder", c.width / 2, c.height / 2, c.left_x, c.bottom_y))
    message = brute_force_scan(cores)
    assert "'intruder'" in message
    assert bucketed_scan(cores) == message


@settings(max_examples=150, deadline=None)
@given(perturbed_dies())
def test_grid_scans_match_all_pairs_scan(cores):
    # dies of up to _ALL_PAIRS_MAX cores skip the grid; here it runs on all
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(floorplan, "_ALL_PAIRS_MAX", 0)
        assert bucketed_scan(cores) == brute_force_scan(cores)


def test_grid_scans_on_hand_built_dies(monkeypatch):
    monkeypatch.setattr(floorplan, "_ALL_PAIRS_MAX", 0)
    test_bucketed_scans_on_hand_built_dies()


def test_one_scan_per_floorplan(monkeypatch):
    # overlaps and adjacency come from one pass over the near pairs, made
    # when the floorplan is built; asking for the graph, or building the
    # network from it, scans nothing again
    scans = []
    real = floorplan._near_pairs
    monkeypatch.setattr(floorplan, "_near_pairs", lambda edges: scans.append(1) or real(edges))
    fp = parse_floorplan("c1 1 1 0 0\nc2 1 1 1 0\nc3 1 1 2 0")
    pairs = list(fp.adjacency().pairs())
    build_network(fp, ThermalParams())
    assert len(pairs) == 2 and len(scans) == 1
    fp = random_floorplan(np.random.default_rng(5), 20)
    fp.adjacency()
    build_network(fp, ThermalParams())
    assert len(scans) == 2


def heap_guillotine_text(rng, n_cores, die=0.008):
    """Floorplan text of a random guillotine tiling with ``n_cores`` cores:
    the largest rectangle is split next, found by a heap in O(log N)."""
    heap = [(-die * die, 0, 0.0, 0.0, die, die)]
    made = 1
    while len(heap) < n_cores:
        _, _, x, y, w, h = heapq.heappop(heap)
        frac = rng.uniform(0.35, 0.65)
        if w >= h:
            cut = x + frac * w
            halves = ((x, y, cut - x, h), (cut, y, x + w - cut, h))
        else:
            cut = y + frac * h
            halves = ((x, y, w, cut - y), (x, cut, w, y + h - cut))
        for hx, hy, hw, hh in halves:
            heapq.heappush(heap, (-hw * hh, made, hx, hy, hw, hh))
            made += 1
    return "".join(
        f"c{k} {w!r} {h!r} {x!r} {y!r}\n" for k, (_, _, x, y, w, h) in enumerate(heap)
    )


def test_bucketed_scans_on_a_benchmark_sized_die():
    # 400 cores, as on the benchmark's dies: cells with several cores and
    # long candidate lists; repr compares every float bit for bit
    text = heap_guillotine_text(np.random.default_rng(44), 400)
    cores = core_records(parse_floorplan(text))
    assert repr(bucketed_scan(cores)) == repr(brute_force_scan(cores))
    # the same die with a core appended last that overlaps an early one and
    # its neighbors
    c = cores[3]
    cores += (Core("intruder", 2 * c.width, 2 * c.height,
                           c.left_x + 0.5 * c.width, c.bottom_y + 0.5 * c.height),)
    message = brute_force_scan(cores)
    assert "'intruder'" in message
    assert bucketed_scan(cores) == message


def test_ten_thousand_core_die_parses_and_scans_quickly():
    text = heap_guillotine_text(np.random.default_rng(43), 10_000)
    start = time.perf_counter()
    fp = parse_floorplan(text)
    pairs = list(fp.adjacency().pairs())
    elapsed = time.perf_counter() - start
    assert len(fp) == 10_000
    # a guillotine tiling is planar: at least N - 1 and fewer than 3N contacts
    assert len(fp) - 1 <= len(pairs) < 3 * len(fp)
    # 0.05-0.09 s on 2 vCPUs; all-pairs scans took 4.2 s already at N = 1600
    assert elapsed < 10.0
