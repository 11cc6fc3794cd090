"""Floorplan parsing, geometry, and adjacency tests."""

import io

import numpy as np
import pytest

from thermsched.floorplan import (
    CoreGeometry,
    Floorplan,
    FloorplanError,
    PowerProfile,
    PowerProfileError,
    build_adjacency,
    parse_floorplan,
    parse_power_profile,
    shared_edge_length,
)
from util import random_floorplan, strip_floorplan


# ── parsing ──────────────────────────────────────────────────────────────


def test_parse_single_core():
    fp = parse_floorplan("c1 0.01 0.01 0.0 0.0")
    assert fp.names == ("c1",)
    core = fp.core("c1")
    assert core.width == 0.01
    assert core.height == 0.01
    assert core.left_x == 0.0
    assert core.bottom_y == 0.0
    assert core.area == pytest.approx(1e-4)


def test_parse_accepts_stream():
    fp = parse_floorplan(io.StringIO("c1 1 1 0 0\nc2 1 1 1 0\n"))
    assert fp.names == ("c1", "c2")


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


def test_roundtrip_serialization_bit_exact():
    rng = np.random.default_rng(7)
    for _ in range(10):
        fp = random_floorplan(rng, int(rng.integers(2, 12)))
        assert parse_floorplan(fp.to_text()) == fp
    decimal = parse_floorplan("a 0.01 0.02 0.3 0.125\nb 0.01 0.02 0.31 0.125")
    assert parse_floorplan(decimal.to_text()) == decimal


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


def test_power_profile_zero_power_allowed():
    fp = parse_floorplan("c1 1 1 0 0")
    profile = PowerProfile({"c1": (0.0, 1.0)}, fp)
    assert profile.power("c1") == 0.0


# ── shared edges ─────────────────────────────────────────────────────────


def test_shared_edge_full_side():
    a = CoreGeometry("a", 1, 1, 0, 0)
    b = CoreGeometry("b", 1, 1, 1, 0)
    assert shared_edge_length(a, b) == 1.0


def test_shared_edge_corner_contact_is_zero():
    a = CoreGeometry("a", 1, 1, 0, 0)
    b = CoreGeometry("b", 1, 1, 1, 1)
    assert shared_edge_length(a, b) == 0.0


def test_shared_edge_partial_overlap():
    # y-intervals [0.4, 1.4] and [0, 1] intersect in [0.4, 1.0]
    a = CoreGeometry("a", 1, 1, 0, 0)
    b = CoreGeometry("b", 1, 1, 1, 0.4)
    assert shared_edge_length(a, b) == pytest.approx(0.6, abs=1e-15)


def test_shared_edge_separated_is_zero():
    a = CoreGeometry("a", 1, 1, 0, 0)
    b = CoreGeometry("b", 1, 1, 2.5, 0)
    assert shared_edge_length(a, b) == 0.0


def test_shared_edge_horizontal_seam():
    a = CoreGeometry("a", 2, 1, 0, 0)
    b = CoreGeometry("b", 1, 1, 0.5, 1)
    assert shared_edge_length(a, b) == pytest.approx(1.0)


def test_shared_edge_symmetry_random():
    rng = np.random.default_rng(11)
    fp = random_floorplan(rng, 12)
    for a in fp:
        for b in fp:
            if a.name != b.name:
                assert shared_edge_length(a, b) == shared_edge_length(b, a)


def test_shared_edge_tolerates_seam_error():
    a = CoreGeometry("a", 1.0, 1.0, 0.0, 0.0)
    b = CoreGeometry("b", 1.0, 1.0, 1.0 + 1e-12, 0.0)
    assert shared_edge_length(a, b) == pytest.approx(1.0)


# ── adjacency graph ──────────────────────────────────────────────────────


def test_strip_adjacency():
    fp = strip_floorplan(3)
    adj = build_adjacency(fp)
    pairs = list(adj.pairs())
    assert [(a, b) for a, b, _, _ in pairs] == [("s1", "s2"), ("s2", "s3")]
    assert pairs[0][2] == 1.0  # shared edge of s1 and s2
    assert pairs[1][3] == pytest.approx(1.0)  # center distance of s2 and s3


def test_single_core_graph_is_empty():
    fp = parse_floorplan("c1 1 1 0 0")
    adj = build_adjacency(fp)
    assert list(adj.pairs()) == []


def test_grid_2x2_has_four_edges_no_diagonals():
    fp = Floorplan(
        [
            CoreGeometry("sw", 1, 1, 0, 0),
            CoreGeometry("se", 1, 1, 1, 0),
            CoreGeometry("nw", 1, 1, 0, 1),
            CoreGeometry("ne", 1, 1, 1, 1),
        ]
    )
    adj = build_adjacency(fp)
    pairs = {frozenset((a, b)) for a, b, _, _ in adj.pairs()}
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
            CoreGeometry(c.name, c.width, c.height, c.left_x + 0.5, c.bottom_y - 1.25)
            for c in fp
        ]
    )
    pairs = list(build_adjacency(fp).pairs())
    moved_pairs = list(build_adjacency(moved).pairs())
    assert [p[:2] for p in pairs] == [p[:2] for p in moved_pairs]
    for (_, _, edge, dist), (_, _, moved_edge, moved_dist) in zip(pairs, moved_pairs):
        assert edge == pytest.approx(moved_edge, rel=1e-12)
        assert dist == pytest.approx(moved_dist, rel=1e-12)


def test_random_floorplans_have_positive_center_distances():
    rng = np.random.default_rng(23)
    for _ in range(5):
        fp = random_floorplan(rng, 10)
        for _, _, shared_edge, center_distance in build_adjacency(fp).pairs():
            assert center_distance > 0
            assert shared_edge > 0
