"""Session thermal model tests: resistances, TC, STC, params."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermsched.floorplan import CoreGeometry, Floorplan, PowerProfile, parse_floorplan
from thermsched.thermal_model import ThermalParams, candidate_term, session_stc
from thermsched.thermal_sim import build_network
from util import (
    equivalent_resistance,
    grounded_rise_oracle,
    packing_inputs,
    random_floorplan,
    random_profile,
    random_session,
    reference_escape,
    reference_stc,
    session_flags,
    stc_of,
    strip_floorplan,
    uniform_profile,
)


# ── parameters ───────────────────────────────────────────────────────────


def test_default_params():
    p = ThermalParams()
    assert p.k_silicon == 100.0
    assert p.die_thickness == 0.5e-3
    assert p.r_vertical_per_area == 5e-4
    assert p.t_ambient == 45.0


@pytest.mark.parametrize("field", ["k_silicon", "die_thickness", "r_vertical_per_area"])
def test_params_must_be_positive(field):
    with pytest.raises(ValueError, match=field):
        ThermalParams(**{field: 0.0})


# ── lateral resistance ───────────────────────────────────────────────────


def lateral_resistance(a, b, fp, params):
    """1 / the compiled lateral conductance between cores ``a`` and ``b``."""
    net = build_network(fp, params)
    lateral = dict(net.lateral[net.position[a]])
    return 1.0 / lateral[net.position[b]]


def vertical_resistance(name, fp, params):
    """1 / the compiled vertical conductance of core ``name``."""
    net = build_network(fp, params)
    return 1.0 / net.vertical[net.position[name]]


def test_lateral_resistance_all_ones():
    fp = strip_floorplan(2)
    params = ThermalParams(k_silicon=1.0, die_thickness=1.0)
    # shared edge 1, center distance 1, k*t = 1
    assert lateral_resistance("s1", "s2", fp, params) == pytest.approx(1.0)


def test_lateral_resistance_halves_when_edge_doubles():
    params = ThermalParams(k_silicon=1.0, die_thickness=1.0)
    narrow = Floorplan(
        [CoreGeometry("a", 1, 1, 0, 0), CoreGeometry("b", 1, 1, 1, 0)]
    )
    wide = Floorplan(
        [CoreGeometry("a", 1, 2, 0, 0), CoreGeometry("b", 1, 2, 1, 0)]
    )
    r_narrow = lateral_resistance("a", "b", narrow, params)
    r_wide = lateral_resistance("a", "b", wide, params)
    assert r_wide == pytest.approx(r_narrow / 2.0)


def test_lateral_resistance_hand_value():
    # 1 cm cores, k = 100, t = 0.5e-3, shared = 0.01, distance = 0.01:
    # 0.01 / (100 * 5e-4 * 0.01) = 20 K/W
    fp = parse_floorplan("a 0.01 0.01 0.0 0.0\nb 0.01 0.01 0.01 0.0")
    params = ThermalParams(k_silicon=100.0, die_thickness=0.5e-3)
    assert lateral_resistance("a", "b", fp, params) == pytest.approx(20.0, rel=1e-12)


def test_lateral_resistance_symmetric():
    rng = np.random.default_rng(5)
    fp = random_floorplan(rng, 10)
    net = build_network(fp, ThermalParams())
    for i, neighbors in enumerate(net.lateral):
        # neighbor lists are in floorplan order, the order R_eq sums in
        assert [j for j, _ in neighbors] == sorted(j for j, _ in neighbors)
        for j, g in neighbors:
            assert 1.0 / g == 1.0 / dict(net.lateral[j])[i]


def test_lateral_resistance_non_adjacent_raises():
    # s1 and s3 share no edge, so the compiled network has no path between them
    fp = strip_floorplan(3)
    with pytest.raises(KeyError):
        lateral_resistance("s1", "s3", fp, ThermalParams())


# ── vertical resistance ──────────────────────────────────────────────────


def test_vertical_resistance_unit_area():
    fp = strip_floorplan(1)
    params = ThermalParams(r_vertical_per_area=1.0)
    assert vertical_resistance("s1", fp, params) == pytest.approx(1.0)


def test_vertical_resistance_doubles_when_area_halves():
    params = ThermalParams()
    big = Floorplan([CoreGeometry("c", 1.0, 1.0, 0, 0)])
    small = Floorplan([CoreGeometry("c", 1.0, 0.5, 0, 0)])
    assert vertical_resistance("c", small, params) == pytest.approx(
        2.0 * vertical_resistance("c", big, params)
    )


def test_vertical_resistance_hand_value():
    # 1 cm x 1 cm core, r_v = 5e-4 K*m^2/W: 5e-4 / 1e-4 = 5 K/W
    fp = parse_floorplan("c 0.01 0.01 0 0")
    assert vertical_resistance("c", fp, ThermalParams()) == pytest.approx(5.0, rel=1e-12)


# ── equivalent resistance ────────────────────────────────────────────────


def test_equivalent_resistance_no_passive_neighbors_is_vertical():
    fp = strip_floorplan(1)
    params = ThermalParams()
    r_v = vertical_resistance("s1", fp, params)
    assert equivalent_resistance("s1", {"s1"}, build_network(fp, params)) == pytest.approx(r_v)
    # all neighbors active: same thing
    fp3 = strip_floorplan(3)
    r_v2 = vertical_resistance("s2", fp3, params)
    net3 = build_network(fp3, params)
    assert equivalent_resistance("s2", {"s1", "s2", "s3"}, net3) == pytest.approx(r_v2)


def test_equivalent_resistance_equal_parallel_pair():
    # R_v = 2 and one passive lateral of 2 in parallel -> 1.0
    fp = strip_floorplan(2)  # unit squares: area 1, shared 1, distance 1
    params = ThermalParams(k_silicon=1.0, die_thickness=0.5, r_vertical_per_area=2.0)
    assert lateral_resistance("s1", "s2", fp, params) == pytest.approx(2.0)
    assert vertical_resistance("s1", fp, params) == pytest.approx(2.0)
    assert equivalent_resistance("s1", {"s1"}, build_network(fp, params)) == pytest.approx(1.0)


def test_equivalent_resistance_matches_oracle_on_strip():
    fp = strip_floorplan(3)
    params = ThermalParams(k_silicon=1.0, die_thickness=1.0, r_vertical_per_area=2.0)
    session = {"s2"}
    expected = grounded_rise_oracle("s2", session, fp, params)
    assert equivalent_resistance("s2", session, build_network(fp, params)) == pytest.approx(
        expected, rel=1e-12
    )


def test_equivalent_resistance_requires_membership():
    fp = strip_floorplan(2)
    with pytest.raises(ValueError, match="not in the session"):
        equivalent_resistance("s1", {"s2"}, build_network(fp, ThermalParams()))


def test_equivalent_resistance_bounded_by_paths():
    rng = np.random.default_rng(17)
    params = ThermalParams()
    for _ in range(20):
        fp = random_floorplan(rng, int(rng.integers(4, 12)))
        session = random_session(rng, fp)
        net = build_network(fp, params)
        for name in session:
            i = net.position[name]
            r_eq = equivalent_resistance(name, session, net)
            assert r_eq <= 1.0 / net.vertical[i] * (1 + 1e-12)
            for j, g in net.lateral[i]:
                if net.nodes[j] not in session:
                    assert r_eq <= 1.0 / g * (1 + 1e-12)


@st.composite
def pricing_cases(draw):
    """A random guillotine die, powers, weights, a session and some of its
    members."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fp = random_floorplan(rng, draw(st.integers(1, 30)))
    profile = random_profile(rng, fp, p_range=(0.0, 4.0))
    weights = {n: 1.1 ** int(rng.integers(0, 6)) for n in fp.names if rng.random() < 0.5}
    session = random_session(rng, fp)
    members = [n for n in fp.names if n in session and rng.random() < 0.5]
    return build_network(fp, ThermalParams()), profile, weights, session, members


@settings(max_examples=80, deadline=None)
@given(pricing_cases())
def test_indexed_pricing_matches_the_name_level_reference_bit_for_bit(case):
    # packing prices on node indices and membership flags; the name-level
    # reference shares no pricing code with it, and every value must match
    net, profile, weights, session, members = case
    active = session_flags(session, net)
    powers, weight_list = packing_inputs(net, profile, weights)
    for i, name in enumerate(net.nodes):
        term, touched = candidate_term(i, powers, weight_list, net, active)
        assert [net.nodes[j] for j in touched] == reference_escape(name, session, net)[1]
        # a candidate's term before it joins matches its term once it has
        assert term == reference_stc([name], profile, weights, net, session | {name})
    indices = [net.position[n] for n in members]
    assert session_stc(indices, powers, weight_list, net, active) == reference_stc(
        members, profile, weights, net, session
    )
    assert session_stc(
        [net.position[n] for n in session], powers, weight_list, net, active
    ) == reference_stc(session, profile, weights, net)


# ── TC and STC ───────────────────────────────────────────────────────────


def test_tc_zero_power():
    # TC = P * R_eq = 0, so STC = TC * P * W = 0 whatever the weight
    fp = strip_floorplan(2)
    profile = uniform_profile(fp, power=0.0)
    net = build_network(fp, ThermalParams())
    assert stc_of({"s1"}, profile, {"s1": 2.0}, net) == 0.0


def test_tc_simple_product():
    # P = 10 W, R_eq = 0.5 K/W -> TC = 5 K, and STC = TC * P for W = 1
    fp = strip_floorplan(1)
    params = ThermalParams(r_vertical_per_area=0.5)
    profile = uniform_profile(fp, power=10.0)
    tc = stc_of({"s1"}, profile, None, build_network(fp, params)) / 10.0
    assert tc == pytest.approx(5.0)


def test_tc_from_oracle_on_strip():
    fp = strip_floorplan(3)
    params = ThermalParams(k_silicon=1.0, die_thickness=1.0, r_vertical_per_area=2.0)
    profile = uniform_profile(fp, power=10.0)
    expected = 10.0 * grounded_rise_oracle("s2", {"s2"}, fp, params)
    tc = stc_of({"s2"}, profile, None, build_network(fp, params)) / 10.0
    assert tc == pytest.approx(expected, rel=1e-12)


def test_stc_empty_session_is_zero():
    fp = strip_floorplan(2)
    net = build_network(fp, ThermalParams())
    assert stc_of(frozenset(), uniform_profile(fp), None, net) == 0.0


def test_stc_singleton_value():
    # TC = 5, P = 10, W = 1 -> STC = 50
    fp = strip_floorplan(1)
    net = build_network(fp, ThermalParams(r_vertical_per_area=0.5))
    profile = uniform_profile(fp, power=10.0)
    assert stc_of({"s1"}, profile, None, net) == pytest.approx(50.0)


def test_stc_growth_on_strip():
    # activating a second core removes a ground path, so the pair STC
    # strictly exceeds both singleton STCs
    fp = strip_floorplan(3)
    params = ThermalParams(k_silicon=1.0, die_thickness=1.0, r_vertical_per_area=2.0)
    net = build_network(fp, params)
    profile = uniform_profile(fp, power=10.0)
    single_1 = stc_of({"s1"}, profile, None, net)
    single_2 = stc_of({"s2"}, profile, None, net)
    pair = stc_of({"s1", "s2"}, profile, None, net)
    assert pair > single_1
    assert pair > single_2


def test_stc_power_scaling_is_quadratic():
    rng = np.random.default_rng(29)
    params = ThermalParams()
    for _ in range(10):
        fp = random_floorplan(rng, int(rng.integers(3, 10)))
        net = build_network(fp, params)
        profile = random_profile(rng, fp)
        session = random_session(rng, fp)
        alpha = float(rng.uniform(0.25, 4.0))
        scaled = PowerProfile(
            {n: (alpha * profile.power(n), profile.duration(n)) for n in fp.names}, fp
        )
        base = stc_of(session, profile, None, net)
        assert stc_of(session, scaled, None, net) == pytest.approx(
            alpha**2 * base, rel=1e-12
        )


def test_stc_weight_scaling_on_singleton():
    fp = strip_floorplan(1)
    net = build_network(fp, ThermalParams(r_vertical_per_area=0.5))
    profile = uniform_profile(fp, power=10.0)
    beta = 1.1**4
    weighted = {"s1": beta}
    assert stc_of({"s1"}, profile, weighted, net) == pytest.approx(
        beta * 50.0, rel=1e-12
    )


def test_stc_monotone_in_session_growth():
    rng = np.random.default_rng(31)
    params = ThermalParams()
    for _ in range(50):
        fp = random_floorplan(rng, int(rng.integers(3, 10)))
        net = build_network(fp, params)
        profile = random_profile(rng, fp)
        session = set(random_session(rng, fp))
        outside = [n for n in fp.names if n not in session]
        if not outside:
            continue
        extra = outside[int(rng.integers(len(outside)))]
        before = stc_of(session, profile, None, net)
        after = stc_of(session | {extra}, profile, None, net)
        assert after >= before


def test_stc_of_some_members_within_a_larger_session():
    rng = np.random.default_rng(37)
    for _ in range(30):
        fp = random_floorplan(rng, int(rng.integers(2, 12)))
        net = build_network(fp, ThermalParams())
        profile = random_profile(rng, fp)
        weights = {n: float(rng.uniform(1.0, 3.0)) for n in fp.names}
        session = random_session(rng, fp)
        members = [n for n in session if rng.random() < 0.5]
        expected = max(
            (
                profile.power(n) * equivalent_resistance(n, session, net)
                * profile.power(n) * weights[n]
                for n in members
            ),
            default=0.0,
        )
        assert stc_of(members, profile, weights, net, session) == expected
        # every member named: the session's own STC
        assert stc_of(session, profile, weights, net, session) == stc_of(
            session, profile, weights, net
        )
