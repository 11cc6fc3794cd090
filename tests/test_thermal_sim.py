"""Compiled thermal network and full-network steady-state simulator tests."""

from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse
from scipy.linalg import cho_factor
from hypothesis import given, settings
from hypothesis import strategies as st

from thermsched import scheduler, thermal_sim
from thermsched.floorplan import AdjacencyGraph, Floorplan, PowerProfile
from thermsched.scheduler import (
    SchedulerConfig,
    build_session,
    compile_die,
    generate_schedule,
    screen_cores,
)
from thermsched.thermal_model import ThermalParams, session_stc
from thermsched.thermal_sim import (
    RESIDUAL_RTOL,
    NetworkSolveError,
    build_network,
    simulate_session,
    solve_steady_state,
)
from util import (
    Core,
    equivalent_resistance,
    load_inputs,
    load_synth400,
    packing_inputs,
    random_floorplan,
    random_profile,
    random_session,
    reference_network,
    session_flags,
    strip_floorplan,
    traced_peak,
    uniform_profile,
)


def injection_vector(net, session, profile) -> np.ndarray:
    """``P`` in node order: member test powers, zero elsewhere."""
    return np.array([profile.power(n) if n in session else 0.0 for n in net.nodes])


# ── network compilation ──────────────────────────────────────────────────


def test_single_core_network():
    fp = strip_floorplan(1)
    params = ThermalParams(r_vertical_per_area=1.0)  # R_v = 1 for the unit square
    net = build_network(fp, params)
    assert net.nodes == ("s1",)
    assert net.position == {"s1": 0}
    assert net.vertical == (1.0,)
    assert net.lateral == ((),)
    assert net.conductance.shape == (1, 1)
    assert net.conductance[0, 0] == pytest.approx(1.0)
    assert net.ambient == params.t_ambient


def test_strip_network_hand_stamped():
    # unit squares, k*t = 1 -> lateral conductance 1 per pair;
    # r_v_per_area = 2 -> vertical conductance 0.5 per core
    fp = strip_floorplan(3)
    params = ThermalParams(k_silicon=1.0, die_thickness=1.0, r_vertical_per_area=2.0)
    net = build_network(fp, params)
    expected = np.array(
        [
            [1.5, -1.0, 0.0],
            [-1.0, 2.5, -1.0],
            [0.0, -1.0, 1.5],
        ]
    )
    assert np.allclose(net.conductance.toarray(), expected, rtol=0, atol=1e-15)
    assert net.vertical == (0.5, 0.5, 0.5)
    assert net.lateral == (((1, 1.0),), ((0, 1.0), (2, 1.0)), ((1, 1.0),))


def test_network_invariants_random():
    rng = np.random.default_rng(41)
    for _ in range(10):
        fp = random_floorplan(rng, int(rng.integers(3, 12)))
        net = build_network(fp, ThermalParams())
        # G is held sparse: N diagonal entries and two per adjacent pair, and
        # exactly the dense assembly, whose diagonal sums the laterals in
        # floorplan order, then the vertical
        pairs = list(fp.adjacency().pairs())
        assert isinstance(net.conductance, scipy.sparse.csr_array)
        assert net.conductance.nnz == len(fp) + 2 * len(pairs)
        dense = np.zeros((len(fp), len(fp)), order="F")
        for i, row in enumerate(net.lateral):
            diagonal = 0.0
            for j, gl in row:
                dense[i, j] = -gl
                diagonal += gl
            dense[i, i] = diagonal + net.vertical[i]
        g = net.conductance.toarray()
        assert np.array_equal(g, dense)
        # assembled from its entries, G holds the CSR arrays that csr_array
        # takes from the dense G, and its factor is the dense G's, bit for bit
        expected = scipy.sparse.csr_array(dense)
        for part in ("data", "indices", "indptr"):
            assert getattr(net.conductance, part).tolist() == getattr(expected, part).tolist()
        with thermal_sim._one_blas_thread():
            factor = cho_factor(dense, check_finite=False)
        assert net.factor[0].tobytes() == factor[0].tobytes() and net.factor[1] == factor[1]
        assert np.array_equal(g, g.T)
        off = g - np.diag(np.diag(g))
        assert np.all(off <= 0.0)
        # diagonal = vertical conductance + sum of |off-diagonals|
        vertical = np.diag(g) - np.sum(-off, axis=1)
        assert np.all(vertical > 0.0)
        assert np.allclose(vertical, net.vertical, rtol=1e-12, atol=0)
        assert np.all(np.linalg.eigvalsh(g) > 0.0)
        # the neighbor lists carry exactly the off-diagonal couplings
        for i, row in enumerate(net.lateral):
            assert sorted(j for j, _ in row) == [j for j, _ in row]
            assert {j: gl for j, gl in row} == {
                j: -g[i, j] for j in range(len(fp)) if g[i, j] != 0.0 and j != i
            }


def network_outcome(build, fp, params):
    """What ``build`` compiles: the error type and message, or every value
    of the network, floats by their bits and Python types checked."""
    try:
        net = build(fp, params)
    except NetworkSolveError as exc:
        return type(exc), str(exc)
    assert all(type(v) is float for v in net.vertical)
    assert all(type(j) is int and type(g) is float for row in net.lateral for j, g in row)
    g = net.conductance
    return (
        net.nodes, net.position, net.ambient,
        [v.hex() for v in net.vertical],
        [[(j, gl.hex()) for j, gl in row] for row in net.lateral],
        g.shape, g.indptr.tolist(), g.indices.tolist(), g.data.dtype, g.data.tobytes(),
        net.factor[0].flags.f_contiguous, net.factor[0].tobytes(), net.factor[1],
    )


def row_die(cores):
    """Cores of width 1 side by side from x = 0, bottoms at 0: ``cores``
    lists ``(name, height)`` from left to right, in node order by name."""
    placed = [Core(name, 1.0, height, float(x), 0.0)
              for x, (name, height) in enumerate(cores)]
    return Floorplan(sorted(placed, key=lambda c: c.name))


# k * t = 1e300: a shared edge above about 1.8e8 m overflows k * t * edge,
# so the pairs whose two cores are both 1e9 m tall have no lateral
# conductance; the rest do.  From left to right the tall pairs are (1, 2)
# and (0, 3) in node order, and (0, 3) comes first in (i, j) order.
TWO_FAILING_PAIRS = [("p1", 1e9), ("p2", 1e9), ("p4", 1.0), ("p0", 1e9), ("p3", 1e9)]
STRONG = ThermalParams(k_silicon=1e300, die_thickness=1.0)


@pytest.mark.parametrize("die, params", [
    (lambda: strip_floorplan(1), ThermalParams()),
    (lambda: strip_floorplan(2, 0.01), ThermalParams()),
    (lambda: strip_floorplan(7), ThermalParams(k_silicon=1.0, die_thickness=1.0,
                                               r_vertical_per_area=2.0)),
    (lambda: load_inputs("demo15")[0], ThermalParams()),
    (lambda: load_inputs("density_contrast")[0], ThermalParams()),
    (lambda: load_synth400()[0], ThermalParams()),
    (lambda: load_synth400()[0], ThermalParams(k_silicon=150.0, die_thickness=7e-4,
                                               r_vertical_per_area=2e-4)),
    # degenerate: the first failing pair, core or total is named, or G is
    # not positive definite
    (lambda: row_die(TWO_FAILING_PAIRS), STRONG),
    (lambda: strip_floorplan(3), ThermalParams(k_silicon=1e-320)),
    (lambda: row_die([("b", 1.0), ("a", 1e9), ("c", 1e9)]),
     ThermalParams(r_vertical_per_area=1e-300)),
    (lambda: strip_floorplan(3), ThermalParams(k_silicon=1e300, die_thickness=1e8)),
    (lambda: strip_floorplan(2), ThermalParams(k_silicon=1.0, die_thickness=1.0,
                                               r_vertical_per_area=1e300)),
], ids=["one-core", "strip-2", "strip-7", "demo15", "density_contrast", "synth400",
        "synth400-params", "two-failing-pairs", "lateral-underflow", "failing-verticals",
        "infinite-total", "not-positive-definite"])
def test_network_matches_the_per_pair_assembly(die, params):
    fp = die()
    assert network_outcome(build_network, fp, params) == network_outcome(
        reference_network, fp, params
    )


def test_first_failing_pair_in_pair_order_is_named():
    fp = row_die(TWO_FAILING_PAIRS)
    failing = [(i, j) for i, j, edge, _ in fp.adjacency().pairs() if edge > 1e8]
    assert failing == [(0, 3), (1, 2)]
    with pytest.raises(NetworkSolveError) as err:
        build_network(fp, STRONG)
    assert str(err.value) == (
        "lateral conductance between 'p0' and 'p3' is zero or not finite in double "
        "precision; check k_silicon and die_thickness"
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 90))
def test_random_networks_match_the_per_pair_assembly(seed, n_cores):
    # past 64 cores the floorplan scan runs on its grid
    fp = random_floorplan(np.random.default_rng(seed), n_cores)
    for params in (ThermalParams(), ThermalParams(k_silicon=1.0, die_thickness=1.0)):
        assert network_outcome(build_network, fp, params) == network_outcome(
            reference_network, fp, params
        )


def test_unknown_active_core_rejected():
    fp = strip_floorplan(2)
    net = build_network(fp, ThermalParams())
    with pytest.raises(ValueError, match="nope"):
        simulate_session({"nope"}, net, uniform_profile(fp))


def test_unknown_names_of_mixed_types_are_listed_as_str():
    # sorting the unknown names themselves raised TypeError
    fp = strip_floorplan(2)
    with pytest.raises(ValueError) as err:
        simulate_session({"zz", 5}, build_network(fp, ThermalParams()), uniform_profile(fp))
    assert str(err.value) == "active cores not in floorplan: 5, zz"


def test_a_bare_str_session_is_refused():
    # a str is a collection of its characters, and was taken as one
    fp = strip_floorplan(2)
    with pytest.raises(ValueError) as err:
        simulate_session("s1", build_network(fp, ThermalParams()), uniform_profile(fp))
    assert str(err.value) == "test session is a collection of core names, not the str 's1'"


def test_non_positive_definite_raises():
    # a vertical conductance 300 orders of magnitude below the lateral one
    # vanishes from the diagonal in floating point: the network floats, and
    # G is singular
    fp = strip_floorplan(2)
    params = ThermalParams(k_silicon=1.0, die_thickness=1.0, r_vertical_per_area=1e300)
    with pytest.raises(NetworkSolveError, match="positive definite"):
        build_network(fp, params)


def test_area_beyond_float_range_raises_network_solve_error():
    # an int-sized core whose area overflows a float: the area read from the
    # floorplan's float64 array is inf, and its conductance 0
    fp = Floorplan([Core("a", 10**200, 10**200, 0, 0)])
    with pytest.raises(
        NetworkSolveError,
        match=r"^vertical conductance of 'a' is zero or not finite in double precision; "
              r"check r_vertical_per_area$",
    ):
        build_network(fp, ThermalParams())


def test_factor_once_per_schedule(monkeypatch):
    calls = []
    real = thermal_sim.cho_factor
    monkeypatch.setattr(
        thermal_sim, "cho_factor", lambda g, **kwargs: calls.append(1) or real(g, **kwargs)
    )
    rng = np.random.default_rng(59)
    fp = random_floorplan(rng, 10)
    profile = random_profile(rng, fp)
    bcmts = compile_die(fp, profile, ThermalParams()).bcmt
    calls.clear()
    config = SchedulerConfig(tl=max(bcmts.values()) + 5.0, stcl=1e3)
    schedule = generate_schedule(compile_die(fp, profile, ThermalParams()), config)
    assert schedule.simulation_effort > schedule.total_length  # discards were solved too
    assert len(calls) == 1


def test_compiled_paths_never_reach_the_adjacency_graph(monkeypatch):
    rng = np.random.default_rng(71)
    fp = random_floorplan(rng, 10)
    profile = random_profile(rng, fp)
    net = build_network(fp, ThermalParams())

    def forbidden(*args, **kwargs):
        raise AssertionError("per-session code read the floorplan geometry")

    monkeypatch.setattr(AdjacencyGraph, "pairs", forbidden)
    monkeypatch.setattr(Floorplan, "adjacency", forbidden)
    session = random_session(rng, fp)
    powers, weights = packing_inputs(net, profile)
    session_stc([net.position[n] for n in session], powers, weights, net, session_flags(session, net))
    for name in session:
        equivalent_resistance(name, session, net)
    simulate_session(session, net, profile)
    screen_cores(net, profile)
    build_session(list(range(len(net.nodes))), weights, 10.0, net, powers, [])
    with pytest.raises(AssertionError, match="geometry"):
        build_network(fp, ThermalParams())  # the compile step does read them


# ── solving ──────────────────────────────────────────────────────────────


def test_single_node_ohms_law():
    # R_v = 1 K/W, P = 50 W, ambient 45 C -> 95 C
    fp = strip_floorplan(1)
    params = ThermalParams(r_vertical_per_area=1.0)
    net = build_network(fp, params)
    result = simulate_session({"s1"}, net, uniform_profile(fp, 50.0))
    assert result.temperatures[net.position["s1"]] == pytest.approx(95.0, abs=1e-9)
    assert result.peak == ("s1", pytest.approx(95.0))


def test_zero_injection_gives_ambient_exactly():
    fp = strip_floorplan(4)
    net = build_network(fp, ThermalParams())
    result = solve_steady_state(net, np.zeros(len(fp)))
    for temp in result.temperatures.tolist():
        assert temp == 45.0


def test_two_node_hand_solution():
    # R_v = 2 each, R_lat = 1, P = (10, 0), ambient 45:
    #   1.5*dT1 - dT2 = 10 and 1.5*dT2 - dT1 = 0  =>  dT = (12, 8)
    fp = strip_floorplan(2)
    params = ThermalParams(k_silicon=1.0, die_thickness=1.0, r_vertical_per_area=2.0)
    profile = PowerProfile({"s1": (10.0, 1.0), "s2": (0.0, 1.0)}, fp)
    net = build_network(fp, params)
    result = simulate_session({"s1", "s2"}, net, profile)
    t1, t2 = (result.temperatures[net.position[n]] for n in ("s1", "s2"))
    assert t1 == pytest.approx(57.0, abs=1e-9)
    assert t2 == pytest.approx(53.0, abs=1e-9)
    # independent cross-check with a generic solver
    g = np.array([[1.5, -1.0], [-1.0, 1.5]])
    rise = np.linalg.solve(g, [10.0, 0.0])
    assert t1 == pytest.approx(45.0 + rise[0], abs=1e-12)
    assert t2 == pytest.approx(45.0 + rise[1], abs=1e-12)


def test_residual_bound_on_random_networks():
    rng = np.random.default_rng(43)
    for _ in range(30):
        fp = random_floorplan(rng, int(rng.integers(3, 14)))
        profile = random_profile(rng, fp, p_range=(0.0, 5.0))
        net = build_network(fp, ThermalParams())
        session = random_session(rng, fp)
        result = simulate_session(session, net, profile)
        rise = result.temperatures - net.ambient
        injections = injection_vector(net, session, profile)
        residual = np.max(np.abs(net.conductance @ rise - injections))
        assert residual <= RESIDUAL_RTOL * max(1.0, np.max(np.abs(injections)))


def test_superposition():
    rng = np.random.default_rng(47)
    fp = random_floorplan(rng, 9)
    params = ThermalParams()
    net = build_network(fp, params)
    p1 = rng.uniform(0.0, 2.0, size=len(fp))
    p2 = rng.uniform(0.0, 2.0, size=len(fp))
    r1 = solve_steady_state(net, p1)
    r2 = solve_steady_state(net, p2)
    r12 = solve_steady_state(net, p1 + p2)
    lhs = r12.temperatures - params.t_ambient
    rhs = (r1.temperatures - params.t_ambient) + (r2.temperatures - params.t_ambient)
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_monotone_in_injections():
    # raising one core's power never cools any core
    rng = np.random.default_rng(53)
    params = ThermalParams()
    for _ in range(5):
        fp = random_floorplan(rng, 8)
        net = build_network(fp, params)
        profile = random_profile(rng, fp)
        hot = fp.names[int(rng.integers(len(fp)))]
        raised = PowerProfile(
            {
                n: (profile.power(n) + (1.5 if n == hot else 0.0), profile.duration(n))
                for n in fp.names
            },
            fp,
        )
        base = simulate_session(set(fp.names), net, profile)
        more = simulate_session(set(fp.names), net, raised)
        assert (more.temperatures >= base.temperatures - 1e-9).all()


@st.composite
def dies(draw):
    """A random guillotine die with powers and a random non-empty session."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fp = random_floorplan(rng, draw(st.integers(1, 16)))
    return fp, random_profile(rng, fp, p_range=(0.0, 4.0)), random_session(rng, fp)


@settings(max_examples=60, deadline=None)
@given(dies())
def test_factor_once_solve_matches_fresh_dense_solve(die):
    fp, profile, session = die
    net = build_network(fp, ThermalParams())
    injections = injection_vector(net, session, profile)
    expected = np.linalg.solve(net.conductance.toarray(), injections)
    result = simulate_session(session, net, profile)
    for i in range(len(net.nodes)):
        assert result.temperatures[i] - net.ambient == pytest.approx(expected[i], rel=1e-9, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(dies(), st.integers(0, 2**32 - 1))
def test_temperatures_never_fall_when_a_core_joins(die, pick):
    fp, profile, session = die
    outside = [n for n in fp.names if n not in session]
    if not outside:
        return
    net = build_network(fp, ThermalParams())
    before = simulate_session(session, net, profile)
    after = simulate_session(session | {outside[pick % len(outside)]}, net, profile)
    assert (after.temperatures >= before.temperatures - 1e-9).all()  # rounding only


# ── sessions ─────────────────────────────────────────────────────────────


def test_empty_session_rejected():
    fp = strip_floorplan(2)
    with pytest.raises(ValueError, match="empty"):
        simulate_session(set(), build_network(fp, ThermalParams()), uniform_profile(fp))


def test_session_duration_is_longest_member_test():
    # the strip is cool enough at this TL that all three cores share a session
    fp = strip_floorplan(3)
    profile = PowerProfile(
        {"s1": (1.0, 0.5), "s2": (1.0, 2.5), "s3": (1.0, 1.0)}, fp
    )
    schedule = generate_schedule(
        compile_die(fp, profile, ThermalParams()), SchedulerConfig(tl=1000.0, stcl=1e9)
    )
    (session,) = schedule.sessions
    assert session.cores == {"s1", "s2", "s3"}
    assert session.duration == 2.5
    assert schedule.total_length == schedule.simulation_effort == 2.5


def test_far_apart_cores_decouple():
    # two islands separated by a gap: no heat path between them, so a joint
    # session reproduces each island's solo temperatures exactly
    fp = Floorplan(
        [
            Core("w1", 0.001, 0.001, 0.0, 0.0),
            Core("w2", 0.001, 0.001, 0.001, 0.0),
            Core("e1", 0.001, 0.001, 0.005, 0.0),
            Core("e2", 0.001, 0.001, 0.006, 0.0),
        ]
    )
    net = build_network(fp, ThermalParams())
    profile = uniform_profile(fp, power=0.8)
    joint = simulate_session({"w1", "e1"}, net, profile)
    solo_w = simulate_session({"w1"}, net, profile)
    solo_e = simulate_session({"e1"}, net, profile)
    w1, e1 = net.position["w1"], net.position["e1"]
    assert joint.temperatures[w1] == pytest.approx(solo_w.temperatures[w1], rel=1e-9)
    assert joint.temperatures[e1] == pytest.approx(solo_e.temperatures[e1], rel=1e-9)


def test_peak_reported_for_hot_session():
    fp = strip_floorplan(3)
    profile = PowerProfile({"s1": (0.0, 1.0), "s2": (20.0, 1.0), "s3": (0.0, 1.0)}, fp)
    net = build_network(fp, ThermalParams(k_silicon=1.0, die_thickness=1.0))
    result = simulate_session({"s2"}, net, profile)
    assert result.peak[0] == "s2"
    assert result.peak[1] == result.temperatures.max()


def test_guiding_model_vs_full_network():
    params = ThermalParams(k_silicon=1.0, die_thickness=1.0, r_vertical_per_area=2.0)
    # isolated single core: no passive neighbors exist, so the cheap model
    # and the full network agree exactly
    solo = build_network(strip_floorplan(1), params)
    profile1 = uniform_profile(strip_floorplan(1), power=10.0)
    predicted = params.t_ambient + 10.0 * equivalent_resistance("s1", {"s1"}, solo)
    simulated = simulate_session({"s1"}, solo, profile1).temperatures[solo.position["s1"]]
    assert simulated == pytest.approx(predicted, rel=1e-12)
    # with passive neighbors the grounding assumption is optimistic: the
    # two values differ but both stay finite
    fp = strip_floorplan(3)
    net = build_network(fp, params)
    profile3 = uniform_profile(fp, power=10.0)
    predicted = params.t_ambient + 10.0 * equivalent_resistance("s2", {"s2"}, net)
    simulated = simulate_session({"s2"}, net, profile3).temperatures[net.position["s2"]]
    assert np.isfinite(predicted) and np.isfinite(simulated)
    assert simulated != pytest.approx(predicted, rel=1e-6)


# ── batched screening and array-backed results ──────────────────────────


@pytest.mark.parametrize(
    "load",
    [partial(load_inputs, "demo15"), partial(load_inputs, "density_contrast"), load_synth400],
    ids=["load_demo15", "load_density_contrast", "load_synth400"],
)
def test_screened_singletons_equal_per_core_solves(load):
    fp, profile = load()
    die = compile_die(fp, profile, ThermalParams())
    assert list(die.bcmt) == list(fp.names)
    assert set(die._sessions) == {frozenset((i,)) for i in range(len(fp))}
    for i, name in enumerate(fp.names):
        session, indices, temperatures = die._sessions[frozenset((i,))]
        solved = simulate_session({name}, die.net, profile)
        # the node and its temperature as a float, bit for bit
        assert indices == [i]
        assert [type(t) for t in temperatures] == [float]
        assert temperatures[0].hex() == float(solved.temperatures[i]).hex(), name
        # bit for bit: the goldens depend on it
        assert session.result.temperatures.tobytes() == solved.temperatures.tobytes(), name
        assert session.result.peak == solved.peak, name
        assert session.result.nodes == solved.nodes
        assert session.duration == profile.duration(name)
        assert not session.result.temperatures.flags.writeable
        assert die.bcmt[name] == session.result.peak[1]


def test_screening_blocks_match_one_batched_solve():
    # the N=400 die spans four blocks; the rows on each side of every block
    # boundary, and all the others, are those of one batched solve
    fp, profile = load_synth400()
    die = compile_die(fp, profile, ThermalParams())
    block = scheduler._SCREEN_BLOCK
    assert 2 * block < len(fp)
    injections = np.diag([profile.power(name) for name in fp.names])
    batched = thermal_sim.solve_columns(die.net, injections)
    for i, result in enumerate(batched):
        session = die._sessions[frozenset((i,))][0]
        assert session.result.temperatures.tobytes() == result.temperatures.tobytes(), i
        assert session.result.peak == result.peak, i
    edges = {0, len(fp) - 1}
    for start in range(block, len(fp), block):
        edges |= {start - 1, start}
    for i in sorted(edges):
        (one,) = thermal_sim.solve_columns(die.net, injections[:, [i]])
        assert batched[i].temperatures.tobytes() == one.temperatures.tobytes(), i


def test_compile_die_holds_no_transient_square_array():
    # G is factored in its own buffer and screening solves a block of columns
    # at a time, so beyond the factor and the singletons' temperatures that
    # the die keeps, compiling it never holds another N x N array
    fp, profile = load_synth400()
    _, peak = traced_peak(lambda: compile_die(fp, profile, ThermalParams()))
    assert peak <= len(fp) ** 2 * 8, peak


def test_solve_columns_checks_every_column():
    # demo15 has 15 columns; the N=400 die checks columns far past the first
    for (fp, profile), column in [(load_inputs("demo15"), 5), (load_synth400(), 300)]:
        net = build_network(fp, ThermalParams())
        injections = np.diag([profile.power(name) for name in fp.names])
        good = thermal_sim.solve_columns(net, injections)
        assert len(good) == len(fp)
        for k in range(len(fp)):
            (one,) = thermal_sim.solve_columns(net, injections[:, [k]])
            # bit for bit: the goldens depend on it
            assert good[k].temperatures.tobytes() == one.temperatures.tobytes()
            assert good[k].peak == one.peak
        # a column of enormous powers overflows its solve: its residual is NaN,
        # which compares false with any tolerance and must still fail
        forged = injections.copy()
        forged[:, column] = 1e308
        with pytest.raises(NetworkSolveError, match="^solve residual nan is not within") as err:
            thermal_sim.solve_columns(net, forged)
        assert err.value.column == column
        with pytest.raises(NetworkSolveError, match="^solve residual nan is not within") as err:
            thermal_sim.solve_columns(net, forged[:, [column]])
        assert err.value.column == 0
        # screening names the core behind the failing column
        name = fp.names[column]
        huge = PowerProfile(
            {n: (1e308 if n == name else profile.power(n), profile.duration(n))
             for n in fp.names},
            fp,
        )
        with pytest.raises(NetworkSolveError) as err:
            compile_die(fp, huge, ThermalParams())
        assert str(err.value).startswith("solve residual nan is not within ")
        assert str(err.value).endswith(f" (screening core {name!r} alone)")
        assert err.value.column == err.value.__cause__.column == column


def test_validation_solve_failure_names_its_column():
    # a vertical resistance this large all but vanishes from G's diagonal:
    # G still factors, but a session's solve misses its tolerance
    fp, profile = load_inputs("demo15")
    net = build_network(fp, ThermalParams(r_vertical_per_area=1e300))
    with pytest.raises(NetworkSolveError) as err:
        simulate_session({"c01"}, net, profile)
    assert err.value.column == 0
    assert "column" not in str(err.value)
    assert "screening core" not in str(err.value)


def test_steady_state_takes_one_injection_vector():
    fp = strip_floorplan(3)
    net = build_network(fp, ThermalParams())
    for shape in [(3, 2), (2,), (4,)]:
        with pytest.raises(ValueError, match=r"shape \(3,\)"):
            solve_steady_state(net, np.ones(shape))


def test_result_holds_a_read_only_temperature_vector():
    rng = np.random.default_rng(83)
    fp = random_floorplan(rng, 9)
    profile = random_profile(rng, fp)
    net = build_network(fp, ThermalParams())
    result = simulate_session(random_session(rng, fp), net, profile)
    assert result.nodes == net.nodes
    assert not result.temperatures.flags.writeable
    assert result.peak == (net.nodes[int(np.argmax(result.temperatures))],
                           float(result.temperatures.max()))


def test_blas_pin_restores_the_thread_count_and_a_missing_setter_runs_unpinned(monkeypatch):
    fp, profile = load_inputs("demo15")
    pinned = simulate_session(fp.names, build_network(fp, ThermalParams()), profile)
    setter = thermal_sim._blas_thread_setter()
    previous = setter(2)
    try:
        with thermal_sim._one_blas_thread():
            assert setter(1) == 1  # the block ran on one thread
        assert setter(2) == 2  # and the caller's count came back
    finally:
        setter(previous)
    # a BLAS build without the per-thread setter solves with its own count;
    # a 15-core factor is too small to be blocked, so the bytes agree
    monkeypatch.setattr(thermal_sim, "_blas_thread_setter", lambda: None)
    unpinned = simulate_session(fp.names, build_network(fp, ThermalParams()), profile)
    assert unpinned.temperatures.tobytes() == pinned.temperatures.tobytes()


def test_blas_pin_finds_no_setter_beside_a_scipy_without_its_openblas(monkeypatch, tmp_path):
    # as beside scipy 1.10's wheel, whose scipy.libs holds libopenblas*, not
    # libscipy_openblas*; __wrapped__ bypasses the lookup's cache
    package = tmp_path / "scipy"
    package.mkdir()
    monkeypatch.setattr(thermal_sim, "scipy", SimpleNamespace(__file__=str(package / "__init__.py")))
    assert thermal_sim._blas_thread_setter.__wrapped__() is None  # no scipy.libs
    (tmp_path / "scipy.libs").mkdir()
    (tmp_path / "scipy.libs" / "libscipy_openblas-x.so").write_bytes(b"")
    assert thermal_sim._blas_thread_setter.__wrapped__() is None  # CDLL raises OSError
