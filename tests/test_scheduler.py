"""Scheduler tests: screening, session packing, and the feedback loop."""

import json
import math
import re
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermsched import scheduler, thermal_sim
from thermsched.floorplan import CoreGeometry, Floorplan, PowerProfile
from thermsched.scheduler import (
    ATTEMPTS_PER_CORE,
    AttemptBudgetError,
    SchedulerConfig,
    ScreeningError,
    build_session,
    compile_die,
    generate_schedule,
    schedule_to_json,
    screen_cores,
)
from thermsched.thermal_model import ThermalParams, session_stc
from thermsched.thermal_sim import NetworkSolveError, build_network, simulate_session
from util import (
    load_inputs,
    load_synth400,
    random_floorplan,
    random_profile,
    strip_floorplan,
    uniform_profile,
)

STRIP_PARAMS = ThermalParams(k_silicon=1.0, die_thickness=1.0, r_vertical_per_area=2.0)
# the golden N=400 case's limits: ~200 sessions of about one core each, and
# large sessions with many discards
SYNTH400_TIGHT = SchedulerConfig(tl=120.218, stcl=13.2657)
SYNTH400_LOOSE = SchedulerConfig(tl=185.218, stcl=212.251)


def golden_synth400_die():
    return compile_die(*load_synth400(), ThermalParams())


def isolated_pair_floorplan() -> Floorplan:
    """Two cores with a gap between them: no lateral paths at all."""
    return Floorplan(
        [
            CoreGeometry("cool", 1.0, 1.0, 0.0, 0.0),
            CoreGeometry("hot", 1.0, 1.0, 5.0, 0.0),
        ]
    )


# ── stage 1 screening ────────────────────────────────────────────────────


def test_screen_all_cores_pass():
    fp = strip_floorplan(3)
    net = build_network(fp, STRIP_PARAMS)
    report = screen_cores(net, uniform_profile(fp, power=1.0))
    assert set(report) == {"s1", "s2", "s3"}
    assert all(temp < 100.0 for temp in report.values())


def test_screen_zero_power_cores_sit_at_ambient():
    fp = strip_floorplan(3)
    net = build_network(fp, STRIP_PARAMS)
    report = screen_cores(net, uniform_profile(fp, power=0.0))
    assert all(temp == STRIP_PARAMS.t_ambient for temp in report.values())


def test_screen_names_exactly_the_offender():
    # the isolated hot core has no neighbors, so alone it settles at exactly
    # ambient + P * R_v = 45 + 30 * 2 = 105 C
    fp = isolated_pair_floorplan()
    profile = PowerProfile({"cool": (1.0, 1.0), "hot": (30.0, 1.0)}, fp)
    die = compile_die(fp, profile, STRIP_PARAMS)
    with pytest.raises(ScreeningError) as err:
        generate_schedule(die, SchedulerConfig(tl=100.0, stcl=10.0))
    assert [name for name, _ in err.value.violations] == ["hot"]
    bcmt = dict(err.value.violations)["hot"]
    assert bcmt == pytest.approx(105.0, abs=1e-9)
    # the suggested limit is just above the worst BCMT and actually passes
    assert err.value.suggested_tl > bcmt
    generate_schedule(die, SchedulerConfig(tl=err.value.suggested_tl, stcl=10.0))


def test_screening_message_suggests_a_limit_that_passes():
    # the hottest BCMT here is 299.90196078431325 C, which printed to the
    # nearest hundredth, 299.90, still fails
    fp = Floorplan(
        [CoreGeometry("a", 1e-3, 1e-3, 0.0, 0.0), CoreGeometry("b", 1e-3, 1e-3, 1e-3, 0.0)]
    )
    dies = [compile_die(fp, PowerProfile({"a": (1.0, 1.0), "b": (0.5, 1.0)}, fp), ThermalParams())]
    rng = np.random.default_rng(18)
    for _ in range(40):
        random_fp = random_floorplan(rng, int(rng.integers(1, 9)))
        dies.append(compile_die(random_fp, random_profile(rng, random_fp), ThermalParams()))
    for die in dies:
        with pytest.raises(ScreeningError) as err:
            generate_schedule(die, SchedulerConfig(tl=max(die.bcmt.values()), stcl=10.0))
        shown = float(re.search(r"at least (\S+) C", str(err.value)).group(1))
        assert shown >= err.value.suggested_tl
        # a tiny STCL makes every session one core, which its screening passed
        schedule = generate_schedule(die, SchedulerConfig(tl=shown, stcl=1e-300))
        assert len(schedule.sessions) == len(die.net.nodes)


def test_generate_schedule_propagates_screening_failure():
    fp = isolated_pair_floorplan()
    profile = PowerProfile({"cool": (1.0, 1.0), "hot": (30.0, 1.0)}, fp)
    with pytest.raises(ScreeningError):
        generate_schedule(
            compile_die(fp, profile, STRIP_PARAMS), SchedulerConfig(tl=100.0, stcl=10.0)
        )


@pytest.mark.parametrize("case", ["demo15", "density_contrast", "synth400"])
def test_screening_column_peaks_at_its_own_core(case):
    # the discrete maximum principle: G is an M-matrix and every core has a
    # path to ambient, so a core heated alone is the hottest core, and its
    # BCMT is ambient plus the diagonal of the batched screening solve
    fp, profile = load_synth400() if case == "synth400" else load_inputs(case)
    die = compile_die(fp, profile, ThermalParams())
    net = die.net
    powers = [profile.power(name) for name in net.nodes]
    rise = thermal_sim.solve_rise(net, np.diag(powers))
    for c, name in enumerate(net.nodes):
        if powers[c] == 0.0:  # an all-zero column has no peak of its own
            continue
        column = rise[:, c]
        assert column.argmax() == c
        assert (np.delete(column, c) < column[c]).all()
        assert die.bcmt[name] == net.ambient + column[c]


def test_compiled_objects_compare_by_identity_and_hash():
    fp, profile = load_inputs("demo15")
    params = ThermalParams()
    net, die = build_network(fp, params), compile_die(fp, profile, params)
    # compiles of the same inputs are distinct objects, compared without
    # touching their arrays
    assert net != build_network(fp, params)
    assert die != compile_die(fp, profile, params)
    assert net == net and die == die
    keys = {fp: 0, profile: 1, net: 2, die: 3}
    assert [keys[k] for k in (fp, profile, net, die)] == [0, 1, 2, 3]


# ── session packing ──────────────────────────────────────────────────────


def test_build_session_singleton_exemption():
    fp = strip_floorplan(1)
    profile = uniform_profile(fp, power=10.0)
    net = build_network(fp, STRIP_PARAMS)
    session = build_session(["s1"], {}, 1e-6, net, profile)
    assert session == {"s1"}


def test_build_session_unbounded_limit_packs_everything():
    fp = strip_floorplan(5)
    profile = uniform_profile(fp, power=10.0)
    net = build_network(fp, STRIP_PARAMS)
    session = build_session(fp.names, {}, math.inf, net, profile)
    assert session == set(fp.names)


def test_build_session_limit_between_singleton_and_pair():
    # on a 2-core strip, a limit between the singleton STC and the pair STC
    # admits exactly one core per session
    fp = strip_floorplan(2)
    profile = uniform_profile(fp, power=10.0)
    net = build_network(fp, STRIP_PARAMS)
    single = session_stc({"s1"}, profile, None, net)
    pair = session_stc({"s1", "s2"}, profile, None, net)
    assert single < pair
    stcl = (single + pair) / 2.0
    session = build_session(["s1", "s2"], {}, stcl, net, profile)
    assert len(session) == 1


def test_build_session_tries_candidates_in_the_order_given():
    fp = strip_floorplan(3)
    profile = PowerProfile({"s1": (1.0, 1.0), "s2": (5.0, 1.0), "s3": (1.0, 1.0)}, fp)
    net = build_network(fp, STRIP_PARAMS)
    tiny = 1e-9
    by_power = scheduler._ordered(fp.names, profile, {})
    assert by_power == ["s2", "s1", "s3"]  # highest power first, ties by name
    # a weight scales its core's power in the order; an absent core weighs 1
    assert scheduler._ordered(fp.names, profile, {"s3": 6.0}) == ["s3", "s2", "s1"]
    # candidates are tried in the order given, file order included
    assert build_session(by_power, {}, tiny, net, profile) == {"s2"}
    assert build_session(list(fp.names), {}, tiny, net, profile) == {"s1"}


def test_build_session_requires_available_cores():
    fp = strip_floorplan(2)
    net = build_network(fp, STRIP_PARAMS)
    with pytest.raises(ValueError, match="available"):
        build_session([], {}, 10.0, net, uniform_profile(fp))


def test_build_session_rejects_unordered_candidates():
    fp = strip_floorplan(2)
    net = build_network(fp, STRIP_PARAMS)
    for candidates in (set(fp.names), frozenset(fp.names)):
        with pytest.raises(TypeError, match="order"):
            build_session(candidates, {}, 10.0, net, uniform_profile(fp))


def full_recompute_session(available, weights, stcl, net, power):
    """Reference packing loop: every candidate's STC is recomputed over the
    whole enlarged session.  Returns the session and every STC it compared
    with ``stcl``."""
    ordered = sorted(available, key=lambda n: (-power.power(n) * weights.get(n, 1.0), n))
    session, compared = set(), []
    for name in ordered:
        if not session:
            session.add(name)
            continue
        candidate = session | {name}
        compared.append(session_stc(candidate, power, weights, net))
        if compared[-1] <= stcl:
            session = candidate
    return session, compared


@st.composite
def packing_cases(draw):
    """A random guillotine die, pool, weights and STCL."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fp = random_floorplan(rng, draw(st.integers(1, 24)))
    profile = random_profile(rng, fp, p_range=(0.0, 4.0))
    net = build_network(fp, ThermalParams())
    available = {n for n in fp.names if rng.random() < 0.8} or {fp.names[0]}
    weights = {n: 1.1 ** int(rng.integers(0, 6)) for n in fp.names if rng.random() < 0.5}
    singles = [session_stc({n}, profile, weights, net) for n in fp.names]
    stcl = max(float(np.median(singles)), 1e-12) * draw(st.floats(0.3, 30.0))
    return net, profile, available, weights, stcl


@settings(max_examples=80, deadline=None)
@given(packing_cases(), st.integers(0, 2**32 - 1))
def test_incremental_stc_packs_like_full_recompute(case, pick):
    net, profile, available, weights, stcl = case
    # as generate_schedule does: the whole die sorted once, scheduled cores dropped
    candidates = [
        n for n in scheduler._ordered(net.nodes, profile, weights) if n in available
    ]
    first = session_stc(candidates[:1], profile, weights, net)
    expected, compared = full_recompute_session(available, weights, stcl, net, profile)
    assert build_session(candidates, weights, stcl, net, profile) == expected
    # a limit equal to the first core's singleton STC, or to one of the compared
    # STCs, puts a decision on the boundary
    boundaries = [first]
    if compared:
        boundaries.append(compared[pick % len(compared)])
    for limit in [stcl] + boundaries:
        expected, compared = full_recompute_session(available, weights, limit, net, profile)
        margins = [-math.inf, math.inf]
        assert build_session(candidates, weights, limit, net, profile, margins) == expected
        # the margins are the compared STCs closest to the limit on each side;
        # over the limit, the first core's STC ends the attempt at once
        if first > limit:
            assert margins == [-math.inf, first]
        else:
            assert margins == [
                max([first] + [c for c in compared if c <= limit]),
                min([c for c in compared if c > limit], default=math.inf),
            ]


def record_packing(monkeypatch):
    """Wrap the packing names generate_schedule looks up; returns the list
    that collects each attempt's (candidates, weights, stcl, session, the
    session_stc member lists it evaluated) and the list of packing-order
    sorts."""
    attempts, calls, sorts = [], [], []
    real_build, real_stc, real_ordered = (
        scheduler.build_session, scheduler.session_stc, scheduler._ordered
    )

    def build(candidates, weights, stcl, *args):
        start = len(calls)
        session = real_build(candidates, weights, stcl, *args)
        attempts.append((list(candidates), weights, stcl, session, calls[start:]))
        return session

    def stc(members, *args):
        calls.append(list(members))
        return real_stc(members, *args)

    def ordered(cores, *args):
        sorts.append(len(cores))
        return real_ordered(cores, *args)

    monkeypatch.setattr(scheduler, "build_session", build)
    monkeypatch.setattr(scheduler, "session_stc", stc)
    monkeypatch.setattr(scheduler, "_ordered", ordered)
    return attempts, sorts


def test_packing_evaluates_each_candidate_and_its_session_neighbours_only(monkeypatch):
    die = golden_synth400_die()
    net = die.net
    attempts, _ = record_packing(monkeypatch)
    generate_schedule(die, SYNTH400_LOOSE)
    assert len(attempts) > 1
    calls = terms = 0
    for candidates, weights, stcl, session, made in attempts:
        # exactly one call per candidate that touches the cores admitted before
        # it, naming those neighbours in floorplan order and never the
        # candidate, whose own term comes from its escape-path scan; an
        # attempt whose first core is over the limit stops at once
        expected, admitted = [], {candidates[0]}
        if session_stc(candidates[:1], die.power, weights, net) <= stcl:
            for name in candidates[1:]:
                touched = [
                    net.nodes[j] for j, _ in net.lateral[net.position[name]]
                    if net.nodes[j] in admitted
                ]
                if touched:
                    expected.append(touched)
                if name in session:
                    admitted.add(name)
        assert admitted == session
        assert made == expected
        calls += len(made)
        terms += sum(map(len, made))
    assert (len(attempts), calls, terms) == (19, 5420, 15731)


def test_packing_sorts_once_per_weight_set_and_early_exits_make_no_stc_call(monkeypatch):
    die = golden_synth400_die()
    attempts, sorts = record_packing(monkeypatch)
    schedule = generate_schedule(die, SYNTH400_LOOSE)
    discards = len(attempts) - len(schedule.sessions)
    assert discards == 15
    assert len(sorts) == 1 + discards
    assert sorts[0] == len(die.net.nodes)

    # a die of its own, so that no attempt comes from the loose run's memo
    die = golden_synth400_die()
    attempts.clear()
    sorts.clear()
    schedule = generate_schedule(die, SYNTH400_TIGHT)
    assert len(sorts) == 1 + len(attempts) - len(schedule.sessions)
    early_exits = 0
    for candidates, weights, stcl, session, made in attempts:
        if session_stc(candidates[:1], die.power, weights, die.net) > stcl:
            early_exits += 1
            assert session == {candidates[0]}
            assert made == []
    assert (len(attempts), early_exits) == (203, 200)


def test_discard_bumps_its_violators_in_a_new_weight_set(monkeypatch):
    die = golden_synth400_die()
    attempts, _ = record_packing(monkeypatch)
    # each weight set's values as build_session received it
    snapshots, recorded_build = [], scheduler.build_session

    def build(candidates, weights, *args):
        snapshots.append(dict(weights))
        return recorded_build(candidates, weights, *args)

    monkeypatch.setattr(scheduler, "build_session", build)
    schedule = generate_schedule(die, SYNTH400_LOOSE)
    assert SYNTH400_LOOSE.weight_factor == 1.1
    discards = 0
    for (_, before, _, session, _), (_, after, *_) in zip(attempts, attempts[1:]):
        temps = simulate_session(session, die.net, die.power).temperatures
        violators = [n for n in session if temps[die.net.position[n]] >= SYNTH400_LOOSE.tl]
        expected = dict(before)
        for name in violators:
            expected[name] = before.get(name, 1.0) * 1.1
        # bit for bit: exactly the violators move, each by one factor
        assert after == expected
        if violators:
            discards += 1
            assert after is not before
    assert discards == len(attempts) - len(schedule.sessions) == 15
    # a weight set handed to packing is never changed afterwards
    assert [weights for _, weights, *_ in attempts] == snapshots


# ── schedule generation ──────────────────────────────────────────────────


def test_single_core_schedule():
    fp = strip_floorplan(1)
    profile = uniform_profile(fp, power=1.0, duration=2.5)
    config = SchedulerConfig(tl=60.0, stcl=50.0)
    schedule = generate_schedule(compile_die(fp, profile, STRIP_PARAMS), config)
    assert len(schedule.sessions) == 1
    assert schedule.sessions[0].cores == frozenset({"s1"})
    assert schedule.total_length == 2.5
    assert schedule.simulation_effort == 2.5


def test_no_violations_means_effort_equals_length():
    fp = strip_floorplan(4)
    profile = uniform_profile(fp, power=1.0)
    # generous TL, tight STCL: first-attempt success for every session
    single = session_stc({"s1"}, profile, None, build_network(fp, STRIP_PARAMS))
    config = SchedulerConfig(tl=200.0, stcl=single * 0.9)
    schedule = generate_schedule(compile_die(fp, profile, STRIP_PARAMS), config)
    assert schedule.simulation_effort == schedule.total_length
    assert len(schedule.sessions) == 4  # singletons


def test_engineered_violation_grows_effort():
    # middle strip core is hot: every singleton passes, but the all-in
    # session exceeds the limit, forcing discards before a safe schedule
    fp = strip_floorplan(3)
    profile = PowerProfile({"s1": (1.0, 1.0), "s2": (8.0, 1.0), "s3": (1.0, 1.0)}, fp)
    die = compile_die(fp, profile, STRIP_PARAMS)
    full_peak = simulate_session(set(fp.names), die.net, profile).peak[1]
    pair_peaks = [
        simulate_session({"s2", other}, die.net, profile).peak[1] for other in ("s1", "s3")
    ]
    assert max(die.bcmt.values()) < max(pair_peaks) < full_peak
    tl = (max(pair_peaks) + full_peak) / 2.0
    config = SchedulerConfig(tl=tl, stcl=200.0)
    schedule = generate_schedule(die, config)
    assert schedule.simulation_effort > schedule.total_length
    assert schedule.max_temperature < tl
    covered = sorted(name for s in schedule.sessions for name in s.cores)
    assert covered == ["s1", "s2", "s3"]


def test_schedule_is_deterministic():
    rng = np.random.default_rng(61)
    fp = random_floorplan(rng, 10)
    profile = random_profile(rng, fp)
    bcmts = screen_cores(build_network(fp, ThermalParams()), profile)
    config = SchedulerConfig(tl=max(bcmts.values()) + 10.0, stcl=30.0)
    a = generate_schedule(compile_die(fp, profile, ThermalParams()), config)
    b = generate_schedule(compile_die(fp, profile, ThermalParams()), config)
    assert [s.cores for s in a.sessions] == [s.cores for s in b.sessions]
    assert a.total_length == b.total_length
    assert a.simulation_effort == b.simulation_effort
    assert a.stage1_report == b.stage1_report


def test_runs_on_one_die_share_each_validated_session(monkeypatch):
    # the die's memo owns each member set's TestSession: a later run gets
    # the same object, duration included, without solving it again
    fp = strip_floorplan(4)
    profile = PowerProfile({f"s{i}": (1.0, 0.5 * i) for i in range(1, 5)}, fp)
    die = compile_die(fp, profile, STRIP_PARAMS)
    solved = []
    original = scheduler.simulate_session
    monkeypatch.setattr(
        scheduler, "simulate_session",
        lambda members, *args: solved.append(members) or original(members, *args),
    )
    stcl = 0.9 * session_stc({"s1"}, profile, None, die.net)
    a = generate_schedule(die, SchedulerConfig(tl=200.0, stcl=stcl))
    b = generate_schedule(die, SchedulerConfig(tl=150.0, stcl=stcl))
    assert len(a.sessions) == len(b.sessions) == len(solved) == 4  # singletons
    by_cores = {s.cores: s for s in a.sessions}
    for session in b.sessions:
        assert session is by_cores[session.cores]
        assert session.duration == max(profile.duration(n) for n in session.cores)


def test_uniform_durations_make_length_count_sessions():
    fp = strip_floorplan(4)
    profile = uniform_profile(fp, power=1.0, duration=1.0)
    config = SchedulerConfig(tl=200.0, stcl=5.0)
    schedule = generate_schedule(compile_die(fp, profile, STRIP_PARAMS), config)
    assert schedule.total_length == len(schedule.sessions)


def test_random_schedules_partition_and_stay_safe():
    rng = np.random.default_rng(67)
    for _ in range(15):
        fp = random_floorplan(rng, int(rng.integers(4, 10)))
        profile = random_profile(rng, fp)
        die = compile_die(fp, profile, ThermalParams())
        singles = [session_stc({n}, profile, None, die.net) for n in fp.names]
        config = SchedulerConfig(
            tl=max(die.bcmt.values()) + float(rng.uniform(3.0, 40.0)),
            stcl=float(np.median(singles)) * float(rng.uniform(0.5, 4.0)),
        )
        schedule = generate_schedule(die, config)
        covered = sorted(name for s in schedule.sessions for name in s.cores)
        assert covered == sorted(fp.names)
        for s in schedule.sessions:
            assert s.result.peak[1] < config.tl
        assert schedule.simulation_effort >= schedule.total_length


# ── decision boxes ───────────────────────────────────────────────────────


def _decisions(schedule):
    return (
        [s.cores for s in schedule.sessions],
        schedule.total_length,
        schedule.simulation_effort,
        schedule.tl_range,
        schedule.stcl_range,
    )


def _fresh_run(fp, profile, config):
    """The run at ``config`` on a freshly compiled die, or None where it
    fails screening."""
    try:
        return generate_schedule(compile_die(fp, profile, ThermalParams()), config)
    except ScreeningError:
        return None


@st.composite
def box_cases(draw):
    """A small random die and limits near its hottest BCMT and median
    singleton STC, with a weight factor."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fp = random_floorplan(rng, draw(st.integers(1, 8)))
    profile = random_profile(rng, fp)
    die = compile_die(fp, profile, ThermalParams())
    median = float(np.median([session_stc({n}, profile, None, die.net) for n in fp.names]))
    config = SchedulerConfig(
        tl=max(die.bcmt.values()) + draw(st.floats(0.1, 30.0)),
        stcl=median * draw(st.floats(0.2, 6.0)),
        weight_factor=draw(st.sampled_from([1.05, 1.1, 1.5])),
    )
    return fp, profile, config


@settings(max_examples=40, deadline=None)
@given(box_cases())
def test_decision_box_edges_give_the_same_run_and_are_tight(case):
    fp, profile, config = case
    schedule = _fresh_run(fp, profile, config)
    (lo_tl, hi_tl), (lo_stcl, hi_stcl) = schedule.tl_range, schedule.stcl_range
    assert schedule.covers(config.tl, config.stcl)
    # the ends inside the box: TL's lower end is open, its upper end closed;
    # STCL's lower end is closed, its upper end open.  An infinite end has no
    # edge to test, and a lower STCL end of -inf leaves the run's own STCL
    tls = [math.nextafter(lo_tl, math.inf)] + [hi_tl] * math.isfinite(hi_tl)
    stcls = [lo_stcl if lo_stcl > 0 else config.stcl]
    stcls += [math.nextafter(hi_stcl, -math.inf)] * math.isfinite(hi_stcl)
    for tl in tls:
        for stcl in stcls:
            assert schedule.covers(tl, stcl)
            inside = _fresh_run(fp, profile, replace(config, tl=tl, stcl=stcl))
            assert _decisions(inside) == _decisions(schedule), (tl, stcl)
    # one step past any finite end, some comparison flips: that run fails
    # screening, or its own box leaves out the original limits
    outside = [replace(config, tl=lo_tl)]
    if math.isfinite(hi_tl):
        outside.append(replace(config, tl=math.nextafter(hi_tl, math.inf)))
    if math.isfinite(hi_stcl):
        outside.append(replace(config, stcl=hi_stcl))
    if math.nextafter(lo_stcl, -math.inf) > 0:
        outside.append(replace(config, stcl=math.nextafter(lo_stcl, -math.inf)))
    for other in outside:
        assert not schedule.covers(other.tl, other.stcl)
        run = _fresh_run(fp, profile, other)
        assert run is None or not run.covers(config.tl, config.stcl), other


def _counting_attempts(mp):
    attempts = []
    real_build = scheduler.build_session
    mp.setattr(scheduler, "build_session", lambda *a: attempts.append(1) or real_build(*a))
    return attempts


def _memo_entries(die):
    """The number of entries in the die's attempt memo, over every tree."""
    stack, count = list(die._attempts.values()), 0
    while stack:
        node = stack.pop()
        count += len(node)
        for *_, children in node:
            stack.extend(children.values())
    return count


def test_attempt_budget_stops_a_weight_factor_near_one():
    # the all-in session runs too hot, and weights rising by a millionth per
    # discard would take millions of attempts to split it.  The real budget
    # takes 120,000 attempts here; a smaller one tests the same loop
    fp = strip_floorplan(3)
    profile = PowerProfile({"s1": (1.0, 1.0), "s2": (8.0, 1.0), "s3": (1.0, 1.0)}, fp)
    die = compile_die(fp, profile, STRIP_PARAMS)
    full_peak = simulate_session(set(fp.names), die.net, profile).peak[1]
    stcl = session_stc(fp.names, profile, None, die.net)
    config = SchedulerConfig(tl=full_peak - 1.0, stcl=stcl, weight_factor=1.000001)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scheduler, "ATTEMPTS_PER_CORE", 1000)
        attempts = _counting_attempts(mp)
        with pytest.raises(AttemptBudgetError) as err:
            generate_schedule(die, config)
    assert len(attempts) == err.value.budget == 3000
    assert err.value.config == config
    # the crawl records only its first attempts in the die's memo, one per core
    assert _memo_entries(die) == len(die.net.nodes) == 3
    # a factor of 1.1 splits the same session within a few attempts
    generate_schedule(die, replace(config, weight_factor=1.1))


def test_a_huge_stcl_with_discards_stays_ten_times_below_the_budget():
    # STCL 1e300 stands in for no limit: a violator's weight must climb from
    # its STC term to 1e300 by the weight factor 1.1 before packing splits
    # the first session, about 7,200 attempts on any die (7,195 to 7,238
    # over 200 random two-core dies), the most per core that any case of
    # this suite needs
    rng = np.random.default_rng(79)
    fp = random_floorplan(rng, 2)
    profile = random_profile(rng, fp)
    die = compile_die(fp, profile, ThermalParams())
    everything = simulate_session(fp.names, die.net, profile).peak[1]
    config = SchedulerConfig(tl=(max(die.bcmt.values()) + everything) / 2, stcl=1e300)
    with pytest.MonkeyPatch.context() as mp:
        attempts = _counting_attempts(mp)
        schedule = generate_schedule(die, config)
    assert len(schedule.sessions) == 2
    assert 7000 < len(attempts) <= 2 * ATTEMPTS_PER_CORE // 10


# ── attempt memo ─────────────────────────────────────────────────────────


def _outcome(die, config):
    """A run's whole result, every float by its bits, or the type and text
    of the exception it raised."""
    try:
        schedule = generate_schedule(die, config)
    except (ScreeningError, AttemptBudgetError, ValueError) as exc:
        return type(exc), str(exc)
    return (
        [(s.cores, s.duration.hex(), s.result.temperatures.tobytes())
         for s in schedule.sessions],
        schedule.total_length.hex(),
        schedule.simulation_effort.hex(),
        tuple(map(float.hex, schedule.tl_range + schedule.stcl_range)),
    )


@st.composite
def memo_cases(draw):
    """A random die and a list of runs on it.  Runs draw from a few TLs near
    the hottest BCMT, some failing screening, one or two STCLs around the
    median singleton STC and one or two weight factors, so that many share
    the start of their attempt paths and then part where a TL makes
    different violators."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fp = random_floorplan(rng, draw(st.integers(2, 14)))
    profile = random_profile(rng, fp)
    die = compile_die(fp, profile, ThermalParams())
    hottest = max(die.bcmt.values())
    median = float(np.median([session_stc({n}, profile, None, die.net) for n in fp.names]))
    tls = draw(st.lists(st.floats(-1.0, 10.0), min_size=1, max_size=3))
    stcls = draw(st.lists(st.floats(0.2, 6.0), min_size=1, max_size=2))
    factors = draw(st.lists(
        st.sampled_from([1.01, 1.1, 1.5, 1.000001]), min_size=1, max_size=2
    ))
    runs = draw(st.lists(
        st.tuples(st.sampled_from(tls), st.sampled_from(stcls), st.sampled_from(factors)),
        min_size=1, max_size=8,
    ))
    configs = [
        SchedulerConfig(tl=hottest + tl, stcl=median * stcl, weight_factor=factor)
        for tl, stcl, factor in runs
    ]
    return fp, profile, configs


@settings(max_examples=200, deadline=None)
@given(memo_cases())
def test_runs_on_a_shared_die_match_runs_on_fresh_dies(case):
    fp, profile, configs = case
    with pytest.MonkeyPatch.context() as mp:
        # a small budget, so that some runs stop at it, memo hits or not
        mp.setattr(scheduler, "ATTEMPTS_PER_CORE", 3)
        shared = compile_die(fp, profile, ThermalParams())
        for config in configs:
            fresh = compile_die(fp, profile, ThermalParams())
            assert _outcome(shared, config) == _outcome(fresh, config), config


def test_threads_sharing_a_die_get_the_runs_of_fresh_dies():
    fp, profile = load_inputs("demo15")
    configs = [
        SchedulerConfig(tl=tl, stcl=stcl)
        for tl in (146.0, 150.0, 160.0) for stcl in (30.0, 50.0, 80.0, 100.0)
    ]
    expected = [_outcome(compile_die(fp, profile, ThermalParams()), c) for c in configs]
    die = compile_die(fp, profile, ThermalParams())
    results = [[None] * len(configs) for _ in range(4)]

    def work(k):
        # each thread runs the configs from its own starting point
        for i in [*range(k, len(configs)), *range(k)]:
            results[k][i] = _outcome(die, configs[i])

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * 4


def test_screening_solve_failure_names_the_core():
    fp, profile = load_inputs("demo15")
    name = fp.names[5]
    huge = PowerProfile(
        {n: (1e308 if n == name else profile.power(n), profile.duration(n)) for n in fp.names},
        fp,
    )
    with pytest.raises(NetworkSolveError) as err:
        compile_die(fp, huge, ThermalParams())
    assert str(err.value).startswith("solve residual nan in column 5 ")
    assert str(err.value).endswith(f" (screening core {name!r} alone)")


# ── config validation ────────────────────────────────────────────────────


def test_config_rejects_bad_values():
    with pytest.raises(ValueError, match="stcl"):
        SchedulerConfig(tl=100.0, stcl=0.0)
    with pytest.raises(ValueError, match="stcl"):
        SchedulerConfig(tl=100.0, stcl=math.inf)
    with pytest.raises(ValueError, match="tl"):
        SchedulerConfig(tl=math.nan, stcl=10.0)
    with pytest.raises(ValueError, match="weight_factor"):
        SchedulerConfig(tl=100.0, stcl=10.0, weight_factor=1.0)
    with pytest.raises(ValueError, match="weight_factor"):
        SchedulerConfig(tl=100.0, stcl=10.0, weight_factor=math.inf)


def test_generate_rejects_tl_below_ambient():
    fp = strip_floorplan(2)
    with pytest.raises(ValueError, match="ambient"):
        generate_schedule(
            compile_die(fp, uniform_profile(fp), STRIP_PARAMS), SchedulerConfig(tl=40.0, stcl=10.0)
        )


# ── serialization ────────────────────────────────────────────────────────


def test_schedule_document_is_json_ready():
    fp = strip_floorplan(3)
    profile = uniform_profile(fp, power=1.0)
    config = SchedulerConfig(tl=150.0, stcl=10.0)
    schedule = generate_schedule(compile_die(fp, profile, STRIP_PARAMS), config)
    parsed = json.loads(schedule_to_json(schedule, config, STRIP_PARAMS))
    assert parsed["config"]["tl_c"] == 150.0
    assert parsed["config"]["stcl"] == 10.0
    assert parsed["thermal_params"]["t_ambient"] == STRIP_PARAMS.t_ambient
    assert set(parsed["stage1_bcmt_c"]) == {"s1", "s2", "s3"}
    assert parsed["total_length_s"] == schedule.total_length
    assert parsed["simulation_effort_s"] == schedule.simulation_effort
    all_cores = [name for s in parsed["sessions"] for name in s["cores"]]
    assert sorted(all_cores) == ["s1", "s2", "s3"]
    for s in parsed["sessions"]:
        assert s["cores"] == sorted(s["cores"])
        assert s["peak"]["temperature_c"] < 150.0


# names that json must escape: quotes, backslashes, control characters,
# and characters outside ASCII, including one beyond the BMP
NAME_CHARS = st.sampled_from(['"', "\\", "\n", "\t", "\x1f", "/", "a", " ", "é", "Ω", "€", "\U0001d11e"])


@st.composite
def written_schedules(draw):
    """A small random die with awkward core names, scheduled in one of three
    regimes: everything in one session, a discarded first attempt, or
    limits drawn near the hottest BCMT and the median singleton STC."""
    regime = draw(st.sampled_from(["one-session", "discarding", "drawn"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = random_floorplan(rng, draw(st.integers(2 if regime == "discarding" else 1, 7)))
    # every name holds a quote, a backslash and a non-ASCII character
    names = [draw(st.text(NAME_CHARS, max_size=4)) + f'"\\é{i}' for i in range(len(base))]
    fp = Floorplan([
        CoreGeometry(name, c.width, c.height, c.left_x, c.bottom_y)
        for name, c in zip(names, base)
    ])
    profile = random_profile(rng, fp)
    params = ThermalParams()
    die = compile_die(fp, profile, params)
    hottest = max(die.bcmt.values())
    everything = simulate_session(fp.names, die.net, profile).peak[1]
    if regime == "one-session":
        config = SchedulerConfig(tl=everything + 1.0, stcl=1e300)
    elif regime == "discarding":
        config = SchedulerConfig(tl=(hottest + everything) / 2, stcl=1e300)
    else:
        median = float(np.median([session_stc({n}, profile, None, die.net) for n in fp.names]))
        config = SchedulerConfig(
            tl=hottest + draw(st.floats(0.5, 20.0)),
            stcl=median * draw(st.floats(0.3, 5.0)),
            weight_factor=draw(st.floats(1.01, 2.0)),
        )
    schedule = generate_schedule(die, config)
    if regime == "one-session":
        assert len(schedule.sessions) == 1
    if regime == "discarding":
        assert schedule.simulation_effort > schedule.total_length
    return schedule, config, params


@settings(max_examples=60, deadline=None)
@given(written_schedules())
def test_json_writer_matches_the_json_module(case):
    schedule, config, params = case
    text = schedule_to_json(schedule, config, params)
    # the writer's bytes are exactly json's own indented rendering
    assert json.dumps(json.loads(text), indent=2) + "\n" == text
    doc = json.loads(text)
    assert list(doc["stage1_bcmt_c"].items()) == list(schedule.stage1_report.items())
    assert len(doc["sessions"]) == len(schedule.sessions)
    for written, session in zip(doc["sessions"], schedule.sessions):
        assert written["cores"] == sorted(session.cores)
        assert written["duration_s"] == session.duration
        assert list(written["temps_c"]) == list(session.result.nodes)
        assert list(written["temps_c"].values()) == session.result.temperatures.tolist()
        assert written["peak"] == {
            "core": session.result.peak[0], "temperature_c": session.result.peak[1]
        }
    assert doc["max_temperature_c"] == schedule.max_temperature
