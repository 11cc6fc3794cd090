"""Scheduler tests: screening, session packing, and the feedback loop."""

import itertools
import json
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermsched import scheduler, thermal_sim
from thermsched.floorplan import (
    Floorplan,
    FloorplanError,
    PowerProfile,
    PowerProfileError,
    parse_floorplan,
    parse_power_profile,
)
from thermsched.scheduler import (
    SchedulerConfig,
    ScreeningError,
    build_session,
    compile_die,
    generate_schedule,
    schedule_to_json,
    screen_cores,
)
from thermsched.thermal_model import ThermalParams
from thermsched.thermal_sim import (
    NetworkSolveError,
    SimulationResult,
    build_network,
    simulate_session,
)
from util import (
    Core,
    core_records,
    load_inputs,
    load_synth400,
    memo_entries,
    packing_inputs,
    packing_order,
    random_floorplan,
    random_profile,
    reference_document,
    reference_json,
    reference_schedule,
    reference_stc,
    strip_floorplan,
    traced_peak,
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
            Core("cool", 1.0, 1.0, 0.0, 0.0),
            Core("hot", 1.0, 1.0, 5.0, 0.0),
        ]
    )


# ── stage 1 screening ────────────────────────────────────────────────────


def test_screen_all_cores_pass():
    fp = strip_floorplan(3)
    net = build_network(fp, STRIP_PARAMS)
    report = screen_cores(net, uniform_profile(fp, power=1.0, duration=2.0))
    for name, session in zip(["s1", "s2", "s3"], report, strict=True):
        assert session.cores == {name}
        assert session.duration == 2.0
        assert session.result.peak[1] < 100.0


def test_screen_zero_power_cores_sit_at_ambient():
    fp = strip_floorplan(3)
    net = build_network(fp, STRIP_PARAMS)
    report = screen_cores(net, uniform_profile(fp, power=0.0))
    for name, session in zip(fp.names, report, strict=True):
        assert session.cores == {name}
        assert session.result.peak == ("s1", STRIP_PARAMS.t_ambient)  # ties go first
        assert (session.result.temperatures == STRIP_PARAMS.t_ambient).all()


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
        [Core("a", 1e-3, 1e-3, 0.0, 0.0), Core("b", 1e-3, 1e-3, 1e-3, 0.0)]
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
    # BCMT is its own temperature in the batched screening solve
    fp, profile = load_synth400() if case == "synth400" else load_inputs(case)
    die = compile_die(fp, profile, ThermalParams())
    net = die.net
    powers = [profile.power(name) for name in net.nodes]
    results = thermal_sim.solve_columns(net, np.diag(powers))
    for c, name in enumerate(net.nodes):
        if powers[c] == 0.0:  # an all-zero column has no peak of its own
            continue
        # checked on temperatures, not rises: ambient + dT rounds monotonically,
        # so it may tie two rises but never reorder them
        temperatures = results[c].temperatures
        assert temperatures.argmax() == c
        assert (np.delete(temperatures, c) < temperatures[c]).all()
        assert die.bcmt[name] == temperatures[c]


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
    net = build_network(fp, STRIP_PARAMS)
    powers, weights = packing_inputs(net, uniform_profile(fp, power=10.0))
    assert build_session([0], weights, 1e-6, net, powers, []) == [0]


def test_build_session_unbounded_limit_packs_everything():
    fp = strip_floorplan(5)
    net = build_network(fp, STRIP_PARAMS)
    powers, weights = packing_inputs(net, uniform_profile(fp, power=10.0))
    # the admitted nodes, in the order they joined
    assert build_session([4, 0, 1, 2, 3], weights, math.inf, net, powers, []) == [4, 0, 1, 2, 3]


def test_build_session_limit_between_singleton_and_pair():
    # on a 2-core strip, a limit between the singleton STC and the pair STC
    # admits exactly one core per session
    fp = strip_floorplan(2)
    profile = uniform_profile(fp, power=10.0)
    net = build_network(fp, STRIP_PARAMS)
    single = reference_stc({"s1"}, profile, None, net)
    pair = reference_stc({"s1", "s2"}, profile, None, net)
    assert single < pair
    stcl = (single + pair) / 2.0
    powers, weights = packing_inputs(net, profile)
    assert build_session([0, 1], weights, stcl, net, powers, []) == [0]


def test_build_session_tries_candidates_in_the_order_given():
    fp = strip_floorplan(3)
    profile = PowerProfile({"s1": (1.0, 1.0), "s2": (5.0, 1.0), "s3": (1.0, 1.0)}, fp)
    net = build_network(fp, STRIP_PARAMS)
    powers, weights = packing_inputs(net, profile)
    tiny = 1e-9
    by_power = packing_order(range(3), powers, weights, net.nodes)
    assert by_power == [1, 0, 2]  # highest power first, ties by name
    # a run starts from the die's packing order at weights all one
    assert compile_die(fp, profile, STRIP_PARAMS)._start == tuple(by_power)
    # a weight scales its core's power in the order
    assert packing_order(range(3), powers, [1.0, 1.0, 6.0], net.nodes) == [2, 1, 0]
    # ties go by name, not by node index
    assert packing_order(range(3), [1.0] * 3, [1.0] * 3, ("c", "b", "a")) == [2, 1, 0]
    named = Floorplan([Core(n, 1.0, 1.0, float(k), 0.0) for k, n in enumerate("cba")])
    assert compile_die(named, uniform_profile(named), STRIP_PARAMS)._start == (2, 1, 0)
    # candidates are tried in the order given, file order included
    assert build_session(by_power, weights, tiny, net, powers, []) == [1]
    assert build_session([0, 1, 2], weights, tiny, net, powers, []) == [0]


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
        compared.append(reference_stc(candidate, power, weights, net))
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
    singles = [reference_stc({n}, profile, weights, net) for n in fp.names]
    stcl = max(float(np.median(singles)), 1e-12) * draw(st.floats(0.3, 30.0))
    return net, profile, available, weights, stcl


@settings(max_examples=80, deadline=None)
@given(packing_cases(), st.integers(0, 2**32 - 1))
def test_incremental_stc_packs_like_full_recompute(case, pick):
    net, profile, available, weights, stcl = case
    powers, weight_list = packing_inputs(net, profile, weights)
    # as generate_schedule does: the whole die sorted once, scheduled cores dropped
    candidates = [
        i for i in packing_order(range(len(net.nodes)), powers, weight_list, net.nodes)
        if net.nodes[i] in available
    ]

    def packed(limit, margins):
        admitted = build_session(candidates, weight_list, limit, net, powers, margins)
        return {net.nodes[i] for i in admitted}

    first = reference_stc([net.nodes[candidates[0]]], profile, weights, net)
    expected, compared = full_recompute_session(available, weights, stcl, net, profile)
    assert packed(stcl, []) == expected
    # a limit equal to the first core's singleton STC, or to one of the compared
    # STCs, puts a decision on the boundary
    boundaries = [first]
    if compared:
        boundaries.append(compared[pick % len(compared)])
    for limit in [stcl] + boundaries:
        expected, compared = full_recompute_session(available, weights, limit, net, profile)
        margins = [-math.inf, math.inf]
        assert packed(limit, margins) == expected
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
    that collects each fresh ``build_session`` call's (candidates, a copy of
    its weights, stcl, admitted nodes, the session_stc member lists it
    evaluated), all on node indices."""
    attempts, calls = [], []
    real_build, real_stc = scheduler.build_session, scheduler.session_stc

    def build(candidates, weights, stcl, *args):
        start = len(calls)
        session = real_build(candidates, weights, stcl, *args)
        attempts.append((list(candidates), list(weights), stcl, session, calls[start:]))
        return session

    def stc(members, *args):
        calls.append(list(members))
        return real_stc(members, *args)

    monkeypatch.setattr(scheduler, "build_session", build)
    monkeypatch.setattr(scheduler, "session_stc", stc)
    return attempts


def first_core_stc(die, candidates, weights):
    """The STC of an attempt's first candidate alone, from the reference."""
    name = die.net.nodes[candidates[0]]
    return reference_stc([name], die.power, {name: weights[candidates[0]]}, die.net)


def test_packing_evaluates_each_candidate_and_its_session_neighbours_only(monkeypatch):
    die = golden_synth400_die()
    net = die.net
    attempts = record_packing(monkeypatch)
    generate_schedule(die, SYNTH400_LOOSE)
    assert len(attempts) > 1
    calls = terms = 0
    for candidates, weights, stcl, session, made in attempts:
        # exactly one call per candidate that touches the cores admitted before
        # it, naming those neighbours in floorplan order and never the
        # candidate, whose own term comes from its escape-path scan; an
        # attempt whose first core is over the limit stops at once
        expected, admitted = [], {candidates[0]}
        if first_core_stc(die, candidates, weights) <= stcl:
            for i in candidates[1:]:
                touched = [j for j, _ in net.lateral[i] if j in admitted]
                if touched:
                    expected.append(touched)
                if i in session:
                    admitted.add(i)
        assert admitted == set(session)
        assert made == expected
        calls += len(made)
        terms += sum(map(len, made))
    assert (len(attempts), calls, terms) == (19, 5420, 15731)


def assert_packing_order(die, attempts):
    """Each attempt of a run on a fresh die tries every core not yet
    scheduled, sorted by ``(-P * W, name)`` at the weights it was given.
    An accepted session leaves the weights as they were, and a discard
    changes them: it multiplies a finite, positive weight by 1.1."""
    pool = set(range(len(die.net.nodes)))
    for k, (candidates, weights, _, session, _) in enumerate(attempts):
        assert candidates == packing_order(pool, die._powers, weights, die.net.nodes)
        if k + 1 == len(attempts) or attempts[k + 1][1] == weights:
            pool -= set(session)
    assert not pool


def test_packing_tries_cores_in_packing_order_and_early_exits_make_no_stc_call(monkeypatch):
    die = golden_synth400_die()
    attempts = record_packing(monkeypatch)
    schedule = generate_schedule(die, SYNTH400_LOOSE)
    discards = len(attempts) - len(schedule.sessions)
    assert discards == 15
    assert_packing_order(die, attempts)

    # a die of its own, so that no attempt comes from the loose run's memo
    die = golden_synth400_die()
    attempts.clear()
    schedule = generate_schedule(die, SYNTH400_TIGHT)
    assert_packing_order(die, attempts)
    early_exits = 0
    for candidates, weights, stcl, session, made in attempts:
        if first_core_stc(die, candidates, weights) > stcl:
            early_exits += 1
            assert session == [candidates[0]]
            assert made == []
    assert (len(attempts), early_exits) == (203, 200)


@pytest.mark.parametrize("config, solves", [(SYNTH400_TIGHT, 3), (SYNTH400_LOOSE, 18)],
                         ids=["tight", "loose"])
def test_synth400_runs_solve_only_sessions_screening_did_not(config, solves, monkeypatch):
    # screening validated every singleton, so a run on a fresh die solves
    # only the sessions of two or more cores it packs, discarded ones
    # included: 3 of the tight run's 203 attempts and 18 of the loose run's 19
    solved = []
    original = scheduler.simulate_session
    monkeypatch.setattr(
        scheduler, "simulate_session",
        lambda members, *args: solved.append(members) or original(members, *args),
    )
    generate_schedule(golden_synth400_die(), config)
    assert len(solved) == solves
    assert all(len(members) > 1 for members in solved)


def test_discard_bumps_its_violators_weights_in_place(monkeypatch):
    die = golden_synth400_die()
    attempts = record_packing(monkeypatch)
    # the weight list each build_session call received
    handed, recorded_build = [], scheduler.build_session

    def build(candidates, weights, *args):
        handed.append(weights)
        return recorded_build(candidates, weights, *args)

    monkeypatch.setattr(scheduler, "build_session", build)
    schedule = generate_schedule(die, SYNTH400_LOOSE)
    assert scheduler.WEIGHT_FACTOR == 1.1
    discards = 0
    for (_, before, _, session, _), (_, after, *_) in zip(attempts, attempts[1:]):
        members = [die.net.nodes[i] for i in session]
        temps = simulate_session(members, die.net, die.power).temperatures
        violators = [i for i in session if temps[i] >= SYNTH400_LOOSE.tl]
        expected = list(before)
        for i in violators:
            expected[i] = before[i] * 1.1
        # bit for bit: exactly the violators move, each by one factor
        assert after == expected
        if violators:
            discards += 1
            assert after != before
    assert discards == len(attempts) - len(schedule.sessions) == 15
    # the run owns one weight list and bumps it in place
    assert all(weights is handed[0] for weights in handed)


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
    single = reference_stc({"s1"}, profile, None, build_network(fp, STRIP_PARAMS))
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
    bcmts = compile_die(fp, profile, ThermalParams()).bcmt
    config = SchedulerConfig(tl=max(bcmts.values()) + 10.0, stcl=30.0)
    a = generate_schedule(compile_die(fp, profile, ThermalParams()), config)
    b = generate_schedule(compile_die(fp, profile, ThermalParams()), config)
    assert [s.cores for s in a.sessions] == [s.cores for s in b.sessions]
    assert a.total_length == b.total_length
    assert a.simulation_effort == b.simulation_effort
    assert a.stage1_report == b.stage1_report


def test_runs_on_one_die_share_its_bcmt_map():
    # a run's stage-1 report is the die's map itself, not a copy of N entries
    fp, profile = load_inputs("demo15")
    die = compile_die(fp, profile, ThermalParams())
    hottest = max(die.bcmt.values())
    runs = [
        generate_schedule(die, SchedulerConfig(tl=hottest + 10.0, stcl=stcl))
        for stcl in (20.0, 100.0)
    ]
    assert all(run.stage1_report is die.bcmt for run in runs)


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
    # singletons come from screening: no run solves one
    stcl = 0.9 * reference_stc({"s1"}, profile, None, die.net)
    a = generate_schedule(die, SchedulerConfig(tl=200.0, stcl=stcl))
    b = generate_schedule(die, SchedulerConfig(tl=150.0, stcl=stcl))
    assert len(a.sessions) == len(b.sessions) == 4
    assert solved == []
    by_cores = {s.cores: s for s in a.sessions}
    for session in b.sessions:
        assert session is by_cores[session.cores]
        members = frozenset(die.net.position[name] for name in session.cores)
        assert session is die._sessions[members][0]
        assert session.duration == max(profile.duration(n) for n in session.cores)
    # a larger session is solved by the first run that packs it, only by it
    stcl = 2.0 * reference_stc(fp.names, profile, None, die.net)
    c = generate_schedule(die, SchedulerConfig(tl=200.0, stcl=stcl))
    d = generate_schedule(die, SchedulerConfig(tl=150.0, stcl=stcl))
    assert solved == [frozenset(fp.names)]
    assert [s.cores for s in c.sessions] == solved
    assert d.sessions[0] is c.sessions[0]
    assert d.sessions[0].duration == 2.0


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
        singles = [reference_stc({n}, profile, None, die.net) for n in fp.names]
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
    singleton STC."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fp = random_floorplan(rng, draw(st.integers(1, 8)))
    profile = random_profile(rng, fp)
    die = compile_die(fp, profile, ThermalParams())
    median = float(np.median([reference_stc({n}, profile, None, die.net) for n in fp.names]))
    config = SchedulerConfig(
        tl=max(die.bcmt.values()) + draw(st.floats(0.1, 30.0)),
        stcl=median * draw(st.floats(0.2, 6.0)),
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


def _attempt_bound(n_cores):
    """The most attempts a run on ``n_cores`` cores can make.  Each discard
    multiplies some violator's weight by 1.1, and the bump that takes a
    weight from 1 to inf raises; so at most ``bumps - 1`` discards per core,
    the raising one, and one accepted session per core."""
    weight, bumps = 1.0, 0
    while weight != math.inf:
        weight, bumps = weight * 1.1, bumps + 1
    return n_cores * (bumps + 1)


def test_a_huge_stcl_with_discards_stays_within_the_overflow_bound():
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
    assert 7000 < len(attempts) <= _attempt_bound(2)
    # the run records only its first attempts in the die's memo, one per core
    assert len(memo_entries(die)) == len(die.net.nodes) == 2


def test_weight_overflow_ends_a_run_within_the_bound():
    # at a microwatt a core's STC term lies so far below STCL that its weight,
    # bumped at every discard of the too-hot pair, overflows first
    fp = Floorplan([Core("a", 0.001, 0.001, 0.0, 0.0),
                    Core("b", 0.001, 0.001, 0.001, 0.0)])
    profile = PowerProfile({"a": (1e-6, 1.0), "b": (1e-6, 1.0)}, fp)
    die = compile_die(fp, profile, ThermalParams())
    with pytest.MonkeyPatch.context() as mp:
        attempts = _counting_attempts(mp)
        with pytest.raises(ValueError, match="^weight for 'a' overflowed at weight factor 1.1 "):
            generate_schedule(die, SchedulerConfig(tl=45.0004, stcl=1e300))
    assert 7000 < len(attempts) <= _attempt_bound(2)


@pytest.mark.parametrize("smaller", ["a", "b"])
def test_weight_overflow_names_the_first_violator_in_name_order(smaller):
    # two abutting cores at a microwatt each: the slightly smaller one has
    # the weaker vertical path and runs hotter, so temperature order and
    # name order disagree when 'b' is smaller; both violate at every
    # discard, their weights overflow at the same bump, and the error names
    # the first violator in name order either way
    height = {"a": 0.001, "b": 0.001}
    height[smaller] = 0.0009
    fp = Floorplan([Core("a", 0.001, height["a"], 0.0, 0.0),
                    Core("b", 0.001, height["b"], 0.001, 0.0)])
    profile = PowerProfile({"a": (1e-6, 1.0), "b": (1e-6, 1.0)}, fp)
    die = compile_die(fp, profile, ThermalParams())
    pair = simulate_session(fp.names, die.net, profile).temperatures.tolist()
    assert max(pair) == pair[fp.names.index(smaller)] > min(pair)
    config = SchedulerConfig(tl=(max(die.bcmt.values()) + min(pair)) / 2, stcl=1e300)
    with pytest.raises(ValueError, match="^weight for 'a' overflowed at weight factor 1.1 "):
        generate_schedule(die, config)


# ── attempt memo ─────────────────────────────────────────────────────────


def _outcome(run, *args):
    """``run(*args)``'s whole result, every float by its bits, or the type
    and text of the exception it raised, then None.  The decision box comes
    last, so ``[:2]`` leaves out the box, which the reference does not track."""
    try:
        schedule = run(*args)
    except (ScreeningError, ValueError) as exc:
        return type(exc), str(exc), None
    return (
        [(s.cores, s.duration.hex(), s.result.temperatures.tobytes())
         for s in schedule.sessions],
        (schedule.total_length.hex(), schedule.simulation_effort.hex()),
        tuple(map(float.hex, schedule.tl_range + schedule.stcl_range)),
    )


@st.composite
def memo_cases(draw):
    """A random die and a list of runs on it.  Runs draw from a few TLs near
    the hottest BCMT, some failing screening, and one or two STCLs around
    the median singleton STC, so that many share the start of their attempt
    paths and then part where a TL makes different violators."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fp = random_floorplan(rng, draw(st.integers(2, 14)))
    profile = random_profile(rng, fp)
    die = compile_die(fp, profile, ThermalParams())
    hottest = max(die.bcmt.values())
    median = float(np.median([reference_stc({n}, profile, None, die.net) for n in fp.names]))
    tls = draw(st.lists(st.floats(-1.0, 10.0), min_size=1, max_size=3))
    stcls = draw(st.lists(st.floats(0.2, 6.0), min_size=1, max_size=2))
    runs = draw(st.lists(
        st.tuples(st.sampled_from(tls), st.sampled_from(stcls)), min_size=1, max_size=8
    ))
    configs = [
        SchedulerConfig(tl=hottest + tl, stcl=median * stcl) for tl, stcl in runs
    ]
    return fp, profile, configs


@settings(max_examples=200, deadline=None)
@given(memo_cases())
def test_runs_on_a_shared_die_match_runs_on_fresh_dies(case):
    fp, profile, configs = case
    shared = compile_die(fp, profile, ThermalParams())
    for config in configs:
        fresh = compile_die(fp, profile, ThermalParams())
        outcome = _outcome(generate_schedule, shared, config)
        assert outcome == _outcome(generate_schedule, fresh, config), config
        reference = _outcome(reference_schedule, fp, profile, ThermalParams(), config)
        assert outcome[:2] == reference[:2], config


@st.composite
def discard_cases(draw):
    """A random die of 2 to 24 cores and a list of runs on it, at a few TLs
    between the hottest BCMT and the peak of every core tested at once, and
    one or two STCLs 2 to 50 times the largest singleton STC: large
    sessions, often too hot, so runs discard, re-sort and part ways in the
    attempt memo."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fp = random_floorplan(rng, draw(st.integers(2, 24)))
    profile = random_profile(rng, fp)
    die = compile_die(fp, profile, ThermalParams())
    hottest = max(die.bcmt.values())
    everything = simulate_session(fp.names, die.net, profile).peak[1]
    largest = max(reference_stc({n}, profile, None, die.net) for n in fp.names)
    tls = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3))
    stcls = draw(st.lists(st.floats(2.0, 50.0), min_size=1, max_size=2))
    runs = draw(st.lists(
        st.tuples(st.sampled_from(tls), st.sampled_from(stcls)), min_size=2, max_size=6
    ))
    configs = [
        SchedulerConfig(tl=hottest + (everything - hottest) * tl, stcl=largest * stcl)
        for tl, stcl in runs
    ]
    return fp, profile, configs


def test_discarding_runs_on_a_shared_die_match_fresh_and_reference_runs():
    discarded = []

    # the same 30 cases on every run, 24 of which discard under Hypothesis
    # 6.155: random draws discarded in 14 to 27 of 30, so the coverage guard
    # below failed now and then on correct code
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(discard_cases())
    def check(case):
        fp, profile, configs = case
        shared = compile_die(fp, profile, ThermalParams())
        discards = 0
        for config in configs:
            # every attempt of a run on a fresh die is packed
            with pytest.MonkeyPatch.context() as mp:
                attempts = _counting_attempts(mp)
                fresh = _outcome(generate_schedule, compile_die(fp, profile, ThermalParams()), config)
            if fresh[2] is not None:
                discards += len(attempts) - len(fresh[0])
            assert _outcome(generate_schedule, shared, config) == fresh, config
            reference = _outcome(reference_schedule, fp, profile, ThermalParams(), config)
            assert fresh[:2] == reference[:2], config
        discarded.append(discards > 0)

    check()
    # most cases discard (on 2-core dies a pair is often never packed), so
    # the property covers re-keyed sorts and count-keyed memo children
    assert sum(discarded) > len(discarded) / 2


@st.composite
def reference_cases(draw):
    """A random die of 2 to 11 cores and one run's limits on it: TL around
    the hottest BCMT, some failing screening, and STCL around the median
    singleton STC."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fp = random_floorplan(rng, draw(st.integers(2, 11)))
    profile = random_profile(rng, fp)
    die = compile_die(fp, profile, ThermalParams())
    median = float(np.median([reference_stc({n}, profile, None, die.net) for n in fp.names]))
    config = SchedulerConfig(
        tl=max(die.bcmt.values()) + draw(st.floats(-1.0, 15.0)),
        stcl=median * draw(st.floats(0.2, 6.0)),
    )
    return fp, profile, config


@settings(max_examples=300, deadline=None)
@given(reference_cases())
def test_runs_on_fresh_dies_match_the_paper_literal_reference(case):
    fp, profile, config = case
    die = compile_die(fp, profile, ThermalParams())
    outcome = _outcome(generate_schedule, die, config)
    reference = _outcome(reference_schedule, fp, profile, ThermalParams(), config)
    assert outcome[:2] == reference[:2]


def test_threads_sharing_a_die_get_the_runs_of_fresh_dies():
    # every other TL and STCL of the paper's 41 x 41 demo15 grid: 441 points,
    # run by four workers that share one die and both of its memos
    fp, profile = load_inputs("demo15")
    configs = [
        SchedulerConfig(tl=float(tl), stcl=float(stcl))
        for tl in range(145, 186, 2) for stcl in range(20, 101, 4)
    ]
    assert len(configs) == 441
    die = compile_die(fp, profile, ThermalParams())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            shared = list(pool.map(lambda c: _outcome(generate_schedule, die, c), configs))
    finally:
        sys.setswitchinterval(interval)
    for config, outcome in zip(configs, shared):
        fresh = compile_die(fp, profile, ThermalParams())
        assert outcome == _outcome(generate_schedule, fresh, config), config
    # racing runs may pack an attempt twice, but every entry holds its member
    # set's one validated value
    for *_, validated, _ in memo_entries(die):
        assert validated is die._sessions[frozenset(validated[1])]


def test_screening_solve_failure_names_the_core():
    fp, profile = load_inputs("demo15")
    name = fp.names[5]
    huge = PowerProfile(
        {n: (1e308 if n == name else profile.power(n), profile.duration(n)) for n in fp.names},
        fp,
    )
    with pytest.raises(NetworkSolveError) as err:
        compile_die(fp, huge, ThermalParams())
    assert str(err.value).startswith("solve residual nan is not within ")
    assert str(err.value).endswith(f" (screening core {name!r} alone)")
    assert err.value.column == err.value.__cause__.column == 5


def test_a_profile_read_for_another_floorplan_is_a_power_profile_error(monkeypatch):
    fp = parse_floorplan("a 1 1 0 0\nb 1 1 1 0\n")
    other = parse_floorplan("a 1 1 0 0\nc 1 1 1 0\n")
    profile = parse_power_profile("a,1,1\nc,1,1\n", other)
    message = "no power entry for core(s): b"
    net = build_network(fp, ThermalParams())
    built = []
    monkeypatch.setattr(thermal_sim, "build_network", lambda *args: built.append(args))
    with pytest.raises(PowerProfileError) as err:
        compile_die(fp, profile, ThermalParams())
    assert str(err.value) == message
    assert built == []  # refused before the network is built
    for session in ({"b"}, {"a", "b"}):
        with pytest.raises(PowerProfileError) as err:
            simulate_session(session, net, profile)
        assert str(err.value) == message
    # a profile that covers the floorplan's cores still serves its sessions
    assert simulate_session({"a"}, net, profile).peak[0] == "a"


# ── config validation ────────────────────────────────────────────────────


def test_config_rejects_bad_values():
    with pytest.raises(ValueError, match="stcl"):
        SchedulerConfig(tl=100.0, stcl=0.0)
    with pytest.raises(ValueError, match="stcl"):
        SchedulerConfig(tl=100.0, stcl=math.inf)
    with pytest.raises(ValueError, match="tl"):
        SchedulerConfig(tl=math.nan, stcl=10.0)


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


def test_json_writer_holds_one_temperature_map_beside_its_bytes():
    # orjson 3.8.3 writes the golden tight document, 203 sessions of 400
    # temperatures, at a traced peak of 1.5 times its length when each
    # session's map is built as the encoder reaches it, of 3.0 times when
    # every map is built first, and of 4.0 times when the bytes of that
    # whole dict are also decoded to text
    schedule = generate_schedule(golden_synth400_die(), SYNTH400_TIGHT)
    data, peak = traced_peak(
        lambda: scheduler._json_bytes(schedule, SYNTH400_TIGHT, ThermalParams())
    )
    # below 2.5 times the length above what was held before the call, where
    # the bytes themselves are held after it
    assert peak + len(data) < 2.5 * len(data), (peak, len(data))


# names that json must escape: quotes, backslashes and control characters,
# and characters outside ASCII, including one beyond the BMP
ASCII_NAME_CHARS = ['"', "\\", "\n", "\t", "\x1f", "/", "a", " "]
NAME_CHARS = [*ASCII_NAME_CHARS, "é", "Ω", "€", "\U0001d11e"]


# (ambient, power scale): the default ambient with watts, and two dies whose
# temperatures orjson and repr spell differently: microwatts at 0 C, where
# the passive cores stay below 1e-4 C, and kilowatts at 1e16 C
AMBIENTS = [(ThermalParams.t_ambient, 1.0), (0.0, 1e-6), (1e16, 1e3)]


@st.composite
def written_schedules(draw):
    """A small random die with awkward core names, scheduled in one of three
    regimes: everything in one session, a discarded first attempt, or
    limits drawn near the hottest BCMT and the median singleton STC.
    Its temperature margins and its stand-in for no STCL scale with the
    drawn power scale."""
    regime = draw(st.sampled_from(["one-session", "discarding", "drawn"]))
    ambient, scale = draw(st.sampled_from(AMBIENTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = random_floorplan(rng, draw(st.integers(2 if regime == "discarding" else 1, 7)))
    # every name holds a quote and a backslash.  ASCII-only names at the
    # default ambient give json's own text; a non-ASCII character is
    # written raw, as UTF-8
    chars, suffix = draw(st.sampled_from([(ASCII_NAME_CHARS, '"\\'), (NAME_CHARS, '"\\é')]))
    names = [draw(st.text(st.sampled_from(chars), max_size=4)) + f"{suffix}{i}" for i in range(len(base))]
    fp = Floorplan([
        Core(name, c.width, c.height, c.left_x, c.bottom_y)
        for name, c in zip(names, core_records(base))
    ])
    profile = random_profile(rng, fp, p_range=(0.3 * scale, 3.0 * scale))
    params = ThermalParams(t_ambient=ambient)
    die = compile_die(fp, profile, params)
    hottest = max(die.bcmt.values())
    everything = simulate_session(fp.names, die.net, profile).peak[1]
    if regime == "one-session":
        config = SchedulerConfig(tl=everything + scale, stcl=1e300 * scale)
    elif regime == "discarding":
        config = SchedulerConfig(tl=(hottest + everything) / 2, stcl=1e300 * scale)
    else:
        median = float(np.median([reference_stc({n}, profile, None, die.net) for n in fp.names]))
        config = SchedulerConfig(
            tl=hottest + scale * draw(st.floats(0.5, 20.0)),
            stcl=median * draw(st.floats(0.3, 5.0)),
        )
    schedule = generate_schedule(die, config)
    if regime == "one-session":
        assert len(schedule.sessions) == 1
    if regime == "discarding":
        assert schedule.simulation_effort > schedule.total_length
    return schedule, config, params


# both sides of each edge of the range in which orjson and repr agree on
# notation, zeros, and the smallest and largest finite floats
FLOAT_EDGES = [
    sign * value
    for value in (
        0.0, 5e-324, sys.float_info.max, 1e-4, 1e16,
        *(float(np.nextafter(edge, toward)) for edge in (1e-4, 1e16) for toward in (0.0, np.inf)),
    )
    for sign in (1.0, -1.0)
]


# finite floats anywhere, and only where orjson writes repr's notation
ANY_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(FLOAT_EDGES))
REPR_RANGE_FLOATS = st.one_of(
    st.just(0.0), st.floats(1e-4, 1e16, exclude_max=True), st.floats(-1e16, -1e-4, exclude_min=True)
)
# ASCII without DEL, where orjson and json escape alike; all of ASCII, with
# DEL drawn often; the BMP beyond ASCII, without the lone surrogates that a
# floorplan refuses; and astral characters
NAME_ALPHABETS = [
    st.characters(max_codepoint=0x7E),
    st.characters(max_codepoint=0x7F) | st.just("\x7f"),
    st.characters(min_codepoint=0x80, max_codepoint=0xFFFF, codec="utf-8"),
    st.characters(min_codepoint=0x10000),
]


def exact(value):
    """``value`` with every float replaced by its ``float.hex``, so that
    ``-0.0`` and ``0.0`` compare unequal, and every dict by its items in
    order, so that key order counts."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(key, exact(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [exact(item) for item in value]
    return value


def floats_in(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, (dict, list)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from floats_in(item)


def written_text(schedule, config, params):
    """The schedule's JSON text, checked against the writer's contract:
    ``_json_bytes`` gives the whole-document writer's bytes and
    ``schedule_to_json`` their text, byte for byte; ``json.loads`` gives
    back every key, in order, and every float bit for bit; and with every
    core name in ASCII without DEL and every float zero or of magnitude
    within ``[1e-4, 1e16)``, where orjson escapes and spells as json does,
    the text is exactly json's own indented rendering."""
    data = scheduler._json_bytes(schedule, config, params)
    text = schedule_to_json(schedule, config, params)
    reference = reference_json(schedule, config, params)
    assert data == reference.encode()
    assert text == data.decode()
    assert text == reference
    doc = json.loads(text)
    assert exact(doc) == exact(reference_document(schedule, config, params))
    names_escaped_alike = all(n.isascii() and "\x7f" not in n for n in schedule.stage1_report)
    if names_escaped_alike and all(x == 0 or 1e-4 <= abs(x) < 1e16 for x in floats_in(doc)):
        assert text == json.dumps(doc, indent=2) + "\n"
    return text


def hand_built(names, rows, values):
    """A schedule over ``names`` with one session per row of temperatures,
    built by hand rather than run, so that every value is free.  Limits,
    params, durations, BCMTs and totals are taken from ``values`` in turn,
    cycling; a field that must be positive takes the magnitude, or 1."""
    values = itertools.cycle(values)

    def positive():
        return abs(next(values)) or 1.0

    config = SchedulerConfig(tl=next(values), stcl=positive())
    params = ThermalParams(positive(), positive(), positive(), next(values))
    sessions = []
    for k, row in enumerate(rows):
        temperatures = np.array(row)
        temperatures.flags.writeable = False
        peak = int(np.argmax(temperatures))
        result = SimulationResult(tuple(names), temperatures, (names[peak], row[peak]))
        sessions.append(scheduler.TestSession(frozenset(names[k::len(rows)]), next(values), result))
    schedule = scheduler.Schedule(
        sessions=tuple(sessions),
        total_length=next(values),
        simulation_effort=next(values),
        stage1_report={name: next(values) for name in names},
        tl_range=(-math.inf, math.inf),
        stcl_range=(-math.inf, math.inf),
    )
    return schedule, config, params


@st.composite
def hand_built_schedules(draw):
    """``hand_built`` over drawn names and floats: names from one alphabet
    of ``NAME_ALPHABETS``, and temperatures and the other values each from
    anywhere finite or all within orjson's repr range, so that some
    documents must match json's spelling and others need only read back."""
    names = draw(st.lists(
        st.text(draw(st.sampled_from(NAME_ALPHABETS)), min_size=1, max_size=3),
        min_size=1, max_size=4, unique=True,
    ))
    temperatures = draw(st.sampled_from([ANY_FLOATS, REPR_RANGE_FLOATS]))
    values = draw(st.sampled_from([ANY_FLOATS, REPR_RANGE_FLOATS]))
    row = st.lists(temperatures, min_size=len(names), max_size=len(names))
    return hand_built(names, draw(st.lists(row, min_size=1, max_size=3)), draw(st.lists(values, min_size=1)))


@settings(max_examples=300, deadline=None)
@given(hand_built_schedules())
@example(hand_built([f"c{i}" for i in range(len(FLOAT_EDGES))], [FLOAT_EDGES], FLOAT_EDGES))
# the one float outside repr's range is a temperature below the peak
@example(hand_built(["a", "b"], [[45.0, 1e-5]], [1.5]))
@example(hand_built(["a\x7f", "b"], [[45.0, 50.0]], [1.5]))
def test_json_document_matches_the_json_module_for_any_values(case):
    written_text(*case)


def strip_schedule(config, fp=None):
    fp = fp or strip_floorplan(3)
    return generate_schedule(compile_die(fp, uniform_profile(fp, power=1.0), STRIP_PARAMS), config)


# values orjson refuses as they are, each stored as a float, which orjson writes
@pytest.mark.parametrize("config, params, written", [
    (SchedulerConfig(tl=2**64 + 1, stcl=10.0), STRIP_PARAMS, '"tl_c": 1.8446744073709552e19,'),
    (SchedulerConfig(tl=150.0, stcl=10.0), replace(STRIP_PARAMS, die_thickness=2**70),
     '"die_thickness": 1.1805916207174113e21,'),
    (SchedulerConfig(tl=150.0, stcl=np.float64(10.0)), STRIP_PARAMS, '"stcl": 10.0,'),
], ids=["int-beyond-64-bits", "int-beyond-64-bits-param", "numpy-scalar"])
def test_values_orjson_refuses_are_stored_as_floats(config, params, written):
    assert [type(v) for v in (config.tl, config.stcl, *vars(params).values())] == [float] * 6
    # the writer echoes the params it is given; the schedule's die is the strip's
    assert written in written_text(strip_schedule(config), config, params)


def test_a_lone_surrogate_core_name_is_refused():
    # orjson refuses such a name, so neither a record nor a parsed line may hold one
    with pytest.raises(FloorplanError, match=r"^core name must be .* got '\\ud800'$"):
        Floorplan([Core("\ud800", 1.0, 1.0, 0.0, 0.0), Core("s2", 1.0, 1.0, 1.0, 0.0)])
    with pytest.raises(FloorplanError, match=r"^line 2: core name must be .* got '\\ud800'$"):
        parse_floorplan("s1 1 1 0 0\n\ud800 1 1 1 0\n")


# a value in each place where orjson's spelling differs from json's, each
# with the text orjson writes for it, and one where the two agree
@pytest.mark.parametrize("names, value, written", [
    (["a", "b"], 50.0, '"b": 50.0'),
    (["\u00e9", "b"], 50.0, '"\u00e9": 45.0'),
    (["\U0001d11e", "b"], 50.0, '"\U0001d11e": 45.0'),
    (["a\x7f", "b"], 50.0, '"a\x7f": 45.0'),
    (["a", "b"], 1e-5, '"b": 0.00001'),
    (["a", "b"], 1e16, '"b": 1e16'),
], ids=["ascii", "non-ascii", "astral", "del", "tiny-float", "huge-float"])
def test_any_document_orjson_accepts_is_written_by_orjson(names, value, written):
    assert written in written_text(*hand_built(names, [[45.0, value]], [1.5]))


@settings(max_examples=60, deadline=None)
@given(written_schedules())
def test_json_writer_matches_the_json_module(case):
    written_text(*case)
