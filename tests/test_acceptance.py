"""Acceptance suite.

Each test is one release criterion, checked at its stated tolerance and
runtime budget, and prints one pass/fail line (run with ``pytest -s`` to
see them).  Absolute benchmark numbers are intentionally not asserted
anywhere: the bundled inputs are synthetic, so acceptance is property-based
plus qualitative trend reproduction on the bundled demo data.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from thermsched.cli import main
from thermsched.floorplan import PowerProfile
from thermsched.scheduler import SchedulerConfig, compile_die, generate_schedule
from thermsched.thermal_model import ThermalParams
from thermsched.thermal_sim import (
    RESIDUAL_RTOL,
    build_network,
    simulate_session,
)
from util import (
    DATA,
    equivalent_resistance,
    grounded_rise_oracle,
    load_inputs,
    random_floorplan,
    random_profile,
    random_session,
    reference_stc,
    stc_of,
)

PARAMS = ThermalParams()


@contextmanager
def criterion(num: int, name: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_s is not None and elapsed >= budget_s:
            raise AssertionError(
                f"runtime {elapsed:.2f} s exceeds the {budget_s:.0f} s budget"
            )
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL")
        raise
    print(f"[criterion {num}] {name}: PASS ({elapsed:.2f} s)")


def test_criterion_1_equivalent_resistance_oracle():
    """R_eq matches the grounded-network nodal oracle to rel 1e-9."""
    with criterion(1, "equivalent-resistance oracle", budget_s=5.0):
        rng = np.random.default_rng(101)
        for _ in range(100):
            fp = random_floorplan(rng, int(rng.integers(5, 16)))
            net = build_network(fp, PARAMS)
            session = random_session(rng, fp)
            for name in session:
                expected = grounded_rise_oracle(name, session, fp, PARAMS)
                actual = equivalent_resistance(name, session, net)
                assert actual == pytest.approx(expected, rel=1e-9)


def test_criterion_2_solver_soundness():
    """Residual bound, superposition, and zero-power => ambient."""
    with criterion(2, "solver soundness", budget_s=5.0):
        rng = np.random.default_rng(103)
        for _ in range(100):
            fp = random_floorplan(rng, int(rng.integers(5, 16)))
            net = build_network(fp, PARAMS)
            profile = random_profile(rng, fp, p_range=(0.0, 4.0))
            active = random_session(rng, fp)
            result = simulate_session(active, net, profile)
            rise = result.temperatures - net.ambient
            injections = np.array([profile.power(n) if n in active else 0.0 for n in net.nodes])
            residual = np.max(np.abs(net.conductance @ rise - injections))
            assert residual <= RESIDUAL_RTOL * max(1.0, np.max(np.abs(injections)))

            # zero power: every node exactly at ambient
            zero = PowerProfile({n: (0.0, 1.0) for n in fp.names}, fp)
            cold = simulate_session(active, net, zero)
            assert all(t == PARAMS.t_ambient for t in cold.temperatures.tolist())

            # superposition of two random injection patterns
            p1 = random_profile(rng, fp, p_range=(0.0, 2.0))
            p2 = random_profile(rng, fp, p_range=(0.0, 2.0))
            both = PowerProfile(
                {n: (p1.power(n) + p2.power(n), 1.0) for n in fp.names}, fp
            )
            r1 = simulate_session(active, net, p1)
            r2 = simulate_session(active, net, p2)
            r12 = simulate_session(active, net, both)
            lhs = r12.temperatures - PARAMS.t_ambient
            rhs = (r1.temperatures - PARAMS.t_ambient) + (r2.temperatures - PARAMS.t_ambient)
            assert lhs == pytest.approx(rhs, abs=1e-8)


def test_criterion_3_power_density_contrast():
    """Equal session power, 4x power density => clearly hotter session."""
    with criterion(3, "power-density contrast", budget_s=1.0):
        fp, power = load_inputs("density_contrast")
        dense = {n for n in fp.names if n.startswith("a")}
        sparse = {n for n in fp.names if n.startswith("b")}
        assert sum(power.power(n) for n in dense) == pytest.approx(
            sum(power.power(n) for n in sparse)
        )
        areas = {c.name: c.area for c in fp}
        density = lambda n: power.power(n) / areas[n]
        ratio = min(density(n) for n in dense) / max(density(n) for n in sparse)
        assert ratio == pytest.approx(4.0, rel=1e-12)
        net = build_network(fp, PARAMS)
        peak_dense = simulate_session(dense, net, power).peak[1]
        peak_sparse = simulate_session(sparse, net, power).peak[1]
        margin = 0.10 * (peak_sparse - PARAMS.t_ambient)
        assert peak_dense > peak_sparse + margin


def test_criterion_4_stcl_tradeoff_trend():
    """Tight STCL: longer schedule, less simulation; loose STCL: the reverse."""
    with criterion(4, "STCL trade-off trend", budget_s=60.0):
        fp, power = load_inputs("demo15")
        die = compile_die(fp, power, PARAMS)
        stcl_lo, stcl_hi = 20.0, 100.0
        for tl in (145.0, 165.0, 185.0):
            tight = generate_schedule(die, SchedulerConfig(tl=tl, stcl=stcl_lo))
            loose = generate_schedule(die, SchedulerConfig(tl=tl, stcl=stcl_hi))
            assert tight.total_length >= loose.total_length
            assert loose.simulation_effort >= tight.simulation_effort


def test_criterion_5_effort_identity():
    """No discarded session <=> simulation effort equals schedule length."""
    with criterion(5, "effort identity", budget_s=10.0):
        fp, power = load_inputs("demo15")
        die = compile_die(fp, power, PARAMS)
        # tight STCL and generous TL: every session passes on first try
        clean = generate_schedule(die, SchedulerConfig(tl=260.0, stcl=20.0))
        assert clean.simulation_effort == clean.total_length

        # engineered violation: a TL between the worst single-core
        # temperature and the first packed session's peak forces a discard
        bcmts = die.bcmt
        big_session = simulate_session(set(fp.names), die.net, power)
        assert big_session.peak[1] > max(bcmts.values()) + 10.0
        tl = (max(bcmts.values()) + big_session.peak[1]) / 2.0
        violating = generate_schedule(die, SchedulerConfig(tl=tl, stcl=1e6))
        assert violating.simulation_effort > violating.total_length


def test_criterion_6_schedule_validity_randomized():
    """Partition, safety, and termination over 200 randomized runs."""
    with criterion(6, "randomized schedule validity", budget_s=120.0):
        rng = np.random.default_rng(107)
        for _ in range(200):
            fp = random_floorplan(rng, int(rng.integers(5, 14)))
            profile = random_profile(rng, fp)
            die = compile_die(fp, profile, PARAMS)
            bcmts = die.bcmt
            singles = [reference_stc({n}, profile, None, die.net) for n in fp.names]
            config = SchedulerConfig(
                tl=max(bcmts.values()) + float(rng.uniform(3.0, 50.0)),
                stcl=max(1e-9, float(np.median(singles)) * float(rng.uniform(0.4, 4.0))),
            )
            schedule = generate_schedule(die, config)
            covered = sorted(n for s in schedule.sessions for n in s.cores)
            assert covered == sorted(fp.names)
            for s in schedule.sessions:
                assert s.result.peak[1] < config.tl
            assert schedule.simulation_effort >= schedule.total_length


def test_criterion_7_sweep_determinism(tmp_path):
    """Two identical full sweep runs emit byte-identical CSV."""
    with criterion(7, "sweep determinism"):
        args = [
            "--floorplan", str(DATA / "demo15.flp"),
            "--power", str(DATA / "demo15.csv"),
            "--sweep-tl", "145:185:5",
            "--sweep-stcl", "20:100:10",
        ]
        out1 = tmp_path / "sweep1.csv"
        out2 = tmp_path / "sweep2.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        data = out1.read_bytes()
        assert data == out2.read_bytes()
        assert len(data.splitlines()) == 1 + 9 * 9


def test_criterion_8_stc_algebra():
    """Quadratic power scaling (rel 1e-12) and growth monotonicity."""
    with criterion(8, "STC algebra"):
        rng = np.random.default_rng(109)
        # quadratic scaling
        for _ in range(50):
            fp = random_floorplan(rng, int(rng.integers(3, 10)))
            net = build_network(fp, PARAMS)
            profile = random_profile(rng, fp)
            session = random_session(rng, fp)
            alpha = float(rng.uniform(0.2, 5.0))
            scaled = PowerProfile(
                {n: (alpha * profile.power(n), profile.duration(n)) for n in fp.names},
                fp,
            )
            base = stc_of(session, profile, None, net)
            assert stc_of(session, scaled, None, net) == pytest.approx(
                alpha**2 * base, rel=1e-12
            )
        # growth monotonicity, 1000 random (session, extra core) cases
        checked = 0
        while checked < 1000:
            fp = random_floorplan(rng, int(rng.integers(3, 10)))
            net = build_network(fp, PARAMS)
            profile = random_profile(rng, fp)
            session = set(random_session(rng, fp))
            outside = [n for n in fp.names if n not in session]
            if not outside:
                continue
            extra = outside[int(rng.integers(len(outside)))]
            before = stc_of(session, profile, None, net)
            after = stc_of(session | {extra}, profile, None, net)
            assert after >= before
            checked += 1
