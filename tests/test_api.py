"""The package's public surface: every exported name, listed on purpose."""

import thermsched

PUBLIC_NAMES = [
    "AttemptBudgetError",
    "CompiledDie",
    "CoreGeometry",
    "Floorplan",
    "FloorplanError",
    "NetworkSolveError",
    "PowerProfile",
    "PowerProfileError",
    "RESIDUAL_RTOL",
    "Schedule",
    "SchedulerConfig",
    "ScreeningError",
    "SimulationResult",
    "TestSession",
    "ThermalNetwork",
    "ThermalParams",
    "build_network",
    "compile_die",
    "generate_schedule",
    "parse_floorplan",
    "parse_power_profile",
    "schedule_to_json",
    "session_stc",
    "simulate_session",
]


def test_public_names_are_pinned():
    # growing the public surface must be a deliberate edit of this list
    assert sorted(thermsched.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in thermsched.__all__:
        assert getattr(thermsched, name) is not None, name
