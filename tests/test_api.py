"""The package's public surface: every exported name and every command-line
option, listed on purpose."""

import thermsched
from thermsched.cli import build_parser

PUBLIC_NAMES = [
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

CLI_OPTIONS = [
    "--floorplan",
    "--power",
    "--tl",
    "--stcl",
    "--sweep-tl",
    "--sweep-stcl",
    "--ambient",
    "--k-silicon",
    "--die-thickness",
    "--r-vertical",
    "--out",
]


def test_public_names_are_pinned():
    # growing the public surface must be a deliberate edit of this list
    assert sorted(thermsched.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in thermsched.__all__:
        assert getattr(thermsched, name) is not None, name


def test_cli_options_are_pinned():
    # adding an option must be a deliberate edit of this list; -h/--help aside
    options = [
        option
        for action in build_parser()._actions
        if action.dest != "help"
        for option in action.option_strings
    ]
    assert options == CLI_OPTIONS
