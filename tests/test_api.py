"""The package's public surface: every exported name and every command-line
option, listed on purpose, and every third-party import, declared."""

import ast
import re
import sys
from pathlib import Path

import pytest

import thermsched
from thermsched.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent

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


def test_every_third_party_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    # each runtime dependency's import name is its distribution name
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", requirement)[0].lower().replace("-", "_")
        for requirement in project["dependencies"]
    }
    imported = set()
    for path in sorted((ROOT / "src" / "thermsched").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"thermsched"}
    assert "numpy" in third_party  # the walk sees the package's imports
    assert third_party - declared == set()
