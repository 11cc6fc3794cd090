"""The package's public surface: every exported name and every command-line
option, listed on purpose, and every third-party import, declared."""

import ast
import re
import sys
from pathlib import Path

import pytest

import thermsched
from thermsched import (
    CoreGeometry,
    Floorplan,
    FloorplanError,
    PowerProfile,
    PowerProfileError,
    SchedulerConfig,
    ThermalParams,
)
from thermsched.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_NAMES = [
    "CoreGeometry",
    "Floorplan",
    "FloorplanError",
    "NetworkSolveError",
    "PowerProfile",
    "PowerProfileError",
    "SchedulerConfig",
    "ScreeningError",
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


def test_every_public_name_is_named_in_the_readme_library_use():
    # a root export earns its place in the README's "Library use" section,
    # which imports it, constructs it or says to catch it; a type a caller
    # only receives is named there by its full module path instead
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    unqualified = re.sub(r"thermsched\.\w+\.\w+", "", section)
    missing = [
        name for name in thermsched.__all__ if not re.search(rf"\b{name}\b", unqualified)
    ]
    assert missing == []


def test_every_source_file_parses_as_python_3_10():
    # the oldest Python that pyproject.toml allows; newer grammar fails here
    paths = sorted((ROOT / "src" / "thermsched").glob("*.py"))
    paths += sorted((ROOT / "tests").glob("*.py"))
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


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


@pytest.mark.parametrize("value", [10**400, -10**400], ids=["huge", "-huge"])
@pytest.mark.parametrize("build, error, message", [
    (lambda v: SchedulerConfig(v, 1.0), ValueError, "tl must be finite, got {}"),
    (lambda v: ThermalParams(k_silicon=v), ValueError,
     "k_silicon must be strictly positive and finite"),
    (lambda v: CoreGeometry("a", v, 1.0, 0.0, 0.0), FloorplanError,
     "core 'a' has non-finite geometry"),
    (lambda v: PowerProfile({"a": (v, 1.0)}, Floorplan([CoreGeometry("a", 1.0, 1.0, 0.0, 0.0)])),
     PowerProfileError, "core 'a' has invalid test power {}; need a finite value >= 0"),
], ids=["SchedulerConfig", "ThermalParams", "CoreGeometry", "PowerProfile"])
def test_ints_beyond_float_range_are_not_finite(build, error, message, value):
    # math.isfinite raises OverflowError on such an int; library callers get
    # the ValueError subclass and the message any non-finite value gets
    with pytest.raises(error) as err:
        build(value)
    assert str(err.value) == message.format(value)
