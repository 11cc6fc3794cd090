"""The package's public surface: every exported name and every command-line
option, listed on purpose, every third-party import, declared, and the one
rule the four constructors apply to the values a library caller hands in."""

import ast
import inspect
import json
import re
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import thermsched
from thermsched import (
    Floorplan,
    FloorplanError,
    PowerProfile,
    PowerProfileError,
    SchedulerConfig,
    ThermalParams,
    build_network,
    compile_die,
    generate_schedule,
    schedule_to_json,
)
from thermsched.cli import build_parser
from util import DATA, load_inputs

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_NAMES = [
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


def test_reading_inputs_and_networks_changes_none_of_their_attributes():
    # README calls them immutable after construction: reading every public
    # attribute, and calling every method that takes no argument, leaves
    # each attribute the very object it was
    fp, power = load_inputs("demo15")
    objects = (fp, power, build_network(fp, ThermalParams()))
    before = [dict(vars(obj)) for obj in objects]
    assert len(fp) == 15 and "c01" in fp
    for obj in objects:
        repr(obj)
        for name in dir(obj):
            value = getattr(obj, name)
            if not name.startswith("_") and inspect.ismethod(value):
                if not inspect.signature(value).parameters:
                    value()
    for obj, attributes in zip(objects, before):
        after = vars(obj)
        assert after.keys() == attributes.keys(), type(obj)
        assert [k for k in attributes if after[k] is not attributes[k]] == [], type(obj)


def library_use() -> str:
    """The README's "Library use" section."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]


def test_every_public_name_is_named_in_the_readme_library_use():
    # a root export earns its place in the README's "Library use" section,
    # which imports it, constructs it or says to catch it; a type a caller
    # only receives is named there by its full module path instead
    section = library_use()
    unqualified = re.sub(r"thermsched\.\w+\.\w+", "", section)
    missing = [
        name for name in thermsched.__all__ if not re.search(rf"\b{name}\b", unqualified)
    ]
    assert missing == []


def test_readme_library_use_runs_on_the_demo_die(capsys):
    # the section's code blocks run in order in one namespace, on the
    # bundled demo15 files and two of its cores, so a renamed or deleted
    # name fails here instead of drifting in the README
    blocks = re.findall(r"^```python\n(.*?)^```$", library_use(), re.M | re.S)
    assert len(blocks) == 3
    stand_ins = {
        '"die.flp"': repr(str(DATA / "demo15.flp")),
        '"tests.csv"': repr(str(DATA / "demo15.csv")),
        '{"cpu0", "cpu1"}': '{"c01", "c02"}',
    }
    namespace, replaced = {}, set()
    for block in blocks:
        for text, stand_in in stand_ins.items():
            if text in block:
                replaced.add(text)
                block = block.replace(text, stand_in)
        exec(compile(block, "README.md", "exec"), namespace)
    assert replaced == set(stand_ins)
    # the README's limits schedule the demo die in three sessions
    assert len(namespace["schedule"].sessions) == 3
    assert namespace["text"].startswith("{")
    assert capsys.readouterr().out


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
    (lambda v: Floorplan([("a", v, 1.0, 0.0, 0.0)]), FloorplanError,
     "core 'a' has non-finite geometry"),
    (lambda v: PowerProfile({"a": (v, 1.0)}, Floorplan([("a", 1.0, 1.0, 0.0, 0.0)])),
     PowerProfileError, "core 'a' has invalid test power {}; need a finite value >= 0"),
    # the int as a core name: the profile lists names that are not str too
    (lambda v: PowerProfile({v: (1.0, 1.0)}, Floorplan([("a", 1.0, 1.0, 0.0, 0.0)])),
     PowerProfileError, "unknown core id(s): {}"),
    # a floorplan name is a str, so the floorplan refuses the int first
    (lambda v: PowerProfile({}, Floorplan([(v, 1.0, 1.0, 0.0, 0.0)])),
     FloorplanError, "core name must be a non-empty str that encodes as UTF-8, got {}"),
], ids=["SchedulerConfig", "ThermalParams", "Floorplan", "PowerProfile",
        "PowerProfile-unknown-name", "PowerProfile-missing-name"])
def test_ints_beyond_float_range_are_not_finite(build, error, message, value):
    # math.isfinite raises OverflowError on such an int; library callers get
    # the ValueError subclass and the message any non-finite value gets
    with pytest.raises(error) as err:
        build(value)
    assert str(err.value) == message.format(value)


# One value rule at the four constructors: a core name is a non-empty str
# that encodes as UTF-8; a number is a numbers.Real that is not a bool,
# stored as a float; a record or entry of the wrong length or type raises
# the module's error.


def test_a_floorplan_field_that_is_not_a_number_raises_floorplan_error():
    with pytest.raises(FloorplanError, match=r"^core 'a' has non-numeric geometry$"):
        Floorplan([("a", "1", 1, 0, 0)])


@pytest.mark.parametrize("record, message", [
    (("a", 1.0, 1.0, 0.0), "record 1: expected (name, width, height, left_x, bottom_y), "
                           "got ('a', 1.0, 1.0, 0.0)"),
    (None, "record 1: expected (name, width, height, left_x, bottom_y), got None"),
], ids=["four-fields", "none"])
def test_a_floorplan_record_of_the_wrong_length_or_type_names_its_index(record, message):
    with pytest.raises(FloorplanError) as err:
        Floorplan([("b", 1.0, 1.0, 5.0, 0.0), record])
    assert str(err.value) == message


@pytest.mark.parametrize("name", [5, "", None, b"a", "\ud800"],
                         ids=["int", "empty", "none", "bytes", "lone-surrogate"])
def test_a_core_name_that_is_not_a_non_empty_utf8_str_is_refused(name):
    # a die with cores 5 and "b" built, then failed in compile_die's sort
    with pytest.raises(FloorplanError) as err:
        Floorplan([(name, 1.0, 1.0, 0.0, 0.0), ("b", 1.0, 1.0, 1.0, 0.0)])
    assert str(err.value) == (
        f"core name must be a non-empty str that encodes as UTF-8, got {name!r}"
    )


def test_a_numpy_str_name_is_stored_as_a_str():
    fp = Floorplan([(np.str_("a"), 1.0, 1.0, 0.0, 0.0)])
    assert type(fp.names[0]) is str and fp.names == ("a",)
    power = PowerProfile({np.str_("a"): (1.0, 1.0)}, fp)
    assert power.power("a") == 1.0


@pytest.mark.parametrize("entries, message", [
    ({"a": ("1", 1.0)}, "core 'a' has invalid test power '1'; need a finite value >= 0"),
    ({"a": (1.0, None)}, "core 'a' has invalid test duration None; need a finite value > 0"),
    ({"a": (1.0,)}, "core 'a': expected (power_w, duration_s), got (1.0,)"),
    ({"a": 1.0}, "core 'a': expected (power_w, duration_s), got 1.0"),
], ids=["str-power", "none-duration", "one-field", "float"])
def test_a_power_entry_of_the_wrong_arity_or_type_raises_power_profile_error(entries, message):
    with pytest.raises(PowerProfileError) as err:
        PowerProfile(entries, Floorplan([("a", 1.0, 1.0, 0.0, 0.0)]))
    assert str(err.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: SchedulerConfig("100", 10), "tl and stcl must be real numbers, got '100', 10"),
    (lambda: SchedulerConfig(100, Decimal(10)),
     "tl and stcl must be real numbers, got 100, Decimal('10')"),
    (lambda: ThermalParams(k_silicon="1"), "k_silicon must be a real number, got '1'"),
    (lambda: ThermalParams(t_ambient=True), "t_ambient must be a real number, got True"),
], ids=["str-tl", "decimal-stcl", "str-k_silicon", "bool-t_ambient"])
def test_a_limit_or_parameter_that_is_not_a_number_raises_value_error(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_numpy_scalar_limits_schedule_and_write_the_demo_die():
    # SchedulerConfig(165, np.float32(100)) scheduled demo15, and then the
    # writer handed the scalar to its temperature-map hook
    config = SchedulerConfig(165, np.float32(100))
    assert (type(config.tl), type(config.stcl)) == (float, float)
    fp, power = load_inputs("demo15")
    params = ThermalParams(k_silicon=np.int64(100))
    schedule = generate_schedule(compile_die(fp, power, params), config)
    document = json.loads(schedule_to_json(schedule, config, params))
    assert document["config"]["tl_c"] == 165.0
    assert document["config"]["stcl"] == 100.0
    assert document["thermal_params"]["k_silicon"] == 100.0


# values a library caller might hand in as a number, of every kind: the
# first four, each in [0.5, 2], are positive and finite
NUMBERS = st.one_of(
    st.floats(0.5, 2.0),
    st.floats(0.5, 2.0).map(np.float32),
    st.integers(1, 2),
    st.fractions(0.5, 2.0, max_denominator=100),
    st.floats(),
    st.integers(min_value=-2**80, max_value=2**80),
    st.sampled_from([10**400, -10**400, 2**64 + 1]),
    st.floats().map(np.float64),
    st.integers(min_value=-2**63, max_value=2**63 - 1).map(np.int64),
    st.decimals(),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.none(),
    st.text(max_size=3),
)

NAMES = st.one_of(
    st.text(max_size=3), st.text(max_size=2).map(np.str_), st.integers(), st.none(),
    st.just("\ud800"),
)


@st.composite
def records(draw, valid: tuple, first=NAMES):
    """``valid`` as it is, with one field drawn anew (the first from
    ``first``, another from NUMBERS), with a field too few or too many, or a
    number in place of the record."""
    fields = list(valid)
    how = draw(st.sampled_from(["keep", "replace", "arity", "number"]))
    if how == "replace":
        k = draw(st.integers(0, len(fields) - 1))
        fields[k] = draw(first if k == 0 else NUMBERS)
    elif how == "arity":
        fields = fields[:-1] if draw(st.booleans()) else [*fields, 1.0]
    elif how == "number":
        return draw(NUMBERS)
    return tuple(fields)


PAIR = Floorplan([("a", 1.0, 1.0, 0.0, 0.0), ("b", 1.0, 1.0, 1.0, 0.0)])


@st.composite
def power_entries(draw):
    """An entry for each of PAIR's cores, or for drawn names."""
    names = draw(st.just(["a", "b"]) | st.lists(NAMES | st.just("a"), max_size=3))
    return {name: draw(records((1.0, 1.0), first=NUMBERS)) for name in names}


# each constructor with drawn arguments, and the error it documents
CONSTRUCTORS = st.one_of(
    st.tuples(st.just(Floorplan), st.just(FloorplanError), st.tuples(st.one_of(
        st.tuples(records(("a", 1.0, 1.0, 0.0, 0.0))).map(list),
        st.tuples(records(("a", 1.0, 1.0, 0.0, 0.0)), records(("b", 1.0, 1.0, 1.0, 0.0))).map(list),
    ))),
    st.tuples(st.just(PowerProfile), st.just(PowerProfileError),
              power_entries().map(lambda entries: (entries, PAIR))),
    st.tuples(st.just(SchedulerConfig), st.just(ValueError), st.tuples(NUMBERS, NUMBERS)),
    st.tuples(st.just(ThermalParams), st.just(ValueError), st.lists(NUMBERS, max_size=4).map(tuple)),
)


def stored_values(obj) -> tuple[list, list]:
    """The names and the numbers ``obj`` holds."""
    if isinstance(obj, Floorplan):
        assert obj.geometry.dtype == np.float64
        return list(obj.names), obj.geometry.ravel().tolist()
    if isinstance(obj, PowerProfile):
        return [], [f(name) for name in PAIR.names for f in (obj.power, obj.duration)]
    return [], list(vars(obj).values())


@settings(max_examples=400, deadline=None)
@given(CONSTRUCTORS)
def test_each_constructor_raises_its_error_or_stores_floats(case):
    constructor, error, args = case
    try:
        obj = constructor(*args)
    except error:
        event(f"{constructor.__name__} raised")
        return
    event(f"{constructor.__name__} built")
    names, numbers = stored_values(obj)
    assert all(type(name) is str for name in names)
    assert all(type(number) is float for number in numbers)
