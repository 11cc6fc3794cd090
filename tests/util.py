"""Shared test helpers: tiny floorplan builders, a floorplan's records,
random generators, per-record floorplan and power-profile parsers, a
per-pair network assembly, a pairwise shared-edge reference, the
grounded-network nodal oracle used to cross-check
equivalent resistances, the packing order, a name-level STC that shares
no code with the library's pricing, a paper-literal schedule run, a
whole-document JSON writer, a sweep row, a traced memory peak, and a walk
of a compiled die's attempt memo."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import asdict
from pathlib import Path
from typing import NamedTuple

import numpy as np
import orjson
from scipy.linalg import cho_factor
from scipy.sparse import csr_array

from thermsched.cli import _limit, _totals
from thermsched.floorplan import (
    EPSILON,
    Floorplan,
    FloorplanError,
    PowerProfile,
    PowerProfileError,
    _check_core,
    _check_test_values,
    _records,
    parse_floorplan,
    parse_power_profile,
)
from thermsched.scheduler import (
    WEIGHT_FACTOR,
    Schedule,
    SchedulerConfig,
    ScreeningError,
    TestSession,
    check_tl,
)
from thermsched.thermal_model import ThermalParams, session_stc
from thermsched.thermal_sim import (
    _KNOBS,
    RESIDUAL_RTOL,
    NetworkSolveError,
    ThermalNetwork,
    _one_blas_thread,
    build_network,
    simulate_session,
)


class Core(NamedTuple):
    """A core record with named fields, in the order of a floorplan line;
    ``Floorplan`` reads it as the plain five-field record it is."""

    name: str
    width: float
    height: float
    left_x: float
    bottom_y: float


def strip_floorplan(n: int = 3, size: float = 1.0) -> Floorplan:
    """Horizontal 1 x n strip of size x size squares named s1..sn."""
    return Floorplan(
        [Core(f"s{i + 1}", size, size, i * size, 0.0) for i in range(n)]
    )


def core_records(fp: Floorplan) -> tuple[Core, ...]:
    """A floorplan's cores as ``Core`` records in node order, from its
    names and its geometry rows left, bottom, width and height."""
    left, bottom, width, height = fp.geometry.tolist()
    return tuple(map(Core, fp.names, width, height, left, bottom))


DATA = Path(__file__).resolve().parent.parent / "src" / "thermsched" / "data"
"""The bundled demo inputs: ``demo15`` and ``density_contrast``, each a
``.flp`` floorplan and a ``.csv`` power profile."""


def load_inputs(stem: str, directory: Path = DATA) -> tuple[Floorplan, PowerProfile]:
    """The floorplan ``<stem>.flp`` in ``directory`` and its ``<stem>.csv`` power profile."""
    fp = parse_floorplan((directory / f"{stem}.flp").read_text(encoding="utf-8"))
    return fp, parse_power_profile((directory / f"{stem}.csv").read_text(encoding="utf-8"), fp)


def load_synth400() -> tuple[Floorplan, PowerProfile]:
    """The N=400 die of the golden tests and its power profile."""
    return load_inputs("synth400", Path(__file__).resolve().parent / "golden")


def uniform_profile(fp: Floorplan, power: float = 10.0, duration: float = 1.0) -> PowerProfile:
    return PowerProfile({name: (power, duration) for name in fp.names}, fp)


def random_floorplan(rng, n_cores: int, die_w: float = 0.008, die_h: float = 0.008) -> Floorplan:
    """Random guillotine tiling of the die: always valid, adjacency-rich."""
    rects = [(0.0, 0.0, die_w, die_h)]
    while len(rects) < n_cores:
        k = int(np.argmax([w * h for (_, _, w, h) in rects]))
        x, y, w, h = rects.pop(k)
        frac = rng.uniform(0.35, 0.65)
        if w >= h:
            cut = x + frac * w
            rects.append((x, y, cut - x, h))
            rects.append((cut, y, x + w - cut, h))
        else:
            cut = y + frac * h
            rects.append((x, y, w, cut - y))
            rects.append((x, cut, w, y + h - cut))
    return Floorplan(
        [Core(f"r{i:02d}", w, h, x, y) for i, (x, y, w, h) in enumerate(rects)]
    )


def random_profile(rng, fp: Floorplan, p_range=(0.3, 3.0), d_range=(0.5, 2.0)) -> PowerProfile:
    return PowerProfile(
        {
            name: (rng.uniform(*p_range), rng.uniform(*d_range))
            for name in fp.names
        },
        fp,
    )


def random_session(rng, fp: Floorplan) -> frozenset[str]:
    """Non-empty random subset of the floorplan's cores."""
    members = [name for name in fp.names if rng.random() < 0.5]
    if not members:
        members = [fp.names[int(rng.integers(len(fp)))]]
    return frozenset(members)


def reference_parse_floorplan(source) -> Floorplan:
    """The per-record floorplan parser: each record is checked by
    ``_check_core`` as it is read, so the first error in file order stops
    the loop, and the records are handed to ``Floorplan(records)``, which
    checks them all again."""
    cores = []
    for lineno, raw, line in _records(source):
        fields = line.split()
        if len(fields) != 5:
            raise FloorplanError(
                f"line {lineno}: expected 'name width height left_x bottom_y', "
                f"got {raw!r}"
            )
        try:
            width, height, left_x, bottom_y = (float(v) for v in fields[1:])
        except ValueError:
            raise FloorplanError(f"line {lineno}: non-numeric field in {raw!r}") from None
        try:
            _check_core(fields[0], width, height, left_x, bottom_y)
        except FloorplanError as exc:
            raise FloorplanError(f"line {lineno}: {exc}") from None
        cores.append(Core(fields[0], width, height, left_x, bottom_y))
    return Floorplan(cores)


def reference_parse_power_profile(source, floorplan: Floorplan) -> PowerProfile:
    """The per-record power-profile parser: each record is checked as it is
    read, and the entries are handed to ``PowerProfile(entries, floorplan)``,
    which checks them all again."""
    entries: dict[str, tuple[float, float]] = {}
    for lineno, raw, line in _records(source):
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 3:
            raise PowerProfileError(
                f"line {lineno}: expected 'core_id,power_watts,duration_s', got {raw!r}"
            )
        name = fields[0]
        if name not in floorplan:
            raise PowerProfileError(f"line {lineno}: unknown core id {name!r}")
        if name in entries:
            raise PowerProfileError(f"line {lineno}: duplicate entry for core {name!r}")
        try:
            power, duration = float(fields[1]), float(fields[2])
        except ValueError:
            raise PowerProfileError(
                f"line {lineno}: non-numeric field in {raw!r}"
            ) from None
        try:
            _check_test_values(name, power, duration)
        except PowerProfileError as exc:
            raise PowerProfileError(f"line {lineno}: {exc}") from None
        entries[name] = (power, duration)
    return PowerProfile(entries, floorplan)


def _reference_conductance(numerator: float, denominator: float, knobs: str, path: str,
                           *names: str) -> float:
    """``1 / (numerator / denominator)`` in Python floats, or the
    NetworkSolveError naming ``path`` unless it is positive and finite."""
    try:
        conductance = 1.0 / (numerator / denominator)
    except ZeroDivisionError:
        conductance = math.nan
    if not 0.0 < conductance < math.inf:
        raise NetworkSolveError(
            f"{path.format(*map(repr, names))} is zero or not finite in double "
            f"precision; check {knobs}"
        )
    return conductance


def reference_network(fp: Floorplan, params: ThermalParams) -> ThermalNetwork:
    """``build_network`` one pair and one core at a time, in Python floats:
    each lateral conductance is checked as its pair is read from
    ``pairs()``, each diagonal is summed in pair order and then gets its
    vertical, and ``G``'s CSR is converted from a list of its entries."""
    names = fp.names
    n = len(names)
    diagonal = [0.0] * n
    lateral: list[list[tuple[int, float]]] = [[] for _ in names]
    for i, j, shared_edge, center_distance in fp.adjacency().pairs():
        gl = _reference_conductance(
            center_distance,
            params.k_silicon * params.die_thickness * shared_edge,
            "k_silicon and die_thickness",
            "lateral conductance between {} and {}", names[i], names[j],
        )
        diagonal[i] += gl
        diagonal[j] += gl
        lateral[i].append((j, gl))
        lateral[j].append((i, gl))
    with np.errstate(over="ignore"):
        areas = (fp.geometry[2] * fp.geometry[3]).tolist()
    vertical = tuple(
        _reference_conductance(params.r_vertical_per_area, area,
                               "r_vertical_per_area", "vertical conductance of {}", name)
        for name, area in zip(names, areas)
    )
    for i, gv in enumerate(vertical):
        diagonal[i] += gv
        if diagonal[i] == math.inf:
            raise NetworkSolveError(
                f"total conductance of {names[i]!r} is not finite in double "
                f"precision; {_KNOBS}"
            )
    rows, columns, values = zip(*[(i, j, -gl) for i, row in enumerate(lateral) for j, gl in row],
                                *[(i, i, d) for i, d in enumerate(diagonal)])
    conductance = csr_array((values, (rows, columns)), shape=(n, n))
    g = conductance.toarray(order="F")
    try:
        with _one_blas_thread():
            factor = cho_factor(g, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NetworkSolveError(
            "conductance matrix is not positive definite in double precision: "
            f"the lateral conductances swamp the vertical ones; {_KNOBS}"
        ) from exc
    return ThermalNetwork(
        nodes=names,
        position={name: i for i, name in enumerate(names)},
        vertical=vertical,
        lateral=tuple(map(tuple, lateral)),
        conductance=conductance,
        factor=factor,
        ambient=params.t_ambient,
    )


def core_edges(core: Core) -> tuple[float, float, float, float]:
    """A core's left, bottom, right and top edges, from its four fields."""
    return core.left_x, core.bottom_y, core.left_x + core.width, core.bottom_y + core.height


def core_center(core: Core) -> tuple[float, float]:
    """A core's center, from its four fields."""
    return core.left_x + 0.5 * core.width, core.bottom_y + 0.5 * core.height


def shared_edge_length(a: Core, b: Core) -> float:
    """Length of the boundary segment two non-overlapping rectangles share,
    from their gaps: 0.0 when they do not abut, and for corner contact.
    Facing edges within EPSILON of each other count as touching."""
    a_left, a_bottom, a_right, a_top = core_edges(a)
    b_left, b_bottom, b_right, b_top = core_edges(b)
    x_gap = max(a_left, b_left) - min(a_right, b_right)
    y_gap = max(a_bottom, b_bottom) - min(a_top, b_top)
    if abs(x_gap) <= EPSILON:  # touching along a vertical edge
        return max(0.0, -y_gap)
    if abs(y_gap) <= EPSILON:  # touching along a horizontal edge
        return max(0.0, -x_gap)
    return 0.0


def grounded_rise_oracle(core: str, session, fp: Floorplan, params: ThermalParams) -> float:
    """Independent equivalent-resistance oracle.

    Assembles the session network as a full nodal system: passive cores are
    pinned at ambient through Dirichlet rows, lateral paths between active
    cores are deleted, conductances are rederived from raw geometry.  Then
    1 W is injected at ``core`` and the system is solved with a generic
    dense solver; the temperature rise at ``core`` is its equivalent
    resistance.
    """
    names = fp.names
    index = {name: i for i, name in enumerate(names)}
    records = core_records(fp)
    cores = {c.name: c for c in records}
    a = np.zeros((len(names), len(names)))
    b = np.zeros(len(names))
    for i, name in enumerate(names):
        if name not in session:
            a[i, i] = 1.0  # rise pinned to zero: core sits at ambient
            continue
        here = cores[name]
        a[i, i] = here.width * here.height / params.r_vertical_per_area
        for other in records:
            if other.name in session:
                continue  # active-active paths removed (and the core itself)
            shared = shared_edge_length(here, other)
            if shared <= EPSILON:
                continue  # not adjacent
            g = (
                params.k_silicon
                * params.die_thickness
                * shared
                / math.dist(core_center(here), core_center(other))
            )
            a[i, i] += g
            a[i, index[other.name]] -= g
        if name == core:
            b[i] = 1.0
    rise = np.linalg.solve(a, b)
    return float(rise[index[core]])


def session_flags(session, net: ThermalNetwork) -> bytearray:
    """The membership flags, in node order, of a session given by names."""
    return bytearray(name in session for name in net.nodes)


def equivalent_resistance(name: str, session, net: ThermalNetwork) -> float:
    """A member's R_eq within a session given by names: the library's
    ``session_stc`` of the member alone at unit power and weight, exactly
    ``1 / g``, since multiplying by 1.0 is exact."""
    if name not in session:
        raise ValueError(f"core {name!r} is not in the session")
    ones = [1.0] * len(net.nodes)
    return session_stc([net.position[name]], ones, ones, net, session_flags(session, net))


def packing_inputs(
    net: ThermalNetwork, profile: PowerProfile, weights=None
) -> tuple[list[float], list[float]]:
    """A profile's test powers and a core -> weight map's weights, an absent
    core weighing 1 and all ones for None, in node order, as packing and
    ``session_stc`` take them."""
    weights = weights or {}
    return [profile.power(n) for n in net.nodes], [weights.get(n, 1.0) for n in net.nodes]


def packing_order(nodes, powers, weights, names) -> list[int]:
    """Node indices sorted into packing order: by ``(-P * W, name)``, with
    ``powers``, ``weights`` and ``names`` in node order."""
    return sorted(nodes, key=lambda i: (-powers[i] * weights[i], names[i]))


def stc_of(members, profile: PowerProfile, weights, net: ThermalNetwork, session=None) -> float:
    """The library's ``session_stc`` of cores given by names, with
    ``weights`` as in ``packing_inputs``; ``session`` defaults to
    ``members``."""
    return session_stc(
        [net.position[name] for name in members],
        *packing_inputs(net, profile, weights),
        net,
        session_flags(members if session is None else session, net),
    )


def reference_escape(name: str, session, net: ThermalNetwork) -> tuple[float, list[str]]:
    """A core's usable escape conductance within a session given by names,
    and the session's cores it touches, with no thermsched pricing code:
    the vertical conductance plus, in floorplan order, the laterals toward
    cores outside the session."""
    i = net.position[name]
    g = net.vertical[i]
    touched = []
    for j, lateral in net.lateral[i]:
        if net.nodes[j] in session:
            touched.append(net.nodes[j])
        else:
            g += lateral
    return g, touched


def reference_stc(members, power: PowerProfile, weights, net: ThermalNetwork, session=None) -> float:
    """Max over ``members`` of ``P * R_eq * P * W``, on names, with no
    thermsched pricing code.

    Each R_eq is ``reference_escape``'s conductance within ``session``,
    which defaults to ``members``, inverted.  ``weights`` maps cores to
    weights, an absent core weighing 1, or is None for all ones.  The
    product is evaluated left to right, as the library evaluates it, so
    the two agree bit for bit.
    """
    session = members if session is None else session
    weights = weights or {}
    stc = 0.0
    for name in members:
        p = power.power(name)
        r_eq = 1.0 / reference_escape(name, session, net)[0]
        stc = max(stc, p * r_eq * p * weights.get(name, 1.0))
    return stc


def reference_schedule(
    fp: Floorplan, power: PowerProfile, params: ThermalParams, config: SchedulerConfig
) -> Schedule:
    """The schedule run as the paper states it: an oracle for
    ``generate_schedule``, with none of its shortcuts.

    Every core is screened alone with ``simulate_session``.  Each attempt
    sorts the remaining cores by ``(-P*W, name)``, admits a candidate when
    the ``reference_stc`` of the session with it is within STCL, the first
    core exempt, and validates the session with ``simulate_session``; the
    violators get their weights times 1.1 in a new dict.  The errors are
    ``generate_schedule``'s.  There is no memo, no incremental pricing and
    no early exit, and no decision box: both ranges are NaN.
    """
    net = build_network(fp, params)
    check_tl(config.tl, net.ambient)
    bcmt = {name: simulate_session({name}, net, power).peak[1] for name in net.nodes}
    violations = [(name, temp) for name, temp in bcmt.items() if temp >= config.tl]
    if violations:
        worst = max(temp for _, temp in violations)
        raise ScreeningError(violations, worst + RESIDUAL_RTOL * max(1.0, abs(worst)))
    weights: dict[str, float] = {}
    remaining, sessions, length, effort = set(net.nodes), [], 0.0, 0.0
    while remaining:
        order = sorted(remaining, key=lambda n: (-power.power(n) * weights.get(n, 1.0), n))
        session = order[:1]
        for name in order[1:]:
            if reference_stc(session + [name], power, weights, net) <= config.stcl:
                session.append(name)
        result = simulate_session(session, net, power)
        duration = max(power.duration(name) for name in session)
        effort += duration
        if effort == math.inf:
            raise ValueError(
                "simulation effort overflowed to inf s in double precision; "
                "shorten the test durations"
            )
        hot = [n for n in sorted(session) if result.temperatures[net.position[n]] >= config.tl]
        if not hot:
            sessions.append(TestSession(frozenset(session), duration, result))
            length += duration
            remaining -= set(session)
            continue
        weights = dict(weights)
        for name in hot:
            weights[name] = weights.get(name, 1.0) * 1.1
            if weights[name] == math.inf:
                raise ValueError(
                    f"weight for {name!r} overflowed at weight factor 1.1 "
                    "before the core's STC term passed STCL; lower STCL"
                )
    return Schedule(
        sessions=tuple(sessions),
        total_length=length,
        simulation_effort=effort,
        stage1_report=bcmt,
        tl_range=(math.nan, math.nan),
        stcl_range=(math.nan, math.nan),
    )


def reference_document(schedule: Schedule, config: SchedulerConfig, params: ThermalParams) -> dict:
    """The schedule document as a plain dict, every session's temperature
    map built up front."""
    return {
        "config": {
            "tl_c": config.tl,
            "stcl": config.stcl,
            "weight_factor": WEIGHT_FACTOR,
            "core_order": "power_weight_desc",
        },
        "thermal_params": asdict(params),
        "stage1_bcmt_c": dict(schedule.stage1_report),
        "sessions": [
            {
                "cores": sorted(s.cores),
                "duration_s": s.duration,
                "temps_c": dict(zip(s.result.nodes, s.result.temperatures.tolist())),
                "peak": {"core": s.result.peak[0], "temperature_c": s.result.peak[1]},
            }
            for s in schedule.sessions
        ],
        "total_length_s": schedule.total_length,
        "simulation_effort_s": schedule.simulation_effort,
        "max_temperature_c": schedule.max_temperature,
    }


def reference_json(schedule: Schedule, config: SchedulerConfig, params: ThermalParams) -> str:
    """The schedule document's text, written whole: an oracle for
    ``scheduler._json_bytes``.  ``reference_document`` goes to one
    ``orjson.dumps``, which raises if the document holds a value it refuses."""
    document = reference_document(schedule, config, params)
    return orjson.dumps(document, option=orjson.OPT_INDENT_2 | orjson.OPT_APPEND_NEWLINE).decode()


def sweep_row(tl: float, stcl: float, schedule) -> str:
    """One grid point's sweep CSV row, in SWEEP_HEADER's columns, built from
    the CLI's limit and totals formats."""
    return f"{_limit(tl)},{_limit(stcl)},{_totals(schedule)}"


def traced_peak(fn):
    """Call ``fn()`` under tracemalloc and return its result and the traced
    peak, in bytes, above what is still traced when it returns: the memory
    the call held only while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - held


def memo_entries(die) -> list[tuple]:
    """Every entry of the die's attempt memo, ``(admitted, rejected,
    validated, children)``, from the root node down."""
    stack, entries = [die._attempts], []
    while stack:
        node = stack.pop()
        entries += node
        for *_, children in node:
            stack.extend(children.values())
    return entries
