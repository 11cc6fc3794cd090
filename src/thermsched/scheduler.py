"""Greedy thermal-safe schedule generation with feedback weights.

Work that no limit changes is done once per die by ``compile_die``: the
thermal network is compiled, and every core is simulated alone, the cores
in batched solves of ``_SCREEN_BLOCK`` at a time; a core's steady peak
alone is its BCMT (baseline single-core max temperature), and its
simulated singleton session is that session's validation, so no run solves
a singleton again.  Compiling holds no N x N array but the two the die
keeps: the factor of ``G`` and the singletons' temperatures.  Each
schedule run then has two stages:

1. Screening: a BCMT at or above the limit TL makes scheduling impossible
   -- adding concurrent tests only raises temperatures -- so screening
   fails with a diagnostic naming the offenders and the smallest TL that
   would pass.
2. Session packing: cores are tried hardest first, by test power times
   packing weight, and packed greedily into a session while the session
   thermal characteristic stays within STCL; then the session is validated
   by full simulation.  The run owns the weights, a list in node order
   that starts at all ones.  Members whose simulated peak reaches TL get
   their weight multiplied by ``WEIGHT_FACTOR`` (1.1) in place, and the
   session is discarded and rebuilt from the remaining pool, re-sorted in
   place, which steers repeat offenders to the front and toward emptier
   sessions.  All simulated session time, discarded sessions included,
   counts as simulation effort; screening time does not.

With the floorplan, parameters and powers fixed, a session's simulated
temperatures depend only on its member set, so a compiled die remembers
every validation it has solved, keyed by the member set's node indices,
screening's singletons first, and a TL x STCL sweep solves each distinct
larger session once.  A run's state after k attempts -- its packing order
and weights -- depends only on which cores each earlier attempt admitted
and which it found too hot, and for one packed session the cores too hot
are those at or above TL, so their number names them.  So a compiled die
also remembers the attempts runs made along each such path, each with the
STCLs it holds for and its next states keyed by that number, and a sweep
packs a run's early attempts only where no earlier run made them, reading
each session's member temperatures once.  A run records its first N
attempts on N cores and no state after its last.

The first core entering a session is exempt from the STCL test: screening
already proved every single-core session safe, and without the exemption a
core whose singleton STC exceeds STCL could never be scheduled at all.
The exemption also guarantees termination, since weights grow until every
repeat offender is forced into a singleton session.  Every discard
multiplies at least one weight by 1.1, and a weight that starts at 1
overflows to inf on its 7,448th bump, where the run raises ValueError; so
an N-core run ends within N * 7,449 attempts.

A run compares TL and STCL with values only: BCMTs and member temperatures
with TL, STCs with STCL.  Every limit pair for which each of those
comparisons comes out the same way gives the same run, so a schedule
records the rectangle of limits it holds for (``Schedule.covers``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from decimal import ROUND_CEILING, Decimal, localcontext
from typing import Mapping, Sequence

import numpy as np
import orjson

from . import thermal_sim
from .floorplan import Floorplan, PowerProfile, as_float
from .thermal_model import ThermalParams, candidate_term, session_stc
from .thermal_sim import (
    RESIDUAL_RTOL,
    NetworkSolveError,
    SimulationResult,
    ThermalNetwork,
    simulate_session,
)

# A discard multiplies each violator's packing weight by this factor.
WEIGHT_FACTOR = 1.1

# Screening solves this many cores per block, so its injections, solution
# and residual take 3 * N * 128 floats, not 3 * N * N.  On a 2-vCPU host at
# N=1600, blocks of 128 or 256 screened in 322 ms against 339 ms for one
# batched solve, and blocks of 64 in 355 ms (medians of 9); at N=400 every
# size was within noise.
_SCREEN_BLOCK = 128


@dataclass(frozen=True)
class SchedulerConfig:
    """Limits for schedule generation, real numbers stored as floats."""

    tl: float                  # max allowable core temperature, deg C
    stcl: float                # session thermal characteristic limit, K*W

    def __post_init__(self):
        tl, stcl = as_float(self.tl), as_float(self.stcl)
        if tl is None or stcl is None:
            raise ValueError(f"tl and stcl must be real numbers, got {self.tl!r}, {self.stcl!r}")
        if not math.isfinite(tl):
            raise ValueError(f"tl must be finite, got {self.tl}")
        # an unbounded STCL would disable the weight feedback entirely:
        # weights steer packing only through the STC <= STCL test
        if not (math.isfinite(stcl) and stcl > 0):
            raise ValueError(f"stcl must be positive and finite, got {self.stcl}")
        object.__setattr__(self, "tl", tl)
        object.__setattr__(self, "stcl", stcl)


class ScreeningError(RuntimeError):
    """One or more cores exceed the temperature limit even when tested alone."""

    def __init__(self, violations: list[tuple[str, float]], suggested_tl: float):
        self.violations = list(violations)
        self.suggested_tl = suggested_tl
        listing = ", ".join(f"{name}: {temp:.2f} C" for name, temp in self.violations)
        # rounded up, not to nearest, so that the printed limit passes too
        with localcontext() as ctx:
            ctx.rounding = ROUND_CEILING
            shown = f"{Decimal(suggested_tl):.2f}"
        super().__init__(
            f"single-core screening failed for {len(self.violations)} core(s) "
            f"({listing}); raise the temperature limit to at least "
            f"{shown} C or lower the offending cores' test power"
        )


@dataclass(frozen=True)
class TestSession:
    """One validated set of concurrently tested cores.

    Members run concurrently, so ``duration`` is the longest member test.
    """

    cores: frozenset[str]
    duration: float            # s
    result: SimulationResult


@dataclass(frozen=True)
class Schedule:
    """Sequential list of thermal-safe sessions covering every core once.

    ``stage1_report`` is the compiled die's ``bcmt`` itself, shared by
    every run on the die: read it, do not change it.
    """

    sessions: tuple[TestSession, ...]
    total_length: float        # s, sum of session durations
    simulation_effort: float   # s, all simulated session time incl. discards
    stage1_report: Mapping[str, float]  # core -> BCMT, deg C
    tl_range: tuple[float, float]      # deg C, (lo, hi]: see covers()
    stcl_range: tuple[float, float]    # K*W, [lo, hi): see covers()

    @property
    def max_temperature(self) -> float:
        """Peak simulated temperature over all sessions in the schedule."""
        return max(s.result.peak[1] for s in self.sessions)

    def covers(self, tl: float, stcl: float) -> bool:
        """Whether a run at ``tl`` and ``stcl`` gives exactly this schedule.

        Holds for a run on the same compiled die.  ``tl_range`` runs from
        the largest value the run found below TL (the hottest BCMT, or a
        member temperature) to the smallest member temperature at or above
        TL; ``stcl_range`` from the largest STC admitted within STCL to the
        smallest STC found above it.  Inside both, every ``>= TL`` and
        ``<= STCL`` comparison the run made comes out the same way, so it
        builds the same sessions and discards, weights and effort.
        """
        lo_tl, hi_tl = self.tl_range
        lo_stcl, hi_stcl = self.stcl_range
        return lo_tl < tl <= hi_tl and lo_stcl <= stcl < hi_stcl


@dataclass(frozen=True, eq=False)
class CompiledDie:
    """One floorplan, parameter set and power profile, compiled for scheduling.

    Holds what every schedule run on the die reads and no limit changes:
    the compiled network, the test powers and every core's BCMT.  ``bcmt``
    is every run's ``stage1_report``, shared, not copied, so it is
    read-only.  Packing works on node indices: ``_powers`` holds the test
    powers in node order, ``_keys`` the packing keys ``(-P * W, name)`` at
    weights all one, and ``_start`` the nodes sorted by them, every run's
    start order.  Two private memos let runs that share a die reuse each
    other's work:

    * ``_sessions`` maps each validated member set, a frozenset of node
      indices, to ``(session, indices, temperatures)``: its
      ``TestSession``, its nodes in name order and their temperatures as
      floats.  ``compile_die`` seeds it with every core's singleton session
      from screening, whose temperatures are rows of read-only ``(k, N)``
      arrays, one per screening block, N² floats in all; so no run solves
      a singleton, and each distinct larger session is solved once.
    * ``_attempts`` is the root of a tree of attempts.  A node is the run
      state reached from the common start (every core in packing order, no
      weights) by a sequence of attempt outcomes; it is a list of entries
      ``(admitted, rejected, validated, children)``, one per
      ``build_session`` call made from that state, where ``[admitted,
      rejected)`` are the call's STCL margins, ``validated`` the session's
      ``_sessions`` value, the same object, and ``children`` maps the
      number of violators, 0 when the session was accepted, to the next
      node.  The violators are the members at or above TL, an upper set of
      the session's fixed temperatures, so their count names them.
      At any STCL within the margins the call makes every comparison the
      same way, so it packs the same session.  A run records only its first
      ``len(net.nodes)`` attempts, as many as a run without discards makes
      at most, so a run with many discards adds at most N entries, and it
      adds no node after its last attempt: every node holds an entry.

    The memos only gain entries, each by one ``dict.setdefault`` or
    ``list.append``, and a run changes only the weights, keys and pool it
    owns, so threads may share a die: at worst two of them pack or solve
    the same attempt twice.
    """

    net: ThermalNetwork
    power: PowerProfile
    bcmt: Mapping[str, float]  # core -> BCMT, deg C
    _powers: tuple[float, ...] = field(repr=False)  # W, per node
    _keys: tuple[tuple[float, str], ...] = field(repr=False)  # (-P, name), per node
    _start: tuple[int, ...] = field(repr=False)  # node indices sorted by _keys
    _sessions: dict[frozenset[int], tuple] = field(repr=False)
    _attempts: list[tuple] = field(default_factory=list, repr=False)


def check_tl(tl: float, ambient: float) -> None:
    """Raise ValueError unless the temperature limit lies above ambient."""
    if not tl > ambient:
        raise ValueError(f"temperature limit {tl} C must exceed ambient {ambient} C")


def screen_cores(net: ThermalNetwork, power: PowerProfile) -> list[TestSession]:
    """Simulate every core alone; return the singleton sessions in node order.

    Cores are solved in blocks of ``_SCREEN_BLOCK`` consecutive nodes, one
    ``solve_columns`` call per block: column ``j`` of a block's ``P``
    injects the test power of the block's ``j``-th core alone, so column
    ``j`` of its solution is the rise of that core's singleton session.  A
    column's solve does not depend on the other columns, so with the pinned
    one-thread OpenBLAS it is bit for bit the rise ``simulate_session({c})``
    solves.  A session's temperatures are a row of its block's read-only
    ``(k, N)`` array, and ``P`` is never N x N.  A session's peak is the
    core's BCMT.  A column that misses its residual tolerance raises
    NetworkSolveError naming its core; its ``column``, and its cause's, is
    the core's node index.
    """
    n = len(net.nodes)
    powers = [power.power(name) for name in net.nodes]
    results: list[SimulationResult] = []
    for start in range(0, n, _SCREEN_BLOCK):
        block = powers[start:start + _SCREEN_BLOCK]
        injections = np.zeros((n, len(block)))
        injections[start:start + len(block)] = np.diag(block)
        try:
            results += thermal_sim.solve_columns(net, injections)
        except NetworkSolveError as exc:
            exc.column += start
            raise NetworkSolveError(
                f"{exc} (screening core {net.nodes[exc.column]!r} alone)", exc.column
            ) from exc
    return [
        TestSession(frozenset((name,)), power.duration(name), result)
        for name, result in zip(net.nodes, results)
    ]


def compile_die(fp: Floorplan, power: PowerProfile, params: ThermalParams) -> CompiledDie:
    """Compile the thermal network and screen every core, once per die.

    The screened singleton sessions, in node order, give ``bcmt`` and seed
    the die's validation memo, so no run solves a singleton again.  Raises
    NetworkSolveError when the network cannot be factored or a screening
    solve misses its tolerance, and PowerProfileError, before any of that
    work, when ``power`` has no entry for a core of ``fp``.
    """
    power._check_covers(fp.names)
    # looked up on the module, so a wrapper installed there sees every compile
    net = thermal_sim.build_network(fp, params)
    singletons = screen_cores(net, power)
    powers = tuple(power.power(name) for name in net.nodes)
    keys = tuple((-p, name) for p, name in zip(powers, net.nodes))  # unique names
    return CompiledDie(
        net=net,
        power=power,
        bcmt={name: s.result.peak[1] for name, s in zip(net.nodes, singletons)},
        _powers=powers,
        _keys=keys,
        _start=tuple(sorted(range(len(keys)), key=keys.__getitem__)),
        _sessions={
            frozenset((i,)): (s, [i], [float(s.result.temperatures[i])])
            for i, s in enumerate(singletons)
        },
    )


def build_session(
    candidates: Sequence[int],
    weights: Sequence[float],
    stcl: float,
    net: ThermalNetwork,
    powers: Sequence[float],
    margins: list[float],
) -> list[int]:
    """Greedily grow one session from candidates given in packing order.

    Candidates, weights and powers are as in ``thermal_model``: candidates
    are node indices of ``net``, and ``weights`` and ``powers`` hold each
    node's packing weight and test power in node order.  Returns the
    admitted nodes in the order they joined.

    Candidates are tried in the order given; ``generate_schedule`` sorts
    them again only at a discard.  Each candidate is kept only if the
    enlarged session's STC stays within ``stcl``.  The first candidate is
    always admitted -- see the module docstring.

    The session is a ``bytearray`` of membership flags, and its STC is
    kept incrementally.  A joining core ``c`` only removes passive escape
    paths: it drops one lateral term from the conductance sum of each
    neighbor already in the session and adds none.  Dropping a
    non-negative term from a float sum of non-negative terms, kept in the
    same order, cannot raise any partial sum, since rounding is monotone;
    so no member's R_eq can fall and no ``TC * P * W`` term can shrink.
    Members not adjacent to ``c`` keep bit-identical terms.  The enlarged
    session's STC is therefore exactly the max of the current STC, the term
    of ``c`` and the terms of its neighbors in the session, each priced
    within the enlarged session, and every ``<= stcl`` decision matches a
    full recompute.  One scan of ``c``'s escape paths
    (``thermal_model.candidate_term``) gives both its own term and the
    neighbors it touches; only those neighbors are re-priced, through
    ``session_stc``.  Packing only compares the terms these two return.

    One shortcut skips evaluations and keeps the decisions exact: the STC
    never falls, and only the exempt first core can take it past ``stcl``.
    Once it has, every later candidate's enlarged STC is above ``stcl``
    too, so the singleton is returned at once.

    ``margins`` is a list that receives this call's ``[admitted,
    rejected]``: the largest STC found within ``stcl``, -inf if none, and
    the smallest found above it, the early exit's included, inf if none.
    The admitted STCs are the session's STC after each admission, which
    never falls, so the largest is the final one.
    """
    active = bytearray(len(net.nodes))
    admitted: list[int] = []
    stc = 0.0
    rejected = math.inf
    for i in candidates:
        term, touched = candidate_term(i, powers, weights, net, active)
        active[i] = 1
        enlarged = term if term > stc else stc
        if touched:
            neighbors = session_stc(touched, powers, weights, net, active)
            if neighbors > enlarged:
                enlarged = neighbors
        if not admitted or enlarged <= stcl:
            admitted.append(i)
            stc = enlarged
            if stc > stcl:  # the exempt first core: nothing else can join
                break
        else:
            active[i] = 0
            if enlarged < rejected:
                rejected = enlarged
    # over the limit, the exempt first core ended the attempt at once
    margins[:] = (stc, rejected) if stc <= stcl else (-math.inf, stc)
    return admitted


def generate_schedule(die: CompiledDie, config: SchedulerConfig) -> Schedule:
    """Screen, then pack and validate sessions until every core is scheduled.

    Deterministic for identical inputs; an attempt already packed on
    ``die`` at an STCL within its margins, and a validation already solved
    there, are reused, not made again.  Raises ScreeningError listing
    every core whose BCMT reaches TL and the smallest limit that would pass
    (one solver tolerance above the hottest BCMT, printed rounded up).  After
    a successful screen the loop ends within N * 7,449 attempts on N cores
    (see module docstring): with a schedule, or with ValueError when a
    violator's weight or the simulation effort overflows.
    """
    net, power, powers = die.net, die.power, die._powers
    names = net.nodes
    check_tl(config.tl, net.ambient)
    hottest = max(die.bcmt.values())
    if hottest >= config.tl:
        violations = [(name, temp) for name, temp in die.bcmt.items() if temp >= config.tl]
        raise ScreeningError(violations, hottest + RESIDUAL_RTOL * max(1.0, abs(hottest)))
    # the run's packing weights and keys in node order, which a discard
    # bumps in place, and the unscheduled nodes in packing order
    weights = [1.0] * len(names)
    keys, remaining = list(die._keys), list(die._start)
    sessions: list[TestSession] = []
    # both totals add durations left to right; sum() of floats is
    # compensated from Python 3.12 on, which would move the length's last bit
    total_length = effort = 0.0
    # the values compared with TL closest to it on each side, and the
    # STCs closest to STCL, folded from each attempt's margins
    below_tl, above_tl = hottest, math.inf
    lo_stcl, hi_stcl = -math.inf, math.inf
    # this run's node in the die's attempt memo; once the run has made as
    # many attempts as the die has cores, a fresh list no other run reads
    node, attempts = die._attempts, 0
    while remaining:
        attempts += 1
        for entry in node:
            if entry[0] <= config.stcl < entry[1]:
                break
        else:
            margins: list[float] = []
            members = frozenset(
                build_session(remaining, weights, config.stcl, net, powers, margins)
            )
            validated = die._sessions.get(members)
            if validated is None:
                # a new member set: the session and its solve name their cores
                indices = sorted(members, key=names.__getitem__)
                cores = frozenset([names[i] for i in indices])
                session = TestSession(
                    cores,
                    max(power.duration(name) for name in cores),
                    simulate_session(cores, net, power),
                )
                validated = die._sessions.setdefault(
                    members,
                    (session, indices, session.result.temperatures[indices].tolist()),
                )
            entry = (margins[0], margins[1], validated, {})
            node.append(entry)
        admitted, rejected, (session, indices, temperatures), children = entry
        lo_stcl, hi_stcl = max(lo_stcl, admitted), min(hi_stcl, rejected)
        effort += session.duration
        if effort == math.inf:
            # the length adds some of the same durations in the same order,
            # so it overflows no earlier than the effort
            raise ValueError(
                "simulation effort overflowed to inf s in double precision; "
                "shorten the test durations"
            )
        violators = []
        for i, temp in zip(indices, temperatures):
            if temp >= config.tl:
                violators.append(i)
                if temp < above_tl:
                    above_tl = temp
            elif temp > below_tl:
                below_tl = temp
        if violators:
            # session discarded; its simulated time still counts as effort
            for i in violators:
                weights[i] *= WEIGHT_FACTOR
                if weights[i] == math.inf:
                    # a term this far below STCL takes more bumps than a float holds
                    raise ValueError(
                        f"weight for {names[i]!r} overflowed at weight factor "
                        f"{WEIGHT_FACTOR!r} before the core's STC term "
                        "passed STCL; lower STCL"
                    )
                keys[i] = (-powers[i] * weights[i], names[i])
            # the keys order the nodes totally, so any order sorts the same
            remaining.sort(key=keys.__getitem__)
        else:
            sessions.append(session)
            total_length += session.duration
            if len(indices) == 1:
                remaining.remove(indices[0])
            else:
                taken = set(indices)
                remaining = [i for i in remaining if i not in taken]
        if remaining:
            # the violators are the members at or above TL, an upper set of
            # the session's fixed temperatures, so their count names them
            node = children.setdefault(len(violators), []) if attempts < len(names) else []
    return Schedule(
        sessions=tuple(sessions),
        total_length=total_length,
        simulation_effort=effort,
        stage1_report=die.bcmt,
        tl_range=(below_tl, above_tl),
        stcl_range=(lo_stcl, hi_stcl),
    )


def schedule_to_json(
    schedule: Schedule, config: SchedulerConfig, params: ThermalParams
) -> str:
    """The schedule as an indented JSON document, with config and params echoed.

    The text is the decoding of ``_json_bytes``, whose bytes the CLI writes:
    orjson's indented rendering, which ``json.loads`` reads back key for key
    and float for float.  With names in ASCII without DEL and floats zero or
    of magnitude within ``[1e-4, 1e16)`` it is the ``json`` module's with
    ``indent=2``, plus a newline; elsewhere orjson writes other characters
    raw, and ``1e16`` or ``0.00001`` for ``1e+16`` or ``1e-05``.
    """
    return _json_bytes(schedule, config, params).decode()


def _temperature_map(result: SimulationResult) -> dict[str, float]:
    return dict(zip(result.nodes, result.temperatures.tolist()))


def _json_bytes(
    schedule: Schedule, config: SchedulerConfig, params: ThermalParams
) -> bytes:
    """``schedule_to_json``'s document as UTF-8 bytes, never held as text.

    Each session's ``"temps_c"`` holds its ``SimulationResult``, and the
    encoder's ``default`` hook, ``_temperature_map``, builds that session's
    map when it reaches it, so one map is alive at a time beside the bytes
    written so far.  orjson writes every value that the constructors let in.
    """
    document = {
        "config": {
            "tl_c": config.tl,
            "stcl": config.stcl,
            # the one weight factor and packing order, echoed for the
            # document's readers
            "weight_factor": WEIGHT_FACTOR,
            "core_order": "power_weight_desc",
        },
        "thermal_params": asdict(params),
        "stage1_bcmt_c": dict(schedule.stage1_report),
        "sessions": [
            {
                "cores": sorted(s.cores),
                "duration_s": s.duration,
                "temps_c": s.result,
                "peak": {"core": s.result.peak[0], "temperature_c": s.result.peak[1]},
            }
            for s in schedule.sessions
        ],
        "total_length_s": schedule.total_length,
        "simulation_effort_s": schedule.simulation_effort,
        "max_temperature_c": schedule.max_temperature,
    }
    # without OPT_PASSTHROUGH_DATACLASS orjson writes a dataclass's fields
    # itself and never calls the hook
    return orjson.dumps(
        document,
        default=_temperature_map,
        option=orjson.OPT_INDENT_2 | orjson.OPT_APPEND_NEWLINE
        | orjson.OPT_PASSTHROUGH_DATACLASS,
    )
