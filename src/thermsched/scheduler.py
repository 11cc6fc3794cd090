"""Greedy thermal-safe schedule generation with feedback weights.

Work that no limit changes is done once per die by ``compile_die``: the
thermal network is compiled, and every core is simulated alone, all cores
in one batched solve; a core's steady peak alone is its BCMT (baseline
single-core max temperature).  Each schedule run then has two stages:

1. Screening: a BCMT at or above the limit TL makes scheduling impossible
   -- adding concurrent tests only raises temperatures -- so screening
   fails with a diagnostic naming the offenders and the smallest TL that
   would pass.
2. Session packing: cores are tried hardest first, by test power times
   packing weight, and packed greedily into a session while the session
   thermal characteristic stays within STCL; then the session is validated
   by full simulation.  The run owns the weights, a plain core -> weight
   dict in which an absent core has weight 1.  Members whose simulated peak
   reaches TL get their weight multiplied (default 1.1) in a new dict, and
   the session is discarded and rebuilt from the remaining pool, which
   steers repeat offenders to the front and toward emptier sessions.  All
   simulated session time, discarded sessions included, counts as
   simulation effort; screening time does not.

With the floorplan, parameters and powers fixed, a session's simulated
temperatures depend only on its member set, so a compiled die remembers
every validation it has solved, and a TL x STCL sweep solves each distinct
session once.  A run's state after k attempts -- its packing order and
weights -- depends only on the weight factor and on which cores each
earlier attempt admitted and which it found too hot.  So a compiled die
also remembers the attempts runs made along each such path, each with the
STCLs it holds for, and a sweep packs a run's early attempts only where
no earlier run made them.

The first core entering a session is exempt from the STCL test: screening
already proved every single-core session safe, and without the exemption a
core whose singleton STC exceeds STCL could never be scheduled at all.
The exemption also guarantees termination, since weights grow until every
repeat offender is forced into a singleton session.  How many discards
that takes grows as the weight factor nears 1, so a run stops after
``ATTEMPTS_PER_CORE`` packing attempts per core.

A run compares TL and STCL with values only: BCMTs and member temperatures
with TL, STCs with STCL.  Every limit pair for which each of those
comparisons comes out the same way gives the same run, so a schedule
records the rectangle of limits it holds for (``Schedule.covers``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from collections.abc import Set
from decimal import ROUND_CEILING, Decimal, localcontext
from typing import Collection, Mapping, Sequence

import numpy as np

from . import thermal_sim
from .floorplan import Floorplan, PowerProfile
from .thermal_model import ThermalParams, escape_paths, session_stc, stc_term
from .thermal_sim import (
    RESIDUAL_RTOL,
    NetworkSolveError,
    SimulationResult,
    ThermalNetwork,
    simulate_session,
)

# Packing attempts a run may make per core before it gives up.  A discard
# multiplies its violators' weights by the weight factor, and a weight
# steers packing once it lifts a core's STC term past STCL, so the attempts
# a run needs grow with log(STCL / term) / log(weight factor).  The costliest
# case the tests run is STCL 1e300, a stand-in for no limit, with discards
# at weight factor 1.1: a violator's weight climbs about 1e300-fold, some
# 7,200 attempts, which is 3,620 per core on a two-core die.  The cap sits
# ten times above that; the demo15 sweep needs at most 1 per core (15
# attempts at its densest point).  On demo15 at TL 146 and STCL 100, weight
# factor 1.0001 finishes in 10,456 attempts, while 1.000001, which would
# need about a million, stops at the cap of 600,000 after about 50 s on a
# 2-vCPU host.
ATTEMPTS_PER_CORE = 40_000


@dataclass(frozen=True)
class SchedulerConfig:
    """Limits and weight factor for schedule generation."""

    tl: float                  # max allowable core temperature, deg C
    stcl: float                # session thermal characteristic limit, K*W
    weight_factor: float = 1.1

    def __post_init__(self):
        if not math.isfinite(self.tl):
            raise ValueError(f"tl must be finite, got {self.tl}")
        # an unbounded STCL would disable the weight feedback entirely:
        # weights steer packing only through the STC <= STCL test
        if not (math.isfinite(self.stcl) and self.stcl > 0):
            raise ValueError(f"stcl must be positive and finite, got {self.stcl}")
        if not (math.isfinite(self.weight_factor) and self.weight_factor > 1):
            raise ValueError(
                f"weight_factor must be finite and exceed 1, got {self.weight_factor}"
            )


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


class AttemptBudgetError(RuntimeError):
    """A run used up its packing attempts without scheduling every core."""

    def __init__(self, config: SchedulerConfig, budget: int):
        self.config = config
        self.budget = budget
        super().__init__(
            f"no thermal-safe schedule within {budget} packing attempts "
            f"({ATTEMPTS_PER_CORE} per core) at TL {config.tl!r} C, STCL "
            f"{config.stcl!r} and weight factor {config.weight_factor!r}; a "
            "discard multiplies its violators' weights by the weight factor until "
            "their STC terms pass STCL, so raise the weight factor or lower STCL"
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
    """Sequential list of thermal-safe sessions covering every core once."""

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

        Holds for a run on the same compiled die with the same weight
        factor.  ``tl_range`` runs from the largest value the run found
        below TL (the hottest BCMT, or a member temperature) to the smallest
        member temperature at or above TL; ``stcl_range`` from the largest
        STC admitted within STCL to the smallest STC found above it.  Inside
        both, every ``>= TL`` and ``<= STCL`` comparison the run made comes
        out the same way, so it builds the same sessions and discards,
        weights and effort.
        """
        lo_tl, hi_tl = self.tl_range
        lo_stcl, hi_stcl = self.stcl_range
        return lo_tl < tl <= hi_tl and lo_stcl <= stcl < hi_stcl


@dataclass(frozen=True, eq=False)
class CompiledDie:
    """One floorplan, parameter set and power profile, compiled for scheduling.

    Holds what every schedule run on the die reads and no limit changes:
    the compiled network, the test powers and every core's BCMT.  Two
    private memos let runs that share a die reuse each other's work:

    * ``_validated`` maps each validated member set to its ``TestSession``,
      so each distinct session is solved once.
    * ``_attempts`` maps a weight factor to the root of a tree of attempts.
      A node is the run state reached from the common start (every core in
      packing order, no weights) by a sequence of attempt outcomes; it is a
      list of entries ``(admitted, rejected, session, children)``, one per
      ``build_session`` call made from that state, where ``[admitted,
      rejected)`` are the call's STCL margins and ``children`` maps the
      attempt's violators, a sorted tuple that is empty when the session
      was accepted, to the next node.  At any STCL within the margins the
      call makes every comparison the same way, so it packs the same
      session.  A run records only its first ``len(net.nodes)`` attempts,
      as many as a run without discards makes at most, so a crawling run
      adds at most N entries.

    Both memos only gain entries, each by one ``dict.setdefault``,
    ``list.append`` or item assignment, so threads may share a die: at
    worst two of them pack or solve the same attempt twice.
    """

    net: ThermalNetwork
    power: PowerProfile
    bcmt: Mapping[str, float]  # core -> BCMT, deg C
    _validated: dict[frozenset[str], TestSession] = field(
        default_factory=dict, repr=False
    )
    _attempts: dict[float, list[tuple]] = field(default_factory=dict, repr=False)


def check_tl(tl: float, ambient: float) -> None:
    """Raise ValueError unless the temperature limit lies above ambient."""
    if not tl > ambient:
        raise ValueError(f"temperature limit {tl} C must exceed ambient {ambient} C")


def screen_cores(net: ThermalNetwork, power: PowerProfile) -> dict[str, float]:
    """Simulate every core alone and return its BCMT, in node order.

    One solve covers all cores: column ``c`` of ``P`` injects core ``c``'s
    test power alone, so column ``c`` of the solution is the rise of that
    core's singleton session, and the BCMT is ambient plus its maximum.
    A column that misses its residual tolerance raises NetworkSolveError
    naming its core.
    """
    try:
        rise = thermal_sim.solve_rise(
            net, np.diag([power.power(name) for name in net.nodes])
        )
    except NetworkSolveError as exc:
        if exc.column is None:
            raise
        raise NetworkSolveError(
            f"{exc} (screening core {net.nodes[exc.column]!r} alone)"
        ) from exc
    return dict(zip(net.nodes, (net.ambient + rise.max(axis=0)).tolist()))


def compile_die(fp: Floorplan, power: PowerProfile, params: ThermalParams) -> CompiledDie:
    """Compile the thermal network and screen every core, once per die.

    Raises NetworkSolveError when the network cannot be factored or a
    screening solve misses its tolerance.
    """
    # looked up on the module, so a wrapper installed there sees every compile
    net = thermal_sim.build_network(fp, params)
    return CompiledDie(net=net, power=power, bcmt=screen_cores(net, power))


def _ordered(
    cores: Collection[str], power: PowerProfile, weights: Mapping[str, float]
) -> list[str]:
    # hardest cores first; rising weights push repeat offenders to the front
    return sorted(
        cores, key=lambda name: (-power.power(name) * weights.get(name, 1.0), name)
    )


def build_session(
    candidates: Sequence[str],
    weights: Mapping[str, float],
    stcl: float,
    net: ThermalNetwork,
    power: PowerProfile,
    margins: list[float] | None = None,
) -> set[str]:
    """Greedily grow one session from candidates given in packing order.

    Candidates are tried in the order given; ``generate_schedule`` sorts
    them once per weight set.  A set has no fixed order, so passing one
    raises ``TypeError`` rather than packing in hash order.  Each candidate
    is kept only if the enlarged session's STC stays within ``stcl``.  The
    first candidate is always admitted -- see the module docstring.

    The STC is kept incrementally.  A joining core ``c`` only removes
    passive escape paths: it drops one lateral term from the conductance
    sum of each neighbor already in the session and adds none.  Dropping a
    non-negative term from a float sum of non-negative terms, kept in the
    same order, cannot raise any partial sum, since rounding is monotone;
    so no member's R_eq can fall and no ``TC * P * W`` term can shrink.
    Members not adjacent to ``c`` keep bit-identical terms.  The enlarged
    session's STC is therefore exactly the max of the current STC, the term
    of ``c`` and the terms of its neighbors in the session, each priced
    within the enlarged session, and every ``<= stcl`` decision matches a
    full recompute.  One scan of ``c``'s escape paths
    (``thermal_model.escape_paths``) gives both its own R_eq and the
    neighbors it touches; only those neighbors are re-priced, through
    ``session_stc``.

    One shortcut skips evaluations and keeps the decisions exact: the STC
    never falls, and only the exempt first core can take it past ``stcl``.
    Once it has, every later candidate's enlarged STC is above ``stcl``
    too, so the singleton is returned at once.

    ``margins``, if given, is a list that receives this call's
    ``[admitted, rejected]``: the largest STC found within ``stcl``, -inf
    if none, and the smallest found above it, the early exit's included,
    inf if none.  The admitted STCs are the session's STC after each
    admission, which never falls, so the largest is the final one.
    """
    if isinstance(candidates, Set):
        raise TypeError(
            "build_session tries candidates in the order given; pass a sequence "
            "in packing order, not a set"
        )
    if not candidates:
        raise ValueError("no cores available to build a session from")
    session: set[str] = set()
    stc = 0.0
    rejected = math.inf
    for name in candidates:
        g, touched = escape_paths(name, session, net)
        session.add(name)
        enlarged = max(stc, stc_term(name, 1.0 / g, power, weights))
        if touched:
            enlarged = max(enlarged, session_stc(touched, power, weights, net, session))
        if len(session) == 1 or enlarged <= stcl:
            stc = enlarged
            if stc > stcl:  # the exempt first core: nothing else can join
                break
        else:
            session.remove(name)
            if enlarged < rejected:
                rejected = enlarged
    if margins is not None:
        # over the limit, the exempt first core ended the attempt at once
        margins[:] = (stc, rejected) if stc <= stcl else (-math.inf, stc)
    return session


def generate_schedule(die: CompiledDie, config: SchedulerConfig) -> Schedule:
    """Screen, then pack and validate sessions until every core is scheduled.

    Deterministic for identical inputs; an attempt already packed on
    ``die`` at an STCL within its margins, and a validation already solved
    there, are reused, not made again.  Raises ScreeningError listing
    every core whose BCMT reaches TL and the smallest limit that would pass
    (one solver tolerance above the hottest BCMT, printed rounded up); after a
    successful screen the loop always terminates (see module docstring),
    or raises AttemptBudgetError after ``ATTEMPTS_PER_CORE`` attempts per
    core, or ValueError if a violator's weight overflows first.
    """
    net, power = die.net, die.power
    check_tl(config.tl, net.ambient)
    violations = [(name, temp) for name, temp in die.bcmt.items() if temp >= config.tl]
    if violations:
        worst = max(temp for _, temp in violations)
        suggested = worst + RESIDUAL_RTOL * max(1.0, abs(worst))
        raise ScreeningError(violations, suggested)
    # core -> packing weight, 1 where absent.  A discard replaces the dict
    # rather than changing it, so a weight set once read stays as it was.
    weights: dict[str, float] = {}
    # the packing order changes only with the weights: sort once per weight
    # set and drop scheduled cores from it
    remaining = _ordered(net.nodes, power, weights)
    sessions: list[TestSession] = []
    effort = 0.0
    budget = attempts_left = ATTEMPTS_PER_CORE * len(net.nodes)
    # the values compared with TL closest to it on each side, and the
    # STCs closest to STCL, folded from each attempt's margins
    below_tl, above_tl = max(die.bcmt.values()), math.inf
    lo_stcl, hi_stcl = -math.inf, math.inf
    # this run's node in the die's attempt memo; None once the run has made
    # as many attempts as the die has cores
    node = die._attempts.setdefault(config.weight_factor, [])
    while remaining:
        if not attempts_left:
            raise AttemptBudgetError(config, budget)
        attempts_left -= 1
        for entry in node or ():
            if entry[0] <= config.stcl < entry[1]:
                break
        else:
            margins: list[float] = []
            members = frozenset(
                build_session(remaining, weights, config.stcl, net, power, margins)
            )
            session = die._validated.get(members)
            if session is None:
                session = die._validated[members] = TestSession(
                    members,
                    max(power.duration(name) for name in members),
                    simulate_session(members, net, power),
                )
            entry = (margins[0], margins[1], session, {})
            if node is not None:
                node.append(entry)
        admitted, rejected, session, children = entry
        lo_stcl, hi_stcl = max(lo_stcl, admitted), min(hi_stcl, rejected)
        members = session.cores
        effort += session.duration
        temperatures = session.result.temperatures
        violators = []
        for name in sorted(members):
            temp = temperatures[net.position[name]]
            if temp >= config.tl:
                violators.append(name)
                if temp < above_tl:
                    above_tl = temp
            elif temp > below_tl:
                below_tl = temp
        if budget - attempts_left < len(net.nodes):
            node = children.setdefault(tuple(violators), [])
        else:
            node = None
        if violators:
            # session discarded; its simulated time still counts as effort
            weights = dict(weights)
            for name in violators:
                weights[name] = weights.get(name, 1.0) * config.weight_factor
                if weights[name] == math.inf:
                    # a term this far below STCL takes more bumps than a float holds
                    raise ValueError(
                        f"weight for {name!r} overflowed at weight factor "
                        f"{config.weight_factor!r} before the core's STC term "
                        "passed STCL; lower STCL"
                    )
            remaining = _ordered(remaining, power, weights)
            continue
        sessions.append(session)
        remaining = [name for name in remaining if name not in members]
    total_length = sum(s.duration for s in sessions)
    return Schedule(
        sessions=tuple(sessions),
        total_length=total_length,
        simulation_effort=effort,
        stage1_report=dict(die.bcmt),
        tl_range=(float(below_tl), float(above_tl)),
        stcl_range=(lo_stcl, hi_stcl),
    )


def schedule_to_json(
    schedule: Schedule, config: SchedulerConfig, params: ThermalParams
) -> str:
    """The schedule as an indented JSON document, with config and params echoed.

    The text is exactly ``json.dumps(document, indent=2) + "\n"`` of the
    document it describes, written directly: ``json`` falls back to its
    pure-Python encoder whenever ``indent`` is set, and an N-core die gives
    N temperatures per session.  Each node's indented, escaped key is built
    once per document, and every temperature is written with
    ``float.__repr__``, as ``json`` writes a finite float; the solver
    rejects non-finite temperatures.  The small header and scalars go
    through ``json.dumps``.
    """
    header = json.dumps(
        {
            "config": {
                "tl_c": config.tl,
                "stcl": config.stcl,
                "weight_factor": config.weight_factor,
                # the one packing order, echoed for the document's readers
                "core_order": "power_weight_desc",
            },
            "thermal_params": {
                "k_silicon": params.k_silicon,
                "die_thickness": params.die_thickness,
                "r_vertical_per_area": params.r_vertical_per_area,
                "t_ambient": params.t_ambient,
            },
        },
        indent=2,
    )
    # every session of a schedule is solved on one network, so one node tuple
    keys = [f"        {json.dumps(n)}: " for n in schedule.sessions[0].result.nodes]
    sessions = []
    for s in schedule.sessions:
        cores = ",\n".join(f"        {json.dumps(n)}" for n in sorted(s.cores))
        temps = map(float.__repr__, s.result.temperatures.tolist())
        peak_core, peak_temp = s.result.peak
        sessions.append(
            f'    {{\n      "cores": [\n{cores}\n      ],\n'
            f'      "duration_s": {json.dumps(s.duration)},\n'
            f'      "temps_c": {_json_object(map(str.__add__, keys, temps), "      ")},\n'
            f'      "peak": {{\n        "core": {json.dumps(peak_core)},\n'
            f'        "temperature_c": {json.dumps(peak_temp)}\n      }}\n    }}'
        )
    bcmt = (
        f"    {json.dumps(name)}: {float.__repr__(temp)}"
        for name, temp in schedule.stage1_report.items()
    )
    sessions_list = ",\n".join(sessions)
    return (
        f"{header[:-2]},\n"  # reopen the header object: drop its closing "\n}"
        f'  "stage1_bcmt_c": {_json_object(bcmt, "  ")},\n'
        f'  "sessions": [\n{sessions_list}\n  ],\n'
        f'  "total_length_s": {json.dumps(schedule.total_length)},\n'
        f'  "simulation_effort_s": {json.dumps(schedule.simulation_effort)},\n'
        f'  "max_temperature_c": {json.dumps(schedule.max_temperature)}\n'
        "}\n"
    )


def _json_object(members, indent: str) -> str:
    """A JSON object from its indented ``"key": value`` member lines, at
    least one, since a floorplan has a core; ``indent`` is the indentation
    of the closing brace."""
    body = ",\n".join(members)
    return f"{{\n{body}\n{indent}}}"
