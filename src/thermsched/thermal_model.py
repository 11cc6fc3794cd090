"""Per-session thermal model: escape-path resistances, core TC, session STC.

An active core sheds heat two ways: vertically, through the package stack
above it to ambient, and laterally, through the die into adjacent cores.
Within a test session only the lateral paths toward PASSIVE cores are
usable; a passive core stays near ambient and acts as a heat sink, while a
path between two active cores carries little heat because both ends run
hot.  The parallel combination of the usable paths is the core's
equivalent thermal resistance for that session, and from it come the two
scalars that guide session packing:

* ``TC(i)  = P(i) * R_eq(i)``             predicted temperature rise, K
* ``STC    = max_i  TC(i) * P(i) * W(i)`` session thermal characteristic, K*W

where ``W(i)`` are packing weights, initially 1, that the scheduler raises
for cores caught exceeding the temperature limit.

The path resistances exist only as conductances: ``thermal_sim.build_network``
derives them from the floorplan geometry once per floorplan and parameter
set, and ``equivalent_resistance`` and ``session_stc`` read that compiled
network.  A core's R_eq depends only on which of its own neighbors are in
the session, so ``session_stc`` can evaluate just the members whose terms a
change touched; packing uses this to price a candidate that touches the
session in O(degree).  A core with no neighbor in the session has the R_eq
the network compiles once per node, ``singleton_resistance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import IO, TYPE_CHECKING, Collection, Iterable, Mapping

from .floorplan import PowerProfile, _records

if TYPE_CHECKING:
    from .thermal_sim import ThermalNetwork


@dataclass(frozen=True)
class ThermalParams:
    """Physical constants of the die and its vertical heat path.

    ``r_vertical_per_area`` lumps everything above the die (spreader, sink,
    convection) into a single area-normalized resistance; it is the main
    calibration knob for moving simulated temperatures into the regime of
    interest.
    """

    k_silicon: float = 100.0            # thermal conductivity, W/(m*K)
    die_thickness: float = 0.5e-3       # m
    r_vertical_per_area: float = 5e-4   # K*m^2/W
    t_ambient: float = 45.0             # deg C

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{f.name} must be strictly positive and finite")


_PARAM_KEYS = tuple(f.name for f in fields(ThermalParams))


def load_thermal_params(source: str | IO[str]) -> ThermalParams:
    """Read a flat ``key = value`` parameter file; unset keys keep defaults.

    Recognized keys: k_silicon, die_thickness, r_vertical_per_area,
    t_ambient.  '#' comments and blank lines are ignored.
    """
    values: dict[str, float] = {}
    for lineno, raw, line in _records(source):
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key not in _PARAM_KEYS:
            raise ValueError(f"line {lineno}: unknown parameter {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate parameter {key!r}")
        try:
            values[key] = float(value.strip())
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric value for {key!r}") from None
    return ThermalParams(**values)


class Weights:
    """Per-core packing weights; start at 1.0 and only ever grow."""

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[str, float] | None = None):
        values = dict(values) if values else {}
        for name, w in values.items():
            if not (math.isfinite(w) and w >= 1.0):
                raise ValueError(f"weight for {name!r} is {w}; weights never drop below 1")
        self._values = values

    def of(self, name: str) -> float:
        return self._values.get(name, 1.0)

    def bumped(self, names: Iterable[str], factor: float) -> "Weights":
        """New Weights with the given cores' weights multiplied by ``factor``."""
        if not (math.isfinite(factor) and factor >= 1.0):
            raise ValueError(f"bump factor {factor} must be finite; weights never shrink")
        values = dict(self._values)
        for name in names:
            values[name] = values.get(name, 1.0) * factor
            if values[name] == math.inf:
                # a term this far below STCL takes more bumps than a float holds
                raise ValueError(
                    f"weight for {name!r} overflowed at weight factor {factor!r} "
                    "before the core's STC term passed STCL; lower STCL"
                )
        return Weights(values)

    def __repr__(self) -> str:
        return f"Weights({self._values!r})"


def equivalent_resistance(name: str, session: Collection[str], net: ThermalNetwork) -> float:
    """Parallel combination of a core's usable escape paths within a session.

    Usable paths are the vertical one plus the laterals toward neighbors
    that are passive in the session (held at ambient); laterals toward
    other active cores are dropped.
    """
    if name not in session:
        raise ValueError(f"core {name!r} is not in the session")
    i = net.position[name]
    g = net.vertical[i]
    for j, lateral in net.lateral[i]:
        if net.nodes[j] in session:
            continue
        g += lateral
    return 1.0 / g


def stc_term(name: str, r_eq: float, power: PowerProfile, weights: Weights) -> float:
    """One member's STC term TC * P * W, with ``TC = P * r_eq``.

    Evaluated left to right, so every caller that prices a member through
    here gets the same bits for the same R_eq.
    """
    p = power.power(name)
    return p * r_eq * p * weights.of(name)


def session_stc(
    members: Collection[str],
    power: PowerProfile,
    weights: Weights | None,
    net: ThermalNetwork,
    session: Collection[str] | None = None,
) -> float:
    """Max over ``members`` of TC * P * W, each R_eq taken within ``session``.

    ``TC = P * R_eq`` is a member's predicted rise.  ``session`` defaults to
    ``members``, which makes the value the session thermal characteristic
    (STC) of ``members``; naming a larger ``session`` evaluates only some of
    its members' terms.  No members give 0.
    """
    if weights is None:
        weights = Weights()
    if session is None:
        session = members
    stc = 0.0
    for name in members:
        r_eq = equivalent_resistance(name, session, net)
        stc = max(stc, stc_term(name, r_eq, power, weights))
    return stc
