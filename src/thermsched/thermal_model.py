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

where ``W(i)`` are packing weights.  They are a plain mapping from core
name to weight, in which an absent core has weight 1; a schedule run owns
them and raises the weights of cores caught exceeding the temperature
limit.

The path resistances exist only as conductances: ``thermal_sim.build_network``
derives them from the floorplan geometry once per floorplan and parameter
set, and ``escape_paths`` alone applies the usable-path rule to it.  A
core's R_eq depends only on which of its own neighbors are in the session,
so ``session_stc`` can evaluate just the members whose terms a change
touched; packing uses this to price a candidate in O(degree).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Collection, Mapping

from .floorplan import PowerProfile

if TYPE_CHECKING:
    from .thermal_sim import ThermalNetwork


@dataclass(frozen=True)
class ThermalParams:
    """Physical constants of the die and its vertical heat path.

    The command line sets the four fields with ``--k-silicon``,
    ``--die-thickness``, ``--r-vertical`` and ``--ambient``, whose defaults
    are the defaults here.  ``r_vertical_per_area`` lumps everything above
    the die (spreader, sink, convection) into a single area-normalized
    resistance; it is the main calibration knob for moving simulated
    temperatures into the regime of interest.  ``k_silicon``,
    ``die_thickness`` and ``r_vertical_per_area`` must be strictly positive
    and finite; ``t_ambient``, in Celsius and only ever an offset, may be
    any finite value.
    """

    k_silicon: float = 100.0            # thermal conductivity, W/(m*K)
    die_thickness: float = 0.5e-3       # m
    r_vertical_per_area: float = 5e-4   # K*m^2/W
    t_ambient: float = 45.0             # deg C

    def __post_init__(self):
        for name in ("k_silicon", "die_thickness", "r_vertical_per_area"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be strictly positive and finite")
        if not math.isfinite(self.t_ambient):
            raise ValueError("t_ambient must be finite")


def escape_paths(
    name: str, session: Collection[str], net: ThermalNetwork
) -> tuple[float, list[str]]:
    """A core's usable escape conductance within a session, and the
    session's cores it touches.

    Usable paths are the vertical one plus the laterals toward neighbors
    that are passive in the session (held at ambient); laterals toward
    other active cores are dropped.  Both are taken in one pass over the
    core's laterals, in floorplan order: the conductance is summed in that
    order, and the touched neighbors are listed in it.  ``name`` itself
    need not be in ``session``.
    """
    i = net.position[name]
    g = net.vertical[i]
    touched = []
    for j, lateral in net.lateral[i]:
        if net.nodes[j] in session:
            touched.append(net.nodes[j])
        else:
            g += lateral
    return g, touched


def equivalent_resistance(name: str, session: Collection[str], net: ThermalNetwork) -> float:
    """Parallel combination of a core's usable escape paths within a session:
    the reciprocal of ``escape_paths``' conductance."""
    if name not in session:
        raise ValueError(f"core {name!r} is not in the session")
    return 1.0 / escape_paths(name, session, net)[0]


def stc_term(
    name: str, r_eq: float, power: PowerProfile, weights: Mapping[str, float]
) -> float:
    """One member's STC term TC * P * W, with ``TC = P * r_eq``; a core
    absent from ``weights`` has weight 1.

    Evaluated left to right, so every caller that prices a member through
    here gets the same bits for the same R_eq.
    """
    p = power.power(name)
    return p * r_eq * p * weights.get(name, 1.0)


def session_stc(
    members: Collection[str],
    power: PowerProfile,
    weights: Mapping[str, float] | None,
    net: ThermalNetwork,
    session: Collection[str] | None = None,
) -> float:
    """Max over ``members`` of TC * P * W, each R_eq taken within ``session``.

    ``TC = P * R_eq`` is a member's predicted rise.  ``session`` defaults to
    ``members``, which makes the value the session thermal characteristic
    (STC) of ``members``; naming a larger ``session`` evaluates only some of
    its members' terms.  ``weights`` maps cores to their packing weights;
    a core absent from it, or every core when it is None, has weight 1.
    No members give 0.
    """
    if weights is None:
        weights = {}
    if session is None:
        session = members
    stc = 0.0
    for name in members:
        r_eq = equivalent_resistance(name, session, net)
        stc = max(stc, stc_term(name, r_eq, power, weights))
    return stc
