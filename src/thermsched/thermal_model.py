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

where ``W(i)`` are packing weights, which a schedule run owns and raises
for cores caught exceeding the temperature limit.

The path resistances exist only as conductances: ``thermal_sim.build_network``
derives them from the floorplan geometry once per floorplan and parameter
set.  The model works on node indices into that network: a session is a
``bytearray`` of membership flags, and powers and weights are sequences in
node order, so pricing a term reads lists only.  ``candidate_term`` prices
one node as it joins a session and lists the members it touches, and
``session_stc`` prices a list of nodes with the same rule in one flat loop;
both evaluate every term the same way, so this module is the one owner of
the pricing rule.  A core's R_eq depends only on which of its own neighbors
are in the session, so ``session_stc`` can evaluate just the members whose
terms a change touched; packing uses this to price a candidate in
O(degree).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .floorplan import as_float

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
    any finite value.  Each is a real number (``as_float``), stored as a float.
    """

    k_silicon: float = 100.0            # thermal conductivity, W/(m*K)
    die_thickness: float = 0.5e-3       # m
    r_vertical_per_area: float = 5e-4   # K*m^2/W
    t_ambient: float = 45.0             # deg C

    def __post_init__(self):
        for name, given in vars(self).items():
            value = as_float(given)
            if value is None:
                raise ValueError(f"{name} must be a real number, got {given!r}")
            if name == "t_ambient" and not math.isfinite(value):
                raise ValueError("t_ambient must be finite")
            if name != "t_ambient" and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be strictly positive and finite")
            object.__setattr__(self, name, value)


def candidate_term(
    i: int,
    powers: Sequence[float],
    weights: Sequence[float],
    net: ThermalNetwork,
    active: bytearray,
) -> tuple[float, list[int]]:
    """Node ``i``'s ``TC * P * W`` term as it joins a session, and the
    session's nodes it touches.

    ``active[j]`` is nonzero exactly when node ``j`` is in the session.
    Usable paths are the vertical one plus the laterals toward neighbors
    that are passive in the session (held at ambient); laterals toward
    other active nodes are dropped.  Both are taken in one pass over the
    node's laterals, in floorplan order: the conductance is summed in that
    order, and the touched neighbors are listed in it.  Node ``i``'s own
    flag is not read, so the term is the one ``session_stc`` gives ``i``
    once it has joined, bit for bit.
    """
    g = net.vertical[i]
    touched = []
    for j, lateral in net.lateral[i]:
        if active[j]:
            touched.append(j)
        else:
            g += lateral
    p = powers[i]
    return p * (1.0 / g) * p * weights[i], touched


def session_stc(
    members: Iterable[int],
    powers: Sequence[float],
    weights: Sequence[float],
    net: ThermalNetwork,
    active: bytearray,
) -> float:
    """Max over ``members`` of TC * P * W, each R_eq taken within ``active``.

    Nodes are indices into ``net.nodes``, and ``powers`` and ``weights``
    hold each node's test power and packing weight in node order.
    ``active`` flags the session, as in ``candidate_term``; when it flags
    exactly ``members`` the value is the session thermal characteristic
    (STC) of ``members``, and flagging more evaluates only some of its
    members' terms.  Each term is ``P * (1 / g) * P * W``, evaluated left
    to right with ``g`` summed as ``candidate_term`` sums it.  No members
    give 0.
    """
    vertical, lateral = net.vertical, net.lateral
    stc = 0.0
    for i in members:
        g = vertical[i]
        for j, conductance in lateral[i]:
            if not active[j]:
                g += conductance
        p = powers[i]
        term = p * (1.0 / g) * p * weights[i]
        if term > stc:
            stc = term
    return stc
