"""Compiled thermal network and the full-network steady-state validator.

``build_network`` compiles one floorplan under one parameter set into a
``ThermalNetwork``; it is the only code that turns geometry into
conductances.  The network holds the vertical and lateral conductances,
which the guiding session model reads, and the nodal conductance matrix
``G`` with its Cholesky factor, which the validator reads.  ``G`` does not
depend on the test session, so it is assembled and factored once; a session
only changes the injection vector ``P``.

Unlike the guiding session model, the validator keeps every core in play:
all adjacent pairs are coupled (active or not), every node has its own
vertical path to ambient, and passive cores are free nodes that warm up.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Collection, Mapping

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .floorplan import Floorplan, PowerProfile
from .thermal_model import ThermalParams

RESIDUAL_RTOL = 1e-8
"""Required solve accuracy: inf-norm residual per unit inf-norm of injections."""


class NetworkSolveError(RuntimeError):
    """Conductance system is not positive definite or the solve missed tolerance."""


@dataclass(frozen=True)
class ThermalNetwork:
    """Conductances of one floorplan under one parameter set, and ``G``'s factor.

    Nodes are in floorplan order.  ``vertical[i]`` is the conductance of
    node ``i``'s path to ambient, and ``lateral[i]`` lists its neighbors as
    ``(node index, lateral conductance)`` pairs in floorplan order; both are
    derived by ``build_network``.  ``singleton_resistance[i]`` is node
    ``i``'s R_eq when none of its neighbors is active: one over its vertical
    conductance plus every lateral, summed in the order in which
    ``thermal_model.equivalent_resistance`` sums them, so the two agree bit
    for bit.  ``conductance`` is symmetric positive
    definite: off-diagonals are the negated lateral conductances, and each
    diagonal adds the node's vertical conductance to ambient on top of its
    lateral total.
    """

    nodes: tuple[str, ...]
    position: Mapping[str, int]                          # node name -> index
    vertical: tuple[float, ...]                          # W/K, per node
    lateral: tuple[tuple[tuple[int, float], ...], ...]   # W/K, per node
    singleton_resistance: tuple[float, ...]              # K/W, per node
    conductance: np.ndarray                              # (N, N), W/K
    factor: tuple[np.ndarray, bool]                      # cho_factor(conductance)
    ambient: float                                       # deg C


@dataclass(frozen=True)
class SimulationResult:
    """Steady-state temperatures of one solve, plus the session wall time."""

    temps: Mapping[str, float]          # deg C per core
    peak: tuple[str, float]             # hottest core and its temperature
    simulated_duration: float           # s, for effort accounting


def build_network(fp: Floorplan, params: ThermalParams) -> ThermalNetwork:
    """Compile the conductances of a floorplan, assemble ``G`` and factor it.

    A core's vertical path lumps the package stack above it into
    ``r_vertical_per_area`` over its area.  Every adjacent pair is coupled by
    1-D in-die conduction: center distance over (conductivity * die
    thickness * shared edge length).  Each conductance is the reciprocal of
    its path resistance.  Raises NetworkSolveError when ``G`` is not
    positive definite (a vertical path too weak to ground the network).
    """
    names = fp.names
    n = len(names)
    position = {name: i for i, name in enumerate(names)}
    g = np.zeros((n, n))
    lateral: list[list[tuple[int, float]]] = [[] for _ in names]
    # pairs arrive sorted by (i, j), so every neighbor list stays in floorplan
    # order, the order in which equivalent_resistance sums it
    for a, b, shared_edge, center_distance in fp.adjacency().pairs():
        gl = 1.0 / (
            center_distance / (params.k_silicon * params.die_thickness * shared_edge)
        )
        i, j = position[a], position[b]
        g[i, i] += gl
        g[j, j] += gl
        g[i, j] -= gl
        g[j, i] -= gl
        lateral[i].append((j, gl))
        lateral[j].append((i, gl))
    vertical = tuple(1.0 / (params.r_vertical_per_area / core.area) for core in fp.cores)
    g[np.diag_indices(n)] += vertical
    singleton_resistance = []
    for total, neighbors in zip(vertical, lateral):
        # a plain loop: sum() of floats may use compensated summation
        for _, gl in neighbors:
            total += gl
        singleton_resistance.append(1.0 / total)
    try:
        factor = cho_factor(g)
    except np.linalg.LinAlgError as exc:
        raise NetworkSolveError(
            "conductance matrix is not positive definite; every node needs a "
            "vertical conductance to ambient"
        ) from exc
    return ThermalNetwork(
        nodes=names,
        position=position,
        vertical=vertical,
        lateral=tuple(map(tuple, lateral)),
        singleton_resistance=tuple(singleton_resistance),
        conductance=g,
        factor=factor,
        ambient=params.t_ambient,
    )


def solve_steady_state(net: ThermalNetwork, injections: np.ndarray) -> SimulationResult:
    """Solve ``G dT = P`` with the compiled factor; temps = ambient + dT.

    ``injections`` is ``P`` in node order, W.  Raises NetworkSolveError when
    the residual exceeds RESIDUAL_RTOL * max(1, ||P||_inf).
    """
    rise = cho_solve(net.factor, injections)
    residual = float(np.max(np.abs(net.conductance @ rise - injections)))
    tolerance = RESIDUAL_RTOL * max(1.0, float(np.max(np.abs(injections))))
    if residual > tolerance:
        raise NetworkSolveError(
            f"solve residual {residual:.3e} exceeds tolerance {tolerance:.3e}"
        )
    temps = {name: net.ambient + float(rise[i]) for i, name in enumerate(net.nodes)}
    peak_i = int(np.argmax(rise))  # ties resolve to the first node
    peak = (net.nodes[peak_i], net.ambient + float(rise[peak_i]))
    return SimulationResult(temps=temps, peak=peak, simulated_duration=0.0)


def simulate_session(
    session: Collection[str], net: ThermalNetwork, power: PowerProfile
) -> SimulationResult:
    """Simulate one test session on the full network.

    Injections are the test powers of the session's cores and zero
    elsewhere.  The session's wall duration is the longest member test
    (members run concurrently); it is recorded for simulation-effort
    accounting.
    """
    session = frozenset(session)
    if not session:
        raise ValueError("test session is empty")
    unknown = sorted(name for name in session if name not in net.position)
    if unknown:
        raise ValueError(f"active cores not in floorplan: {', '.join(unknown)}")
    injections = np.zeros(len(net.nodes))
    for name in session:
        injections[net.position[name]] = power.power(name)
    result = solve_steady_state(net, injections)
    duration = max(power.duration(name) for name in session)
    return replace(result, simulated_duration=duration)
