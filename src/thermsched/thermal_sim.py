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

import math
from dataclasses import dataclass
from typing import Collection, Mapping

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .floorplan import Floorplan, PowerProfile
from .thermal_model import ThermalParams

RESIDUAL_RTOL = 1e-8
"""Required solve accuracy: inf-norm residual per unit inf-norm of injections."""

_RESIDUAL_BLOCK = 64  # columns per residual product in solve_rise


class NetworkSolveError(RuntimeError):
    """Conductance system is not positive definite or the solve missed tolerance.

    ``column`` is the injection column whose residual missed tolerance in a
    solve of several columns, else None.
    """

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column


@dataclass(frozen=True, eq=False)
class ThermalNetwork:
    """Conductances of one floorplan under one parameter set, and ``G``'s factor.

    Nodes are in floorplan order.  ``vertical[i]`` is the conductance of
    node ``i``'s path to ambient, and ``lateral[i]`` lists its neighbors as
    ``(node index, lateral conductance)`` pairs in floorplan order; both are
    derived by ``build_network`` and read by the guiding session model
    through ``thermal_model.escape_paths``.  ``conductance`` is symmetric
    positive definite: off-diagonals are the negated lateral conductances,
    and each diagonal adds the node's vertical conductance to ambient on
    top of its lateral total.
    """

    nodes: tuple[str, ...]
    position: Mapping[str, int]                          # node name -> index
    vertical: tuple[float, ...]                          # W/K, per node
    lateral: tuple[tuple[tuple[int, float], ...], ...]   # W/K, per node
    conductance: np.ndarray                              # (N, N), W/K
    factor: tuple[np.ndarray, bool]                      # cho_factor(conductance)
    ambient: float                                       # deg C


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Steady-state temperatures of one solve.

    ``temperatures[i]`` is the temperature of ``nodes[i]``; the array is
    read-only.
    """

    nodes: tuple[str, ...]
    temperatures: np.ndarray            # (N,), deg C per node
    peak: tuple[str, float]             # hottest core and its temperature


def _conductance(numerator: float, denominator: float, path: str, knobs: str) -> float:
    """``1 / (numerator / denominator)``: the reciprocal of a path resistance.

    Positive, finite parameters can still underflow or overflow either
    division, so raises NetworkSolveError naming the path and the
    parameters behind it unless the conductance is positive and finite.
    """
    try:
        conductance = 1.0 / (numerator / denominator)
    except ZeroDivisionError:
        conductance = math.nan
    if not 0.0 < conductance < math.inf:
        raise NetworkSolveError(
            f"{path} is zero or not finite in double precision; check {knobs}"
        )
    return conductance


def build_network(fp: Floorplan, params: ThermalParams) -> ThermalNetwork:
    """Compile the conductances of a floorplan, assemble ``G`` and factor it.

    A core's vertical path lumps the package stack above it into
    ``r_vertical_per_area`` over its area.  Every adjacent pair is coupled by
    1-D in-die conduction: center distance over (conductivity * die
    thickness * shared edge length).  Each conductance is the reciprocal of
    its path resistance.  Raises NetworkSolveError when a conductance or a
    node's conductance total is zero or not finite, or when ``G`` is not
    positive definite (a vertical path too weak to ground the network).
    """
    names = fp.names
    n = len(names)
    position = {name: i for i, name in enumerate(names)}
    g = np.zeros((n, n))
    # G's diagonal is summed in Python floats, which overflow to inf quietly
    diagonal = [0.0] * n
    lateral: list[list[tuple[int, float]]] = [[] for _ in names]
    # pairs arrive sorted by (i, j), so every neighbor list stays in floorplan
    # order, the order in which thermal_model.escape_paths sums it
    for a, b, shared_edge, center_distance in fp.adjacency().pairs():
        gl = _conductance(
            center_distance,
            params.k_silicon * params.die_thickness * shared_edge,
            f"lateral conductance between {a!r} and {b!r}",
            "k_silicon and die_thickness",
        )
        i, j = position[a], position[b]
        diagonal[i] += gl
        diagonal[j] += gl
        g[i, j] = g[j, i] = -gl
        lateral[i].append((j, gl))
        lateral[j].append((i, gl))
    vertical = tuple(
        _conductance(params.r_vertical_per_area, core.area,
                     f"vertical conductance of {core.name!r}", "r_vertical_per_area")
        for core in fp.cores
    )
    for i, gv in enumerate(vertical):
        diagonal[i] += gv
        if diagonal[i] == math.inf:
            raise NetworkSolveError(
                f"total conductance of {names[i]!r} is not finite in double "
                "precision; check k_silicon, die_thickness and r_vertical_per_area"
            )
    g[np.diag_indices(n)] = diagonal
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
        conductance=g,
        factor=factor,
        ambient=params.t_ambient,
    )


def solve_rise(net: ThermalNetwork, injections: np.ndarray) -> np.ndarray:
    """Solve ``G dT = P`` with the compiled factor and return ``dT``.

    ``injections`` is ``P`` in node order, W: shape ``(N,)`` for one
    injection vector or ``(N, k)`` for ``k`` of them, one per column; ``dT``
    has the same shape.  Raises NetworkSolveError unless every column's
    inf-norm residual is within RESIDUAL_RTOL * max(1, ||P_col||_inf); a NaN
    residual fails too.
    """
    injections = np.asarray(injections, dtype=float)
    p = injections.reshape(len(net.nodes), -1)  # views: one column per vector
    tolerance = RESIDUAL_RTOL * np.maximum(1.0, np.abs(p).max(axis=0))
    rise = cho_solve(net.factor, injections)
    x = rise.reshape(p.shape)
    # G @ dT - P a block of columns at a time: screening solves N columns at
    # once, and a whole residual would hold a third N x N array
    error = np.concatenate([
        np.abs(net.conductance @ x[:, j:j + _RESIDUAL_BLOCK] - p[:, j:j + _RESIDUAL_BLOCK])
        .max(axis=0)
        for j in range(0, p.shape[1], _RESIDUAL_BLOCK)
    ])
    failed = np.flatnonzero(~(error <= tolerance))
    if failed.size:
        k = failed[0]
        column = f" in column {k}" if injections.ndim == 2 else ""
        raise NetworkSolveError(
            f"solve residual {error[k]:.3e}{column} is not within "
            f"tolerance {tolerance[k]:.3e}",
            int(k) if injections.ndim == 2 else None,
        )
    return rise


def solve_steady_state(net: ThermalNetwork, injections: np.ndarray) -> SimulationResult:
    """Solve ``G dT = P`` with the compiled factor; temps = ambient + dT.

    ``injections`` is ``P`` in node order, W, shape ``(N,)``; any other
    shape raises ValueError.  Raises NetworkSolveError as ``solve_rise``
    does.
    """
    if np.shape(injections) != (len(net.nodes),):
        raise ValueError(
            f"injections must have shape ({len(net.nodes)},), got {np.shape(injections)}"
        )
    rise = solve_rise(net, injections)
    temperatures = net.ambient + rise
    temperatures.flags.writeable = False
    peak_i = int(np.argmax(rise))  # ties resolve to the first node
    peak = (net.nodes[peak_i], float(temperatures[peak_i]))
    return SimulationResult(nodes=net.nodes, temperatures=temperatures, peak=peak)


def simulate_session(
    session: Collection[str], net: ThermalNetwork, power: PowerProfile
) -> SimulationResult:
    """Simulate one test session on the full network.

    Injections are the test powers of the session's cores and zero
    elsewhere.
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
    return solve_steady_state(net, injections)
