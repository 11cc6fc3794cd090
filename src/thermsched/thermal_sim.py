"""Compiled thermal network and the full-network steady-state validator.

``build_network`` compiles one floorplan under one parameter set into a
``ThermalNetwork``; it is the only code that turns geometry into
conductances.  The network holds the vertical and lateral conductances,
which the guiding session model reads, and the nodal conductance matrix
``G`` with its Cholesky factor, which the validator reads.  ``G`` does not
depend on the test session, so it is assembled and factored once; a session
only changes the injection vector ``P``.  ``G`` itself is held sparse,
with N diagonal entries and two per adjacent pair, for the residual check;
it is assembled from those entries.  Its dense copy is taken in Fortran
order and factored in its own buffer, so the factor is the only dense
N x N array the network holds, and building it never holds a second.

Unlike the guiding session model, the validator keeps every core in play:
all adjacent pairs are coupled (active or not), every node has its own
vertical path to ambient, and passive cores are free nodes that warm up.
``solve_columns`` is the one solve of ``G dT = P``, for a single session
and for the scheduler's screening blocks alike; a column's solve does not
depend on the other columns, and its temperatures are the solution's own
buffer plus ambient.  Every solve failure sets
``NetworkSolveError.column``, which is None only when the network cannot
be built or factored.

With scipy's bundled OpenBLAS, every factor and solve runs on one BLAS
thread, set for the calling thread only: the blocking of the Cholesky
factor depends on the thread count, and so would the last bits of every
temperature.  The pin looks only for ``libscipy_openblas*``: another BLAS
build, and scipy 1.10, pyproject's floor, whose wheel ships
``libopenblas*``, run every solve on the library's own thread count.
"""

from __future__ import annotations

import ctypes
import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Collection, Mapping

import numpy as np
import scipy
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse import csr_array

from .floorplan import Floorplan, PowerProfile
from .thermal_model import ThermalParams

RESIDUAL_RTOL = 1e-8
"""Required solve accuracy: inf-norm residual per unit inf-norm of injections."""

# the parameters that set the ratio of lateral to vertical conductances
_KNOBS = "check k_silicon, die_thickness and r_vertical_per_area"


@functools.cache
def _blas_thread_setter():
    """``openblas_set_num_threads_local`` of the OpenBLAS that scipy loaded
    from its wheel's ``scipy.libs``, or None where there is none; looked up
    at the first solve, not at import."""
    for path in sorted((Path(scipy.__file__).parent.parent / "scipy.libs").glob(
        "libscipy_openblas*"
    )):
        try:
            setter = ctypes.CDLL(str(path)).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        return setter
    return None


@contextmanager
def _one_blas_thread():
    """Run the block on one BLAS thread, for the calling thread only."""
    setter = _blas_thread_setter()
    if setter is None:
        yield
        return
    previous = setter(1)
    try:
        yield
    finally:
        setter(previous)


class NetworkSolveError(RuntimeError):
    """Conductance system is not positive definite or the solve missed tolerance.

    ``column`` is the first injection column whose solve missed tolerance;
    it is None only when the network cannot be built or factored.
    """

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column


@dataclass(frozen=True, eq=False)
class ThermalNetwork:
    """Conductances of one floorplan under one parameter set, and ``G``'s factor.

    Nodes are in floorplan order, and a node's index in ``nodes`` is how
    the guiding session model names it.  ``vertical[i]`` is the conductance
    of node ``i``'s path to ambient, and ``lateral[i]`` lists its neighbors
    as ``(node index, lateral conductance)`` pairs in floorplan order; both
    are derived by ``build_network`` and read, on node indices, by
    ``thermal_model.candidate_term`` and ``session_stc``.  ``position`` maps
    a name to its index, for callers that start from names.
    ``conductance`` is ``G`` as a ``scipy.sparse.csr_array``, symmetric
    positive definite: off-diagonals are the negated lateral conductances,
    and each diagonal adds the node's vertical conductance to ambient on top
    of its lateral total.  ``factor`` is the dense Cholesky factor of ``G``.
    """

    nodes: tuple[str, ...]
    position: Mapping[str, int]                          # node name -> index
    vertical: tuple[float, ...]                          # W/K, per node
    lateral: tuple[tuple[tuple[int, float], ...], ...]   # W/K, per node
    conductance: csr_array                               # (N, N), W/K
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


def _not_finite(path: str, knobs: str) -> NetworkSolveError:
    """The error for a conductance that is zero or not finite: positive,
    finite parameters can still underflow or overflow either division of
    its path resistance."""
    return NetworkSolveError(
        f"{path} is zero or not finite in double precision; check {knobs}"
    )


def build_network(fp: Floorplan, params: ThermalParams) -> ThermalNetwork:
    """Compile the conductances of a floorplan, assemble ``G`` and factor it.

    A core's vertical path lumps the package stack above it into
    ``r_vertical_per_area`` over its area.  Every adjacent pair of node
    indices is coupled by 1-D in-die conduction: center distance over
    (conductivity * die thickness * shared edge length).  Each conductance
    is the reciprocal of its path resistance, ``1 / (numerator /
    denominator)``.  Raises NetworkSolveError when a conductance or a
    node's conductance total is zero or not finite, naming the first
    failing pair in ``(i, j)`` order, then the first failing core, then the
    first failing total, or when ``G`` is not positive definite (a vertical
    path too weak to ground the network).

    Every conductance and diagonal is computed at once from the geometry
    array and the four arrays ``fp.adjacency()`` unpacks to, with the float
    operations of a per-pair loop in the same order, and ``G``'s CSR arrays
    are taken from its entries sorted by row and then by column.
    """
    names = fp.names
    n = len(names)
    i, j, shared_edge, center_distance = fp.adjacency()
    # G's entries, the laterals of both directions and then the diagonal,
    # sorted by row and then by column: each node's laterals by neighbor,
    # the order in which thermal_model's pricing and G's diagonal sum them
    node = np.arange(n)
    rows, columns = np.concatenate((i, j, node)), np.concatenate((j, i, node))
    order = (rows * n + columns).argsort()
    # numpy warns, and with pyproject's filters raises, where these divisions
    # and sums overflow or divide by zero; the checks below refuse the results
    with np.errstate(all="ignore"):
        gl = 1.0 / (center_distance / (params.k_silicon * params.die_thickness * shared_edge))
        gv = 1.0 / (params.r_vertical_per_area / (fp.geometry[2] * fp.geometry[3]))
        laterals = np.concatenate((gl, gl))
        lateral_order = order[order < laterals.size]
        neighbors, lateral_values = columns[lateral_order], laterals[lateral_order]
        # each diagonal sums its node's laterals one by one in neighbor
        # order, from 0.0, then adds the vertical; ufunc.at adds in order
        diagonal = np.zeros(n)
        np.add.at(diagonal, rows[lateral_order], lateral_values)
        diagonal += gv
    failed = np.flatnonzero(~((0.0 < gl) & (gl < math.inf)))
    if failed.size:
        k = failed[0]
        raise _not_finite(f"lateral conductance between {names[i[k]]!r} and {names[j[k]]!r}",
                          "k_silicon and die_thickness")
    failed = np.flatnonzero(~((0.0 < gv) & (gv < math.inf)))
    if failed.size:
        raise _not_finite(f"vertical conductance of {names[failed[0]]!r}",
                          "r_vertical_per_area")
    failed = np.flatnonzero(diagonal == math.inf)
    if failed.size:
        raise NetworkSolveError(
            f"total conductance of {names[failed[0]]!r} is not finite in double "
            f"precision; {_KNOBS}"
        )
    # each row of G holds its node's laterals and its diagonal
    row_sizes = np.bincount(rows, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(row_sizes, out=indptr[1:])
    conductance = csr_array(
        (np.concatenate((-laterals, diagonal))[order], columns[order], indptr), shape=(n, n)
    )
    # in Fortran order, so that LAPACK factors G in its own buffer
    g = conductance.toarray(order="F")
    try:
        with _one_blas_thread():
            # every conductance and diagonal was checked finite above; G is
            # symmetric, so its Fortran buffer is LAPACK's input unchanged
            factor = cho_factor(g, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        # every vertical conductance is positive, so G is positive definite
        # in exact arithmetic; only rounding can lose it
        raise NetworkSolveError(
            "conductance matrix is not positive definite in double precision: "
            f"the lateral conductances swamp the vertical ones; {_KNOBS}"
        ) from exc
    # each node's (neighbor, lateral conductance) pairs, in neighbor order
    entries = zip(neighbors.tolist(), lateral_values.tolist())
    return ThermalNetwork(
        nodes=names,
        position={name: k for k, name in enumerate(names)},
        vertical=tuple(gv.tolist()),
        lateral=tuple(tuple(islice(entries, size - 1)) for size in row_sizes.tolist()),
        conductance=conductance,
        factor=factor,
        ambient=params.t_ambient,
    )


def solve_columns(net: ThermalNetwork, injections: np.ndarray) -> list[SimulationResult]:
    """Solve ``G dT = P`` with the compiled factor; one result per column.

    ``injections`` is ``P`` in node order, W, shape ``(N, k)``: one
    injection vector per column.  Raises NetworkSolveError, with ``column``
    the first failing column, unless every column's inf-norm residual is
    within RESIDUAL_RTOL * max(1, ||P_col||_inf); a NaN residual fails too.

    Temps = ambient + dT, added in the solution's own buffer.  Result
    ``j``'s temperatures are row ``j`` of one read-only ``(k, N)`` array,
    so no column is copied.  Its peak is the first node where column ``j``
    of ``dT`` is largest, so a tied peak goes to the first node;
    ``ambient + max(dT)`` is ``max(ambient + dT)``, since rounding is
    monotone.
    """
    p = np.asarray(injections, dtype=float)
    # ||P_col||_inf from two reductions, without an |P| copy; NaN propagates
    tolerance = RESIDUAL_RTOL * np.maximum(
        1.0, np.maximum(p.max(axis=0), -p.min(axis=0))
    )
    with _one_blas_thread():
        # the factor is G's, and a NaN or inf solve fails the residual test
        rise = cho_solve(net.factor, p, check_finite=False)
    # G @ dT - P for every column at once, formed in place
    r = net.conductance @ rise
    r -= p
    error = np.abs(r, out=r).max(axis=0)
    failed = np.flatnonzero(~(error <= tolerance))
    if failed.size:
        k = int(failed[0])
        # a residual that is not finite comes from an overflowed solve; a
        # finite one, from a G too ill-conditioned for its solve to hold
        cause = "" if not np.isfinite(error[k]) else (
            ": the lateral conductances swamp the vertical ones in double "
            f"precision; {_KNOBS}"
        )
        raise NetworkSolveError(
            f"solve residual {error[k]:.3e} is not within "
            f"tolerance {tolerance[k]:.3e}{cause}",
            k,
        )
    peaks = rise.argmax(axis=0).tolist()
    rise += net.ambient
    temperatures = rise.T
    temperatures.flags.writeable = False
    return [
        SimulationResult(
            nodes=net.nodes, temperatures=row, peak=(net.nodes[i], float(row[i]))
        )
        for row, i in zip(temperatures, peaks)
    ]


def solve_steady_state(net: ThermalNetwork, injections: np.ndarray) -> SimulationResult:
    """Solve ``G dT = P`` with the compiled factor; temps = ambient + dT.

    ``injections`` is ``P`` in node order, W, shape ``(N,)``; any other
    shape raises ValueError.  Solved by ``solve_columns`` as one column, so
    it raises NetworkSolveError as that does, with ``column`` 0.
    """
    if np.shape(injections) != (len(net.nodes),):
        raise ValueError(
            f"injections must have shape ({len(net.nodes)},), got {np.shape(injections)}"
        )
    return solve_columns(net, np.asarray(injections, dtype=float)[:, None])[0]


def simulate_session(
    session: Collection[str], net: ThermalNetwork, power: PowerProfile
) -> SimulationResult:
    """Simulate one test session on the full network.

    Injections are the test powers of the session's cores and zero
    elsewhere; a core ``power`` has no entry for raises PowerProfileError,
    and a bare ``str``, an empty session or an unknown core ValueError.
    """
    if isinstance(session, str):
        raise ValueError(f"test session is a collection of core names, not the str {session!r}")
    session = frozenset(session)
    if not session:
        raise ValueError("test session is empty")
    unknown = sorted(str(name) for name in session if name not in net.position)
    if unknown:
        raise ValueError(f"active cores not in floorplan: {', '.join(unknown)}")
    power._check_covers(sorted(session))
    injections = np.zeros(len(net.nodes))
    for name in session:
        injections[net.position[name]] = power.power(name)
    return solve_steady_state(net, injections)
