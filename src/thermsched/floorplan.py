"""Floorplan geometry: core rectangles, power profiles, adjacency.

A floorplan is an ordered collection of named, axis-aligned rectangles on a
die, positioned by their lower-left corner, in meters.  Cores must not
overlap; abutment is legal.  Two cores are thermally adjacent when they
share an edge segment longer than EPSILON; corner contact never counts.  A
core record is the five fields of its line: a name, a non-empty ``str``
that encodes as UTF-8, and four real numbers (``as_float``), stored as
floats.  The adjacent pairs are found in one scan (``build_adjacency``).

File formats (UTF-8, '#' starts a comment, blank lines ignored):

* floorplan: whitespace-separated records ``name width height left_x bottom_y``
* power profile: CSV records ``core_id,power_watts,duration_s``
"""

from __future__ import annotations

import math
import numbers
from typing import IO, Container, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

EPSILON = 1e-9
"""Seam tolerance in meters; absorbs floating-point error along the edges of
generated floorplans."""


def as_float(value: object) -> float | None:
    """``value`` as a float if it is a ``numbers.Real`` other than a bool (a
    numpy scalar or a fraction, not a ``Decimal``, ``np.bool_`` or ``str``),
    else None; a number too large for a float, such as ``10**400``, is NaN."""
    if type(value) is float:
        return value
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.nan


class FloorplanError(ValueError):
    """Malformed or geometrically invalid floorplan input."""


class PowerProfileError(ValueError):
    """Malformed or incomplete power profile input."""


def _check_core(name, width, height, left_x, bottom_y) -> tuple[str, float, float, float, float]:
    """A core record as its name, a plain ``str`` that encodes as UTF-8 (no
    lone surrogate), and its left_x, bottom_y, width and height, finite
    floats in the order of the geometry's rows, the size positive."""
    try:
        valid = isinstance(name, str) and name and name.encode()
    except UnicodeEncodeError:
        valid = False
    if not valid:
        raise FloorplanError(f"core name must be a non-empty str that encodes as UTF-8, "
                             f"got {name!r}")
    w, h, x, y = values = tuple(map(as_float, (width, height, left_x, bottom_y)))
    if None in values:
        raise FloorplanError(f"core {name!r} has non-numeric geometry")
    if not all(map(math.isfinite, values)):
        raise FloorplanError(f"core {name!r} has non-finite geometry")
    if not (w > 0 and h > 0):
        raise FloorplanError(f"core {name!r} has non-positive dimensions ({width} x {height})")
    return str.__str__(name), x, y, w, h  # a str subclass, such as np.str_, as a str


class AdjacencyGraph(NamedTuple):
    """Adjacent core pairs of a floorplan and the geometry of each contact.

    The graph is four read-only arrays with one entry for every pair of
    cores sharing more than EPSILON of edge, sorted by ``(i, j)``: the node
    indices ``i < j`` of the two cores in ``Floorplan.names``, the length
    of the edge they share and the distance between their centers.
    ``build_network`` unpacks the arrays as they are; ``pairs()`` yields
    each entry as a tuple ``(i, j, shared_edge, center_distance)`` of
    Python ints and floats.
    """

    i: np.ndarray
    j: np.ndarray
    shared_edge: np.ndarray
    center_distance: np.ndarray

    def pairs(self) -> Iterator[tuple[int, int, float, float]]:
        return zip(*(array.tolist() for array in self))


class Floorplan:
    """Ordered collection of uniquely named, non-overlapping cores and the
    adjacency graph they form, both checked and found at construction.

    A floorplan is its ``names``, its ``geometry`` and its ``adjacency()``,
    all set when it is built and never changed.  The geometry is one
    read-only float64 array of shape ``(4, N)`` in node order, with rows
    left, bottom, width and height.  ``Floorplan(records)`` checks each
    record, a tuple or list ``(name, width, height, left_x, bottom_y)``, and
    reads it in; an error names the record's index or its core.
    """

    def __init__(self, records: Iterable[Sequence]):
        names, values = [], []  # values: left, bottom, width and height per record
        for index, record in enumerate(records):
            if not (isinstance(record, (tuple, list)) and len(record) == 5):
                raise FloorplanError(f"record {index}: expected (name, width, height, "
                                     f"left_x, bottom_y), got {record!r}")
            name, *geometry = _check_core(*record)
            names.append(name)
            values += geometry
        self._build(tuple(names), values)

    @classmethod
    def _from_checked(cls, names: tuple[str, ...], values: list[float]) -> Floorplan:
        """A floorplan of checked records: ``values`` holds each record's
        left, bottom, width and height in turn."""
        fp = cls.__new__(cls)
        fp._build(names, values)
        return fp

    def _build(self, names: tuple[str, ...], values: list[float]) -> None:
        if not names:
            raise FloorplanError("floorplan has no cores")
        name_set: set[str] = set()
        for name in names:
            if name in name_set:
                raise FloorplanError(f"duplicate core id {name!r}")
            name_set.add(name)
        # a copy in rows, so that the floorplan's array owns its memory
        geometry = np.array(values, dtype=float).reshape(-1, 4).T.copy()
        geometry.flags.writeable = False
        self._names = names
        self._name_set = name_set
        self._geometry = geometry
        self._adjacency = build_adjacency(names, geometry)

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def geometry(self) -> np.ndarray:
        """Rows left, bottom, width and height, in meters, in node order."""
        return self._geometry

    def adjacency(self) -> AdjacencyGraph:
        """The adjacency graph found at construction, as four arrays."""
        return self._adjacency

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: object) -> bool:
        return name in self._name_set

    def __repr__(self) -> str:
        return f"Floorplan({len(self._names)} cores)"


_ALL_PAIRS_MAX = 64
"""Up to this many cores the scan tests all pairs, at most 2,016: the grid's
fixed cost made it slower than that on random guillotine dies of up to 64
to 96 cores."""


def _all_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays of every pair ``i < j`` of ``n`` cores, sorted."""
    index = np.arange(n)
    return (index[:, None] < index).nonzero()


def _near_pairs(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays ``i < j``, sorted by ``(i, j)``, of the cores whose
    rectangles, each grown by a slack, share a cell of a uniform grid;
    ``edges`` holds the cores' left, bottom, right and top edges as rows.
    A die of at most ``_ALL_PAIRS_MAX`` cores gets all its pairs.

    Every pair that can overlap, or touch within EPSILON, is among them: the
    slack exceeds EPSILON plus the rounding of the cell arithmetic, and the
    floor of a rounded difference over a positive side is monotone, so
    grown rectangles that meet also share a cell.  The cell side is the die
    extent over isqrt(N), so a tiling of cores about as wide as they are tall
    puts O(1) cores in a cell, and the pairs are found in linear time; N
    full-width strips put about sqrt(N) in every cell instead, and N^2 / 2
    candidates.  The side is never below the slack, which bounds the cells
    a core can cover.  A die whose grid overflows the floats falls back to
    one cell, i.e. to all pairs.

    Each core becomes one entry per cell it covers, keyed by cell and then
    by core; after one sort, each entry pairs with the later entries of its
    cell, and a pair that shares several cells is kept once.
    """
    n = edges.shape[1]
    if n <= _ALL_PAIRS_MAX:
        return _all_pairs(n)
    x_low, y_low, _, _ = edges.min(axis=1).tolist()
    _, _, x_high, y_high = edges.max(axis=1).tolist()
    slack = 2 * EPSILON + 4 * math.ulp(max(-x_low, -y_low, x_high, y_high, 0.0))
    x0, y0 = x_low - slack, y_low - slack
    side = max(max(x_high - x_low, y_high - y_low) / math.isqrt(n), slack)
    reach = ((x_high + slack - x0) / side, (y_high + slack - y0) / side)
    if not all(math.isfinite(v) for v in (x0, y0, *reach)):
        return _all_pairs(n)
    # the cells [gx0, gx1] x [gy0, gy1] each grown core covers
    cells = (edges + [[-slack], [-slack], [slack], [slack]] - [[x0], [y0], [x0], [y0]]) / side
    gx0, gy0, gx1, gy1 = np.floor(cells, out=cells).astype(np.int64)
    rows = int(gy1.max()) + 1
    tall = gy1 - gy0 + 1
    core, k = _runs((gx1 - gx0 + 1) * tall)
    dx, dy = np.divmod(k, tall[core])
    # one entry per (cell, core), sorted by cell and then by core
    entries = ((gx0 * rows + gy0)[core] + dx * rows + dy) * n + core
    entries.sort()
    cell, core = np.divmod(entries, n)
    # an entry pairs with each later entry of its cell, whose core is larger
    first, k = _runs(cell.searchsorted(cell, side="right") - np.arange(cell.size) - 1)
    pairs = core[first] * n + core[first + 1 + k]
    # a pair that shares several cells recurs; np.unique, which hashes, is
    # many times slower than this sort at a few thousand pairs
    pairs.sort()
    fresh = np.empty(pairs.size, dtype=bool)
    fresh[:1] = True
    np.not_equal(pairs[1:], pairs[:-1], out=fresh[1:])
    return np.divmod(pairs[fresh], n)


def _runs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For runs of the given lengths laid end to end: each element's run, and
    its offset within that run."""
    run = np.arange(counts.size).repeat(counts)
    return run, np.arange(run.size) - (counts.cumsum() - counts)[run]


def build_adjacency(names: tuple[str, ...], geometry: np.ndarray) -> AdjacencyGraph:
    """Check that no two cores overlap and find the pairs that share more
    than EPSILON of edge, in one scan of the pairs ``_near_pairs`` finds.
    ``geometry`` holds the cores' left, bottom, width and height as rows,
    as ``Floorplan.geometry`` does.

    Two cores overlap when their intersection is wider AND taller than
    EPSILON; mere abutment, or a floating-point seam, is legal.  The first
    overlapping pair in floorplan order raises FloorplanError.  Cores whose
    facing edges lie within EPSILON of each other touch, and share the
    overlap of their other sides as an edge; corner contact shares none.
    The graph keeps the adjacent pairs as node-order arrays of their two
    node indices, their shared edge lengths and the distances between the
    core centers, with no tuple per pair; ``names`` name only overlaps.

    Each core's right (``left + width``) and top edge is formed once, and
    all candidate pairs are measured at once with array operations, which
    round as ``min``, ``max`` and ``-`` on Python floats do; the distances
    are ``math.dist`` of the centers ``(left + 0.5 * width, bottom + 0.5 *
    height)``, one call per adjacent pair.
    """
    corner, size = geometry[:2], geometry[2:]
    # numpy warns where Python floats overflow to inf quietly
    with np.errstate(all="ignore"):
        edges = np.concatenate((corner, corner + size))
        i, j = _near_pairs(edges)
        a, b = edges.take(i, axis=1), edges.take(j, axis=1)
        # the width and the height of each candidate pair's intersection
        w, h = np.minimum(a[2:], b[2:]) - np.maximum(a[:2], b[:2])
        centers = list(zip(*(corner + 0.5 * size).tolist()))
    overlap = ((w > EPSILON) & (h > EPSILON)).nonzero()[0]
    if overlap.size:
        k = overlap[0]
        raise FloorplanError(
            f"cores {names[i[k]]!r} and {names[j[k]]!r} overlap "
            f"(intersection {w[k]:.3e} m x {h[k]:.3e} m)"
        )
    vertical = np.abs(w) <= EPSILON  # touching along a vertical edge
    edge = np.where(vertical, h, w)
    keep = ((vertical | (np.abs(h) <= EPSILON)) & (edge > EPSILON)).nonzero()[0]
    i, j = i[keep], j[keep]
    distance = map(math.dist, map(centers.__getitem__, i.tolist()),
                   map(centers.__getitem__, j.tolist()))
    graph = AdjacencyGraph(i, j, edge[keep], np.fromiter(distance, float, keep.size))
    for array in graph:
        array.flags.writeable = False
    return graph


def _records(source: str | IO[str]) -> Iterator[tuple[int, str, str]]:
    """Yield ``(lineno, raw, line)`` for each record of text or a text stream:
    ``line`` is ``raw`` without its '#' comment and surrounding whitespace,
    and lines that leaves empty are skipped.  Lines end at CR LF, CR or LF
    only, as with ``open()``, so line numbers match an editor's.  One leading
    byte-order mark, which Windows editors and spreadsheet exports write, is
    dropped."""
    text = source.read() if hasattr(source, "read") else source
    if "\r" in text:  # open() has translated these; text handed in may not be
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw in enumerate(text.removeprefix("\ufeff").split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, raw, line


def parse_floorplan(source: str | IO[str]) -> Floorplan:
    """Parse floorplan text: ``name width height left_x bottom_y`` per record.

    Raises FloorplanError with a line number for malformed records and
    invalid core geometry, and without one for duplicate ids or overlapping
    rectangles, which only the whole floorplan can show.  Each record is
    checked as it is read, so the first error in file order is raised; only
    a record that fails the inline comparison goes to ``_check_core``.
    """
    names: list[str] = []
    values: list[float] = []  # left, bottom, width and height per record
    for lineno, raw, line in _records(source):
        fields = line.split()
        if len(fields) != 5:
            raise FloorplanError(
                f"line {lineno}: expected 'name width height left_x bottom_y', "
                f"got {raw!r}"
            )
        try:
            w, h, x, y = float(fields[1]), float(fields[2]), float(fields[3]), float(fields[4])
        except ValueError:
            raise FloorplanError(f"line {lineno}: non-numeric field in {raw!r}") from None
        # finite, a positive size, an ASCII name (no lone surrogate); NaN fails all
        if not (0.0 < w < math.inf and 0.0 < h < math.inf and fields[0].isascii()
                and -math.inf < x < math.inf and -math.inf < y < math.inf):
            try:
                _check_core(fields[0], w, h, x, y)
            except FloorplanError as exc:
                raise FloorplanError(f"line {lineno}: {exc}") from None
        names.append(fields[0])
        values += (x, y, w, h)
    return Floorplan._from_checked(tuple(names), values)


def _check_test_values(name: str, power, duration) -> tuple[float, float]:
    """A test's power and duration as floats: finite real numbers
    (``as_float``), the power >= 0 and the duration > 0."""
    p, d = as_float(power), as_float(duration)
    if not (p is not None and math.isfinite(p) and p >= 0):
        raise PowerProfileError(
            f"core {name!r} has invalid test power {power!r}; need a finite value >= 0"
        )
    if not (d is not None and math.isfinite(d) and d > 0):
        raise PowerProfileError(
            f"core {name!r} has invalid test duration {duration!r}; need a finite value > 0"
        )
    return p, d


def _check_complete(entries: Container[str], names: Iterable[str]) -> None:
    """Raise PowerProfileError naming each of ``names``, in order, with no entry."""
    missing = [name for name in names if name not in entries]
    if missing:
        raise PowerProfileError(f"no power entry for core(s): {', '.join(missing)}")


class PowerProfile:
    """Per-core test power (W) and test duration (s), complete over a floorplan.

    ``PowerProfile(entries, floorplan)`` checks every entry: each name must
    be a floorplan core, each core must have an entry, and each entry must
    be a pair ``(power_w, duration_s)`` (``_check_test_values``), stored as
    floats.  ``parse_power_profile`` makes these checks as it reads each
    record, and builds the profile from its checked values.
    """

    def __init__(self, entries: Mapping[str, tuple[float, float]], floorplan: Floorplan):
        unknown = sorted(str(name) for name in entries if name not in floorplan)
        if unknown:
            raise PowerProfileError(f"unknown core id(s): {', '.join(unknown)}")
        _check_complete(entries, floorplan.names)
        self._entries = {}  # in floorplan order, keyed by the floorplan's own names
        for name in floorplan.names:
            entry = entries[name]
            try:
                power, duration = entry
            except (TypeError, ValueError):
                raise PowerProfileError(f"core {name!r}: expected (power_w, duration_s), "
                                        f"got {entry!r}") from None
            self._entries[name] = _check_test_values(name, power, duration)

    @classmethod
    def _from_checked(cls, entries: dict[str, tuple[float, float]]) -> PowerProfile:
        """A profile of checked float entries, in floorplan order, held as given."""
        profile = cls.__new__(cls)
        profile._entries = entries
        return profile

    def _check_covers(self, names: Iterable[str]) -> None:
        """Raise PowerProfileError naming each of ``names`` with no entry here."""
        _check_complete(self._entries, names)

    def power(self, name: str) -> float:
        try:
            return self._entries[name][0]
        except KeyError:
            raise KeyError(f"no power entry for core {name!r}") from None

    def duration(self, name: str) -> float:
        try:
            return self._entries[name][1]
        except KeyError:
            raise KeyError(f"no power entry for core {name!r}") from None

    def __repr__(self) -> str:
        return f"PowerProfile({len(self._entries)} cores)"


def parse_power_profile(source: str | IO[str], floorplan: Floorplan) -> PowerProfile:
    """Parse ``core_id,power_watts,duration_s`` CSV against a floorplan.

    Every floorplan core must appear exactly once.  Each record is checked
    once, on the line that holds it, so the first error in file order is
    raised with its line number: the field count, a known and unique id,
    numeric fields, and the power and duration ranges of ``PowerProfile``.
    Cores with no record are then named without a line number, and the
    profile is built in floorplan order from the checked values.
    """
    entries: dict[str, tuple[float, float]] = {}
    for lineno, raw, line in _records(source):
        try:
            name, power, duration = line.split(",")
        except ValueError:
            raise PowerProfileError(
                f"line {lineno}: expected 'core_id,power_watts,duration_s', got {raw!r}"
            ) from None
        name = name.strip()
        if name not in floorplan:
            raise PowerProfileError(f"line {lineno}: unknown core id {name!r}")
        if name in entries:
            raise PowerProfileError(f"line {lineno}: duplicate entry for core {name!r}")
        try:
            # float() ignores the whitespace around a field
            power, duration = float(power), float(duration)
        except ValueError:
            raise PowerProfileError(
                f"line {lineno}: non-numeric field in {raw!r}"
            ) from None
        # a finite power >= 0 and a finite duration > 0; NaN fails every comparison
        if not (0.0 <= power < math.inf and 0.0 < duration < math.inf):
            try:
                _check_test_values(name, power, duration)
            except PowerProfileError as exc:
                raise PowerProfileError(f"line {lineno}: {exc}") from None
        entries[name] = (power, duration)
    # every entry names a distinct core, so a core is missing only if fewer
    if len(entries) < len(floorplan):
        _check_complete(entries, floorplan.names)
    return PowerProfile._from_checked({name: entries[name] for name in floorplan.names})
