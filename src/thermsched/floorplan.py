"""Floorplan geometry: core rectangles, power profiles, adjacency.

A floorplan is an ordered collection of named, axis-aligned rectangles on a
die, positioned by their lower-left corner, in meters.  Cores must not
overlap; abutment is legal.  Two cores are thermally adjacent when they
share an edge segment longer than EPSILON; corner contact never counts.
A floorplan checks for overlaps and finds its adjacent pairs in one scan
when it is built (``build_adjacency``).  The scan only tests pairs of cores
that lie near each other on a uniform grid (``_near_pairs``), so it takes
about linear time in the number of cores instead of testing every pair.

File formats (UTF-8, '#' starts a comment, blank lines ignored):

* floorplan: whitespace-separated records ``name width height left_x bottom_y``
* power profile: CSV records ``core_id,power_watts,duration_s``
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Mapping

EPSILON = 1e-9
"""Seam tolerance in meters; absorbs floating-point error along the edges of
generated floorplans."""


class FloorplanError(ValueError):
    """Malformed or geometrically invalid floorplan input."""


class PowerProfileError(ValueError):
    """Malformed or incomplete power profile input."""


@dataclass(frozen=True)
class CoreGeometry:
    """Axis-aligned core rectangle, positioned by its lower-left corner."""

    name: str
    width: float
    height: float
    left_x: float
    bottom_y: float

    def __post_init__(self):
        values = (self.width, self.height, self.left_x, self.bottom_y)
        if not all(math.isfinite(v) for v in values):
            raise FloorplanError(f"core {self.name!r} has non-finite geometry")
        if not (self.width > 0 and self.height > 0):
            raise FloorplanError(
                f"core {self.name!r} has non-positive dimensions "
                f"({self.width} x {self.height})"
            )

    @property
    def right_x(self) -> float:
        return self.left_x + self.width

    @property
    def top_y(self) -> float:
        return self.bottom_y + self.height

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (self.left_x + 0.5 * self.width, self.bottom_y + 0.5 * self.height)


class AdjacencyGraph:
    """Adjacent core pairs of a floorplan and the geometry of each contact.

    ``pairs()`` yields ``(a, b, shared_edge, center_distance)`` once for
    every pair of cores sharing more than EPSILON of edge, in floorplan
    order: by the index of ``a``, then of ``b``, with ``a`` before ``b``.
    """

    def __init__(self, pairs: Iterable[tuple[str, str, float, float]]):
        self._pairs = tuple(pairs)

    def pairs(self) -> Iterator[tuple[str, str, float, float]]:
        return iter(self._pairs)


class Floorplan:
    """Ordered collection of uniquely named, non-overlapping cores and the
    adjacency graph they form, both checked and found at construction."""

    def __init__(self, cores: Iterable[CoreGeometry]):
        cores = tuple(cores)
        if not cores:
            raise FloorplanError("floorplan has no cores")
        names: set[str] = set()
        for core in cores:
            if core.name in names:
                raise FloorplanError(f"duplicate core id {core.name!r}")
            names.add(core.name)
        self._cores = cores
        self._name_set = names
        self._adjacency = build_adjacency(cores)

    @property
    def cores(self) -> tuple[CoreGeometry, ...]:
        return self._cores

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(core.name for core in self._cores)

    def adjacency(self) -> AdjacencyGraph:
        """The adjacency graph found at construction."""
        return self._adjacency

    def __len__(self) -> int:
        return len(self._cores)

    def __iter__(self) -> Iterator[CoreGeometry]:
        return iter(self._cores)

    def __contains__(self, name: object) -> bool:
        return name in self._name_set

    def __repr__(self) -> str:
        return f"Floorplan({len(self._cores)} cores)"


def _near_pairs(cores: tuple[CoreGeometry, ...]) -> list[tuple[int, int]]:
    """Sorted ``(i, j)`` index pairs, ``i < j``, of cores whose rectangles,
    each grown by a slack, share a cell of a uniform grid.

    Every pair that can overlap, or touch within EPSILON, is among them: the
    slack exceeds EPSILON plus the rounding of the cell arithmetic, and the
    floor of a rounded difference over a positive side is monotone, so
    grown rectangles that meet also share a cell.  The cell side is the die
    extent over isqrt(N), so a tiling puts O(1) cores in a cell; it is never
    below the slack, which bounds the cells a core can cover.  A die whose
    grid overflows the floats falls back to one cell, i.e. to all pairs.
    """
    n = len(cores)
    left = min(c.left_x for c in cores)
    bottom = min(c.bottom_y for c in cores)
    right = max(c.right_x for c in cores)
    top = max(c.top_y for c in cores)
    slack = 2 * EPSILON + 4 * math.ulp(max(-left, -bottom, right, top, 0.0))
    x0, y0 = left - slack, bottom - slack
    side = max(max(right - left, top - bottom) / math.isqrt(n), slack)

    def cells(low: float, high: float, origin: float) -> range:
        return range(
            math.floor((low - slack - origin) / side),
            math.floor((high + slack - origin) / side) + 1,
        )

    reach = ((right + slack - x0) / side, (top + slack - y0) / side)
    if not all(math.isfinite(v) for v in (x0, y0, *reach)):
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    buckets: dict[tuple[int, int], list[int]] = defaultdict(list)
    for i, c in enumerate(cores):
        for gx in cells(c.left_x, c.right_x, x0):
            for gy in cells(c.bottom_y, c.top_y, y0):
                buckets[gx, gy].append(i)
    # each bucket lists its cores in index order, so every pair has i < j
    return sorted({
        (i, j)
        for members in buckets.values()
        for k, i in enumerate(members)
        for j in members[k + 1:]
    })


def build_adjacency(cores: tuple[CoreGeometry, ...]) -> AdjacencyGraph:
    """Check that no two cores overlap and find the pairs that share more
    than EPSILON of edge, in one scan of the pairs ``_near_pairs`` finds.

    Two cores overlap when their intersection is wider AND taller than
    EPSILON; mere abutment, or a floating-point seam, is legal.  The first
    overlapping pair in floorplan order raises FloorplanError.  Cores whose
    facing edges lie within EPSILON of each other touch, and share the
    overlap of their other sides as an edge; corner contact shares none.
    Each adjacent pair carries its shared edge length and the distance
    between the two core centers.
    """
    pairs: list[tuple[str, str, float, float]] = []
    for i, j in _near_pairs(cores):
        a, b = cores[i], cores[j]
        w = min(a.right_x, b.right_x) - max(a.left_x, b.left_x)
        h = min(a.top_y, b.top_y) - max(a.bottom_y, b.bottom_y)
        if w > EPSILON and h > EPSILON:
            raise FloorplanError(
                f"cores {a.name!r} and {b.name!r} overlap "
                f"(intersection {w:.3e} m x {h:.3e} m)"
            )
        if abs(w) <= EPSILON:  # touching along a vertical edge
            edge = h
        elif abs(h) <= EPSILON:  # touching along a horizontal edge
            edge = w
        else:
            continue
        if edge > EPSILON:
            pairs.append((a.name, b.name, edge, math.dist(a.center, b.center)))
    return AdjacencyGraph(pairs)


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
    rectangles, which only the whole floorplan can show.
    """
    cores: list[CoreGeometry] = []
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
            cores.append(CoreGeometry(fields[0], width, height, left_x, bottom_y))
        except FloorplanError as exc:
            raise FloorplanError(f"line {lineno}: {exc}") from None
    return Floorplan(cores)


def _check_test_values(name: str, power: float, duration: float) -> None:
    """Reject a test power that is not finite and >= 0, or a duration that is
    not finite and > 0."""
    if not (math.isfinite(power) and power >= 0):
        raise PowerProfileError(
            f"core {name!r} has invalid test power {power}; need a finite value >= 0"
        )
    if not (math.isfinite(duration) and duration > 0):
        raise PowerProfileError(
            f"core {name!r} has invalid test duration {duration}; need a finite value > 0"
        )


class PowerProfile:
    """Per-core test power (W) and test duration (s), complete over a floorplan."""

    def __init__(self, entries: Mapping[str, tuple[float, float]], floorplan: Floorplan):
        unknown = sorted(name for name in entries if name not in floorplan)
        if unknown:
            raise PowerProfileError(f"unknown core id(s): {', '.join(unknown)}")
        missing = [name for name in floorplan.names if name not in entries]
        if missing:
            raise PowerProfileError(f"no power entry for core(s): {', '.join(missing)}")
        for name, (power, duration) in entries.items():
            _check_test_values(name, power, duration)
        # store in floorplan order for deterministic iteration
        self._entries = {
            name: (float(entries[name][0]), float(entries[name][1]))
            for name in floorplan.names
        }

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

    Every floorplan core must appear exactly once.
    """
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
