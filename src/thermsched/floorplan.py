"""Floorplan geometry: core rectangles, power profiles, adjacency.

A floorplan is an ordered collection of named, axis-aligned rectangles on a
die, positioned by their lower-left corner, in meters.  Cores must not
overlap; abutment is legal.  Two cores are thermally adjacent when they
share an edge segment longer than EPSILON; corner contact never counts.

File formats (UTF-8, '#' starts a comment, blank lines ignored):

* floorplan: whitespace-separated records ``name width height left_x bottom_y``
* power profile: CSV records ``core_id,power_watts,duration_s``
"""

from __future__ import annotations

import math
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


def shared_edge_length(a: CoreGeometry, b: CoreGeometry) -> float:
    """Length of the boundary segment two non-overlapping rectangles share.

    Returns 0.0 when the rectangles do not abut; corner contact has zero
    length.  Rectangles whose facing edges are within EPSILON of each other
    count as touching, so generated floorplans with floating-point seams
    still register contact.
    """
    x_gap = max(a.left_x, b.left_x) - min(a.right_x, b.right_x)
    y_gap = max(a.bottom_y, b.bottom_y) - min(a.top_y, b.top_y)
    if abs(x_gap) <= EPSILON:  # touching along a vertical edge
        return max(0.0, -y_gap)
    if abs(y_gap) <= EPSILON:  # touching along a horizontal edge
        return max(0.0, -x_gap)
    return 0.0


@dataclass(frozen=True)
class AdjacencyEdge:
    """Geometry of one adjacent core pair."""

    shared_edge: float
    center_distance: float


class AdjacencyGraph:
    """Symmetric adjacency geometry derived from a floorplan.

    Stores, for every pair of cores sharing more than EPSILON of edge, the
    shared edge length and the Euclidean distance between core centers.
    """

    def __init__(
        self,
        edges: Mapping[tuple[str, str], AdjacencyEdge],
        neighbors: Mapping[str, tuple[str, ...]],
        ordered_pairs: tuple[tuple[str, str], ...],
    ):
        self._edges = dict(edges)
        self._neighbors = dict(neighbors)
        self._ordered_pairs = ordered_pairs

    def neighbors(self, name: str) -> tuple[str, ...]:
        """Cores adjacent to ``name``, in floorplan order."""
        return self._neighbors[name]

    def has_edge(self, a: str, b: str) -> bool:
        return (a, b) in self._edges

    def _edge(self, a: str, b: str) -> AdjacencyEdge:
        try:
            return self._edges[(a, b)]
        except KeyError:
            raise ValueError(f"cores {a!r} and {b!r} are not adjacent") from None

    def shared_edge(self, a: str, b: str) -> float:
        return self._edge(a, b).shared_edge

    def center_distance(self, a: str, b: str) -> float:
        return self._edge(a, b).center_distance

    def pairs(self) -> Iterator[tuple[str, str]]:
        """Each adjacent pair once, in deterministic floorplan order."""
        return iter(self._ordered_pairs)


class Floorplan:
    """Ordered, validated collection of non-overlapping cores."""

    def __init__(self, cores: Iterable[CoreGeometry]):
        cores = tuple(cores)
        if not cores:
            raise FloorplanError("floorplan has no cores")
        by_name: dict[str, CoreGeometry] = {}
        for core in cores:
            values = (core.width, core.height, core.left_x, core.bottom_y)
            if not all(math.isfinite(v) for v in values):
                raise FloorplanError(f"core {core.name!r} has non-finite geometry")
            if not (core.width > 0 and core.height > 0):
                raise FloorplanError(
                    f"core {core.name!r} has non-positive dimensions "
                    f"({core.width} x {core.height})"
                )
            if core.name in by_name:
                raise FloorplanError(f"duplicate core id {core.name!r}")
            by_name[core.name] = core
        _check_overlaps(cores)
        self._cores = cores
        self._by_name = by_name
        self._adjacency: AdjacencyGraph | None = None

    @property
    def cores(self) -> tuple[CoreGeometry, ...]:
        return self._cores

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(core.name for core in self._cores)

    def core(self, name: str) -> CoreGeometry:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no core named {name!r} in floorplan") from None

    def adjacency(self) -> AdjacencyGraph:
        """Adjacency geometry, built once and cached (floorplans are immutable)."""
        if self._adjacency is None:
            self._adjacency = build_adjacency(self)
        return self._adjacency

    def to_text(self) -> str:
        """Serialize back to floorplan file format; round-trips bit-exact."""
        lines = [
            f"{c.name}\t{c.width!r}\t{c.height!r}\t{c.left_x!r}\t{c.bottom_y!r}"
            for c in self._cores
        ]
        return "\n".join(lines) + "\n"

    def __len__(self) -> int:
        return len(self._cores)

    def __iter__(self) -> Iterator[CoreGeometry]:
        return iter(self._cores)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Floorplan):
            return NotImplemented
        return self._cores == other._cores

    def __repr__(self) -> str:
        return f"Floorplan({len(self._cores)} cores)"


def _check_overlaps(cores: tuple[CoreGeometry, ...]) -> None:
    # Overlap means the intersection is wider AND taller than the seam
    # tolerance; mere abutment (or a floating-point seam) is legal.
    for i in range(len(cores)):
        for j in range(i + 1, len(cores)):
            a, b = cores[i], cores[j]
            w = min(a.right_x, b.right_x) - max(a.left_x, b.left_x)
            h = min(a.top_y, b.top_y) - max(a.bottom_y, b.bottom_y)
            if w > EPSILON and h > EPSILON:
                raise FloorplanError(
                    f"cores {a.name!r} and {b.name!r} overlap "
                    f"(intersection {w:.3e} m x {h:.3e} m)"
                )


def parse_floorplan(source: str | IO[str]) -> Floorplan:
    """Parse floorplan text: ``name width height left_x bottom_y`` per record.

    Raises FloorplanError with a line number for malformed records, and for
    duplicate ids, non-positive dimensions, or overlapping rectangles.
    """
    text = source.read() if hasattr(source, "read") else source
    cores: list[CoreGeometry] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 5:
            raise FloorplanError(
                f"line {lineno}: expected 'name width height left_x bottom_y', "
                f"got {raw!r}"
            )
        name = fields[0]
        try:
            width, height, left_x, bottom_y = (float(v) for v in fields[1:])
        except ValueError:
            raise FloorplanError(f"line {lineno}: non-numeric field in {raw!r}") from None
        if name in seen:
            raise FloorplanError(f"line {lineno}: duplicate core id {name!r}")
        if not all(math.isfinite(v) for v in (width, height, left_x, bottom_y)):
            raise FloorplanError(f"line {lineno}: core {name!r} has non-finite geometry")
        if not (width > 0 and height > 0):
            raise FloorplanError(
                f"line {lineno}: core {name!r} has non-positive dimensions"
            )
        seen.add(name)
        cores.append(CoreGeometry(name, width, height, left_x, bottom_y))
    return Floorplan(cores)


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
            if not (math.isfinite(power) and power >= 0):
                raise PowerProfileError(
                    f"core {name!r} has invalid test power {power}; need a finite value >= 0"
                )
            if not (math.isfinite(duration) and duration > 0):
                raise PowerProfileError(
                    f"core {name!r} has invalid test duration {duration}; need a finite value > 0"
                )
        # store in floorplan order for deterministic iteration
        self._entries = {
            name: (float(entries[name][0]), float(entries[name][1]))
            for name in floorplan.names
        }

    @property
    def entries(self) -> Mapping[str, tuple[float, float]]:
        return dict(self._entries)

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PowerProfile):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        return f"PowerProfile({len(self._entries)} cores)"


def parse_power_profile(source: str | IO[str], floorplan: Floorplan) -> PowerProfile:
    """Parse ``core_id,power_watts,duration_s`` CSV against a floorplan.

    Every floorplan core must appear exactly once.
    """
    text = source.read() if hasattr(source, "read") else source
    entries: dict[str, tuple[float, float]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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
        if not (math.isfinite(power) and power >= 0):
            raise PowerProfileError(
                f"line {lineno}: core {name!r} has invalid test power {power}"
            )
        if not (math.isfinite(duration) and duration > 0):
            raise PowerProfileError(
                f"line {lineno}: core {name!r} has invalid test duration {duration}"
            )
        entries[name] = (power, duration)
    return PowerProfile(entries, floorplan)


def build_adjacency(floorplan: Floorplan) -> AdjacencyGraph:
    """Derive the adjacency graph: pairs sharing more than EPSILON of edge.

    Corner contact is not adjacency.  Edges carry the shared edge length and
    the center-to-center distance; both are symmetric.
    """
    edges: dict[tuple[str, str], AdjacencyEdge] = {}
    neighbors: dict[str, list[str]] = {core.name: [] for core in floorplan}
    ordered_pairs: list[tuple[str, str]] = []
    cores = floorplan.cores
    for i in range(len(cores)):
        for j in range(i + 1, len(cores)):
            a, b = cores[i], cores[j]
            length = shared_edge_length(a, b)
            if length <= EPSILON:
                continue
            edge = AdjacencyEdge(
                shared_edge=length,
                center_distance=math.dist(a.center, b.center),
            )
            edges[(a.name, b.name)] = edge
            edges[(b.name, a.name)] = edge
            neighbors[a.name].append(b.name)
            neighbors[b.name].append(a.name)
            ordered_pairs.append((a.name, b.name))
    return AdjacencyGraph(
        edges,
        {k: tuple(v) for k, v in neighbors.items()},
        tuple(ordered_pairs),
    )
