"""Seeded synthetic N=400 instance for the synth-* workloads, and its limits.

The floorplan is a random guillotine tiling (the construction of the test
suite's ``random_floorplan``) on a square die whose side is
8 mm * sqrt(N / 15), so the average power density matches the bundled
15-core ``demo15`` die.  Powers are uniform in 0.3-3 W, durations uniform in
0.5-2 s.

Why one canonical geometry.  The greedy packer's outcome on a loose STCL is
chaotic in the floorplan: over 30 random floorplans the loose schedule had
3 to 16 sessions and its run time and simulation effort spread by 15-50 %
between floorplans, more than any regression bound could absorb.  So the
geometry and powers come from one fixed generator seed, and ``--seed`` draws
an equivalent presentation of that instance: one of the 8 symmetries of the
square die, a fresh order of the records in both files, a fresh assignment
of core names, and every test duration scaled by its own factor in
[0.95, 1.05].  None of these changes the physics or a packing decision
(durations only set session lengths), so every seed runs the same work
through different bytes, and the schedule lengths differ by a few percent.

The limits are derived from the canonical instance with plain numpy,
independently of the program under test:

* BCMT(i)  = ambient + P(i) * max_j inv(G)[j, i]   (core i tested alone)
* STC(i)   = P(i)^2 / (g_vertical(i) + sum of lateral conductances)
* tight:  TL = max BCMT + 15 K, STCL = median singleton STC
* loose:  TL = max BCMT + 80 K, STCL = 16 * median singleton STC

TL is rounded to 1 mK and STCL to 6 significant digits, so last-bit
differences between BLAS builds cannot move them.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_CORES = 400
GEOMETRY_SEED = 0

# thermsched.ThermalParams() defaults, which the synthetic workloads use.
K_SILICON = 100.0
DIE_THICKNESS = 0.5e-3
R_VERTICAL_PER_AREA = 5e-4
T_AMBIENT = 45.0
SEAM = 1e-9  # thermsched.floorplan.EPSILON

DEMO_DIE_SIDE = 0.008
DEMO_CORES = 15

REGIMES = {
    # name: (TL margin over max BCMT in K, STCL as a multiple of median STC)
    "tight": (15.0, 1.0),
    "loose": (80.0, 16.0),
}


@dataclass(frozen=True)
class Instance:
    """Cores in file order: names, (width, height, left_x, bottom_y) in m,
    test power in W and test duration in s."""

    side: float
    names: tuple[str, ...]
    rects: np.ndarray
    power: np.ndarray
    duration: np.ndarray

    def floorplan_text(self) -> str:
        return "".join(
            f"{n}\t{w!r}\t{h!r}\t{x!r}\t{y!r}\n"
            for n, (w, h, x, y) in zip(self.names, self.rects.tolist())
        )

    def power_text(self) -> str:
        return "".join(
            f"{n},{p!r},{d!r}\n"
            for n, p, d in zip(self.names, self.power.tolist(), self.duration.tolist())
        )

    def write(self, directory: Path) -> tuple[Path, Path]:
        flp, csv = directory / "synth.flp", directory / "synth.csv"
        flp.write_text(self.floorplan_text(), encoding="utf-8")
        csv.write_text(self.power_text(), encoding="utf-8")
        return flp, csv


def canonical() -> Instance:
    """Guillotine tiling: repeatedly split the largest rectangle across its
    longer side at a uniform 35-65 % cut, then draw power and duration."""
    rng = np.random.default_rng(GEOMETRY_SEED)
    side = DEMO_DIE_SIDE * math.sqrt(N_CORES / DEMO_CORES)
    rects = [(0.0, 0.0, side, side)]
    while len(rects) < N_CORES:
        k = int(np.argmax([w * h for (_, _, w, h) in rects]))
        x, y, w, h = rects.pop(k)
        frac = rng.uniform(0.35, 0.65)
        if w >= h:
            cut = x + frac * w
            rects.append((x, y, cut - x, h))
            rects.append((cut, y, x + w - cut, h))
        else:
            cut = y + frac * h
            rects.append((x, y, w, cut - y))
            rects.append((x, cut, w, y + h - cut))
    names = tuple(f"r{i:03d}" for i in range(N_CORES))
    power = np.array([rng.uniform(0.3, 3.0) for _ in names])
    duration = np.array([rng.uniform(0.5, 2.0) for _ in names])
    geometry = np.array([(w, h, x, y) for (x, y, w, h) in rects])
    return Instance(side, names, geometry, power, duration)


def variant(inst: Instance, seed: int) -> Instance:
    """The instance under a seeded die symmetry, record order, naming and
    duration scaling; see the module docstring."""
    rng = np.random.default_rng([seed, len(inst.names)])
    w, h, x, y = inst.rects.T.copy()
    transpose, flip_x, flip_y = (bool(b) for b in rng.integers(0, 2, size=3))
    if transpose:
        w, h, x, y = h, w, y, x
    if flip_x:
        x = inst.side - x - w
    if flip_y:
        y = inst.side - y - h
    order = rng.permutation(len(inst.names))
    names = tuple(inst.names[i] for i in rng.permutation(len(inst.names)))
    duration = inst.duration[order] * rng.uniform(0.95, 1.05, size=len(names))
    return Instance(
        inst.side,
        names,
        np.column_stack((w, h, x, y))[order],
        inst.power[order],
        duration,
    )


def _conductances(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """Vertical conductance per core and the (N, N) lateral conductance matrix."""
    w, h, x, y = inst.rects.T
    right, top = x + w, y + h
    x_gap = np.maximum.outer(x, x) - np.minimum.outer(right, right)
    y_gap = np.maximum.outer(y, y) - np.minimum.outer(top, top)
    shared = np.where(
        np.abs(x_gap) <= SEAM,
        np.maximum(0.0, -y_gap),
        np.where(np.abs(y_gap) <= SEAM, np.maximum(0.0, -x_gap), 0.0),
    )
    np.fill_diagonal(shared, 0.0)
    cx, cy = x + 0.5 * w, y + 0.5 * h
    dist = np.hypot(np.subtract.outer(cx, cx), np.subtract.outer(cy, cy))
    adjacent = shared > SEAM
    lateral = np.zeros_like(shared)
    lateral[adjacent] = K_SILICON * DIE_THICKNESS * shared[adjacent] / dist[adjacent]
    return w * h / R_VERTICAL_PER_AREA, lateral


def limits(inst: Instance, regime: str) -> tuple[float, float]:
    """(TL in deg C, STCL in K*W) for one regime of ``REGIMES``."""
    margin, stcl_factor = REGIMES[regime]
    vertical, lateral = _conductances(inst)
    g_total = vertical + lateral.sum(axis=1)
    inverse = np.linalg.inv(np.diag(g_total) - lateral)
    bcmt = T_AMBIENT + inst.power * inverse.max(axis=0)
    median_stc = float(f"{statistics.median((inst.power**2 / g_total).tolist()):.6g}")
    tl = round(float(bcmt.max()) + margin, 3)
    return tl, float(f"{stcl_factor * median_stc:.6g}")
