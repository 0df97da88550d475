"""Samplers for binomial and Poisson point processes on boxes and
piecewise-constant densities, plus the scaling / superposition couplings."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MASS_TOL = 1e-12


class DensityError(ValueError):
    """Invalid density or intensity grid."""


class SamplerError(ValueError):
    """Invalid sampler arguments."""


@dataclass(frozen=True)
class RngStream:
    """Handle for a deterministic random substream.

    A stream is identified by a 64-bit master seed and a spawn path of
    non-negative integers; distinct paths give statistically independent
    Philox (counter-based) streams. ``substream(i)`` extends the path, so
    nested experiments (curve point -> replicate) get collision-free
    streams regardless of execution order or worker count.

    Streams are cheap value objects. ``generator()`` always starts from
    the beginning of the stream, so a sampler called twice with the same
    stream returns the same output. Do not share one Generator instance
    between threads; derive one substream per unit of work instead.
    """

    master_seed: int
    path: tuple[int, ...] = ()

    def substream(self, index: int) -> "RngStream":
        return RngStream(self.master_seed, self.path + (int(index),))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class Window:
    """Axis-aligned half-open box [lower, upper) in R^d."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise SamplerError("window bounds must be equal-length vectors")
        if not np.all(lo < hi):
            raise SamplerError(f"window must satisfy lower < upper, got {lo} / {hi}")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def sides(self) -> np.ndarray:
        return self.upper - self.lower

    def volume(self) -> float:
        return float(np.prod(self.sides))

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Half-open membership mask for an (n, d) array of points."""
        pts = np.atleast_2d(points)
        return np.all((pts >= self.lower) & (pts < self.upper), axis=1)

    @classmethod
    def centered(cls, L: float, dim: int) -> "Window":
        """The observation window of volume L: [-L^(1/d)/2, L^(1/d)/2)^d."""
        if L <= 0:
            raise SamplerError("window volume must be positive")
        half = 0.5 * L ** (1.0 / dim)
        return cls(np.full(dim, -half), np.full(dim, half))

    @classmethod
    def unit(cls, dim: int) -> "Window":
        return cls(np.zeros(dim), np.ones(dim))


def _dedup_rows(pts: np.ndarray) -> np.ndarray:
    # exact coordinate duplicates removed, first occurrence kept
    if len(pts) < 2:
        return pts
    _, first = np.unique(pts, axis=0, return_index=True)
    if len(first) == len(pts):
        return pts
    return pts[np.sort(first)]


@dataclass(frozen=True)
class PointCloud:
    """A finite point set in R^d (one realization of a point process).

    Exact duplicate coordinates are removed on construction so the cloud is
    a simple counting measure; ``seed`` records the master seed of the
    stream that generated it (None for synthetic inputs).
    """

    points: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise SamplerError("points must be an (n, d) array")
        pts = _dedup_rows(np.ascontiguousarray(pts))
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    @classmethod
    def empty(cls, dim: int, seed: int | None = None) -> "PointCloud":
        return cls(np.empty((0, dim)), seed=seed)


class _Grid:
    """Shared cell bookkeeping for density / intensity grids."""

    def _init_grid(self, box: Window, cells_per_axis, values) -> None:
        cells = tuple(int(c) for c in np.atleast_1d(cells_per_axis))
        if len(cells) != box.dim or any(c < 1 for c in cells):
            raise DensityError("cells_per_axis must give a positive count per axis")
        vals = np.asarray(values, dtype=float).ravel()
        if vals.shape[0] != int(np.prod(cells)):
            raise DensityError(
                f"expected {int(np.prod(cells))} cell values, got {vals.shape[0]}"
            )
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise DensityError("cell values must be finite and non-negative")
        vals.flags.writeable = False
        object.__setattr__(self, "cells_per_axis", cells)
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return self.box.dim

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.cells_per_axis))

    @property
    def cell_sides(self) -> np.ndarray:
        return self.box.sides / np.asarray(self.cells_per_axis, dtype=float)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.cell_sides))

    @property
    def sup_value(self) -> float:
        return float(self.values.max()) if self.n_cells else 0.0

    def cell_masses(self) -> np.ndarray:
        return self.values * self.cell_volume

    def cell_lower_corners(self, flat_indices: np.ndarray) -> np.ndarray:
        multi = np.unravel_index(flat_indices, self.cells_per_axis)
        coords = np.stack(multi, axis=-1).astype(float)
        return self.box.lower + coords * self.cell_sides

    def _sample_cells(self, flat_indices: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        lows = self.cell_lower_corners(flat_indices)
        return lows + gen.random(lows.shape) * self.cell_sides


@dataclass(frozen=True)
class DensityGrid(_Grid):
    """Piecewise-constant probability density on a bounded box.

    ``values`` is the density per unit volume, one entry per cell in
    row-major order; total mass must equal 1 within MASS_TOL. Use
    ``from_values(..., normalize=True)`` or the JSON loader to normalize.
    """

    box: Window
    cells_per_axis: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        self._init_grid(self.box, self.cells_per_axis, self.values)
        mass = float(self.cell_masses().sum())
        if abs(mass - 1.0) > MASS_TOL:
            raise DensityError(f"density mass is {mass!r}, must be 1 within {MASS_TOL}")
        if self.sup_value <= 0:
            raise DensityError("density must be positive somewhere")

    @classmethod
    def from_values(cls, box: Window, cells_per_axis, values, normalize: bool = False) -> "DensityGrid":
        vals = np.asarray(values, dtype=float).ravel()
        if normalize:
            cells = tuple(int(c) for c in np.atleast_1d(cells_per_axis))
            cell_vol = box.volume() / int(np.prod(cells))
            mass = float(vals.sum() * cell_vol)
            if mass <= 0:
                raise DensityError("cannot normalize a density with zero total mass")
            vals = vals / mass
        return cls(box, tuple(int(c) for c in np.atleast_1d(cells_per_axis)), vals)

    @classmethod
    def uniform(cls, box: Window) -> "DensityGrid":
        return cls(box, (1,) * box.dim, np.array([1.0 / box.volume()]))

    @classmethod
    def from_json(cls, path) -> "DensityGrid":
        """Load {dim, lower[], upper[], cells_per_axis[], values[]}; mass is normalized."""
        with open(path) as fh:
            doc = json.load(fh)
        dim = int(doc["dim"])
        box = Window(np.asarray(doc["lower"], dtype=float), np.asarray(doc["upper"], dtype=float))
        if box.dim != dim:
            raise DensityError(f"dim field {dim} does not match bounds of length {box.dim}")
        return cls.from_values(box, doc["cells_per_axis"], doc["values"], normalize=True)

    def to_json(self, path) -> None:
        doc = {
            "dim": self.dim,
            "lower": self.box.lower.tolist(),
            "upper": self.box.upper.tolist(),
            "cells_per_axis": list(self.cells_per_axis),
            "values": self.values.tolist(),
        }
        Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    def sample(self, n: int, gen: np.random.Generator) -> np.ndarray:
        """n i.i.d. points: cell proportional to mass, then uniform in the cell."""
        if n == 0:
            return np.empty((0, self.dim))
        p = self.cell_masses()
        p = p / p.sum()
        cells = gen.choice(self.n_cells, size=n, p=p)
        return self._sample_cells(cells, gen)


@dataclass(frozen=True)
class IntensityGrid(_Grid):
    """Piecewise-constant Poisson intensity (not normalized; mass may be 0)."""

    box: Window
    cells_per_axis: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        self._init_grid(self.box, self.cells_per_axis, self.values)

    @property
    def total_mass(self) -> float:
        return float(self.cell_masses().sum())

    def _same_grid(self, other: "IntensityGrid") -> None:
        if (self.cells_per_axis != other.cells_per_axis
                or not np.array_equal(self.box.lower, other.box.lower)
                or not np.array_equal(self.box.upper, other.box.upper)):
            raise DensityError("intensity grids must share box and cell layout")

    def minimum(self, other: "IntensityGrid") -> "IntensityGrid":
        self._same_grid(other)
        return IntensityGrid(self.box, self.cells_per_axis, np.minimum(self.values, other.values))

    def excess_over(self, other: "IntensityGrid") -> "IntensityGrid":
        """Cellwise positive part (self - other)^+."""
        self._same_grid(other)
        return IntensityGrid(self.box, self.cells_per_axis,
                             np.maximum(self.values - other.values, 0.0))

    def l1_distance(self, other: "IntensityGrid") -> float:
        self._same_grid(other)
        return float(np.abs(self.values - other.values).sum() * self.cell_volume)


def sample_binomial(density: DensityGrid, n: int, rng: RngStream) -> PointCloud:
    """Exactly n i.i.d. draws from the density."""
    if n < 0:
        raise SamplerError("n must be non-negative")
    gen = rng.generator()
    return PointCloud(density.sample(n, gen), seed=rng.master_seed)


def sample_poisson_homogeneous(lam: float, window: Window, rng: RngStream) -> PointCloud:
    """Homogeneous Poisson process of density lam restricted to the window.

    The count is Poisson(lam * |window|); given the count, points are
    i.i.d. uniform. lam = 0 is the trivial process with no points.
    """
    if lam < 0:
        raise SamplerError("intensity must be non-negative")
    gen = rng.generator()
    if lam == 0:
        return PointCloud.empty(window.dim, seed=rng.master_seed)
    n = int(gen.poisson(lam * window.volume()))
    pts = window.lower + gen.random((n, window.dim)) * window.sides
    return PointCloud(pts, seed=rng.master_seed)


def sample_poisson_intensity(intensity: IntensityGrid, rng: RngStream) -> PointCloud:
    """Non-homogeneous Poisson process with piecewise-constant intensity."""
    gen = rng.generator()
    mass = intensity.total_mass
    if mass <= 0:
        return PointCloud.empty(intensity.dim, seed=rng.master_seed)
    count = int(gen.poisson(mass))
    if count == 0:
        return PointCloud.empty(intensity.dim, seed=rng.master_seed)
    p = intensity.cell_masses() / mass
    cells = gen.choice(intensity.n_cells, size=count, p=p)
    return PointCloud(intensity._sample_cells(cells, gen), seed=rng.master_seed)


def superpose(a: PointCloud, b: PointCloud) -> PointCloud:
    """Union of two clouds; realizes the coupling P(f) + P(g) = P(f + g)."""
    if a.dim != b.dim:
        raise SamplerError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return PointCloud(np.concatenate([a.points, b.points]), seed=a.seed)


def scale_points(cloud: PointCloud, theta: float) -> PointCloud:
    """Map every point x to theta * x (theta P(lam) has the law of P(lam / theta^d))."""
    if theta <= 0:
        raise SamplerError("scale factor must be positive")
    return PointCloud(cloud.points * theta, seed=cloud.seed)
