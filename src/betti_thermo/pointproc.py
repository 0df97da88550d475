"""Samplers for binomial and Poisson point processes on boxes and
piecewise-constant densities, plus the scaling / superposition couplings.

Density and intensity grids share one sampler, _Grid.sample, on a cell
cdf and a cell-corner table built once per grid. It draws as numpy 2.4's
weighted `choice` does, so streams match it, but calls only
Generator.random: NEP 19 does not promise `choice`'s stream across
numpy versions.

Every sampler returns a PointCloud: finite coordinates, exact duplicate
rows dropped. Duplicates are screened by sorting the first column, since
equal rows have equal first coordinates; only clouds with a tie there go
through the row-wise np.unique.

Every layer checks its scalar arguments against this module's table of
rules, _ARG_RULES, with _check_value, raising its own error naming the value.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

MASS_TOL = 1e-12


class DensityError(ValueError):
    """Invalid density or intensity grid."""


class SamplerError(ValueError):
    """Invalid sampler arguments."""


def _converts(convert, value) -> bool:
    """Whether convert takes value: operator.index takes an int or a numpy
    integer, math.isnan a real number, a numpy scalar or a 0-d array."""
    try:
        convert(value)
    except (TypeError, ValueError, OverflowError):
        return False
    return True


# what a value of each kind must be, as messages say it, and its test; no
# kind takes a bool
_COUNT, _REAL, _NUMBER = "an integer", "a finite number", "a number"
_KINDS = {_COUNT: lambda v: _converts(operator.index, v),
          _REAL: lambda v: _converts(math.isnan, v) and math.isfinite(v),
          _NUMBER: lambda v: _converts(math.isnan, v),
          "'plain' or 'torus'": ("plain", "torus").__contains__}
# a bound's test and what it asks of a value, as messages say it
_POSITIVE = (lambda v: v > 0, "be positive")
_NON_NEGATIVE = (lambda v: v >= 0, "be non-negative")
_AT_LEAST_1 = (lambda v: v >= 1, "be at least 1")

# argument -> (its name in messages, its kind, its bound or None); a row whose
# bound reads a cap, such as cech.MAX_DIM, is added by the module stating the cap
_ARG_RULES = {
    "stream": ("seed and stream path", _COUNT, (lambda v: v >= 0, "be non-negative integers")),
    "window_dim": ("window dimension", _COUNT, _AT_LEAST_1),
    "cells": ("cells per axis", _COUNT, _AT_LEAST_1),
    # a draw may be empty; an estimate divides by its n
    "draws": ("n", _COUNT, _NON_NEGATIVE),
    "n": ("n", _COUNT, _AT_LEAST_1),
    "L": ("window volume", _REAL, _POSITIVE),
    "lam": ("intensity", _REAL, _NON_NEGATIVE),
    "theta": ("theta", _REAL, _POSITIVE),
    # an estimator's radius is finite; a build's may be inf, the complete complex
    "r": ("radius", _REAL, _POSITIVE),
    "build_r": ("radius", _NUMBER, _POSITIVE),
    "period": ("torus period", _REAL, _POSITIVE),
    "max_dim": ("max_dim", _COUNT, _NON_NEGATIVE),
    "max_k": ("max_k", _COUNT, _NON_NEGATIVE),
    "k": ("k", _COUNT, _AT_LEAST_1),
    "j": ("simplex dimension", _COUNT, _NON_NEGATIVE),
    "boxes": ("box count", _COUNT, None),
    "s_grid": ("s-grid point", _REAL, None),
    "values": ("curve value", _REAL, None),
    "stderrs": ("curve stderr", _REAL, None),
    "boundary_mode": ("boundary mode", "'plain' or 'torus'", None),
}
_ARG_RULES["schedule"] = _ARG_RULES["n"]


def _check_value(error: type[ValueError], name: str, value) -> None:
    """Raises error naming value unless it passes the row of argument name:
    its kind, which no bool is, then its bound."""
    label, kind, bound = _ARG_RULES[name]
    if value.__class__ is bool or not _KINDS[kind](value):
        raise error(f"{label} must be {kind}, got {value!r}")
    if bound is not None and not bound[0](value):
        raise error(f"{label} must {bound[1]}, got {value}")


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

    def __post_init__(self):
        # a negative or non-integer entry would otherwise fail inside numpy
        for value in (self.master_seed, *self.path):
            _check_value(SamplerError, "stream", value)

    def substream(self, index: int) -> "RngStream":
        return RngStream(self.master_seed, self.path + (index,))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True, eq=False)
class Window:
    """Axis-aligned half-open box [lower, upper) in R^d.

    Its sides, upper - lower, are computed once, read-only, as is its
    volume: a sampler reads both in every replicate.
    """

    lower: np.ndarray
    upper: np.ndarray
    sides: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise SamplerError("window bounds must be equal-length vectors, "
                               f"got {lo.tolist()} / {hi.tolist()}")
        _check_value(SamplerError, "window_dim", len(lo))
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise SamplerError(
                f"window bounds must be finite, got {lo.tolist()} / {hi.tolist()}")
        if not np.all(lo < hi):
            raise SamplerError(f"window must satisfy lower < upper, got {lo} / {hi}")
        sides = hi - lo
        for arr in (lo, hi, sides):
            arr.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "sides", sides)
        object.__setattr__(self, "_volume", float(np.prod(sides)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Window):
            return NotImplemented
        return (np.array_equal(self.lower, other.lower)
                and np.array_equal(self.upper, other.upper))

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def volume(self) -> float:
        return self._volume

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Half-open membership mask for an (n, d) array of points."""
        pts = np.atleast_2d(points)
        return np.all((pts >= self.lower) & (pts < self.upper), axis=1)

    @classmethod
    def centered(cls, L: float, dim: int) -> "Window":
        """The observation window of volume L: [-L^(1/d)/2, L^(1/d)/2)^d."""
        _check_value(SamplerError, "L", L)
        _check_value(SamplerError, "window_dim", dim)
        half = 0.5 * L ** (1.0 / dim)
        return cls(np.full(dim, -half), np.full(dim, half))

    @classmethod
    def unit(cls, dim: int) -> "Window":
        _check_value(SamplerError, "window_dim", dim)
        return cls(np.zeros(dim), np.ones(dim))


def _dedup_rows(pts: np.ndarray) -> np.ndarray:
    # exact coordinate duplicates removed, first occurrence kept. Equal
    # rows have equal first coordinates, so a sorted first column without
    # ties proves there are none; only ties pay for the row-wise unique
    if len(pts) < 2:
        return pts
    if pts.shape[1]:
        first_col = np.sort(pts[:, 0])
        if not (first_col[1:] == first_col[:-1]).any():
            return pts
    _, first = np.unique(pts, axis=0, return_index=True)
    if len(first) == len(pts):
        return pts
    return pts[np.sort(first)]


@dataclass(frozen=True, eq=False)
class PointCloud:
    """A finite point set in R^d (one realization of a point process).

    Exact duplicate coordinates are removed on construction so the cloud is
    a simple counting measure, and non-finite coordinates are rejected.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise SamplerError("points must be an (n, d) array")
        if not np.isfinite(pts).all():
            row = int(np.argmin(np.isfinite(pts).all(axis=1)))
            raise SamplerError(
                f"points must be finite: row {row} is {pts[row].tolist()}")
        pts = _dedup_rows(np.ascontiguousarray(pts))
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointCloud):
            return NotImplemented
        return np.array_equal(self.points, other.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    @classmethod
    def empty(cls, dim: int) -> "PointCloud":
        return cls(np.empty((0, dim)))


@dataclass(frozen=True, eq=False)
class _Grid:
    """A piecewise-constant function on a box: one non-negative value per
    cell, cells in row-major order, and the sampler's cdf and corner tables.
    """

    box: Window
    cells_per_axis: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        cells = tuple(np.atleast_1d(self.cells_per_axis).tolist())
        for c in cells:
            _check_value(DensityError, "cells", c)
        if len(cells) != self.box.dim:
            raise DensityError(f"need one cell count per axis, got {list(cells)} in d={self.dim}")
        vals = np.asarray(self.values, dtype=float).ravel()
        if vals.shape[0] != int(np.prod(cells)):
            raise DensityError(f"expected {int(np.prod(cells))} cell values, got {vals.shape[0]}")
        bad = vals[~(np.isfinite(vals) & (vals >= 0))]
        if len(bad):
            raise DensityError(f"cell values must be finite and non-negative, got {bad[0]}")
        vals.flags.writeable = False
        object.__setattr__(self, "cells_per_axis", cells)
        object.__setattr__(self, "values", vals)
        # the table of numpy's weighted choice with p = masses / total: the
        # running sum of p over its last entry. A grid of zero or infinite
        # mass has none
        cdf = None
        if 0 < self.total_mass < np.inf:
            cdf = (self.cell_masses() / self.total_mass).cumsum()
            cdf = cdf / cdf[-1]
        object.__setattr__(self, "_cdf", cdf)
        index = np.stack(np.unravel_index(np.arange(len(vals)), cells), axis=-1)
        object.__setattr__(self, "_corners", self.box.lower + index * self.cell_sides)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.box == other.box and self.cells_per_axis == other.cells_per_axis
                and np.array_equal(self.values, other.values))

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
        return float(self.values.max())

    @property
    def total_mass(self) -> float:
        # inf, with no warning, where a cell's mass or the sum overflows
        with np.errstate(over="ignore"):
            return float(self.cell_masses().sum())

    def cell_masses(self) -> np.ndarray:
        return self.values * self.cell_volume

    def sample(self, n: int, gen: np.random.Generator) -> np.ndarray:
        """n i.i.d. points: cell proportional to mass, then uniform in the cell.

        Draws n uniforms for the cells, then n * d for the offsets.
        """
        if self._cdf is None:
            raise DensityError("cannot sample a grid of zero mass or of infinite mass")
        cells = self._cdf.searchsorted(gen.random(n), side="right")
        return self._corners[cells] + gen.random((n, self.dim)) * self.cell_sides


class DensityGrid(_Grid):
    """Piecewise-constant probability density on a bounded box.

    ``values`` is the density per unit volume; total mass must equal 1
    within MASS_TOL. The JSON loader normalizes.
    """

    def __post_init__(self):
        super().__post_init__()
        if abs(self.total_mass - 1.0) > MASS_TOL:
            raise DensityError(
                f"density mass is {self.total_mass!r}, must be 1 within {MASS_TOL}")

    @classmethod
    def uniform(cls, box: Window) -> "DensityGrid":
        return cls(box, (1,) * box.dim, np.array([1.0 / box.volume()]))

    @classmethod
    def from_json(cls, path) -> "DensityGrid":
        """Load {dim, lower[], upper[], cells_per_axis[], values[]}; mass is normalized."""
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise DensityError(f"density file {path} is not a JSON object")
        missing = [key for key in _JSON_KEYS if key not in doc]
        if missing:
            raise DensityError(f"density file {path} is missing {', '.join(map(repr, missing))}")
        read = {}
        for key, convert in _JSON_KEYS.items():
            try:
                read[key] = convert(doc[key])
            except (TypeError, ValueError):
                raise DensityError(f"density file {path}: key {key!r} has invalid value "
                                   f"{doc[key]!r}") from None
        box = Window(read["lower"], read["upper"])
        if box.dim != read["dim"]:
            raise DensityError(f"dim field {read['dim']} does not match bounds of length {box.dim}")
        grid = _Grid(box, read["cells_per_axis"], read["values"])
        mass = float(grid.values.sum() * (box.volume() / grid.n_cells))
        if mass <= 0:
            raise DensityError(f"density file {path} has zero total mass")
        return cls(box, grid.cells_per_axis, grid.values / mass)


_floats = functools.partial(np.asarray, dtype=float)
# how from_json reads each key of a density file
_JSON_KEYS = {"dim": operator.index, "lower": _floats, "upper": _floats,
              "cells_per_axis": lambda value: tuple(map(operator.index, np.atleast_1d(value))),
              "values": _floats}


class IntensityGrid(_Grid):
    """Piecewise-constant Poisson intensity (not normalized; mass may be 0)."""

    def _same_grid(self, other: "IntensityGrid") -> None:
        if self.cells_per_axis != other.cells_per_axis or self.box != other.box:
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
    _check_value(SamplerError, "draws", n)
    gen = rng.generator()
    return PointCloud(density.sample(n, gen))


def sample_poisson_homogeneous(lam: float, window: Window, rng: RngStream) -> PointCloud:
    """Homogeneous Poisson process of density lam restricted to the window.

    The count is Poisson(lam * |window|); given the count, points are
    i.i.d. uniform. lam = 0 is the trivial process with no points.
    """
    _check_value(SamplerError, "lam", lam)
    gen = rng.generator()
    if lam == 0:
        return PointCloud.empty(window.dim)
    n = int(gen.poisson(lam * window.volume()))
    pts = window.lower + gen.random((n, window.dim)) * window.sides
    return PointCloud(pts)


def sample_poisson_intensity(intensity: IntensityGrid, rng: RngStream) -> PointCloud:
    """Non-homogeneous Poisson process with piecewise-constant intensity."""
    gen = rng.generator()
    mass = intensity.total_mass
    if mass <= 0:
        return PointCloud.empty(intensity.dim)
    return PointCloud(intensity.sample(int(gen.poisson(mass)), gen))


def superpose(a: PointCloud, b: PointCloud) -> PointCloud:
    """Union of two clouds; realizes the coupling P(f) + P(g) = P(f + g)."""
    if a.dim != b.dim:
        raise SamplerError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return PointCloud(np.concatenate([a.points, b.points]))


def scale_points(cloud: PointCloud | np.ndarray, theta: float) -> PointCloud:
    """Map every point x to theta * x (theta P(lam) has the law of P(lam / theta^d)).

    cloud may also be an (n, d) array of points, such as a sampler's raw
    draw, which then becomes a cloud once, scaled. Scaling can only merge
    points, and deduplication keeps first occurrences, so that is the
    cloud of the draw, scaled.
    """
    _check_value(SamplerError, "theta", theta)
    points = cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=float)
    return PointCloud(points * theta)
