"""Monte Carlo estimators for thermodynamic-regime limits.

Estimates the per-volume rates beta_k(lambda, r; L)/L and S_j/L of
stationary Poisson processes, tabulates the limit curve s -> beta_hat_k(1, s),
turns it into the limit integral for binomial processes via the scaling
identity beta_hat_k(lam, r) = lam * beta_hat_k(1, lam^(1/d) r), and runs
the verification experiments: scaling identity, binomial-vs-limit
convergence, Poissonization gap, boundary-strip inequality, and the
intensity-perturbation coupling.

Replicates draw from per-index RNG substreams, so every estimator is
bit-for-bit reproducible for any worker count. With workers > 1 they run on
a process pool that lives for one worker_pool() scope: the experiments
(limit curve, convergence table, Poissonization gap, scaling check) and
the CLI open one around all their estimator calls, so the workers are
forked once per experiment instead of once per call. A bare estimator call
opens its own scope.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
import threading
import typing
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from betti_thermo.cech import build_cech, simplices_touching
from betti_thermo.homology import betti_diff_bound_check, betti_numbers
from betti_thermo.pointproc import (
    DensityGrid,
    IntensityGrid,
    PointCloud,
    RngStream,
    Window,
    sample_poisson_homogeneous,
    sample_poisson_intensity,
    scale_points,
    superpose,
)

CSV_HEADER = "quantity,k,lambda,r,L_or_n,mean,stderr,reps,seed,boundary_mode"


class LimitsError(ValueError):
    """Invalid estimator arguments."""


class CurveCoverageError(LimitsError):
    """A curve evaluation fell outside the tabulated s-grid."""


def _fmt(x) -> str:
    return repr(float(x))


# dataclass field -> JSON key, where the two differ; from_dict inverts it
_JSON_KEYS = {"lam": "lambda", "k_or_j": "k", "master_seed": "seed", "records": "rows"}


def _to_json(value):
    if isinstance(value, _JsonRecord):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def _from_json(hint, value):
    if isinstance(hint, type) and issubclass(hint, _JsonRecord):
        return hint.from_dict(value)
    if typing.get_origin(hint) is tuple:
        return tuple(_from_json(typing.get_args(hint)[0], v) for v in value)
    return value


class _JsonRecord:
    """JSON form of a frozen report dataclass.

    to_dict writes every field under its _JSON_KEYS name, nested records
    and tuples included, then the derived properties named in _derived.
    from_dict reads the fields back (derived keys are ignored) and raises
    KeyError, TypeError or ValueError on a malformed document.
    """

    _derived = ()

    def to_dict(self) -> dict:
        names = [f.name for f in fields(self)] + list(self._derived)
        return {_JSON_KEYS.get(name, name): _to_json(getattr(self, name))
                for name in names}

    @classmethod
    def from_dict(cls, doc: dict):
        if not isinstance(doc, dict):
            raise TypeError(f"{cls.__name__} needs a JSON object, got {type(doc).__name__}")
        hints = typing.get_type_hints(cls)
        kwargs = {}
        for f in fields(cls):
            key = _JSON_KEYS.get(f.name, f.name)
            if key in doc or f.default is MISSING:
                kwargs[f.name] = _from_json(hints[f.name], doc[key])
        return cls(**kwargs)


@dataclass(frozen=True)
class EstimateRecord(_JsonRecord):
    """One Monte Carlo estimate with its provenance.

    lam is None for quantities without an intensity (binomial and
    Poissonized expectations, gaps); it renders as nan in CSV.
    """

    quantity: str
    k_or_j: int
    lam: float | None
    r: float
    L_or_n: float
    mean: float
    stderr: float
    reps: int
    master_seed: int
    boundary_mode: str

    def csv_row(self) -> str:
        return ",".join(
            [
                self.quantity,
                str(self.k_or_j),
                "nan" if self.lam is None else _fmt(self.lam),
                _fmt(self.r),
                _fmt(self.L_or_n),
                _fmt(self.mean),
                _fmt(self.stderr),
                str(self.reps),
                str(self.master_seed),
                self.boundary_mode,
            ]
        )


def records_csv(records) -> str:
    lines = [CSV_HEADER]
    lines.extend(rec.csv_row() for rec in records)
    return "\n".join(lines) + "\n"


def write_text_atomic(path, text: str) -> None:
    """Write via a temp file in the target directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_records_csv(path, records) -> None:
    write_text_atomic(path, records_csv(records))


# ---------------------------------------------------------------------------
# replicate engine

def _torus_period(L: float, dim: int, boundary_mode: str) -> float | None:
    return L ** (1.0 / dim) if boundary_mode == "torus" else None


def _betti_k(cloud: PointCloud, r: float, k: int, period: float | None) -> int:
    cx = build_cech(cloud, r, k + 1, period=period)
    return betti_numbers(cx, k)[k]


def _rep_betti_rate(task, i: int):
    lam, r, L, k, dim, mode, stream = task
    cloud = sample_poisson_homogeneous(lam, Window.centered(L, dim), stream.substream(i))
    return _betti_k(cloud, r, k, _torus_period(L, dim, mode)) / L


def _rep_simplex_rate(task, i: int):
    lam, r, L, j, dim, mode, stream = task
    cloud = sample_poisson_homogeneous(lam, Window.centered(L, dim), stream.substream(i))
    cx = build_cech(cloud, r, j, period=_torus_period(L, dim, mode))
    return len(cx.simplices_of(j)) / L


def _rep_binomial(task, i: int):
    density, n, r, k, stream = task
    gen = stream.substream(i).generator()
    pts = density.sample(n, gen)
    cloud = scale_points(PointCloud(pts), n ** (1.0 / density.dim))
    return _betti_k(cloud, r, k, None) / n


def _rep_gap(task, i: int):
    # shared point sequence: binomial keeps the first n draws, the
    # Poissonized process the first N ~ Poisson(n); common random numbers
    density, n, r, k, stream = task
    gen = stream.substream(i).generator()
    count = int(gen.poisson(n))
    pts = density.sample(max(n, count), gen)
    scale = n ** (1.0 / density.dim)
    b = _betti_k(scale_points(PointCloud(pts[:n]), scale), r, k, None)
    p = _betti_k(scale_points(PointCloud(pts[:count]), scale), r, k, None)
    return (b / n, p / n)


def _rep_strip(task, i: int):
    lam, r, L, m, k, dim, stream = task
    window = Window.centered(L, dim)
    cloud = sample_poisson_homogeneous(lam, window, stream.substream(i))
    cx = build_cech(cloud, r, k + 1)
    whole = betti_numbers(cx, k)[k]
    side = window.sides / m
    boxes_total = 0
    for idx in itertools.product(range(m), repeat=dim):
        lower = window.lower + np.asarray(idx) * side
        box = Window(lower, lower + side)
        sub = PointCloud(cloud.points[box.contains(cloud.points)])
        boxes_total += _betti_k(sub, r, k, None)
    pad = r + 1e-9
    slabs = []
    for axis in range(dim):
        for face in range(1, m):
            plane = window.lower[axis] + face * side[axis]
            lo = window.lower.copy()
            hi = window.upper.copy()
            lo[axis] = plane - pad
            hi[axis] = plane + pad
            slabs.append(Window(lo, hi))
    bound = sum(simplices_touching(cx, cloud, slabs, j) for j in (k, k + 1))
    return (abs(whole - boxes_total), bound)


def _rep_perturb(task, i: int):
    base, extra_f, extra_g, r, k, stream = task
    sub = stream.substream(i)
    shared = sample_poisson_intensity(base, sub.substream(0))
    cloud_f = superpose(shared, sample_poisson_intensity(extra_f, sub.substream(1)))
    cloud_g = superpose(shared, sample_poisson_intensity(extra_g, sub.substream(2)))
    kf = build_cech(cloud_f, r, k + 1)
    kg = build_cech(cloud_g, r, k + 1)
    bf = betti_numbers(kf, k)[k]
    bg = betti_numbers(kg, k)[k]
    nested_ok = True
    # one-sided perturbations give nested complexes realization by realization
    if extra_f.total_mass == 0:
        nested_ok = betti_diff_bound_check(kf, kg, k)
    elif extra_g.total_mass == 0:
        nested_ok = betti_diff_bound_check(kg, kf, k)
    return (bf - bg, nested_ok)


_REPLICATE_KINDS = {
    "betti_rate": _rep_betti_rate,
    "simplex_rate": _rep_simplex_rate,
    "binomial": _rep_binomial,
    "gap": _rep_gap,
    "strip": _rep_strip,
    "perturb": _rep_perturb,
}


def _replicate(packed):
    kind, task, i = packed
    return _REPLICATE_KINDS[kind](task, i)


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise LimitsError(f"workers must be at least 1, got {workers}")


class _PoolScope:
    """The process pool of one worker_pool() scope, started on first use."""

    def __init__(self):
        self._executor = None
        self._workers = 0

    def executor(self, workers: int) -> ProcessPoolExecutor:
        # a call asking for another worker count replaces the pool
        if self._executor is not None and self._workers != workers:
            self.close(cancel=False)
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=workers)
            self._workers = workers
        return self._executor

    def close(self, cancel: bool) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=cancel)
            self._executor = None


# the scope open in each thread, if any
_thread = threading.local()


@contextmanager
def worker_pool():
    """Scope in which every replicate map shares one process pool.

    The first map with workers > 1 forks the pool; later maps reuse it, and
    leaving the outermost scope shuts it down (cancelling pending work when
    the scope exits with an exception). Nested scopes join the open one. No
    pool outlives its scope: forked workers keep the module state of the
    moment they were forked, so a pool kept across scopes would run stale
    code.
    """
    if getattr(_thread, "scope", None) is not None:
        yield _thread.scope
        return
    _thread.scope = scope = _PoolScope()
    failed = True
    try:
        yield scope
        failed = False
    finally:
        _thread.scope = None
        scope.close(cancel=failed)


def _map_replicates(kind: str, task, reps: int, workers: int) -> list:
    # every estimator runs its replicates here, so this one check rejects
    # a bad worker count before any cloud is sampled
    _check_workers(workers)
    packed = [(kind, task, i) for i in range(reps)]
    if workers == 1:
        return [_replicate(p) for p in packed]
    chunk = max(1, math.ceil(reps / (4 * workers)))
    with worker_pool() as scope:
        return list(scope.executor(workers).map(_replicate, packed, chunksize=chunk))


def _mean_stderr(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(len(arr)))


# ---------------------------------------------------------------------------
# argument checks

def _check_args(*, r: float, reps: int | None = None, lam: float | None = None,
                L: float | None = None, dim: int | None = None,
                k: int | None = None, j: int | None = None, n: int | None = None,
                schedule: tuple[int, ...] | None = None,
                density: DensityGrid | None = None) -> None:
    """The estimators' argument checks; each runs when its argument is given.

    With a window (L and dim) k must lie in 1..d-1; without one k must be
    at least 1, and a density must have room for k-cycles. A schedule is
    checked for order, then its first n like a single n.
    """
    if schedule is not None:
        if not schedule or any(b <= a for a, b in zip(schedule, schedule[1:])):
            raise LimitsError("n-schedule must be non-empty and increasing")
        n = schedule[0]
    if lam is not None and lam < 0:
        raise LimitsError("intensity must be non-negative")
    if n is not None and n < 1:
        raise LimitsError("n must be at least 1")
    if r <= 0:
        raise LimitsError("radius must be positive")
    if L is not None:
        if dim < 1:
            raise LimitsError("dimension must be at least 1")
        if L <= (3.0 * r) ** dim:
            raise LimitsError(
                f"window volume {L} too small for radius {r}: need L > (3r)^d "
                "so no single simplex can span the window"
            )
    if reps is not None and reps < 2:
        raise LimitsError("need at least 2 replicates for a standard error")
    if j is not None and j < 0:
        raise LimitsError("simplex dimension must be non-negative")
    if k is not None:
        if L is not None and not 1 <= k <= dim - 1:
            raise LimitsError(f"k must lie in 1..d-1, got k={k} in d={dim}")
        if L is None and k < 1:
            raise LimitsError("k must be at least 1")
    if density is not None and density.dim < k + 1:
        raise LimitsError(f"k={k} needs ambient dimension >= {k + 1}")


# ---------------------------------------------------------------------------
# rate estimators

def estimate_betti_rate(lam: float, r: float, L: float, k: int, reps: int,
                        rng: RngStream, boundary_mode: str = "plain",
                        dim: int = 2, workers: int = 1) -> EstimateRecord:
    """Mean of beta_k(C(P_L(lam), r)) / L over independent replicates.

    boundary_mode "torus" replaces the Euclidean metric with the flat
    torus on the observation window, removing boundary bias.
    """
    _check_args(lam=lam, r=r, L=L, dim=dim, reps=reps, k=k)
    task = (lam, r, L, k, dim, boundary_mode, rng)
    values = _map_replicates("betti_rate", task, reps, workers)
    mean, stderr = _mean_stderr(values)
    return EstimateRecord("betti_rate", k, lam, r, L, mean, stderr, reps,
                          rng.master_seed, boundary_mode)


def estimate_simplex_rate(lam: float, r: float, L: float, j: int, reps: int,
                          rng: RngStream, boundary_mode: str = "plain",
                          dim: int = 2, workers: int = 1) -> EstimateRecord:
    """Mean of S_j(lam, r; L) / L, the per-volume j-simplex count."""
    _check_args(lam=lam, r=r, L=L, dim=dim, reps=reps, j=j)
    task = (lam, r, L, j, dim, boundary_mode, rng)
    values = _map_replicates("simplex_rate", task, reps, workers)
    mean, stderr = _mean_stderr(values)
    return EstimateRecord("simplex_rate", j, lam, r, L, mean, stderr, reps,
                          rng.master_seed, boundary_mode)


# ---------------------------------------------------------------------------
# the limit curve and the thermodynamic integral

@dataclass(frozen=True)
class LimitCurve(_JsonRecord):
    """Tabulated s -> beta_hat_k(1, s) with linear interpolation.

    beta_hat_k(lam, r) for arbitrary intensity is lam * value(lam^(1/d) r);
    variance propagates through the interpolation weights.
    """

    k: int
    dim: int
    L: float
    reps: int
    master_seed: int
    boundary_mode: str
    s_grid: tuple[float, ...]
    values: tuple[float, ...]
    stderrs: tuple[float, ...]
    provenance: tuple[EstimateRecord, ...] = ()

    def __post_init__(self):
        grid = np.asarray(self.s_grid, dtype=float)
        if len(grid) < 2 or np.any(np.diff(grid) <= 0):
            raise LimitsError("s_grid must be strictly increasing with >= 2 points")
        if len(self.values) != len(grid) or len(self.stderrs) != len(grid):
            raise LimitsError("curve values/stderrs must match the s_grid length")

    def weights(self, s: float) -> list[tuple[int, float]]:
        """Linear interpolation weights on the grid for the point s."""
        grid = self.s_grid
        if s < grid[0] - 1e-12 or s > grid[-1] + 1e-12:
            raise CurveCoverageError(
                f"curve covers s in [{grid[0]}, {grid[-1]}] but s={s} is needed"
            )
        s = min(max(s, grid[0]), grid[-1])
        hi = int(np.searchsorted(np.asarray(grid), s, side="left"))
        if grid[hi] == s:
            return [(hi, 1.0)]
        lo = hi - 1
        t = (s - grid[lo]) / (grid[hi] - grid[lo])
        return [(lo, 1.0 - t), (hi, t)]

    def value(self, s: float) -> float:
        return sum(w * self.values[i] for i, w in self.weights(s))

    def stderr(self, s: float) -> float:
        return math.sqrt(sum((w * self.stderrs[i]) ** 2 for i, w in self.weights(s)))


def build_limit_curve(k: int, s_grid, L: float, reps: int, rng: RngStream,
                      boundary_mode: str = "torus", dim: int = 2,
                      workers: int = 1) -> LimitCurve:
    """Estimate beta_hat_k(1, s) on the grid; s = 0 is exactly 0."""
    grid = [float(s) for s in s_grid]
    if any(s < 0 for s in grid):
        raise LimitsError("s_grid values must be non-negative")
    values = []
    stderrs = []
    provenance = []
    with worker_pool():
        for idx, s in enumerate(grid):
            if s == 0.0:
                rec = EstimateRecord("betti_rate", k, 1.0, 0.0, L, 0.0, 0.0, reps,
                                     rng.master_seed, boundary_mode)
            else:
                rec = estimate_betti_rate(1.0, s, L, k, reps, rng.substream(idx),
                                          boundary_mode=boundary_mode, dim=dim,
                                          workers=workers)
            values.append(rec.mean)
            stderrs.append(rec.stderr)
            provenance.append(rec)
    return LimitCurve(k=k, dim=dim, L=L, reps=reps, master_seed=rng.master_seed,
                      boundary_mode=boundary_mode, s_grid=tuple(grid),
                      values=tuple(values), stderrs=tuple(stderrs),
                      provenance=tuple(provenance))


def curve_cache_path(cache_dir, dim: int, k: int, L: float, reps: int,
                     rng: RngStream, boundary_mode: str) -> Path:
    """Cache file of a limit curve. The name carries the numpy version,
    since sampled streams are reproducible only within one version."""
    seed_tag = str(rng.master_seed)
    if rng.path:
        seed_tag += "p" + "-".join(str(p) for p in rng.path)
    name = (f"curve_d{dim}_k{k}_L{_fmt(L)}_reps{reps}_seed{seed_tag}_{boundary_mode}"
            f"_numpy{np.__version__}.json")
    return Path(cache_dir) / name


def load_or_build_curve(cache_dir, k: int, s_grid, L: float, reps: int,
                        rng: RngStream, boundary_mode: str = "torus",
                        dim: int = 2, workers: int = 1) -> LimitCurve:
    """Fetch the curve from the cache directory, building it on a miss.

    A cached file with a different s-grid, or one that is not a well-formed
    curve document, is rebuilt and overwritten (the key identifies seed and
    estimator settings, not the grid).
    """
    # checked before the cache lookup, so a hit cannot mask a bad count
    _check_workers(workers)
    path = curve_cache_path(cache_dir, dim, k, L, reps, rng, boundary_mode)
    grid = tuple(float(s) for s in s_grid)
    if path.exists():
        try:
            curve = LimitCurve.from_dict(json.loads(path.read_text()))
        except (KeyError, TypeError, ValueError):
            curve = None
        if curve is not None and curve.s_grid == grid:
            return curve
    curve = build_limit_curve(k, grid, L, reps, rng, boundary_mode=boundary_mode,
                              dim=dim, workers=workers)
    write_text_atomic(path, json.dumps(curve.to_dict(), sort_keys=True, indent=1) + "\n")
    return curve


@dataclass(frozen=True)
class IntegralEstimate:
    value: float
    stderr: float


def thermodynamic_integral(density: DensityGrid, r: float, k: int,
                           curve: LimitCurve) -> IntegralEstimate:
    """The limit of E[beta_k(C(X_n, r_n))]/n for the given density.

    Exact Riemann sum over the piecewise-constant cells:
    sum of cell_volume * f_c * curve(f_c^(1/d) * r). The stderr propagates
    the curve's per-grid-point errors through the accumulated linear
    weights (grid values are independent estimates).
    """
    _check_args(r=r)
    if curve.k != k:
        raise LimitsError(f"curve tabulates k={curve.k}, requested k={k}")
    if curve.dim != density.dim:
        raise LimitsError("curve and density dimensions differ")
    coeffs = np.zeros(len(curve.s_grid))
    cell_vol = density.cell_volume
    for f_c in density.values:
        if f_c == 0.0:
            continue
        s = f_c ** (1.0 / density.dim) * r
        for i, w in curve.weights(s):
            coeffs[i] += cell_vol * f_c * w
    value = float(coeffs @ np.asarray(curve.values))
    var = float(((coeffs * np.asarray(curve.stderrs)) ** 2).sum())
    return IntegralEstimate(value=value, stderr=math.sqrt(var))


# ---------------------------------------------------------------------------
# scaling identity

@dataclass(frozen=True)
class ScalingReport(_JsonRecord):
    """Two-sided estimate of the intensity-radius scaling identity."""

    lam: float
    theta: float
    r: float
    lhs: EstimateRecord
    rhs: EstimateRecord
    rhs_scaled_mean: float
    rhs_scaled_stderr: float
    delta: float
    combined_stderr: float
    passed: bool


def scaling_check(lam: float, theta: float, r: float, L: float, k: int,
                  reps: int, rng: RngStream, boundary_mode: str = "torus",
                  dim: int = 2, workers: int = 1) -> ScalingReport:
    """Compares beta_hat_k(lam, r) with beta_hat_k(lam*theta, r/theta^(1/d))/theta.

    Both sides are Monte Carlo estimates; the check passes when they
    agree within 3 combined standard errors. theta = 1 reuses the same
    substream, so both sides coincide exactly.
    """
    if theta <= 0:
        raise LimitsError("theta must be positive")
    with worker_pool():
        lhs = estimate_betti_rate(lam, r, L, k, reps, rng.substream(0),
                                  boundary_mode=boundary_mode, dim=dim, workers=workers)
        if theta == 1.0:
            rhs = lhs
        else:
            rhs = estimate_betti_rate(lam * theta, r / theta ** (1.0 / dim), L, k,
                                      reps, rng.substream(1),
                                      boundary_mode=boundary_mode, dim=dim,
                                      workers=workers)
    scaled_mean = rhs.mean / theta
    scaled_se = rhs.stderr / theta
    delta = abs(lhs.mean - scaled_mean)
    combined = math.sqrt(lhs.stderr ** 2 + scaled_se ** 2)
    return ScalingReport(
        lam=lam, theta=theta, r=r, lhs=lhs, rhs=rhs,
        rhs_scaled_mean=scaled_mean, rhs_scaled_stderr=scaled_se,
        delta=delta, combined_stderr=combined,
        passed=delta <= 3.0 * combined,
    )


# ---------------------------------------------------------------------------
# binomial / Poissonized expectations and the convergence experiment

def estimate_binomial_expectation(density: DensityGrid, n: int, r: float,
                                  k: int, reps: int, rng: RngStream,
                                  workers: int = 1) -> EstimateRecord:
    """Mean of beta_k(C(X_n, r * n^(-1/d))) / n for the binomial process.

    Implemented on the rescaled cloud n^(1/d) * X_n at radius r, which
    carries the same complex.
    """
    _check_args(n=n, r=r, k=k, reps=reps, density=density)
    task = (density, n, r, k, rng)
    values = _map_replicates("binomial", task, reps, workers)
    mean, stderr = _mean_stderr(values)
    return EstimateRecord("expectation_per_n", k, None, r, n, mean,
                          stderr, reps, rng.master_seed, "plain")


@dataclass(frozen=True)
class ConvergenceTable(_JsonRecord):
    """Per-n expectation estimates against the thermodynamic target."""

    _derived = ("gaps",)

    n_schedule: tuple[int, ...]
    records: tuple[EstimateRecord, ...]
    target: float
    target_stderr: float

    @property
    def gaps(self) -> tuple[float, ...]:
        return tuple(abs(rec.mean - self.target) for rec in self.records)

    def plot_rows(self) -> list[tuple[float, float]]:
        return [(float(n), gap) for n, gap in zip(self.n_schedule, self.gaps)]


def convergence_table(density: DensityGrid, n_schedule, r: float, k: int,
                      reps: int, rng: RngStream, target: float,
                      target_stderr: float, workers: int = 1) -> ConvergenceTable:
    """Runs the binomial expectation estimator over the n-schedule."""
    schedule = tuple(int(n) for n in n_schedule)
    _check_args(schedule=schedule, r=r, k=k, reps=reps, density=density)
    with worker_pool():
        records = tuple(
            estimate_binomial_expectation(density, n, r, k, reps, rng.substream(idx),
                                          workers=workers)
            for idx, n in enumerate(schedule)
        )
    return ConvergenceTable(n_schedule=schedule, records=records,
                            target=target, target_stderr=target_stderr)


# ---------------------------------------------------------------------------
# Poissonization gap

@dataclass(frozen=True)
class GapRow(_JsonRecord):
    _derived = ("scaled", "scaled_stderr")

    n: int
    binomial_mean: float
    poissonized_mean: float
    gap: float
    gap_stderr: float

    @property
    def scaled(self) -> float:
        return self.gap * math.sqrt(self.n)

    @property
    def scaled_stderr(self) -> float:
        return self.gap_stderr * math.sqrt(self.n)


@dataclass(frozen=True)
class GapTable(_JsonRecord):
    """|E beta_k(binomial) - E beta_k(Poissonized)| / n over an n-schedule.

    Both expectations share the replicate's point sequence, so the gap
    estimate has common-random-numbers variance reduction. The lemma
    being tested says gap(n) decays like n^(-1/2): the scaled column
    gap * sqrt(n) must stay bounded.
    """

    rows: tuple[GapRow, ...]
    k: int
    r: float
    reps: int
    master_seed: int

    def records(self) -> tuple[EstimateRecord, ...]:
        return tuple(
            EstimateRecord("gap", self.k, None, self.r, row.n, row.gap,
                           row.gap_stderr, self.reps, self.master_seed, "plain")
            for row in self.rows
        )

    def scaled_bounded(self) -> bool:
        """gap * sqrt(n) never doubles past its first value, within noise."""
        first = self.rows[0]
        return all(
            row.scaled <= 2.0 * first.scaled
            + 3.0 * (row.scaled_stderr + 2.0 * first.scaled_stderr)
            for row in self.rows
        )

    def declines(self) -> bool:
        """The raw gap at the last n sits below the first, within noise."""
        first, last = self.rows[0], self.rows[-1]
        slack = 3.0 * math.hypot(first.gap_stderr, last.gap_stderr)
        return last.gap <= first.gap + slack

    def plot_rows(self) -> list[tuple[float, float, float]]:
        return [(float(row.n), row.gap, row.gap_stderr) for row in self.rows]


def poissonization_gap(density: DensityGrid, n_schedule, r: float, k: int,
                       reps: int, rng: RngStream, workers: int = 1) -> GapTable:
    """Coupled binomial/Poissonized expectation gap over the n-schedule."""
    schedule = tuple(int(n) for n in n_schedule)
    _check_args(schedule=schedule, r=r, k=k, reps=reps, density=density)
    rows = []
    with worker_pool():
        results = [_map_replicates("gap", (density, n, r, k, rng.substream(idx)),
                                   reps, workers)
                   for idx, n in enumerate(schedule)]
    for n, pairs in zip(schedule, results):
        b_vals = [b for b, _ in pairs]
        p_vals = [p for _, p in pairs]
        deltas = [b - p for b, p in pairs]
        d_mean, d_stderr = _mean_stderr(deltas)
        rows.append(GapRow(
            n=n,
            binomial_mean=_mean_stderr(b_vals)[0],
            poissonized_mean=_mean_stderr(p_vals)[0],
            gap=abs(d_mean),
            gap_stderr=d_stderr,
        ))
    return GapTable(rows=tuple(rows), k=k, r=r, reps=reps,
                    master_seed=rng.master_seed)


# ---------------------------------------------------------------------------
# boundary strips

@dataclass(frozen=True)
class StripReport(_JsonRecord):
    """Per-realization check of the box-partition Betti inequality."""

    _derived = ("holds_all", "violations", "max_slack")

    lam: float
    r: float
    L: float
    boxes: int
    k: int
    reps: int
    master_seed: int
    diffs: tuple[int, ...]
    bounds: tuple[int, ...]

    @property
    def holds_all(self) -> bool:
        return all(d <= b for d, b in zip(self.diffs, self.bounds))

    @property
    def violations(self) -> int:
        return sum(1 for d, b in zip(self.diffs, self.bounds) if d > b)

    @property
    def max_slack(self) -> int:
        return max(b - d for d, b in zip(self.diffs, self.bounds))


def boundary_strip_check(lam: float, r: float, L: float, sub_box_count: int,
                         k: int, rng: RngStream, reps: int = 100,
                         dim: int = 2, workers: int = 1) -> StripReport:
    """Verifies |beta_k(whole) - sum_i beta_k(box_i)| against the strip bound.

    The window is split into sub_box_count congruent boxes (the count
    must be a d-th power); every simplex lost by the restriction touches
    the r-slabs around the internal partition faces, so the dimension-k
    and k+1 strip simplex counts bound the Betti difference.
    """
    _check_args(lam=lam, r=r, L=L, dim=dim, reps=reps, k=k)
    m = round(sub_box_count ** (1.0 / dim))
    if m < 1 or m ** dim != sub_box_count:
        raise LimitsError(
            f"cannot split a cube into {sub_box_count} congruent boxes in d={dim}"
        )
    side = L ** (1.0 / dim) / m
    if side <= 2 * r:
        raise LimitsError(f"box side {side} must exceed 2r = {2 * r}")
    results = _map_replicates("strip", (lam, r, L, m, k, dim, rng), reps, workers)
    return StripReport(
        lam=lam, r=r, L=L, boxes=sub_box_count, k=k, reps=reps,
        master_seed=rng.master_seed,
        diffs=tuple(int(d) for d, _ in results),
        bounds=tuple(int(b) for _, b in results),
    )


# ---------------------------------------------------------------------------
# intensity perturbation

@dataclass(frozen=True)
class PerturbReport(_JsonRecord):
    """Coupled estimate of |E beta_k(P(f)) - E beta_k(P(g))| vs the L1 distance."""

    r: float
    k: int
    reps: int
    master_seed: int
    gap: float
    gap_stderr: float
    l1_distance: float
    ratio: float
    nested_bound_ok: bool


def intensity_perturbation_check(f: IntensityGrid, g: IntensityGrid, r: float,
                                 k: int, reps: int, rng: RngStream,
                                 workers: int = 1) -> PerturbReport:
    """Max-coupling estimate of the Betti-expectation perturbation.

    Both processes share a base P(min(f, g)) realization plus independent
    increments, so f == g gives a gap of exactly 0 and one-sided
    perturbations give nested complexes (checked against the difference
    bound realization by realization).
    """
    _check_args(r=r, k=k, reps=reps)
    base = f.minimum(g)
    extra_f = f.excess_over(g)
    extra_g = g.excess_over(f)
    results = _map_replicates(
        "perturb", (base, extra_f, extra_g, r, k, rng), reps, workers)
    diffs = [d for d, _ in results]
    nested_ok = all(ok for _, ok in results)
    mean, stderr = _mean_stderr(diffs)
    l1 = f.l1_distance(g)
    ratio = abs(mean) / l1 if l1 > 0 else 0.0
    return PerturbReport(r=r, k=k, reps=reps, master_seed=rng.master_seed,
                         gap=abs(mean), gap_stderr=stderr, l1_distance=l1,
                         ratio=ratio, nested_bound_ok=nested_ok)
