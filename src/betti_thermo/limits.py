"""Monte Carlo estimators for thermodynamic-regime limits.

Estimates the per-volume rates beta_k(lambda, r; L)/L and S_j/L of
stationary Poisson processes, tabulates the limit curve s -> beta_hat_k(1, s),
turns it into the limit integral for binomial processes via the scaling
identity beta_hat_k(lam, r) = lam * beta_hat_k(1, lam^(1/d) r), and runs
the verification experiments: scaling identity, binomial-vs-limit
convergence, Poissonization gap, boundary-strip inequality, and the
intensity-perturbation coupling.

Replicates draw from per-index RNG substreams, so every estimator is
bit-for-bit reproducible for any worker count. Every estimator and every
experiment runs all its replicates in one map, _map_replicates(kind, tasks,
reps, workers), with one task per grid point, schedule entry or side of the
scaling identity: a partial over a module-level _rep_* body, called as
task(i) for replicate i. kind only labels trace spans and picks _records'
record shape. With workers > 1 the calling process runs one share of that
map and forks one process for each other share; every one of them has
exited by the time the map returns or raises.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import pickle
from dataclasses import dataclass, fields
from functools import partial
from multiprocessing import Pipe, Process
from pathlib import Path

import numpy as np

from betti_thermo.cech import ALGORITHM_VERSION, build_cech, simplices_touching
from betti_thermo.homology import betti_diff_bound_check, betti_numbers
from betti_thermo.pointproc import (
    DensityGrid,
    IntensityGrid,
    PointCloud,
    RngStream,
    Window,
    _is_count,
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


# dataclass field -> JSON key, where the two differ
_JSON_KEYS = {"lam": "lambda", "k_or_j": "k", "master_seed": "seed", "records": "rows"}


def _to_json(value):
    if isinstance(value, _JsonRecord):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


class _JsonRecord:
    """JSON form of a frozen report dataclass.

    to_dict writes every field under its _JSON_KEYS name, nested records
    and tuples included, then the derived properties named in _derived.
    """

    _derived = ()

    def to_dict(self) -> dict:
        names = [f.name for f in fields(self)] + list(self._derived)
        return {_JSON_KEYS.get(name, name): _to_json(getattr(self, name))
                for name in names}


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
    """Write via a temp file in the target directory, then rename.

    The temp file is created with the mode open(path, "w") would give the
    file, 0o666 less the umask.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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


def write_json(path, doc: dict) -> None:
    """The one JSON format of artifacts and caches: sorted keys, indent 1."""
    write_text_atomic(path, json.dumps(doc, sort_keys=True, indent=1) + "\n")


# ---------------------------------------------------------------------------
# replicate engine

def _torus_period(L: float, dim: int, boundary_mode: str) -> float | None:
    return L ** (1.0 / dim) if boundary_mode == "torus" else None


def _betti_k(cloud: PointCloud, r: float, k: int, period: float | None) -> int:
    cx = build_cech(cloud, r, k + 1, period=period)
    return betti_numbers(cx, k)[k]


# the rate and strip bodies take the window of volume L, Window.centered(L,
# dim), built once per task rather than validated again in every replicate

def _rep_betti_rate(lam, r, L, k, window, mode, stream, i: int):
    cloud = sample_poisson_homogeneous(lam, window, stream.substream(i))
    return _betti_k(cloud, r, k, _torus_period(L, window.dim, mode)) / L


def _rep_simplex_rate(lam, r, L, j, window, mode, stream, i: int):
    cloud = sample_poisson_homogeneous(lam, window, stream.substream(i))
    cx = build_cech(cloud, r, j, period=_torus_period(L, window.dim, mode))
    return len(cx.simplices_of(j)) / L


def _rep_binomial(density, n, r, k, stream, i: int):
    # the raw draw is scaled into one cloud, checked and deduplicated once
    pts = density.sample(n, stream.substream(i).generator())
    return _betti_k(scale_points(pts, n ** (1.0 / density.dim)), r, k, None) / n


def _rep_gap(density, n, r, k, stream, i: int):
    # shared point sequence: binomial keeps the first n draws, the
    # Poissonized process the first N ~ Poisson(n); common random numbers.
    # Deduplication keeps first occurrences in order, so the shorter
    # sequence's cloud is a prefix of the longer one's
    gen = stream.substream(i).generator()
    count = int(gen.poisson(n))
    pts = density.sample(max(n, count), gen)
    scale = n ** (1.0 / density.dim)
    cx = build_cech(scale_points(pts, scale), r, k + 1)
    short = len(scale_points(pts[:min(n, count)], scale))
    prefix = np.where(np.arange(cx.vertex_count) < short, 0, -1)
    whole = betti_numbers(cx, k)[k]
    part = betti_numbers(cx.restrict(prefix), k)[k]
    b, p = (part, whole) if count >= n else (whole, part)
    return (b / n, p / n)


def _rep_strip(lam, r, L, m, k, window, stream, i: int):
    cloud = sample_poisson_homogeneous(lam, window, stream.substream(i))
    cx = build_cech(cloud, r, k + 1)
    whole = betti_numbers(cx, k)[k]
    side = window.sides / m
    # each point lies in exactly one box, numbered row-major; restricted to
    # these labels the complex is the disjoint union of the boxes' complexes
    cell = np.floor((cloud.points - window.lower) / side).astype(np.int64)
    box = np.ravel_multi_index(tuple(np.clip(cell, 0, m - 1).T), (m,) * window.dim)
    boxes_total = betti_numbers(cx.restrict(box), k)[k]
    strip = _strip_mask(cloud.points, window, m, r + 1e-9)
    bound = sum(simplices_touching(cx, strip, j) for j in (k, k + 1))
    return (abs(whole - boxes_total), bound)


def _strip_mask(points: np.ndarray, window: Window, m: int, pad: float) -> np.ndarray:
    """Which points of the window lie within pad of a face between two of
    its m^d boxes, in the half-open slab [plane - pad, plane + pad) around
    the face's plane."""
    side = window.sides / m
    near = np.zeros(len(points), dtype=bool)
    for axis, x in enumerate(points.T):
        for face in range(1, m):
            plane = window.lower[axis] + face * side[axis]
            near |= (x >= plane - pad) & (x < plane + pad)
    return window.contains(points) & near


def _rep_perturb(base, extra_f, extra_g, r, k, stream, i: int):
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
        nested_ok = betti_diff_bound_check(kf, kg, k, betti=(bf, bg))
    elif extra_g.total_mass == 0:
        nested_ok = betti_diff_bound_check(kg, kf, k, betti=(bg, bf))
    return (bf - bg, nested_ok)


def _replicate(packed):
    _, task, i = packed
    return task(i)


def _run_share(items, conn) -> None:
    """A forked worker's share of a replicate map: sends (True, its values,
    in order) or (False, the error of its first failing replicate). An
    error that does not survive pickling is sent as a LimitsError naming
    this worker and the error's type and text."""
    try:
        result = (True, [_replicate(p) for p in items])
    except Exception as exc:
        result = (False, exc)
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            result = (False, LimitsError(f"worker {os.getpid()} raised {type(exc).__name__}: {exc}"))
    conn.send(result)


def _fork_share(items):
    """Forks a worker for one share; its process and the pipe it answers on."""
    receive, send = Pipe(duplex=False)
    child = Process(target=_run_share, args=(items, send))
    child.start()
    send.close()
    return child, receive


def _join_share(child, receive) -> tuple:
    """A forked share's answer, once its worker has exited; a worker that
    exited without one answers with a LimitsError naming it."""
    try:
        result = receive.recv()
    except EOFError:
        result = None
    receive.close()
    child.join()
    if result is None:
        result = (False, LimitsError(f"worker {child.pid} exited with code "
                                     f"{child.exitcode} before returning its share"))
    return result


def _map_replicates(kind: str, tasks, reps: int, workers: int) -> list[list]:
    """Runs replicates 0..reps-1 of each task in one map and returns each
    task's values: task(i) draws from substream i of the task's stream.
    kind, the tasks' replicate body, is only a label of trace spans until
    the benchmark reads the library's own records.

    Every estimator and experiment runs its replicates here, so the
    replicate and worker counts are checked once, before any cloud is
    sampled. The replicates go out task by task; with w = max(1,
    min(workers, replicates)), the j-th goes to share j % w. The calling
    process runs share 0 in order, so w = 1 forks nothing, while w-1
    processes, forked for this map, run one other share each; the values
    are put back by index. Every worker is joined before the map returns
    or raises: the caller's own error first, then the first worker's, in
    share order.
    """
    _check_args(reps=reps, workers=workers)
    packed = [(kind, task, i) for task in tasks for i in range(reps)]
    w = max(1, min(workers, len(packed)))
    values = [None] * len(packed)
    forked = []
    try:
        for s in range(1, w):
            forked.append(_fork_share(packed[s::w]))
        values[::w] = [_replicate(p) for p in packed[::w]]
    finally:
        answers = [_join_share(*share) for share in forked]
    for s, (ok, result) in enumerate(answers, 1):
        if not ok:
            raise result
        values[s::w] = result
    return [values[t * reps:(t + 1) * reps] for t in range(len(tasks))]


def _mean_stderr(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(len(arr)))


def _records(kind: str, tasks, reps: int, workers: int) -> list[EstimateRecord]:
    """The estimates of rate or binomial tasks, from one replicate map."""
    records = []
    for task, values in zip(tasks, _map_replicates(kind, tasks, reps, workers)):
        mean, stderr = _mean_stderr(values)
        if kind == "binomial":
            _, n, r, k, rng = task.args
            records.append(EstimateRecord("expectation_per_n", k, None, r, n, mean,
                                          stderr, reps, rng.master_seed, "plain"))
        else:
            lam, r, L, degree, _, boundary_mode, rng = task.args
            records.append(EstimateRecord(kind, degree, lam, r, L, mean, stderr, reps,
                                          rng.master_seed, boundary_mode))
    return records


# ---------------------------------------------------------------------------
# argument checks

# The most points one replicate may expect to draw (lam * L, or n), 40 times
# the largest n of the tests and examples; a run past it fails before sampling
MAX_EXPECTED_POINTS = 10 ** 6
# the most replicates one estimate may ask for, 5000 times the most any test,
# example or workload runs: the replicate map lists every one before it runs
MAX_REPS = 10 ** 6
# the most workers one map may ask for, 85 times the most any test, example or
# workload uses: a map forks one process per worker but its own, so a mistyped
# count would otherwise start thousands
MAX_WORKERS = 256
# the highest ambient dimension: the neighbour grid enumerates the 3^d cell
# offsets in Python, 729 at d = 6 (364 half-offsets), 3.5e9 at d = 20
MAX_DIM = 6

# what a value of each kind must be, as messages say it, and its test. A nan
# or infinite window volume fails the window rule or the cap, which name r or lam
_COUNT, _REAL = "an integer", "a finite number"
_KINDS = {_COUNT: _is_count, _REAL: lambda v: isinstance(v, numbers.Real) and math.isfinite(v),
          "a number": lambda v: isinstance(v, numbers.Real),
          "'plain' or 'torus'": ("plain", "torus").__contains__}

# argument -> (its name in messages, its kind, its bound or None, the message
# when the bound fails); these arguments pass each entry through their row
_SEQUENCES = ("schedule", "s_grid", "values", "stderrs", "masses")
_ARG_RULES = {
    "dim": ("dimension", _COUNT, lambda v: 1 <= v <= MAX_DIM,
            f"dimension must lie in 1..{MAX_DIM}, got {{}}"),
    "k": ("k", _COUNT, None, None),
    "j": ("simplex dimension", _COUNT, lambda v: v >= 0,
          "simplex dimension must be non-negative, got {}"),
    "n": ("n", _COUNT, lambda v: v >= 1, "n must be at least 1, got {}"),
    "reps": ("replicate count", _COUNT, lambda v: 2 <= v <= MAX_REPS,
             f"need 2..{MAX_REPS} replicates (2 for a standard error), got {{}}"),
    "workers": ("workers", _COUNT, lambda v: 1 <= v <= MAX_WORKERS,
                f"workers must lie in 1..{MAX_WORKERS}, got {{}}"),
    "boxes": ("box count", _COUNT, None, None),
    "lam": ("intensity", _REAL, lambda v: v >= 0, "intensity must be non-negative, got {}"),
    "r": ("radius", _REAL, lambda v: v > 0, "radius must be positive, got {}"),
    "L": ("window volume", "a number", None, None),
    "theta": ("theta", _REAL, lambda v: v > 0, "theta must be positive, got {}"),
    "s_grid": ("s-grid point", _REAL, None, None),
    "values": ("curve value", _REAL, None, None),
    "stderrs": ("curve stderr", _REAL, None, None),
    "boundary_mode": ("boundary mode", "'plain' or 'torus'", None, None),
    # in floats, so a mass that overflowed is inf and fails, as nan does
    "masses": ("intensity grid mass", "a number", lambda v: v <= MAX_EXPECTED_POINTS,
               f"an intensity grid of mass {{}} expects more than {MAX_EXPECTED_POINTS} "
               "points per replicate"),
}
_ARG_RULES["schedule"] = _ARG_RULES["n"]


def _check_args(**args) -> None:
    """The estimators' argument checks, made before any replicate runs.

    Each argument given passes its row of _ARG_RULES, kind then bound: a
    count (dim, k, j, n, reps, workers, boxes, a schedule entry) passes
    operator.index, a real (lam, r, theta, an s-grid point) is finite, and
    neither is a bool. Bounds cap the work before it starts: dim at
    MAX_DIM, reps at MAX_REPS, workers at MAX_WORKERS, and each of the
    masses, the expected points of an intensity grid's cloud, at
    MAX_EXPECTED_POINTS. The rules that join arguments follow: the
    s-grid's and schedule's order; a window of volume L, given with r and
    dim, has side L^(1/d), the torus period, which must exceed 3r; k lies
    in 1..d-1 for the ambient dimension d; and one replicate expects at
    most MAX_EXPECTED_POINTS points, lam * L or n (a schedule's last).
    """
    for name, value in args.items():
        label, kind, bound, message = _ARG_RULES[name]
        for v in value if name in _SEQUENCES else (value,):
            if isinstance(v, bool) or not _KINDS[kind](v):
                raise LimitsError(f"{label} must be {kind}, got {v!r}")
            if bound is not None and not bound(v):
                raise LimitsError(message.format(v))
    lam, r, L, k, dim, n, grid, schedule = map(args.get, "lam r L k dim n s_grid schedule".split())
    if grid is not None and (len(grid) < 2 or grid[0] < 0 or np.any(np.diff(grid) <= 0)):
        raise LimitsError("s_grid must be strictly increasing from s >= 0 with >= 2 "
                          f"points, got {np.asarray(grid, dtype=float).tolist()}")
    if schedule is not None:
        if not schedule or any(b <= a for a, b in zip(schedule, schedule[1:])):
            raise LimitsError(f"n-schedule must be non-empty and increasing, got {schedule}")
        n = schedule[-1]
    if L is not None and r is not None:
        # L <= 0 has no real side and fails as side 0; `not >` fails nan too
        side = max(L, 0.0) ** (1.0 / dim)
        if not side > 3.0 * r:
            raise LimitsError(
                f"window volume {L} too small for radius {r}: its side {side} "
                f"must exceed 3r = {3.0 * r}")
    if k is not None and not 1 <= k <= dim - 1:
        raise LimitsError(f"k must lie in 1..d-1, got k={k} in d={dim}")
    # in floats, where an overflow is inf and fails rather than warns
    if lam is not None and L is not None and not float(lam) * float(L) <= MAX_EXPECTED_POINTS:
        raise LimitsError(f"intensity {lam} on window volume {L} expects more than "
                          f"{MAX_EXPECTED_POINTS} points per replicate")
    if n is not None and n > MAX_EXPECTED_POINTS:
        raise LimitsError(f"n = {n} is more than {MAX_EXPECTED_POINTS} points per replicate")


# ---------------------------------------------------------------------------
# rate estimators

def _betti_rate_task(lam: float, r: float, L: float, k: int, rng: RngStream,
                     boundary_mode: str, dim: int):
    _check_args(lam=lam, r=r, L=L, dim=dim, k=k, boundary_mode=boundary_mode)
    return partial(_rep_betti_rate, lam, r, L, k, Window.centered(L, dim), boundary_mode, rng)


def estimate_betti_rate(lam: float, r: float, L: float, k: int, reps: int,
                        rng: RngStream, boundary_mode: str = "plain",
                        dim: int = 2, workers: int = 1) -> EstimateRecord:
    """Mean of beta_k(C(P_L(lam), r)) / L over independent replicates.

    boundary_mode "torus" replaces the Euclidean metric with the flat
    torus on the observation window, removing boundary bias.
    """
    task = _betti_rate_task(lam, r, L, k, rng, boundary_mode, dim)
    return _records("betti_rate", [task], reps, workers)[0]


def estimate_simplex_rate(lam: float, r: float, L: float, j: int, reps: int,
                          rng: RngStream, boundary_mode: str = "plain",
                          dim: int = 2, workers: int = 1) -> EstimateRecord:
    """Mean of S_j(lam, r; L) / L, the per-volume j-simplex count."""
    _check_args(lam=lam, r=r, L=L, dim=dim, j=j, boundary_mode=boundary_mode)
    task = partial(_rep_simplex_rate, lam, r, L, j, Window.centered(L, dim),
                   boundary_mode, rng)
    return _records("simplex_rate", [task], reps, workers)[0]


# ---------------------------------------------------------------------------
# the limit curve and the thermodynamic integral

def curve_covers(s_grid, s: float) -> bool:
    """Whether a curve tabulated on s_grid can be evaluated at s: the one
    coverage rule, with 1e-12 of slack at either end of the grid."""
    return s_grid[0] - 1e-12 <= s <= s_grid[-1] + 1e-12


@dataclass(frozen=True)
class LimitCurve(_JsonRecord):
    """Tabulated s -> beta_hat_k(1, s) with linear interpolation.

    beta_hat_k(lam, r) for arbitrary intensity is lam * value(lam^(1/d) r);
    variance propagates through the interpolation weights. Each estimate
    is held once, in s_grid, values and stderrs (stored as tuples);
    provenance is derived from them, so to_dict writes it and from_dict
    does not read it. Every field passes its estimator argument check, so
    a document that says "k": true or "reps": 8.0 is not a curve.
    """

    _derived = ("provenance",)

    k: int
    dim: int
    L: float
    reps: int
    master_seed: int
    boundary_mode: str
    s_grid: tuple[float, ...]
    values: tuple[float, ...]
    stderrs: tuple[float, ...]

    def __post_init__(self):
        _check_args(k=self.k, dim=self.dim, reps=self.reps, L=self.L,
                    boundary_mode=self.boundary_mode, s_grid=self.s_grid,
                    values=self.values, stderrs=self.stderrs)
        if not len(self.values) == len(self.stderrs) == len(self.s_grid):
            raise LimitsError("curve values/stderrs must match the s_grid length")
        for name in ("s_grid", "values", "stderrs"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @classmethod
    def from_dict(cls, doc: dict) -> "LimitCurve":
        """The curve of a to_dict document; KeyError, TypeError or
        ValueError if it is not one."""
        return cls(k=doc["k"], dim=doc["dim"], L=doc["L"], reps=doc["reps"],
                   master_seed=doc["seed"], boundary_mode=doc["boundary_mode"],
                   s_grid=doc["s_grid"], values=doc["values"], stderrs=doc["stderrs"])

    @property
    def provenance(self) -> tuple[EstimateRecord, ...]:
        """The betti_rate estimate of each grid point."""
        return tuple(EstimateRecord("betti_rate", self.k, 1.0, s, self.L, value, stderr,
                                    self.reps, self.master_seed, self.boundary_mode)
                     for s, value, stderr in self.plot_rows())

    def weights(self, s: float) -> list[tuple[int, float]]:
        """Linear interpolation weights on the grid for the point s."""
        grid = self.s_grid
        if not curve_covers(grid, s):
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

    def plot_rows(self) -> list[tuple[float, float, float]]:
        return list(zip(self.s_grid, self.values, self.stderrs))


def build_limit_curve(k: int, s_grid, L: float, reps: int, rng: RngStream,
                      boundary_mode: str = "torus", dim: int = 2,
                      workers: int = 1) -> LimitCurve:
    """Estimate beta_hat_k(1, s) on the grid; s = 0 is exactly 0.

    Every grid point is checked before the one map of all their replicates.
    """
    _check_args(s_grid=s_grid)
    grid = [float(s) for s in s_grid]
    tasks = [_betti_rate_task(1.0, s, L, k, rng.substream(idx), boundary_mode, dim)
             for idx, s in enumerate(grid) if s != 0.0]
    estimates = iter(_records("betti_rate", tasks, reps, workers))
    records = [None if s == 0.0 else next(estimates) for s in grid]
    return LimitCurve(k=k, dim=dim, L=L, reps=reps, master_seed=rng.master_seed,
                      boundary_mode=boundary_mode, s_grid=grid,
                      values=[0.0 if rec is None else rec.mean for rec in records],
                      stderrs=[0.0 if rec is None else rec.stderr for rec in records])


def curve_cache_path(cache_dir, dim: int, k: int, L: float, reps: int,
                     rng: RngStream, boundary_mode: str) -> Path:
    """Cache file of a limit curve. The name carries the complex builder's
    ALGORITHM_VERSION and the numpy version, since a curve is reproducible
    only within one of each."""
    seed_tag = str(rng.master_seed)
    if rng.path:
        seed_tag += "p" + "-".join(str(p) for p in rng.path)
    name = (f"curve_d{dim}_k{k}_L{_fmt(L)}_reps{reps}_seed{seed_tag}_{boundary_mode}"
            f"_cech{ALGORITHM_VERSION}_numpy{np.__version__}.json")
    return Path(cache_dir) / name


def load_or_build_curve(cache_dir, k: int, s_grid, L: float, reps: int,
                        rng: RngStream, boundary_mode: str = "torus",
                        dim: int = 2, workers: int = 1) -> LimitCurve:
    """Fetch the curve from the cache directory, building it on a miss.

    A cached curve is served only if its k, dim, L, reps, seed, boundary
    mode and s-grid, written as JSON, read exactly as the request's (the
    file name keys all but the grid), so that a served curve writes the
    bytes a rebuilt one would: "L": 50 does not stand for 50.0, nor
    "seed": 68.0 for 68. Any other file, or one that is not a well-formed
    curve document, is rebuilt and overwritten.
    """
    # checked before the cache lookup, so a hit cannot mask a bad count or mode
    _check_args(s_grid=s_grid, k=k, dim=dim, reps=reps, workers=workers,
                boundary_mode=boundary_mode)
    path = curve_cache_path(cache_dir, dim, k, L, reps, rng, boundary_mode)
    grid = tuple(float(s) for s in s_grid)
    if path.exists():
        try:
            curve = LimitCurve.from_dict(json.loads(path.read_text()))
        except (KeyError, TypeError, ValueError):
            curve = None
        request = [k, dim, L, reps, rng.master_seed, boundary_mode, grid]
        if curve is not None and json.dumps(request) == json.dumps(
                [curve.k, curve.dim, curve.L, curve.reps, curve.master_seed,
                 curve.boundary_mode, curve.s_grid]):
            return curve
    curve = build_limit_curve(k, grid, L, reps, rng, boundary_mode=boundary_mode,
                              dim=dim, workers=workers)
    write_json(path, curve.to_dict())
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
    _check_args(r=r, k=k, dim=density.dim)
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
    """Two-sided estimate of the intensity-radius scaling identity; it
    passes when delta is within the tolerance, 3 combined standard errors.
    The JSON form holds passed but not the tolerance."""

    _derived = ("passed",)

    lam: float
    theta: float
    r: float
    lhs: EstimateRecord
    rhs: EstimateRecord
    rhs_scaled_mean: float
    rhs_scaled_stderr: float
    delta: float
    combined_stderr: float

    @property
    def tolerance(self) -> float:
        return 3.0 * self.combined_stderr

    @property
    def passed(self) -> bool:
        return self.delta <= self.tolerance


def scaling_check(lam: float, theta: float, r: float, L: float, k: int,
                  reps: int, rng: RngStream, boundary_mode: str = "torus",
                  dim: int = 2, workers: int = 1) -> ScalingReport:
    """Compares beta_hat_k(lam, r) with beta_hat_k(lam*theta, r/theta^(1/d))/theta.

    Both sides are Monte Carlo estimates. theta = 1 reuses the same
    substream, so both sides coincide exactly.
    """
    _check_args(theta=theta)
    tasks = [_betti_rate_task(lam, r, L, k, rng.substream(0), boundary_mode, dim)]
    if theta != 1.0:
        tasks.append(_betti_rate_task(lam * theta, r / theta ** (1.0 / dim), L, k,
                                      rng.substream(1), boundary_mode, dim))
    estimates = _records("betti_rate", tasks, reps, workers)
    lhs, rhs = estimates[0], estimates[-1]
    scaled_mean = rhs.mean / theta
    scaled_se = rhs.stderr / theta
    delta = abs(lhs.mean - scaled_mean)
    combined = math.sqrt(lhs.stderr ** 2 + scaled_se ** 2)
    return ScalingReport(
        lam=lam, theta=theta, r=r, lhs=lhs, rhs=rhs,
        rhs_scaled_mean=scaled_mean, rhs_scaled_stderr=scaled_se,
        delta=delta, combined_stderr=combined,
    )


# ---------------------------------------------------------------------------
# binomial / Poissonized expectations and the convergence experiment

def _binomial_task(density: DensityGrid, n: int, r: float, k: int, rng: RngStream):
    _check_args(n=n, r=r, k=k, dim=density.dim)
    return partial(_rep_binomial, density, n, r, k, rng)


def estimate_binomial_expectation(density: DensityGrid, n: int, r: float,
                                  k: int, reps: int, rng: RngStream,
                                  workers: int = 1) -> EstimateRecord:
    """Mean of beta_k(C(X_n, r * n^(-1/d))) / n for the binomial process.

    Implemented on the rescaled cloud n^(1/d) * X_n at radius r, which
    carries the same complex.
    """
    task = _binomial_task(density, n, r, k, rng)
    return _records("binomial", [task], reps, workers)[0]


@dataclass(frozen=True)
class ConvergenceTable(_JsonRecord):
    """Per-n expectation estimates against the thermodynamic target.

    It passes when the gap at the last n lies within the tolerance: 3
    combined standard errors of that estimate and the target, plus a
    tenth of the target.
    """

    _derived = ("gaps", "tolerance", "passed")

    n_schedule: tuple[int, ...]
    records: tuple[EstimateRecord, ...]
    target: float
    target_stderr: float

    @property
    def gaps(self) -> tuple[float, ...]:
        return tuple(abs(rec.mean - self.target) for rec in self.records)

    @property
    def tolerance(self) -> float:
        last = self.records[-1]
        return 3.0 * math.hypot(last.stderr, self.target_stderr) + 0.1 * abs(self.target)

    @property
    def passed(self) -> bool:
        return self.gaps[-1] <= self.tolerance

    def plot_rows(self) -> list[tuple[float, float]]:
        return [(float(n), gap) for n, gap in zip(self.n_schedule, self.gaps)]


def convergence_table(density: DensityGrid, n_schedule, r: float, k: int,
                      reps: int, rng: RngStream, target: float,
                      target_stderr: float, workers: int = 1) -> ConvergenceTable:
    """Runs the binomial expectation estimator over the n-schedule, every
    entry's replicates in one map."""
    schedule = tuple(n_schedule)
    _check_args(schedule=schedule)
    schedule = tuple(map(int, schedule))  # numpy integers as ints, for JSON
    tasks = [_binomial_task(density, n, r, k, rng.substream(idx))
             for idx, n in enumerate(schedule)]
    records = tuple(_records("binomial", tasks, reps, workers))
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
    being tested says gap(n) decays like n^(-1/2): the table passes when
    the scaled column gap * sqrt(n) stays bounded and the raw gap declines.
    """

    _derived = ("scaled_bounded", "declines", "passed")

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

    @property
    def scaled_bounded(self) -> bool:
        """gap * sqrt(n) never doubles past its first value, within noise."""
        first = self.rows[0]
        return all(
            row.scaled <= 2.0 * first.scaled
            + 3.0 * (row.scaled_stderr + 2.0 * first.scaled_stderr)
            for row in self.rows
        )

    @property
    def declines(self) -> bool:
        """The raw gap at the last n sits below the first, within noise."""
        first, last = self.rows[0], self.rows[-1]
        slack = 3.0 * math.hypot(first.gap_stderr, last.gap_stderr)
        return last.gap <= first.gap + slack

    @property
    def passed(self) -> bool:
        return self.scaled_bounded and self.declines

    def plot_rows(self) -> list[tuple[float, float, float]]:
        return [(float(row.n), row.gap, row.gap_stderr) for row in self.rows]


def poissonization_gap(density: DensityGrid, n_schedule, r: float, k: int,
                       reps: int, rng: RngStream, workers: int = 1) -> GapTable:
    """Coupled binomial/Poissonized expectation gap over the n-schedule."""
    schedule = tuple(n_schedule)
    _check_args(schedule=schedule, r=r, k=k, dim=density.dim)
    schedule = tuple(map(int, schedule))
    rows = []
    results = _map_replicates("gap", [partial(_rep_gap, density, n, r, k, rng.substream(idx))
                                      for idx, n in enumerate(schedule)], reps, workers)
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
    """Per-realization check of the box-partition Betti inequality; it
    passes when the inequality holds on every realization."""

    _derived = ("passed", "violations", "max_slack")

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
    def passed(self) -> bool:
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
    must be a d-th power), and each point lies in exactly one box. Every
    simplex lost by the restriction to the boxes touches the r-slabs
    around the internal partition faces, so the dimension-k and k+1 strip
    simplex counts bound the Betti difference.
    """
    _check_args(lam=lam, r=r, L=L, dim=dim, k=k, boxes=sub_box_count)
    m = round(max(sub_box_count, 0) ** (1.0 / dim))
    if m < 1 or m ** dim != sub_box_count:
        raise LimitsError(
            f"cannot split a cube into {sub_box_count} congruent boxes in d={dim}"
        )
    side = L ** (1.0 / dim) / m
    if side <= 2 * r:
        raise LimitsError(f"box side {side} must exceed 2r = {2 * r}")
    task = partial(_rep_strip, lam, r, L, m, k, Window.centered(L, dim), rng)
    [results] = _map_replicates("strip", [task], reps, workers)
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
    """Coupled estimate of |E beta_k(P(f)) - E beta_k(P(g))| vs the L1 distance.

    passed holds when every realization of a one-sided perturbation kept
    the nested Betti-difference bound (trivially so for a two-sided one).
    """

    r: float
    k: int
    reps: int
    master_seed: int
    gap: float
    gap_stderr: float
    l1_distance: float
    ratio: float
    passed: bool


def intensity_perturbation_check(f: IntensityGrid, g: IntensityGrid, r: float,
                                 k: int, reps: int, rng: RngStream,
                                 workers: int = 1) -> PerturbReport:
    """Max-coupling estimate of the Betti-expectation perturbation.

    Both processes share a base P(min(f, g)) realization plus independent
    increments, so f == g gives a gap of exactly 0 and one-sided
    perturbations give nested complexes (checked against the difference
    bound realization by realization).
    """
    _check_args(r=r, k=k, dim=f.dim, masses=(f.total_mass, g.total_mass))
    base = f.minimum(g)
    extra_f = f.excess_over(g)
    extra_g = g.excess_over(f)
    [results] = _map_replicates(
        "perturb", [partial(_rep_perturb, base, extra_f, extra_g, r, k, rng)], reps, workers)
    diffs = [d for d, _ in results]
    nested_ok = all(ok for _, ok in results)
    mean, stderr = _mean_stderr(diffs)
    l1 = f.l1_distance(g)
    ratio = abs(mean) / l1 if l1 > 0 else 0.0
    return PerturbReport(r=r, k=k, reps=reps, master_seed=rng.master_seed,
                         gap=abs(mean), gap_stderr=stderr, l1_distance=l1,
                         ratio=ratio, passed=nested_ok)
