"""Span tracing of the betti_thermo layers, installed from outside the library.

Each public callable is wrapped where its caller looks it up, so calls the
library makes internally are caught without editing it:

  layer      wrapped callable, as bound in
  pointproc  limits.sample_poisson_homogeneous, limits.sample_poisson_intensity,
             limits.scale_points, limits.superpose, pointproc.DensityGrid.sample
  cech       limits.build_cech, limits.simplices_touching,
             cech.NeighborGrid.pairs_within
  homology   limits.betti_numbers, limits.betti_diff_bound_check,
             homology.boundary_matrix, homology.rank_gf2
  limits     the estimators and experiments as bound in cli, plus
             limits._map_replicates (one span per estimator call) and
             limits._replicate (one span per replicate)
  cli        cli.main, timed by the harness around each command

Work the library does between wrapped calls counts as self time of the
enclosing span's layer; for instance PointCloud construction inside a
replicate body is limits time. The wrappers are installed only for a traced
pass and removed after it, so untraced passes run the unmodified code.

Spans stay in memory (name, layer, start, end, parent, replicate id and a
small info dict) and are written out once, when the run ends.

Oracle work: after every traced build_cech the harness also calls
cech.build_rips on the same cloud, to count clique candidates for the
miniball acceptance ratio, and counts components of the edge graph by
union-find for the Euler check. This makes build_rips a benchmark oracle:
removing it from the library means changing this harness too. That work
runs in "harness" spans, which the layer self times exclude.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    rep: int | None
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "layer": self.layer,
                "parent": self.parent, "rep": self.rep, "start": self.start,
                "end": self.end, "info": self.info}


def _components(n: int, edges) -> int:
    """Connected components of the graph on n vertices, by union-find."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = n
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            count -= 1
    return count


class Tracer:
    """Collects spans for the calls into each layer during traced passes."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._rep: int | None = None
        self._next_rep = 0
        self._matrix_dim: dict[int, int] = {}

    @contextmanager
    def span(self, layer: str, name: str, **info):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, layer, parent, self._rep, info=info)
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, layer: str, name: str, fn, before=None, after=None,
              replicate: bool = False):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if before is not None or after is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            info = before(bound.arguments) if before is not None else {}
            outer_rep = self._rep
            if replicate:
                self._rep = self._next_rep
                self._next_rep += 1
            try:
                with self.span(layer, name, **info) as sp:
                    result = fn(*args, **kwargs)
            finally:
                self._rep = outer_rep
            if after is not None:
                after(sp, bound.arguments, result)
            return result

        return traced

    # -- observers: record counts where the work happens --------------------

    def _after_points(self, sp, args, result):
        sp.info["points"] = len(result)

    def _after_build(self, sp, args, cx):
        from betti_thermo.cech import build_rips

        sp.info["counts"] = cx.simplex_counts()
        sp.info["max_dim"] = cx.max_dim
        with self.span("harness", "oracle"):
            rips = build_rips(args["cloud"], args["r"], args["max_dim"],
                              period=args["period"])
            sp.info["rips"] = rips.simplex_counts()
            sp.info["components"] = _components(cx.vertex_count, cx.simplices_of(1))

    def _after_boundary(self, sp, args, matrix):
        sp.info["j"] = args["j"]
        sp.info["nnz"] = sum(len(col) for col in matrix.columns)
        self._matrix_dim[id(matrix)] = args["j"]

    def _after_rank(self, sp, args, rank):
        sp.info["j"] = self._matrix_dim.pop(id(args["matrix"]), None)
        sp.info["rank"] = rank

    def _before_curve(self, args):
        from betti_thermo.limits import curve_cache_path

        path = curve_cache_path(args["cache_dir"], args["dim"], args["k"],
                                args["L"], args["reps"], args["rng"],
                                args["boundary_mode"])
        return {"cache": "hit" if path.exists() else "miss"}

    def _before_estimator(self, args):
        return {"kind": args["kind"], "reps": args["reps"]}

    def _before_replicate(self, args):
        kind, _, index = args["packed"]
        return {"kind": kind, "index": index}

    @contextmanager
    def installed(self):
        """Wrap the layer entry points for the duration of the block."""
        from betti_thermo import cech, cli, homology, limits, pointproc

        targets = [
            (limits, "sample_poisson_homogeneous", "pointproc", self._after_points),
            (limits, "sample_poisson_intensity", "pointproc", self._after_points),
            (pointproc.DensityGrid, "sample", "pointproc", self._after_points),
            (limits, "scale_points", "pointproc", None),
            (limits, "superpose", "pointproc", None),
            (limits, "build_cech", "cech", self._after_build),
            (limits, "simplices_touching", "cech", None),
            (cech.NeighborGrid, "pairs_within", "cech", None),
            (limits, "betti_numbers", "homology", None),
            (limits, "betti_diff_bound_check", "homology", None),
            (homology, "boundary_matrix", "homology", self._after_boundary),
            (homology, "rank_gf2", "homology", self._after_rank),
        ]
        for name in ("estimate_betti_rate", "estimate_simplex_rate",
                     "load_or_build_curve", "thermodynamic_integral",
                     "convergence_table", "poissonization_gap", "scaling_check",
                     "boundary_strip_check", "intensity_perturbation_check"):
            targets.append((cli, name, "limits", None))
        originals = []
        try:
            for owner, attr, layer, after in targets:
                fn = getattr(owner, attr)
                before = self._before_curve if attr == "load_or_build_curve" else None
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(layer, attr, fn, before, after))
            for attr, before, replicate in (
                    ("_map_replicates", self._before_estimator, False),
                    ("_replicate", self._before_replicate, True)):
                fn = getattr(limits, attr)
                originals.append((limits, attr, fn))
                setattr(limits, attr, self._wrap("limits", attr, fn, before,
                                                 None, replicate))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# analysis

class SpanIndex:
    """Parent/child lookups and self times over one list of spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.children: dict[int, list[Span]] = {}
        for sp in spans:
            if sp.parent is not None:
                self.children.setdefault(sp.parent, []).append(sp)

    def self_time(self, sp: Span) -> float:
        """Duration minus the part covered by direct child spans."""
        return sp.dur - sum(c.dur for c in self.children.get(sp.id, ()))

    def descendants(self, sp: Span):
        stack = list(reversed(self.children.get(sp.id, ())))
        while stack:
            child = stack.pop()
            yield child
            stack.extend(reversed(self.children.get(child.id, ())))

    def named(self, name: str, within: Span | None = None) -> list[Span]:
        pool = self.spans if within is None else self.descendants(within)
        return [sp for sp in pool if sp.name == name]

    def layer_self(self, layer: str) -> float:
        return sum(self.self_time(sp) for sp in self.spans if sp.layer == layer)


def percentile_ms(values_s, q: float) -> float:
    if not values_s:
        return 0.0
    return float(np.percentile(np.asarray(values_s) * 1e3, q))


def replicate_betti(index: SpanIndex, rep: Span, k: int):
    """beta_0..beta_top of one replicate's complex, recomposed from the traced
    build (S_j) and rank calls, with beta_0 from the union-find oracle.

    Returns (betti_k from ranks, euler_ok): euler_ok holds when every
    recomposed beta_j is non-negative and the Euler-Poincare identity holds
    with the independent union-find beta_0.
    """
    builds = index.named("build_cech", rep)
    if len(builds) != 1:
        raise ValueError(f"replicate {rep.rep}: expected one build, got {len(builds)}")
    build = builds[0]
    top = build.info["max_dim"]
    counts = build.info["counts"] + [0] * (top + 1 - len(build.info["counts"]))
    ranks = [0] * (top + 2)
    for sp in index.named("rank_gf2", rep):
        ranks[sp.info["j"]] = sp.info["rank"]
    betti = [counts[j] - ranks[j] - ranks[j + 1] for j in range(top + 1)]
    chi = sum((-1) ** j * s for j, s in enumerate(counts))
    chi_betti = build.info["components"] + sum(
        (-1) ** j * b for j, b in enumerate(betti) if j > 0)
    euler_ok = min(betti) >= 0 and chi == chi_betti
    return betti[k], euler_ok
