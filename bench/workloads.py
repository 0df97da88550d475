"""The benchmark's workloads: fixed, seeded CLI command sequences.

Every workload is a list of betti-thermo commands with fixed replicate
counts; the benchmark repeats the sequence to fill its run time. Each pass
of a run draws its own clouds: the master seed of its commands is
input_seed(seed, index), so one benchmark seed always gives the same inputs.
The quick size (QUICK_REPS replicates per estimator call) exists only for
the harness self-test.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

N_SCHEDULE = "200,400,800,1600"
# s = 0.1 .. 1.3: the grid 0..1.3 in steps of 0.1 minus s = 0, which the
# curve builder fills with an exact 0 instead of an estimator call
CURVE_POINTS = 13
QUICK_REPS = 2

# more passes than this never fit in one run
INPUTS_PER_SEED = 1000

TWO_LEVEL_DENSITY = ('{"dim": 2, "lower": [0, 0], "upper": [1, 1], '
                     '"cells_per_axis": [2, 1], "values": [1.5, 0.5]}\n')


@dataclass(frozen=True)
class Step:
    """One CLI command of a workload.

    label names the command's --out prefix and its artifacts; replicates is
    the number of estimator replicates the command runs; cache is the
    expected curve-cache outcome ("hit", "miss" or None when the command
    does not use the cache); recompose is (quantity, k_or_j, L) for a rate
    command whose CSV mean the traced run recomputes from the layer calls.
    """

    label: str
    argv: tuple[str, ...]
    reps: int
    replicates: int
    artifacts: tuple[str, ...]
    cache: str | None = None
    recompose: tuple[str, int, float] | None = None


def _rate_d2(seed: int, reps: int) -> list[Step]:
    argv = ("rate", "--dim", "2", "--k", "1", "--lambda", "4", "--r", "1",
            "--L", "400", "--boundary", "torus", "--reps", str(reps),
            "--seed", str(seed))
    return [Step("betti", argv, reps, reps, ("csv",),
                 recompose=("betti_rate", 1, 400.0))]


def _rate_d3(seed: int, reps: int) -> list[Step]:
    common = ("--dim", "3", "--lambda", "1", "--r", "1.2", "--L", "125",
              "--boundary", "torus", "--reps", str(reps), "--seed", str(seed))
    return [
        Step("betti", ("rate", "--k", "2") + common, reps, reps, ("csv",),
             recompose=("betti_rate", 2, 125.0)),
        Step("j3", ("rate", "--j", "3") + common, reps, reps, ("csv",),
             recompose=("simplex_rate", 3, 125.0)),
    ]


def _pipeline(seed: int, reps: int) -> list[Step]:
    s = ("--seed", str(seed))
    curve = ("--s-max", "1.3", "--s-step", "0.1")
    sched = ("--n-schedule", N_SCHEDULE, "--reps", str(reps))
    target = curve + ("--curve-L", "100", "--curve-reps", str(reps))
    n_points = len(N_SCHEDULE.split(","))
    return [
        Step("curve", ("curve", "--k", "1", "--L", "100", "--reps", str(reps))
             + curve + s, reps, CURVE_POINTS * reps, ("dat",), cache="miss"),
        Step("two_level", ("converge", "--density", "{work}/two_level.json")
             + sched + target + s, reps, (CURVE_POINTS + n_points) * reps,
             ("csv", "dat"), cache="miss"),
        Step("uniform", ("converge",) + sched + target + s, reps,
             n_points * reps, ("csv", "dat"), cache="hit"),
        Step("gap", ("gap",) + sched + s, reps, n_points * reps, ("csv", "dat")),
        # scaling runs two estimates, strips and perturbation one each
        Step("checks", ("checks", "--lambda", "1", "--r", "1", "--L", "100",
                        "--reps", str(reps)) + s, reps, 4 * reps, ()),
    ]


@dataclass(frozen=True)
class Workload:
    """A command sequence, the worker count its end-to-end run uses and its
    replicates per estimator call; BENCHMARK.json says why each was chosen."""

    name: str
    workers: int
    reps: int
    build: Callable[[int, int], list[Step]]

    def steps(self, seed: int, quick: bool = False) -> list[Step]:
        return self.build(seed, QUICK_REPS if quick else self.reps)


WORKLOADS = {w.name: w for w in (
    Workload("rate-d2-dense", 1, 16, _rate_d2),
    Workload("rate-d3-miniball", 1, 32, _rate_d3),
    Workload("pipeline-w2", 2, 12, _pipeline),
)}


def input_seed(seed: int, index: int) -> int:
    """CLI master seed of the index-th input of a run with this seed.

    The work of a replicate varies a lot between clouds: at d=3, L=125 the
    tetrahedron candidates of 64 replicates still spread by 13% between
    seeds. Giving every pass fresh clouds averages a run over many more of
    them than it could time if every pass repeated the same ones.
    """
    return INPUTS_PER_SEED * seed + index
