"""Benchmark of betti-thermo: seeded CLI workloads, end-to-end and per-layer.

Run from the repository root:

    python3 bench/run.py --workload rate-d2-dense --seed 0 --seconds 30 --trace 0

The workload's command sequence (bench/workloads.py) goes through the public
entry point betti_thermo.cli.main, in this process, with the curve cache
(BETTI_THERMO_CACHE) and every --out prefix in a fresh directory under .bench/
for each pass. Passes repeat until --seconds is used up; there is always at
least one. Each pass draws fresh clouds from the seed (workloads.input_seed),
except that the second pass of an untraced run repeats the first.

--trace 0 reports the end-to-end metrics, with no tracing installed:
  reps_per_s   estimator replicates per second of command wall time, the
               median over passes at the workload's own worker count
  setup_s      median wall time of fresh interpreters that import
               betti_thermo.cli and resolve the first command, one after
               each pass and at least 7
  peak_rss_mb  largest getrusage peak RSS of this process and its waited-for
               children (pool workers, set-up interpreters)
--trace 1 reports the per-layer metrics. Each round is an untraced pass at
workers=1, a traced pass at workers=1 (spans from forked workers would be
lost) and an untraced pass at workers=2; see bench/tracing.py.

Correctness, on every pass: each command exits 0, or exits 1 with a failing
statistical verdict in its JSON artifact; every CSV has the estimator header
and the requested seed and replicate count; the SHA-256 of every CSV and .dat
artifact equals that of every other pass on the same input, whatever its
worker count, and on the first input of the default seed equals the recorded
reference (bench/reference.json, same numpy version only). Traced passes also
check the replicate count of each command, the curve-cache hit/miss pattern,
that the rate CSV means equal the means recomposed from the traced build and
rank calls, and the Euler identity of every rate replicate. A command failing
any check is a failed operation; error_rate is failed over attempted commands.

python3 bench/run.py --record rewrites bench/reference.json from the default
seed; do that only for a new numpy version, since CSVs must stay identical.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import SpanIndex, Tracer, percentile_ms, replicate_betti
from workloads import TWO_LEVEL_DENSITY, WORKLOADS, Step, Workload, input_seed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench"
REFERENCE = BENCH / "reference.json"
DEFAULT_SEED = 0
SETUP_SAMPLES = 7
SETUP_SNIPPET = ("import sys; from betti_thermo import cli; "
                 "cli.resolve_config(cli.build_parser().parse_args(sys.argv[1:]))")


@dataclass
class PassResult:
    """One pass over a workload's commands on the run's index-th input;
    walls, failures and digests are keyed by step label or artifact name."""

    index: int
    workers: int
    tracer: Tracer | None
    steps: list[Step]
    walls: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    artifact_bytes: int = 0
    failures: dict[str, list[str]] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.walls.values())

    @property
    def replicates(self) -> int:
        return sum(step.replicates for step in self.steps)

    def fail(self, step: Step, message: str) -> None:
        self.failures.setdefault(step.label, []).append(message)


# ---------------------------------------------------------------------------
# one pass over a workload's commands

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _has_failing_verdict(doc) -> bool:
    if not isinstance(doc, dict):
        return False
    if any(doc.get(key) is False for key in ("passed", "scaled_bounded", "declines")):
        return True
    return any(_has_failing_verdict(v) for v in doc.values())


def _check_csv(text: str, step: Step, seed: int) -> str | None:
    from betti_thermo.limits import CSV_HEADER

    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return "CSV header differs from the estimator header"
    if len(lines) < 2:
        return "CSV has no rows"
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 10 or fields[7] != str(step.reps) or fields[8] != str(seed):
            return f"CSV row {line!r} lacks reps={step.reps} seed={seed}"
    return None


def _check_dat(text: str) -> str | None:
    rows = [line.split() for line in text.splitlines()]
    if not rows or any(len(row) not in (2, 3) for row in rows):
        return ".dat rows must have 2 or 3 columns"
    try:
        [float(x) for row in rows for x in row]
    except ValueError:
        return ".dat holds a non-numeric field"
    return None


def _run_command(step: Step, argv: list[str], tracer: Tracer | None, res: PassResult):
    from betti_thermo import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = cli.main(argv)
            else:
                with tracer.span("cli", "main", step=step.label, command=argv[0]):
                    rc = cli.main(argv)
    except Exception:
        res.fail(step, "raised:\n" + traceback.format_exc())
        rc = None
    res.walls[step.label] = time.perf_counter() - t0
    return rc, err.getvalue()


def _check_step(step: Step, work: Path, rc, stderr: str, seed: int, res: PassResult) -> None:
    command = step.argv[0]
    prefix = work / step.label
    if rc == 1:
        doc_path = Path(f"{prefix}.{command}.json")
        doc = json.loads(doc_path.read_text()) if doc_path.exists() else None
        if not _has_failing_verdict(doc):
            res.fail(step, f"exit 1 without a failing verdict: {stderr.strip()}")
    elif rc not in (0, None):
        res.fail(step, f"exit status {rc}: {stderr.strip()}")
    for ext in step.artifacts:
        path = Path(f"{prefix}.{command}.{ext}")
        if not path.exists():
            res.fail(step, f"missing artifact {path.name}")
            continue
        text = path.read_text()
        problem = _check_csv(text, step, seed) if ext == "csv" else _check_dat(text)
        if problem:
            res.fail(step, f"{path.name}: {problem}")
        res.digests[path.name] = _sha256(path)
    res.artifact_bytes += sum(p.stat().st_size for p in work.glob(f"{step.label}.*"))


def _check_traced(step: Step, work: Path, tracer: Tracer, res: PassResult) -> None:
    index = SpanIndex(tracer.spans)
    main = [sp for sp in tracer.spans
            if sp.name == "main" and sp.info.get("step") == step.label][-1]
    reps = index.named("_replicate", main)
    if len(reps) != step.replicates:
        res.fail(step, f"traced {len(reps)} replicates, expected {step.replicates}")
    if step.cache is not None:
        seen = [sp.info["cache"] for sp in index.named("load_or_build_curve", main)]
        if seen != [step.cache]:
            res.fail(step, f"curve cache {seen}, expected [{step.cache!r}]")
    if step.recompose is None:
        return
    quantity, k, L = step.recompose
    values = []
    for rep in reps:
        if quantity == "betti_rate":
            beta_k, euler_ok = replicate_betti(index, rep, k)
            if not euler_ok:
                res.fail(step, f"replicate {rep.info['index']}: Euler identity fails")
            values.append(beta_k / L)
        else:
            counts = index.named("build_cech", rep)[0].info["counts"]
            values.append((counts[k] if k < len(counts) else 0) / L)
    recomposed = repr(float(np.asarray(values, dtype=float).mean()))
    csv = Path(f"{work / step.label}.{step.argv[0]}.csv").read_text().splitlines()
    reported = csv[1].split(",")[5] if len(csv) > 1 else None
    if recomposed != reported:
        res.fail(step, f"{quantity} mean {reported} != {recomposed} recomposed from layer calls")


def run_pass(workload: Workload, seed: int, index: int, workers: int,
             tracer: Tracer | None = None, quick: bool = False) -> PassResult:
    """Runs the command sequence on the run's index-th input, in a fresh
    directory, and checks it."""
    seed = input_seed(seed, index)
    steps = workload.steps(seed, quick)
    res = PassResult(index, workers, tracer, steps)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="pass-", dir=WORK))
    saved_cache = os.environ.get("BETTI_THERMO_CACHE")
    try:
        (work / "two_level.json").write_text(TWO_LEVEL_DENSITY)
        os.environ["BETTI_THERMO_CACHE"] = str(work / "cache")
        with tracer.installed() if tracer else contextlib.nullcontext():
            for step in steps:
                argv = [a.format(work=work) for a in step.argv]
                argv += ["--workers", str(workers), "--out", str(work / step.label)]
                rc, stderr = _run_command(step, argv, tracer, res)
                _check_step(step, work, rc, stderr, seed, res)
                if tracer is not None and rc is not None:
                    _check_traced(step, work, tracer, res)
    finally:
        if saved_cache is None:
            os.environ.pop("BETTI_THERMO_CACHE", None)
        else:
            os.environ["BETTI_THERMO_CACHE"] = saved_cache
        shutil.rmtree(work, ignore_errors=True)
    return res


def compare_digests(passes: list[PassResult], reference: dict | None) -> None:
    """Passes on one input must agree, whatever their worker count; on the
    first input they must match the reference digests, if there are any."""
    expected_by_input = {} if reference is None else {0: reference}
    for res in passes:
        expected = expected_by_input.setdefault(res.index, res.digests)
        source = "reference" if reference is not None and res.index == 0 else "first pass"
        for step in res.steps:
            for name in (n for n in expected if n.startswith(step.label + ".")):
                got = res.digests.get(name)
                if got is not None and got != expected[name]:
                    res.fail(step, f"{name} sha256 {got[:12]} != {source} "
                                   f"{expected[name][:12]} (workers={res.workers})")


# ---------------------------------------------------------------------------
# metrics

def time_setup(first: Step) -> float:
    """Wall time of a fresh interpreter importing the CLI and resolving the
    workload's first command."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    argv = [a.format(work=WORK) for a in first.argv] + ["--out", str(WORK / "setup")]
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_SNIPPET, *argv], env=env,
                   cwd=ROOT, check=True)
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    """Largest peak RSS of this process or of any waited-for child.

    Not the sum: a child's peak already counts the pages it shares with this
    process when it is forked (pool workers) or spawned (set-up interpreters).
    """
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def layer_metrics(traced: list[PassResult], w1: list[PassResult],
                  w2: list[PassResult]) -> tuple[dict, list[str]]:
    """Per-layer metrics (name -> (value, unit)) and extra report lines.

    Counts and self times are per command sequence (averaged over traced
    passes); call timings are p50/p90 over every call in the traced passes.
    """
    spans_by = {}
    nrep = 0
    totals = {key: 0.0 for key in ("points", "nnz", "cech2", "rips2", "cech3", "rips3")}
    simplices = [0, 0, 0, 0]
    self_s = {}
    commands = {}
    hits, misses, hit_ms = 0, 0, []
    for res in traced:
        index = SpanIndex(res.tracer.spans)
        for sp in res.tracer.spans:
            spans_by.setdefault(sp.name, []).append((sp, index))
        for layer in ("pointproc", "cech", "homology", "limits", "cli", "harness"):
            self_s[layer] = self_s.get(layer, 0.0) + index.layer_self(layer)
        nrep += len(index.named("_replicate"))
        for sp in index.spans:
            if sp.layer == "pointproc" and "points" in sp.info:
                totals["points"] += sp.info["points"]
            elif sp.name == "boundary_matrix":
                totals["nnz"] += sp.info["nnz"]
            elif sp.name == "build_cech":
                counts, rips = sp.info["counts"], sp.info["rips"]
                for j in range(min(4, len(counts))):
                    simplices[j] += counts[j]
                for j in (2, 3):
                    totals[f"cech{j}"] += counts[j] if j < len(counts) else 0
                    totals[f"rips{j}"] += rips[j] if j < len(rips) else 0
            elif sp.name == "load_or_build_curve":
                if sp.info["cache"] == "hit":
                    hits += 1
                    hit_ms.append(sp.dur * 1e3)
                else:
                    misses += 1
            elif sp.name == "main":
                label = f"{sp.info['step']}({sp.info['command']})"
                commands[label] = commands.get(label, 0.0) + sp.dur

    def durs(name):
        return [sp.dur for sp, _ in spans_by.get(name, [])]

    def self_durs(name):
        return [index.self_time(sp) for sp, index in spans_by.get(name, [])]

    n = len(traced)
    samples = durs("sample_poisson_homogeneous") + durs("sample_poisson_intensity") + durs("sample")
    m = {}
    m["pointproc.sample_ms_p50"] = (percentile_ms(samples, 50), "ms")
    m["pointproc.sample_ms_p90"] = (percentile_ms(samples, 90), "ms")
    m["pointproc.sample_calls"] = (len(samples) / n, "count")
    m["pointproc.points_per_rep"] = (totals["points"] / max(nrep, 1), "count")
    m["pointproc.self_s"] = (self_s["pointproc"] / n, "s")
    for key, name, self_only in (("pairs", "pairs_within", False),
                                 ("build_self", "build_cech", True)):
        values = self_durs(name) if self_only else durs(name)
        m[f"cech.{key}_ms_p50"] = (percentile_ms(values, 50), "ms")
        m[f"cech.{key}_ms_p90"] = (percentile_ms(values, 90), "ms")
    m["cech.build_calls"] = (len(durs("build_cech")) / n, "count")
    for j in range(4):
        m[f"cech.simplices_j{j}"] = (simplices[j] / max(nrep, 1), "count")
    for j in (2, 3):
        rips = totals[f"rips{j}"]
        m[f"cech.miniball_accept_j{j}"] = (totals[f"cech{j}"] / rips if rips else 0.0, "ratio")
    m["cech.self_s"] = (self_s["cech"] / n, "s")
    for key, name in (("boundary", "boundary_matrix"), ("rank", "rank_gf2")):
        values = durs(name)
        m[f"homology.{key}_ms_p50"] = (percentile_ms(values, 50), "ms")
        m[f"homology.{key}_ms_p90"] = (percentile_ms(values, 90), "ms")
        m[f"homology.{key}_calls"] = (len(values) / n, "count")
    m["homology.boundary_nnz_per_rep"] = (totals["nnz"] / max(nrep, 1), "count")
    m["homology.self_s"] = (self_s["homology"] / n, "s")
    reps = durs("_replicate")
    m["limits.estimator_calls"] = (len(durs("_map_replicates")) / n, "count")
    m["limits.replicates"] = (len(reps) / n, "count")
    m["limits.replicate_ms_p50"] = (percentile_ms(reps, 50), "ms")
    m["limits.replicate_ms_p90"] = (percentile_ms(reps, 90), "ms")
    m["limits.self_s"] = (self_s["limits"] / n, "s")
    m["limits.curve_cache_hits"] = (hits / n, "count")
    m["limits.curve_cache_misses"] = (misses / n, "count")
    w1_wall = statistics.median(res.wall for res in w1)
    w2_wall = statistics.median(res.wall for res in w2)
    traced_wall = statistics.median(res.wall for res in traced)
    m["limits.speedup_w2"] = (w1_wall / w2_wall, "ratio")
    m["cli.command_s"] = (sum(commands.values()) / n, "s")
    m["cli.self_s"] = (self_s["cli"] / n, "s")
    m["cli.artifact_bytes"] = (sum(res.artifact_bytes for res in traced) / n, "bytes")
    m["trace.overhead_frac"] = (traced_wall / w1_wall - 1.0, "fraction")

    extra = [f"metric cli.command_s[{label}] {total / n:.6g} s"
             for label, total in commands.items()]
    extra.append("metric limits.curve_hit_ms "
                 + (f"{statistics.mean(hit_ms):.6g} ms" if hit_ms else "n/a (no cache hits)")
                 + f" over {len(hit_ms)} hits")
    layers = ("cli", "limits", "pointproc", "cech", "homology")
    measured = sum(self_s[layer] for layer in layers)
    extra.append("profile (share of traced command time, oracle work excluded): " + ", ".join(
        f"{layer} {100 * self_s[layer] / measured:.1f}%" for layer in layers)
        + f"; cech build self {100 * sum(self_durs('build_cech')) / measured:.1f}%"
        + f", cech pairs {100 * sum(durs('pairs_within')) / measured:.1f}%")
    return m, extra


# ---------------------------------------------------------------------------
# driver

def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__}


def load_reference(name: str, seed: int, quick: bool, facts: dict,
                   report: list[str]) -> dict | None:
    if seed != DEFAULT_SEED or not REFERENCE.exists():
        return None
    doc = json.loads(REFERENCE.read_text())
    if doc["numpy"] != facts["numpy"]:
        report.append(f"note: numpy {facts['numpy']} differs from numpy {doc['numpy']} "
                      "the reference digests were recorded with; RNG streams may "
                      "differ, so digests are printed but not checked")
        return None
    return doc["digests"]["quick" if quick else "full"][name]


def repeat_for(seconds: float, body) -> None:
    """Runs body at least once, then again while another run fits in seconds."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        body()
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return


def run(name: str, seed: int, seconds: float, trace: bool, quick: bool = False,
        reference: dict | None = None) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the report lines.

    reference overrides the recorded digests; the self-test uses it to check
    one seed's artifacts against another's.
    """
    workload = WORKLOADS[name]
    first = workload.steps(input_seed(seed, 0), quick)[0]
    facts = machine_facts()
    report = ["machine " + " ".join(f"{k}={v!r}" for k, v in facts.items()),
              f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}"]
    if reference is None:
        reference = load_reference(name, seed, quick, facts, report)
    import betti_thermo.cli  # noqa: F401  (import cost is setup_s, not pass time)

    passes: list[PassResult] = []

    def one_pass(index, workers, tracer=None) -> PassResult:
        passes.append(run_pass(workload, seed, index, workers, tracer, quick))
        return passes[-1]

    if trace:
        w1, traced, w2 = [], [], []

        def traced_round():
            index = len(traced)
            w1.append(one_pass(index, 1))
            traced.append(one_pass(index, 1, Tracer()))
            w2.append(one_pass(index, 2))

        repeat_for(seconds, traced_round)
        metrics, extra = layer_metrics(traced, w1, w2)
        report.extend(extra)
        report.append(f"spans written to {write_spans(traced, name, seed)}")
    else:
        setup_times = []

        # the second pass repeats the first input, to check determinism;
        # one set-up sample after each pass spreads them over the run, so
        # their median does not hang on a few seconds of host speed
        def untraced_round():
            one_pass(max(0, len(passes) - 1), workload.workers)
            setup_times.append(time_setup(first))

        repeat_for(seconds, untraced_round)
        while len(setup_times) < SETUP_SAMPLES:
            setup_times.append(time_setup(first))
        metrics = {
            "reps_per_s": (statistics.median(res.replicates / res.wall for res in passes),
                           "replicates/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    compare_digests(passes, reference)

    attempted = sum(len(res.steps) for res in passes)
    failed = sum(len(res.failures) for res in passes)
    report.extend(f"pass {i} input {res.index} workers={res.workers} "
                  f"traced={res.tracer is not None}: "
                  f"{res.replicates} replicates in {res.wall:.4f} s, "
                  f"{res.replicates / res.wall:.5g} replicates/s"
                  for i, res in enumerate(passes))
    if reference is None:
        seen = set()
        for res in passes:
            if res.index not in seen:
                seen.add(res.index)
                report.extend(f"digest input {res.index} {k} {v}"
                              for k, v in sorted(res.digests.items()))
    else:
        report.append(f"digests: {len(reference)} artifacts checked against the reference")
    for i, res in enumerate(passes):
        for label, messages in res.failures.items():
            report.extend(f"FAILED pass {i} {label}: {msg}" for msg in messages)
    report.extend(f"metric {n} {value:.6g} {unit}" for n, (value, unit) in metrics.items())
    report.append(f"metric error_rate {failed / attempted:.6g} fraction "
                  f"({failed} failed of {attempted} commands)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": value, "unit": unit} for n, (value, unit) in metrics.items()},
    }
    return result, report


def write_spans(traced: list[PassResult], name: str, seed: int) -> Path:
    """Writes every span of the traced passes, one JSON object per line."""
    WORK.mkdir(exist_ok=True)
    path = WORK / f"trace-{name}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for i, res in enumerate(traced):
            for sp in res.tracer.spans:
                fh.write(json.dumps({"pass": i, **sp.to_dict()}) + "\n")
    return path.relative_to(ROOT)


def record_reference() -> None:
    """Writes the default-seed digests of every workload, full and quick."""
    digests = {"full": {}, "quick": {}}
    for mode, quick in (("full", False), ("quick", True)):
        for name, workload in WORKLOADS.items():
            res = run_pass(workload, DEFAULT_SEED, 0, workload.workers, quick=quick)
            if res.failures:
                raise SystemExit(f"{name} ({mode}) failed: {res.failures}")
            digests[mode][name] = res.digests
    facts = machine_facts()
    doc = {"seed": DEFAULT_SEED, "numpy": facts["numpy"], "python": facts["python"],
           "digests": digests}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None, quick: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite bench/reference.json and exit")
    args = parser.parse_args(argv)
    if not (SRC / "betti_thermo" / "cli.py").is_file():
        print(f"error: no betti_thermo sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.record:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace), quick)
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
