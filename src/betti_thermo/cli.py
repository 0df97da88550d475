"""Command-line experiment runner.

Dispatches the samplers and estimators behind argparse subcommands,
manages seeds and the limit-curve cache, and writes CSV/JSON/plot-data
artifacts atomically under ``<prefix>.<command>.<ext>``. A run with a
fixed seed produces byte-identical artifacts. Flags may also come from
a JSON config (--config); explicit command-line flags win.

Every flag is one field of ExperimentConfig: its name, type, default,
help and choices there build the parser and check config-file values.
"""

import argparse
import json
import math
import os
import sys
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from betti_thermo.cech import build_cech
from betti_thermo.homology import betti_numbers
from betti_thermo.limits import (
    LimitCurve,
    boundary_strip_check,
    convergence_table,
    estimate_betti_rate,
    estimate_simplex_rate,
    intensity_perturbation_check,
    load_or_build_curve,
    poissonization_gap,
    scaling_check,
    thermodynamic_integral,
    write_records_csv,
    write_text_atomic,
)
from betti_thermo.pointproc import (
    DensityGrid,
    IntensityGrid,
    PointCloud,
    RngStream,
    Window,
    sample_binomial,
    sample_poisson_homogeneous,
)


class CliError(ValueError):
    pass


# bundled clouds for betti: the unit-square corners close a single loop
# at r = 1.05
_FIXTURES = {"square4": np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])}

_CHECKS = ("scaling", "strips", "perturbation")


def _flag(default, text: str, *, key: str | None = None, choices=None):
    """An ExperimentConfig field that is also the flag --<key> and the
    config-file key <key>; key defaults to the field name, and the flag
    spells its underscores as dashes."""
    return field(default=default,
                 metadata={"help": text, "key": key, "choices": choices})


def _cache_dir() -> Path:
    env = os.environ.get("BETTI_THERMO_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "betti-thermo"


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully resolved run: command plus every knob it may read."""

    command: str
    cache_dir: Path
    dim: int = _flag(2, "ambient dimension")
    k: int = _flag(1, "homology degree")
    j: int | None = _flag(None, "simplex dimension; switches rate to the j-simplex count")
    r: float = _flag(1.0, "radius parameter")
    lam: float = _flag(1.0, "Poisson intensity", key="lambda")
    L: float = _flag(100.0, "observation window volume")
    n: int | None = _flag(None, "binomial sample size")
    n_schedule: tuple[int, ...] = _flag((200, 400, 800, 1600),
                                        "comma-separated increasing sizes")
    reps: int = _flag(100, "Monte Carlo replicates")
    density: str | None = _flag(None, "piecewise-constant density JSON file")
    seed: int = _flag(0, "master seed")
    boundary: str | None = _flag(None, "window boundary handling",
                                 choices=("plain", "torus"))
    workers: int = _flag(1, "worker processes")
    out: str = _flag("betti-thermo", "artifact path prefix")
    s_max: float = _flag(1.3, "limit-curve grid endpoint")
    s_step: float = _flag(0.1, "limit-curve grid step")
    curve_L: float = _flag(400.0, "window volume of the converge target curve")
    curve_reps: int = _flag(200, "replicates per target-curve point")
    theta: float = _flag(2.0, "scaling factor for checks")
    eps: float = _flag(0.1, "intensity perturbation size for checks")
    boxes: int = _flag(4, "sub-box count for the strip check")
    fixture: str | None = _flag(None, "bundled cloud for betti", choices=tuple(_FIXTURES))
    only: str | None = _flag(None, "run a single check", choices=_CHECKS)


def _flags() -> list:
    return [f for f in fields(ExperimentConfig) if "help" in f.metadata]


def _key(f) -> str:
    return f.metadata["key"] or f.name


def _flag_name(f) -> str:
    return "--" + _key(f).replace("_", "-")


def _scalar_type(f) -> type:
    """int, float or str: the type of the flag's value (of each item for
    the n-schedule)."""
    return next(t for t in (*typing.get_args(f.type), f.type) if t is not type(None))


def _parse(f, value, source: str):
    """A flag's text or a config-file value as the field's type, checked
    against its choices; a CliError names the source (flag or key)."""
    kind = _scalar_type(f)
    many = typing.get_origin(f.type) is tuple
    text = ",".join(map(str, value)) if many and isinstance(value, list) else str(value)
    try:
        value = tuple(kind(p) for p in text.split(",") if p.strip()) if many else kind(text)
    except ValueError:
        raise CliError(f"{source}: invalid {kind.__name__} value {text!r}") from None
    choices = f.metadata["choices"]
    if choices and value not in choices:
        raise CliError(f"{source}: invalid choice {value!r} "
                       f"(choose from {', '.join(choices)})")
    return value


def _default_text(value) -> str:
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return f"{value:g}" if isinstance(value, float) else str(value)


def build_parser() -> argparse.ArgumentParser:
    config = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    config.add_argument("--config",
                        help="JSON config file supplying the command and flags; "
                             "explicit flags win")
    common = argparse.ArgumentParser(add_help=False, parents=[config],
                                     argument_default=argparse.SUPPRESS)
    for f in _flags():
        text = f.metadata["help"]
        if f.default is not None:
            text += f" (default {_default_text(f.default)})"
        common.add_argument(_flag_name(f), dest=f.name,
                            choices=f.metadata["choices"], help=text)

    parser = argparse.ArgumentParser(
        prog="betti-thermo",
        description="Cech-complex Betti numbers of sampled point processes "
                    "and their thermodynamic-regime limits.",
        parents=[config],
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (_, blurb) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=blurb, description=blurb)
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge command-line flags over the JSON config over the defaults.

    Flag text and config values are parsed alike, by _parse."""
    doc = {}
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise CliError("config must be a JSON object of flag values")
    command = getattr(args, "command", None) or doc.get("command")
    if command is None:
        raise CliError('no command given (subcommand or "command" config key)')
    if not isinstance(command, str) or command not in _COMMANDS:
        raise CliError(f"unknown command {command!r}")
    unknown = set(doc) - {_key(f) for f in _flags()} - {"command"}
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}")
    values = {}
    for f in _flags():
        key = _key(f)
        if hasattr(args, f.name):
            values[f.name] = _parse(f, getattr(args, f.name), _flag_name(f))
        elif doc.get(key) is not None:
            values[f.name] = _parse(f, doc[key], f"config key {key!r}")
    return ExperimentConfig(command=command, cache_dir=_cache_dir(), **values)


# ---------------------------------------------------------------------------
# shared pieces

def _artifact(cfg: ExperimentConfig, ext: str) -> Path:
    return Path(f"{cfg.out}.{cfg.command}.{ext}")


def _write_json(cfg: ExperimentConfig, doc: dict) -> None:
    write_text_atomic(_artifact(cfg, "json"),
                      json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _boundary(cfg: ExperimentConfig, default: str) -> str:
    return cfg.boundary or default


def _resolve_density(cfg: ExperimentConfig) -> DensityGrid:
    if cfg.density is not None:
        return DensityGrid.from_json(cfg.density)
    return DensityGrid.uniform(Window.unit(cfg.dim))


def _sample_cloud(cfg: ExperimentConfig) -> PointCloud:
    """The cloud a sampling command describes: binomial when --n (or a
    density file) is given, homogeneous Poisson on the centered window
    of volume L otherwise."""
    rng = RngStream(cfg.seed)
    if cfg.density is not None or cfg.n is not None:
        if cfg.n is None:
            raise CliError("sampling from a density file needs --n")
        return sample_binomial(_resolve_density(cfg), cfg.n, rng)
    return sample_poisson_homogeneous(cfg.lam, Window.centered(cfg.L, cfg.dim), rng)


def _period_for(cfg: ExperimentConfig) -> float | None:
    """Torus period for complex/betti; validated before any sampling."""
    if _boundary(cfg, "plain") == "plain":
        return None
    if cfg.density is not None or cfg.n is not None or cfg.fixture is not None:
        raise CliError("torus boundary applies to the homogeneous Poisson window only")
    period = cfg.L ** (1.0 / cfg.dim)
    if period <= 3.0 * cfg.r:
        raise CliError(f"torus side {period:.6g} must exceed 3r = {3.0 * cfg.r:.6g}")
    return period


def _s_grid(s_max: float, s_step: float) -> tuple[float, ...]:
    if s_step <= 0:
        raise CliError("s-step must be positive")
    if s_max < s_step:
        raise CliError("s-max must be at least one step")
    count = int(math.floor(s_max / s_step + 1e-9))
    grid = [round(i * s_step, 12) for i in range(count + 1)]
    if grid[-1] < s_max - 1e-9 * max(1.0, s_max):
        grid.append(float(s_max))
    return tuple(grid)


def emit_plot_data(table, path) -> None:
    """Whitespace-separated x y [yerr] rows at 12 significant digits."""
    if isinstance(table, LimitCurve):
        rows = list(zip(table.s_grid, table.values, table.stderrs))
    else:
        rows = list(table.plot_rows())
    if not rows:
        raise CliError("nothing to emit: the table is empty")
    lines = [" ".join(f"{float(x):.12g}" for x in row) for row in rows]
    write_text_atomic(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands

def cmd_sample(cfg: ExperimentConfig) -> int:
    cloud = _sample_cloud(cfg)
    header = ",".join(f"x{i}" for i in range(cloud.dim))
    lines = [header]
    lines.extend(",".join(repr(float(v)) for v in row) for row in cloud.points)
    write_text_atomic(_artifact(cfg, "csv"), "\n".join(lines) + "\n")
    print(f"sample: {len(cloud)} points (d={cloud.dim})")
    return 0


def _check_complex_params(cfg: ExperimentConfig) -> None:
    if cfg.r <= 0:
        raise CliError("radius must be positive")
    if cfg.k < 0:
        raise CliError("k must be non-negative")


def cmd_complex(cfg: ExperimentConfig) -> int:
    _check_complex_params(cfg)
    period = _period_for(cfg)
    cloud = _sample_cloud(cfg)
    cx = build_cech(cloud, cfg.r, cfg.k + 1, period=period)
    counts = cx.simplex_counts()
    _write_json(cfg, {
        "n_points": len(cloud),
        "dim": cloud.dim,
        "r": cfg.r,
        "boundary_mode": _boundary(cfg, "plain"),
        "max_dim": cfg.k + 1,
        "simplex_counts": counts,
        "seed": cfg.seed,
    })
    print("complex: counts " + " ".join(map(str, counts)))
    return 0


def cmd_betti(cfg: ExperimentConfig) -> int:
    _check_complex_params(cfg)
    if cfg.fixture is not None:
        if _boundary(cfg, "plain") == "torus":
            raise CliError("torus boundary applies to the homogeneous Poisson window only")
        cloud, period = PointCloud(_FIXTURES[cfg.fixture]), None
    else:
        period = _period_for(cfg)
        cloud = _sample_cloud(cfg)
    cx = build_cech(cloud, cfg.r, cfg.k + 1, period=period)
    betti = betti_numbers(cx, cfg.k)
    _write_json(cfg, {
        "n_points": len(cloud),
        "dim": cloud.dim,
        "r": cfg.r,
        "k": cfg.k,
        "betti": list(betti),
        "simplex_counts": cx.simplex_counts(),
        "fixture": cfg.fixture,
        "seed": None if cfg.fixture else cfg.seed,
    })
    print("beta: " + " ".join(str(b) for b in betti))
    return 0


def cmd_rate(cfg: ExperimentConfig) -> int:
    rng = RngStream(cfg.seed)
    mode = _boundary(cfg, "plain")
    if cfg.j is not None:
        rec = estimate_simplex_rate(cfg.lam, cfg.r, cfg.L, cfg.j, cfg.reps, rng,
                                    boundary_mode=mode, dim=cfg.dim,
                                    workers=cfg.workers)
    else:
        rec = estimate_betti_rate(cfg.lam, cfg.r, cfg.L, cfg.k, cfg.reps, rng,
                                  boundary_mode=mode, dim=cfg.dim,
                                  workers=cfg.workers)
    write_records_csv(_artifact(cfg, "csv"), [rec])
    print(f"{rec.quantity}: {rec.mean:.6g} +/- {rec.stderr:.6g}")
    return 0


def cmd_curve(cfg: ExperimentConfig) -> int:
    grid = _s_grid(cfg.s_max, cfg.s_step)
    curve = load_or_build_curve(cfg.cache_dir, cfg.k, grid, cfg.L, cfg.reps,
                                RngStream(cfg.seed),
                                boundary_mode=_boundary(cfg, "torus"),
                                dim=cfg.dim, workers=cfg.workers)
    _write_json(cfg, curve.to_dict())
    emit_plot_data(curve, _artifact(cfg, "dat"))
    print(f"curve: k={cfg.k}, {len(curve.s_grid)} points on [0, {curve.s_grid[-1]:g}], "
          f"endpoint {curve.values[-1]:.6g} +/- {curve.stderrs[-1]:.6g}")
    return 0


def cmd_converge(cfg: ExperimentConfig) -> int:
    density = _resolve_density(cfg)
    grid = _s_grid(cfg.s_max, cfg.s_step)
    needed = density.sup_value ** (1.0 / density.dim) * cfg.r
    if needed > grid[-1] + 1e-9:
        raise CliError(f"limit curve must cover s = {needed:.6g}; "
                       f"raise --s-max (now {grid[-1]:g})")
    master = RngStream(cfg.seed)
    curve = load_or_build_curve(cfg.cache_dir, cfg.k, grid, cfg.curve_L,
                                cfg.curve_reps, master.substream(1),
                                boundary_mode="torus", dim=density.dim,
                                workers=cfg.workers)
    target = thermodynamic_integral(density, cfg.r, cfg.k, curve)
    table = convergence_table(density, cfg.n_schedule, cfg.r, cfg.k, cfg.reps,
                              master.substream(0), target.value, target.stderr,
                              workers=cfg.workers)
    last = table.records[-1]
    gap = table.gaps[-1]
    tol = 3.0 * math.hypot(last.stderr, target.stderr) + 0.1 * abs(target.value)
    ok = gap <= tol
    doc = table.to_dict()
    doc["tolerance"] = tol
    doc["passed"] = ok
    write_records_csv(_artifact(cfg, "csv"), table.records)
    _write_json(cfg, doc)
    emit_plot_data(table, _artifact(cfg, "dat"))
    print(f"converge: gap(n={last.L_or_n:g}) = {gap:.6g} "
          f"vs tolerance {tol:.6g}: {'pass' if ok else 'fail'}")
    return 0 if ok else 1


def cmd_gap(cfg: ExperimentConfig) -> int:
    density = _resolve_density(cfg)
    table = poissonization_gap(density, cfg.n_schedule, cfg.r, cfg.k, cfg.reps,
                               RngStream(cfg.seed), workers=cfg.workers)
    bounded = table.scaled_bounded()
    declining = table.declines()
    ok = bounded and declining
    doc = table.to_dict()
    doc["scaled_bounded"] = bounded
    doc["declines"] = declining
    write_records_csv(_artifact(cfg, "csv"), table.records())
    _write_json(cfg, doc)
    emit_plot_data(table, _artifact(cfg, "dat"))
    last = table.rows[-1]
    print(f"gap: scaled gap(n={last.n}) = {last.scaled:.6g}, "
          f"bounded {'yes' if bounded else 'no'}, "
          f"declining {'yes' if declining else 'no'}: {'pass' if ok else 'fail'}")
    return 0 if ok else 1


def cmd_checks(cfg: ExperimentConfig) -> int:
    if cfg.eps < 0:
        raise CliError("eps must be non-negative")
    names = _CHECKS if cfg.only is None else (cfg.only,)
    master = RngStream(cfg.seed)
    doc = {}
    failed = 0
    for name in names:
        if name == "scaling":
            rep = scaling_check(cfg.lam, cfg.theta, cfg.r, cfg.L, cfg.k, cfg.reps,
                                master.substream(0),
                                boundary_mode=_boundary(cfg, "torus"),
                                dim=cfg.dim, workers=cfg.workers)
            ok = rep.passed
            print(f"scaling: {'pass' if ok else 'fail'} "
                  f"(delta {rep.delta:.3g} vs 3 se {3.0 * rep.combined_stderr:.3g})")
        elif name == "strips":
            rep = boundary_strip_check(cfg.lam, cfg.r, cfg.L, cfg.boxes, cfg.k,
                                       master.substream(1), reps=cfg.reps,
                                       dim=cfg.dim, workers=cfg.workers)
            ok = rep.holds_all
            print(f"strips: {'pass' if ok else 'fail'} "
                  f"({rep.violations} violations in {rep.reps} realizations)")
        else:
            window = Window.centered(cfg.L, cfg.dim)
            cells = (1,) * cfg.dim
            f = IntensityGrid(window, cells, np.array([cfg.lam]))
            g = IntensityGrid(window, cells, np.array([cfg.lam + cfg.eps]))
            rep = intensity_perturbation_check(f, g, cfg.r, cfg.k, cfg.reps,
                                               master.substream(2),
                                               workers=cfg.workers)
            ok = rep.nested_bound_ok
            print(f"perturbation: {'pass' if ok else 'fail'} "
                  f"(gap {rep.gap:.3g}, L1 distance {rep.l1_distance:.3g})")
        entry = rep.to_dict()
        entry["passed"] = ok
        doc[name] = entry
        failed += 0 if ok else 1
    _write_json(cfg, doc)
    return 0 if failed == 0 else 1


_COMMANDS = {
    "sample": (cmd_sample, "draw a point cloud and write its coordinates"),
    "complex": (cmd_complex, "simplex counts of the Cech complex on a sampled cloud"),
    "betti": (cmd_betti, "Betti numbers of a sampled cloud or the bundled square fixture"),
    "rate": (cmd_rate, "per-volume Betti (or j-simplex) rate of a Poisson process"),
    "curve": (cmd_curve, "tabulate the unit-intensity limit curve over an s-grid (cached)"),
    "converge": (cmd_converge,
                 "binomial expectations over an n-schedule against the limit target"),
    "gap": (cmd_gap, "coupled binomial vs Poissonized expectation gap over an n-schedule"),
    "checks": (cmd_checks, "scaling identity, boundary strips, intensity perturbation"),
}


def run(config: ExperimentConfig) -> int:
    """Dispatch a resolved config; returns the process exit status."""
    return _COMMANDS[config.command][0](config)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(resolve_config(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
