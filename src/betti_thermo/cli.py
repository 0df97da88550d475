"""Command-line experiment runner.

Dispatches the samplers and estimators behind argparse subcommands,
manages seeds and the limit-curve cache, and writes CSV/JSON/plot-data
artifacts atomically under ``<prefix>.<command>.<ext>``. A run with a
fixed seed produces byte-identical artifacts. Flags may also come from
a JSON config (--config); explicit command-line flags win.

Every flag is one field of ExperimentConfig: its name, type, default,
help, choices, the commands that read it and the fields its branch does
not read there build the parser and check config-file values. A command
accepts only the flags it reads, and a run only those its branch reads.
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

from betti_thermo.cech import SimplicialComplex, build_cech
from betti_thermo.homology import betti_numbers
from betti_thermo.limits import (
    _check_args,
    boundary_strip_check,
    convergence_table,
    curve_covers,
    estimate_betti_rate,
    estimate_simplex_rate,
    intensity_perturbation_check,
    load_or_build_curve,
    poissonization_gap,
    scaling_check,
    thermodynamic_integral,
    write_json,
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


# bundled clouds for sample, complex and betti: the unit-square corners
# close a single loop at r = 1.05
_FIXTURES = {"square4": np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])}

_CHECKS = ("scaling", "strips", "perturbation")

# the most steps of a limit-curve s-grid; the default grid takes 13
MAX_GRID_STEPS = 10 ** 4


# the commands that describe one cloud, and those that average replicates
_CLOUD = "sample complex betti"
_MONTE_CARLO = "rate curve converge gap checks"


def _flag(default, text: str, *, reads: str, key: str | None = None, choices=None,
          excludes: str | dict = ""):
    """An ExperimentConfig field that is also the flag --<key> and the
    config-file key <key> of the commands named in reads (space-separated),
    and of no other; key defaults to the field name, and the flag spells
    its underscores as dashes. excludes names the fields that a run giving
    the flag does not read, or maps each of its values to such names."""
    return field(default=default,
                 metadata={"help": text, "reads": frozenset(reads.split()),
                           "key": key, "choices": choices, "excludes": excludes})


def _cache_dir() -> Path:
    env = os.environ.get("BETTI_THERMO_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "betti-thermo"


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully resolved run: the command plus every knob; the flags the
    command does not read keep their defaults."""

    command: str
    cache_dir: Path
    dim: int = _flag(2, "ambient dimension", reads=f"{_CLOUD} {_MONTE_CARLO}")
    k: int = _flag(1, "homology degree", reads=f"complex betti {_MONTE_CARLO}")
    j: int | None = _flag(None, "simplex dimension; switches rate to the j-simplex count",
                          reads="rate", excludes="k")
    r: float = _flag(1.0, "radius parameter", reads="complex betti rate converge gap checks")
    lam: float = _flag(1.0, "Poisson intensity", key="lambda", reads=f"{_CLOUD} rate checks")
    L: float = _flag(100.0, "observation window volume",
                     reads=f"{_CLOUD} rate curve checks")
    n: int | None = _flag(None, "binomial sample size", reads=_CLOUD,
                          excludes="lam L boundary")
    n_schedule: tuple[int, ...] = _flag((200, 400, 800, 1600),
                                        "comma-separated increasing sizes",
                                        reads="converge gap")
    reps: int = _flag(100, "Monte Carlo replicates", reads=_MONTE_CARLO)
    density: str | None = _flag(None, "piecewise-constant density JSON file",
                                reads=f"{_CLOUD} converge gap",
                                excludes="lam L dim boundary")
    seed: int = _flag(0, "master seed", reads=f"{_CLOUD} {_MONTE_CARLO}")
    boundary: str | None = _flag(None, "window boundary handling",
                                 reads="complex betti rate curve checks",
                                 choices=("plain", "torus"))
    workers: int = _flag(1, "worker processes", reads=_MONTE_CARLO)
    out: str = _flag("betti-thermo", "artifact path prefix",
                     reads=f"{_CLOUD} {_MONTE_CARLO}")
    s_max: float = _flag(1.3, "limit-curve grid endpoint", reads="curve converge")
    s_step: float = _flag(0.1, "limit-curve grid step", reads="curve converge")
    curve_L: float = _flag(400.0, "window volume of the target curve", reads="converge")
    curve_reps: int = _flag(200, "replicates per target-curve point", reads="converge")
    theta: float = _flag(2.0, "scaling factor", reads="checks")
    eps: float = _flag(0.1, "intensity perturbation size", reads="checks")
    boxes: int = _flag(4, "sub-box count for the strip check", reads="checks")
    fixture: str | None = _flag(None, "bundled cloud in place of a sampled one",
                                reads=_CLOUD, choices=tuple(_FIXTURES),
                                excludes="n density lam L dim seed boundary")
    only: str | None = _flag(None, "run a single check", reads="checks", choices=_CHECKS,
                             excludes={"scaling": "boxes eps",
                                       "strips": "theta eps boundary",
                                       "perturbation": "theta boxes boundary"})


def _flags(command: str) -> list:
    """The fields the command reads, in declaration order."""
    return [f for f in fields(ExperimentConfig)
            if command in f.metadata.get("reads", ())]


def _key(f) -> str:
    return f.metadata["key"] or f.name


def _flag_name(f) -> str:
    return "--" + _key(f).replace("_", "-")


def _excluded(f, value) -> tuple[str, frozenset[str]]:
    """Flag f's name in errors (with the value where the exclusions depend
    on it, as for --only) and the fields a run giving f this value ignores."""
    excludes = f.metadata["excludes"]
    if isinstance(excludes, dict):
        return f"{_flag_name(f)} {value}", frozenset(excludes.get(value, "").split())
    return _flag_name(f), frozenset(excludes.split())


def _scalar_type(f) -> type:
    """int, float or str: the type of the flag's value (of each item for
    the n-schedule)."""
    return next(t for t in (*typing.get_args(f.type), f.type) if t is not type(None))


def _parse(f, value, source: str):
    """A flag's text or a config-file value as the field's type, checked
    to be finite (floats) and against its choices; a CliError names the
    source (flag or key)."""
    kind = _scalar_type(f)
    many = typing.get_origin(f.type) is tuple
    text = ",".join(map(str, value)) if many and isinstance(value, list) else str(value)
    try:
        value = tuple(kind(p) for p in text.split(",") if p.strip()) if many else kind(text)
    except ValueError:
        raise CliError(f"{source}: invalid {kind.__name__} value {text!r}") from None
    if kind is float and not math.isfinite(value):
        raise CliError(f"{source}: value must be finite, got {text!r}")
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
    """The top-level parser and one subparser per command, which accepts
    --config and the flags the command reads. No parser matches a flag by
    its prefix: with a command's few flags, --r would quietly become --reps."""
    config = argparse.ArgumentParser(add_help=False, allow_abbrev=False,
                                     argument_default=argparse.SUPPRESS)
    config.add_argument("--config",
                        help="JSON config file supplying the command and flags; "
                             "explicit flags win")
    parser = argparse.ArgumentParser(
        prog="betti-thermo",
        description="Cech-complex Betti numbers of sampled point processes "
                    "and their thermodynamic-regime limits.",
        parents=[config], allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (_, blurb) in _COMMANDS.items():
        command = sub.add_parser(name, parents=[config], help=blurb, description=blurb,
                                 allow_abbrev=False, argument_default=argparse.SUPPRESS)
        for f in _flags(name):
            text = f.metadata["help"]
            if f.default is not None:
                text += f" (default {_default_text(f.default)})"
            command.add_argument(_flag_name(f), dest=f.name,
                                 choices=f.metadata["choices"], help=text)
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge command-line flags over the JSON config over the defaults.

    Flag text and config values are parsed alike, by _parse. A config key
    the command does not read is an error, even with a null value, and so
    is a flag or non-null key that another one given excludes."""
    doc = {}
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise CliError("config must be a JSON object of flag values")
    command = getattr(args, "command", None) or doc.get("command")
    if doc.get("command") not in (None, command):
        raise CliError(f"config command {doc['command']!r} does not match "
                       f"the subcommand {command!r}")
    if command is None:
        raise CliError('no command given (subcommand or "command" config key)')
    if not isinstance(command, str) or command not in _COMMANDS:
        raise CliError(f"unknown command {command!r}")
    flags = {f.name: f for f in _flags(command)}
    by_key = {_key(f): f for f in flags.values()}
    unknown = set(doc) - set(by_key) - {"command"}
    if unknown:
        raise CliError(f"unknown config keys for {command}: {sorted(unknown)}")
    values = {name: _parse(flags[name], text, _flag_name(flags[name]))
              for name, text in vars(args).items() if name in flags}
    for key, value in doc.items():
        f = by_key.get(key)
        if f is not None and f.name not in values and value is not None:
            values[f.name] = _parse(f, value, f"config key {key!r}")
    for name, value in values.items():
        given, excluded = _excluded(flags[name], value)
        clash = [_flag_name(flags[other]) for other in values if other in excluded]
        if clash:
            raise CliError(f"{given} cannot be combined with {' and '.join(clash)}")
    return ExperimentConfig(command=command, cache_dir=_cache_dir(), **values)


# ---------------------------------------------------------------------------
# shared pieces

def _artifact(cfg: ExperimentConfig, ext: str) -> Path:
    return Path(f"{cfg.out}.{cfg.command}.{ext}")


def _resolve_density(cfg: ExperimentConfig) -> DensityGrid:
    if cfg.density is not None:
        return DensityGrid.from_json(cfg.density)
    return DensityGrid.uniform(Window.unit(cfg.dim))


def _poisson(cfg: ExperimentConfig) -> bool:
    """Whether a cloud command samples Poisson: no --fixture, --n or --density."""
    return cfg.fixture is None and cfg.n is None and cfg.density is None


def _sample_cloud(cfg: ExperimentConfig) -> PointCloud:
    """The cloud that sample, complex and betti describe: the bundled --fixture,
    binomial when --n (or a density file) is given, homogeneous Poisson on
    the centered window of volume L otherwise."""
    if cfg.fixture is not None:
        return PointCloud(_FIXTURES[cfg.fixture])
    rng = RngStream(cfg.seed)
    if _poisson(cfg):
        _check_args(lam=cfg.lam, L=cfg.L)
        return sample_poisson_homogeneous(cfg.lam, Window.centered(cfg.L, cfg.dim), rng)
    if cfg.n is None:
        raise CliError("sampling from a density file needs --n")
    if cfg.n > 0:  # n = 0 is the empty cloud, and the sampler rejects n < 0
        _check_args(n=cfg.n)
    return sample_binomial(_resolve_density(cfg), cfg.n, rng)


def _s_grid(s_max: float, s_step: float) -> tuple[float, ...]:
    if s_step <= 0:
        raise CliError(f"s-step must be positive, got {s_step}")
    if s_max < s_step:
        raise CliError(
            f"s-max must be at least one step, got {s_max} with step {s_step}")
    if not s_max / s_step <= MAX_GRID_STEPS:
        raise CliError(f"an s-grid to {s_max} in steps of {s_step} takes more than "
                       f"{MAX_GRID_STEPS} steps")
    count = int(math.floor(s_max / s_step + 1e-9))
    grid = [round(i * s_step, 12) for i in range(count + 1)]
    if grid[-1] < s_max - 1e-9 * max(1.0, s_max):
        grid.append(float(s_max))
    return tuple(grid)


def emit_plot_data(table, path) -> None:
    """Whitespace-separated x y [yerr] rows at 12 significant digits."""
    rows = table.plot_rows()
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


def _cloud_complex(cfg: ExperimentConfig) -> tuple[SimplicialComplex, float | None, dict]:
    """The Cech complex (to dimension k + 1) of the cloud complex and betti
    describe, its torus period or None, and the JSON fields the two share.
    k and a torus window are checked before any sampling; the build checks
    r and the cloud's dimension, which a density file sets."""
    if cfg.k < 0:
        raise CliError(f"k must be non-negative, got {cfg.k}")
    period = None
    if _poisson(cfg) and cfg.boundary == "torus":
        _check_args(r=cfg.r, L=cfg.L, dim=cfg.dim)
        period = cfg.L ** (1.0 / cfg.dim)
    cloud = _sample_cloud(cfg)
    cx = build_cech(cloud, cfg.r, cfg.k + 1, period=period)
    return cx, period, {
        "n_points": len(cloud),
        "dim": cloud.dim,
        "r": cfg.r,
        "simplex_counts": cx.simplex_counts(),
        "seed": None if cfg.fixture else cfg.seed,
    }


def cmd_complex(cfg: ExperimentConfig) -> int:
    _, period, doc = _cloud_complex(cfg)
    doc.update(boundary_mode="plain" if period is None else "torus", max_dim=cfg.k + 1)
    write_json(_artifact(cfg, "json"), doc)
    print("complex: counts " + " ".join(map(str, doc["simplex_counts"])))
    return 0


def cmd_betti(cfg: ExperimentConfig) -> int:
    cx, _, doc = _cloud_complex(cfg)
    betti = betti_numbers(cx, cfg.k)
    doc.update(k=cfg.k, betti=list(betti), fixture=cfg.fixture)
    write_json(_artifact(cfg, "json"), doc)
    print("beta: " + " ".join(str(b) for b in betti))
    return 0


def cmd_rate(cfg: ExperimentConfig) -> int:
    estimate, degree = ((estimate_betti_rate, cfg.k) if cfg.j is None
                        else (estimate_simplex_rate, cfg.j))
    rec = estimate(cfg.lam, cfg.r, cfg.L, degree, cfg.reps, RngStream(cfg.seed),
                   boundary_mode=cfg.boundary or "plain", dim=cfg.dim, workers=cfg.workers)
    write_records_csv(_artifact(cfg, "csv"), [rec])
    print(f"{rec.quantity}: {rec.mean:.6g} +/- {rec.stderr:.6g}")
    return 0


def cmd_curve(cfg: ExperimentConfig) -> int:
    grid = _s_grid(cfg.s_max, cfg.s_step)
    curve = load_or_build_curve(cfg.cache_dir, cfg.k, grid, cfg.L, cfg.reps,
                                RngStream(cfg.seed),
                                boundary_mode=cfg.boundary or "torus",
                                dim=cfg.dim, workers=cfg.workers)
    write_json(_artifact(cfg, "json"), curve.to_dict())
    emit_plot_data(curve, _artifact(cfg, "dat"))
    print(f"curve: k={cfg.k}, {len(curve.s_grid)} points on [0, {curve.s_grid[-1]:g}], "
          f"endpoint {curve.values[-1]:.6g} +/- {curve.stderrs[-1]:.6g}")
    return 0


def cmd_converge(cfg: ExperimentConfig) -> int:
    density = _resolve_density(cfg)
    grid = _s_grid(cfg.s_max, cfg.s_step)
    needed = density.sup_value ** (1.0 / density.dim) * cfg.r
    if not curve_covers(grid, needed):
        raise CliError(f"limit curve must cover s = {needed}; "
                       f"raise --s-max (now {grid[-1]})")
    master = RngStream(cfg.seed)
    curve = load_or_build_curve(cfg.cache_dir, cfg.k, grid, cfg.curve_L,
                                cfg.curve_reps, master.substream(1),
                                boundary_mode="torus", dim=density.dim,
                                workers=cfg.workers)
    target = thermodynamic_integral(density, cfg.r, cfg.k, curve)
    table = convergence_table(density, cfg.n_schedule, cfg.r, cfg.k, cfg.reps,
                              master.substream(0), target.value, target.stderr,
                              workers=cfg.workers)
    write_records_csv(_artifact(cfg, "csv"), table.records)
    write_json(_artifact(cfg, "json"), table.to_dict())
    emit_plot_data(table, _artifact(cfg, "dat"))
    print(f"converge: gap(n={table.n_schedule[-1]:g}) = {table.gaps[-1]:.6g} "
          f"vs tolerance {table.tolerance:.6g}: {'pass' if table.passed else 'fail'}")
    return 0 if table.passed else 1


def cmd_gap(cfg: ExperimentConfig) -> int:
    density = _resolve_density(cfg)
    table = poissonization_gap(density, cfg.n_schedule, cfg.r, cfg.k, cfg.reps,
                               RngStream(cfg.seed), workers=cfg.workers)
    write_records_csv(_artifact(cfg, "csv"), table.records())
    write_json(_artifact(cfg, "json"), table.to_dict())
    emit_plot_data(table, _artifact(cfg, "dat"))
    last = table.rows[-1]
    print(f"gap: scaled gap(n={last.n}) = {last.scaled:.6g}, "
          f"bounded {'yes' if table.scaled_bounded else 'no'}, "
          f"declining {'yes' if table.declines else 'no'}: {'pass' if table.passed else 'fail'}")
    return 0 if table.passed else 1


def cmd_checks(cfg: ExperimentConfig) -> int:
    names = _CHECKS if cfg.only is None else (cfg.only,)
    if "perturbation" in names and cfg.eps < 0:
        raise CliError(f"eps must be non-negative, got {cfg.eps}")
    master = RngStream(cfg.seed)
    reports = {}
    for name in names:
        if name == "scaling":
            rep = scaling_check(cfg.lam, cfg.theta, cfg.r, cfg.L, cfg.k, cfg.reps,
                                master.substream(0),
                                boundary_mode=cfg.boundary or "torus",
                                dim=cfg.dim, workers=cfg.workers)
            detail = f"delta {rep.delta:.3g} vs 3 se {rep.tolerance:.3g}"
        elif name == "strips":
            rep = boundary_strip_check(cfg.lam, cfg.r, cfg.L, cfg.boxes, cfg.k,
                                       master.substream(1), reps=cfg.reps,
                                       dim=cfg.dim, workers=cfg.workers)
            detail = f"{rep.violations} violations in {rep.reps} realizations"
        else:
            window = Window.centered(cfg.L, cfg.dim)
            cells = (1,) * cfg.dim
            f = IntensityGrid(window, cells, np.array([cfg.lam]))
            g = IntensityGrid(window, cells, np.array([cfg.lam + cfg.eps]))
            rep = intensity_perturbation_check(f, g, cfg.r, cfg.k, cfg.reps,
                                               master.substream(2),
                                               workers=cfg.workers)
            detail = f"gap {rep.gap:.3g}, L1 distance {rep.l1_distance:.3g}"
        print(f"{name}: {'pass' if rep.passed else 'fail'} ({detail})")
        reports[name] = rep
    write_json(_artifact(cfg, "json"), {name: rep.to_dict() for name, rep in reports.items()})
    return 0 if all(rep.passed for rep in reports.values()) else 1


_COMMANDS = {
    "sample": (cmd_sample, "draw a point cloud and write its coordinates"),
    "complex": (cmd_complex, "simplex counts of the Cech complex on one cloud"),
    "betti": (cmd_betti, "Betti numbers of a sampled cloud or the bundled square fixture"),
    "rate": (cmd_rate, "per-volume Betti (or j-simplex) rate of a Poisson process"),
    "curve": (cmd_curve, "tabulate the unit-intensity limit curve over an s-grid (cached)"),
    "converge": (cmd_converge,
                 "binomial expectations over an n-schedule against the limit target"),
    "gap": (cmd_gap, "coupled binomial vs Poissonized expectation gap over an n-schedule"),
    "checks": (cmd_checks, "scaling identity, boundary strips, intensity perturbation"),
}


def run(config: ExperimentConfig) -> int:
    """Dispatch a resolved config; returns the process exit status.

    At --workers w each replicate map of the command runs one share in
    this process and forks w - 1 processes for the others, all joined
    before the map returns or raises; a worker that fails or dies raises
    a LimitsError, which main prints as an error line.
    """
    return _COMMANDS[config.command][0](config)


def _attach_values(argv: list[str]) -> list[str]:
    """'--flag -1e3' as '--flag=-1e3'. Every long option but --help takes
    a value, and argparse would read one that starts with '-' and is not a
    plain negative number (-1e3, -inf) as the next option."""
    out = []
    for arg in argv:
        if (out and out[-1][:2] == "--" and "=" not in out[-1]
                and arg[:1] == "-" and arg[:2] != "--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


# glibc's malloc hands freed memory at the top of its heap back to the
# kernel, and a dense replicate frees megabytes of numpy temporaries, so the
# next one faults those pages in again: about 2300 minor faults and 4.3 ms of
# system time in a 16.6 ms rate-d2-dense replicate (2-CPU Xeon, numpy 2.4.6).
# Keeping 64 MB at the top (M_TOP_PAD) removes them and leaves the peak RSS
# as it was
_M_TOP_PAD = -2
_HEAP_TOP_PAD = 64 << 20


def _keep_freed_heap() -> bool:
    """Have the C library's malloc keep _HEAP_TOP_PAD bytes of freed memory
    at the top of its heap. Whether it took the setting: a C library without
    mallopt, or one that refuses it, leaves the process as it was."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(_M_TOP_PAD, _HEAP_TOP_PAD) == 1


def main(argv=None) -> int:
    args = build_parser().parse_args(
        _attach_values(sys.argv[1:] if argv is None else argv))
    _keep_freed_heap()
    try:
        return run(resolve_config(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
