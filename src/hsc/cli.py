"""Command-line surface: analyze, simulate, sweep, reproduce.

Emits JSON reports for single-point commands and plot-ready CSV for grids.
Numbers are serialized with shortest round-trip repr (17 significant digits
when needed) so emitted files parse back to the exact doubles.

Exit codes: 0 success, 2 parse/validation error, 3 numeric/convergence
error, 4 I/O error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .analytic import (
    SystemParams,
    _check_protocol,
    _integer,
    eventual_outage_poisson_exact,
    outage_bound,
    required_initial_energy,
    solve_adjustment_coefficient,
    asymptotic_outage,
    stationary_outage,
    tilted_ladder_mean_poisson,
    utilization,
)
from .distributions import parse_distribution_spec
from .errors import (
    ConvergenceError,
    DomainError,
    GridError,
    ParseError,
    PreconditionError,
)

__all__ = [
    "SweepSpec",
    "ResultRow",
    "CSV_HEADER",
    "parse_distribution_spec",
    "run_analyze",
    "run_simulate",
    "run_sweep",
    "rows_to_csv",
    "run_reproduce",
    "main",
]

DEFAULT_TRIALS = 50_000
DEFAULT_HORIZON = 1000.0
DEFAULT_SEED = 1
_MAX_GRID_POINTS = 10**6  # of a start:step:stop u0 grid
_OUTAGE_TARGETS = (("0.1", 0.1), ("0.01", 0.01), ("0.001", 0.001))  # JSON key, epsilon

_REPRODUCE_U0 = [float(u) for u in range(0, 41, 2)]
_REPRODUCE_RHO = [1.1, 1.2, 1.3]
_FIGURES = {
    2: (["exp:mean=1.0"], _REPRODUCE_RHO),
    3: (["det:mean=1.0"], _REPRODUCE_RHO),
    4: (["unif:mean=1.0"], _REPRODUCE_RHO),
    5: (["exp:mean=1.0", "det:mean=1.0", "unif:mean=1.0"], [1.1]),
}


@dataclass(frozen=True)
class SweepSpec:
    """A (dist, rho, u0) grid plus the shared Monte-Carlo protocol."""

    u0_grid: list[float]
    rho_list: list[float]
    dist_list: list[str]
    p: float = 1.0
    trials: int = DEFAULT_TRIALS
    horizon: float = DEFAULT_HORIZON
    seed: int = DEFAULT_SEED
    workers: int | None = None

    def __post_init__(self) -> None:
        if not self.rho_list or not self.dist_list:
            raise ValueError("sweep grids must be nonempty")
        if any(not rho > 0.0 for rho in self.rho_list):
            raise ValueError(f"every rho must be positive, got {self.rho_list}")
        trials = _integer("trials", self.trials, 0, ValueError)
        # checked here as well as by the Monte-Carlo call, which trials = 0 skips
        horizon = _check_protocol(self.horizon, self.u0_grid, self.seed, self.workers)
        # kept as checked, so that equal values write equal bytes whatever their types
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "u0_grid", [float(u0) for u0 in self.u0_grid])
        object.__setattr__(self, "rho_list", [float(rho) for rho in self.rho_list])


class ResultRow(NamedTuple):
    """One sweep grid point; column order is the CSV contract."""

    dist: str
    rho: float
    u0: float
    r_star: float | None
    psi_exact: float
    psi_bound: float | None
    psi_mc: float | None
    ci_lo: float | None
    ci_hi: float | None
    trials: int
    horizon: float
    seed: int


CSV_HEADER = ",".join(ResultRow._fields)


def __getattr__(name: str):
    # PEP 562.  The functions here import the Monte-Carlo entry points when
    # they call them, since hsc.simulate loads numpy, which analyze does not
    # need; a lookup from outside, as cli.estimate_outage_curves, lands here.
    if name in ("estimate_eventual_outage", "estimate_outage_curves"):
        from . import simulate

        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def rows_to_csv(rows: list[ResultRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:  # fields in CSV order; str of a float is its shortest round-trip repr
        lines.append(",".join(["" if v is None else str(v) for v in r]))
    return "\n".join(lines) + "\n"


def _params_report(params: SystemParams) -> dict:
    packet = params.packet.spec_string()
    return {"lam": params.lam, "packet": packet, "p": params.p, "u0": params.u0}


def run_analyze(params: SystemParams) -> dict:
    """Single-point analytic report as a JSON-ready dict.

    For rho > 1: adjustment coefficient, exact / bound / asymptotic outage
    probabilities, and the initial energy required for outage targets
    0.1, 0.01, 0.001.  For rho <= 1 the eventual outage is certain; the
    rho < 1 report adds the stationary empty fraction and outage-duration
    quantiles, or raises :class:`DomainError` where one is past the doubles.
    """
    rho = params.rho
    report: dict = {
        "params": _params_report(params),
        "rho": rho,
        "verdict": utilization(params).value,
    }
    if rho > 1.0:
        adj = solve_adjustment_coefficient(params)
        r = adj.r_star
        report["adjustment_coefficient"] = {
            "r_star": r,
            "method": adj.method.value,
            "iterations": adj.iterations,
            "residual": adj.residual,
        }
        report["psi_exact"] = eventual_outage_poisson_exact(params, r)
        report["psi_bound"] = outage_bound(r, params.u0)
        # 1 - theta; r* <= lam/p, up to rounding.  lam/p is finite and above
        # 1/mean, where r* p can underflow to 0 (lam of 1e-323, say)
        defect = min(1.0, r / (params.lam / params.p))
        report["psi_asymptotic"] = asymptotic_outage(
            defect, r, tilted_ladder_mean_poisson(params, r), params.u0
        )
        report["required_u0"] = {
            key: required_initial_energy(r, eps) for key, eps in _OUTAGE_TARGETS
        }
    else:
        report["psi_exact"] = 1.0
        if rho < 1.0:
            report["stationary_outage"] = stationary_outage(params)
            quantiles = {str(q): -math.log(1.0 - q) / params.lam for q in (0.5, 0.9, 0.99)}
            if math.inf in quantiles.values():  # JSON has no Infinity
                raise DomainError(f"an outage-duration quantile overflows at lam = {params.lam!r}")
            report["outage_duration_quantiles"] = quantiles
    return report


def run_simulate(
    params: SystemParams,
    trials: int,
    horizon: float,
    seed: int,
    workers: int | None = None,
) -> dict:
    """Monte-Carlo outage estimate for one parameter point, as a dict."""
    from .simulate import estimate_eventual_outage

    trials = _integer("trials", trials, 1, ValueError)  # exit code 2, as for sweep
    est = estimate_eventual_outage(params, horizon, trials, seed, workers=workers)
    report = {
        "params": _params_report(params),
        "rho": params.rho,
        "psi_mc": est.estimate,
        "stderr": est.stderr,
        "ci95": [est.ci95_lo, est.ci95_hi],
        "trials": est.trials,
        "horizon": float(horizon),
        "seed": int(seed),
    }
    # as run_analyze reports them, without the rest of its report
    if params.rho > 1.0:
        r = solve_adjustment_coefficient(params).r_star
        report["psi_exact"] = eventual_outage_poisson_exact(params, r)
        report["psi_bound"] = outage_bound(r, params.u0)
    else:
        report["psi_exact"] = 1.0
    return report


def run_sweep(spec: SweepSpec) -> list[ResultRow]:
    """One ResultRow per (dist, rho, u0) point.

    The arrival rate is derived per point as ``lam = rho * p / mean`` so
    the sweep holds consumption and mean packet size fixed.  Points with
    ``rho <= 1`` carry the certain value ``psi_exact = 1`` and empty
    adjustment-coefficient columns.  ``trials = 0`` skips Monte-Carlo and
    leaves those columns empty.  Each (dist, rho) column solves ``r*`` once,
    and every column is solved before any Monte-Carlo starts; a failed
    solve aborts the sweep naming its column.  Then one Monte-Carlo call
    returns the curves of all columns: their trial chunks go on the queue of
    the process's worker pool (opened by the first call that needs it, kept
    until interpreter exit), and each trial walks once for all the column's
    u0.  A failure there is shared by every column, so it is raised as it is.
    """
    columns = []  # (params at u0 = 0, its law as text, rho, r*, theta); r* and theta are None for rho <= 1
    for dist_text in spec.dist_list:
        packet = parse_distribution_spec(dist_text)
        dist = packet.spec_string()
        for rho in spec.rho_list:
            try:
                base = SystemParams(rho * spec.p / packet.mean, packet, spec.p)
                r_star = theta = None
                if rho > 1.0:
                    r_star = solve_adjustment_coefficient(base).r_star
                    theta = eventual_outage_poisson_exact(base, r_star)  # checks r*; u0 = 0
            except Exception as exc:
                # keep the type, and so the exit code; name the column
                exc.args = (f"grid point (dist={dist_text}, rho={rho}) failed: {exc}",)
                raise
            columns.append((base, dist, rho, r_star, theta))
    if spec.trials == 0:
        curves = [[None] * len(spec.u0_grid)] * len(columns)
    else:
        from .simulate import estimate_outage_curves

        curves = estimate_outage_curves(
            [column[0] for column in columns], spec.horizon, spec.trials, spec.seed,
            spec.u0_grid, spec.workers,
        )
    return [
        ResultRow(
            dist, rho, u0, r_star,
            1.0 if r_star is None else theta * math.exp(-r_star * u0),
            None if r_star is None else outage_bound(r_star, u0),
            *((None,) * 3 if est is None else (est.estimate, est.ci95_lo, est.ci95_hi)),
            spec.trials, spec.horizon, spec.seed,
        )
        for (_, dist, rho, r_star, theta), curve in zip(columns, curves)
        for u0, est in zip(spec.u0_grid, curve)
    ]


def run_reproduce(
    figure: int,
    out_dir: str | Path,
    trials: int = DEFAULT_TRIALS,
    horizon: float = DEFAULT_HORIZON,
    seed: int = DEFAULT_SEED,
    workers: int | None = None,
) -> dict[str, Path]:
    """Emit the CSV and JSON manifest for one reference figure.

    Figures 2-4 sweep u0 over 0..40 (step 2) at rho in {1.1, 1.2, 1.3} for
    the exponential, deterministic and uniform families respectively;
    figure 5 compares the three families at rho = 1.1.  Output bytes are a
    pure function of (figure, trials, horizon, seed).
    """
    figure = _integer("figure", figure, 0, ValueError)  # 5.0 and np.int64(5) write figure5
    if figure not in _FIGURES:
        raise ValueError(f"figure must be one of {sorted(_FIGURES)}, got {figure!r}")
    dists, rhos = _FIGURES[figure]
    spec = SweepSpec(
        u0_grid=list(_REPRODUCE_U0),
        rho_list=list(rhos),
        dist_list=list(dists),
        p=1.0,
        trials=trials,
        horizon=horizon,
        seed=seed,
        workers=workers,
    )
    rows = run_sweep(spec)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / f"figure{figure}.csv"
        csv_path.write_bytes(rows_to_csv(rows).encode("utf-8"))
        manifest = {
            "figure": figure,
            "params": {
                "p": 1.0,
                "dists": dists,
                "trials": spec.trials,
                "horizon": spec.horizon,
            },
            "grids": {"u0": spec.u0_grid, "rho": spec.rho_list},
            "seed": spec.seed,
            "tool_version": __version__,
        }
        manifest_path = out / f"figure{figure}.manifest.json"
        manifest_path.write_bytes(
            (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")
        )
    except OSError as exc:
        raise OSError(f"cannot write figure output under {out}: {exc}") from exc
    return {"csv": csv_path, "manifest": manifest_path}


# ---------------------------------------------------------------------------
# argument parsing


_POINT = ["--lam", "--packet", "--p", "--u0"]
_TRIALS = ["--trials", "--horizon", "--seed", "--workers"]
_COMMANDS = {  # subcommand -> (help, the flags it reads besides --out and --config)
    "analyze": ("closed-form report for one parameter point", _POINT),
    "simulate": ("Monte-Carlo outage estimate for one point", [*_POINT, *_TRIALS]),
    "sweep": (
        "CSV sweep over (dist, rho, u0) grids",
        ["--dist", "--rho", "--u0-grid", "--p", *_TRIALS],
    ),
    "reproduce": ("emit a reference figure CSV + manifest", ["--figure", *_TRIALS]),
}
_FLAGS = {  # each flag once, with its type, default and help
    "--lam": dict(type=float, help="packet arrival rate"),
    "--packet": dict(help="packet-size law, e.g. exp:mean=1.0 (exp|det|unif)"),
    "--p": dict(type=float, default=1.0, help="consumption rate (default %(default)s)"),
    "--u0": dict(type=float, default=0.0, help="initial energy (default %(default)s)"),
    "--dist": dict(
        default="exp:mean=1.0", help="comma-separated packet laws (default %(default)s)"
    ),
    "--rho": dict(default="1.1,1.2,1.3", help="comma-separated utilizations (default %(default)s)"),
    "--u0-grid": dict(default="0:2:40", help="start:step:stop or comma list (default %(default)s)"),
    "--figure": dict(choices=[*map(str, _FIGURES), "all"], help="figure number, or all"),
    "--trials": dict(
        type=int, default=DEFAULT_TRIALS, help="Monte-Carlo trials (default %(default)s)"
    ),
    "--horizon": dict(
        type=float, default=DEFAULT_HORIZON, help="simulated-time horizon (default %(default)s)"
    ),
    "--seed": dict(type=int, default=DEFAULT_SEED, help="master seed (default %(default)s)"),
    "--workers": dict(type=int, help="worker processes for trials"),
    "--out": dict(help="output file (directory for reproduce)"),
    "--config": dict(help="JSON file with the same keys as the flags"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsc",
        description="Self-sustainability and energy-outage analysis for "
        "harvest-store-consume systems.",
    )
    parser.add_argument("--version", action="version", version=f"hsc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        for flag in [*flags, "--out", "--config"]:  # each subcommand gets only the flags it reads
            sp.add_argument(flag, **_FLAGS[flag])
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Flags over config-file values over defaults, all converted by the parser."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    keys = set(vars(args)) - {"command", "config"}  # the subcommand's flags, as dests
    # argv[0] is the subcommand; the flags come after the config tokens, and
    # argparse keeps the last value, so flags win
    return parser.parse_args([argv[0], *_config_argv(args.config, keys), *argv[1:]])


def _config_argv(path: str, keys: set[str]) -> list[str]:
    """The JSON object in ``path`` as one ``--key=value`` token per entry."""
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    unknown = sorted(set(config) - keys)
    if unknown:
        raise ValueError(
            f"unknown config key {', '.join(map(repr, unknown))}; "
            f"the keys are {', '.join(sorted(keys))}"
        )
    tokens = []
    for key, value in config.items():
        if key == "u0_grid" and isinstance(value, list):
            if not all(type(v) in (int, float) for v in value):  # bool is not among them
                raise ValueError(f"config key {key!r} must list numbers, got {value!r}")
            value = ",".join(map(str, value))
        elif type(value) not in (int, float, str):
            raise ValueError(f"config key {key!r} must be a number or a string, got {value!r}")
        elif isinstance(value, float) and value.is_integer():
            value = int(value)  # so that 5.0 reads as the int flag --trials=5
        # the = form keeps a value such as "-1,2" from being read as a flag
        tokens.append(f"--{key.replace('_', '-')}={value}")
    return tokens


def _required(args: argparse.Namespace, key: str):
    if getattr(args, key) is None:  # not required=, which is checked before the config is read
        raise ValueError(f"missing required option --{key}")
    return getattr(args, key)


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ParseError(f"bad {what} list {text!r}") from None
    if not values:
        raise ParseError(f"empty {what} list {text!r}")
    return values


def _parse_u0_grid(text: str) -> list[float]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ParseError(f"grid {text!r} must be start:step:stop")
        try:
            start, step, stop = (float(tok) for tok in parts)
        except ValueError:
            raise ParseError(f"grid {text!r} has non-numeric parts") from None
        if not (step > 0 and stop >= start):
            raise ParseError(f"grid {text!r} must have step > 0 and stop >= start")
        span = (stop - start) / step
        # the whole list is built, so a tiny step must fail here and not at
        # the allocator; inf and nan fail too
        if not span + 1 <= _MAX_GRID_POINTS:
            raise ParseError(f"grid {text!r} has more than {_MAX_GRID_POINTS} points")
        count = round(span)
        if abs(start + count * step - stop) > 1e-9:
            raise ParseError(f"step does not tile [{start}, {stop}] in grid {text!r}")
        return [start + k * step for k in range(count + 1)]
    return _parse_float_list(text, "u0 grid")


def _system_params(args: argparse.Namespace) -> SystemParams:
    lam = _required(args, "lam")
    packet = parse_distribution_spec(_required(args, "packet"))
    return SystemParams(lam=lam, packet=packet, p=args.p, u0=args.u0)


def _dispatch(args: argparse.Namespace) -> None:
    if args.command == "reproduce":
        figure = _required(args, "figure")
        out_dir = "." if args.out is None else args.out
        for number in sorted(_FIGURES) if figure == "all" else [int(figure)]:
            paths = run_reproduce(
                number, out_dir, args.trials, args.horizon, args.seed, args.workers
            )
            sys.stdout.write(f"{paths['csv']}\n{paths['manifest']}\n")
        return
    if args.command == "sweep":
        spec = SweepSpec(
            u0_grid=_parse_u0_grid(args.u0_grid),
            rho_list=_parse_float_list(args.rho, "rho"),
            dist_list=[tok.strip() for tok in args.dist.split(",") if tok.strip()],
            p=args.p, trials=args.trials, horizon=args.horizon, seed=args.seed,
            workers=args.workers,
        )
        text = rows_to_csv(run_sweep(spec))
    elif args.command == "simulate":
        report = run_simulate(
            _system_params(args), args.trials, args.horizon, args.seed, args.workers
        )
        text = json.dumps(report, indent=2) + "\n"
    else:
        text = json.dumps(run_analyze(_system_params(args)), indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def main(argv: list[str] | None = None) -> int:
    try:
        _dispatch(_parse_args(sys.argv[1:] if argv is None else argv))
        return 0
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help/--version
        return int(exc.code or 0)
    except (ConvergenceError, DomainError, PreconditionError, GridError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ParseError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
