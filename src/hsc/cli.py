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
from contextlib import closing, contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from . import __version__
from .analytic import (
    SystemParams,
    eventual_outage_poisson_exact,
    outage_bound,
    required_initial_energy,
    solve_adjustment_coefficient,
    asymptotic_outage,
    stationary_outage,
    tilted_ladder_mean_poisson,
    utilization,
)
from .distributions import DistributionSpec, parse_distribution_spec
from .errors import (
    ConvergenceError,
    DomainError,
    GridError,
    ParseError,
    PreconditionError,
)
from .simulate import (
    EstimateWithCI,
    _estimate_outage_curves,
    _finite_horizon,
    _integer,
    estimate_eventual_outage,
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

CSV_HEADER = "dist,rho,u0,r_star,psi_exact,psi_bound,psi_mc,ci_lo,ci_hi,trials,horizon,seed"

DEFAULT_TRIALS = 50_000
DEFAULT_HORIZON = 1000.0
DEFAULT_SEED = 1
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
    ci_method: str = "normal"

    def __post_init__(self) -> None:
        if not self.u0_grid or not self.rho_list or not self.dist_list:
            raise ValueError("sweep grids must be nonempty")
        if not all(0.0 <= u0 < math.inf for u0 in self.u0_grid):
            raise ValueError(f"every u0 must be nonnegative and finite, got {self.u0_grid}")
        if any(not rho > 0.0 for rho in self.rho_list):
            raise ValueError(f"every rho must be positive, got {self.rho_list}")
        if self.trials < 0:
            raise ValueError(f"trials must be >= 0, got {self.trials}")
        _finite_horizon(self.horizon)
        if self.workers is not None:
            _integer("workers", self.workers, 1, ValueError)
        if self.ci_method not in ("normal", "wilson"):
            raise ValueError(f"unknown ci_method {self.ci_method!r}")


@dataclass(frozen=True)
class ResultRow:
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


def _fmt(value: float | int | str | None) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def rows_to_csv(rows: list[ResultRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(_fmt(v) for v in vars(r).values()))  # fields in CSV order
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
    quantiles.
    """
    verdict = utilization(params)
    report: dict = {
        "params": _params_report(params),
        "rho": verdict.rho,
        "verdict": verdict.status.value,
    }
    if verdict.rho > 1.0:
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
        defect = min(1.0, r * params.p / params.lam)  # 1 - theta; r* <= lam/p, up to rounding
        report["psi_asymptotic"] = asymptotic_outage(
            defect, r, tilted_ladder_mean_poisson(params, r), params.u0
        )
        report["required_u0"] = {
            key: required_initial_energy(r, eps) for key, eps in _OUTAGE_TARGETS
        }
    else:
        report["psi_exact"] = 1.0
        if verdict.rho < 1.0:
            report["stationary_outage"] = stationary_outage(params)
            report["outage_duration_quantiles"] = {
                str(q): -math.log(1.0 - q) / params.lam for q in (0.5, 0.9, 0.99)
            }
    return report


def run_simulate(
    params: SystemParams,
    trials: int,
    horizon: float,
    seed: int,
    workers: int | None = None,
    ci_method: str = "normal",
) -> dict:
    """Monte-Carlo outage estimate for one parameter point, as a dict."""
    est = estimate_eventual_outage(
        params, horizon, trials, seed, workers=workers, ci_method=ci_method
    )
    report = {
        "params": _params_report(params),
        "rho": params.rho,
        "psi_mc": est.estimate,
        "stderr": est.stderr,
        "ci95": [est.ci95_lo, est.ci95_hi],
        "trials": est.trials,
        "horizon": est.horizon,
        "seed": est.seed,
    }
    if params.rho > 1.0:
        r = solve_adjustment_coefficient(params).r_star
        report["psi_exact"] = eventual_outage_poisson_exact(params, r)
        report["psi_bound"] = outage_bound(r, params.u0)
    else:
        report["psi_exact"] = 1.0
    return report


def run_sweep(spec: SweepSpec) -> list[ResultRow]:
    """One ResultRow per (dist, rho, u0) point; aborts naming a failed point.

    The arrival rate is derived per point as ``lam = rho * p / mean`` so
    the sweep holds consumption and mean packet size fixed.  Points with
    ``rho <= 1`` carry the certain value ``psi_exact = 1`` and empty
    adjustment-coefficient columns.  ``trials = 0`` skips Monte-Carlo and
    leaves those columns empty.  Each (dist, rho) column solves ``r*`` once,
    and every column is solved before any Monte-Carlo starts.  Then the
    trial chunks of all columns go on one pool queue, and each trial walks
    once for all the column's u0.
    """
    columns = []  # ((dist, rho), params at u0 = 0, analytic fields per u0)
    for dist_text in spec.dist_list:
        packet = parse_distribution_spec(dist_text)
        for rho in spec.rho_list:
            with _named_column(dist_text, rho):
                columns.append(((dist_text, rho), *_analytic_column(spec, packet, rho)))
    if spec.trials == 0:
        return [_row(spec, head, None) for _, _, heads in columns for head in heads]
    out: list[ResultRow] = []
    curves = _estimate_outage_curves(
        [base for _, base, _ in columns], spec.horizon, spec.trials, spec.seed,
        spec.u0_grid, spec.workers, spec.ci_method,
    )
    with closing(curves):
        for name, _, heads in columns:
            with _named_column(*name):
                curve = next(curves)
            out += [_row(spec, head, est) for head, est in zip(heads, curve)]
    return out


def _row(spec: SweepSpec, head: tuple, est: EstimateWithCI | None) -> ResultRow:
    # head holds the fields from dist to psi_bound; est fills psi_mc, ci_lo, ci_hi
    mc = (None, None, None) if est is None else (est.estimate, est.ci95_lo, est.ci95_hi)
    return ResultRow(*head, *mc, spec.trials, spec.horizon, spec.seed)


@contextmanager
def _named_column(dist_text: str, rho: float) -> Iterator[None]:
    try:
        yield
    except Exception as exc:
        # keep the type, and so the exit code; name the column
        exc.args = (f"grid point (dist={dist_text}, rho={rho}) failed: {exc}",)
        raise


def _analytic_column(
    spec: SweepSpec, packet: DistributionSpec, rho: float
) -> tuple[SystemParams, list[tuple]]:
    base = SystemParams(rho * spec.p / packet.mean, packet, spec.p)
    name = (packet.spec_string(), float(rho))
    if not rho > 1.0:
        return base, [(*name, float(u0), None, 1.0, None) for u0 in spec.u0_grid]
    r_star = solve_adjustment_coefficient(base).r_star
    theta = eventual_outage_poisson_exact(base, r_star)  # checks r*; theta at u0 = 0
    return base, [
        (*name, float(u0), r_star, theta * math.exp(-r_star * u0), outage_bound(r_star, u0))
        for u0 in spec.u0_grid
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
                "trials": trials,
                "horizon": horizon,
            },
            "grids": {"u0": spec.u0_grid, "rho": spec.rho_list},
            "seed": seed,
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsc",
        description="Self-sustainability and energy-outage analysis for "
        "harvest-store-consume systems.",
    )
    parser.add_argument("--version", action="version", version=f"hsc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_flags(sp: argparse.ArgumentParser, system=False, trials=False, ci=False) -> None:
        # each subcommand gets only the flags it reads
        if system:
            sp.add_argument("--lam", type=float, help="packet arrival rate")
            sp.add_argument("--packet", help="packet-size law, e.g. exp:mean=1.0 (exp|det|unif)")
            sp.add_argument("--p", type=float, help="consumption rate (default 1.0)")
            sp.add_argument("--u0", type=float, help="initial energy (default 0.0)")
        if trials:
            sp.add_argument("--trials", type=int, help=f"Monte-Carlo trials (default {DEFAULT_TRIALS})")
            sp.add_argument("--horizon", type=float, help=f"simulated-time horizon (default {DEFAULT_HORIZON})")
            sp.add_argument("--seed", type=int, help=f"master seed (default {DEFAULT_SEED})")
            sp.add_argument("--workers", type=int, help="worker processes for trials")
        if ci:
            sp.add_argument("--ci", choices=["normal", "wilson"], help="CI method (default normal)")
        sp.add_argument("--out", help="output file (directory for reproduce)")
        sp.add_argument("--config", help="JSON file with the same keys as the flags")

    sp = sub.add_parser("analyze", help="closed-form report for one parameter point")
    add_flags(sp, system=True)

    sp = sub.add_parser("simulate", help="Monte-Carlo outage estimate for one point")
    add_flags(sp, system=True, trials=True, ci=True)

    sp = sub.add_parser("sweep", help="CSV sweep over (dist, rho, u0) grids")
    sp.add_argument("--dist", help="comma-separated packet laws (default exp:mean=1.0)")
    sp.add_argument("--rho", help="comma-separated utilizations (default 1.1,1.2,1.3)")
    sp.add_argument(
        "--u0-grid", dest="u0_grid", help="start:step:stop or comma list (default 0:2:40)"
    )
    sp.add_argument("--p", type=float, help="consumption rate (default 1.0)")
    add_flags(sp, trials=True, ci=True)

    sp = sub.add_parser("reproduce", help="emit a reference figure CSV + manifest")
    sp.add_argument("--figure", help="figure number: 2, 3, 4, 5, or all")
    add_flags(sp, trials=True)
    return parser


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    return cfg


class _Options:
    """Flag values merged over config-file values merged over defaults."""

    def __init__(self, args: argparse.Namespace, config: dict):
        keys = set(vars(args)) - {"command", "config"}  # the subcommand's flags, as dests
        unknown = sorted(set(config) - keys)
        if unknown:
            raise ValueError(
                f"unknown config key {', '.join(map(repr, unknown))}; "
                f"the keys are {', '.join(sorted(keys))}"
            )
        self._args = args
        self._config = config

    def get(self, key: str, default=None, kind=str, required: bool = False):
        """The flag, else the config value, else ``default``, converted by ``kind``.

        A config value for an ``int``, ``float`` or ``str`` option must be a
        number or a string; any other ``kind`` parses the value itself.
        """
        value = getattr(self._args, key, None)
        if value is None and key in self._config:
            value = self._config[key]
            if value is None or kind in (int, float, str) and (
                isinstance(value, bool) or not isinstance(value, (int, float, str))
            ):
                raise ValueError(f"config key {key!r} must be a number or a string, got {value!r}")
        if value is None:
            value = default
        if value is None:
            if required:
                raise ValueError(f"missing required option --{key.replace('_', '-')}")
            return None
        if kind not in (int, float, str):
            return kind(value)
        try:
            converted = kind(value)
        except (TypeError, ValueError, OverflowError):
            converted = None
        if converted is None or kind is int and isinstance(value, float) and converted != value:
            raise ValueError(f"option {key!r}: {value!r} is not a valid {kind.__name__}")
        return converted


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        values = [float(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        raise ParseError(f"bad {what} list {text!r}") from None
    if not values:
        raise ParseError(f"empty {what} list {text!r}")
    return values


def _parse_u0_grid(value) -> list[float]:
    if isinstance(value, (list, tuple)):
        try:
            return [float(v) for v in value]
        except (TypeError, ValueError):
            raise ParseError(f"bad u0 grid {value!r}") from None
    text = str(value)
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ParseError(f"grid {text!r} must be start:step:stop")
        try:
            start, step, stop = (float(tok) for tok in parts)
        except ValueError:
            raise ParseError(f"grid {text!r} has non-numeric parts") from None
        if step <= 0 or stop < start:
            raise ParseError(f"grid {text!r} must have step > 0 and stop >= start")
        count = round((stop - start) / step)
        if abs(start + count * step - stop) > 1e-9:
            raise ParseError(f"step does not tile [{start}, {stop}] in grid {text!r}")
        return [start + k * step for k in range(count + 1)]
    return _parse_float_list(text, "u0 grid")


def _system_params(opt: _Options) -> SystemParams:
    lam = opt.get("lam", kind=float, required=True)
    packet = parse_distribution_spec(opt.get("packet", kind=str, required=True))
    p = opt.get("p", 1.0, float)
    u0 = opt.get("u0", 0.0, float)
    return SystemParams(lam=lam, packet=packet, p=p, u0=u0)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _dispatch(args: argparse.Namespace) -> int:
    opt = _Options(args, _load_config(getattr(args, "config", None)))
    out = opt.get("out", kind=str)
    workers = opt.get("workers", kind=int)
    if args.command == "analyze":
        report = run_analyze(_system_params(opt))
        _emit(json.dumps(report, indent=2) + "\n", out)
        return 0
    if args.command == "simulate":
        report = run_simulate(
            _system_params(opt),
            trials=opt.get("trials", DEFAULT_TRIALS, int),
            horizon=opt.get("horizon", DEFAULT_HORIZON, float),
            seed=opt.get("seed", DEFAULT_SEED, int),
            workers=workers,
            ci_method=opt.get("ci", "normal", str),
        )
        _emit(json.dumps(report, indent=2) + "\n", out)
        return 0
    if args.command == "sweep":
        spec = SweepSpec(
            u0_grid=opt.get("u0_grid", "0:2:40", _parse_u0_grid),
            rho_list=_parse_float_list(opt.get("rho", "1.1,1.2,1.3", str), "rho"),
            dist_list=[
                tok.strip()
                for tok in opt.get("dist", "exp:mean=1.0", str).split(",")
                if tok.strip()
            ],
            p=opt.get("p", 1.0, float),
            trials=opt.get("trials", DEFAULT_TRIALS, int),
            horizon=opt.get("horizon", DEFAULT_HORIZON, float),
            seed=opt.get("seed", DEFAULT_SEED, int),
            workers=workers,
            ci_method=opt.get("ci", "normal", str),
        )
        _emit(rows_to_csv(run_sweep(spec)), out)
        return 0
    if args.command == "reproduce":
        figure = opt.get("figure", kind=str, required=True)
        for number in sorted(_FIGURES) if figure == "all" else [int(figure)]:
            paths = run_reproduce(
                number,
                out_dir=out if out is not None else ".",
                trials=opt.get("trials", DEFAULT_TRIALS, int),
                horizon=opt.get("horizon", DEFAULT_HORIZON, float),
                seed=opt.get("seed", DEFAULT_SEED, int),
                workers=workers,
            )
            sys.stdout.write(f"{paths['csv']}\n{paths['manifest']}\n")
        return 0
    raise ValueError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help/--version
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, PreconditionError, GridError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
