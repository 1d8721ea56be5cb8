"""The four benchmark workloads and the checks on their outputs.

Each workload builds its inputs and reference values from the seed in its
constructor (set-up, untimed).  ``run_pass`` issues one pass of calls into
hsc, times each call, checks each output outside the timed region and
returns a :class:`Pass`.  ``exact_checks`` runs once per benchmark run,
untimed, and returns the invariants that must hold bit for bit.

Every workload looks its hsc functions up on the module at call time
(``cli.run_analyze``, not a local alias), so the tracer's wrappers apply.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from hsc import analytic, cli, distributions, errors, simulate

import oracle

FAMILIES = ("exp", "det", "unif")
HORIZON = 1000.0
TYPED_ERRORS = ("ConvergenceError", "DomainError", "PreconditionError", "GridError")


@dataclass
class Pass:
    """What one pass did: timed seconds, per-call latencies and failures."""

    seconds: float = 0.0
    latencies: array = field(default_factory=lambda: array("d"))
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)  # errors.<name>.count, checks.failed
    work: int = 0  # work units completed, see each workload's ``unit``
    layer: dict[str, float] = field(default_factory=dict)  # per-layer values this pass
    fingerprint: str = ""  # output bytes digest that must repeat for one seed

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def call(self, fn, *args, **kwargs):
        """Time ``fn(*args, **kwargs)``; return ``(result, exception)``."""
        t0 = perf_counter()
        try:
            result, exc = fn(*args, **kwargs), None
        except Exception as e:  # every failure of the program is counted, none stops the run
            result, exc = None, e
        dt = perf_counter() - t0
        self.seconds += dt
        self.latencies.append(dt)
        return result, exc

    def outcome(self, exc: BaseException | None, ok: bool = True, ops: int = 1) -> None:
        """Count ``ops`` operations that raised ``exc`` or failed their check."""
        self.attempted += ops
        if exc is not None:
            name = type(exc).__name__
            if not (name in TYPED_ERRORS and isinstance(exc, getattr(errors, name))):
                name = "untyped"
            self.failures[f"errors.{name}.count"] += ops
        elif not ok:
            self.failures["checks.failed"] += ops


def spec(kind: str) -> distributions.DistributionSpec:
    return distributions.parse_distribution_spec(f"{kind}:mean=1.0")


class _Sweep:
    """Shared part of the two Monte-Carlo workloads: CSV rows against the oracle."""

    unit = "Monte-Carlo trials (grid points x trials per point)"
    mc_sides = "two"

    def __init__(self, seed: int, rhos, u0s, trials: int, replay: int):
        self.seed = seed
        self.rhos, self.u0s, self.trials, self.replay = list(rhos), list(u0s), trials, replay
        self.points = [(k, rho, u0) for k in FAMILIES for rho in self.rhos for u0 in self.u0s]
        self.ref = {}
        for kind in FAMILIES:
            for rho in self.rhos:
                if rho > 1.0:
                    self.ref[kind, rho] = oracle.adjustment(kind, 1.0, rho, 1.0)

    def check_csv(self, p: Pass, data: bytes) -> None:
        p.layer["cli.csv_bytes"] = len(data)
        p.fingerprint = hashlib.sha256(data).hexdigest()
        rows = csv.DictReader(io.StringIO(data.decode("utf-8")))
        got = {(r["dist"].split(":")[0], float(r["rho"]), float(r["u0"])): r for r in rows}
        worst = 0.0
        for kind, rho, u0 in self.points:
            row = got.get((kind, rho, u0))
            ok = row is not None
            psi = 1.0
            if ok and rho > 1.0:
                r_ref, theta = self.ref[kind, rho]
                psi = oracle.psi_exact(r_ref, theta, u0)
                ok = row["r_star"] != ""
                if ok:
                    r = float(row["r_star"])
                    worst = max(worst, abs(r - r_ref) / r_ref)
                    ok = oracle.close(r, r_ref, oracle.R_STAR_RTOL)
            if ok:
                n = int(row["trials"])
                ok = oracle.close(float(row["psi_exact"]), psi, oracle.PSI_RTOL, oracle.PSI_ABS_FLOOR) \
                    and oracle.binomial_consistent(round(float(row["psi_mc"]) * n), n, psi, self.mc_sides)
            p.outcome(None, ok)
        p.layer["analytic.r_star_rel_err_max"] = worst

    def exact_checks(self) -> tuple[list[str], dict[str, float]]:
        """Kernel outage counts against the scalar simulator on ``replay`` trials.

        Also measures how many drawn pairs those trials use: a trial that
        observes ``used`` arrivals has drawn ``EVENT_BLOCK * ceil(used /
        EVENT_BLOCK)`` pairs.
        """
        problems = []
        used = drawn = 0
        block = distributions.EVENT_BLOCK
        for kind, rho, u0 in self.points:
            params = analytic.SystemParams(rho, spec(kind), 1.0, u0)
            try:
                est = simulate.estimate_eventual_outage(params, HORIZON, self.replay, self.seed)
            except Exception as exc:  # reported as a broken invariant, not a crash
                problems.append(f"{kind} rho={rho} u0={u0}: estimate raised {exc!r}")
                continue
            kernel = round(est.estimate * self.replay)
            scalar = 0
            for i in range(self.replay):
                events = distributions.poisson_events(params.lam, params.packet,
                                                      simulate.trial_rng(self.seed, i))
                out = simulate.simulate_first_passage(params, HORIZON, events)
                scalar += out.outage
                used += out.arrivals_observed
                drawn += block * math.ceil(out.arrivals_observed / block)
            if kernel != scalar:
                problems.append(f"{kind} rho={rho} u0={u0}: kernel {kernel} outages, scalar {scalar}")
        return problems, {"simulate.pair_use_ratio": used / drawn if drawn else 0.0,
                          "simulate.pair_use_base": drawn}


class Fig5Serial(_Sweep):
    """``cli.run_reproduce(5, ...)`` with serial trials: 3 families x rho 1.1 x 21 u0."""

    def __init__(self, seed: int, out_dir: Path, trials: int, replay: int):
        super().__init__(seed, [1.1], [float(u) for u in range(0, 41, 2)], trials, replay)
        self.out_dir = out_dir

    def run_pass(self, tracer=None) -> Pass:
        p = Pass()
        paths, exc = p.call(cli.run_reproduce, 5, self.out_dir, trials=self.trials,
                            horizon=HORIZON, seed=self.seed)
        if exc is not None:
            p.outcome(exc, ops=len(self.points))
            return p
        p.work = len(self.points) * self.trials
        self.check_csv(p, Path(paths["csv"]).read_bytes())
        return p


class GridPool(_Sweep):
    """``cli.run_sweep`` over 3 families x 4 rho x one u0 with two workers.

    Psi_mc is biased low by the finite horizon (rho = 1.02, u0 = 30 gives
    0.145 against psi_exact 0.29), so only counts that are too high fail.
    """

    mc_sides = "upper"

    def __init__(self, seed: int, trials: int, replay: int):
        super().__init__(seed, [0.9, 1.02, 1.1, 1.3], [30.0], trials, replay)
        self.spec = cli.SweepSpec(u0_grid=self.u0s, rho_list=self.rhos,
                                  dist_list=[f"{k}:mean=1.0" for k in FAMILIES],
                                  trials=trials, horizon=HORIZON, seed=seed, workers=2)

    def run_pass(self, tracer=None) -> Pass:
        p = Pass()
        # what `hsc sweep` does: run the grid, then format the CSV
        text, exc = p.call(lambda: cli.rows_to_csv(cli.run_sweep(self.spec)))
        if exc is not None:
            p.outcome(exc, ops=len(self.points))
            return p
        p.work = len(self.points) * self.trials
        self.check_csv(p, text.encode("utf-8"))
        return p


class AnalyzeMix:
    """``cli.run_analyze`` over 3 families x 11 rho x 3 jittered u0, seeded order.

    The rho list keeps the inputs that fail today: det at rho >= 50, unif
    at 1 + 1e-10 and 1e6, and det near 1, whose root is far off.
    """

    unit = "run_analyze calls"
    RHOS = (0.5, 1.0, 1 + 1e-12, 1 + 1e-10, 1 + 1e-8, 1.1, 3.0, 50.0, 1e3, 1e4, 1e6)
    U0_BASE = (0.0, 3.0, 30.0)

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.queries = []
        for kind in FAMILIES:
            for rho in self.RHOS:
                ref = oracle.adjustment(kind, 1.0, rho, 1.0) if rho > 1.0 else None
                for base in self.U0_BASE:
                    u0 = base + float(self.rng.random())
                    params = analytic.SystemParams(rho, spec(kind), 1.0, u0)
                    psi = oracle.psi_exact(ref[0], ref[1], u0) if ref else 1.0
                    self.queries.append((params, ref and ref[0], psi))

    def run_pass(self, tracer=None) -> Pass:
        p = Pass()
        worst = 0.0
        for j in self.rng.permutation(len(self.queries)):
            params, r_ref, psi = self.queries[j]
            report, exc = p.call(cli.run_analyze, params)
            ok = exc is None and self._report_ok(params, r_ref, psi, report)
            if exc is None and r_ref is not None:
                r = report["adjustment_coefficient"]["r_star"]
                worst = max(worst, abs(r - r_ref) / r_ref)
            p.outcome(exc, ok)
        p.work = len(self.queries)
        p.layer["analytic.r_star_rel_err_max"] = worst
        return p

    @staticmethod
    def _report_ok(params, r_ref, psi, report) -> bool:
        rho = params.rho
        if r_ref is None:
            verdict = analytic.Sustainability.UNSUSTAINABLE_CERTAIN.value
            ok = report["verdict"] == verdict and report["psi_exact"] == 1.0
            if rho < 1.0:
                ok = ok and oracle.close(report["stationary_outage"], 1.0 - rho, 1e-12)
            return ok
        return oracle.close(report["adjustment_coefficient"]["r_star"], r_ref, oracle.R_STAR_RTOL) and \
            oracle.close(report["psi_exact"], psi, oracle.PSI_RTOL, oracle.PSI_ABS_FLOOR)

    def exact_checks(self) -> tuple[list[str], dict[str, float]]:
        return [], {}


class WalkFunctionals:
    """Ladder walks, the max-based phi estimate, the renewal solver, Lindley.

    Ladder side: unif packets at rho = 1.2.  Lindley side: unif at rho = 0.8.
    """

    unit = "ladder walks"
    RHO = 1.2
    RHO_LINDLEY = 0.8
    U_GRID = tuple(float(u) for u in range(0, 21, 2))
    RENEWAL_N = 4000
    RENEWAL_STEP = 0.01
    # The trapezoid march is O(step^2); its sup error here is 3.8e-5.
    RENEWAL_TOL = RENEWAL_STEP**2
    LINDLEY_TOL = 0.02

    def __init__(self, seed: int, walks: int, max_steps: int, lindley_steps: int):
        self.seed, self.walks, self.max_steps, self.lindley_steps = seed, walks, max_steps, lindley_steps
        self.params = analytic.SystemParams(self.RHO, spec("unif"), 1.0, 0.0)
        self.low = analytic.SystemParams(self.RHO_LINDLEY, spec("unif"), 1.0, 0.0)
        self.r, theta = oracle.adjustment("unif", 1.0, self.RHO, 1.0)
        self.theta = float(theta)
        self.phi_ref = {u: 1.0 - oracle.psi_exact(self.r, theta, u) for u in self.U_GRID}
        grid = np.arange(self.RENEWAL_N + 1) * self.RENEWAL_STEP
        self.renewal_ref = -np.expm1(np.log(self.theta) - self.r * grid)

    def _ladder_ok(self, samples) -> bool:
        ladders = sum(not s.terminated for s in samples)
        return oracle.binomial_consistent(ladders, len(samples), self.theta)

    def run_pass(self, tracer=None) -> Pass:
        p = Pass()
        params, seed = self.params, self.seed
        full, exc = p.call(simulate.collect_ladder_samples, params, self.walks, self.max_steps, seed)
        p.outcome(exc, exc is None and self._ladder_ok(full))
        stopped, exc = p.call(simulate.collect_ladder_samples, params, self.walks, self.max_steps,
                              seed, stop_drawdown=30.0 / self.r)
        p.outcome(exc, exc is None and self._ladder_ok(stopped))
        for u in self.U_GRID:
            phi, exc = p.call(simulate.estimate_phi_from_max, stopped or [], u)
            ok = exc is None and oracle.binomial_consistent(
                round((1.0 - phi) * self.walks), self.walks, 1.0 - self.phi_ref[u])
            p.outcome(exc, ok)

        r, theta = self.r, self.theta
        density = lambda x: analytic.ladder_height_density_poisson(params, r, x)  # noqa: E731
        phi, exc = p.call(analytic.solve_renewal_equation, density, theta, self.RENEWAL_STEP,
                          self.RENEWAL_STEP * self.RENEWAL_N)
        p.outcome(exc, exc is None and float(np.max(np.abs(phi - self.renewal_ref))) <= self.RENEWAL_TOL)

        events = distributions.poisson_events(self.low.lam, self.low.packet,
                                              simulate.trial_rng(seed, self.walks))
        if tracer is not None:
            events = _counted(events, tracer, "distributions.poisson_events.pairs")
        stats, exc = p.call(simulate.simulate_lindley, self.low, self.lindley_steps,
                            self.lindley_steps // 20, events)
        events.close()
        p.outcome(exc, exc is None and abs(stats.time_empty_fraction - (1.0 - self.RHO_LINDLEY)) <= self.LINDLEY_TOL)
        if exc is None:
            p.layer["simulate.lindley_steps"] = stats.steps
        p.work = 2 * self.walks
        p.latencies = array("d", [p.seconds])  # the request is the whole round, not its parts
        return p

    def exact_checks(self) -> tuple[list[str], dict[str, float]]:
        return [], {}


def _counted(events, tracer, counter: str):
    n = 0
    try:
        for pair in events:
            n += 1
            yield pair
    finally:
        tracer.add(counter, n)
