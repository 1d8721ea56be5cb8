"""CLI surface: report contents, CSV contract, config merging, exit codes,
and figure reproduction plumbing."""
import ast
import concurrent.futures
import hashlib
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hsc
import hsc.cli as cli
import hsc.simulate as simulate
from hsc import (
    ConvergenceError, DomainError, ParseError, PreconditionError, SystemParams,
    parse_distribution_spec, solve_adjustment_coefficient,
)
from hsc.cli import (
    CSV_HEADER,
    ResultRow,
    SweepSpec,
    main,
    rows_to_csv,
    run_analyze,
    run_reproduce,
    run_simulate,
    run_sweep,
)
from kernel_oracle import old_path_sweep


def params(text="exp:mean=1.0", lam=1.1, u0=10.0):
    return SystemParams(lam=lam, packet=parse_distribution_spec(text), p=1.0, u0=u0)


class TestAnalyzeReport:
    def test_supercritical_fields(self):
        report = run_analyze(params())
        assert report["verdict"] == "SelfSustainablePossible"
        assert report["rho"] == pytest.approx(1.1)
        assert report["adjustment_coefficient"]["r_star"] == pytest.approx(0.1)
        assert report["adjustment_coefficient"]["method"] == "closed-form"
        assert report["psi_exact"] == pytest.approx(0.334436, abs=1e-6)
        assert report["psi_bound"] == pytest.approx(0.367879, abs=1e-6)
        assert report["psi_asymptotic"] == pytest.approx(report["psi_exact"], rel=1e-9)
        req = report["required_u0"]
        assert set(req) == {"0.1", "0.01", "0.001"}
        assert req["0.01"] == pytest.approx(46.0517, abs=1e-3)

    def test_subcritical_fields(self):
        report = run_analyze(params(lam=0.9, u0=0.0))
        assert report["verdict"] == "UnsustainableCertain"
        assert report["psi_exact"] == 1.0
        assert report["stationary_outage"] == pytest.approx(0.1)
        assert "adjustment_coefficient" not in report
        q = report["outage_duration_quantiles"]
        assert q["0.5"] == pytest.approx(math.log(2.0) / 0.9)

    def test_critical_boundary(self):
        report = run_analyze(params(lam=1.0, u0=5.0))
        assert report["verdict"] == "UnsustainableCertain"
        assert report["psi_exact"] == 1.0
        assert "stationary_outage" not in report

    @pytest.mark.parametrize("kind", ["exp", "det", "unif"])
    @pytest.mark.parametrize(
        "rho", [0.5, 1.0, 1 + 1e-12, 1 + 1e-10, 1 + 1e-8, 1.1, 3.0, 50.0, 1e3, 1e4, 1e6]
    )
    def test_report_over_the_whole_rho_range(self, kind, rho):
        report = run_analyze(params(f"{kind}:mean=1.0", lam=rho, u0=30.5))
        assert 0.0 <= report["psi_exact"] <= 1.0
        if rho > 1.0:
            assert 0.0 <= report["psi_asymptotic"] <= report["psi_bound"] <= 1.0
            assert report["psi_exact"] <= report["psi_bound"]
            if kind == "det" and rho >= 1e3:  # theta = e^{-r* mean} underflows
                assert report["psi_exact"] == report["psi_asymptotic"] == 0.0


class TestSimulateReport:
    def test_fields_and_analytic_reference(self):
        report = run_simulate(params(u0=2.0), trials=200, horizon=100.0, seed=4)
        assert report["trials"] == 200
        assert 0.0 <= report["psi_mc"] <= 1.0
        assert report["ci95"][0] <= report["psi_mc"] <= report["ci95"][1]
        assert report["psi_exact"] == pytest.approx(
            run_analyze(params(u0=2.0))["psi_exact"]
        )

    def test_subcritical_reference_is_one(self):
        report = run_simulate(params(lam=0.8, u0=1.0), 50, 50.0, 1)
        assert report["psi_exact"] == 1.0

    def test_subnormal_rate_keeps_its_analytic_fields(self):
        # r* p underflows to 0 here; the defect r* / (lam / p) is 1 - theta
        point = SystemParams(1e-323, parse_distribution_spec("exp:mean=1.1525273304157484e+157"),
                             8.610802159813937e-167)
        theta = point.p / (point.lam * point.packet.mean)  # exp packets
        assert run_analyze(point)["psi_exact"] == theta
        report = run_simulate(point, 20, 10.0, 1)
        assert (report["psi_exact"], report["psi_bound"]) == (theta, 1.0)

    def test_subnormal_rate_keeps_the_asymptotic_digits(self):
        # the asymptotic form is exact for exp packets; theta * lam keeps a
        # bit or two at this lam, theta * (lam / p) keeps them all
        point = SystemParams(1e-323, parse_distribution_spec("exp:mean=1.1525273304157484e+157"),
                             8.610802159813937e-167)
        report = run_analyze(point)
        assert report["psi_asymptotic"] == pytest.approx(report["psi_exact"], rel=1e-12)


class TestSweep:
    def test_analytic_only_frozen_column(self):
        spec = SweepSpec(
            u0_grid=[0.0, 5.0, 10.0],
            rho_list=[1.1],
            dist_list=["exp:mean=1.0"],
            trials=0,
        )
        rows = run_sweep(spec)
        got = [r.psi_exact for r in rows]
        expect = [0.9090909090909091, 0.5513915088296667, 0.3344358556104021]
        assert got == pytest.approx(expect, rel=1e-12)
        assert all(r.psi_mc is None and r.ci_lo is None and r.ci_hi is None for r in rows)
        assert all(r.trials == 0 for r in rows)

    def test_subcritical_rows_have_certain_outage(self):
        spec = SweepSpec(
            u0_grid=[0.0, 4.0],
            rho_list=[0.9, 1.0],
            dist_list=["det:mean=1.0"],
            trials=0,
        )
        for row in run_sweep(spec):
            assert row.psi_exact == 1.0
            assert row.r_star is None
            assert row.psi_bound is None

    def test_bound_dominates_exact_everywhere(self):
        spec = SweepSpec(
            u0_grid=[float(u) for u in range(0, 22, 2)],
            rho_list=[1.1, 1.3],
            dist_list=["exp:mean=1.0", "det:mean=1.0", "unif:mean=1.0"],
            trials=0,
        )
        for row in run_sweep(spec):
            assert row.psi_exact <= row.psi_bound

    def test_single_point_agrees_with_analyze(self):
        spec = SweepSpec(
            u0_grid=[10.0], rho_list=[1.1], dist_list=["exp:mean=1.0"], trials=0
        )
        row = run_sweep(spec)[0]
        report = run_analyze(params())
        assert row.psi_exact == report["psi_exact"]
        assert row.r_star == report["adjustment_coefficient"]["r_star"]
        assert row.psi_bound == report["psi_bound"]

    def test_lambda_derived_per_point(self):
        # rho = 1.2 with mean 2 and p = 0.5 implies lam = 0.3; check via the
        # emitted r_star, which the exponential closed form ties to lam
        spec = SweepSpec(
            u0_grid=[0.0], rho_list=[1.2], dist_list=["exp:mean=2.0"], p=0.5, trials=0
        )
        row = run_sweep(spec)[0]
        assert row.r_star == pytest.approx((1.2 - 1.0) / 2.0)
        assert row.psi_exact == pytest.approx(1.0 / 1.2)

    def test_failed_point_is_named(self):
        spec = SweepSpec(
            u0_grid=[1.0], rho_list=[2.5], dist_list=["exp:mean=1.0"], trials=0
        )
        object.__setattr__(spec, "rho_list", [float("nan")])
        with pytest.raises(Exception) as err:
            run_sweep(spec)
        assert "rho=nan" in str(err.value)

    def test_column_failure_keeps_exception_type(self, monkeypatch, capsys):
        class SolverStalled(ConvergenceError):
            def __init__(self, what, iterations):
                super().__init__(f"{what} stalled after {iterations} iterations")
                self.iterations = iterations

        def stall(params):
            raise SolverStalled("bracket", 7)

        monkeypatch.setattr(cli, "solve_adjustment_coefficient", stall)
        spec = SweepSpec(
            u0_grid=[0.0, 1.0], rho_list=[1.3], dist_list=["det:mean=1.0"], trials=0
        )
        with pytest.raises(SolverStalled) as err:
            run_sweep(spec)
        assert "(dist=det:mean=1.0, rho=1.3)" in str(err.value)
        assert "bracket stalled after 7 iterations" in str(err.value)
        assert err.value.iterations == 7
        code = main(["sweep", "--dist", "det:mean=1.0", "--rho", "1.3", "--trials", "0"])
        assert code == 3
        assert "rho=1.3" in capsys.readouterr().err

    @pytest.mark.usefixtures("fresh_pool")
    def test_every_column_is_solved_before_monte_carlo(self, monkeypatch):
        solve = cli.solve_adjustment_coefficient
        solved, started = [], []

        def second_fails(params):
            solved.append(params)
            if len(solved) == 2:
                raise ConvergenceError("no bracket")
            return solve(params)

        monkeypatch.setattr(cli, "solve_adjustment_coefficient", second_fails)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda *a: started.append(a))
        monkeypatch.setattr(simulate, "_count_range", lambda *a: started.append(a))
        for workers in (1, 2):
            solved.clear()
            spec = SweepSpec(
                u0_grid=[0.0, 5.0], rho_list=[1.1, 1.3], dist_list=["exp:mean=1.0"],
                trials=50, workers=workers,
            )
            with pytest.raises(ConvergenceError) as err:
                run_sweep(spec)
            assert "(dist=exp:mean=1.0, rho=1.3)" in str(err.value)
            assert "no bracket" in str(err.value)
        assert started == []

    def test_worker_count_invariance_over_u0_grid(self):
        grids = dict(
            u0_grid=[0.0, 2.5, 5.0, 10.0, 20.0],
            rho_list=[0.9, 1.2],
            dist_list=["exp:mean=1.0", "det:mean=1.0"],
            trials=90,
            horizon=200.0,
            seed=4,
        )
        serial = run_sweep(SweepSpec(**grids, workers=1))
        assert run_sweep(SweepSpec(**grids, workers=3)) == serial
        assert all(row.psi_mc is not None for row in serial)

    def test_worker_count_invariance_over_a_multi_rho_sweep(self):
        # four rho columns share each packet law's walk; the old path walks
        # one (trial, u0) at a time
        grids = dict(
            u0_grid=[0.0, 3.0, 12.0, 30.0],
            rho_list=[0.9, 1.02, 1.1, 1.3],
            dist_list=["exp:mean=1.0", "det:mean=1.0", "unif:mean=1.0"],
            trials=40,
            horizon=600.0,
            seed=8,
        )
        serial = run_sweep(SweepSpec(**grids, workers=1))
        assert serial == old_path_sweep(SweepSpec(**grids))
        for workers in (2, 3):
            assert run_sweep(SweepSpec(**grids, workers=workers)) == serial

    @pytest.mark.usefixtures("fresh_pool")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_walk_reaches_the_caller_as_it_is(self, monkeypatch, capsys, workers):
        # a walk failure is shared by every column, so no column is named
        count = simulate._count_range

        def det_fails(columns, *args):
            if columns[0].packet.kind.value == "det":
                raise ConvergenceError("walk failed")
            return count(columns, *args)

        monkeypatch.setattr(simulate, "_count_range", det_fails)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ThreadPoolExecutor)
        spec = SweepSpec(
            u0_grid=[0.0, 5.0], rho_list=[1.1, 1.3],
            dist_list=["exp:mean=1.0", "det:mean=1.0", "unif:mean=1.0"],
            trials=20, horizon=100.0, workers=workers,
        )
        with pytest.raises(ConvergenceError) as err:
            run_sweep(spec)
        assert err.value.args == ("walk failed",)
        argv = ["sweep", "--dist", "exp:mean=1.0,det:mean=1.0", "--trials", "20"]
        assert main([*argv, "--horizon", "100", "--workers", str(workers)]) == 3
        assert capsys.readouterr().err == "error: walk failed\n"

    def test_horizon_and_workers_validation(self):
        grids = dict(u0_grid=[1.0], rho_list=[1.1], dist_list=["exp:mean=1.0"])
        for horizon in (math.inf, math.nan, 0.0):
            with pytest.raises(PreconditionError):
                SweepSpec(**grids, horizon=horizon)
        for workers in (0, -3):
            with pytest.raises(ValueError):
                SweepSpec(**grids, workers=workers)
        for workers in (1.5, math.inf):
            with pytest.raises(ValueError, match="workers must be an integer") as err:
                SweepSpec(**grids, workers=workers)
            assert type(err.value) is ValueError  # exit code 2, as for workers < 1
        with pytest.raises(ValueError, match="bogus"):
            SweepSpec(**grids, trials=0, ci_method="bogus")

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(u0_grid=[], rho_list=[1.1], dist_list=["exp:mean=1.0"])
        with pytest.raises(ValueError):
            SweepSpec(u0_grid=[1.0], rho_list=[-0.5], dist_list=["exp:mean=1.0"])
        with pytest.raises(ValueError):
            SweepSpec(u0_grid=[1.0], rho_list=[1.1], dist_list=["exp:mean=1.0"], trials=-1)
        for u0 in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="u0 must be nonnegative and finite"):
                SweepSpec(u0_grid=[0.0, u0], rho_list=[1.1, 0.9], dist_list=["exp:mean=1.0"], trials=0)

    def test_negative_u0_in_a_sweep_is_exit_2(self, capsys):
        for trials in ("0", "5"):
            assert main(["sweep", "--u0-grid=2,-1", "--rho", "0.9,1.1", "--trials", trials]) == 2
            assert "u0 must be nonnegative" in capsys.readouterr().err


class TestCsv:
    def test_header_is_the_contract(self):
        assert (
            CSV_HEADER
            == "dist,rho,u0,r_star,psi_exact,psi_bound,psi_mc,ci_lo,ci_hi,trials,horizon,seed"
        )

    def test_round_trip_exact(self):
        row = ResultRow(
            dist="exp:mean=1.0",
            rho=1.1,
            u0=0.1 + 0.2,
            r_star=0.10000000000000009,
            psi_exact=1.0 / 3.0,
            psi_bound=math.exp(-1.0),
            psi_mc=None,
            ci_lo=None,
            ci_hi=None,
            trials=0,
            horizon=1000.0,
            seed=42,
        )
        text = rows_to_csv([row])
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        fields = lines[1].split(",")
        assert fields[0] == "exp:mean=1.0"
        assert float(fields[1]) == 1.1
        assert float(fields[2]) == 0.1 + 0.2
        assert float(fields[3]) == 0.10000000000000009
        assert float(fields[4]) == 1.0 / 3.0
        assert fields[6] == "" and fields[7] == "" and fields[8] == ""
        assert fields[9] == "0" and fields[11] == "42"
        assert text.endswith("\n") and "\r" not in text

    @given(
        x=st.floats(
            allow_nan=False, allow_infinity=False, min_value=1e-300, max_value=1e300
        )
    )
    def test_float_serialization_round_trips(self, x):
        row = ResultRow("det:mean=1.0", x, 0.0, None, 1.0, None, None, None, None, 0, 1.0, 0)
        line = rows_to_csv([row]).splitlines()[1]
        assert float(line.split(",")[1]) == x


class TestMainEntry:
    def test_analyze_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["analyze", "--lam", "1.1", "--packet", "exp:mean=1.0", "--u0", "10",
             "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["psi_exact"] == pytest.approx(0.334436, abs=1e-6)

    def test_sweep_stdout(self, capsys):
        code = main(
            ["sweep", "--dist", "det:mean=1.0", "--rho", "1.2", "--u0-grid", "0,2",
             "--trials", "0"]
        )
        assert code == 0
        outp = capsys.readouterr().out
        lines = outp.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3

    @pytest.mark.parametrize("argv", [
        ["sweep", "--trials", "0", "--seed", "-1", "--u0-grid", "0", "--rho", "1.1"],
        ["reproduce", "--figure", "5", "--trials", "0", "--seed", "-3"],
    ])
    def test_negative_seed_exits_2_even_without_trials(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "error: seed must be an integer >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overflowing_required_energy_exits_3(self, capsys):
        # r* = 1.00006808034e-312 here, so log(1/eps) / r* overflows
        argv = ["analyze", "--lam", "1.000000000001e-300", "--packet", "exp:mean=1e300",
                "--p", "1", "--u0", "5"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "error: " in captured.err

    def test_simulate_stdout(self, capsys):
        code = main(
            ["simulate", "--lam", "1.1", "--packet", "exp:mean=1.0", "--u0", "3",
             "--trials", "50", "--horizon", "50", "--seed", "9"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 9 and report["trials"] == 50

    def test_simulate_reports_no_required_energy(self, capsys):
        # r* is subnormal here, so analyze's required_u0 overflows and exits 3;
        # simulate reports psi_exact and psi_bound only
        argv = ["simulate", "--lam", "1.0000000001e-300", "--packet", "exp:mean=1e300",
                "--p", "1", "--horizon", "1e300", "--trials", "20"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report)[-2:] == ["psi_exact", "psi_bound"]
        assert report["psi_exact"] == 0.9999999998999999

    def test_simulate_with_infinite_packets_exits_0(self, capsys):
        # exp packets of mean 1e308 draw inf; such a trial's D_i is -inf, which
        # the tie band sends to the scalar simulator
        argv = ["simulate", "--lam", "1e-300", "--packet", "exp:mean=1e308", "--horizon", "5",
                "--trials", "50"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["psi_mc"] == 0.0

    def test_config_merge_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"lam": 1.1, "packet": "exp:mean=1.0", "u0": 5.0})
        )
        code = main(["analyze", "--config", str(cfg)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["params"]["u0"] == 5.0
        code = main(["analyze", "--config", str(cfg), "--u0", "10"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["params"]["u0"] == 10.0

    def test_config_for_sweep_grid(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"dist": "det:mean=1.0", "rho": "1.1", "u0_grid": [0.0, 1.0, 2.0],
                 "trials": 0}
            )
        )
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 4

    def test_missing_required_is_exit_2(self, capsys):
        assert main(["analyze", "--packet", "exp:mean=1.0"]) == 2
        assert "--lam" in capsys.readouterr().err

    def test_parse_error_is_exit_2(self, capsys):
        assert main(["analyze", "--lam", "1.1", "--packet", "cauchy:mean=1"]) == 2

    def test_validation_error_is_exit_2(self, capsys):
        assert main(["analyze", "--lam", "-3", "--packet", "exp:mean=1.0"]) == 2

    def test_bad_grid_is_exit_2(self, capsys):
        assert main(["sweep", "--u0-grid", "0:3:10", "--trials", "0"]) == 2
        assert main(["sweep", "--u0-grid", "0:2:x", "--trials", "0"]) == 2
        # one point past the bound first: without the bound that call returns a
        # list and the test fails before the tiny steps ask for terabytes
        for grid in ("0:1:1000000", "0:1e-9:1000", "0:1e-300:1", "0:1:inf", "0:1e-320:1e300"):
            with pytest.raises(ParseError, match="more than 1000000 points"):
                cli._parse_u0_grid(grid)
        assert main(["sweep", "--u0-grid", "0:1e-9:1000", "--trials", "0"]) == 2
        assert len(cli._parse_u0_grid("0:1:999999")) == 10**6

    def test_numeric_error_is_exit_3(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise ConvergenceError("stalled")

        monkeypatch.setattr(cli, "solve_adjustment_coefficient", boom)
        assert main(["analyze", "--lam", "1.1", "--packet", "det:mean=1.0"]) == 3
        assert "stalled" in capsys.readouterr().err

    def test_analyze_where_rho_rounds_to_one_plus_an_ulp(self, capsys):
        # exact rho of these doubles is about 1 + 8e-17; r* is its root
        assert main(["analyze", "--lam", "17", "--p", "1.7", "--packet", "det:mean=0.1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["adjustment_coefficient"]["r_star"] == pytest.approx(1.6327e-15, rel=1e-4)
        assert report["psi_asymptotic"] == pytest.approx(report["psi_exact"], rel=1e-12)

    def test_io_error_is_exit_4(self, tmp_path, capsys):
        missing = tmp_path / "absent" / "x.csv"
        code = main(
            ["sweep", "--rho", "1.1", "--u0-grid", "0,1", "--trials", "0",
             "--out", str(missing)]
        )
        assert code == 4

    def test_non_finite_horizon_is_exit_3(self, capsys):
        code = main(
            ["simulate", "--lam", "1.1", "--packet", "exp:mean=1.0", "--horizon", "inf",
             "--trials", "5"]
        )
        assert code == 3
        assert main(["sweep", "--horizon", "nan", "--trials", "5"]) == 3

    @pytest.mark.parametrize(
        "lam,packet,p",
        [
            ("9.893843729220723e+155", "det:mean=1.3150817829110412e-56", "3.978498365559883e-158"),
            ("1e300", "det:mean=1e10", "1"),
            ("1e200", "det:mean=1", "1e-200"),
            # 2 rho overflows where rho does not
            ("5.820866122431718e-169", "unif:mean=4.511324633952074e+202", "2.0408845725338486e-274"),
        ],
    )
    def test_overflowing_rho_or_rate_is_exit_3(self, capsys, lam, packet, p):
        assert main(["analyze", "--lam", lam, "--packet", packet, "--p", p]) == 3
        assert "must be below 1e307" in capsys.readouterr().err
        params = SystemParams(float(lam), parse_distribution_spec(packet), float(p))
        with pytest.raises(DomainError):
            solve_adjustment_coefficient(params)

    def test_long_horizon_is_exit_3_before_any_walk(self, capsys, monkeypatch):
        def walk(*args):
            raise AssertionError("walked")

        monkeypatch.setattr(simulate, "_count_range", walk)
        argv = ["simulate", "--lam", "1.1", "--packet", "exp:mean=1", "--horizon", "1e12"]
        assert main([*argv, "--trials", "20"]) == 3
        assert "expected arrivals per trial" in capsys.readouterr().err
        # a sweep is capped at its largest lam: 1000 * 1e6, where 1.1 * 1e6 walks
        assert main(["sweep", "--rho", "1.1,1000", "--horizon", "1e6", "--trials", "5"]) == 3
        with pytest.raises(AssertionError, match="walked"):
            main(["sweep", "--rho", "1.1", "--horizon", "1e6", "--trials", "5"])

    def test_trials_below_one_is_exit_2_for_every_subcommand(self, tmp_path, capsys):
        point = ["--lam", "1.1", "--packet", "exp:mean=1.0"]
        for argv in (
            ["simulate", *point, "--trials", "-1"],
            ["simulate", *point, "--trials", "0"],
            ["sweep", "--trials", "-1"],
            ["reproduce", "--figure", "5", "--trials", "-1", "--out", str(tmp_path)],
        ):
            assert main(argv) == 2, argv
            assert "trials must be an integer" in capsys.readouterr().err

    def test_workers_from_config_are_coerced(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workers": "2"}))
        args = ["simulate", "--lam", "1.1", "--packet", "exp:mean=1.0", "--u0", "3",
                "--trials", "40", "--horizon", "50"]
        assert main(args + ["--config", str(cfg)]) == 0
        pooled = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out) == pooled

    @pytest.mark.parametrize(
        "config,fragment",
        [
            ({"trials": [5]}, repr("trials")),
            ({"workers": {}, "trials": 0}, repr("workers")),
            ({"horizon": None, "trials": 0}, repr("horizon")),
            ({"trials": 2.7}, "argument --trials: invalid int value: '2.7'"),
            ({"seed": 1.5, "trials": 0}, "argument --seed: invalid int value: '1.5'"),
            ({"u0_grid": [1, True], "trials": 0, "rho": "1.1"}, repr("u0_grid")),
        ],
    )
    def test_non_scalar_config_value_is_exit_2(self, tmp_path, capsys, config, fragment):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main(["sweep", "--rho", "1.1", "--u0-grid", "0,1", "--config", str(cfg)])
        assert code == 2
        assert fragment in capsys.readouterr().err

    def test_integral_float_config_values_read_as_ints(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 5.0, "seed": 3.0, "horizon": 50.0}))
        point = ["simulate", "--lam", "1.1", "--packet", "exp:mean=1.0", "--u0", "2"]
        assert main(point + ["--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["trials"] == 5 and report["seed"] == 3
        assert main(point + ["--trials", "5", "--seed", "3", "--horizon", "50"]) == 0
        assert json.loads(capsys.readouterr().out) == report

    @pytest.mark.parametrize(
        "argv,config,key",
        [
            (["sweep", "--trials", "0"], {"trails": 5}, "trails"),
            (["sweep", "--trials", "0"], {"u0-grid": [0, 1]}, "u0-grid"),
            (["analyze"], {"lam": 1.1, "packet": "exp:mean=1.0", "rho": "1.1"}, "rho"),
            (["reproduce", "--figure", "5", "--trials", "0"], {"dist": "det:mean=1.0"}, "dist"),
            (["sweep", "--trials", "0"], {"config": "other.json"}, "config"),
            (["analyze"], {"lam": 1.1, "packet": "exp:mean=1.0", "trials": 5}, "trials"),
            (["reproduce", "--figure", "5", "--trials", "0"], {"ci": "wilson"}, "ci"),
        ],
    )
    def test_unknown_config_key_is_exit_2(self, tmp_path, capsys, argv, config, key):
        # the keys are the subcommand's flags; a typo must not be dropped
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--lam", "1.1", "--packet", "exp:mean=1.0", "--trials", "5"],
            ["analyze", "--lam", "1.1", "--packet", "exp:mean=1.0", "--horizon", "50"],
            ["analyze", "--lam", "1.1", "--packet", "exp:mean=1.0", "--seed", "3"],
            ["analyze", "--lam", "1.1", "--packet", "exp:mean=1.0", "--workers", "2"],
            ["analyze", "--lam", "1.1", "--packet", "exp:mean=1.0", "--ci", "wilson"],
            ["reproduce", "--figure", "5", "--trials", "0", "--ci", "wilson"],
        ],
    )
    def test_flag_the_subcommand_ignores_is_exit_2(self, tmp_path, capsys, argv):
        # each subcommand takes only the flags it reads
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_ci_method_is_exit_2_without_trials(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ci": "bogus"}))
        for trials in ("0", "5"):
            assert main(["sweep", "--trials", trials, "--u0-grid", "0", "--config", str(cfg)]) == 2
            assert "bogus" in capsys.readouterr().err

    def test_workers_below_one_is_exit_2(self, capsys):
        code = main(
            ["simulate", "--lam", "1.1", "--packet", "exp:mean=1.0", "--workers", "-3",
             "--trials", "5"]
        )
        assert code == 2
        assert main(["sweep", "--workers", "-3", "--trials", "0"]) == 2
        assert main(["reproduce", "--figure", "5", "--workers", "0", "--trials", "0"]) == 2

    def test_usage_error_is_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2
        assert main([]) == 2

    def test_version_flag_is_exit_0(self, capsys):
        assert main(["--version"]) == 0

    def test_u0_grid_forms(self):
        assert cli._parse_u0_grid("0:2:6") == [0.0, 2.0, 4.0, 6.0]
        assert cli._parse_u0_grid("1,3.5") == [1.0, 3.5]
        grid = cli._parse_u0_grid("0:0.1:0.5")
        assert len(grid) == 6 and grid[-1] == pytest.approx(0.5)


# token pools for the main(argv) fuzz: each keeps rho <= 1e6 and lam * horizon
# small, and the Monte-Carlo subcommands always end with few trials
_NUMBERS = ["0.5", "1", "1.1", "1.7", "17", "1e-3"]
_BAD = ["-1", "0", "inf", "nan", "x", ""]
_LAWS = [f"{kind}:mean={mean}" for kind in ("exp", "det", "unif") for mean in ("0.1", "1", "2.5")]
_VALID = {  # dest -> argv values
    "lam": _NUMBERS,
    "packet": _LAWS,
    "p": _NUMBERS,
    "u0": _NUMBERS + ["0"],
    "dist": _LAWS + ["exp:mean=1,det:mean=2.5"],
    "rho": _NUMBERS + ["1.1,1.7", "0.5,17"],
    "u0_grid": ["0:2:6", "0,1.5,4", "3", "0:0.5:2"],
    "figure": ["2", "3", "4", "5", "all"],
    "trials": ["0", "1", "3"],
    # every lam the pools form is at least 4e-7 (1e-3 * 1e-3 / 2.5), so a
    # horizon from 2.5e14 up exceeds the 1e8-arrival cap before any walk
    "horizon": ["5", "20", "1e-300", "1e15", "1e300"],
    "seed": ["0", "1", "7"],
    "workers": ["1"],
    "ci": ["normal", "wilson"],
    "out": ["out"],
}
_INVALID = {  # dest -> argv values, _BAD when absent
    "packet": ["cauchy:mean=1", "exp", "exp:mean=-1", ""],
    "dist": ["cauchy:mean=1", ",", ""],
    "rho": ["-1,2", ","] + _BAD,
    "u0_grid": ["0:3:10", "0:1e-9:1000", "0:1e-300:1", "1:1:0", "0:0:1", "0:1", "a:b:c",
                "2,-1", "0:1:inf", "nan:1:2"] + _BAD,
    "figure": ["9", "2.0"] + _BAD,
    "seed": ["1.5"] + _BAD,
    "workers": ["-3", "0", "1.5"],
    "ci": ["bogus", ""],
}
_OWN = {  # subcommand -> its dests, besides out and config
    "analyze": ["lam", "packet", "p", "u0"],
    "simulate": ["lam", "packet", "p", "u0", "trials", "horizon", "seed", "workers", "ci"],
    "sweep": ["dist", "rho", "u0_grid", "p", "trials", "horizon", "seed", "workers", "ci"],
    "reproduce": ["figure", "trials", "horizon", "seed", "workers"],
}
_STRANGERS = sorted(_VALID) + ["trails", "u0-grid", "config"]  # for unknown and foreign keys


def _json_token(token: str):
    """A pool token as the JSON number it spells, else as a string."""
    try:
        return json.loads(token)
    except ValueError:
        return token


def _json_containers(children):
    keys = st.sampled_from(["trials", "lam", "a"])
    return st.lists(children, max_size=3) | st.dictionaries(keys, children, max_size=2)


_JSON = st.recursive(
    st.none() | st.booleans() | st.sampled_from(_NUMBERS + _BAD).map(_json_token),
    _json_containers,
    max_leaves=6,
)


def _token(dest: str):
    """Mostly a valid value for ``dest``, one time in four an invalid one."""
    pools = [_VALID.get(dest, _NUMBERS)] * 3 + [_INVALID.get(dest, _BAD)]
    return st.sampled_from(pools).flatmap(st.sampled_from)


def _config_value(key: str):
    token = _token(key) | _token(key).map(_json_token)
    if key == "workers":  # never a real pool: any number or string comes from the pool
        return token | st.none() | st.booleans() | _json_containers(_JSON)
    return token | _JSON


class TestMainFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_argv_ends_in_a_documented_exit(self, data):
        command = data.draw(st.sampled_from(sorted(_OWN)))
        own = _OWN[command]
        dests = data.draw(st.lists(st.sampled_from(own), unique=True, max_size=len(own)))
        if data.draw(st.integers(0, 4)):  # mostly with the point or figure it needs
            dests = [d for d in ("lam", "packet", "figure") if d in own] + dests
        if not data.draw(st.integers(0, 4)):  # sometimes a flag the subcommand rejects
            dests.append(data.draw(st.sampled_from(_STRANGERS)))
        argv = [command]
        for dest in dests:
            flag, value = "--" + dest.replace("_", "-"), data.draw(_token(dest))
            argv += data.draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
        config = None
        if data.draw(st.booleans()):
            optional = {key: _config_value(key) for key in own + ["out"]}
            config = data.draw(st.fixed_dictionaries({}, optional=optional))
            if not data.draw(st.integers(0, 4)):  # sometimes an unknown key or no object
                stranger = data.draw(st.sampled_from(_STRANGERS))
                config[stranger] = data.draw(_config_value(stranger))
                config = data.draw(st.sampled_from([config, list(config.values())]))
        if command != "analyze":
            argv += ["--trials", data.draw(st.sampled_from(["0", "1", "3"]))]
            argv += ["--horizon", data.draw(st.sampled_from(_VALID["horizon"]))]
        stdout, stderr = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            if config is not None:
                Path(tmp, "cfg.json").write_text(json.dumps(config), encoding="utf-8")
                argv += ["--config", str(Path(tmp, "cfg.json"))]
            argv += ["--out", str(Path(tmp, "out"))]
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(argv)
        err = stderr.getvalue()
        assert code in (0, 2, 3, 4), (argv, config, err)
        assert "Traceback" not in err
        for untyped in ("math domain error", "invalid literal for int()", "could not convert",
                        "object has no attribute"):
            assert untyped not in err, (argv, config, err)
        if code != 0:
            assert "error: " in err or "usage:" in err, (argv, config, err)


class TestImports:
    def test_cli_import_loads_no_scipy(self):
        src = str(Path(hsc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "import sys, hsc.cli; print('scipy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    def test_cli_import_loads_no_process_pool(self):
        # a sweep imports it only when it splits its trials into chunks
        src = str(Path(hsc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import sys, hsc.cli; "
            "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


class TestPublicSurface:
    def test_every_name_the_benchmark_looks_up_exists(self):
        # perfbench times and calls hsc by module attribute; read its source
        # without importing it, so that nothing is traced or installed
        bench = Path(__file__).parents[1] / "perfbench"
        run = ast.parse((bench / "run.py").read_text(encoding="utf-8"))
        (spans,) = [
            ast.literal_eval(node.value) for node in run.body
            if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANS"]
        ]
        modules = {"analytic", "cli", "distributions", "errors", "simulate"}
        workloads = ast.parse((bench / "workloads.py").read_text(encoding="utf-8"))
        called = {
            (node.value.id, node.attr) for node in ast.walk(workloads)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules
        }
        assert len(spans) > 10 and len(called) > 10
        missing = [
            f"{module}.{attr}" for module, attr in sorted(called | set(spans.values()))
            if not hasattr(importlib.import_module(f"hsc.{module}"), attr)
        ]
        assert missing == []
        assert [name for name in hsc.__all__ if not hasattr(hsc, name)] == []

    def test_package_exports_each_module_name_once(self):
        # hsc star-imports these modules; a name in two lists would let one
        # import shadow the other
        modules = [importlib.import_module(f"hsc.{m}") for m in ("errors", "distributions", "analytic", "simulate")]
        names = ["__version__", *(name for module in modules for name in module.__all__)]
        assert sorted(hsc.__all__) == sorted(names)
        assert len(set(hsc.__all__)) == len(hsc.__all__)
        for module in modules:
            assert all(getattr(hsc, name) is getattr(module, name) for name in module.__all__)


class TestVersion:
    def test_package_version_equals_pyproject(self):
        # the manifest's tool_version is hsc.__version__; keep it in step
        text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        match = re.search(r'^\[project\]$[^\[]*?^version = "([^"]+)"$', text, re.M)
        assert match and hsc.__version__ == match.group(1)


class TestReproduce:
    def test_files_and_manifest_keys(self, tmp_path):
        paths = run_reproduce(5, tmp_path, trials=0, horizon=10.0, seed=1)
        text = paths["csv"].read_text(encoding="utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 3 * 21  # three laws x u0 grid 0..40 step 2
        manifest = json.loads(paths["manifest"].read_text())
        assert set(manifest) == {"figure", "params", "grids", "seed", "tool_version"}
        assert manifest["figure"] == 5
        assert manifest["grids"]["u0"][:3] == [0.0, 2.0, 4.0]
        assert manifest["grids"]["rho"] == [1.1]

    def test_figures_2_to_4_have_three_series(self, tmp_path):
        paths = run_reproduce(3, tmp_path, trials=0, horizon=10.0, seed=1)
        lines = paths["csv"].read_text().strip().split("\n")
        assert len(lines) == 1 + 3 * 21
        assert all(line.startswith("det:mean=1.0") for line in lines[1:])

    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_reproduce(7, tmp_path, trials=0, horizon=10.0, seed=1)

    def test_equal_inputs_write_equal_bytes_whatever_their_type(self, tmp_path):
        # ints, floats and numpy scalars of one value are one sweep
        plain = SweepSpec([0.0, 2.0], [1.1], ["exp:mean=1.0"], trials=5, horizon=200.0, seed=3)
        typed = SweepSpec([np.int64(0), 2], [np.float64(1.1)], ["exp:mean=1.0"],
                          trials=np.int64(5), horizon=200, seed=np.int64(3))
        assert rows_to_csv(run_sweep(typed)) == rows_to_csv(run_sweep(plain))
        a = run_reproduce(5, tmp_path / "a", trials=5, horizon=200.0, seed=3)
        b = run_reproduce(5, tmp_path / "b", trials=np.int64(5), horizon=200, seed=np.int64(3))
        for key in ("csv", "manifest"):
            assert a[key].read_bytes() == b[key].read_bytes()

    def test_an_integral_figure_of_any_type_writes_the_same_files(self, tmp_path):
        # 5.0 wrote figure5.0.csv, and np.int64(5) a manifest json could not encode
        written = []
        for figure in (5, 5.0, np.int64(5)):
            paths = run_reproduce(figure, tmp_path / str(figure), trials=3, horizon=20.0, seed=1)
            assert [path.name for path in paths.values()] == ["figure5.csv", "figure5.manifest.json"]
            written.append([path.read_bytes() for path in paths.values()])
        assert written[0] == written[1] == written[2]
        with pytest.raises(ValueError, match="figure must be an integer"):
            run_reproduce(5.5, tmp_path, trials=0, horizon=10.0, seed=1)

    def test_rerun_is_byte_identical(self, tmp_path):
        a = run_reproduce(2, tmp_path / "a", trials=40, horizon=50.0, seed=6)
        b = run_reproduce(2, tmp_path / "b", trials=40, horizon=50.0, seed=6)
        assert a["csv"].read_bytes() == b["csv"].read_bytes()
        assert a["manifest"].read_bytes() == b["manifest"].read_bytes()

    def test_cli_reproduce_exit_codes(self, tmp_path, capsys):
        assert main(["reproduce", "--figure", "9", "--out", str(tmp_path)]) == 2
        for figure in ("x", "2.0"):
            assert main(["reproduce", "--figure", figure, "--out", str(tmp_path)]) == 2
            assert "invalid choice" in capsys.readouterr().err
        assert (
            main(
                ["reproduce", "--figure", "4", "--trials", "0", "--horizon", "5",
                 "--out", str(tmp_path)]
            )
            == 0
        )
        printed = capsys.readouterr().out.strip().split("\n")
        assert printed[0].endswith("figure4.csv")
        assert printed[1].endswith("figure4.manifest.json")

    def test_figure_all_equals_single_figures(self, tmp_path, capsys):
        common = ["--trials", "6", "--horizon", "30", "--seed", "3"]
        assert main(["reproduce", "--figure", "all", "--out", str(tmp_path / "all")] + common) == 0
        assert len(capsys.readouterr().out.split()) == 8
        for figure in (2, 3, 4, 5):
            one = tmp_path / str(figure)
            assert main(["reproduce", "--figure", str(figure), "--out", str(one)] + common) == 0
            for name in (f"figure{figure}.csv", f"figure{figure}.manifest.json"):
                assert (tmp_path / "all" / name).read_bytes() == (one / name).read_bytes()
        assert len(list((tmp_path / "all").iterdir())) == 8

    def test_golden_csv_digests(self, tmp_path, capsys):
        # sha256 of CSVs on the Philox(seed).jumped(i) trial streams of 0.4.0;
        # they pin the bytes across kernel rewrites
        assert main(["reproduce", "--figure", "all", "--seed", "42", "--trials", "300",
                     "--horizon", "200", "--out", str(tmp_path)]) == 0
        golden = {
            "figure2.csv": "9fa0ba8de33899952620261941a4a2cdb21d3ef457f08715e92c82daf5b23fbc",
            "figure3.csv": "314f60b383a598570ea84e56c2146b2040f004f4d5f1acc74091444d56f84b8a",
            "figure4.csv": "00c05c0ebd902fe5244ee4a57273579f96d548b037c97de9cfa3b12a68014fc6",
            "figure5.csv": "aba4e347c2200ab110184086cb9d4c208dd21c82356d07f213f6bda6d459a354",
        }
        for name, digest in golden.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
        spec = SweepSpec(
            u0_grid=[0.0, 5.0, 30.0], rho_list=[0.9, 1.02, 1.1, 1.3],
            dist_list=["exp:mean=1.0", "det:mean=1.0", "unif:mean=1.0"],
            trials=400, horizon=1000.0, seed=5,
        )
        digest = hashlib.sha256(rows_to_csv(run_sweep(spec)).encode("utf-8")).hexdigest()
        assert digest == "ae0ce20d020fb8def2dc3075d8f30b6e186b0925a1444703e5f8f5ae9797a2a0"

    @pytest.mark.parametrize(
        "figure,trials,horizon,seed",
        [(2, 20, 1000.0, 1), (3, 20, 1000.0, 2), (4, 20, 1000.0, 3), (5, 20, 1000.0, 4),
         (5, 300, 200.0, 42)],
    )
    def test_csv_bytes_equal_old_per_point_path(self, tmp_path, figure, trials, horizon, seed):
        # the old path: a fresh r* solve and one kernel walk per (trial, u0)
        paths = run_reproduce(figure, tmp_path, trials=trials, horizon=horizon, seed=seed)
        dists, rhos = cli._FIGURES[figure]
        spec = SweepSpec(
            u0_grid=list(cli._REPRODUCE_U0), rho_list=list(rhos), dist_list=list(dists),
            trials=trials, horizon=horizon, seed=seed,
        )
        assert paths["csv"].read_bytes() == rows_to_csv(old_path_sweep(spec)).encode("utf-8")
