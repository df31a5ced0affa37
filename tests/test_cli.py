import contextlib
import csv
import dataclasses
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hcsos import cli, sampler, tisgm
from hcsos.cli import (
    CSV_HEADER,
    PhaseRecord,
    SolutionRow,
    main,
    read_phase_csv,
    sweep_records,
    write_phase_csv,
    write_phase_jsonl,
)
from hcsos.extremality import thresholds
from hcsos.rootfind import BracketError, _find_roots
from hcsos.sampler import TreeConfig, estimate_marginals
from hcsos.tisgm import (
    enumerate_solution_grid,
    solve_asymmetric,
    solve_symmetric,
    theta_cr,
)
from reference import build_phase_record, s2_mp, stationary_mp


def run(argv):
    return main(argv)


class TestTisgmCommand:
    def test_three_rows_below_threshold(self, capsys):
        assert run(["tisgm", "--k", "2", "--theta", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "3 translation-invariant solution(s)" in out
        for branch in ("Symmetric", "Upper", "Lower"):
            assert branch in out

    def test_one_row_above_threshold(self, capsys):
        assert run(["tisgm", "--k", "2", "--theta", "1.5"]) == 0
        assert "1 translation-invariant solution(s)" in capsys.readouterr().out

    def test_json_format(self, capsys):
        assert run(["tisgm", "--k", "3", "--theta", "0.9", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 3 and len(payload["solutions"]) == 3

    def test_usage_error_low_order(self):
        with pytest.raises(SystemExit) as err:
            run(["tisgm", "--k", "1", "--theta", "0.5"])
        assert err.value.code == 2

    def test_usage_error_bad_theta(self):
        with pytest.raises(SystemExit) as err:
            run(["tisgm", "--k", "2", "--theta", "-0.5"])
        assert err.value.code == 2

    def test_usage_error_infinite_theta(self):
        for verb in ("tisgm", "classify"):
            with pytest.raises(SystemExit) as err:
                run([verb, "--k", "2", "--theta", "inf"])
            assert err.value.code == 2


class TestClassifyCommand:
    def test_mu0_large_k(self, capsys):
        assert run(["classify", "--k", "4", "--theta", "2", "--measure", "mu0"]) == 0
        assert "NonExtreme" in capsys.readouterr().out

    def test_mu1_near_one(self, capsys):
        assert run(["classify", "--k", "2", "--theta", "0.97", "--measure", "mu1"]) == 0
        assert "Extreme" in capsys.readouterr().out

    def test_missing_measure_is_a_domain_failure(self, capsys):
        assert run(["classify", "--k", "2", "--theta", "1.2", "--measure", "mu1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_boundary_law_overflow_message(self, capsys):
        # the upper root is ~2.8e16 here, so x^20 leaves the double range
        argv = ["classify", "--k", "20", "--theta", "0.1647", "--measure", "mu1"]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the boundary law leaves the double range")
        assert "k = 20" in err and "x = 2.81" in err
        assert "(34," not in err

    def test_tiny_s2_matches_oracle(self, capsys):
        # s2 ~ 4.2e-17 here; a deflated characteristic quadratic printed 7.9e-99
        argv = ["classify", "--k", "12", "--theta", "0.055", "--measure", "mu1"]
        assert run(argv + ["--format", "json"]) == 0
        (got,) = json.loads(capsys.readouterr().out)
        upper = solve_asymmetric(12, 0.055)[0]
        assert abs(got["s2"] / s2_mp(12, 0.055, upper) - 1) <= 2e-15

    def test_all_measures(self, capsys):
        assert run(["classify", "--k", "2", "--theta", "0.9", "--measure", "all"]) == 0
        out = capsys.readouterr().out
        for name in ("mu0", "mu1", "mu2"):
            assert name in out

    def test_all_above_threshold_notes_absence(self, capsys):
        assert run(["classify", "--k", "2", "--theta", "1.4", "--measure", "all"]) == 0
        assert "do not exist" in capsys.readouterr().out

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_matches_sweep_rows(self, k, capsys):
        # classify and sweep reach every measure through the same solver,
        # so they report the same witnesses bit for bit
        for theta in (0.02, 0.05, 0.1, 0.3, 0.6, 0.9, 0.97, 1.2, 1.55, 2.5):
            common = ["--k", str(k), "--format", "json"]
            sweep = ["sweep", "--theta-min", repr(theta), "--theta-max", "3.0",
                     "--steps", "2"]
            assert run(sweep + common) == 0
            first = capsys.readouterr().out.splitlines()[0]
            rows = json.loads(first)["solutions"]
            assert run(["classify", "--theta", repr(theta)] + common) == 0
            verdicts = json.loads(capsys.readouterr().out)
            assert len(verdicts) == len(rows)
            for row, v in zip(rows, verdicts):
                for key in ("s2", "kappa", "ks_value", "msw_value", "verdict"):
                    assert v[key] == row[key], (theta, v["measure"], key)


class TestSweepCommand:
    def test_verdict_flips_at_k2_thresholds(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert (
            run(
                [
                    "sweep", "--k", "2",
                    "--theta-min", "0.1", "--theta-max", "2.5",
                    "--steps", "120", "--out", str(out),
                ]
            )
            == 0
        )
        with out.open() as fh:
            records = read_phase_csv(fh)
        assert len(records) == 120
        table = thresholds(2)
        t1, t2 = table["theta1"].value, table["theta2"].value
        spacing = (2.5 - 0.1) / 119
        flips = []
        mu0 = [
            (rec.theta, rec.rows[0].verdict)
            for rec in records
            if rec.rows[0].branch == "Symmetric"
        ]
        for (ta, va), (tb, vb) in zip(mu0, mu0[1:]):
            if va != vb:
                flips.append((ta + tb) / 2.0)
        assert len(flips) == 2
        assert abs(flips[0] - t1) <= spacing
        assert abs(flips[1] - t2) <= spacing

    def test_k4_sweep_never_extreme(self, tmp_path):
        out = tmp_path / "sweep4.csv"
        assert (
            run(
                [
                    "sweep", "--k", "4",
                    "--theta-min", "0.2", "--theta-max", "4.0",
                    "--steps", "40", "--out", str(out),
                ]
            )
            == 0
        )
        with out.open() as fh:
            records = read_phase_csv(fh)
        for rec in records:
            for row in rec.rows:
                if row.branch == "Symmetric":
                    assert row.verdict != "Extreme"

    def test_csv_round_trip_is_exact(self):
        records = sweep_records(3, 0.3, 2.2, 17)
        buffer = io.StringIO()
        write_phase_csv(records, buffer)
        buffer.seek(0)
        parsed = read_phase_csv(buffer)
        assert parsed == records

    def test_csv_bytes_equal_csv_writer(self):
        # text fields that need quoting are quoted as csv.writer quotes them;
        # numbers, signed zeros, NaN and infinities included, are their repr
        texts = ["Upper", "a,b", 'q"t', "", "x\ny", "r\rs", " sp", "Critical"]
        numbers = [-0.0, float("nan"), float("inf"), float("-inf"), 1e16, 1e-5,
                   0.0, 1e-300, 2.0**70, -1.5, 0.1]

        def number(i):
            return numbers[i % len(numbers)]

        # every fourth record has no rows and writes no line
        records = [
            PhaseRecord(2 + i % 3, number(i) if i % 2 else 0.1 * i, number(i + 5), tuple(
                SolutionRow(texts[(i + j) % 8], 1.0 / (i + 1), number(i + j),
                            number(2 * i + j), number(3 * i + j), 2.0**i,
                            number(i * j + 7), texts[(3 * i + j) % 8])
                for j in range(i % 4)))
            for i in range(44)
        ]
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for rec in records:
            for row in rec.rows:
                writer.writerow([repr(rec.k), repr(rec.theta), repr(rec.theta_critical),
                                 row.branch, repr(row.x), repr(row.y), repr(row.s2),
                                 repr(row.kappa), repr(row.ks_value),
                                 repr(row.msw_value), row.verdict])
        got = io.StringIO()
        write_phase_csv(records, got)
        assert got.getvalue() == want.getvalue()

    def test_repeated_theta_reads_back_point_by_point(self):
        # the grid holds three distinct floats, each theta_cr(2) = 1 to
        # within CRITICAL_TOL, so each of its 100 points is one Critical row
        code, out, _ = _cli(_sweep(2, 1.0, 1.0000000000000004, 100))
        assert code == 0
        records = read_phase_csv(io.StringIO(out))
        assert len(records) == 100
        assert records == sweep_records(2, 1.0, 1.0000000000000004, 100)
        assert all(rec.rows[0].verdict == "Critical" for rec in records)
        again = io.StringIO()
        write_phase_csv(records, again)
        assert again.getvalue() == out

    def test_header_schema(self):
        assert CSV_HEADER == [
            "k", "theta", "theta_cr", "branch", "x", "y",
            "s2", "kappa", "ks_value", "msw_value", "verdict",
        ]

    def test_critical_point_flagged(self):
        rec = build_phase_record(2, 1.0)  # theta_cr(2) exactly
        assert rec.critical
        assert [row.verdict for row in rec.rows] == ["Critical"]

    def test_jsonl_format(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        assert (
            run(
                [
                    "sweep", "--k", "2",
                    "--theta-min", "0.5", "--theta-max", "0.9",
                    "--steps", "3", "--out", str(out), "--format", "json",
                ]
            )
            == 0
        )
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3
        first = json.loads(lines[0])
        assert first["theta"] == 0.5 and len(first["solutions"]) == 3

    def test_bad_range_is_usage_error(self, capsys):
        rc = run(
            ["sweep", "--k", "2", "--theta-min", "2.0", "--theta-max", "1.0",
             "--steps", "5"]
        )
        assert rc == 2

    def test_unwritable_path(self, capsys):
        rc = run(
            ["sweep", "--k", "2", "--theta-min", "0.5", "--theta-max", "0.6",
             "--steps", "2", "--out", "/nonexistent-dir/sweep.csv"]
        )
        assert rc == 1

    def test_infinite_theta_max_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run(["sweep", "--k", "2", "--theta-min", "0.5", "--theta-max", "inf",
                 "--steps", "5"])
        assert err.value.code == 2

    def test_steps_guard(self):
        with pytest.raises(SystemExit) as err:
            run(["sweep", "--k", "2", "--theta-min", "0.5", "--theta-max", "0.6",
                 "--steps", "1"])
        assert err.value.code == 2


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _sweep(k, lo, hi, steps, *extra):
    return ["sweep", "--k", str(k), "--theta-min", repr(lo), "--theta-max", repr(hi),
            "--steps", str(steps), *extra]


class TestSweepSolvesGridInLockstep:
    # digests of the point-by-point sweep before the lockstep solver
    @pytest.mark.parametrize(
        "argv,digest",
        [
            (_sweep(2, 0.1, 2.5, 250),
             "d29b060368fb17b06e53b5b1f62e2cf2e258ede0649f11394ee7549fd24f19ba"),
            (_sweep(3, 0.1, 2.5, 250),
             "63b7f94853ad44dd87fc617ed2fd02cdec9c3595e3f4781b12a68d81c6abd405"),
            (_sweep(8, 0.1, 2.5, 250),
             "1193e2732a3d0cbe03443dd3a91179280360adf824e54bbdc1d3eb9383b957cb"),
            (_sweep(3, 0.05, 3.0, 200, "--format", "json"),
             "5057af4c5680b20fa9f67127158e4ba2d58bb56619f5626123c0e4bb22038fa9"),
            # each grid holds theta = 1.0 exactly: the Critical row of k = 2,
            # and the k = 4 point where 4 s2^2 = 1 (Undetermined)
            (_sweep(2, 0.5, 1.5, 1001),
             "56cd3eff2d0881693cf77fd97ff40f60949ec087b802d802240aa07de519b37e"),
            (_sweep(4, 0.5, 1.5, 1001),
             "2b9860aee854733e45a39ad43cdd0cdda9d49e8f35c1c7784e455e4ae6c6413c"),
            (_sweep(2, 0.5, 1.5, 1001, "--format", "json"),
             "236535f528f2792039c2bd6eff1c641993e92ebd2b91ef8fc0b2fa5edb426da4"),
        ],
    )
    def test_pinned_output(self, argv, digest):
        code, out, err = _cli(argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @settings(max_examples=20, deadline=None)
    @given(
        k=st.integers(2, 12),
        ends=st.tuples(st.floats(0.1, 5.0), st.floats(0.1, 5.0)),
        steps=st.integers(2, 400),
        with_tc=st.booleans(),
    )
    def test_long_grid_equals_point_by_point(self, k, ends, steps, with_tc):
        # every point of such a grid solves (checked on 60 of them); with
        # with_tc, theta_cr(k) is one end of the grid, so a point is Critical
        tc = theta_cr(k)
        lo, hi = sorted((tc, ends[0]) if with_tc and 0.1 <= tc <= 5.0 else ends)
        assume(lo < hi)
        want = [build_phase_record(k, theta)
                for theta in np.linspace(lo, hi, steps).tolist()]
        assert sweep_records(k, lo, hi, steps) == want
        csv_text, jsonl = io.StringIO(), io.StringIO()
        write_phase_csv(want, csv_text)
        write_phase_jsonl(want, jsonl)
        assert _cli(_sweep(k, lo, hi, steps)) == (0, csv_text.getvalue(), "")
        json_run = _cli(_sweep(k, lo, hi, steps, "--format", "json"))
        assert json_run == (0, jsonl.getvalue(), "")

    def test_ks_value_keeps_python_square(self):
        # s2**2 and s2*s2 differ in the last bit at this row; ks_value is
        # k * s2**2 as classify computes it
        code, out, _ = _cli(_sweep(2, 0.3, 3.0, 600))
        assert code == 0
        (row,) = [r for r in read_phase_csv(io.StringIO(out))
                  if r.theta == 1.801001669449082]
        (sym,) = row.rows
        assert sym.ks_value == 0.9543912848898282
        assert sym.ks_value == 2 * sym.s2**2 != 2 * (sym.s2 * sym.s2)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (_sweep(20, 0.05, 3.0, 1500),
             "error: f stayed above target 4.768371582031256e-28 out to "
             "x = 2.305843009213694e+18; no bracket found\n"),
            (_sweep(8, 0.001, 0.05, 200),
             "error: f stayed above target 1.0000000000000002e-27 out to "
             "x = 2.305843009213694e+18; no bracket found\n"),
            (_sweep(144, 0.1, 2.5, 64),
             "error: (34, 'Numerical result out of range')\n"),
            # the lockstep pass meets a later point's symmetric bracket
            # failure first; the first point fails in the doubling search
            (_sweep(3, 1e-6, 1e18, 64),
             "error: f stayed above target 9.999999999999997e-25 out to "
             "x = 2.305843009213694e+18; no bracket found\n"),
        ],
    )
    def test_failing_sweep_reports_first_failing_point(
        self, argv, message, monkeypatch
    ):
        # as the point-by-point route: exit 1, the first failing point's error
        k, lo, hi, steps = int(argv[2]), float(argv[4]), float(argv[6]), int(argv[8])
        tried = []

        def grid(k, thetas):
            tried.append(thetas.size)
            return enumerate_solution_grid(k, thetas)

        monkeypatch.setattr(cli, "enumerate_solution_grid", grid)
        assert _cli(argv) == (1, "", message)
        assert tried == [steps]
        with pytest.raises(Exception) as first:
            for theta in np.linspace(lo, hi, steps).tolist():
                build_phase_record(k, theta)
        assert message == f"error: {first.value}\n"

    @pytest.mark.parametrize("k", [2, 3, 8])
    @pytest.mark.parametrize("lo,hi", [(0.1, 2.5), (0.1037, 2.4951), (0.11, 2.49)])
    def test_benchmark_grids_skip_the_fallback(self, k, lo, hi, monkeypatch):
        def never(*args):
            raise AssertionError("the point-by-point fallback was taken")

        monkeypatch.setattr(cli, "enumerate_solutions", never)
        monkeypatch.setattr(cli, "classify_solution", never)
        assert _cli(_sweep(k, lo, hi, 250))[0] == 0

    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_benchmark_grids_solve_in_one_lockstep_call(self, k, monkeypatch):
        # the symmetric and the asymmetric lanes share one _find_roots call
        calls = []

        def find_roots(*args):
            calls.append(args[1].size)
            return _find_roots(*args)

        monkeypatch.setattr(tisgm, "_find_roots", find_roots)
        assert _cli(_sweep(k, 0.1, 2.5, 250))[0] == 0
        assert len(calls) == 1 and calls[0] > 250

    @pytest.mark.parametrize("k", [2, 8])
    @pytest.mark.parametrize("steps", [2, 5, 63, 64])
    def test_short_grids_equal_either_route(self, k, steps):
        # the lockstep columns against the single-point solvers
        want = [build_phase_record(k, theta)
                for theta in np.linspace(0.1, 2.5, steps).tolist()]
        assert sweep_records(k, 0.1, 2.5, steps) == want

    @pytest.mark.parametrize("k", [2, 8])
    def test_short_grids_make_one_grid_call(self, k, monkeypatch):
        # no length switch: a short grid is solved as columns too
        tried = []

        def grid(k, thetas):
            tried.append(thetas.size)
            return enumerate_solution_grid(k, thetas)

        def never(*args):
            raise AssertionError("the point-by-point fallback was taken")

        monkeypatch.setattr(cli, "enumerate_solution_grid", grid)
        monkeypatch.setattr(cli, "enumerate_solutions", never)
        for steps in (2, 10, 23):
            assert _cli(_sweep(k, 0.1, 2.5, steps))[0] == 0
        assert tried == [2, 10, 23]

    def test_lockstep_failure_that_no_point_shares_is_loud(self, monkeypatch):
        def fails(k, thetas):
            raise BracketError("no sign change")

        monkeypatch.setattr(cli, "enumerate_solution_grid", fails)
        with pytest.raises(AssertionError, match="every grid point solves alone"):
            sweep_records(2, 0.1, 2.5, 100)

    def test_lockstep_bug_is_not_taken_for_a_domain_error(self, monkeypatch):
        # a numpy ValueError (shape, broadcast) is no reason to fall back
        def fails(k, thetas):
            raise ValueError("operands could not be broadcast together")

        def never(*args):
            raise AssertionError("the point-by-point fallback was taken")

        monkeypatch.setattr(cli, "enumerate_solution_grid", fails)
        monkeypatch.setattr(cli, "enumerate_solutions", never)
        with pytest.raises(ValueError, match="broadcast"):
            sweep_records(2, 0.1, 2.5, 100)


class TestThresholdsCommand:
    def test_k2_table(self, capsys):
        assert run(["thresholds", "--k", "2"]) == 0
        out = capsys.readouterr().out
        for name in ("theta1", "theta2", "theta5"):
            assert name in out

    def test_k3_table(self, capsys):
        assert run(["thresholds", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "theta3" in out and "theta4" in out

    def test_k4_note(self, capsys):
        assert run(["thresholds", "--k", "4"]) == 0
        assert "non-extreme for every theta" in capsys.readouterr().out

    @pytest.mark.parametrize("k", [4, 5])
    def test_json_without_thresholds(self, k, capsys):
        assert run(["thresholds", "--k", str(k), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"k": k, "thresholds": []}

    def test_k4_note_names_the_boundary_point(self, capsys):
        # 4 s2^2 = 1 exactly at theta = 1, so mu0 is Undetermined there
        assert run(["thresholds", "--k", "4"]) == 0
        assert "except theta = 1" in capsys.readouterr().out

    def test_json(self, capsys):
        assert run(["thresholds", "--k", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {t["name"] for t in payload["thresholds"]} == {
            "theta1", "theta2", "theta5",
        }


class TestSimulateCommand:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = [
            "simulate", "--k", "2", "--theta", "1.0", "--measure", "mu0",
            "--depth", "3", "--samples", "2000", "--seed", "11",
        ]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_payload_content(self, tmp_path):
        out = tmp_path / "stats.json"
        assert (
            run(
                [
                    "simulate", "--k", "2", "--theta", "0.9", "--measure", "mu1",
                    "--depth", "3", "--samples", "3000", "--seed", "4",
                    "--out", str(out),
                ]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["inadmissible_edges"] == 0
        assert payload["solution"]["branch"] == "Upper"
        stat = np.array(payload["stationary"])
        root = np.array(payload["level_frequencies"][0])
        assert np.max(np.abs(stat - root)) < 0.05
        assert abs(sum(payload["stationary"]) - 1.0) < 1e-12

    def test_small_theta_asymmetric_k2(self, tmp_path, capsys):
        # the sampled measure is the tisgm Upper solution, down to theta = 0.02
        out = tmp_path / "stats.json"
        argv = ["--k", "2", "--theta", "0.02"]
        assert run(["simulate", *argv, "--measure", "mu1", "--depth", "2",
                    "--samples", "200", "--out", str(out)]) == 0
        assert run(["tisgm", *argv, "--format", "json"]) == 0
        upper = json.loads(capsys.readouterr().out)["solutions"][1]
        assert json.loads(out.read_text())["solution"] == upper

    def test_missing_measure(self, capsys):
        rc = run(
            ["simulate", "--k", "2", "--theta", "1.2", "--measure", "mu1",
             "--out", "-"]
        )
        assert rc == 1
        assert "mu1/mu2 do not exist at k=2, theta=1.2" in capsys.readouterr().err

    def test_deep_lower_branch(self, capsys):
        # the stationary law of this kernel overflowed to [0, 0, nan] under
        # GTH elimination
        argv = ["simulate", "--k", "20", "--theta", "0.1894", "--measure", "mu2",
                "--depth", "1", "--samples", "10"]
        assert run(argv) == 0
        stat = json.loads(capsys.readouterr().out)["stationary"]
        assert all(v > 0.0 for v in stat) and abs(sum(stat) - 1.0) < 1e-15

    def test_symmetric_branch_at_tiny_w(self, capsys):
        # w = theta y^k ~ 1.3e-172 here, whose square underflows
        argv = ["simulate", "--k", "100", "--theta", "0.01", "--measure", "mu0",
                "--depth", "1", "--samples", "10"]
        assert run(argv) == 0
        stat = json.loads(capsys.readouterr().out)["stationary"]
        want = stationary_mp(100, 0.01, solve_symmetric(100, 0.01))
        assert all(abs(got / w - 1) <= 2e-15 for got, w in zip(stat, want))

    @pytest.mark.parametrize(
        "argv,digest",
        [
            ("--k 2 --theta 1.0 --measure mu0 --depth 4 --samples 2000 --seed 5",
             "6d95f8b3aa5658911e1b5ba5a2e0cd973d6b981e8ac3923464cbed7d6b421d76"),
            ("--k 3 --theta 0.5 --measure mu1 --depth 4 --samples 5000 --seed 0",
             "fd2a26624a866f0dd5ed03f915f34c112c05ff01b56eb2cd3d6e5f67c6f6262a"),
            ("--k 5 --theta 0.3 --measure mu2 --depth 3 --samples 777 "
             "--seed 20240810",
             "409c24812f9f47a4d6bd776a8e09c14d88252226cd6927f3b7aa64c2f46407ce"),
        ],
    )
    def test_pinned_output(self, capsys, argv, digest):
        # digests of the output of the aggregate-count draw
        assert run(["simulate", *argv.split()]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_inadmissible_edges_from_pair_counts(self, capsys, monkeypatch):
        def with_forbidden_pairs(kern, cfg, n):
            stats = estimate_marginals(kern, cfg, n)
            pc = stats.pair_counts.copy()
            pc[0, 2], pc[1, 1], pc[2, 0] = 1, 2, 4
            return dataclasses.replace(stats, pair_counts=pc)

        monkeypatch.setattr(cli, "estimate_marginals", with_forbidden_pairs)
        argv = ["simulate", "--k", "2", "--theta", "1.0", "--depth", "3",
                "--samples", "50"]
        assert run(argv) == 0
        assert json.loads(capsys.readouterr().out)["inadmissible_edges"] == 7

    @pytest.mark.parametrize(
        "argv", [["--k", "2", "--depth", "60"], ["--k", "3", "--depth", "20"]]
    )
    def test_over_large_tree_refused_before_sampling(self, capsys, monkeypatch, argv):
        def never(*args):
            raise AssertionError("the sampler was reached")

        monkeypatch.setattr(cli, "estimate_marginals", never)
        assert run(["simulate", "--theta", "0.5", *argv, "--samples", "1"]) == 1
        err = capsys.readouterr().err
        assert "tree too large to sample" in err and "V = " in err
        assert "array is too big" not in err

    def test_memory_error_is_a_domain_error(self, capsys, monkeypatch):
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 7.45 GiB for an array")

        monkeypatch.setattr(cli, "estimate_marginals", out_of_memory)
        assert run(["simulate", "--k", "2", "--theta", "1.0"]) == 1
        err = capsys.readouterr().err
        assert err == "error: not enough memory for this request\n"

    @pytest.mark.parametrize("samples", [str(2**40 // 46 + 1), str(10**30)])
    def test_too_many_vertex_samples_refused(self, capsys, samples):
        # the counts are drawn in O(depth), so a request this large would
        # return at once; the limit keeps the binomial draws exact
        argv = ["simulate", "--k", "2", "--theta", "1.0", "--depth", "4",
                "--samples", samples]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: too many vertex-samples to count: {samples} samples of "
            "V = 46 vertices exceed the limit of 2^40\n"
        )

    def test_largest_vertex_sample_count(self, capsys):
        argv = ["simulate", "--k", "2", "--theta", "1.0", "--depth", "4",
                "--samples", str(2**40 // 46)]
        assert run(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["inadmissible_edges"] == 0
        assert abs(sum(map(sum, payload["pair_frequencies"])) - 1.0) < 1e-12


class TestSimulateFuzz:
    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(2, 2000),
        depth=st.integers(0, 80),
        theta=st.sampled_from(["0.05", "0.5", "1.0", "3.0"]),
        measure=st.sampled_from(["mu0", "mu1", "mu2"]),
        samples=st.one_of(st.integers(1, 1000), st.integers(1, 10**30)),
    )
    def test_exit_code_and_messages(self, k, depth, theta, measure, samples):
        # the counts are drawn in O(depth) whatever the tree and the sample
        # count; refused trees allocate nothing
        v = 1 + (k + 1) * (k**depth - 1) // (k - 1)
        if v <= sampler.MAX_VERTICES:
            assert TreeConfig(k=k, depth=depth).vertex_count == v
        out, err = io.StringIO(), io.StringIO()
        argv = ["simulate", "--k", str(k), "--theta", theta, "--measure", measure,
                "--depth", str(depth), "--samples", str(samples)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        text = err.getvalue()
        assert rc in (0, 1)
        assert "Traceback" not in text
        for numpy_text in ("array is too big", "Unable to allocate", "numpy",
                           "int too large"):
            assert numpy_text not in text
        if v > sampler.MAX_VERTICES:
            assert rc == 1 and "tree too large to sample" in text
        elif samples * v > sampler.MAX_VERTEX_SAMPLES:
            assert rc == 1


class TestIterateCommand:
    def test_unit_coupling_fixed_point(self, capsys):
        assert run(["iterate", "--k", "2", "--theta", "1"]) == 0
        out = capsys.readouterr().out
        assert "converged" in out
        assert "(1.0, 1.0, 1.0)" in out

    def test_matches_enumerate_below_one(self, capsys):
        assert run(
            ["iterate", "--k", "2", "--theta", "0.5", "--tol", "1e-12",
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"]
        assert abs(payload["x"] - 1.0) < 1e-8
        assert abs(payload["y"] - 0.7709169970592481) < 1e-8

    def test_divergence_report_above_one(self, capsys):
        assert run(
            ["iterate", "--k", "2", "--theta", "1.5", "--max-iter", "500"]
        ) == 0
        out = capsys.readouterr().out
        assert "no convergence" in out and "tail" in out

    def test_seeded_at_solution(self, capsys):
        # theta = 1.5: unreachable from all-ones (two-cycle), reachable
        # when seeded at the fixed point itself
        from hcsos.tisgm import solve_symmetric

        sym = solve_symmetric(2, 1.5)
        init = f"{sym.x**2!r},{sym.y**2!r},1.0"
        assert run(
            ["iterate", "--k", "2", "--theta", "1.5", "--init", init,
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"]
        assert abs(payload["y"] - sym.y) < 1e-8

    def test_m4_runs(self, capsys):
        assert run(
            ["iterate", "--m", "4", "--k", "2", "--theta", "0.8",
             "--max-iter", "50000"]
        ) == 0

    def test_bad_init_is_domain_failure(self, capsys):
        rc = run(["iterate", "--k", "2", "--theta", "0.5", "--init", "1.0,-2.0,1.0"])
        assert rc == 1

    def test_odd_m_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run(["iterate", "--m", "3", "--k", "2", "--theta", "0.5"])
        assert err.value.code == 2
