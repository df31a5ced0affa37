import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hcsos import cli, grid, sampler, tisgm
from hcsos.cli import (
    CSV_HEADER,
    SweepTable,
    main,
    read_phase_csv,
    write_phase_csv,
    write_phase_jsonl,
)
from hcsos.extremality import thresholds
from hcsos.grid import _find_roots, enumerate_solution_grid, sweep_table
from hcsos.rootfind import BracketError
from hcsos.sampler import TreeConfig, estimate_marginals
from hcsos.tisgm import (
    solve_asymmetric,
    solve_symmetric,
    theta_cr,
)
from reference import build_phase_table, s2_mp, stationary_mp


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

    @pytest.mark.parametrize(
        "k", [2, 3, 8, 19, 24, 25, 35, 36, 39, 50, 80, 100, 142]
    )
    def test_merged_pair_below_theta_cr_is_a_domain_error(self, k):
        # solve_asymmetric alone decides whether mu1/mu2 exist: less than
        # CRITICAL_TOL below theta_cr(k), the four floats just below it
        # included, the pair is merged, and every verb says so as tisgm does
        tc = theta_cr(k)
        below = [tc]
        for _ in range(4):
            below.append(math.nextafter(below[-1], 0.0))
        merged = 0
        for theta in (*below[1:], tc - 0.5e-9, tc - 2e-9, tc):
            pair = solve_asymmetric(k, theta)
            assert [s.branch.value for s in pair] in ([], ["Upper", "Lower"])
            merged += not pair
            point = ["--k", str(k), "--theta", repr(theta)]
            _, out, _ = _cli(["tisgm", *point, "--format", "json"])
            branches = [s["branch"] for s in json.loads(out)["solutions"]]
            assert branches == ["Symmetric"] + ["Upper", "Lower"] * bool(pair)
            assert ("asymmetric pair merged" in _cli(["tisgm", *point])[1]) == (
                not pair
            )
            code, out, err = _cli(["classify", *point, "--measure", "all",
                                   "--format", "json"])
            assert (code, err) == (0, "")
            assert [v["measure"] for v in json.loads(out)] == ["mu0", "mu1", "mu2"][
                : len(branches)
            ]
            code, out, err = _cli(["classify", *point, "--measure", "all"])
            assert (code, err) == (0, "")
            assert ("mu1/mu2 do not exist (theta " in out) == (not pair)
            for argv in (*(["classify", *point, "--measure", m] for m in
                           ("mu1", "mu2")),
                         ["simulate", *point, "--measure", "mu2", "--depth", "1",
                          "--samples", "10"]):
                code, _, err = _cli(argv)
                if pair:
                    assert (code, err) == (0, ""), argv
                else:
                    assert code == 1 and err.startswith(
                        f"error: mu1/mu2 do not exist at k={k}, theta={theta!r}"
                    ), (argv, err)
                    # ">=" only where it holds in floats
                    assert (">=" in err) == (theta >= tc), (argv, err)
        assert merged
        # a sweep over the band gives each point tisgm's solutions
        code, out, _ = _cli(_sweep(k, tc - 2e-9, tc, 9))
        assert code == 0
        table = read_phase_csv(io.StringIO(out))
        rows = np.diff([0, *table.ends])
        for theta, count in zip(_column(table, "theta"), rows):
            assert count == len(tisgm.enumerate_solutions(k, theta)), theta

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

    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_all_solves_the_pair_once(self, k, capsys, monkeypatch):
        # one asymmetric root solve (one bracket ladder) serves mu1 and mu2
        # from CRITICAL_TOL below theta_cr down, none is made above that,
        # and the output is the single-measure calls' output concatenated
        calls = []
        ladder = tisgm.expand_bracket_decreasing
        monkeypatch.setattr(
            tisgm, "expand_bracket_decreasing", lambda *a: calls.append(a) or ladder(*a)
        )
        tc = theta_cr(k)
        for theta in (0.3 * tc, 0.9 * tc, tc - 0.5e-9, tc, 1.5 * tc):
            solves = tc - theta >= tisgm.CRITICAL_TOL
            common = ["--k", str(k), "--theta", repr(theta), "--format", "json"]
            del calls[:]
            assert run(["classify", "--measure", "all"] + common) == 0
            assert len(calls) == solves, theta
            got = json.loads(capsys.readouterr().out)
            single = []
            for name in ("mu0", "mu1", "mu2") if solves else ("mu0",):
                assert run(["classify", "--measure", name] + common) == 0
                single += json.loads(capsys.readouterr().out)
            assert got == single

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


class TestHugeTheta:
    # the symmetric bracket's upper end 2^(1/(k+1)) rounds low for k = 3
    # and 8, which leaves no sign change once theta is huge
    @pytest.mark.parametrize("argv", [
        ["classify", "--k", "3", "--theta", "1e20", "--measure", "mu0"],
        ["tisgm", "--k", "8", "--theta", "1e20"],
        ["sweep", "--k", "3", "--theta-min", "1e290", "--theta-max", "1e300",
         "--steps", "50"],
    ])
    def test_exits_zero(self, argv, capsys):
        assert run(argv) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("k, lo, hi, steps", [
        (3, "1e290", "1e300", 50), (3, "1e20", "1e21", 2), (8, "1e20", "1e21", 2),
    ])
    def test_sweep_rows_equal_lone_calls(self, k, lo, hi, steps, capsys):
        common = ["--k", str(k), "--format", "json"]
        argv = ["sweep", "--theta-min", lo, "--theta-max", hi, "--steps", str(steps)]
        assert run(argv + common) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(records) == steps
        for rec in records:
            theta = ["--theta", repr(rec["theta"])]
            assert run(["tisgm", *theta, *common]) == 0
            sols = json.loads(capsys.readouterr().out)["solutions"]
            assert run(["classify", *theta, *common]) == 0
            verdicts = json.loads(capsys.readouterr().out)
            assert len(rec["solutions"]) == len(sols) == len(verdicts) == 1
            for row, sol, v in zip(rec["solutions"], sols, verdicts):
                assert {key: row[key] for key in sol} == sol
                for key in ("s2", "kappa", "ks_value", "msw_value", "verdict"):
                    assert row[key] == v[key], (rec["theta"], key)


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
            table = read_phase_csv(fh)
        assert len(table.ends) == 120
        t1, t2 = (t.value for t in thresholds(2).values() if t.name != "theta5")
        spacing = (2.5 - 0.1) / 119
        flips = []
        branch, verdict = _column(table, "branch"), _column(table, "verdict")
        mu0 = [
            (theta, verdict[start])
            for theta, start in zip(_column(table, "theta"), [0, *table.ends])
            if branch[start] == "Symmetric"
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
            table = read_phase_csv(fh)
        for branch, verdict in zip(_column(table, "branch"), _column(table, "verdict")):
            if branch == "Symmetric":
                assert verdict != "Extreme"

    def test_csv_round_trip_is_exact(self):
        table = sweep_table(3, 0.3, 2.2, 17)
        buffer = io.StringIO()
        write_phase_csv(table, buffer)
        buffer.seek(0)
        parsed = read_phase_csv(buffer)
        assert parsed == table

    def test_csv_bytes_equal_csv_writer(self):
        # the branch and verdict names are written as csv.writer writes
        # them, which is verbatim; numbers, signed zeros, NaN and
        # infinities included, are their repr
        texts = ["Symmetric", "Upper", "Lower", "Extreme", "NonExtreme",
                 "Undetermined", "Critical", "Upper"]
        numbers = [-0.0, float("nan"), float("inf"), float("-inf"), 1e16, 1e-5,
                   0.0, 1e-300, 2.0**70, -1.5, 0.1]

        def number(i):
            return numbers[i % len(numbers)]

        # every fourth point has no solutions (its end repeats the one
        # before) and writes no line
        points = [(2 + i % 3, number(i) if i % 2 else 0.1 * i, number(i + 5))
                  for i in range(44)]
        rows = [
            [(texts[(i + j) % 8], 1.0 / (i + 1), number(i + j), number(2 * i + j),
              number(3 * i + j), 2.0**i, number(i * j + 7), texts[(3 * i + j) % 8])
             for j in range(i % 4)]
            for i in range(44)
        ]
        table = SweepTable(
            [*zip(*points), *zip(*itertools.chain(*rows))],
            list(itertools.accumulate(map(len, rows))),
        )
        assert table.ends[3] == table.ends[4]
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for point, point_rows in zip(points, rows):
            for branch, *numbers, verdict in point_rows:
                writer.writerow([*map(repr, point), branch, *map(repr, numbers), verdict])
        got = io.StringIO()
        write_phase_csv(table, got)
        assert got.getvalue() == want.getvalue()

    def test_repeated_theta_reads_back_point_by_point(self):
        # the grid holds three distinct floats, each theta_cr(2) = 1 to
        # within CRITICAL_TOL, so each of its 100 points is one Critical row
        code, out, _ = _cli(_sweep(2, 1.0, 1.0000000000000004, 100))
        assert code == 0
        table = read_phase_csv(io.StringIO(out))
        assert table.ends == list(range(1, 101))
        assert table == sweep_table(2, 1.0, 1.0000000000000004, 100)
        assert _column(table, "verdict") == ["Critical"] * 100
        again = io.StringIO()
        write_phase_csv(table, again)
        assert again.getvalue() == out
        # and as JSON, one line per point, each flagged critical
        code, out, _ = _cli(_sweep(2, 1.0, 1.0000000000000004, 100, "--format", "json"))
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 100
        assert all(line["critical"] is True for line in lines)
        assert [line["theta"] for line in lines] == _column(table, "theta")

    def test_header_schema(self):
        assert CSV_HEADER == [
            "k", "theta", "theta_cr", "branch", "x", "y",
            "s2", "kappa", "ks_value", "msw_value", "verdict",
        ]

    def test_critical_point_flagged(self):
        table = build_phase_table(2, [1.0])  # theta_cr(2) exactly
        assert table.ends == [1] and _column(table, "verdict") == ["Critical"]
        jsonl = io.StringIO()
        write_phase_jsonl(table, jsonl)
        assert json.loads(jsonl.getvalue())["critical"] is True

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


def _column(table, name):
    return table.columns[CSV_HEADER.index(name)]


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
    # k = 143, where theta_cr overflows to inf: from 71.8414953400023 up
    # the root is within BRANCH_TOL of x = 1, and the grid drops that lane
    # as solve_asymmetric does
    @example(k=143, ends=(71.8414953400023, 71.84149534000238), steps=7, with_tc=False)
    @example(k=143, ends=(60.0, 71.84149534000238), steps=50, with_tc=False)
    def test_long_grid_equals_point_by_point(self, k, ends, steps, with_tc):
        # every point of such a grid solves (checked on 60 of them); with
        # with_tc, theta_cr(k) is one end of the grid, so a point is Critical
        tc = theta_cr(k)
        lo, hi = sorted((tc, ends[0]) if with_tc and 0.1 <= tc <= 5.0 else ends)
        assume(lo < hi)
        want = build_phase_table(k, np.linspace(lo, hi, steps).tolist())
        assert sweep_table(k, lo, hi, steps) == want
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
        table = read_phase_csv(io.StringIO(out))
        i = _column(table, "theta").index(1.801001669449082)
        start, end = [0, *table.ends][i], table.ends[i]
        assert end == start + 1
        ks_value, s2 = _column(table, "ks_value")[start], _column(table, "s2")[start]
        assert ks_value == 0.9543912848898282
        assert ks_value == 2 * s2**2 != 2 * (s2 * s2)

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

        def counted_grid(k, thetas):
            tried.append(thetas.size)
            return enumerate_solution_grid(k, thetas)

        monkeypatch.setattr(grid, "enumerate_solution_grid", counted_grid)
        assert _cli(argv) == (1, "", message)
        assert tried == [steps]
        with pytest.raises(Exception) as first:
            build_phase_table(k, np.linspace(lo, hi, steps).tolist())
        assert message == f"error: {first.value}\n"

    @pytest.mark.parametrize("k", [2, 3, 8])
    @pytest.mark.parametrize("lo,hi", [(0.1, 2.5), (0.1037, 2.4951), (0.11, 2.49)])
    def test_benchmark_grids_skip_the_fallback(self, k, lo, hi, monkeypatch):
        def never(*args):
            raise AssertionError("the point-by-point fallback was taken")

        monkeypatch.setattr(grid, "enumerate_solutions", never)
        monkeypatch.setattr(grid, "classify_solution", never)
        assert _cli(_sweep(k, lo, hi, 250))[0] == 0

    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_benchmark_grids_solve_in_one_lockstep_call(self, k, monkeypatch):
        # the symmetric and the asymmetric lanes share one _find_roots call
        calls = []

        def find_roots(*args):
            calls.append(args[1].size)
            return _find_roots(*args)

        monkeypatch.setattr(grid, "_find_roots", find_roots)
        assert _cli(_sweep(k, 0.1, 2.5, 250))[0] == 0
        assert len(calls) == 1 and calls[0] > 250

    @pytest.mark.parametrize("k", [2, 8])
    @pytest.mark.parametrize("steps", [2, 5, 63, 64])
    def test_short_grids_equal_either_route(self, k, steps):
        # the lockstep columns against the single-point solvers
        want = build_phase_table(k, np.linspace(0.1, 2.5, steps).tolist())
        assert sweep_table(k, 0.1, 2.5, steps) == want

    @pytest.mark.parametrize("k", [2, 8])
    def test_short_grids_make_one_grid_call(self, k, monkeypatch):
        # no length switch: a short grid is solved as columns too
        tried = []

        def counted_grid(k, thetas):
            tried.append(thetas.size)
            return enumerate_solution_grid(k, thetas)

        def never(*args):
            raise AssertionError("the point-by-point fallback was taken")

        monkeypatch.setattr(grid, "enumerate_solution_grid", counted_grid)
        monkeypatch.setattr(grid, "enumerate_solutions", never)
        for steps in (2, 10, 23):
            assert _cli(_sweep(k, 0.1, 2.5, steps))[0] == 0
        assert tried == [2, 10, 23]

    def test_lockstep_failure_that_no_point_shares_is_loud(self, monkeypatch):
        def fails(k, thetas):
            raise BracketError("no sign change")

        monkeypatch.setattr(grid, "enumerate_solution_grid", fails)
        with pytest.raises(AssertionError, match="every grid point solves alone"):
            sweep_table(2, 0.1, 2.5, 100)

    def test_lockstep_bug_is_not_taken_for_a_domain_error(self, monkeypatch):
        # a numpy ValueError (shape, broadcast) is no reason to fall back
        def fails(k, thetas):
            raise ValueError("operands could not be broadcast together")

        def never(*args):
            raise AssertionError("the point-by-point fallback was taken")

        monkeypatch.setattr(grid, "enumerate_solution_grid", fails)
        monkeypatch.setattr(grid, "enumerate_solutions", never)
        with pytest.raises(ValueError, match="broadcast"):
            sweep_table(2, 0.1, 2.5, 100)


class TestSinglePointPins:
    # digests of classify, tisgm, thresholds and iterate on both sides of
    # theta_cr(k) (1, 1.61, 2.17 and 4.26 at k = 2, 3, 4 and 8)
    @pytest.mark.parametrize(
        "argv,digest",
        [
            ("classify --k 2 --theta 0.7",
             "027602d166bbb7e619b21b81b0abe92fa150e12fb5022c7a38d0b1e513f7b3ab"),
            ("classify --k 2 --theta 0.7 --format json",
             "accbe62c4dd2cb9ba32c2d068b3ecad0b0bddd79e544870f06d39077159b3fd3"),
            ("classify --k 2 --theta 1.5 --measure mu0",
             "48f94eea3ea05742fb41e0c8a01d49121744a43397813d4b43fe93363a07f9b2"),
            ("classify --k 3 --theta 0.5 --measure mu1 --format json",
             "8b0aae48dda58518ecb2fcef0f2cea4bc0011baeb4cd5593a9fbfc8d58430a6c"),
            ("classify --k 3 --theta 2.0 --format json",
             "126ecc5f3ee5607b9c72a1f01dca983bee535022a5ecc8bf73bd17be4554f14b"),
            ("classify --k 4 --theta 1.0 --measure mu0 --format json",
             "25ac01e231f4bef3e869a19e7fa031a5dd2cd2a9023f98e2213f939c1e0983c8"),
            ("classify --k 4 --theta 1.5 --measure mu1",
             "b5362ccc6cc02185e96449658d8996c9ed32361929094c59b9fe2f7875300f17"),
            ("classify --k 8 --theta 0.5",
             "41ccd73ed0675c405878ca68aa77e41c29356a73137e9e00c253502e63a6f943"),
            ("classify --k 8 --theta 6.0 --measure mu0",
             "4edcde65d42a8f5e5f470c72a96dfc7f2582152446048144864b7ea571ccbaee"),
            ("tisgm --k 2 --theta 0.5",
             "c9774cb680c74193b823ddeee67c9273edbde2c37040c4749f6d3edbee5253d3"),
            ("tisgm --k 3 --theta 2.0 --format json",
             "fecf0ac0b23e3b181f92d1d75024320201150c9dbcf2ea0a6b0c29a5f6826e11"),
            ("tisgm --k 4 --theta 1.0",
             "653dee4d1de89e66c8dfd5427816f20370c2ef4749ac5eeb34b3070999adc826"),
            ("tisgm --k 8 --theta 0.5 --format json",
             "7b74bea1b968f7e467ec18c699d365a3543e553705d64c4a8802478987510986"),
            ("thresholds --k 2",
             "4d5cd02bea7ad7c0ef994600faf68362e72dca8464f56f5ed9dfa14e7fc640eb"),
            ("thresholds --k 2 --format json",
             "37ee78aa2e75072d50c3fa9d924c9671edd0a54c9a5b939e3e9cfc5383ad7e8b"),
            ("thresholds --k 3",
             "461c9b6fdfd11f1c499f4bddf12a97161aaeb7aec7f97178a54b8121e4ad4ef7"),
            ("thresholds --k 3 --format json",
             "c725a34fcb99e98a2f5fa99b99939404875766eb2edd6c9aa9e6fa652161721e"),
            ("thresholds --k 4",
             "37df21d10c3117cbb991b2ca63d685d6170971ab80dfcc669d913fd54df7bab6"),
            ("thresholds --k 4 --format json",
             "1f3fa78d99dc11f3fa512bc1abe001b3c0e946e24e72b250ae5777341d5a2c18"),
            ("iterate --k 2 --theta 0.5",
             "a9986d68cdfd7ca3fc996682dfec348af6db05462299fde7b91bf5bd59ea09ca"),
            ("iterate --k 2 --theta 1.5 --max-iter 200 --format json",
             "beaa9215af5711ee2ee5674826f00f94ad7c3da0004c3053dc5629d852fed187"),
        ],
    )
    def test_pinned_output(self, argv, digest):
        code, out, err = _cli(argv.split())
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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
            pc = [list(row) for row in stats.pair_counts]
            pc[0][2], pc[1][1], pc[2][0] = 1, 2, 4
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

    @pytest.mark.parametrize("init", ["1,x,1", "1,,1", "1;2;1", "nan1,1,1"])
    def test_non_numeric_init_is_domain_failure(self, capsys, init):
        assert run(["iterate", "--k", "2", "--theta", "0.5", "--init", init]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --init takes comma-separated numbers, got {init!r}\n"
        )

    @pytest.mark.parametrize("init", ["1,inf,1", "inf,1,1", "1,1e400,1", "1,0.5,Infinity"])
    def test_infinite_init_is_refused(self, capsys, init):
        # an infinite entry used to pass and die at step 1 as [nan nan  1.]
        assert run(["iterate", "--k", "2", "--theta", "0.5", "--init", init]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: boundary-law entries must be finite\n"

    def test_odd_m_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run(["iterate", "--m", "3", "--k", "2", "--theta", "0.5"])
        assert err.value.code == 2
