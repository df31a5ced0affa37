import io
import json

import numpy as np
import pytest

from hcsos.cli import (
    CSV_HEADER,
    build_phase_record,
    main,
    read_phase_csv,
    sweep_records,
    write_phase_csv,
)
from hcsos.extremality import thresholds


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
