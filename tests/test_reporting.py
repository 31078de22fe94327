import json
import math
import subprocess
import sys

import numpy as np
import pytest

from toruspack.ecg import expected_class
from toruspack.regions import boundary_curve
from toruspack.report import PipelineReport, _check_counts, run_pipeline, solve_report, verify_run

SQRT3 = math.sqrt(3.0)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "toruspack.cli", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


class TestSolve:
    def test_square_torus(self):
        rec = solve_report(2, (1, 0), (0, 1))
        assert rec["region"] == "R1_2"
        assert rec["radius"] == pytest.approx(0.35355339, abs=1e-7)
        assert rec["tangencies"] == 4

    def test_radius_half_regime(self):
        rec = solve_report(4, (1, 0), (0, 2 * SQRT3))
        assert rec["region"] == "R4_4"
        assert rec["radius"] == pytest.approx(0.5, abs=1e-12)
        assert rec["tangencies"] == 12  # triangular close packing corner
        # the published sample point is a truncation of 2*sqrt(3); a hair
        # below the boundary the radius is still 1/2 up to continuity
        rec2 = solve_report(4, (1, 0), (0, 3.4641016))
        assert rec2["radius"] == pytest.approx(0.5, abs=1e-6)

    def test_scale_invariance(self):
        big = solve_report(3, (2, 0), (0, 4))
        small = solve_report(3, (1, 0), (0, 2))
        assert big["moduli"] == small["moduli"]
        assert big["scale"] == pytest.approx(0.5)
        assert big["radius_original_units"] == pytest.approx(2 * small["radius"], abs=1e-12)

    def test_hexagonal_corner_disguised_bases(self):
        # R1_4 pinches to the hexagonal point; rounded reductions of it land
        # on either side and must all give the triangular close packing
        rng = np.random.default_rng(2024)
        for k in range(20):
            y = SQRT3 / 2 if k % 2 else boundary_curve(4, 1, 0.5)
            A = np.eye(2)
            for _ in range(int(rng.integers(1, 5))):
                shear = int(rng.integers(-3, 4))
                A = (np.array([[1, shear], [0, 1]]) if rng.random() < 0.5
                     else np.array([[1, 0], [shear, 1]])) @ A
            t = rng.uniform(0, 2 * math.pi)
            Q = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
            if rng.random() < 0.5:
                Q = Q @ np.diag([1.0, -1.0])
            scale = 10.0 ** rng.uniform(-2, 2)
            B = scale * (A @ np.array([[1.0, 0.0], [0.5, y]])) @ Q.T
            rec = solve_report(4, tuple(B[0]), tuple(B[1]))
            assert rec["radius"] == pytest.approx(0.25, abs=1e-12)
            assert rec["tangencies"] == 12

    def test_cli_solve_json_deterministic(self):
        a = run_cli("solve", "--n", "2", "--v1", "1,0", "--v2", "0,1", "--json")
        b = run_cli("solve", "--n", "2", "--v1", "1,0", "--v2", "0,1", "--json")
        assert a.returncode == 0
        assert a.stdout == b.stdout
        rec = json.loads(a.stdout)
        assert rec["schema"] == 1
        assert rec["region"] == "R1_2"

    def test_cli_degenerate_exit_code(self):
        r = run_cli("solve", "--n", "2", "--v1", "1,1", "--v2", "2,2")
        assert r.returncode == 2

    def test_cli_svg(self, tmp_path):
        out = tmp_path / "packing.svg"
        r = run_cli(
            "solve", "--n", "2", "--v1", "1,0", "--v2", "0,1", "--svg", str(out)
        )
        assert r.returncode == 0
        assert out.read_text().startswith("<?xml")


class TestPipeline:
    def test_n3_counts_and_verdicts(self, tmp_path, catalog3):
        report = run_pipeline(3, str(tmp_path), skip_oracle=True)
        assert report.census_counts == (37, 10, 3)
        assert report.embedding_count == 6
        assert report.after_forbidden == 6
        assert report.after_both == 6
        assert not report.failures
        assert (tmp_path / "census_n3.txt").exists()
        assert (tmp_path / "embeddings_n3.jsonl").exists()
        verdicts = json.loads((tmp_path / "verdicts_n3.json").read_text())
        assert verdicts["schema"] == 1
        names = {v["name"] for v in verdicts["verdicts"]}
        assert names == {"ECG1-1", "ECG1-2", "ECG2-1", "ECG2-2", "ECG2-3", "ECG3-1"}

    def test_n3_verdicts_and_witnesses(self, tmp_path, catalog3):
        report = run_pipeline(3, str(tmp_path), oracle_restarts=40)
        assert not report.failures
        verdicts = {v["name"]: v for v in report.verdicts}
        for entry in catalog3.survivors():
            v = verdicts[entry.name]
            if entry.anchor is not None:
                assert v["realization"] == "anchored (globally optimal witness)"
                assert v["witness"] == {"moduli": {"x": entry.anchor.x, "y": entry.anchor.y}}
        assert verdicts["ECG2-2"]["realization"] == "flexible"
        assert "flex" in verdicts["ECG2-2"]["witness"]

    def test_n3_oracle_rows_reach_the_formula(self, tmp_path, catalog3):
        report = run_pipeline(3, str(tmp_path))
        assert len(report.oracle_rows) == 9
        for row in report.oracle_rows:
            assert row["gap"] <= 1e-9, row

    def test_embedding_records_round_trip(self, tmp_path, catalog3):
        run_pipeline(3, str(tmp_path), skip_oracle=True)
        lines = (tmp_path / "embeddings_n3.jsonl").read_text().splitlines()
        assert len(lines) == 6
        for line in lines:
            rec = json.loads(line)
            assert rec["schema"] == 1
            assert isinstance(rec["rotation"], list)


class TestChecks:
    @staticmethod
    def published_n3():
        realization = {"ECG2-2": "flexible"}
        verdicts = [
            {"name": name, "expected": expected_class(name),
             "realization": realization.get(name, "anchored (globally optimal witness)")}
            for name in ("ECG1-1", "ECG1-2", "ECG2-1", "ECG2-2", "ECG2-3", "ECG3-1")
        ]
        row = {"n": 3, "x": 0.25, "y": 1.5, "region": 2, "formula_r": 0.25,
               "oracle_r": 0.25, "gap": 0.0, "restarts": 120, "seed": 0}
        return PipelineReport(3, (37, 10, 3), 6, 6, 6, verdicts=verdicts, oracle_rows=[row])

    def test_published_report_passes(self):
        report = self.published_n3()
        _check_counts(report)
        assert report.failures == []

    def test_doctored_reports_fail(self):
        wrong_verdict = self.published_n3()
        wrong_verdict.verdicts[3]["realization"] = "rigid"
        missing = self.published_n3()
        missing.verdicts[5]["name"] = None
        twice = self.published_n3()
        twice.verdicts[1]["name"] = "ECG1-1"
        unrealized = self.published_n3()
        unrealized.verdicts[0]["realization"] = "no realization found in 240 attempts"
        above = self.published_n3()
        above.oracle_rows[0].update(oracle_r=0.25 + 1e-5, gap=1e-5)
        short = self.published_n3()
        short.oracle_rows[0].update(oracle_r=0.25 - 2e-3, gap=2e-3)
        for report, needle in ((wrong_verdict, "ECG2-2: realization 'rigid'"),
                               (missing, "ECG3-1 missing"),
                               (twice, "ECG1-1 assigned 2 times"),
                               (unrealized, "ECG1-1: realization"),
                               (above, "oracle R2_3 at (0.250000, 1.500000)"),
                               (short, "formula 0.250000000, oracle 0.248000000")):
            _check_counts(report)
            assert any(needle in f for f in report.failures), report.failures

    def test_skipped_realization_not_judged(self):
        report = self.published_n3()
        for v in report.verdicts:
            v["realization"] = "skipped"
        _check_counts(report)
        assert report.failures == []


class TestVerify:
    def test_small_run(self):
        rows, ok = verify_run(2, samples=2, seed=7, restarts=40)
        assert ok
        assert len(rows) == 4
        for r in rows:
            assert r["gap"] <= 1e-3
            assert r["oracle_r"] <= r["formula_r"] + 1e-6

    def test_cli_verify_csv(self, tmp_path):
        out = tmp_path / "verify.csv"
        r = run_cli(
            "verify", "--n", "2", "--samples", "1", "--seed", "3",
            "--restarts", "40", "--csv", str(out),
        )
        assert r.returncode == 0
        header = out.read_text().splitlines()[0]
        assert header.split(",")[:4] == ["n", "x", "y", "region"]


class TestRoundTrips:
    def test_report_dict_round_trip(self, tmp_path, catalog3):
        report = run_pipeline(3, str(tmp_path), skip_oracle=True)
        blob = json.loads((tmp_path / "verdicts_n3.json").read_text())
        assert blob == json.loads(json.dumps(report.to_dict()))
        assert "bigon" in blob["embedding_convention"]

    def test_cli_pipeline_n3(self, tmp_path):
        r = run_cli("pipeline", "--n", "3", "--out", str(tmp_path), "--skip-oracle")
        assert r.returncode == 0
        assert "census 37/10/3; embeddings 6; filters 6/6" in r.stdout
