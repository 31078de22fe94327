import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from toruspack import cli
from toruspack.ecg import expected_class
from toruspack.lattice import ModuliPoint
from toruspack.packing import graph_from_dict, packing_from_dict, to_json
from toruspack.regions import boundary_curve, region_count, sample_boundary, sample_interior
from toruspack.render import FigureSpec, render_packing
from toruspack.report import _check_counts, oracle_disagreements, run_pipeline, summary_table, verify_run
from toruspack.solve import solve_report

SQRT3 = math.sqrt(3.0)
GOLDEN = Path(__file__).with_name("solve_golden.json")
ORACLE_GOLDEN = Path(__file__).with_name("oracle_golden.json")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "toruspack.cli", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


def _disguised_basis(x, y, rng):
    """A seeded basis of a lattice similar to <1,0>, <x,y>: shears, a
    rotation, maybe a reflection and a scale 10^U(-2, 2)."""
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
    B = scale * (A @ np.array([[1.0, 0.0], [x, y]])) @ Q.T
    return tuple(B[0]), tuple(B[1])


def _golden_cases():
    """Seeded disguised bases for n = 2, 3, 4: three interior tori per
    region, two points on each boundary curve, and every corner (the strip
    bottom's two and both ends of each curve, so the n = 4 hexagonal corner
    in both float spellings)."""
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        curves = range(1, region_count(n))
        tori = [sample_interior(n, idx, rng) for idx in range(1, region_count(n) + 1) for _ in range(3)]
        tori += [sample_boundary(n, idx, rng) for idx in curves for _ in range(2)]
        tori += [ModuliPoint(0.0, 1.0), ModuliPoint(0.5, SQRT3 / 2)]
        tori += [ModuliPoint(x, boundary_curve(n, idx, x)) for idx in curves for x in (0.0, 0.5)]
        for k, m in enumerate(tori):
            yield f"n{n}/{k}", n, _disguised_basis(m.x, m.y, rng)


def test_solve_outputs_match_golden():
    """solve JSON and SVG stay byte-identical: the digests in
    solve_golden.json were recorded from these cases at 062a75d."""
    got = {}
    for label, n, (v1, v2) in _golden_cases():
        rec = solve_report(n, v1, v2)
        svg = render_packing(packing_from_dict(rec["packing"]), graph_from_dict(rec["graph"]), FigureSpec())
        got[label] = [hashlib.sha256(text.encode()).hexdigest() for text in (to_json(rec), svg)]
    assert got == json.loads(GOLDEN.read_text())


# sha256 of the census and embedding files that run_pipeline(n, dir,
# skip_oracle=True) writes, recorded at 5dd73f9
PIPELINE_GOLDEN = {
    "census_n3.txt": "6ec28d023c9c7bf50ce7b2a029e807b25089abbd757d3446aa68f1240f2e10fc",
    "embeddings_n3.jsonl": "e61cd2834acd87842babeb428c61d4dfae4c22309f8c8f45c43d6fde02b4718d",
    "census_n4.txt": "802691eb6d8520455f8797b2be42a52150393ba8a520e6f9f59321ada0ac6e19",
    "embeddings_n4.jsonl": "aa360423ac1b58dea89f67448f301414a89764117f3474b21ceffdb3d2aa40eb",
}


def test_census_and_embedding_files_match_golden(tmp_path, catalog3, catalog4):
    """Census and embedding files stay byte-identical for n = 3 and 4."""
    got = {}
    for n in (3, 4):
        run_pipeline(n, str(tmp_path), skip_oracle=True)
        for name in (f"census_n{n}.txt", f"embeddings_n{n}.jsonl"):
            got[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert got == PIPELINE_GOLDEN


# sha256 of the verdict and oracle files that `toruspack pipeline --n {3, 4}`
# writes at seed 0, recorded at 328adc2; the n = 4 pair re-recorded when the
# ascent moved to the 4-corner window, which moved one oracle radius by 1 ulp,
# and verdicts_n4.json again when a rigid verdict's regions became those of
# the samples the probe decided (ECG4-2: R2_4,R3_4 -> R3_4).
# They pass through the equal-length solver (realization samples, oracle
# refine), so a change to its rounding re-records these digests and says so
# in CHANGES.md.
RUN_GOLDEN = {
    "verdicts_n3.json": "935b0d19e78d5bb537ea838ec8319bad5d3ab2d8243515742353f83f70b71dbc",
    "oracle_n3.csv": "6860314e11ce99fee535d5b77570279fc1c8996289f5acfe609b8468d9c9424e",
    "verdicts_n4.json": "e72b63b6e29c4cdedf921d63b111541b79bd219639b8f17398f04c873d07a646",
    "oracle_n4.csv": "f07a58e51c2e8a789a6194181e03ca687ae79b1ee7b7c2f2bf47920b5870a758",
}


def _assert_run_golden(out_dir, n):
    for name in (f"verdicts_n{n}.json", f"oracle_n{n}.csv"):
        assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == RUN_GOLDEN[name], name


class TestSolve:
    def test_square_torus(self):
        rec = solve_report(2, (1, 0), (0, 1))
        assert rec["region"] == "R1_2"
        assert rec["radius"] == pytest.approx(0.35355339, abs=1e-7)
        assert rec["tangencies"] == 4

    def test_classifies_once(self, monkeypatch):
        from toruspack import closed_form, report

        calls = []
        for module in (closed_form, report):
            classify = module.classify
            monkeypatch.setattr(
                module, "classify", lambda n, m, f=classify: calls.append(m) or f(n, m)
            )
        rec = solve_report(4, (1, 0), (0.1, 1.0))
        assert len(calls) == 1 and rec["region"] == "R1_4"

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
            rec = solve_report(4, *_disguised_basis(0.5, y, rng))
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

    def test_cli_thin_torus_exit_code(self):
        # a torus thinner than 1 : 1e12 is refused with a reason that says so
        r = run_cli("solve", "--n", "4", "--v1", "1,0", "--v2", "0.3,1e13")
        assert (r.returncode, r.stdout) == (2, "")
        assert "thinner than" in r.stderr
        assert run_cli("solve", "--n", "4", "--v1", "1,0", "--v2", "0.3,1e11").returncode == 0

    def test_cli_tol_past_the_ceiling_exit_code(self):
        # a tolerance the translate window cannot hold is refused with the reason
        r = run_cli("solve", "--n", "3", "--v1", "1,0", "--v2", "0.3,1.2", "--tol", "0.5")
        assert (r.returncode, r.stdout) == (2, "")
        assert "above 0.1" in r.stderr
        assert run_cli("solve", "--n", "3", "--v1", "1,0", "--v2", "0.3,1.2", "--tol", "0.1").returncode == 0

    def test_cli_solve_lets_an_internal_error_through(self, monkeypatch):
        # only a degenerate basis is bad input: any other error from
        # solve_report is a bug, not an answer with exit 2
        def broken(*args, **kwargs):
            raise ValueError("radius must be positive")

        monkeypatch.setattr(cli, "solve_report", broken)
        with pytest.raises(ValueError, match="radius must be positive"):
            cli.main(["solve", "--n", "2", "--v1", "1,0", "--v2", "0,1"])

    @pytest.mark.parametrize(
        "args",
        [
            "solve --n 2 --v1 nan,0 --v2 0,1",
            "solve --n 2 --v1 1,0 --v2 0,1 --tol nan",
            "solve --n 2 --v1 1,0 --v2 0,1 --tol -1",
            "verify --n 2 --restarts 0",
            "verify --n 2 --samples 0",
            "verify --n 2 --samples -1",
            "verify --n 2 --seed -1",
            "pipeline --n 3 --seed -1 --out {out}",
        ],
    )
    def test_cli_rejects_bad_numbers(self, args, tmp_path, capsys):
        # exit 2 with an error line, before any output file is written
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            sys.exit(cli.main(args.format(out=out).split()))
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err.splitlines()[-1]
        assert not out.exists()

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
        assert report["census_counts"] == (37, 10, 3)
        assert report["embedding_count"] == 6
        assert report["after_forbidden"] == 6
        assert report["after_both"] == 6
        assert not report["failures"]
        assert (tmp_path / "census_n3.txt").exists()
        assert (tmp_path / "embeddings_n3.jsonl").exists()
        verdicts = json.loads((tmp_path / "verdicts_n3.json").read_text())
        assert verdicts["schema"] == 1
        names = {v["name"] for v in verdicts["verdicts"]}
        assert names == {"ECG1-1", "ECG1-2", "ECG2-1", "ECG2-2", "ECG2-3", "ECG3-1"}

    def test_n3_verdicts_and_witnesses(self, tmp_path, catalog3):
        report = run_pipeline(3, str(tmp_path))
        assert not report["failures"]
        verdicts = {v["name"]: v for v in report["verdicts"]}
        for entry in catalog3.survivors():
            v = verdicts[entry.name]
            if entry.anchor is not None:
                assert v["realization"] == "anchored (globally optimal witness)"
                assert v["witness"] == {"moduli": {"x": entry.anchor.x, "y": entry.anchor.y}}
        assert verdicts["ECG2-2"]["realization"] == "flexible"
        assert "flex" in verdicts["ECG2-2"]["witness"]

    def test_n3_oracle_rows_reach_the_formula(self, tmp_path, catalog3):
        """Every row lands on the closed form, and on the tori and oracle
        radii in oracle_golden.json, recorded at 80e77f3; the verdict and
        oracle files match RUN_GOLDEN."""
        rows = run_pipeline(3, str(tmp_path))["oracle"]
        assert len(rows) == 9
        for row in rows:
            assert row["gap"] <= 1e-9, row
        golden = json.loads(ORACLE_GOLDEN.read_text())
        assert [(r["x"], r["y"], r["region"]) for r in rows] == [
            (g["x"], g["y"], g["region"]) for g in golden
        ]
        for row, g in zip(rows, golden):
            assert abs(row["oracle_r"] - g["oracle_r"]) <= 1e-12, (row, g)
        _assert_run_golden(tmp_path, 3)

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
        return {"n": 3, "census_counts": (37, 10, 3), "embedding_count": 6, "after_forbidden": 6,
                "after_both": 6, "verdicts": verdicts, "oracle": [row]}

    def test_published_report_passes(self):
        report = self.published_n3()
        assert _check_counts(report) == []
        assert report == self.published_n3()

    def test_doctored_reports_fail(self):
        wrong_verdict = self.published_n3()
        wrong_verdict["verdicts"][3]["realization"] = "rigid"
        missing = self.published_n3()
        missing["verdicts"][5]["name"] = None
        twice = self.published_n3()
        twice["verdicts"][1]["name"] = "ECG1-1"
        unrealized = self.published_n3()
        unrealized["verdicts"][0]["realization"] = "no realization found in 240 attempts"
        above = self.published_n3()
        above["oracle"][0].update(oracle_r=0.25 + 1e-5, gap=1e-5)
        barely_above = self.published_n3()
        barely_above["oracle"][0].update(oracle_r=0.25 + 1e-11, gap=1e-11)
        short = self.published_n3()
        short["oracle"][0].update(oracle_r=0.25 - 2e-3, gap=2e-3)
        for report, needle in ((wrong_verdict, "ECG2-2: realization 'rigid'"),
                               (missing, "ECG3-1 missing"),
                               (twice, "ECG1-1 assigned 2 times"),
                               (unrealized, "ECG1-1: realization"),
                               (above, "oracle R2_3 at (0.250000, 1.500000)"),
                               (barely_above, "oracle R2_3 at (0.250000, 1.500000)"),
                               (short, "formula 0.250000000, oracle 0.248000000")):
            failures = _check_counts(report)
            assert any(needle in f for f in failures), failures
        # each published count, doctored alone, fails with exactly its message
        for key, value, message in (
            ("census_counts", (37, 10, 4), "census: got (37, 10, 4), expected (37, 10, 3)"),
            ("embedding_count", 7, "embeddings: got 7, expected 6"),
            ("after_forbidden", 5, "after forbidden-face filter: got 5, expected 6"),
            ("after_both", 5, "after both filters: got 5, expected 6"),
        ):
            assert _check_counts({**self.published_n3(), key: value}) == [message]

    def test_summary_table_aligns_the_expected_class(self):
        # anchored, decided and unrealized verdicts: the expected class
        # starts one space past the widest realization, on every line
        record = {**self.published_n3(), "failures": []}
        record["verdicts"][0]["realization"] = "no realization found in 240 attempts"
        record["verdicts"][3]["regions"] = ["R1_3", "R2_3"]
        lines = summary_table(record).splitlines()[1:]
        assert len(lines) == 6
        starts = {line.index(v["expected"]) for line, v in zip(lines, record["verdicts"])}
        assert starts == {2 + 10 + 1 + len("no realization found in 240 attempts") + 1}

    @pytest.fixture
    def doctored3(self, catalog3, monkeypatch):
        """The n = 3 catalog with ECG2-2 relabeled "rigid" (published
        "realizable, never locally maximally dense"), as the pipeline's."""
        from toruspack import report

        doctored = catalog3._replace(entries=tuple(
            e._replace(realization_class="rigid") if e.name == "ECG2-2" else e
            for e in catalog3.entries
        ))
        monkeypatch.setattr(report, "identify", lambda n: doctored)

    def test_doctored_verdict_fails_without_oracle(self, tmp_path, doctored3):
        # skip_oracle drops the oracle table only: the realization verdicts
        # are still judged against their published classes
        from toruspack import report

        with pytest.raises(report.CountMismatch, match="ECG2-2: realization 'rigid'"):
            run_pipeline(3, str(tmp_path), skip_oracle=True)

    def test_lenient_pipeline_reports_failed_checks(self, tmp_path, doctored3, capsys):
        # --lenient exits 0, prints each failed check and records it
        assert cli.main(["pipeline", "--n", "3", "--out", str(tmp_path), "--skip-oracle", "--lenient"]) == 0
        assert "  CHECK FAILED: ECG2-2: realization 'rigid'" in capsys.readouterr().out
        blob = json.loads((tmp_path / "verdicts_n3.json").read_text())
        assert blob["failures"] == ["ECG2-2: realization 'rigid', published "
                                    "'realizable, never locally maximally dense'"]

    def test_strict_pipeline_exits_1_on_failed_checks(self, tmp_path, doctored3, capsys):
        assert cli.main(["pipeline", "--n", "3", "--out", str(tmp_path), "--skip-oracle"]) == 1
        out, err = capsys.readouterr()
        assert "published checks failed: ECG2-2: realization 'rigid'" in err
        assert out == ""


class TestVerify:
    def test_small_run(self):
        rows = verify_run(2, samples=2, seed=7, restarts=40)
        assert oracle_disagreements(rows) == []
        assert len(rows) == 4
        for r in rows:
            assert r["gap"] <= 1e-3
            assert r["oracle_r"] <= r["formula_r"] + 1e-6

    def test_cli_verify_reads_one_disagreement_list(self, monkeypatch, capsys):
        # one oracle_disagreements result gives the ok= line, the stderr
        # lines and the exit code
        from toruspack import report

        calls = []
        monkeypatch.setattr(report, "oracle_disagreements",
                            lambda rows: calls.append(rows) or ["doctored row"])
        assert cli.main(["verify", "--n", "2", "--samples", "1", "--seed", "3", "--restarts", "40"]) == 1
        out, err = capsys.readouterr()
        assert len(calls) == 1 and out.endswith("ok=False\n") and err == "  doctored row\n"

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
        assert blob == json.loads(json.dumps(report))
        assert "bigon" in blob["embedding_convention"]

    def test_cli_pipeline_n3(self, tmp_path):
        r = run_cli("pipeline", "--n", "3", "--out", str(tmp_path), "--skip-oracle")
        assert r.returncode == 0
        assert "census 37/10/3; embeddings 6; filters 6/6" in r.stdout

    def test_cli_pipeline_n4_strict(self, tmp_path, catalog4, capsys):
        """Strict mode exits 0 only if every published n = 4 count, name,
        verdict class and oracle row holds; the verdict and oracle files
        match RUN_GOLDEN."""
        assert cli.main(["pipeline", "--n", "4", "--out", str(tmp_path)]) == 0
        assert "census 825/102/20; embeddings 97; filters 31/21" in capsys.readouterr().out
        _assert_run_golden(tmp_path, 4)
