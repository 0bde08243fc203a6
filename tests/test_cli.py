"""Command-line interface: file formats, round trips, exit codes, commands."""

from __future__ import annotations

import argparse
import decimal
import json
import re
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest

import sdgames.cli as cli
from sdgames import generators
from sdgames.cli import main
from sdgames.generators import example_corpus, random_unbounded
from sdgames.model import SdpPair, SymMat
from sdgames.probio import (
    ProblemFormatError,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    report_to_dict,
    save_problem,
)
from sdgames.bounds import certified_bound_M
from sdgames.direct import solve_both
from sdgames.reduction import PipelineConfig, run_pipeline


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["gen", "example-corpus", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def kh15(tmp_path_factory):
    """Khachiyan's chain at n = 15, tau = 1: its certified exponent has 4,675 digits."""
    out = tmp_path_factory.mktemp("kh15")
    assert main(["gen", "khachiyan", "--n", "15", "--tau", "1", "--out", str(out)]) == 0
    return out / "khachiyan_n15_tau1.json"


class TestProblemFormat:
    def test_round_trip_exact(self, bounded_pair):
        doc = problem_to_dict(bounded_pair)
        pair2, _ = problem_from_dict(json.loads(json.dumps(doc)))
        assert pair2.C == bounded_pair.C
        assert pair2.A == bounded_pair.A
        assert pair2.b == bounded_pair.b

    def test_round_trip_rational_strings(self):
        pair = SdpPair(
            C=SymMat([[Fraction(1, 3)]]), A=(SymMat([[Fraction(-2, 7)]]),), b=(Fraction(5, 2),)
        )
        doc = json.loads(json.dumps(problem_to_dict(pair)))
        assert doc["C"][0][0] == "1/3"
        pair2, _ = problem_from_dict(doc)
        assert pair2.C.entry(0, 0) == Fraction(1, 3)
        assert pair2.b[0] == Fraction(5, 2)

    def test_round_trip_float(self):
        pair = SdpPair(C=SymMat([[0.1]]), A=(SymMat([[1.7]]),), b=(0.3,))
        doc = json.loads(json.dumps(problem_to_dict(pair)))
        pair2, _ = problem_from_dict(doc)
        assert abs(pair2.C.entry(0, 0) - 0.1) < 1e-15
        assert pair2.C.entry(0, 0) == 0.1  # json round-trips binary64 exactly

    def test_asymmetric_rejected(self):
        doc = {"n": 2, "m": 1, "C": [[1, 2], [3, 1]], "A": [[[1, 0], [0, 1]]], "b": [1]}
        with pytest.raises(ProblemFormatError, match="asymmetric"):
            problem_from_dict(doc)

    def test_field_errors_carry_context(self):
        doc = {"n": 1, "m": 1, "C": [[1]], "A": [[["x/y"]]], "b": [1]}
        with pytest.raises(ProblemFormatError, match=r"A\[0\]"):
            problem_from_dict(doc)

    def test_missing_field(self):
        with pytest.raises(ProblemFormatError, match="missing"):
            problem_from_dict({"n": 1, "m": 1, "C": [[1]], "A": [[[1]]]})

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("field", ["C", "A[1]", "b"])
    def test_non_finite_entry_rejected(self, field, value):
        A = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
        doc = {"n": 2, "m": 2, "C": [[1, 0], [0, 1]], "A": A, "b": [1, 1]}
        if field == "C":
            doc["C"][1][1] = value
        elif field == "A[1]":
            doc["A"][1][1][1] = value
        else:
            doc["b"][1] = value
        message = rf"{re.escape(field)}\[1\]: non-finite entry {value!r}"
        with pytest.raises(ProblemFormatError, match=message):
            problem_from_dict(doc)

    @pytest.mark.parametrize(
        "value", [10**400, -(10**400), "1e400", "-1e400", "1e99999", "1e-99999", "1e0_0100000"]
    )
    @pytest.mark.parametrize("field", ["C", "A[1]", "b"])
    def test_out_of_float_range_entry_rejected(self, field, value):
        A = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
        doc = {"n": 2, "m": 2, "C": [[1, 0], [0, 1]], "A": A, "b": [1, 1]}
        if field == "C":
            doc["C"][1][1] = value
        elif field == "A[1]":
            doc["A"][1][1][1] = value
        else:
            doc["b"][1] = value
        message = rf"{re.escape(field)}\[1\]: entry beyond the float range"
        with pytest.raises(ProblemFormatError, match=message):
            problem_from_dict(doc)

    @pytest.mark.parametrize("key", ["n", "m"])
    def test_boolean_dimension_rejected(self, key):
        doc = {"n": 1, "m": 1, "C": [[1]], "A": [[[1]]], "b": [1]}
        doc[key] = True
        with pytest.raises(ProblemFormatError, match="positive integers"):
            problem_from_dict(doc)

    @pytest.mark.parametrize("name", [5, None, ["x"]])
    def test_non_string_name_rejected(self, name):
        doc = {"n": 1, "m": 1, "C": [[1]], "A": [[[1]]], "b": [1], "name": name}
        with pytest.raises(ProblemFormatError, match="name must be a string"):
            problem_from_dict(doc)

    def test_overflowing_file_is_a_format_error(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"n": 1, "m": 1, "C": [["1e400"]], "A": [[[1]]], "b": [1]}')
        assert main(["reduce", str(path)]) == 1
        assert "problem format error" in capsys.readouterr().err

    def test_overlong_integer_rejected_on_load(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"n": 1, "m": 1, "C": [[%s]], "A": [[[1]]], "b": [1]}' % ("1" * 5000))
        with pytest.raises(ProblemFormatError, match=re.escape(str(path))):
            load_problem(path)

    def test_json_infinity_rejected_on_load(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text('{"n": 1, "m": 1, "C": [[Infinity]], "A": [[[1]]], "b": [1]}')
        with pytest.raises(ProblemFormatError, match=r"C\[0\]: non-finite entry inf"):
            load_problem(path)


class TestReportFormat:
    def test_report_round_trips_losslessly(self, bounded_pair):
        out = run_pipeline(bounded_pair, PipelineConfig(bound_mode=3.0))
        report = report_to_dict(out, timings={"total_s": 0.125})
        assert json.loads(json.dumps(report)) == report

    def test_check_flags_are_json_booleans(self, corpus_dir, tmp_path, capsys):
        main(["reduce", str(corpus_dir), "--out", str(tmp_path)])
        capsys.readouterr()
        flags = [
            (p.name, key, check[key])
            for p in tmp_path.glob("*.report.json")
            for check in json.loads(p.read_text())["residuals"].values()
            for key in ("ok", "strict")
            if key in check
        ]
        # ok of the optimal check: bounded, aux_unattained and duality_gap;
        # ok and strict of both directions, the failing one too: unbounded,
        # aux_unattained and both_infeasible (duality_gap's t' is nonzero)
        assert len(flags) == 15
        assert all(isinstance(v, bool) for _, _, v in flags), flags

    def test_certified_exponent_as_decimal_string(self, corpus_dir, bounded_pair, tmp_path, capsys):
        # reduce reports an exact pair's exponent as a decimal string, and none for float data
        assert main(["reduce", str(corpus_dir / "bounded.json"), "--json"]) == 0
        M = json.loads(capsys.readouterr().out)["M"]
        assert M["certified_log2"] == str(certified_bound_M(bounded_pair))
        assert int(M["certified_log2"]) > 10**20
        assert main(["gen", "random-slater", "--n", "2", "--m", "2", "--seed", "3", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["reduce", str(next(tmp_path.glob("*.json"))), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["M"]["certified_log2"] is None


class TestGen:
    def test_example_corpus_files(self, corpus_dir):
        names = sorted(p.name for p in corpus_dir.glob("*.json"))
        assert names == [
            "aux_unattained.json",
            "both_infeasible.json",
            "bounded.json",
            "duality_gap.json",
            "unbounded.json",
        ]
        expected = {
            "bounded": "StronglyOptimal",
            "unbounded": "PrimalUnboundedCert",
            "both_infeasible": "DualUnboundedCert",
            "aux_unattained": "Inconclusive",
            "duality_gap": "Inconclusive",
        }
        for stem, kind in expected.items():
            doc = json.loads((corpus_dir / f"{stem}.json").read_text())
            assert doc["expected_outcome"] == kind

    def test_generator_determinism(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert main(["gen", "random-slater", "--n", "3", "--m", "2", "--seed", "7", "--out", str(d)]) == 0
        f1 = next(d1.glob("*.json")).read_text()
        f2 = next(d2.glob("*.json")).read_text()
        assert f1 == f2

    def test_out_of_range_parameters_rejected(self, tmp_path, capsys):
        n = str(generators.MAX_SIZE + 1)
        assert main(["gen", "random-slater", "--n", n, "--m", "2", "--out", str(tmp_path)]) == 1
        capsys.readouterr()

    def test_khachiyan_file_solves_to_closed_form(self, tmp_path, capsys):
        assert main(["gen", "khachiyan", "--n", "2", "--tau", "2", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        path = tmp_path / "khachiyan_n2_tau2.json"
        assert main(["solve", str(path), "--tol", "1e-12", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["primal_value"] == pytest.approx(2.0**-10, rel=1e-3)


class TestReduce:
    def test_exit_codes_over_corpus(self, corpus_dir, tmp_path, capsys):
        expected = {
            "bounded": 0,
            "unbounded": 2,
            "both_infeasible": 2,
            "aux_unattained": 3,
            "duality_gap": 3,
        }
        for stem, code in expected.items():
            rc = main(["reduce", str(corpus_dir / f"{stem}.json"), "--json"])
            capsys.readouterr()
            assert rc == code, stem

    def test_bounded_report_contents(self, corpus_dir, capsys):
        rc = main(["reduce", str(corpus_dir / "bounded.json"), "--M", "3", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["outcome"] == "StronglyOptimal"
        assert np.allclose(out["X"], [[1.0, 0.0], [0.0, 0.0]], atol=1e-4)
        assert out["y"][0] == pytest.approx(1.0, abs=1e-4)

    def test_both_infeasible_direction(self, corpus_dir, capsys):
        rc = main(["reduce", str(corpus_dir / "both_infeasible.json"), "--M", "1", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 2
        assert out["outcome"] == "DualUnboundedCert"
        assert out["direction_y"][0] == pytest.approx(2.0 / 3.0, abs=1e-4)

    def test_duality_gap_note(self, corpus_dir, capsys):
        rc = main(["reduce", str(corpus_dir / "duality_gap.json"), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 3
        assert any("no pair of strongly optimal" in s for s in out["notes"])

    def test_batch_directory(self, corpus_dir, tmp_path, capsys):
        rc = main(["reduce", str(corpus_dir), "--out", str(tmp_path / "reports")])
        capsys.readouterr()
        assert rc == 3  # worst outcome over the corpus
        reports = sorted(p.name for p in (tmp_path / "reports").glob("*.report.json"))
        assert len(reports) == 5

    def test_bad_file_does_not_sink_the_batch(self, corpus_dir, tmp_path, capsys):
        batch = tmp_path / "batch"
        batch.mkdir()
        for src in corpus_dir.glob("*.json"):
            (batch / src.name).write_text(src.read_text())
        (batch / "bad.json").write_text("{not json")
        out = tmp_path / "reports"
        rc = main(["reduce", str(batch), "--json", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 1
        docs, pos, decoder = {}, 0, json.JSONDecoder()
        while stdout[pos:].strip():
            doc, end = decoder.raw_decode(stdout[pos:].lstrip())
            pos = len(stdout) - len(stdout[pos:].lstrip()) + end
            docs.update(doc)
        assert sorted(docs) == sorted(p.name for p in batch.glob("*.json"))
        assert "problem format error" in docs["bad.json"]["error"]
        assert docs["bounded.json"]["outcome"] == "StronglyOptimal"
        reports = {p.name: json.loads(p.read_text()) for p in out.glob("*.report.json")}
        assert len(reports) == 6
        assert set(reports["bad.report.json"]) == {"error"}
        assert reports["unbounded.report.json"]["outcome"] == "PrimalUnboundedCert"

    def test_bad_file_in_text_batch(self, corpus_dir, tmp_path, capsys):
        batch = tmp_path / "batch"
        batch.mkdir()
        (batch / "bounded.json").write_text((corpus_dir / "bounded.json").read_text())
        (batch / "bad.json").write_text('{"n": true, "m": 1, "C": [[1]], "A": [[[1]]], "b": [1]}')
        rc = main(["reduce", str(batch)])
        stdout = capsys.readouterr().out
        assert rc == 1
        assert "instance    : bad.json\nerror       : problem format error:" in stdout
        assert "instance    : bounded.json\noutcome     : StronglyOptimal" in stdout

    def test_parse_error_exits_one(self, tmp_path, capsys):
        # a single file's error reaches main: one stderr line, no report
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        for extra in ([], ["--json"]):
            assert main(["reduce", str(bad), *extra]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("problem format error:")

    def test_bad_last_file_keeps_earlier_reports(self, corpus_dir, tmp_path, capsys):
        batch = tmp_path / "batch"
        batch.mkdir()
        for stem in ("bounded", "unbounded"):
            (batch / f"{stem}.json").write_text((corpus_dir / f"{stem}.json").read_text())
        (batch / "zz_bad.json").write_text("{not json")
        out = tmp_path / "reports"
        assert main(["reduce", str(batch), "--out", str(out)]) == 1
        capsys.readouterr()
        reports = {p.name: json.loads(p.read_text()) for p in out.glob("*.report.json")}
        assert reports["bounded.report.json"]["outcome"] == "StronglyOptimal"
        assert reports["unbounded.report.json"]["outcome"] == "PrimalUnboundedCert"
        assert reports["zz_bad.report.json"]["error"].startswith("problem format error:")

    def test_batch_runs_in_order_in_the_calling_thread(self, corpus_dir, tmp_path, monkeypatch, capsys):
        batch = tmp_path / "batch"
        batch.mkdir()
        for stem in ("unbounded", "bounded", "both_infeasible"):
            (batch / f"{stem}.json").write_text((corpus_dir / f"{stem}.json").read_text())
        out = tmp_path / "reports"
        calls = []
        reduce_one = cli._reduce_one

        def recording(path, args):
            written = sorted(p.name for p in out.glob("*.report.json"))
            calls.append((threading.get_ident(), path.name, written))
            return reduce_one(path, args)

        monkeypatch.setattr(cli, "_reduce_one", recording)
        assert main(["reduce", str(batch), "--out", str(out)]) == 2
        capsys.readouterr()
        names = ["both_infeasible.json", "bounded.json", "unbounded.json"]
        assert [name for _, name, _ in calls] == names
        assert all(ident == threading.get_ident() for ident, _, _ in calls)
        # each file's report is on disk before the next file starts
        for i, (_, _, written) in enumerate(calls):
            assert written == [f"{name[:-5]}.report.json" for name in names[:i]]


class TestVerify:
    def test_optimal_candidate(self, corpus_dir, tmp_path, capsys):
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps({"X": [[1.0, 0.0], [0.0, 0.0]], "y": [1.0]}))
        rc = main(["verify", str(corpus_dir / "bounded.json"), str(cand), "--kind", "optimal"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_primal_direction_candidate(self, corpus_dir, tmp_path, capsys):
        cand = tmp_path / "dir.json"
        W = (np.array([[1.0, 1.5], [1.5, 5.0]]) / 9.0).tolist()
        cand.write_text(json.dumps({"W": W}))
        rc = main(["verify", str(corpus_dir / "unbounded.json"), str(cand), "--kind", "primal-dir"])
        assert rc == 0
        capsys.readouterr()

    def test_reported_dual_direction_passes(self, corpus_dir, tmp_path, capsys):
        # reduce reports y' with sum y'A = diag(-y', 0): a Farkas certificate, not strict
        main(["reduce", str(corpus_dir / "both_infeasible.json"), "--json"])
        report = json.loads(capsys.readouterr().out)
        cand = tmp_path / "dir.json"
        cand.write_text(json.dumps({"y": report["direction_y"]}))
        rc = main(["verify", str(corpus_dir / "both_infeasible.json"), str(cand), "--kind", "dual-dir"])
        assert rc == 0
        assert capsys.readouterr().out == "PASS (Farkas certificate, not strict)\n"

    def test_reported_primal_direction_passes(self, tmp_path, capsys):
        problem = tmp_path / "pair.json"
        save_problem(problem, random_unbounded(3, 3, 1))
        main(["reduce", str(problem), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert report["outcome"] == "PrimalUnboundedCert"
        cand = tmp_path / "dir.json"
        cand.write_text(json.dumps({"W": report["direction_X"]}))
        rc = main(["verify", str(problem), str(cand), "--kind", "primal-dir"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("PASS (Farkas certificate, ")

    def test_early_stopped_certificate_passes_from_its_report(self, tmp_path, capsys):
        # player 1's game solve stops at the first certifying iterate here
        problem = tmp_path / "pair.json"
        save_problem(problem, random_unbounded(10, 10, 2))
        assert main(["reduce", str(problem), "--M", "10", "--out", str(tmp_path)]) == 2
        report = json.loads((tmp_path / "pair.report.json").read_text())
        assert report["outcome"] == "PrimalUnboundedCert"
        assert report["residuals"]["primal"]["min_constraint_value"] >= 0
        capsys.readouterr()
        assert main(["verify", str(problem), str(tmp_path / "pair.report.json")]) == 0
        assert capsys.readouterr().out.startswith("PASS (Farkas certificate, ")

    @pytest.mark.parametrize(
        "stem", ["bounded", "unbounded", "both_infeasible", "duality_gap", "aux_unattained"]
    )
    def test_report_form_reads_the_kind_from_the_outcome(self, corpus_dir, tmp_path, capsys, stem):
        main(["reduce", str(corpus_dir / f"{stem}.json"), "--out", str(tmp_path)])
        capsys.readouterr()
        rc = main(["verify", str(corpus_dir / f"{stem}.json"), str(tmp_path / f"{stem}.report.json")])
        captured = capsys.readouterr()
        expected = {
            "bounded": "PASS\n",
            "unbounded": "PASS (Farkas certificate, strict)\n",
            "both_infeasible": "PASS (Farkas certificate, not strict)\n",
        }
        if stem in expected:
            assert (rc, captured.out) == (0, expected[stem])
        else:  # Inconclusive
            assert (rc, captured.out) == (1, "")
            assert captured.err.startswith("invalid candidate: a report with outcome 'Inconclusive'")

    def test_report_form_checks_at_tol(self, corpus_dir, tmp_path, capsys):
        main(["reduce", str(corpus_dir / "bounded.json"), "--json"])
        report = json.loads(capsys.readouterr().out)
        report["y"] = [report["y"][0] + 1e-3]  # 1e-3 off the optimal y
        path = tmp_path / "bounded.report.json"
        path.write_text(json.dumps(report))
        problem = str(corpus_dir / "bounded.json")
        assert main(["verify", problem, str(path)]) == 2
        assert capsys.readouterr().out == "FAIL\n"
        assert main(["verify", problem, str(path), "--tol", "1e-2"]) == 0
        assert capsys.readouterr().out == "PASS\n"

    @pytest.mark.parametrize(
        "doc,message",
        [({"error": "problem format error: x"}, "the report holds an error"),
         ([1.0], "a report is a JSON object")],
    )
    def test_report_form_rejects_a_report_without_result(self, corpus_dir, tmp_path, capsys, doc, message):
        path = tmp_path / "bad.report.json"
        path.write_text(json.dumps(doc))
        rc = main(["verify", str(corpus_dir / "bounded.json"), str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith(f"invalid candidate: {message}")

    def test_bad_candidate_fails(self, corpus_dir, tmp_path, capsys):
        cand = tmp_path / "zero.json"
        cand.write_text(json.dumps({"X": [[0.0, 0.0], [0.0, 0.0]], "y": [0.0]}))
        rc = main(["verify", str(corpus_dir / "bounded.json"), str(cand), "--kind", "optimal"])
        assert rc != 0
        capsys.readouterr()

    def test_shape_mismatch_is_error(self, corpus_dir, tmp_path, capsys):
        cand = tmp_path / "shape.json"
        cand.write_text(json.dumps({"W": [[1.0]]}))
        rc = main(["verify", str(corpus_dir / "bounded.json"), str(cand), "--kind", "primal-dir"])
        assert rc == 1
        capsys.readouterr()

    @pytest.mark.parametrize("value,shown", [(float("nan"), "nan"), (float("inf"), "inf"),
                                             (float("-inf"), "-inf")])
    @pytest.mark.parametrize(
        "kind,instance,make,field",
        [
            ("optimal", "bounded", lambda v: {"X": [[1.0, 0.0], [0.0, v]], "y": [1.0]}, "X[1][1]"),
            ("optimal", "bounded", lambda v: {"X": [[1.0, 0.0], [0.0, 0.0]], "y": [v]}, "y[0]"),
            ("primal-dir", "unbounded", lambda v: {"W": [[1.0, v], [v, 5.0]]}, "W[0][1]"),
            ("dual-dir", "both_infeasible", lambda v: {"y": [v]}, "y[0]"),
        ],
    )
    def test_non_finite_entry_rejected(
        self, corpus_dir, tmp_path, capsys, kind, instance, make, field, value, shown
    ):
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps(make(value)))  # NaN / Infinity literals
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["verify", str(corpus_dir / f"{instance}.json"), str(cand), "--kind", kind])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{field}: non-finite entry {shown}" in captured.err

    def test_out_of_range_entry_rejected(self, corpus_dir, tmp_path, capsys):
        cand = tmp_path / "cand.json"
        cand.write_text('{"y": [1' + "0" * 400 + "]}")
        rc = main(["verify", str(corpus_dir / "both_infeasible.json"), str(cand), "--kind", "dual-dir"])
        assert rc == 1
        assert "y: entry beyond the float range" in capsys.readouterr().err


class TestSolveAndBound:
    def test_solve_bounded(self, corpus_dir, capsys):
        assert main(["solve", str(corpus_dir / "bounded.json"), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["primal_value"] == pytest.approx(1.0, abs=1e-5)
        assert doc["dual_value"] == pytest.approx(1.0, abs=1e-5)

    def test_solve_both_infeasible_statuses(self, corpus_dir, capsys):
        assert main(["solve", str(corpus_dir / "both_infeasible.json"), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["primal_status"] != "Optimal"
        assert doc["dual_status"] != "Optimal"

    @pytest.mark.parametrize("name", ["both_infeasible", "aux_unattained", "unbounded"])
    def test_solve_prints_no_value_after_a_farkas_status(self, corpus_dir, capsys, name):
        # each solve here ends at a Farkas ray; its diverged iterate's objective
        # (up to 1.2e8 in size) is not a value
        assert main(["solve", str(corpus_dir / f"{name}.json"), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for side in ("primal", "dual"):
            assert doc[f"{side}_status"] in ("PrimalInfeasibleDetected", "DualInfeasibleDetected")
            assert doc[f"{side}_value"] is None

    @pytest.mark.parametrize("name, lines", [
        ("unbounded", ["primal: DualInfeasibleDetected (the dual is infeasible)",
                       "dual  : PrimalInfeasibleDetected (the dual is infeasible)"]),
        ("both_infeasible", ["primal: PrimalInfeasibleDetected (the primal is infeasible)",
                             "dual  : DualInfeasibleDetected (the primal is infeasible)"]),
    ])
    def test_solve_text_names_the_program_a_farkas_status_proves_infeasible(
        self, corpus_dir, capsys, name, lines
    ):
        # the dual side solves the pair's dual as its own primal, so its
        # PrimalInfeasibleDetected is about the pair's dual
        assert main(["solve", str(corpus_dir / f"{name}.json")]) == 0
        assert capsys.readouterr().out.splitlines() == lines

    def test_scaled_pair_solves_on_both_sides(self, scaled_pair, tmp_path, capsys):
        # both sides are strictly feasible, with data far from unit scale
        res = solve_both(scaled_pair)
        assert (res["primal_status"], res["dual_status"]) == ("Optimal", "Optimal")
        path = tmp_path / "scaled.json"
        save_problem(path, scaled_pair)
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr().out
        assert "infeasible" not in out
        assert out.splitlines()[0].startswith("primal: Optimal  value=")

    def test_bound_practical(self, corpus_dir, capsys):
        assert main(["bound", str(corpus_dir / "bounded.json"), "--practical"]) == 0
        out = capsys.readouterr().out
        assert "practical M : 4" in out

    def test_bound_certified(self, corpus_dir, capsys):
        assert main(["bound", str(corpus_dir / "bounded.json"), "--certified"]) == 0
        out = capsys.readouterr().out
        assert "tau0        : 2" in out
        assert "etabar1" in out

    def test_bound_certified_rejects_float_data(self, tmp_path, capsys):
        pair = SdpPair(C=SymMat([[0.5]]), A=(SymMat([[1.0]]),), b=(1.0,))
        p = tmp_path / "float.json"
        save_problem(p, pair)
        assert main(["bound", str(p), "--certified"]) == 1
        capsys.readouterr()

    def test_bound_both_infeasible_practical(self, corpus_dir, capsys):
        assert main(["bound", str(corpus_dir / "both_infeasible.json"), "--practical"]) == 0
        assert "practical M : 2" in capsys.readouterr().out

    def test_bound_certified_smallest_case(self, tmp_path, capsys):
        from sdgames.bounds import eta_bar

        pair = SdpPair(C=SymMat([[1]]), A=(SymMat([[1]]),), b=(1,))
        path = tmp_path / "tiny.json"
        save_problem(path, pair)
        assert main(["bound", str(path), "--certified"]) == 0
        out = capsys.readouterr().out
        assert f"etabar1     : {eta_bar(1, 1, 1)}" in out
        assert f"certified lg M: {eta_bar(1, 1, 1) + 2}" in out

    def test_bound_certified_past_the_int_digit_limit(self, kh15, capsys):
        # the exponent's 4,675 digits exceed the interpreter's int -> str cap
        assert main(["bound", str(kh15), "--certified"]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("certified lg M: ")
        digits = line.removeprefix("certified lg M: ")
        assert len(digits) == 4675
        assert decimal.Decimal(digits) == certified_bound_M(load_problem(kh15)[0])

    def test_reduce_reports_the_exponent_past_the_int_digit_limit(self, kh15, bounded_pair, monkeypatch):
        # the pipeline is stood in by bounded's outcome: only the report's
        # exponent is under test, not a 30 x 30 solve
        outcome = run_pipeline(bounded_pair)
        monkeypatch.setattr(cli, "run_pipeline", lambda pair, config: outcome)
        _, report = cli._reduce_one(kh15, argparse.Namespace(M="auto", tol=1e-10))
        digits = report["M"]["certified_log2"]
        assert len(digits) == 4675
        assert decimal.Decimal(digits) == certified_bound_M(load_problem(kh15)[0])

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "1e400", "one"])
    @pytest.mark.parametrize(
        "command, flag",
        [("reduce", "--tol"), ("reduce", "--M"), ("verify", "--tol"), ("solve", "--tol")],
    )
    def test_tol_and_bound_are_finite_positive_numbers(
        self, corpus_dir, monkeypatch, capsys, command, flag, value
    ):
        def no_load(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(cli, "load_problem", no_load)
        problem = str(corpus_dir / "bounded.json")
        inputs = {"reduce": [str(corpus_dir)], "verify": [problem, problem], "solve": [problem]}
        with pytest.raises(SystemExit) as exc:
            main([command, *inputs[command], flag, value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {flag}: '{value}' is not a finite positive number" in err

    @pytest.mark.parametrize("value", ["0.5", "0.999"])
    def test_bound_below_one_is_a_usage_error(self, corpus_dir, monkeypatch, capsys, value):
        def no_load(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(cli, "load_problem", no_load)
        with pytest.raises(SystemExit) as exc:
            main(["reduce", str(corpus_dir), "--M", value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument --M: '{value}' is below 1" in err

    def test_reduce_and_solve_agree_on_slater_instances(self, tmp_path, capsys):
        for seed in (3, 4):
            d = tmp_path / f"s{seed}"
            assert main(
                ["gen", "random-slater", "--n", "2", "--m", "2", "--seed", str(seed), "--out", str(d)]
            ) == 0
            capsys.readouterr()
            path = next(d.glob("*.json"))
            assert main(["reduce", str(path), "--json"]) == 0
            red = json.loads(capsys.readouterr().out)
            assert main(["solve", str(path), "--json"]) == 0
            sol = json.loads(capsys.readouterr().out)
            pair, _ = load_problem(path)
            from sdgames.model import frobenius_inner

            Xr = SymMat(np.array(red["X"]))
            obj = frobenius_inner(pair.C.to_float(), Xr)
            val = sol["primal_value"]
            assert abs(val - obj) <= 1e-5 * (1 + abs(val))
