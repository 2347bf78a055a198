"""End-to-end checks of the command line: ``cli.main`` on fixture files, read by exit status, text and JSON."""

import json
import shutil
from fractions import Fraction

import tamecert.pipeline as pipeline_mod
from tamecert import LieAlgebra, TwoForm, corpus_run, decide, standard_complex_structure
from tamecert.cli import main as cli_main
from tamecert.errors import ExactificationFailed
from tamecert.forms import is_taming
from tamecert.pipeline import EXIT_INCONSISTENT, EXIT_INPUT_ERROR, EXIT_OK, EXIT_UNKNOWN

from conftest import FIXTURES_DIR, SQRT2_ALMOST_ABELIAN, aff_r2_rescaled, dense_conjugate, direct_sum


def write_fixture(path, g, J) -> str:
    """Write (g, J) as a fixture named after the file; return its path."""
    brackets = [{"i": i, "j": j, "v": {str(k): str(x) for k, x in comps}} for (i, j), comps in g.structure_constants]
    J_rows = [[str(x) for x in row] for row in J.matrix]
    path.write_text(json.dumps({"name": path.stem, "dim": g.dim, "brackets": brackets, "J": J_rows}))
    return str(path)


def run_json(capsys, *argv, code=EXIT_OK) -> dict:
    """The report of ``tamecert <argv> --json``, which must exit with code."""
    assert cli_main([*argv, "--json"]) == code
    return json.loads(capsys.readouterr().out)


def reported_omega_tames(feasibility: dict, J) -> bool:
    """Whether the report's omega is re-proved taming J by exact leading minors."""
    omega = {(e["i"], e["j"]): Fraction(e["v"]) for e in feasibility["omega"]}
    return feasibility["verdict"] == "feasible" and bool(is_taming(TwoForm.from_dict(J.dim, omega), J))


def test_dense_h3_r_4_is_infeasible(corpus, tmp_path, capsys):
    # n = 16: the theorem applies (completely solvable, J integrable) and holds,
    # nilpotent and not abelian, so Infeasible with a rank-one direction
    h3 = corpus["h3_r"]
    path = write_fixture(tmp_path / "h3_r_4.json", *dense_conjugate(*direct_sum([(h3.algebra, h3.J)] * 4)))
    r = run_json(capsys, "analyze", path)
    assert r["j_status"]["integrable"] is True
    assert r["theorem_consistency"] == {"applicable": True, "consistent": True, "detail": "applicable and consistent"}
    assert r["feasibility"]["verdict"] == "infeasible" and r["feasibility"]["rank_one_direction"]


def test_dense_kaehler_sums_are_feasible(corpus, tmp_path, capsys):
    aff = corpus["aff_r2"]
    # aff_r2^3, n = 12: integrable, and Feasible like every conjugate of a Kaehler sum
    path = write_fixture(tmp_path / "aff_r2_3.json", *dense_conjugate(*direct_sum([(aff.algebra, aff.J)] * 3)))
    r = run_json(capsys, "analyze", path)
    assert r["j_status"]["integrable"] is True and r["feasibility"]["verdict"] == "feasible"
    # aff_r2 beside its dense conjugate, n = 8: J has a sparse and a dense block,
    # so the taming Gram, written from J's nonzero entries, sees both densities
    g, J = direct_sum([(aff.algebra, aff.J), dense_conjugate(aff.algebra, aff.J)])
    r = run_json(capsys, "analyze", write_fixture(tmp_path / "aff_r2_mixed.json", g, J))
    assert r["j_status"]["integrable"] is True and reported_omega_tames(r["feasibility"], J)
    # R^12: d on 2-forms is 220 x 66 zeros and the taming Gram is diagonal 12 x 12
    J = standard_complex_structure(12)
    path = write_fixture(tmp_path / "r12.json", LieAlgebra.from_brackets(12, {}), J)
    assert reported_omega_tames(run_json(capsys, "tame", path)["feasibility"], J)


def test_feasible_on_a_non_abelian_algebra_is_inconsistent(corpus, tmp_path, capsys, monkeypatch):
    # the paper's direction of the sweep: h3_r is unimodular, completely
    # solvable and not abelian, so the theorem forbids a Feasible verdict there
    feasible = decide(corpus["abelian_r4"].algebra, corpus["abelian_r4"].J)
    monkeypatch.setattr(pipeline_mod, "_decide", lambda g, J, derived: feasible)
    shutil.copy(FIXTURES_DIR / "h3_r.json", tmp_path)
    t = run_json(capsys, "analyze", str(tmp_path / "h3_r.json"), code=EXIT_INCONSISTENT)["theorem_consistency"]
    assert t["applicable"] is True and t["consistent"] is False
    assert t["detail"] == "INCONSISTENT: Feasible taming form on a non-abelian unimodular completely solvable algebra"
    assert run_json(capsys, "corpus", str(tmp_path), code=EXIT_INCONSISTENT)["inconsistencies"] == 1


def test_analyze_without_j(tmp_path, capsys):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"name": "bare", "dim": 4, "brackets": [{"i": 0, "j": 1, "v": {"2": 1}}]}))
    assert cli_main(["analyze", str(path)]) == EXIT_OK
    assert "  feasibility: skipped (no J)\n" in capsys.readouterr().out
    r = run_json(capsys, "analyze", str(path))
    assert r["feasibility"] is None and r["j_status"] == {"present": False, "integrable": None}
    detail = "no complex structure supplied; theorem sweep not applicable"
    assert r["theorem_consistency"] == {"applicable": False, "consistent": True, "detail": detail}


def test_abelian_r8_tower_quotients_by_e1_four_times(capsys):
    # the longest tower in the corpus: every bracket of each step is zero, so each
    # step quotients by e_1's line, with no weight search, and drops the dimension by 2
    r = run_json(capsys, "reduce", str(FIXTURES_DIR / "abelian_r8.json"))
    assert [s["reduced_dim"] for s in r["steps"]] == [6, 4, 2, 0] and r["terminal_dim"] == 0
    for s, dim in zip(r["steps"], (8, 6, 4, 2)):
        assert s["perp_dim"] == dim - 1 and s["ideal_generator"] == ["1"] + ["0"] * (dim - 1)


def test_reduce_refuses_an_open_omega(tmp_path, capsys):
    # aff_r2's omega plus X1 ^ H2 (the pair (1, 2)) still tames J but is not closed
    doc = json.loads((FIXTURES_DIR / "aff_r2.json").read_text())
    doc["omega"].append({"i": 1, "j": 2, "v": 1})
    (tmp_path / "open.json").write_text(json.dumps(doc))
    assert cli_main(["reduce", str(tmp_path / "open.json")]) == EXIT_INPUT_ERROR
    assert "closed" in capsys.readouterr().err


def test_corpus_exit_codes_and_text_table(tmp_path, capsys):
    assert cli_main(["corpus", str(FIXTURES_DIR), "--jobs", "3"]) == EXIT_OK
    assert capsys.readouterr().out.endswith("  inconsistencies: 0\n")
    assert cli_main(["corpus", str(tmp_path)]) == EXIT_OK
    assert "  (no fixtures)\n" in capsys.readouterr().out
    shutil.copy(SQRT2_ALMOST_ABELIAN, tmp_path)
    assert cli_main(["corpus", str(tmp_path)]) == EXIT_UNKNOWN
    assert "sqrt2_almost_abelian        unknown" in capsys.readouterr().out
    # a malformed file beside a good one and one without J: an ERROR row, not a traceback
    (tmp_path / "sqrt2_almost_abelian.json").unlink()
    shutil.copy(FIXTURES_DIR / "aff_r.json", tmp_path)
    (tmp_path / "bad.json").write_text(json.dumps({"name": "bad", "dim": 2, "brackets": 5}))
    (tmp_path / "bare.json").write_text(json.dumps({"name": "bare", "dim": 2, "brackets": []}))
    assert cli_main(["corpus", str(tmp_path)]) == EXIT_INPUT_ERROR
    out = capsys.readouterr().out
    rows = {cells[0]: cells[1:] for cells in map(str.split, out.splitlines()[2:-1])}
    assert rows["aff_r"] == ["feasible", "False", "True"] and rows["bare"] == ["skipped", "False", "True"]
    assert rows["bad"][0] == "ERROR:" and "'brackets' must be a list" in out
    assert out.endswith("  inconsistencies: 0\n")


def test_corpus_reports_an_error_raised_by_analyze(tmp_path, monkeypatch):
    def fail(g, J, derived):
        raise ExactificationFailed("no certificate")

    monkeypatch.setattr(pipeline_mod, "_decide", fail)
    shutil.copy(FIXTURES_DIR / "aff_r.json", tmp_path)
    result = corpus_run(tmp_path)
    assert [(e.name, e.report, e.error) for e in result.entries] == [("aff_r", None, "no certificate")]
    assert result.exit_code == EXIT_INPUT_ERROR


def test_float_range_inputs_write_no_warning(tmp_path, capsys):
    # ROADMAP item 30's inputs, aff_r2 with J conjugated by diag(1, 10^k, 1, 10^k): at k = 160
    # tame exits 3 on an Unknown and writes no warning to stderr (the overflow goes to the log, which
    # pytest captures), and at k = 310 it exits 1 with the one error line of the float Gram stack
    assert cli_main(["tame", write_fixture(tmp_path / "aff_r2_160.json", *aff_r2_rescaled(160))]) == EXIT_UNKNOWN
    assert capsys.readouterr().err == ""
    assert cli_main(["tame", write_fixture(tmp_path / "aff_r2_310.json", *aff_r2_rescaled(310))]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: a closed Gram form has an entry beyond the range of a double")
