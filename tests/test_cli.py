import io
import json
import math

import numpy as np
import pytest

import polydesign.solver
from polydesign import DesignProblem, document_from_result, render_document, solve
from polydesign.cli import main
from polydesign.points import SupportFamily, x_points


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_compute_table_golden():
    code, text = run_cli(["compute", "--degree", "3", "--coef", "1"])
    assert code == 0
    assert "case:      C" in text
    assert "variance:  9" in text
    assert text.count("design") == 2


def test_compute_json_round_trips():
    code, text = run_cli(["compute", "--degree", "4", "--coef", "4", "--format", "json"])
    assert code == 0
    raw = json.loads(text)
    assert raw["degree"] == 4 and raw["coef"] == 4
    assert raw["variance"] == pytest.approx((3 + 2 * math.sqrt(2)) ** 2, rel=1e-12)
    assert len(raw["designs"]) == 1


def test_compute_csv_shape():
    code, text = run_cli(["compute", "--degree", "3", "--coef", "3", "--format", "csv"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "degree,coef,case_tag,design_index,support,weight,h,variance"
    assert len(lines) == 1 + 6  # two designs, three points each


def test_compute_deterministic_output():
    first = run_cli(["compute", "--degree", "5", "--coef", "3", "--format", "json"])
    second = run_cli(["compute", "--degree", "5", "--coef", "3", "--format", "json"])
    assert first == second


def test_compute_rejects_out_of_range():
    code, _ = run_cli(["compute", "--degree", "31", "--coef", "1"])
    assert code == 2
    code, _ = run_cli(["compute", "--degree", "4", "--coef", "5"])
    assert code == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["compute", "--degree", "3"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["nonsense"])
    assert excinfo.value.code == 2


def test_verify_solver_output_file(tmp_path):
    problem = DesignProblem(3, 3)
    doc_text = render_document(document_from_result(solve(problem)))
    path = tmp_path / "design.json"
    path.write_text(doc_text)
    code, text = run_cli(["verify", "--file", str(path), "--degree", "3", "--coef", "3"])
    assert code == 0
    assert "verdict:             true" in text
    assert "variance (formula):  16" in text


def test_verify_perturbed_design_exits_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"support": [-1.0, 0.5, 1.0], "weights": [0.2, 0.5, 0.3]}')
    code, text = run_cli(["verify", "--file", str(path), "--degree", "3", "--coef", "3"])
    assert code == 1
    assert "verdict:             false" in text


def test_verify_invalid_weight_sum_exits_2(tmp_path):
    path = tmp_path / "invalid.json"
    path.write_text('{"support": [-1.0, 0.5, 1.0], "weights": [0.2, 0.5, 0.2]}')
    code, _ = run_cli(["verify", "--file", str(path), "--degree", "3", "--coef", "3"])
    assert code == 2


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("full_document", [False, True])
def test_verify_non_finite_token_exits_2(tmp_path, capsys, token, full_document):
    if full_document:
        text = render_document(document_from_result(solve(DesignProblem(3, 3))))
        text = text.replace("-1,", f"{token},", 1)
    else:
        text = f'{{"support": [-1.0, {token}, 1.0], "weights": [0.2, 0.5, 0.3]}}'
    assert token in text
    path = tmp_path / "nonfinite.json"
    path.write_text(text)
    code, out = run_cli(["verify", "--file", str(path), "--degree", "3", "--coef", "3"])
    assert code == 2
    assert out == ""
    assert f"error: non-finite number {token}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fields", [{"degree": 3.9, "coef": 3.2}, {"coef": 3.5}, {"degree": "3"}, {"coef": True}]
)
def test_verify_non_integral_problem_exits_2(tmp_path, capsys, fields):
    # int() used to truncate 3.9 and 3.2 to the requested problem (3, 3)
    raw = json.loads(render_document(document_from_result(solve(DesignProblem(3, 3)))))
    raw.update(fields)
    path = tmp_path / "non_integral.json"
    path.write_text(json.dumps(raw))
    code, out = run_cli(["verify", "--file", str(path), "--degree", "3", "--coef", "3"])
    assert code == 2
    assert out == ""
    assert "must be an integer" in capsys.readouterr().err


def test_verify_unreadable_file_exits_2(tmp_path):
    code, _ = run_cli(["verify", "--file", str(tmp_path / "missing.json"),
                       "--degree", "3", "--coef", "3"])
    assert code == 2


def test_verify_over_degree_certificate_exits_2(tmp_path, capsys):
    # T_3 would certify variance 4 for this degree-1 design; the optimum is 1
    path = tmp_path / "over_degree.json"
    path.write_text(json.dumps({
        "degree": 1, "coef": 1, "case_tag": "C",
        "designs": [{"support": [0.5], "weights": [1.0]}],
        "variance": 4.0, "h": 2.0, "certificate_coeffs": [0, -3, 0, 4],
    }))
    code, out = run_cli(["verify", "--file", str(path), "--degree", "1", "--coef", "1"])
    assert code == 2
    assert out == ""
    assert "above the model degree" in capsys.readouterr().err


def test_verify_non_finite_certificate_exits_2(tmp_path, capsys):
    # json reads 1e400 as inf: verify used to print certificate_scale nan and exit 1
    raw = json.loads(render_document(document_from_result(solve(DesignProblem(3, 3)))))
    text = json.dumps(raw).replace(
        json.dumps(raw["certificate_coeffs"]), "[0, 1e400, 0, 4]", 1
    )
    assert "1e400" in text
    path = tmp_path / "inf_certificate.json"
    path.write_text(text)
    code, out = run_cli(["verify", "--file", str(path), "--degree", "3", "--coef", "3"])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err.startswith("error: invalid certificate")


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["verify", "examples"])
def test_invalid_tolerance_exits_2(tmp_path, capsys, command, tol):
    argv = ["examples"]
    if command == "verify":
        path = tmp_path / "design.json"
        path.write_text(render_document(document_from_result(solve(DesignProblem(3, 3)))))
        argv = ["verify", "--file", str(path), "--degree", "3", "--coef", "3"]
    code, out = run_cli(argv + ["--tol", tol])
    assert code == 2
    assert out == ""
    assert "tolerance must be finite and non-negative" in capsys.readouterr().err


def test_oracle_unbounded_lp_exits_3(capsys):
    # on the grid [-1, 0, 1] e_3 is not representable: the dual LP is unbounded
    code, out = run_cli(["oracle", "--degree", "3", "--coef", "3", "--grid", "3"])
    assert code == 3
    assert out == ""
    assert "error: LP did not terminate" in capsys.readouterr().err


def test_oracle_command_reports_tiny_gap():
    code, text = run_cli(["oracle", "--degree", "3", "--coef", "1",
                          "--grid", "2001", "--include-support"])
    assert code == 0
    rel = float(text.splitlines()[-1].split()[-1])
    assert rel <= 1e-7


def test_examples_match_reference_tables():
    code, text = run_cli(["examples"])
    assert code == 0
    assert "all tables match: true" in text
    deviation = float([ln for ln in text.splitlines() if "max absolute deviation" in ln][0].split()[-1])
    assert deviation <= 1e-12


def test_examples_csv_rows():
    code, text = run_cli(["examples", "--format", "csv"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0].startswith("degree,coef,design_index,")
    # 9 printed tables across the 7 problems: 3+2+3+3+3+4+4+4+4 points... count rows:
    # (3,1): 2 designs x 3, (3,2): 1 x 2, (3,3): 2 x 3, degree-4 problems: 4 x 4 each
    expected_rows = 2 * 3 + 2 + 2 * 3 + 4 * 4
    assert len(lines) == 1 + expected_rows + 2  # header + rows + two summary lines


def test_examples_negative_control_off_by_one(monkeypatch):
    # fault injection: an extremal-point generator with one point nudged
    # must be caught by the reference-table comparison
    real = x_points

    def shifted(k):
        fam = real(k)
        pts = fam.points.copy()
        pts[1] += 1e-6
        return SupportFamily(kind=fam.kind, k=fam.k, points=pts)

    monkeypatch.setattr(polydesign.solver, "x_points", shifted)
    code, _ = run_cli(["examples"])
    assert code != 0
