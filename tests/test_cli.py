import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import polydesign
import polydesign.cli
import polydesign.solver
from polydesign import DesignProblem, document_from_result, elfving_lp, oracle_variance, render_document, solve
from polydesign.cli import main
from polydesign.document import format_float
from polydesign.points import s_points

from test_elfving import moved_support_case


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_compute_table_golden():
    code, text = run_cli(["compute", "--degree", "3", "--coef", "1"])
    assert code == 0
    assert "case:      C" in text
    assert "variance:  9" in text
    assert "certificate Chebyshev coeffs c_1..c_n: [0, 0, -1]" in text
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


def test_main_calls_do_not_share_arguments(tmp_path):
    # the parser is built once; each call still starts from the defaults
    run_cli(["compute", "--degree", "3", "--coef", "1", "--format", "json"])
    code, text = run_cli(["compute", "--degree", "3", "--coef", "1"])
    assert code == 0
    assert text.startswith("degree:    3\n")
    path = _moved_support_file(tmp_path)
    argv = ["verify", "--file", str(path), "--degree", "30", "--coef", "29"]
    _, report = run_cli(argv + ["--tol", "1e-3"])
    assert "condition1_ok:       true" in report
    _, report = run_cli(argv)
    assert "condition1_ok:       false" in report


def _cli_env():
    src = os.path.dirname(os.path.dirname(polydesign.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


# tier-1 imports SciPy in this process (test_oracle), so a fresh interpreter
# reports which CLI calls load it
_SCIPY_PROBE = """
import io, json, sys
import polydesign
from polydesign.cli import main
path = sys.argv[1]
loaded = {"import": "scipy" in sys.modules, "logging": "logging" in sys.modules}
out = io.StringIO()
main(["compute", "--degree", "5", "--coef", "3", "--format", "json"], out=out)
loaded["compute"] = "scipy" in sys.modules
with open(path, "w", encoding="utf-8") as handle:
    handle.write(out.getvalue())
main(["verify", "--file", path, "--degree", "5", "--coef", "3"], out=io.StringIO())
loaded["verify"] = "scipy" in sys.modules
main(["examples"], out=io.StringIO())
loaded["examples"] = "scipy" in sys.modules
main(["oracle", "--degree", "4", "--coef", "2"], out=io.StringIO())
loaded["oracle"] = "scipy" in sys.modules
print(json.dumps(loaded))
"""


def test_scipy_loads_only_with_the_lp_oracle(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(tmp_path / "design.json")],
                          env=_cli_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "import": False, "logging": False, "compute": False, "verify": False, "examples": False,
        "oracle": True,
    }


def test_closed_stdout_exits_quietly():
    # stdout is a pipe whose read end is closed before the CLI writes, so
    # every write fails with EPIPE, as after `| head -1` has exited
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "polydesign.cli", "examples"],
                              env=_cli_env(), stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_with_an_io_error():
    # every write to /dev/full fails with ENOSPC: exit 74 (EX_IOERR), not the
    # documented 1 of a failed verification, with one line and no traceback
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "polydesign.cli", "compute",
                               "--degree", "3", "--coef", "1"],
                              env=_cli_env(), stdout=full, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    assert proc.returncode == 74
    assert proc.stderr == "error: cannot write output: No space left on device\n"


def test_oracle_command_solves_once(monkeypatch):
    calls = []
    real = polydesign.solver.solve

    def counting(problem):
        calls.append(problem)
        return real(problem)

    monkeypatch.setattr(polydesign.solver, "solve", counting)
    monkeypatch.setattr(polydesign.cli, "solve", counting)
    code, _ = run_cli(["oracle", "--degree", "4", "--coef", "2"])
    assert code == 0
    assert calls == [DesignProblem(4, 2)]


# a second --grid overrides the first, as argparse keeps the last value
@pytest.mark.parametrize("extra", [[], ["--grid", "0"], ["--grid", "-3"]])
def test_oracle_rejects_grid_below_two_points(capsys, extra):
    code, out = run_cli(["oracle", "--degree", "3", "--coef", "1", "--grid", "1", *extra])
    assert code == 2
    assert out == ""
    assert "grid must have at least 2 points" in capsys.readouterr().err


def test_verify_solver_output_file(tmp_path):
    problem = DesignProblem(3, 3)
    doc_text = render_document(document_from_result(solve(problem)))
    path = tmp_path / "design.json"
    path.write_text(doc_text)
    code, text = run_cli(["verify", "--file", str(path), "--degree", "3", "--coef", "3"])
    assert code == 0
    assert "verdict:             true" in text
    assert "variance (formula):  16" in text


@pytest.mark.parametrize("p", range(1, 31))
def test_compute_json_verifies_at_degree_30(tmp_path, p):
    code, text = run_cli(["compute", "--degree", "30", "--coef", str(p), "--format", "json"])
    assert code == 0
    path = tmp_path / "design.json"
    path.write_text(text)
    code, report = run_cli(["verify", "--file", str(path), "--degree", "30", "--coef", str(p)])
    assert code == 0, report
    assert report.count("verdict:             true") == 1  # cases A and B: one design


@pytest.mark.parametrize("n, p, expected", [
    (9, 3, 0), (10, 4, 0), (11, 3, 0), (12, 5, 0),
    # the stored monomials of E_30 reach max |P| = 1 + 4.6e-7 on [-1, 1]
    (30, 2, 1),
])
def test_verify_version_0_1_0_files(n, p, expected):
    path = Path(__file__).parent / "data" / f"v0.1.0_{n}_{p}.json"
    code, report = run_cli(["verify", "--file", str(path), "--degree", str(n), "--coef", str(p)])
    assert code == expected, report


def test_verify_version_0_1_0_nonzero_intercept_exits_2(tmp_path, capsys):
    raw = json.loads((Path(__file__).parent / "data" / "v0.1.0_10_4.json").read_text())
    raw["certificate_coeffs"][0] = 0.5
    path = tmp_path / "intercept.json"
    path.write_text(json.dumps(raw))
    code, out = run_cli(["verify", "--file", str(path), "--degree", "10", "--coef", "4"])
    assert code == 2
    assert out == ""
    assert "zero intercept" in capsys.readouterr().err


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


@pytest.mark.parametrize("fields", [
    {"variance": "1"},
    {"h": True},
    {"certificate_chebyshev": ["0", True]},
    {"certificate_chebyshev": None, "certificate_coeffs": [0, 0, "1"]},
    {"designs": [{"support": ["-1", 1.0], "weights": [0.5, 0.5]}]},
    {"designs": [{"support": [-1.0, 1.0], "weights": ["0.5", "0.5"]}]},
    None,  # the minimal form
])
def test_verify_non_number_exits_2(tmp_path, capsys, fields):
    # float() used to convert "-1" and true, so all but the first certificate
    # verified (exit 0); fields set to None are removed
    if fields is None:
        raw = {"support": ["-1", True], "weights": ["0.5", "0.5"]}
    else:
        raw = json.loads(render_document(document_from_result(solve(DesignProblem(2, 2)))))
        raw.update(fields)
        raw = {key: value for key, value in raw.items() if value is not None}
    path = tmp_path / "non_number.json"
    path.write_text(json.dumps(raw))
    code, out = run_cli(["verify", "--file", str(path), "--degree", "2", "--coef", "2"])
    assert code == 2
    assert out == ""
    assert "expected a JSON number" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ('{"support": 1, "weights": [1.0]}', "support: expected a list of JSON numbers, got 1"),
    (None, "design file contains no designs"),
])
def test_verify_malformed_design_list_exits_2(tmp_path, capsys, text, message):
    # text None is a full document with "designs": []
    if text is None:
        raw = json.loads(render_document(document_from_result(solve(DesignProblem(3, 3)))))
        raw["designs"] = []
        text = json.dumps(raw)
    path = tmp_path / "malformed.json"
    path.write_text(text)
    code, out = run_cli(["verify", "--file", str(path), "--degree", "3", "--coef", "3"])
    assert code == 2
    assert out == ""
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("case_tag", [[1], 3, True, None])
def test_verify_non_string_case_tag_exits_2(tmp_path, capsys, case_tag):
    # str() used to convert any value, so "case_tag": [1] verified (exit 0)
    raw = json.loads(render_document(document_from_result(solve(DesignProblem(2, 2)))))
    raw["case_tag"] = case_tag
    path = tmp_path / "case_tag.json"
    path.write_text(json.dumps(raw))
    code, out = run_cli(["verify", "--file", str(path), "--degree", "2", "--coef", "2"])
    assert code == 2
    assert out == ""
    assert "case_tag must be a JSON string" in capsys.readouterr().err


def test_verify_prints_the_condition_tolerance(tmp_path):
    # each condition line names the --tol in effect
    path = tmp_path / "design.json"
    path.write_text(run_cli(["compute", "--degree", "3", "--coef", "1", "--format", "json"])[1])
    argv = ["verify", "--file", str(path), "--degree", "3", "--coef", "1"]
    for tol, text in [([], "1e-09"), (["--tol", "1e-3"], "0.001")]:
        code, report = run_cli(argv + tol)
        assert code == 0
        assert f"condition1_ok:       true  (max |P| = 1; ok when <= 1 + {text})\n" in report
        assert f"condition2_ok:       true  (ok when ||P(x_i)| - 1| <= {text})\n" in report
        assert f"  (ok when <= {text})\n  h:" in report


def _moved_support_file(tmp_path):
    # a design file whose certificate peaks at 1 + 1.3e-4 between grid points
    problem, design, certificate = moved_support_case(30, 29)
    raw = json.loads(render_document(document_from_result(solve(problem))))
    raw["designs"] = [{"support": design.support.tolist(), "weights": design.weights.tolist()}]
    raw["certificate_chebyshev"] = certificate.coeffs.tolist()
    path = tmp_path / "moved.json"
    path.write_text(json.dumps(raw))
    return path


def test_verify_peak_between_support_points_exits_1(tmp_path):
    # exit 0 while verify sampled condition (1) on a grid of 10001 points
    path = _moved_support_file(tmp_path)
    code, report = run_cli(["verify", "--file", str(path), "--degree", "30", "--coef", "29"])
    assert code == 1
    assert "condition1_ok:       false  (max |P| = 1.0001" in report


def test_verify_names_the_variance_agreement_check(tmp_path):
    # --tol 1e-3 passes the three conditions, but the two variances differ
    # by 2.6e-4 relative, beyond the fixed 1e-8 that --tol does not reach
    path = _moved_support_file(tmp_path)
    argv = ["verify", "--file", str(path), "--degree", "30", "--coef", "29", "--tol", "1e-3"]
    code, report = run_cli(argv)
    assert code == 1
    assert "condition1_ok:       true" in report
    assert "condition2_ok:       true" in report
    assert "variances_agree:     false  (|formula - matrix| <= 1e-08 * matrix)" in report
    assert "verdict:             false" in report


def test_verify_grid_option_exits_2(tmp_path):
    # condition (1) is checked at the certificate's critical points; the
    # grid, and verify's --grid option, are gone
    path = tmp_path / "design.json"
    path.write_text(render_document(document_from_result(solve(DesignProblem(3, 3)))))
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--file", str(path), "--degree", "3", "--coef", "3", "--grid", "10001"])
    assert excinfo.value.code == 2


_HUGE = "1" + "0" * 400  # a JSON integer beyond the double range


@pytest.mark.parametrize("kind", ["support point", "variance", "nesting"])
def test_verify_unconvertible_file_exits_2(tmp_path, capsys, kind):
    # each used to escape as a raw OverflowError or RecursionError, exit 1
    if kind == "support point":
        text = f'{{"support": [-1.0, 0.5, {_HUGE}], "weights": [0.25, 0.5, 0.25]}}'
    elif kind == "variance":
        raw = json.loads(render_document(document_from_result(solve(DesignProblem(3, 3)))))
        text = json.dumps(raw).replace(f'"variance": {raw["variance"]}', f'"variance": {_HUGE}')
        assert _HUGE in text
    else:
        text = "[" * 200000 + "]" * 200000
    path = tmp_path / "unconvertible.json"
    path.write_text(text)
    code, out = run_cli(["verify", "--file", str(path), "--degree", "3", "--coef", "3"])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("top, expected", [(0.0, 0), (1e-300, 2)])
def test_verify_version_0_1_0_long_certificate_is_fast(tmp_path, capsys, top, expected):
    # T_3 in 1,204 stored monomials, zeros above x**3 and `top` at x**1203:
    # the exact conversion used to take 12 s for either, and a nonzero top
    # underflowed to a certificate of degree 347 before the degree check
    monomials = [0.0, -3.0, 0.0, 4.0] + [0.0] * 1200
    monomials[-1] = top
    raw = json.loads(render_document(document_from_result(solve(DesignProblem(3, 3)))))
    del raw["certificate_chebyshev"]
    raw["certificate_coeffs"] = monomials
    path = tmp_path / "long_certificate.json"
    path.write_text(json.dumps(raw))
    start = time.perf_counter()
    code, _ = run_cli(["verify", "--file", str(path), "--degree", "3", "--coef", "3"])
    assert time.perf_counter() - start < 1.0
    assert code == expected
    if expected:
        assert "degree 1203, above the model degree 3" in capsys.readouterr().err


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
        json.dumps(raw["certificate_chebyshev"]), "[1e400, 0, 1]", 1
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


def _oracle_line(text: str, label: str) -> str:
    """The value on the line of ``polydesign oracle``'s report named ``label``."""
    [value] = [ln[len(label) + 1:].strip() for ln in text.splitlines() if ln.startswith(label + ":")]
    return value


def test_oracle_command_reports_tiny_gap():
    code, text = run_cli(["oracle", "--degree", "3", "--coef", "1", "--grid", "2001"])
    assert code == 0
    assert float(_oracle_line(text, "interval relative gap")) <= 1e-7


def test_oracle_command_names_the_searched_grid(capsys):
    # one report: the optimum on all of [-1, 1] and the bound on --grid
    # evenly spaced points, each as the library computes it
    problem = DesignProblem(4, 2)
    argv = ["oracle", "--degree", "4", "--coef", "2", "--grid", "301"]
    code, text = run_cli(argv)
    assert code == 0
    assert _oracle_line(text, "grid") == "301"
    interval = _oracle_line(text, "interval variance")
    grid = _oracle_line(text, "grid variance")
    assert interval == format_float(elfving_lp(problem).variance)
    assert grid == format_float(oracle_variance(problem, 301))
    assert float(grid) >= float(interval)
    assert run_cli(argv)[1] == text
    out = io.StringIO()
    with pytest.raises(SystemExit) as excinfo:  # the flag is gone
        main([*argv, "--include-support"], out=out)
    assert excinfo.value.code == 2
    assert out.getvalue() == capsys.readouterr().out == ""


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


@pytest.fixture
def cold_geometry():
    # solve caches each case's points: clear them so that a patched point
    # family reaches solve, and so that no patched points outlive the test
    polydesign.solver._geometry.cache_clear()
    yield
    polydesign.solver._geometry.cache_clear()


def test_examples_negative_control_off_by_one(cold_geometry, monkeypatch):
    # fault injection: an extremal-point generator with one point nudged
    # must be caught by the reference-table comparison
    real = s_points
    calls = []

    def shifted(k):
        calls.append(k)
        pts = real(k).copy()
        pts[1] += 1e-6
        return pts

    monkeypatch.setattr(polydesign.solver, "s_points", shifted)
    code, _ = run_cli(["examples"])
    assert calls
    assert code != 0
