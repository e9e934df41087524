import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from polydesign import (
    DesignProblem,
    DocumentError,
    Polynomial,
    __version__,
    document_from_result,
    parse_design_file,
    parse_document,
    render_document,
    solve,
)

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("key", [(3, 1), (3, 2), (4, 2), (5, 5), (1, 1)])
def test_round_trip(key):
    doc = document_from_result(solve(DesignProblem(*key)))
    text = render_document(doc)
    assert parse_document(text) == doc
    # and the text itself is stable under one more cycle
    assert render_document(parse_document(text)) == text


def test_rendering_uses_17_significant_digits():
    doc = document_from_result(solve(DesignProblem(3, 1)))
    text = render_document(doc)
    # the weight at x = -1, 1/9 up to rounding, in all 17 digits of its
    # double; the double nearest 1/9 would read 0.1111111111111111
    assert "0.11111111111111117" in text
    assert json.loads(text)["degree"] == 3


def test_rendered_floats_reparse_exactly():
    doc = document_from_result(solve(DesignProblem(4, 4)))
    raw = json.loads(render_document(doc))
    for entry, design in zip(raw["designs"], doc.designs):
        assert entry["support"] == design["support"]
        assert entry["weights"] == design["weights"]
    assert raw["variance"] == doc.variance
    assert raw["h"] == doc.h


def test_parse_design_file_full_document():
    problem = DesignProblem(3, 3)
    text = render_document(document_from_result(solve(problem)))
    designs, certificate = parse_design_file(text, problem)
    assert len(designs) == 2
    assert certificate is not None
    np.testing.assert_array_equal(certificate.coeffs, [0, 0, 1])  # T_3 = g_3


def test_parse_design_file_parses_the_text_once(monkeypatch):
    problem = DesignProblem(3, 3)
    text = render_document(document_from_result(solve(problem)))
    calls = []
    real = json.loads

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counting)
    designs, certificate = parse_design_file(text, problem)
    assert len(designs) == 2 and certificate is not None
    assert calls == [text]


def test_parse_design_file_minimal_form():
    problem = DesignProblem(3, 2)
    designs, certificate = parse_design_file(
        '{"support": [-1.0, 1.0], "weights": [0.5, 0.5]}', problem
    )
    assert len(designs) == 1
    assert certificate is None


def test_parse_design_file_rejects_bad_weights():
    problem = DesignProblem(3, 2)
    with pytest.raises(DocumentError):
        parse_design_file('{"support": [-1.0, 1.0], "weights": [0.5, 0.4]}', problem)


def test_parse_design_file_rejects_wrong_problem():
    problem = DesignProblem(3, 3)
    text = render_document(document_from_result(solve(problem)))
    with pytest.raises(DocumentError):
        parse_design_file(text, DesignProblem(4, 3))


def test_parse_design_file_rejects_garbage():
    problem = DesignProblem(2, 1)
    with pytest.raises(DocumentError):
        parse_design_file("not json", problem)
    with pytest.raises(DocumentError):
        parse_design_file('{"foo": 1}', problem)
    with pytest.raises(DocumentError):
        parse_document('["not", "an", "object"]')


def test_parse_document_rejects_overflowing_degree():
    # json reads 1e400 as inf, which int() used to reject with OverflowError
    text = render_document(document_from_result(solve(DesignProblem(3, 3))))
    text = text.replace('"degree": 3', '"degree": 1e400', 1)
    assert "1e400" in text
    with pytest.raises(DocumentError, match="must be an integer"):
        parse_document(text)


def test_parse_document_reads_integral_floats_as_indices():
    text = render_document(document_from_result(solve(DesignProblem(3, 3))))
    text = text.replace('"degree": 3', '"degree": 3.0', 1).replace('"coef": 3', '"coef": 3.0', 1)
    assert '"degree": 3.0' in text and '"coef": 3.0' in text
    doc = parse_document(text)
    assert (doc.degree, doc.coef) == (3, 3)
    assert type(doc.degree) is int and type(doc.coef) is int
    assert len(parse_design_file(text, DesignProblem(3, 3))[0]) == 2


def test_parse_design_file_rejects_non_finite_certificate():
    # json reads 1e400 as inf; the certificate used to reach verify and print nan
    problem = DesignProblem(3, 3)
    raw = json.loads(render_document(document_from_result(solve(problem))))
    text = json.dumps(raw).replace(
        json.dumps(raw["certificate_chebyshev"]), "[1e400, 0, 1]", 1
    )
    assert "1e400" in text
    with pytest.raises(DocumentError, match="invalid certificate"):
        parse_design_file(text, problem)


def test_rendered_documents_are_byte_stable():
    # the sha256 of every document with n <= 30, concatenated in (n, p) order
    digest = hashlib.sha256()
    for n in range(1, 31):
        for p in range(1, n + 1):
            text = render_document(document_from_result(solve(DesignProblem(n, p))))
            digest.update(text.encode("utf-8"))
    assert digest.hexdigest() == "1d8577aed612a0c9cad060873200d4d5c257a977793fa28b1da5b9fc4e4c1d6f"


def test_metadata_is_written_on_output_and_ignored_on_read():
    doc = document_from_result(solve(DesignProblem(3, 3)))
    raw = json.loads(render_document(doc))
    assert raw["metadata"] == {
        "version": __version__,
        "tolerances": {"admissible_tol": 1e-8, "condition_tol": 1e-9, "variance_rtol": 1e-8},
    }
    raw["metadata"] = [1, True, None]
    assert parse_document(json.dumps(raw)) == doc
    del raw["metadata"]
    assert parse_document(json.dumps(raw)) == doc


def test_document_carries_chebyshev_certificate_and_version():
    text = render_document(document_from_result(solve(DesignProblem(3, 3))))
    raw = json.loads(text)
    assert __version__ == "0.2.0" and raw["metadata"]["version"] == __version__
    assert "certificate_coeffs" not in raw
    assert raw["certificate_chebyshev"] == [0, 0, 1]


@pytest.mark.parametrize("n, p", [(9, 3), (10, 4), (11, 3), (12, 5), (30, 2)])
def test_version_0_1_0_documents_read_through_from_monomial(n, p):
    # files written by version 0.1.0 store monomial coefficients x**0..x**n
    text = (DATA / f"v0.1.0_{n}_{p}.json").read_text()
    raw = json.loads(text)
    assert raw["metadata"]["version"] == "0.1.0"
    doc = parse_document(text)
    expected = Polynomial.from_monomial(raw["certificate_coeffs"]).coeffs
    assert doc.certificate_chebyshev == list(expected)
    assert len(doc.certificate_chebyshev) == n
    _, certificate = parse_design_file(text, DesignProblem(n, p))
    np.testing.assert_array_equal(certificate.coeffs, expected)


@pytest.mark.parametrize("n, p", [(9, 3), (10, 4), (11, 3), (12, 5), (30, 2)])
def test_version_0_1_0_documents_render_as_0_2_0(n, p):
    doc = parse_document((DATA / f"v0.1.0_{n}_{p}.json").read_text())
    text = render_document(doc)
    raw = json.loads(text)
    assert raw["metadata"]["version"] == "0.2.0"
    assert "certificate_coeffs" not in raw
    assert parse_document(text) == doc


def test_version_0_1_0_nonzero_intercept_is_rejected():
    raw = json.loads((DATA / "v0.1.0_10_4.json").read_text())
    raw["certificate_coeffs"][0] = 1e-300
    with pytest.raises(DocumentError, match="zero intercept"):
        parse_document(json.dumps(raw))


def test_pyproject_reads_the_package_version():
    # the version has one owner, polydesign.__version__
    config = pytest.importorskip("setuptools.config.pyprojecttoml")
    path = Path(__file__).parents[1] / "pyproject.toml"
    with warnings.catch_warnings():  # some setuptools mark [tool.setuptools] as beta
        warnings.simplefilter("ignore")
        project = config.read_configuration(str(path), expand=True)["project"]
    assert project["version"] == __version__
