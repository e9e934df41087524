import json

import numpy as np
import pytest

from polydesign import (
    DesignProblem,
    DocumentError,
    document_from_result,
    parse_design_file,
    parse_document,
    render_document,
    solve,
)


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
    assert "0.1111111111111112" in text  # 1/9 as written by %.17g
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
    np.testing.assert_allclose(certificate.coeffs, [0, -3, 0, 4], atol=1e-14)


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
