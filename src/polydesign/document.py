"""Serializable design documents and design-file parsing.

The document is a plain mapping with a fixed field order (degree, coef,
case_tag, designs, variance, h, certificate_chebyshev, metadata).
``certificate_chebyshev`` holds the certificate's coefficients v_1..v_n of
g_j = T_j - T_j(0), which are its Chebyshev coefficients c_1..c_n; c_0 is
implied by the zero intercept. ``metadata`` (the version and tolerances of
the library that wrote the file) is written on output and ignored on read,
so re-rendering a parsed document writes the current version. Version 0.1.0
documents stored the monomial coefficients of x**0..x**n as
``certificate_coeffs`` instead; they are still read, converted exactly, and
rendered as version 0.2.0 documents. Rendering is deterministic and writes
every float with 17 significant digits, which is enough to reproduce the
exact double on parse, so documents round-trip losslessly. Design files
may be either a full document or the minimal form
``{"support": [...], "weights": [...]}``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import __version__
from .design import ADMISSIBLE_TOL, CONDITION_TOL, Design, DesignProblem
from .elfving import VARIANCE_RTOL
from .errors import DocumentError, InvalidDesignError
from .polynomial import Polynomial
from .solver import OptimalResult


@dataclass
class DesignDocument:
    degree: int
    coef: int
    case_tag: str
    designs: list[dict]  # each {"support": [...], "weights": [...]}
    variance: float
    h: float
    certificate_chebyshev: list[float]


def document_from_result(result: OptimalResult) -> DesignDocument:
    return DesignDocument(
        degree=result.problem.n,
        coef=result.problem.p,
        case_tag=result.case_tag,
        designs=[{"support": d.support.tolist(), "weights": d.weights.tolist()}
                 for d in result.designs],
        variance=float(result.variance),
        h=float(result.h),
        certificate_chebyshev=result.certificate.coeffs.tolist(),
    )


def format_float(x) -> str:
    """The 17-significant-digit text of a float, enough to reproduce it exactly."""
    return format(float(x), ".17g")


def _floats(values) -> str:
    return "[" + ", ".join(format_float(v) for v in values) + "]"


def render_document(doc: DesignDocument) -> str:
    """Deterministic JSON text with 17-significant-digit floats.

    The ``metadata`` block is written here, from this library's version and
    tolerances; :func:`parse_document` ignores it.
    """
    designs = ", ".join(
        f'{{\n    "support": {_floats(d["support"])},\n    "weights": {_floats(d["weights"])}\n  }}'
        for d in doc.designs
    )
    return (
        "{\n"
        f'  "degree": {doc.degree},\n'
        f'  "coef": {doc.coef},\n'
        f'  "case_tag": {json.dumps(doc.case_tag)},\n'
        f'  "designs": [{designs}],\n'
        f'  "variance": {format_float(doc.variance)},\n'
        f'  "h": {format_float(doc.h)},\n'
        f'  "certificate_chebyshev": {_floats(doc.certificate_chebyshev)},\n'
        '  "metadata": {\n'
        f'    "version": {json.dumps(__version__)},\n'
        '    "tolerances": {\n'
        f'      "admissible_tol": {format_float(ADMISSIBLE_TOL)},\n'
        f'      "condition_tol": {format_float(CONDITION_TOL)},\n'
        f'      "variance_rtol": {format_float(VARIANCE_RTOL)}\n'
        "    }\n"
        "  }\n"
        "}\n"
    )


def _reject_constant(token: str):
    raise DocumentError(f"non-finite number {token} in design document")


def _loads(text: str, what: str):
    """JSON object from ``text``; ``NaN`` and ``Infinity`` tokens are rejected."""
    try:
        raw = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError(f"{what} is nested too deeply") from exc
    if not isinstance(raw, dict):
        raise DocumentError(f"{what} must be a JSON object")
    return raw


def _integer(raw, key: str) -> int:
    """``raw[key]`` as an int; non-integral numbers and non-numbers are rejected."""
    value = raw[key]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise DocumentError(f"{key} must be an integer, got {value!r}")


def _string(raw, key: str) -> str:
    """``raw[key]`` as a str; numbers, lists and other values are rejected."""
    value = raw[key]
    if not isinstance(value, str):
        raise DocumentError(f"{key} must be a JSON string, got {value!r}")
    return value


def _number(value, key: str) -> float:
    """A JSON number as a float; strings, booleans and other values are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DocumentError(f"{key}: expected a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer beyond the double range
        raise DocumentError(f"{key}: a number beyond the double range") from exc


def _numbers(values, key: str) -> list[float]:
    if not isinstance(values, list):
        raise DocumentError(f"{key}: expected a list of JSON numbers, got {values!r}")
    return [_number(v, key) for v in values]


def _design_entry(raw) -> dict:
    """The support and weights of one design, as lists of floats."""
    return {"support": _numbers(raw["support"], "support"),
            "weights": _numbers(raw["weights"], "weights")}


def _certificate(raw, degree: int) -> list[float]:
    """Stored g-coefficients; a 0.1.0 document's monomials are converted.

    A 0.1.0 certificate with a nonzero intercept raises
    :class:`InvalidCertificateError`, and one with a nonzero monomial above
    ``degree`` raises before the conversion; both are ``ValueError``.
    """
    if "certificate_chebyshev" in raw or "certificate_coeffs" not in raw:
        return _numbers(raw["certificate_chebyshev"], "certificate_chebyshev")
    monomial = _numbers(raw["certificate_coeffs"], "certificate_coeffs")
    top = max((q for q, c in enumerate(monomial) if c != 0.0), default=0)
    if top > degree:
        raise ValueError(f"certificate has degree {top}, above the model degree {degree}")
    return Polynomial.from_monomial(monomial).coeffs.tolist() if monomial else []


def parse_document(text: str) -> DesignDocument:
    return _document(_loads(text, "design document"))


def _document(raw: dict) -> DesignDocument:
    """The document held in an already parsed JSON object."""
    try:
        degree = _integer(raw, "degree")
        return DesignDocument(
            degree=degree,
            coef=_integer(raw, "coef"),
            case_tag=_string(raw, "case_tag"),
            designs=[_design_entry(d) for d in raw["designs"]],
            variance=_number(raw["variance"], "variance"),
            h=_number(raw["h"], "h"),
            certificate_chebyshev=_certificate(raw, degree),
        )
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise DocumentError(f"malformed design document: {exc}") from exc


def parse_design_file(text: str, problem: DesignProblem) -> tuple[list[Design], Polynomial | None]:
    """Designs (and certificate, when present) from a design file.

    Accepts the full document form or the minimal
    ``{"support": [...], "weights": [...]}`` form. Invalid designs and
    certificates with non-finite coefficients raise :class:`DocumentError`.
    """
    raw = _loads(text, "design file")

    certificate = None
    if "designs" in raw:
        doc = _document(raw)
        if (doc.degree, doc.coef) != (problem.n, problem.p):
            raise DocumentError(
                f"document is for degree {doc.degree}, coef {doc.coef}; "
                f"requested degree {problem.n}, coef {problem.p}"
            )
        entries = doc.designs
        if doc.certificate_chebyshev:
            try:
                certificate = Polynomial(doc.certificate_chebyshev)
            except ValueError as exc:
                raise DocumentError(f"invalid certificate in file: {exc}") from exc
    elif "support" in raw and "weights" in raw:
        entries = [_design_entry(raw)]
    else:
        raise DocumentError("design file must contain 'designs' or 'support'/'weights'")

    designs = []
    for entry in entries:
        try:
            designs.append(Design(entry["support"], entry["weights"]))
        except InvalidDesignError as exc:
            raise DocumentError(f"invalid design in file: {exc}") from exc
    if not designs:
        raise DocumentError("design file contains no designs")
    return designs, certificate
