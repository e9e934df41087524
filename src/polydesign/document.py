"""Serializable design documents and design-file parsing.

The document is a plain mapping with a fixed field order (degree, coef,
case_tag, designs, variance, h, certificate_coeffs, metadata). Rendering is
deterministic and writes every float with 17 significant digits, which is
enough to reproduce the exact double on parse, so documents round-trip
losslessly. Design files may be either a full document or the minimal form
``{"support": [...], "weights": [...]}``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from . import __version__
from .design import RANK_TOL, Design, DesignProblem
from .elfving import CONDITION_TOL, VARIANCE_RTOL
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
    certificate_coeffs: list[float]
    metadata: dict = field(default_factory=dict)


def document_from_result(result: OptimalResult, grid_size: int | None = None) -> DesignDocument:
    metadata: dict = {
        "version": __version__,
        "tolerances": {
            "rank_tol": RANK_TOL,
            "condition_tol": CONDITION_TOL,
            "variance_rtol": VARIANCE_RTOL,
        },
    }
    if grid_size is not None:
        metadata["grid_size"] = int(grid_size)
    return DesignDocument(
        degree=result.problem.n,
        coef=result.problem.p,
        case_tag=result.case_tag,
        designs=[
            {"support": [float(x) for x in d.support], "weights": [float(w) for w in d.weights]}
            for d in result.designs
        ],
        variance=float(result.variance),
        h=float(result.h),
        certificate_coeffs=[float(c) for c in result.certificate.coeffs],
        metadata=metadata,
    )


def format_float(x) -> str:
    """The 17-significant-digit text of a float, enough to reproduce it exactly."""
    return format(float(x), ".17g")


def _emit(value, indent: int, pieces: list[str]) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            pieces.append(f"{pad}  {json.dumps(key)}: ")
            _emit(item, indent + 1, pieces)
            pieces.append(",\n" if i < len(value) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        pieces.append("[")
        for i, item in enumerate(value):
            _emit(item, indent, pieces)
            if i < len(value) - 1:
                pieces.append(", ")
        pieces.append("]")
    elif isinstance(value, bool):
        pieces.append("true" if value else "false")
    elif isinstance(value, float):
        pieces.append(format_float(value))
    elif isinstance(value, int):
        pieces.append(str(value))
    elif isinstance(value, str):
        pieces.append(json.dumps(value))
    elif value is None:
        pieces.append("null")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def render_document(doc: DesignDocument) -> str:
    """Deterministic JSON text with 17-significant-digit floats."""
    pieces: list[str] = []
    _emit(asdict(doc), 0, pieces)
    pieces.append("\n")
    return "".join(pieces)


def _reject_constant(token: str):
    raise DocumentError(f"non-finite number {token} in design document")


def _loads(text: str, what: str):
    """JSON object from ``text``; ``NaN`` and ``Infinity`` tokens are rejected."""
    try:
        raw = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{what} is not valid JSON: {exc}") from exc
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


def parse_document(text: str) -> DesignDocument:
    raw = _loads(text, "design document")
    try:
        return DesignDocument(
            degree=_integer(raw, "degree"),
            coef=_integer(raw, "coef"),
            case_tag=str(raw["case_tag"]),
            designs=[
                {
                    "support": [float(x) for x in d["support"]],
                    "weights": [float(w) for w in d["weights"]],
                }
                for d in raw["designs"]
            ],
            variance=float(raw["variance"]),
            h=float(raw["h"]),
            certificate_coeffs=[float(c) for c in raw["certificate_coeffs"]],
            metadata=raw.get("metadata", {}),
        )
    except (KeyError, TypeError, ValueError) as exc:
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
        doc = parse_document(text)
        if (doc.degree, doc.coef) != (problem.n, problem.p):
            raise DocumentError(
                f"document is for degree {doc.degree}, coef {doc.coef}; "
                f"requested degree {problem.n}, coef {problem.p}"
            )
        entries = doc.designs
        if doc.certificate_coeffs:
            try:
                certificate = Polynomial(doc.certificate_coeffs)
            except ValueError as exc:
                raise DocumentError(f"invalid certificate in file: {exc}") from exc
    elif "support" in raw and "weights" in raw:
        entries = [raw]
    else:
        raise DocumentError("design file must contain 'designs' or 'support'/'weights'")

    designs = []
    for entry in entries:
        try:
            designs.append(Design(entry["support"], entry["weights"]))
        except (InvalidDesignError, KeyError, TypeError, ValueError) as exc:
            raise DocumentError(f"invalid design in file: {exc}") from exc
    if not designs:
        raise DocumentError("design file contains no designs")
    return designs, certificate
