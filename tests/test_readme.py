"""README's "Library quickstart" block runs, and each value its comments state holds.

Every top-level expression in the block that carries a comment is
evaluated, and the comment's leading value -- a number, ``True``/``False``
or a bracketed list of numbers -- is compared with the result. A number
written with a trailing ``...`` is a truncation: the result must lie within
one unit of its last digit above it. Other numbers are rounded displays and
must agree to 1e-9 relative.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _quickstart() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quickstart\n", 1)[1]
    return re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)


def _check_number(actual, token: str) -> None:
    if token.endswith("..."):
        digits = token[:-3]
        decimals = len(digits.split(".")[1])
        assert 0.0 <= actual - float(digits) < 10.0**-decimals, (actual, token)
    else:
        assert actual == pytest.approx(float(token), rel=1e-9, abs=0.0), (actual, token)


def _check_stated(actual, comment: str) -> None:
    if comment.startswith("["):
        tokens = [t.strip() for t in comment[1 : comment.index("]")].split(",")]
        actual = np.asarray(actual)
        assert actual.shape == (len(tokens),), (actual, comment)
        for value, token in zip(actual, tokens):
            _check_number(float(value), token)
    else:
        token = re.match(r"[^\s,:]+", comment).group(0)
        if token in ("True", "False"):
            assert actual is (token == "True"), (actual, comment)
        else:
            _check_number(actual, token)


def test_quickstart_runs_and_states_its_values():
    source = _quickstart()
    lines = source.splitlines()
    namespace = {}
    checked = []
    for node in ast.parse(source).body:
        line = lines[node.lineno - 1]
        if isinstance(node, ast.Expr) and "#" in line:
            actual = eval(compile(ast.Expression(node.value), str(README), "eval"), namespace)
            comment = line.split("#", 1)[1].strip()
            _check_stated(actual, comment)
            checked.append(comment)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), str(README), "exec"), namespace)
    # the seven stated values: variance, support, weights, verdict,
    # certificate, coefficient of x**3 and the oracle's variance
    assert len(checked) == 7, checked
