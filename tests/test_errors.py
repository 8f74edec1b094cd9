"""The one check of an integer or real setting: ``errors`` decides what counts as one and
how it is refused, and no other module imports ``numbers`` to decide it again."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import tgtopo
from tgtopo.errors import InputError, check_int, is_int, is_real

MODULES = sorted(p for p in Path(tgtopo.__file__).parent.glob("*.py") if p.name != "errors.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_but_errors_uses_numbers(path):
    # the copies of this check once grew to nine in six modules, with four messages
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            assert "numbers" not in [alias.name for alias in node.names], node.lineno
        elif isinstance(node, ast.ImportFrom):
            assert node.module != "numbers", node.lineno
        elif isinstance(node, ast.Attribute) and node.attr in ("Integral", "Real"):
            assert not (isinstance(node.value, ast.Name) and node.value.id == "numbers"), \
                node.lineno


@pytest.mark.parametrize("value, integer, real", [
    (3, True, True), (np.int64(-2), True, True), (np.uint8(0), True, True),
    (2.0, False, True), (np.float32(0.5), False, True), (float("nan"), False, True),
    (True, False, False), (np.bool_(True), False, False), ("1", False, False),
    (None, False, False), (1 + 0j, False, False),
])
def test_is_int_and_is_real(value, integer, real):
    assert (is_int(value), is_real(value)) == (integer, real)


def test_check_int_returns_a_python_int_or_raises_the_given_error():
    value = check_int(np.int16(7), 7, "k")
    assert value == 7 and type(value) is int
    with pytest.raises(InputError, match=f"^k must be an integer >= 8, got {re.escape(repr(np.int16(7)))}$"):
        check_int(np.int16(7), 8, "k", InputError)
    with pytest.raises(ValueError, match="^k must be an integer >= 0, got 1.0$"):
        check_int(1.0, 0, "k")
