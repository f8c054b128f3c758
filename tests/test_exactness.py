"""No floating point: no module of the package writes a float literal, calls
float() or names a float-valued math function or constant, and no golden
command prints a JSON number with a fraction or an exponent."""

import ast
import io
import json
import pathlib

import pytest

from floerdisk.cli import main
from test_cli import GOLDEN_COMMANDS

PACKAGE = pathlib.Path(__file__).parent.parent / "src" / "floerdisk"
MODULES = sorted(PACKAGE.glob("*.py"))
# the math functions whose value is an int for int arguments
INT_MATH = {"ceil", "comb", "factorial", "floor", "gcd", "isqrt", "lcm",
            "perm", "prod", "trunc"}


def _float_uses(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant)
                and type(node.value) in (float, complex)):
            yield f"literal {node.value!r}"
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "float"):
            yield "call float()"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            yield from (f"math.{alias.name}" for alias in node.names
                        if alias.name not in INT_MATH)
        elif (isinstance(node, ast.Attribute) and node.attr not in INT_MATH
              and getattr(node.value, "id", None) == "math"):
            yield f"math.{node.attr}"


def test_the_modules_are_found():
    assert {"rings.py", "abelian.py", "cli.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_computes_with_floats(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert [f"{path.name}: {use}" for use in _float_uses(tree)] == []


def test_the_scan_sees_each_kind_of_float_use():
    source = ("from math import sqrt, gcd\nimport math\n"
              "x = 0.5\ny = float('1')\nz = sqrt(2)\nw = math.log(3)\n"
              "v = math.lcm(2, 3) + gcd(4, 6) + 1j.imag\n")
    assert sorted(_float_uses(ast.parse(source))) == [
        "call float()", "literal 0.5", "literal 1j", "math.log", "math.sqrt"]


def _no_float(text):
    raise AssertionError(f"a float in the output: {text}")


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_output_has_no_float(name):
    out = io.StringIO()
    assert main(GOLDEN_COMMANDS[name], out=out) == 0
    json.loads(out.getvalue(), parse_float=_no_float)
