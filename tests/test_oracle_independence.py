"""The serial oracles share no relation code with the routes they check.

``tests/oracles.py`` decides each relation with plain products and
``np.linalg.norm``; an oracle that called ``rel_stack``, or anything built
on it, would compare the production route with itself, and
``TestExactFlip`` would pass on any norm.  The scan parses the module and
fails on any production relation or triadic name it imports from
``commutant_lab`` or reads.  It also checks that ``conftest.exact_flip``,
which finds the flip tolerances of ``TestExactFlip``, decides through the
serial oracles.
"""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent

PRODUCTION = {"rel_c", "rel_j", "rel_q", "rel_stack", "triadic_relation", "check_triadic",
              "apply_map", "_frobenius_stack"}


def parse(name: str) -> ast.Module:
    path = TESTS / name
    return ast.parse(path.read_text(), filename=str(path))


def imported(tree: ast.AST, package: str) -> set[str]:
    """Names imported by ``from <package>[.module] import ...``."""
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == package for alias in node.names}


def read(tree: ast.AST) -> set[str]:
    """Every name and attribute the code under ``tree`` reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_oracles_use_no_production_relation():
    tree = parse("oracles.py")
    assert imported(tree, "commutant_lab") & PRODUCTION == set()
    assert read(tree) & PRODUCTION == set()


def test_exact_flip_decides_through_the_serial_oracles():
    tree = parse("conftest.py")
    [flip] = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "exact_flip"]
    assert {"serial_rel_c", "serial_rel_j"} <= imported(tree, "oracles") & read(flip)
    assert imported(tree, "commutant_lab") & PRODUCTION == set()
    assert read(flip) & PRODUCTION == set()
