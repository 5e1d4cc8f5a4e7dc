"""Every parameter of every function in ``src/commutant_lab`` is read.

A parameter that the body never reads is a value the caller can set and
the program ignores.  The scan parses each module, walks every ``def``
(methods and nested functions included) and fails on a parameter whose
name the body never loads.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "commutant_lab"

# (module, function, parameter) -> why it stays although nothing reads it.
ALLOWED = {
    ("cli", "cmd_commutant", "seed"):
        "`commutant --seed` is never read, and the subspace-scale benchmark "
        "workload passes it; removing it waits for a benchmark-only change",
}


def unread_parameters() -> set[tuple[str, str, str]]:
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                     args.vararg, args.kwarg) if a is not None]
            loaded = {n.id for stmt in node.body for n in ast.walk(stmt)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found |= {(path.stem, node.name, name) for name in names if name not in loaded}
    return found


def test_every_parameter_is_read():
    assert unread_parameters() == set(ALLOWED)
