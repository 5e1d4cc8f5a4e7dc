"""Every name that a module of ``src/commutant_lab`` exports is read there.

An exported name that the package never reads is code that only the tests
run.  The scan parses each module, takes the names of its ``__all__`` and
looks for a read of each, a loaded name or attribute, in any top-level
statement of the package but the one that defines it; an import is not a
read.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "commutant_lab"

# (module, name) -> why it stays exported although the package never reads it.
ALLOWED = {
    ("hermitian", "rel_j"):
        "the paper's anticommutation relation, public API beside rel_c and rel_q",
    ("matrixfile", "save_matrix"):
        "writes the matrix files that `commutant --input` and `search --input` read",
}


def defined_names(statement: ast.stmt) -> set[str]:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = statement.targets if isinstance(statement, ast.Assign) else []
    return {t.id for t in targets if isinstance(t, ast.Name)}


def unread_exports() -> set[tuple[str, str]]:
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    exported, read = set(), set()
    for module, tree in trees.items():
        for statement in tree.body:
            if "__all__" in defined_names(statement):
                exported |= {(module, ast.literal_eval(e)) for e in statement.value.elts}
            loaded = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(statement)
                      if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}
            read |= loaded - defined_names(statement)
    return {(module, name) for module, name in exported if name not in read}


def test_every_export_is_read():
    assert unread_exports() == set(ALLOWED)
