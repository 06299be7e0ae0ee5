"""No module of ``src/repro``, ``tests/`` or ``examples/`` imports a name
it never uses.

An AST scan, with no dependency beyond the standard library: a module
uses an imported name when it loads it (as a bare name or the root of an
attribute chain), when a quoted annotation names it, or when its
``__all__`` lists it (a re-export).  Package ``__init__.py`` files
import to re-export, so they are left out.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = (ROOT / "src" / "repro", ROOT / "tests", ROOT / "examples")


def _quoted_names(tree):
    """Names read inside string annotations such as ``"weakref.WeakSet[Node]"``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.AnnAssign, ast.arg)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                try:
                    expr = ast.parse(part.value, mode="eval")
                except SyntaxError:  # a Literal["..."] value, not a type
                    continue
                names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


def _exported(tree):
    """The strings listed in the module's ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                names.update(
                    elt.value for elt in ast.walk(node.value)
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                )
    return names


def unused_imports(source):
    """``[(line, name)]`` of the names ``source`` imports and never uses."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [
                (node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names
            ]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [
                (node.lineno, alias.asname or alias.name)
                for alias in node.names if alias.name != "*"
            ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _quoted_names(tree) | _exported(tree)
    return sorted((line, name) for line, name in imported if name not in used)


def test_the_scan_sees_uses_and_re_exports():
    source = (
        "import os\nimport os.path as osp\nfrom typing import Dict, List\n"
        "from .x import Thing, Other\n__all__ = ['Other']\n"
        "def f(a: 'Dict[str, int]'):\n    return os.sep\n"
    )
    assert unused_imports(source) == [(2, "osp"), (3, "List"), (4, "Thing")]


def test_no_module_imports_a_name_it_never_uses():
    found = [
        "%s:%d %s" % (path.relative_to(ROOT), line, name)
        for root in SCANNED
        for path in sorted(root.rglob("*.py")) if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []
