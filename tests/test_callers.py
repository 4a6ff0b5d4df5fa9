"""Every top-level function and class of the library has a caller in the
programs: the package itself or the benchmark harness (perfbench/*.py),
and every keyword-only parameter of one is passed by name at some call.

A definition counts as called when some other top-level statement of
those files names it, as an identifier, an attribute or a string
constant (docstrings aside), and that statement is itself called or is
not a library definition.  So a helper read only by an uncalled
definition, or only by the tests, is reported too.  A call of
``TABLE[key]`` calls every function of the module-level dict TABLE.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "carnotlab"
PROGRAMS = sorted(LIBRARY.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(stmt: ast.stmt) -> set[str]:
    """Identifiers, attribute names and non-docstring string constants under stmt."""
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return set()  # the module docstring
    docstrings = {
        id(node.body[0].value) for node in ast.walk(stmt)
        if isinstance(node, DEFINITIONS) and ast.get_docstring(node, clean=False) is not None
    }
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            names.add(node.value)
    return names


def uncalled_definitions() -> list[str]:
    """module.name of every library definition with no caller, sorted."""
    units = []  # (module.name or None for any other statement, names it reads)
    for path in PROGRAMS:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = f"{path.stem}.{stmt.name}" if path.parent == LIBRARY and isinstance(stmt, DEFINITIONS) else None
            units.append((own, _names(stmt)))
    dead: set[str] = set()
    while True:
        fresh = {own for i, (own, _) in enumerate(units) if own and own not in dead
                 and not any(own.split(".")[1] in names for j, (other, names) in enumerate(units)
                             if j != i and other not in dead)}
        if not fresh:
            return sorted(dead)
        dead |= fresh


def test_every_library_definition_has_a_caller():
    uncalled = uncalled_definitions()
    assert not uncalled, f"no program calls {', '.join(uncalled)}"


def unset_keyword_options() -> list[str]:
    """module.function(name) of every keyword-only parameter of a library
    function or method that no call in the programs passes by name, sorted."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PROGRAMS}
    tables = {target.id: [v.id for v in stmt.value.values if isinstance(v, ast.Name)]
              for tree in trees.values() for stmt in tree.body
              if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Dict)
              for target in stmt.targets if isinstance(target, ast.Name)}
    passed: dict[str, set] = {}
    for tree in trees.values():
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            fn = call.func  # a Name, an Attribute or a TABLE[key] Subscript
            if isinstance(fn, ast.Subscript) and isinstance(fn.value, ast.Name):
                names = tables.get(fn.value.id, [])
            else:
                names = [getattr(fn, "attr", getattr(fn, "id", None))]
            for name in names:
                passed.setdefault(name, set()).update(k.arg for k in call.keywords)
    unset = []
    for path, tree in trees.items():
        for stmt in tree.body if path.parent == LIBRARY else ():
            for fn in stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]:
                if isinstance(fn, ast.FunctionDef):
                    owner = "" if fn is stmt else f"{stmt.name}."
                    unset += [f"{path.stem}.{owner}{fn.name}({a.arg})" for a in fn.args.kwonlyargs
                              if a.arg not in passed.get(fn.name, ())]
    return sorted(unset)


def test_every_keyword_option_is_set_by_a_program():
    unset = unset_keyword_options()
    assert not unset, f"no program sets {', '.join(unset)}"
