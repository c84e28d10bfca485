"""Static checks on the library source."""

import ast
import pathlib
import sys

import pytest

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "ruledsym"


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _empty_containers(path):
    """Module-level names bound to an empty dict, list or set."""
    tree = ast.parse(path.read_text())
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        empty = (
            (isinstance(value, ast.Dict) and not value.keys)
            or (isinstance(value, ast.List) and not value.elts)
            or (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id in ("dict", "list", "set")
                and not value.args and not value.keywords))
        if empty:
            found.extend(ast.unparse(t) for t in targets)
    return found


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_level_mutable_containers(path):
    # an empty module-level container is a cache or registry that would
    # carry state from one in-process call to the next
    assert _empty_containers(path) == []


def _is_alg(node):
    return (isinstance(node, ast.Name) and node.id == "Alg") or \
        (isinstance(node, ast.Attribute) and node.attr == "Alg")


def _alg_constructions(path):
    """Lines that call Alg(...) or one of its class methods."""
    tree = ast.parse(path.read_text())
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and (_is_alg(node.func)
                       or (isinstance(node.func, ast.Attribute)
                           and _is_alg(node.func.value))))


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_algnum_builds_alg_values(path):
    # whether a value is a Fraction or an Alg is decided in algnum alone
    if path.name == "algnum.py":
        assert _alg_constructions(path)
    else:
        assert _alg_constructions(path) == []


def _groebner_calls(path):
    """Lines that call a function named groebner, bare or as an
    attribute."""
    tree = ast.parse(path.read_text())
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and ((isinstance(node.func, ast.Attribute)
                  and node.func.attr == "groebner")
                 or (isinstance(node.func, ast.Name)
                     and node.func.id == "groebner"))]


def test_one_groebner_call_site():
    # one basis per system: the lex basis is computed in one function only,
    # through the library's own engine
    calls = {path.name: _groebner_calls(path)
             for path in sorted(SOURCE.glob("*.py"))}
    assert sum(len(lines) for lines in calls.values()) == 1, calls
    assert calls["solver.py"], calls


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_assert_statements(path):
    # an assert vanishes under python -O; checks raise explicitly
    tree = ast.parse(path.read_text())
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Assert)] == []


def test_solver_has_no_expression_layer():
    # no sympy expression is built on the way to a basis
    names = set()
    for node in ast.walk(ast.parse((SOURCE / "solver.py").read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            if isinstance(node.value, ast.Name):
                names.add("%s.%s" % (node.value.id, node.attr))
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names.update((alias.name, "%s.%s" % (node.module, alias.name)))
    assert names & {"Symbol", "Dummy", "as_expr", "sympy.groebner"} == set()


def _imported_modules(path):
    modules = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
    return modules


def _sympy_imports(path):
    """(enclosing function or None, line) of every import of sympy."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""] if not child.level else []
            else:
                names = []
            if any(n.split(".")[0] == "sympy" for n in names):
                found.append((function, child.lineno))
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)
            visit(child, inner)

    visit(ast.parse(path.read_text()), None)
    return found


def test_solver_and_engine_import_no_sympy():
    # no module of the library imports sympy at module level, and the one
    # import inside a function is the exact fallback of implicit's
    # irreducibility check; the Groebner engine imports only the standard
    # library
    imports = {path.name: _sympy_imports(path)
               for path in sorted(SOURCE.glob("*.py"))}
    assert {name: [f for f, _ in found]
            for name, found in imports.items() if found} == \
        {"implicit.py": ["sympy_poly"]}
    engine = _imported_modules(SOURCE / "groebner.py")
    assert engine and all(m.split(".")[0] in sys.stdlib_module_names
                          for m in engine), engine


def _slot_fields():
    """(class, field) for every __slots__ entry of a library class."""
    fields = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if (isinstance(stmt, ast.Assign)
                        and any(isinstance(t, ast.Name) and t.id == "__slots__"
                                for t in stmt.targets)):
                    fields.extend((node.name, field)
                                  for field in ast.literal_eval(stmt.value))
    return fields


def test_every_slot_is_read():
    # a field that is stored but never loaded is dead state
    loaded = {node.attr
              for path in SOURCE.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)}
    fields = _slot_fields()
    assert fields
    assert [f for f in fields if f[1] not in loaded] == []
