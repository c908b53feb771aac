"""Every public module-level function and class of the package has a caller
outside the tests: the package itself (outside the name's own definition),
a demo, or the benchmark's span list, which names what it traces as
strings.  A function that only a test calls belongs in that test.

Every parameter with a default is passed by some call in the package, the
demos or the benchmark: a default that no caller outside the tests overrides
is a constant, and belongs in the code as one; a test that needs another
value builds it itself."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rollsym"


def _names_used(node):
    """Identifiers that a syntax tree reads: names and attribute names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _public_definitions_and_uses():
    """(public module-level function and class names with their module file,
    the names the package uses outside each name's own definition)."""
    defined, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            own = set()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = {node.name}
                if not node.name.startswith("_"):
                    defined[node.name] = path.name
            used |= _names_used(node) - own
    return defined, used


def _outside_uses():
    """Names the demos use and the strings the benchmark's span list holds."""
    used = set()
    for path in sorted((ROOT / "demos").glob("*.py")):
        used |= _names_used(ast.parse(path.read_text()))
    spans = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    used |= {node.value for node in ast.walk(spans)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return used


def test_every_public_function_and_class_has_a_caller_outside_the_tests():
    defined, used = _public_definitions_and_uses()
    assert len(defined) > 50  # the scan found the package
    unused = sorted(f"{module}: {name}" for name, module in defined.items()
                    if name not in used | _outside_uses())
    assert not unused, unused


def _calls_by_name():
    """Every call of the package, the demos and the benchmark, by the name it
    calls (a plain name or the last attribute)."""
    calls = {}
    for folder in ("src", "demos", "perfbench"):
        for path in sorted(p for p in (ROOT / folder).rglob("*.py")
                           if not p.name.startswith("test_")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    calls.setdefault(name, []).append(node)
    return calls


def _passes(call, index, name):
    """Whether a call passes the parameter `name`, positional slot `index`
    (None for keyword-only), counting *args and **kwargs as passing it."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return True
    return index is not None and len(call.args) > index


def _optional_parameters():
    """(qualified name, the name calls use, parameter, positional slot) of
    every parameter with a default of every function and method of the
    package; a slot counts from the first argument that a call passes."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        owners = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            owner = owners.get(node)
            method = isinstance(owner, ast.ClassDef) and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
            called = owner.name if method and node.name == "__init__" else node.name
            qualified = f"{owner.name}.{node.name}" if method else node.name
            args = node.args.posonlyargs + node.args.args
            skip = 1 if method else 0
            for i, arg in enumerate(args[len(args) - len(node.args.defaults):],
                                    start=len(args) - len(node.args.defaults)):
                out.append((f"{path.name}: {qualified}", called, arg.arg, i - skip))
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    out.append((f"{path.name}: {qualified}", called, arg.arg, None))
    return out


def test_every_optional_parameter_is_passed_by_some_caller():
    calls = _calls_by_name()
    options = _optional_parameters()
    assert len(options) > 20  # the scan found the package
    unset = sorted(f"{where}({param})" for where, called, param, index in options
                   if not any(_passes(c, index, param) for c in calls.get(called, [])))
    assert not unset, unset
