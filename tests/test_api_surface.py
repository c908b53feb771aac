"""Every public module-level function and class of the package has a caller
outside the tests: the package itself (outside the name's own definition),
a demo, or the benchmark's span list, which names what it traces as
strings.  A function that only a test calls belongs in that test."""

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

