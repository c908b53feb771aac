"""Every public module-level function and class of the package has a caller
outside the tests: the package itself (outside the name's own definition),
a demo, or the benchmark's span list, which names what it traces as
strings.  A function that only a test calls belongs in that test.

Every parameter with a default is passed by some call in the package, the
demos or the benchmark: a default that no caller outside the tests overrides
is a constant, and belongs in the code as one; a test that needs another
value builds it itself.  Nor does every such caller pass it one and the
same constant: that too is a constant with a second name.

Every module-level UPPER_CASE constant of the package is read somewhere
other than its own assignment: in the package, a demo or the benchmark
outside its tests.  A constant that nothing reads is left over.

Every dotted name that README.md quotes as inline code and that starts with
a module of the package or one of its public classes names something that
exists: the README does not drift from the code it points to.

Every function and method that the benchmark's span list traces, and every
other name its span recorder patches, exists where the recorder looks for
it: a rename or a move shows here, not only in a traced benchmark run.

No module of the package imports a private (underscore) name from another:
a helper that two modules share is public, or the rule it serves lives in
one module.

Only `errors.tagged` reads the kind, type or name that says what an input
object is: one reader, with one rule for a value that is no object.

Every threshold of the package is a named module-level constant: a small
float literal (in (0, 1e-4)) written into a function, a default or a class
is a second spelling of some rule, which no table of thresholds lists."""

import ast
import importlib
import re
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


def _public_methods_and_uses():
    """(the public methods and properties of the public classes of the
    package, (class, name) with their module file; the names the package
    uses outside each method's own definition)."""
    defined, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        used |= set().union(*(_names_used(node) for node in tree.body
                              if not isinstance(node, ast.ClassDef)))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    if not node.name.startswith("_"):
                        defined[node.name, item.name] = path.name
                    used |= _names_used(item) - {item.name}
                else:
                    used |= _names_used(item)
    return defined, used


def _methods_the_benchmark_wraps():
    """(class name, attribute) of every method that the span recorder wraps,
    from its span lists or by a literal name in `install`."""
    out = set()
    for module_name, owner, attr in _traced_targets():
        module = importlib.import_module(f"rollsym.{module_name}")
        out |= {(cls.__name__, attr) for cls in vars(module).values()
                if isinstance(cls, type) and owner in ("*", cls.__name__) and attr in vars(cls)}
    return out | {(owner.__name__, attr) for _, owner, attr in _patched_by_install()
                  if isinstance(owner, type)}


def test_every_public_method_and_property_has_a_caller_outside_the_tests():
    # a call by attribute name anywhere in the package or a demo counts for
    # every class that defines the name; the benchmark's span recorder counts
    # for the methods it wraps, class by class, so that a name it patches on
    # one class keeps no same-named method of another alive
    defined, used = _public_methods_and_uses()
    assert len(defined) > 50  # the scan found the classes
    for path in sorted((ROOT / "demos").glob("*.py")):
        used |= _names_used(ast.parse(path.read_text()))
    unused = sorted(f"{module}: {cls}.{name}" for (cls, name), module in defined.items()
                    if name not in used and (cls, name) not in _methods_the_benchmark_wraps())
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


def _passed_value(call, index, name):
    """The expression a call passes for the parameter `name`, positional
    slot `index`; None when it leaves it at its default or passes it
    through *args or **kwargs."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return None
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    if index is not None and len(call.args) > index:
        return call.args[index]
    return None


def _constant_expression(node):
    """A literal, signed or not, or an UPPER_CASE name, as text; None for
    anything else."""
    if isinstance(node.operand if isinstance(node, ast.UnaryOp) else node, ast.Constant):
        return ast.dump(node)
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name if name is not None and name.isupper() else None


def test_no_optional_parameter_is_always_passed_the_same_constant():
    # a default that every caller outside the tests overrides, always with
    # the same literal or UPPER_CASE name, is that constant under two names
    calls = _calls_by_name()
    fixed = []
    for where, called, param, index in _optional_parameters():
        passed = [_passed_value(c, index, param) for c in calls.get(called, [])]
        if not passed or any(v is None for v in passed):
            continue
        constants = {_constant_expression(v) for v in passed}
        if len(constants) == 1 and None not in constants:
            fixed.append(f"{where}({param}={constants.pop()})")
    assert not fixed, fixed


def _module_constants():
    """(name, module file) of every module-level UPPER_CASE assignment."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and name.id.isupper():
                        out.append((name.id, path.name))
    return out


def _names_read():
    """Names and attribute names that the package, the demos and the
    benchmark outside its tests read (assignment targets are not reads)."""
    read = set()
    for folder in ("src", "demos", "perfbench"):
        for path in sorted(p for p in (ROOT / folder).rglob("*.py")
                           if not p.name.startswith("test_")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    return read


def test_every_module_constant_is_read_outside_the_tests():
    constants = _module_constants()
    assert len(constants) > 10  # the scan found the package
    read = _names_read()
    unread = sorted(f"{module}: {name}" for name, module in constants if name not in read)
    assert not unread, unread


def _readme_dotted_names():
    """The dotted names that start the inline code spans of README.md,
    fenced blocks left out."""
    text = re.sub(r"^```.*?^```", "", (ROOT / "README.md").read_text(), flags=re.M | re.S)
    for span in re.findall(r"`([^`\n]+)`", text):
        match = re.match(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)
        if match:
            yield match.group(0)


def _readme_roots():
    """The package, its modules and their public classes, by the name the
    README uses for them."""
    roots = {"rollsym": importlib.import_module("rollsym")}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem.startswith("_"):
            continue
        module = importlib.import_module(f"rollsym.{path.stem}")
        roots[path.stem] = module
        roots.update({name: value for name, value in vars(module).items()
                      if isinstance(value, type) and not name.startswith("_")
                      and value.__module__ == module.__name__})
    return roots


def test_every_dotted_name_in_the_readme_resolves():
    roots = _readme_roots()
    checked, missing = 0, []
    for name in _readme_dotted_names():
        head, *rest = name.split(".")
        if head not in roots:
            continue
        checked += 1
        owner = roots[head]
        for part in rest:
            owner = getattr(owner, part, missing)
        if owner is missing:
            missing.append(name)
    assert checked > 5  # the scan found the README's names
    assert not missing, missing


def _traced_targets():
    """(module, owner, attribute) of every entry of the SPANS and COUNTERS
    lists of the benchmark's span recorder, read from its syntax tree."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("SPANS", "COUNTERS")):
            for module, owner, attr, _ in ast.literal_eval(node.value):
                yield module, owner, attr


def test_every_name_the_benchmark_traces_resolves():
    # owner None: a module attribute; "*": an entry of the __dict__ of some
    # class defined in the module; a class name: an entry of its __dict__
    targets, missing = list(_traced_targets()), []
    assert len(targets) > 15  # the scan found the span list
    for module_name, owner, attr in targets:
        module = importlib.import_module(f"rollsym.{module_name}")
        if owner is None:
            found = hasattr(module, attr)
        elif owner == "*":
            found = any(attr in vars(cls) for cls in vars(module).values()
                        if isinstance(cls, type) and cls.__module__ == module.__name__)
        else:
            cls = getattr(module, owner, None)
            found = isinstance(cls, type) and attr in vars(cls)
        if not found:
            missing.append(f"{module_name}.{owner or ''}.{attr}")
    assert not missing, missing


def _patched_by_install():
    """(owner source, owner, attribute) of every other name the recorder's
    `install` patches by a literal name, `self._patch(owner, "name", ...)`,
    with the owner evaluated as `install` binds it (`np`, the rollsym
    `modules` by name and the locals it assigns)."""
    import numpy

    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    install = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    names = {"np": numpy, "modules": {name: importlib.import_module(f"rollsym.{name}")
                                      for name in ("spaces", "curvature", "rolling", "brackets",
                                                   "symmetry", "nilpotent", "cli")}}
    for node in install.body:  # the locals, `modules` bound above
        if (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id not in names):
            names[node.targets[0].id] = eval(ast.unparse(node.value), {}, dict(names))
    for node in ast.walk(install):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_patch" and isinstance(node.args[1], ast.Constant)):
            source = ast.unparse(node.args[0])
            yield source, eval(source, {}, dict(names)), node.args[1].value


def test_every_other_name_the_span_recorder_patches_resolves():
    # GeodesicPath.velocity is read from the class's own __dict__, so a move
    # into a base class breaks every traced run; numpy.linalg.svd by name
    targets = list(_patched_by_install())
    assert {attr for _, _, attr in targets} >= {"velocity", "svd"}
    missing = [f"{source}.{attr}" for source, owner, attr in targets
               if attr not in (vars(owner) if isinstance(owner, type) else dir(owner))]
    assert not missing, missing


def test_no_module_imports_a_private_name_from_another():
    imported = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("rollsym")):
                imported += [f"{path.name}: {node.module}.{alias.name}" for alias in node.names
                             if alias.name.startswith("_")]
    assert not imported, imported


def test_only_tagged_reads_the_tag_of_an_input_object():
    # a kind, type or name read off an input object by hand is a second
    # dispatch, with its own message for a value that is no object
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        owners = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript):
                key = node.slice
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "get" and node.args):
                key = node.args[0]
            else:
                continue
            if not (isinstance(key, ast.Constant) and key.value in ("kind", "type", "name")):
                continue
            scope = node
            while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                scope = owners[scope]
            if getattr(scope, "name", None) != "tagged":
                reads.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not reads, reads


def test_every_small_float_literal_is_a_module_level_constant():
    # a literal inside a module-level assignment names a threshold; anywhere
    # else it is a threshold without a name
    unnamed = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        named = {id(sub) for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for sub in ast.walk(node)}
        unnamed += [f"{path.name}:{node.lineno}: {node.value!r}" for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and isinstance(node.value, float)
                    and 0 < node.value < 1e-4 and id(node) not in named]
    assert not unnamed, unnamed
