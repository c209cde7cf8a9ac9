"""Checks on the library source itself and on the README example."""

import ast
import builtins
import re
import subprocess
import sys
from pathlib import Path

import bracelab


def test_library_has_no_assert_statements():
    # python -O strips assert statements; invariants must be raised errors
    src = Path(bracelab.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_import_loads_no_numpy():
    # validation is pure Python; numpy would cost every process its import
    src = str(Path(bracelab.__file__).parents[1])
    code = "import sys, bracelab, bracelab.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_library_names_no_frozenset():
    # subsets of a carrier are Subset bit masks, in groups and braces alike
    src = Path(bracelab.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and node.id == "frozenset"
    ]
    assert found == []


def test_every_public_definition_has_a_library_caller():
    # no helper without a caller: each public top-level function or class
    # is named somewhere in the library (an ast.Name, an ast.Attribute or an
    # __init__ import); cli.py is exempt as a definer, since click registers
    # its commands
    src = Path(bracelab.__file__).parent
    mentioned, defined = set(), []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                mentioned.add(node.id)
            elif isinstance(node, ast.Attribute):
                mentioned.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path.name == "__init__.py":
                mentioned.update(alias.name for alias in node.names)
        if path.name != "cli.py":
            defined += [
                (path.stem, node.name)
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
            ]
    uncalled = [f"{module}.{name}" for module, name in defined if name not in mentioned]
    assert uncalled == []


def _library_trees():
    src = Path(bracelab.__file__).parent
    return {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}


def test_every_public_method_has_a_library_caller():
    # each public method or property of a library class is named as an
    # attribute somewhere in the library
    trees = _library_trees()
    mentioned = {
        node.attr for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    uncalled = [
        f"{module}.{cls.name}.{fn.name}"
        for module, tree in trees.items()
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
        and fn.name not in mentioned
    ]
    assert uncalled == []


def test_every_default_is_passed_by_a_library_call():
    # a defaulted parameter of a public function is a mode: some call in the
    # library, cli.py included, passes it by keyword or by position
    trees = _library_trees()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)

    def passed(name, param, position):
        return any(
            any(kw.arg in (param, None) for kw in call.keywords)  # None: **kwargs
            or (position is not None and (
                len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)
            ))
            for call in calls.get(name, [])
        )

    unpassed = []
    for module, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            positional = fn.args.posonlyargs + fn.args.args
            defaulted = [
                (arg.arg, positional.index(arg))
                for arg in positional[len(positional) - len(fn.args.defaults):]
            ] + [
                (arg.arg, None)
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if default is not None
            ]
            unpassed += [
                f"{module}.{fn.name}({param})"
                for param, position in defaulted if not passed(fn.name, param, position)
            ]
    assert unpassed == []


def test_every_series_kind_is_passed_by_a_library_call():
    # a key of series._KINDS is a mode too, chosen by a string the default
    # lint above cannot see: some series(...) call in the library passes it
    # as a literal kind
    passed = set()
    for tree in _library_trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "series" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                kind = node.args[1] if len(node.args) > 1 else next(
                    (kw.value for kw in node.keywords if kw.arg == "kind"), None
                )
                if isinstance(kind, ast.Constant):
                    passed.add(kind.value)
    assert sorted(set(bracelab.series._KINDS) - passed) == []


def _module_names(tree):
    """Names bound at the top level of a module: imports, definitions and
    assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_no_parameter_is_computed_from_the_others_by_every_call():
    # a positional parameter of a top-level function that every library call
    # fills with one expression of that call's other arguments (and of
    # module names) is something the function can compute itself; a bare
    # name or a constant is the caller's own choice and is not flagged
    trees = _library_trees()
    calls = {}
    for tree in trees.values():
        known = _module_names(tree) | set(dir(builtins))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append((known, node))

    def derived(known, call, position, param):
        """ast.dump of the argument for param when it is built from the
        call's other arguments, else None."""
        if position < len(call.args) and not any(
            isinstance(a, ast.Starred) for a in call.args[:position + 1]
        ):
            expr = call.args[position]
        else:
            expr = next((kw.value for kw in call.keywords if kw.arg == param), None)
        if expr is None or isinstance(expr, ast.Name):
            return None
        others = {a.id for a in call.args if isinstance(a, ast.Name)}
        others |= {kw.value.id for kw in call.keywords if isinstance(kw.value, ast.Name)}
        names = {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
        return ast.dump(expr) if names & others and names <= known | others else None

    computed = []
    for module, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name not in calls:
                continue
            for position, arg in enumerate(fn.args.posonlyargs + fn.args.args):
                exprs = {derived(known, call, position, arg.arg) for known, call in calls[fn.name]}
                if len(exprs) == 1 and None not in exprs:
                    computed.append(f"{module}.{fn.name}({arg.arg})")
    assert computed == []


def test_group_tables_are_built_only_by_verify_group():
    # every GroupTable is validated and carries the facts of its table
    src = Path(bracelab.__file__).parent

    def calls(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and "GroupTable" in (
                getattr(child.func, "id", None), getattr(child.func, "attr", None)
            ):
                yield scope
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
            yield from calls(child, inner)

    found = [
        f"{path.stem}.{scope}"
        for path in sorted(src.glob("*.py"))
        for scope in calls(ast.parse(path.read_text()), "<module>")
    ]
    assert found == ["groups._verified"]


def test_readme_example_runs():
    # the README's one python block, with the results its comments state
    readme = Path(__file__).resolve().parents[1] / "README.md"
    (block,) = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    names = {}
    exec(block, names)
    assert [t.indices() for t in names["chain"]] == [[0], [0, 2], [0, 1, 2, 3]]
    assert names["report"].annihilator.cls == 2
