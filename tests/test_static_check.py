"""Static rules on the sources, checked by reading them, not by running them.

The check fails on an import a module never uses (``__init__.py`` and
``__all__`` re-exports are exempt), on an ``__all__`` name a module neither
defines nor imports, on a module-level function or class whose name appears
nowhere but its definition in src/, tests/ or bench/, and on a scipy import
outside a function body: importing scipy.linalg costs more than all of
kypcert, so it is deferred to the fallbacks that need it. Under tests/, an
xfail mark must be strict=True and name the ROADMAP item that fixes it in
its reason, so a fix turns it into a failure that removes the mark.
"""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _module_faults(path: pathlib.Path, words: collections.Counter) -> list:
    """The faults of one module of src/kypcert; ``words`` counts each word of the sources."""
    name = path.relative_to(ROOT)
    tree = ast.parse(path.read_text(), str(path))
    bad, imported, defined, exported = [], {}, set(), []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
            if words[node.name] < 2:
                bad.append(f"{name}:{node.lineno}: '{node.name}' appears only where it is defined")
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for t in targets:
            if isinstance(t, ast.Name):
                defined.add(t.id)
                if t.id == "__all__":
                    exported = ast.literal_eval(node.value)
    in_function = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in in_function:
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                modules = [node.module or ""]
            if any(m.split(".")[0] == "scipy" for m in modules):
                bad.append(f"{name}:{node.lineno}: module-level scipy import")
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    if path.name != "__init__.py":
        for alias, line in imported.items():
            if alias not in used and alias not in exported:
                bad.append(f"{name}:{line}: '{alias}' imported but unused")
    for export in exported:
        if export not in defined and export not in imported:
            bad.append(f"{name}: __all__ lists '{export}', which is neither defined nor imported")
    return bad


def _xfail_faults(path: pathlib.Path) -> list:
    """The xfail marks of one test module that are not strict or name no ROADMAP item."""
    tree = ast.parse(path.read_text(), str(path))
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "xfail" \
                and getattr(node.value, "attr", None) == "mark":
            kw = {k.arg: k.value for k in getattr(calls.get(id(node)), "keywords", [])}
            strict = getattr(kw.get("strict"), "value", None) is True
            reason = getattr(kw.get("reason"), "value", None)
            if not (strict and isinstance(reason, str) and "ROADMAP" in reason):
                bad.append(f"{path.relative_to(ROOT)}:{node.lineno}: xfail mark without "
                           "strict=True and a ROADMAP item in its reason")
    return bad


def test_static_check():
    # a name is a whole word: one maximal run of word characters
    words = collections.Counter(
        w for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py")
        for w in re.findall(r"\w+", p.read_text())
    )
    bad = []
    for path in sorted((ROOT / "src" / "kypcert").glob("*.py")):
        bad += _module_faults(path, words)
    for path in sorted((ROOT / "tests").rglob("*.py")):
        bad += _xfail_faults(path)
    assert not bad, "\n".join(bad)
