"""Every public name of the package has a caller outside the tests.

A name in a module's ``__all__`` counts as used when code under ``src/``,
``demos/`` or ``bench/`` loads it: as a bare name (outside the body of its
own definition), or as an attribute of its module, e.g. ``crf.viterbi``.
``__all__`` strings and import lines are not references.  The scan reads
the syntax tree, so ``text.encode("utf-8")`` is not a use of an
``encode`` function.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "xsrl"
CALLER_DIRS = ("src", "demos", "bench")

# The acceptance oracle: criterion 2 checks training gradients against
# gradient_check, and no shipped code needs it.
ORACLES = {"xsrl.model.training.gradient_check", "xsrl.model.gradient_check"}


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def _references(tree: ast.Module):
    """(bare names, (module, attribute) pairs, modules) that the code
    loads or imports; a module is known by its last component, e.g.
    ``crf``, and a bare name inside the definition of the same name is
    left out."""
    aliases, modules = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module.rsplit(".", 1)[-1])
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                short = alias.name.rsplit(".", 1)[-1]
                aliases[alias.asname or short] = short
                modules.add(short)
    names, attributes = set(), set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in enclosing:
                names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            attributes.add((aliases.get(node.value.id, node.value.id), node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return names, attributes, modules


def test_every_exported_name_has_a_caller():
    names, attributes, modules = set(), set(), set()
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            found = _references(ast.parse(path.read_text(encoding="utf-8")))
            names |= found[0]
            attributes |= found[1]
            modules |= found[2]

    exported, unused = set(), []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module_name(path)
        short = module.rsplit(".", 1)[-1]
        for name in _exports(ast.parse(path.read_text(encoding="utf-8"))):
            qualified = f"{module}.{name}"
            exported.add(qualified)
            is_submodule = path.name == "__init__.py" and (
                (path.parent / f"{name}.py").exists() or (path.parent / name).is_dir())
            used = (name in modules if is_submodule
                    else name in names or (short, name) in attributes)
            if not used and qualified not in ORACLES:
                unused.append(qualified)
    assert ORACLES <= exported, sorted(ORACLES - exported)
    assert not unused, f"exported but never used outside tests: {unused}"
