"""No dead code: every module-level function or class of the package, public
or private, is referenced somewhere in the package outside its own
definition, or exported in ``__all__``."""

import ast
import pathlib

import extremal_moments as em

PACKAGE = pathlib.Path(em.__file__).resolve().parent


def _names(node) -> set:
    """Names read or imported anywhere under *node*."""
    found, stack = set(), [node]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return found


def package_sources() -> dict:
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted(PACKAGE.glob("*.py"))}


def unused_names(sources: dict) -> list:
    """``module:name`` of each module-level function or class of *sources*
    that no module references and ``__all__`` does not list."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    # The names under each module-level statement of every module.
    parts = [(statement, _names(statement))
             for tree in trees.values() for statement in tree.body]
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name in em.__all__:
                continue
            if not any(node.name in names for statement, names in parts
                       if statement is not node):
                unused.append(f"{module}:{node.name}")
    return unused


def test_every_public_name_is_used_or_exported():
    assert [name for name in unused_names(package_sources())
            if ":_" not in name] == []


def test_every_private_name_is_used():
    # A helper left behind when its caller goes.
    assert [name for name in unused_names(package_sources())
            if ":_" in name] == []


def test_the_check_sees_an_unused_function():
    # Only its own body refers to orphan; nothing refers to _Left.
    sources = {**package_sources(),
               "probe.py": "def orphan():\n    return orphan()\n\n\n"
                           "class _Left:\n    pass\n"}
    assert unused_names(sources) == ["probe.py:orphan", "probe.py:_Left"]
