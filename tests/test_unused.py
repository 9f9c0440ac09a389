"""No dead public code: every module-level public function or class of the
package is referenced somewhere in the package outside its own definition,
or exported in ``__all__``."""

import ast
import pathlib

import extremal_moments as em

PACKAGE = pathlib.Path(em.__file__).resolve().parent


def _names(node, skip=None) -> set:
    """Names read or imported anywhere under *node*, except inside *skip*."""
    found, stack = set(), [node]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
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


def unused_public_names(sources: dict) -> list:
    """``module:name`` of each module-level public function or class of
    *sources* that no module references and ``__all__`` does not list."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_") \
                    or node.name in em.__all__:
                continue
            if not any(node.name in _names(other, node)
                       for other in trees.values()):
                unused.append(f"{module}:{node.name}")
    return unused


def test_every_public_name_is_used_or_exported():
    assert unused_public_names(package_sources()) == []


def test_the_check_sees_an_unused_function():
    # Only its own body refers to it.
    sources = {**package_sources(),
               "probe.py": "def orphan():\n    return orphan()\n"}
    assert unused_public_names(sources) == ["probe.py:orphan"]
