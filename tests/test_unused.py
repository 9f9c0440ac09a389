"""No dead code: every module-level function or class of the package, public
or private, is referenced somewhere in the package outside its own
definition, or exported in ``__all__``; and every public method or property
of a package class is read as an attribute somewhere in the package outside
its own definition, or in the acceptance suite.  The modules' imports of
one another form no cycle."""

import ast
import collections
import graphlib
import pathlib

import extremal_moments as em

PACKAGE = pathlib.Path(em.__file__).resolve().parent
ACCEPTANCE = pathlib.Path(__file__).resolve().parent / "test_acceptance.py"


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


def _attributes(node) -> collections.Counter:
    """How often each attribute name is read under *node*."""
    return collections.Counter(child.attr for child in ast.walk(node)
                               if isinstance(child, ast.Attribute))


def unread_members(sources: dict) -> list:
    """``module:Class.name`` of each public method or property of a
    module-level class of *sources* whose name no attribute of *sources*
    outside its own definition, or of the acceptance suite, reads.  Names
    are matched alone, so a member named like an attribute read elsewhere
    passes."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = sum(map(_attributes, trees.values()), collections.Counter())
    acceptance = _attributes(ast.parse(ACCEPTANCE.read_text(encoding="utf-8")))
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if isinstance(member, ast.FunctionDef) \
                        and not member.name.startswith("_") \
                        and member.name not in acceptance \
                        and reads[member.name] \
                        == _attributes(member)[member.name]:
                    unread.append(f"{module}:{node.name}.{member.name}")
    return unread


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


def test_every_public_member_is_read():
    assert unread_members(package_sources()) == []


def test_the_check_sees_an_unread_method():
    # Only its own body reads orphan_method.
    sources = {**package_sources(),
               "probe.py": "class Probe:\n    def orphan_method(self):\n"
                           "        return self.orphan_method()\n"}
    assert unread_members(sources) == ["probe.py:Probe.orphan_method"]


def import_graph(sources: dict) -> dict:
    """Each module of *sources* -> the modules of *sources* it imports with
    ``from . import x`` or ``from .x import ...``, anywhere in its code."""
    modules = {name.removesuffix(".py") for name in sources}
    graph = {}
    for name, text in sources.items():
        imported = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    imported.update(alias.name for alias in node.names)
                else:
                    imported.add(node.module.split(".")[0])
        graph[name.removesuffix(".py")] = imported & modules
    return graph


def import_cycle(graph: dict) -> list:
    """A cycle of *graph*, its first module repeated at the end; [] when the
    graph is acyclic."""
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        return exc.args[1]
    return []


def test_package_imports_form_no_cycle():
    assert import_cycle(import_graph(package_sources())) == []


def test_the_check_sees_an_import_cycle():
    sources = {**package_sources(),
               "probe.py": "from .probe_b import x\n",
               "probe_b.py": "from . import probe\n"}
    assert sorted(import_cycle(import_graph(sources))) \
        == ["probe", "probe", "probe_b"]
