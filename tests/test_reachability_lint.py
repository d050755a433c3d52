"""Lint: every module under ``src/repro`` is reached from an entry point.

``src/`` holds what the system serves; a module only benchmarks or
tests read belongs beside them.  The entry points are the CLI, the
shard worker, ``ChatGraph``, the API-catalog submodules that
``register_all`` installs, and the runnable ``examples/*.py``.  From
there the lint follows every ``import`` / ``from ... import`` — a
function-level (lazy) import counts — and reports each module nothing
reaches.

A package ``__init__`` that re-exports a name is a pass-through, not a
use: ``from repro.ann import TauMGIndex`` reaches the module that
defines ``TauMGIndex``, and a submodule the ``__init__`` merely imports
at its top level stays unreached until someone imports a name from it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXAMPLES = ROOT / "examples"
ENTRY_MODULES = ("repro.cli", "repro.shard.worker", "repro.core.chatgraph")
CATALOG = "repro.apis.catalog"

#: Unreached modules kept under ``src/`` on purpose, with the reason.
ALLOWLIST = {
    "repro.graphs.views":
        "ego_graph is a graph-library op, exported for users",
    "repro.chem.random_gen":
        "the E2/E3 benchmarks' random-molecule generator",
    "repro.llm.persistence":
        "the saved-model file format a served model will load from",
}


def module_files(src):
    """Dotted module name -> source path, for every module under ``src``."""
    files = {}
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


class ImportGraph:
    """The parsed modules under one source root and what they import."""

    def __init__(self, src):
        self.files = module_files(src)
        self.trees = {name: ast.parse(path.read_text(encoding="utf-8"))
                      for name, path in self.files.items()}

    def is_package(self, name):
        return name in self.files and self.files[name].name == "__init__.py"

    def base_of(self, module, node):
        """Absolute name of the module a ``from ... import`` reads."""
        if not node.level:
            return node.module
        package = module if self.is_package(module) else \
            module.rpartition(".")[0]
        parts = package.split(".")
        parts = parts[:len(parts) - node.level + 1]
        return ".".join(parts + ([node.module] if node.module else []))

    def reexports(self, package):
        """Top-level import statements of a package ``__init__``."""
        return [node for node in self.trees[package].body
                if isinstance(node, (ast.Import, ast.ImportFrom))]

    def defining_module(self, base, name, seen=()):
        """The module ``from base import name`` really reads."""
        if f"{base}.{name}" in self.files:
            return f"{base}.{name}"
        if not self.is_package(base) or base in seen:
            return base
        for node in self.reexports(base):
            if not isinstance(node, ast.ImportFrom):
                continue
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return self.defining_module(
                        self.base_of(base, node), alias.name,
                        (*seen, base))
        return base  # defined in the __init__ itself

    def uses(self, module, tree):
        """Every module one parsed module imports (lazy imports too)."""
        skip = set(map(id, self.reexports(module))) \
            if self.is_package(module) else set()
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = self.base_of(module, node)
                for alias in node.names:
                    yield self.defining_module(base, alias.name)

    def reached(self, entry_modules, entry_files=()):
        """Modules reached from the entry modules and entry scripts."""
        reached = set()
        frontier = list(entry_modules)
        for path in entry_files:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            frontier.extend(self.uses("__main__", tree))
        while frontier:
            name = frontier.pop()
            if name in reached or name not in self.files:
                continue
            reached.add(name)
            # importing a.b.c runs the a and a.b __init__s first
            frontier.append(name.rpartition(".")[0])
            frontier.extend(self.uses(name, self.trees[name]))
        return reached

    def catalog_modules(self, catalog):
        """The catalog submodules its ``register_all`` body names."""
        register_all = next(
            node for node in self.trees[catalog].body
            if isinstance(node, ast.FunctionDef)
            and node.name == "register_all")
        named = {node.id for node in ast.walk(register_all)
                 if isinstance(node, ast.Name)}
        return [f"{catalog}.{name}" for name in sorted(named)
                if f"{catalog}.{name}" in self.files]

    def unreached(self, entry_modules, entry_files=()):
        return sorted(set(self.files)
                      - self.reached(entry_modules, entry_files))


def repro_unreached():
    graph = ImportGraph(SRC)
    entries = (*ENTRY_MODULES, *graph.catalog_modules(CATALOG))
    return graph.unreached(entries, sorted(EXAMPLES.glob("*.py")))


def test_entry_points_exist():
    graph = ImportGraph(SRC)
    assert len(graph.files) > 50  # really walking the tree
    assert set(ENTRY_MODULES) <= set(graph.files)
    # register_all installs every catalog submodule
    catalog = {name for name in graph.files
               if name.startswith(CATALOG + ".")}
    assert len(catalog) > 5
    assert set(graph.catalog_modules(CATALOG)) == catalog
    assert len(list(EXAMPLES.glob("*.py"))) > 3


def test_every_src_module_is_reached_from_an_entry_point():
    unreached = [name for name in repro_unreached()
                 if name not in ALLOWLIST]
    assert not unreached, (
        "no entry point (repro.cli, repro.shard.worker, ChatGraph, the "
        "API catalog, examples/) imports these modules; move what only "
        "benchmarks or tests read beside them, or delete it:\n"
        + "\n".join(unreached))


def test_allowlist_is_small_and_still_needed():
    assert len(ALLOWLIST) <= 3
    assert all(reason.strip() for reason in ALLOWLIST.values())
    # an allowlisted module someone now imports must leave the list
    assert set(ALLOWLIST) <= set(repro_unreached())


def write_tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def test_lint_catches_a_planted_violation(tmp_path):
    write_tree(tmp_path, {
        "pkg/__init__.py": "from .kept import used\n"
                           "from .reexported import only_reexported\n",
        "pkg/main.py": "from . import lazy_user\n"
                       "from pkg import used\n",
        "pkg/kept.py": "def used():\n    pass\n",
        "pkg/reexported.py": "def only_reexported():\n    pass\n",
        "pkg/lazy_user.py": "def run():\n"
                            "    from .lazy import thing\n"
                            "    return thing\n",
        "pkg/lazy.py": "thing = 1\n",
        "pkg/orphan.py": "import pkg.kept\n",
    })
    graph = ImportGraph(tmp_path)
    # the re-export in pkg/__init__ alone does not reach reexported.py;
    # the lazy import inside lazy_user.run does reach lazy.py
    assert graph.unreached(["pkg.main"]) == ["pkg.orphan", "pkg.reexported"]
