"""Lint: the docs name only symbols that exist.

Every inline-code span in ``docs/*.md`` and ``README.md`` is scanned for
two kinds of reference:

* a **CamelCase identifier** (``StageGraph``, ``ServeConfig(...)``,
  ``RetrieveStage.cache``) — the identifier must be the name of a
  class, function or assignment somewhere under ``src/repro`` (or a
  Python builtin such as ``KeyError``);
* a **dotted path** starting ``repro.`` — it must resolve, part by
  part, to a module, then a module-level name, then class-level
  members (methods and class-body assignments; names a module imports
  from a sibling are followed to their definition).

So deleting or renaming a symbol without rewriting the prose that
mentions it fails here rather than in a reader's editor.  Fenced code
blocks are skipped: the one that must keep working is executed by
``tests/test_docs_examples.py``.  Instance attributes (``self.x = ...``)
deliberately do not resolve — write ``lifecycle.breakers``, not a
dotted path to it.
"""

import ast
import builtins
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DOC_FILES = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md"]

FENCED = re.compile(r"^```.*?^```", re.DOTALL | re.MULTILINE)
INLINE = re.compile(r"`([^`\n]+)`")
#: (a name after ``::`` is a test id, not a ``src/`` symbol)
CAMEL = re.compile(r"(?<![\w.:])[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+\b")
DOTTED = re.compile(r"(?<![\w./-])repro(?:\.[A-Za-z_]\w*)+")


def _bound_names(body):
    """name -> defining node for the statements of one module/class
    body: classes, functions, assignment targets and imported names."""
    names = {}
    for node in body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names[leaf.id] = node
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = node
    return names


def _load_modules():
    """dotted module name -> its bound names; and the set of packages."""
    modules, packages = {}, set()
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
            packages.add(".".join(parts))
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules[".".join(parts)] = _bound_names(tree.body)
    return modules, packages


MODULES, PACKAGES = _load_modules()

#: Every class/function/assignment name at module or class level.
DEFINED = {
    name
    for names in MODULES.values()
    for top, node in names.items()
    for name in ([top] + (list(_bound_names(node.body))
                          if isinstance(node, ast.ClassDef) else []))
}


def _import_source(module, node):
    """The ``repro`` module a ``from ... import`` in ``module`` reads
    from (``None`` for any other import)."""
    if not isinstance(node, ast.ImportFrom):
        return None
    source = node.module
    if node.level:
        package = module.split(".")
        if module not in PACKAGES:
            package.pop()
        package = package[:len(package) - (node.level - 1)]
        source = ".".join(package + ([source] if source else []))
    return source if source in MODULES else None


def resolve(path):
    """True when the dotted ``repro.…`` path names something real."""
    parts = path.split(".")
    cut = max((i for i in range(1, len(parts) + 1)
               if ".".join(parts[:i]) in MODULES), default=0)
    if cut == 0:
        return False
    module, rest = ".".join(parts[:cut]), parts[cut:]
    if not rest:
        return True
    node = MODULES[module].get(rest[0])
    # follow re-exports (``from .trace import Tracer``) to the definition
    while isinstance(node, (ast.Import, ast.ImportFrom)):
        source = _import_source(module, node)
        if source is None:
            return len(rest) == 1  # a third-party name, taken on trust
        module, node = source, MODULES[source].get(rest[0])
    if node is None:
        return False
    for member in rest[1:]:
        if not isinstance(node, ast.ClassDef):
            return False
        node = _bound_names(node.body).get(member)
        if node is None:
            return False
    return True


def references():
    """(file name, kind, symbol) for every reference in the docs."""
    for doc in DOC_FILES:
        text = FENCED.sub("", doc.read_text(encoding="utf-8"))
        for span in INLINE.findall(text):
            for path in DOTTED.findall(span):
                yield doc.name, "path", path
            for ident in CAMEL.findall(DOTTED.sub("", span)):
                yield doc.name, "identifier", ident


def test_every_symbol_the_docs_name_exists():
    seen = {"path": set(), "identifier": set()}
    stale = []
    for doc, kind, symbol in references():
        seen[kind].add(symbol)
        ok = (resolve(symbol) if kind == "path"
              else symbol in DEFINED or hasattr(builtins, symbol))
        if not ok:
            stale.append(f"{doc}: {kind} `{symbol}`")
    # sanity: the docs were really scanned
    assert len(seen["path"]) > 40 and len(seen["identifier"]) > 40
    assert not stale, (
        "the docs name symbols that do not exist under src/repro "
        "(renamed or deleted?):\n" + "\n".join(sorted(set(stale))))


def test_the_resolver_itself():
    assert resolve("repro.core.stages")
    assert resolve("repro.core.stages.StageGraph.run")
    assert resolve("repro.obs.Tracer.span")  # followed through a re-export
    assert resolve("repro.runtime.shard.HEARTBEAT_TIMEOUT_SECONDS")
    assert not resolve("repro.core.stages.StageGraph.run_twice")
    assert not resolve("repro.core.no_such_module")
    assert not resolve("repro.obs.NoSuchThing")
    assert "StageGraph" in DEFINED and "NoSuchThing" not in DEFINED
