"""Lint: every threading primitive in ``src/`` is on the census.

Aim 2 wants fewer threads and locks, so their count has to show in
every diff.  This AST-counts, per ``src/`` module, each construction of
a ``threading`` lock, condition, event, semaphore, barrier, timer or
thread: a call such as ``threading.Lock()``, and a primitive class
handed over as a factory (``field(default_factory=threading.Lock)``
builds one per instance).  A name imported from ``threading`` counts
the same as the attribute.  Annotations do not count.  Any difference
from :data:`CENSUS` fails: a change that adds or removes a primitive
edits the table, and says why in CHANGES.md.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PRIMITIVES = frozenset({"Lock", "RLock", "Condition", "Event", "Thread",
                        "Semaphore", "BoundedSemaphore", "Barrier",
                        "Timer"})

#: Module (relative to ``src/``) -> primitives it constructs.
CENSUS = {
    "repro/apis/executor.py": 1,
    "repro/loadgen/chaos.py": 1,
    "repro/loadgen/runner.py": 1,
    "repro/obs/metrics.py": 3,
    "repro/obs/trace.py": 1,
    "repro/runtime/lifecycle.py": 1,
    "repro/runtime/local.py": 1,
    "repro/runtime/shard.py": 9,
    "repro/serve/admission.py": 3,
    "repro/serve/breaker.py": 2,
    "repro/serve/cache.py": 1,
    "repro/serve/engine.py": 1,
    "repro/serve/sessions.py": 2,
    "repro/shard/worker.py": 3,
    "repro/store/catalog.py": 4,
    "repro/testing/faults.py": 1,
}


def constructions(tree: ast.AST) -> int:
    """Primitive constructions in one parsed module."""
    modules = {"threading"}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.name == "threading" and alias.asname)
        elif isinstance(node, ast.ImportFrom) and node.module == "threading":
            names.update(alias.asname or alias.name for alias in node.names
                         if alias.name in PRIMITIVES)

    def is_primitive(expr: ast.AST) -> bool:
        if isinstance(expr, ast.Attribute):
            return (expr.attr in PRIMITIVES
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id in modules)
        return isinstance(expr, ast.Name) and expr.id in names

    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            # the call itself, and any primitive class passed to it
            count += sum(map(is_primitive, [node.func, *node.args, *(
                keyword.value for keyword in node.keywords)]))
    return count


def census() -> dict[str, int]:
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        count = constructions(ast.parse(path.read_text(encoding="utf-8")))
        if count:
            found[path.relative_to(SRC).as_posix()] = count
    return found


def test_threading_primitives_match_the_census():
    found = census()
    changed = {module: (CENSUS.get(module, 0), found.get(module, 0))
               for module in CENSUS.keys() | found.keys()
               if CENSUS.get(module, 0) != found.get(module, 0)}
    assert not changed, (
        "threading primitives moved (module: (census, found)); edit "
        f"CENSUS and record the change in CHANGES.md: {changed}")


def test_the_count_reads_calls_factories_and_imported_names():
    source = """
import threading
import threading as th
from threading import Event as Flag, local
from dataclasses import field

lock: threading.Lock = threading.Lock()
pair = (th.RLock(), Flag(), local())
entry = field(default_factory=threading.Condition)
spawned = threading.Thread(target=print, args=(threading.Event(),))
threading.current_thread()
"""
    # Lock, RLock, Flag, the Condition factory, Thread and its Event;
    # not the annotation, local() or current_thread()
    assert constructions(ast.parse(source)) == 6
    assert sum(census().values()) == sum(CENSUS.values()) == 35
