"""Lint: request-plane primitives are constructed only in the runtime.

The unified request-plane refactor's contract is that admission,
rate limiting, breakers and micro-batching are wired exactly once, in
:mod:`repro.runtime` — the serving facades (``ChatGraphServer``,
``ShardedChatGraphServer``) must not grow their own copies back, or the
two control planes drift apart again.  This lint walks every module
under ``src/repro`` and rejects any *call* to ``AdmissionQueue``,
``RateLimiter``, ``BreakerRegistry``, ``MicroBatcher`` or
``MetricsRegistry`` outside:

* ``repro/runtime/`` (the one legitimate wiring site — the lifecycle
  owns the queue/limiter/breakers and the one counter/histogram store),
  narrowed for the two that shape a request's path: the admission queue
  is built in ``runtime/lifecycle.py`` alone and the micro-batcher in
  ``runtime/local.py`` alone, so every request path has one queue and
  one coalescer, and
* each primitive's own definition module (constructors may appear in
  their doctests and helpers).

Importing the names elsewhere stays legal (types in signatures,
``isinstance`` checks); *constructing* them is what concentrates
control-plane policy and is what this lint confines.

The same walk confines processes: a ``Popen(...)`` call is legal only
inside :class:`repro.runtime.shard.ShardLink`, the one owner of a
worker's process and pipes — so every kill, stop and reap is there too,
and no second code path can start a process it forgets to reap.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
RUNTIME_DIR = SRC / "runtime"

#: The request-plane primitives and the module defining each.
PRIMITIVES = {
    "AdmissionQueue": SRC / "serve" / "admission.py",
    "RateLimiter": SRC / "serve" / "admission.py",
    "BreakerRegistry": SRC / "serve" / "breaker.py",
    "MicroBatcher": SRC / "serve" / "microbatch.py",
    # a second counter/histogram store beside the lifecycle's would
    # need a rule for which one a report reads; there is one store
    "MetricsRegistry": SRC / "obs" / "metrics.py",
}

#: Primitives confined to one runtime module rather than the package.
ONLY_IN = {
    "AdmissionQueue": RUNTIME_DIR / "lifecycle.py",
    "MicroBatcher": RUNTIME_DIR / "local.py",
}


#: The one class that may start a process, and its module.
POPEN_OWNER = (RUNTIME_DIR / "shard.py", "ShardLink")


def iter_source_files():
    return sorted(SRC.rglob("*.py"))


def _call_name(node):
    """The bare callee name of a Call: ``Name(...)`` or ``mod.Name(...)``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def violations_in(path, source=None):
    """Construction sites in ``path`` (its text, unless ``source`` is
    given) that its location does not license."""
    if source is None:
        source = path.read_text(encoding="utf-8")
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name not in PRIMITIVES or path == PRIMITIVES[name]:
            continue
        if name in ONLY_IN:
            if path != ONLY_IN[name]:
                found.append((node.lineno, f"{name}(...) constructed "
                                           f"outside {ONLY_IN[name].name}"))
        elif RUNTIME_DIR not in path.parents:
            found.append((node.lineno, f"{name}(...) constructed outside "
                                       f"repro.runtime"))
    return found


def popen_calls_in(path, source=None):
    """``Popen(...)`` calls in ``path`` outside the one owner class."""
    if source is None:
        source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    owned = set()
    if path == POPEN_OWNER[0]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == POPEN_OWNER[1]:
                owned.update(id(inner) for inner in ast.walk(node))
    return sorted(
        (node.lineno, f"Popen(...) called outside {POPEN_OWNER[1]}")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _call_name(node) == "Popen"
        and id(node) not in owned)


def test_source_files_exist():
    files = iter_source_files()
    assert len(files) > 50  # sanity: we are really walking the tree
    assert RUNTIME_DIR.is_dir()
    for definition in (*PRIMITIVES.values(), *ONLY_IN.values()):
        assert definition.exists(), definition


def test_primitives_construct_only_in_the_runtime():
    problems = []
    for path in iter_source_files():
        for lineno, message in violations_in(path):
            problems.append(
                f"{path.relative_to(SRC.parent.parent)}:{lineno}: "
                f"{message}")
    assert not problems, (
        "request-plane primitives are wired once, in repro.runtime; "
        "route new admission/limiter/breaker/microbatch needs through "
        "RequestLifecycle or a backend instead of constructing them "
        "locally:\n" + "\n".join(problems))


def test_runtime_itself_constructs_the_primitives():
    """The lint must keep seeing the legitimate wiring sites."""
    constructed = set()
    for path in RUNTIME_DIR.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _call_name(node)
                if name in PRIMITIVES:
                    constructed.add(name)
    assert constructed == set(PRIMITIVES), (
        f"expected the runtime to wire every primitive; "
        f"saw only {sorted(constructed)}")


def test_lint_catches_a_planted_violation(tmp_path):
    planted = tmp_path / "bad.py"
    planted.write_text(
        "from repro.serve.admission import AdmissionQueue, RateLimiter\n"
        "import repro.serve.microbatch as mb\n"
        "queue = AdmissionQueue(maxsize=4)\n"
        "limiter = RateLimiter(capacity=1, refill_per_second=1.0)\n"
        "batcher = mb.MicroBatcher(size=4, deadline_seconds=0.01)\n"
        "from repro.obs import MetricsRegistry\n"
        "books = MetricsRegistry()\n",
        encoding="utf-8")
    found = violations_in(planted)
    assert len(found) == 4
    # inside the runtime, a second queue or coalescer is still refused
    # outside its one module — here, a shard backend growing its own
    runtime_planted = (
        "queue = AdmissionQueue(maxsize=4)\n"
        "batcher = MicroBatcher(4, 0.002)\n"
        "books = MetricsRegistry()\n")
    found = violations_in(RUNTIME_DIR / "shard.py", runtime_planted)
    assert [lineno for lineno, __ in found] == [1, 2]
    assert violations_in(RUNTIME_DIR / "local.py", runtime_planted) \
        == [(1, "AdmissionQueue(...) constructed outside lifecycle.py")]


def test_processes_start_only_in_the_shard_link():
    problems = [f"{path.relative_to(SRC.parent.parent)}:{lineno}: {message}"
                for path in iter_source_files()
                for lineno, message in popen_calls_in(path)]
    assert not problems, (
        "a worker process is started, written, killed, stopped and "
        "reaped by ShardLink alone; go through it:\n" + "\n".join(problems))


def test_the_shard_link_itself_starts_the_process():
    """The lint must keep seeing the one legitimate site."""
    source = POPEN_OWNER[0].read_text(encoding="utf-8")
    assert "Popen(" in source
    assert popen_calls_in(POPEN_OWNER[0], source) == []
    assert popen_calls_in(RUNTIME_DIR / "local.py", source) != []


def test_popen_lint_catches_a_planted_violation():
    planted = (
        "import subprocess\n"
        "class ShardLink:\n"
        "    def spawn(self):\n"
        "        return subprocess.Popen(['worker'])\n"
        "class ShardBackend:\n"
        "    def respawn(self):\n"
        "        return subprocess.Popen(['worker'])\n"
        "proc = Popen(['worker'])\n")
    shard = POPEN_OWNER[0]
    assert [lineno for lineno, __ in popen_calls_in(shard, planted)] \
        == [7, 8]
    # a class of the same name in another module is no owner
    assert [lineno for lineno, __ in popen_calls_in(
        SRC / "shard" / "worker.py", planted)] == [4, 7, 8]
