"""Lint: every serving knob has a caller that needs a second value.

A field of :class:`~repro.config.ServeConfig` or
:class:`~repro.shard.ShardModelSpec` earns its place only if some
non-test caller passes it something other than its default.  This scans
every ``ServeConfig(...)`` and ``ShardModelSpec(...)`` call in ``src/``
(except ``config.py``, where the class lives) and ``benchmarks/``
(except test files); tests and examples do not count, since a value
only they set is a constant the API need not expose.  A keyword whose
value is a literal equal to the field's default counts as unset; any
other value, literal or not, counts as a second value.  Splatted
``**kwargs`` are not followed.
"""

import ast
import dataclasses
from pathlib import Path

from repro.config import ServeConfig
from repro.shard import ShardModelSpec

ROOT = Path(__file__).resolve().parent.parent
CLASSES = {"ServeConfig": ServeConfig, "ShardModelSpec": ShardModelSpec}


def caller_files():
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name != "config.py":
            yield path
    for path in sorted((ROOT / "benchmarks").rglob("*.py")):
        if "tests" not in path.parts and not path.name.startswith("test_"):
            yield path


def default_of(field):
    if field.default is not dataclasses.MISSING:
        return field.default
    return field.default_factory()


def is_default(node, default):
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return False  # not a literal: a second value as far as we know
    if isinstance(value, list):
        value = tuple(value)
    return (value == default
            and isinstance(value, bool) == isinstance(default, bool))


def second_values():
    """``{(class, field): [file:line, ...]}`` of non-default passes."""
    found = {}
    for path in caller_files():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name not in CLASSES:
                continue
            fields = dataclasses.fields(CLASSES[name])
            passed = list(zip(fields, node.args))
            by_name = {field.name: field for field in fields}
            passed += [(by_name[kw.arg], kw.value)
                       for kw in node.keywords if kw.arg in by_name]
            for field, value in passed:
                if not is_default(value, default_of(field)):
                    where = f"{path.relative_to(ROOT)}:{node.lineno}"
                    found.setdefault((name, field.name), []).append(where)
    return found


def test_every_field_is_set_to_a_second_value_by_a_non_test_caller():
    found = second_values()
    unused = sorted(f"{name}.{field.name}"
                    for name, cls in CLASSES.items()
                    for field in dataclasses.fields(cls)
                    if (name, field.name) not in found)
    assert not unused, (
        "fields no non-test caller sets to anything but the default "
        f"(make them constants or delete them): {unused}")


def test_the_scan_reads_callers_and_tells_defaults_apart():
    found = second_values()
    assert any(where.startswith("benchmarks/ledger/")
               for where in found[("ServeConfig", "shards")])
    literal = [ast.parse(text, mode="eval").body
               for text in ("0.5", "0.25", "rate", "True", "[]")]
    assert [is_default(node, 0.5) for node in literal[:3]] \
        == [True, False, False]
    assert not is_default(literal[3], 1)  # True is not the int 1
    assert is_default(literal[4], ())     # a list literal for a tuple
