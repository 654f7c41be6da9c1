"""Every entry point the benchmark's span tracer patches still exists.

`perfbench/run.py --trace 1` swaps each name in the tracer's `SPANS` and
`ELIMINATIONS` for a timing wrapper; renaming or deleting one of them in
the library would break the traced run, so the tables are checked here.
The tracer's source is only read and executed, never installed.
"""

import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    """The tracer's module namespace, executed from its source (no bytecode
    cache is written next to it)."""
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"),
         namespace)
    return namespace


def resolve(module_name, path):
    target = importlib.import_module(module_name)
    for part in path.split("."):
        target = getattr(target, part)
    return target


tracer = load_tracer()


@pytest.mark.parametrize("name, module_name, path", tracer["SPANS"],
                         ids=[name for name, _, _ in tracer["SPANS"]])
def test_span_target_resolves(name, module_name, path):
    assert callable(resolve(module_name, path)), name


@pytest.mark.parametrize("module_name, attr", tracer["ELIMINATIONS"],
                         ids=[attr for _, attr in tracer["ELIMINATIONS"]])
def test_elimination_target_resolves(module_name, attr):
    assert callable(resolve(module_name, attr))
