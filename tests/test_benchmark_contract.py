"""The benchmark in perfbench/ wraps bove functions by name.

A rename or an inlined function would otherwise surface only when the
benchmark runs; this test reads the benchmark's WRAPPED list without
importing the harness and checks that every entry still resolves.
"""

import ast
import importlib
import pathlib

import pytest

RUN = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def wrapped_names():
    for node in ast.parse(RUN.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [
            getattr(target, "id", None) for target in node.targets
        ] == ["WRAPPED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("%s assigns no WRAPPED list" % RUN)


@pytest.mark.parametrize("module, attr", wrapped_names())
def test_wrapped_function_resolves(module, attr):
    target = getattr(importlib.import_module("bove." + module), attr, None)
    assert callable(target), "bove.%s.%s is not a callable" % (module, attr)
