"""The benchmark's tracer (perfbench/tracing.py) wraps gazesim functions by
name and binds some of their parameters by name. This reads its TRACED table
and the parameter names it binds from the source, without importing or
changing it, so a rename that would break traced benchmark runs fails here."""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# parameters the tracer reads from each function's bound arguments
BOUND = {
    ("metrics", "estimate_latency"): ("rec", "search_range_ms", "step_ms"),
    ("degrade", "lowpass_zero_phase"): ("rec",),
    ("calibrate", "sweep_sigma"): ("corpus",),
    ("io", "write_recording"): ("path",),
    ("io", "read_recording"): ("path",),
    ("io", "read_quality_table"): ("path",),
    ("io", "write_quality_table"): ("path",),
    ("assess", "one_nn_two_sample"): ("real",),
}


def tracing_source():
    return ast.parse(TRACING.read_text(encoding="utf-8"))


def traced_table():
    for node in tracing_source().body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACING}")


def bound_names():
    """String keys subscripted on _bound(...) results, directly or through a
    local name assigned from _bound(...)."""
    tree = tracing_source()
    holders = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
               and isinstance(node.value, ast.Call)
               and getattr(node.value.func, "id", None) == "_bound"
               for t in node.targets if isinstance(t, ast.Name)}
    keys = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
            value = node.value
            if (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "_bound") \
                    or (isinstance(value, ast.Name) and value.id in holders):
                keys.add(node.slice.value)
    return keys


TRACED_PAIRS = [(module, func) for module, funcs in traced_table().items()
                for func in funcs]


@pytest.mark.parametrize("module,func", TRACED_PAIRS)
def test_traced_function_resolves(module, func):
    target = getattr(importlib.import_module(f"gazesim.{module}"), func, None)
    assert callable(target), f"gazesim.{module}.{func} is traced but missing"
    inspect.signature(target)


def test_bound_names_cover_the_tracer():
    assert bound_names() == {name for names in BOUND.values() for name in names}


@pytest.mark.parametrize("module,func", sorted(BOUND))
def test_bound_parameters_exist(module, func):
    assert (module, func) in TRACED_PAIRS
    params = inspect.signature(getattr(importlib.import_module(f"gazesim.{module}"), func)).parameters
    for name in BOUND[(module, func)]:
        assert name in params, f"gazesim.{module}.{func} lost parameter {name!r}"
