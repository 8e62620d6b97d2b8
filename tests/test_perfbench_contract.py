"""The names and call signatures that the benchmark in ``perfbench/``
binds.  A deletion or a signature change that breaks them would break every
benchmark run while the rest of the tests stay green."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _library_calls(path):
    """(call text, callable, call node) for each call in the file to a
    name imported from spillcast, to an attribute of such a name, or to a
    function of a spillcast module imported as ``from spillcast import m``."""
    tree = ast.parse(path.read_text())
    # the package's __getattr__ also resolves ``from spillcast import m``
    bound = {alias.asname or alias.name:
             getattr(importlib.import_module(node.module), alias.name)
             for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[0] == "spillcast"
             for alias in node.names}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in bound:
            yield ast.unparse(func), bound[func.id], node
        elif (isinstance(func, ast.Attribute)
              and isinstance(func.value, ast.Name) and func.value.id in bound):
            yield ast.unparse(func), getattr(bound[func.value.id], func.attr), node


def test_benchmark_names_and_calls_still_bind():
    """Every function that ``perfbench/tracing.py`` wraps exists, and every
    library call in ``perfbench/workloads.py`` binds to its signature:
    among them ``predict_severity`` with positional cases,
    ``predict_onset_risk`` without a K and ``trend_report`` with a K
    predictor that builds a ``KSeries``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    with tracing.Tracer():
        pass

    checked = set()
    for name, fn, call in _library_calls(PERFBENCH / "workloads.py"):
        assert not any(isinstance(a, ast.Starred) for a in call.args), name
        assert all(kw.arg for kw in call.keywords), name
        inspect.signature(fn).bind(*call.args,
                                   **{kw.arg: kw for kw in call.keywords})
        checked.add(name)
    assert {"predict_severity", "predict_onset_risk", "trend_report",
            "KSeries"} <= checked
