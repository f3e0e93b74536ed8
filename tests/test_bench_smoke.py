"""Each benchmark workload runs set-up, op and check end to end on a small input.

The workloads are shrunk in the test (a 16^2 image, a 6^3 sparse file), so a
broken op or output contract fails here instead of in a benchmark run. One
op also runs under the span tracer of ``bench/spans.py``, as a traced run does.
"""

import importlib.util
import inspect
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")
spans = load("spans")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_input_passes_its_checks(name, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.Img256, "SIDE", 16)
    monkeypatch.setattr(workloads.Sparse48Cli, "SHAPE", (6, 6, 6))
    workload = workloads.WORKLOADS[name]
    case = workload.setup(7, 0, str(tmp_path))[0]
    outcome = workload.check(case, workload.op(case, str(tmp_path)), str(tmp_path))
    assert outcome.problems == []
    assert outcome.reason


def library_functions():
    """Every function bound in a ttcomplete module namespace, and the hook the tracer wraps."""
    bound = {
        (name, attr): obj
        for name, mod in list(sys.modules.items())
        if name == "ttcomplete" or name.startswith("ttcomplete.")
        for attr, obj in vars(mod).items()
        if inspect.isfunction(obj)
    }
    bound["SparseObservations.__post_init__"] = workloads.ttc.SparseObservations.__post_init__
    return bound


def test_traced_op_records_spans_and_restores_the_library(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.Img256, "SIDE", 16)
    workload = workloads.WORKLOADS["img256"]
    case = workload.setup(7, 0, str(tmp_path))[0]
    before = library_functions()
    tracer = spans.Tracer()
    tracer.install()
    try:
        out = workload.op(case, str(tmp_path))
    finally:
        tracer.uninstall()
    assert {"optimize.minimize", "engine.evaluate"} <= {sp.name for sp in tracer.spans}
    after = library_functions()
    assert after.keys() == before.keys()
    assert all(after[key] is fn for key, fn in before.items())
    assert workload.check(case, out, str(tmp_path)).problems == []
