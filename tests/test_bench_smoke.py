"""Each benchmark workload runs set-up, op and check end to end on a small input.

The workloads are shrunk in the test (a 16^2 image, a 6^3 sparse file), so a
broken op or output contract fails here instead of in a benchmark run.
"""

import importlib.util
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_input_passes_its_checks(name, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.Img256, "SIDE", 16)
    monkeypatch.setattr(workloads.Sparse48Cli, "SHAPE", (6, 6, 6))
    workload = workloads.WORKLOADS[name]
    case = workload.setup(7, 0, str(tmp_path))[0]
    outcome = workload.check(case, workload.op(case, str(tmp_path)), str(tmp_path))
    assert outcome.problems == []
    assert outcome.reason
