"""The names and call shapes the benchmark under ``perfbench/`` uses.

The benchmark drives the program from outside: it wraps the functions
listed in ``perfbench/tracer.TRACED`` and builds its requests and configs
with the program's public functions.  These tests only read ``perfbench/``;
a rename that would break a benchmark run fails here first.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from pseudoexec import cli
from pseudoexec.config import load_config
from pseudoexec.gateway import digest
from pseudoexec.tasks import TaskId
from pseudoexec.tasks.generate import generate_instance

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_traced_names_resolve():
    for span, (module_name, attr) in _load("tracer").TRACED.items():
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), span


def test_requests_build_for_every_method(workloads):
    instances = [generate_instance(task, 0, 5) for task in TaskId]
    for method in workloads.PROJECT_METHODS:
        assets = workloads.method_assets(method)
        requests = [workloads.reasoner_request(method, inst, assets)
                    for inst in instances]
        assert len({digest(r) for r in requests}) == len(TaskId), method


def test_workload_config_loads(workloads, tmp_path):
    small = workloads.Workload("small", "mock",
                               workloads.MethodId.THINK_AND_EXECUTE,
                               per_cell=1)
    prepared = workloads.prepare(small, 1, tmp_path)
    config = load_config(None, prepared.config)
    assert config.max_parallel == 2
    assert len(prepared.corpus) == len(TaskId) * len(workloads.SIZES)


def test_run_hands_workload_parallelism_to_evaluate_run(workloads, tmp_path,
                                                        monkeypatch):
    small = workloads.Workload("small", "mock",
                               workloads.MethodId.THINK_AND_EXECUTE,
                               per_cell=1)
    prepared = workloads.prepare(small, 1, tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {**prepared.config, "runs_dir": str(tmp_path / "runs")}),
        encoding="utf-8")
    calls = []

    class Stop(Exception):
        pass

    def capture(*args, **kwargs):
        calls.append(kwargs)
        raise Stop

    monkeypatch.setattr(cli, "evaluate_run", capture)
    with pytest.raises(Stop):
        cli.main(["run", "--config", str(config)])
    assert [call["max_parallel"] for call in calls] == [2]
