"""The benchmark's targets against the package.

`perfbench/tracer.py` wraps named functions of this package by
(module, attribute), and `perfbench/workloads.py` gives each workload's CLI
arguments and, for `check-lemmas`, the battery's entry names. Both are
loaded here read-only, without writing bytecode beside them, so that a
deleted or renamed target, a flag or flag rule that a workload's arguments no
longer meet, or a renamed or added battery entry fails in this suite rather
than in a benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name, path):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer_module(monkeypatch):
    return _load(monkeypatch, "perfbench_tracer", PERFBENCH / "tracer.py")


@pytest.fixture
def workloads_module(monkeypatch):
    # workloads.py imports its reference as the top-level module `reference`
    monkeypatch.setitem(sys.modules, "reference",
                        _load(monkeypatch, "reference", PERFBENCH / "reference.py"))
    return _load(monkeypatch, "perfbench_workloads", PERFBENCH / "workloads.py")


def _targets(tracer_module):
    for targets in tracer_module.SPANS.values():
        for module_name, attr in targets:
            yield importlib.import_module(f"qperminv.{module_name}"), attr


def _resolve(owner, attr):
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_name_resolves(tracer_module):
    for module, attr in _targets(tracer_module):
        assert hasattr(module, attr.split(".")[0]), f"{module.__name__}.{attr} is gone"
        assert callable(_resolve(module, attr)), f"{module.__name__}.{attr}"


def test_install_then_uninstall_restores_every_original(tracer_module):
    targets = list(_targets(tracer_module))
    modules = [m for key, m in sys.modules.items()
               if key == "qperminv" or key.startswith("qperminv.")]
    state_cls = sys.modules["qperminv.qstate"].StateVector
    owners = [*modules, state_cls]
    before = [dict(vars(owner)) for owner in owners]
    originals = [_resolve(module, attr) for module, attr in targets]

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for (module, attr), original in zip(targets, originals):
            assert _resolve(module, attr) is not original, f"{module.__name__}.{attr} not wrapped"
    finally:
        tracer.uninstall()

    for owner, snapshot in zip(owners, before):
        after = dict(vars(owner))
        assert after.keys() == snapshot.keys(), owner
        for key, value in snapshot.items():
            assert after[key] is value, f"{owner!r}.{key} not restored"


@pytest.mark.parametrize("seed", [1, 5])
def test_every_workload_argv_parses(workloads_module, tmp_path, seed):
    from qperminv.cli import _flag_error, build_parser

    for name, workload in workloads_module.WORKLOADS.items():
        inputs = tmp_path / name
        inputs.mkdir()
        argv = workload.argv(workload.write_inputs(inputs, seed), tmp_path / "out")
        args = build_parser().parse_args(argv)
        assert _flag_error(args) is None, (name, argv)


def test_lemma_workload_expects_the_battery_entries_in_order(workloads_module):
    from qperminv.harness import lemma_battery

    names = tuple(entry["name"] for entry in lemma_battery(2, 1, 0))
    assert names == workloads_module.LemmaRandom.checks
