"""The benchmark tracer (perfbench/trace.py) rebinds every name in its TARGETS
and reads attributes of their arguments and results: ``result.size`` of
``batched_weighted_lp_norm``, ``.restarts`` and ``.converged`` of the
``estimate_norm_lp`` report, and ``args[0]._matrix`` of
``OperatorHandle.matrix``.  These tests run real code under the tracer so
that a change to any of those breaks here and not only in a traced benchmark
run."""

import importlib.util
import pathlib
import sys

from walshlab import cli, schauder
from walshlab.states import LpContext, StateSpec

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

COMMANDS = [
    "tensor-sweep --level 1 --level2 1 --alpha 0.3 --alpha2 0.1 --p 2 --nmax 0 --out ts2.csv",
    "tensor-sweep --level 1 --level2 1 --alpha 0.3 --alpha2 0.1 --p 3 --nmax 0 --restarts 1 "
    "--seed 0 --out ts3.csv",
    "basis-constants --level 1 --alpha 0.3 --p 3 --method estimate --restarts 1 --nmax 0 "
    "--seed 0 --out bc.csv",
]


def _load_trace_module():
    # Loaded by path: the module name "trace" is taken by the standard library.
    spec = importlib.util.spec_from_file_location("perfbench_trace", PERFBENCH / "trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_metrics(monkeypatch, run) -> dict:
    """The tracer's per-layer metrics over one call of ``run``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # trace.py imports its sibling ``workloads``
    try:
        tracer = _load_trace_module().Tracer()
        tracer.install()
        try:
            run()
        finally:
            tracer.uninstall()
    finally:
        sys.modules.pop("workloads", None)
    return tracer.layer_metrics()


def test_tracer_reads_the_attributes_it_expects(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)

    def commands():
        for text in COMMANDS:
            assert cli.run_command(text.split()) == 0, text

    metrics = _traced_metrics(monkeypatch, commands)
    assert metrics["schauder.OperatorHandle.matrix.probes"] > 0
    assert metrics["states.batched_weighted_lp_norm.matrices"] > 0
    # The sweeps climb through estimate_norms_lp, which the tracer does not
    # wrap, so its estimator metrics read 0 on these commands.
    assert metrics.get("schauder.estimate_norm_lp.calls", 0) == 0
    assert metrics.get("schauder.estimate_norm_lp.restarts", 0) == 0


def test_tracer_reads_the_one_cell_estimate_report(monkeypatch):
    def estimate():
        # Through the module attribute, which the tracer rebinds.
        handle = schauder.partial_sum_handle(1, 1, 0.3)
        schauder.estimate_norm_lp(handle, LpContext(3.0, StateSpec(0.3, 1)), restarts=3, seed=0)

    metrics = _traced_metrics(monkeypatch, estimate)
    assert metrics["schauder.estimate_norm_lp.calls"] == 1
    assert metrics["schauder.estimate_norm_lp.restarts"] == 3
    assert metrics["schauder.estimate_norm_lp.converged_ratio"] in (0.0, 1.0)
