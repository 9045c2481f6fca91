"""Per-layer tracing from outside the package.

The tracer wraps public functions of the seven walshlab modules and records
one span per call: (id, name, start, end, parent, command, work).  ``command``
is the id of the ``cli.run_command`` span the call belongs to, and ``work``
holds the call's work counts, computed from argument and result shapes.
Spans stay in memory; the runner writes them out when the run ends.

A module that did ``from .states import mart_diff`` holds its own binding, so
the wrapper is rebound in every walshlab module that holds the original, not
only in the module that defines it.

Self time is a span's duration minus the part of that interval its child
spans cover.  Calls made by pool threads have no parent on their own thread;
they are parented to the command span that is running, and taking the union
of child intervals keeps their overlap from being counted twice.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

from workloads import WORKLOADS


def _factor_map_work(args, kwargs, result, before):
    elements = args[0].size * len(args[1])
    return {"elements": elements, "bytes_computed": 32 * elements}  # one complex128 read + write


def _batch_work(args, kwargs, result, before):
    return {"matrices": result.size}


def _materialise_before(args, kwargs):
    return args[0]._matrix is None  # cached matrices cost no probes


def _materialise_work(args, kwargs, result, fresh):
    return {"probes": result.shape[1] if fresh else 0}


def _estimate_work(args, kwargs, result, before):
    return {"restarts": result.restarts, "converged": int(bool(result.converged))}


def _csv_work(args, kwargs, result, before):
    return {"bytes": os.path.getsize(args[0])}


CALLS = ("calls", "self_s")

# (module, attribute) -> (metric suffixes, work function, pre-call probe).
# A dotted attribute names a method.
TARGETS = {
    ("linalg", "apply_factor_maps"): (CALLS + ("elements", "bytes_computed"), _factor_map_work, None),
    ("linalg", "schatten_norm"): (CALLS, None, None),
    ("linalg", "kron"): (CALLS, None, None),
    ("walsh", "walsh_coefficients"): (CALLS, None, None),
    ("walsh", "walsh_synthesize"): (CALLS, None, None),
    ("walsh", "walsh_matrix"): (CALLS, None, None),
    ("walsh", "gram_matrix"): (("self_s",), None, None),
    ("states", "cond_expect"): (CALLS, None, None),
    ("states", "mart_diff"): (CALLS, None, None),
    ("states", "weighted_lp_norm"): (CALLS, None, None),
    ("states", "state_diagonal"): (CALLS, None, None),
    ("states", "batched_weighted_lp_norm"): (CALLS + ("matrices",), _batch_work, None),
    ("schauder", "OperatorHandle.matrix"): (CALLS + ("probes",), _materialise_work, _materialise_before),
    ("schauder", "exact_norm_p2"): (CALLS, None, None),
    ("schauder", "estimate_norm_lp"): (CALLS + ("restarts", "converged_ratio"), _estimate_work, None),
    ("schauder", "partial_sum"): (CALLS, None, None),
    ("schauder", "subset_projection"): (CALLS, None, None),
    ("schauder", "unconditionality_constant"): (("self_s",), None, None),
    ("tensor", "tensor_partial_sum"): (CALLS, None, None),
    ("classical", "classical_norm_exact2"): (CALLS, None, None),
    ("classical", "classical_norm_estimate"): (CALLS, None, None),
    ("classical", "classical_basis_matrix"): (CALLS, None, None),
    ("cli", "run_command"): (("self_s",), None, None),
    ("cli", "write_csv"): (("self_s", "bytes"), _csv_work, None),
}
# Counted without a span: materialising a matrix calls it once per probe.
COUNTED = ("schauder", "OperatorHandle.__call__")
COMMAND_SPAN = "cli.run_command"


UNITS = {
    "calls": "count", "self_s": "s", "elements": "count", "bytes_computed": "bytes",
    "matrices": "count", "probes": "count", "restarts": "count", "converged_ratio": "ratio",
    "bytes": "bytes",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for (module, attr), (suffixes, _, _) in TARGETS.items():
        for suffix in suffixes:
            units[f"{module}.{attr}.{suffix}"] = UNITS[suffix]
    units[".".join(COUNTED) + ".calls"] = "count"
    for build in WORKLOADS.values():
        for cmd in build(0, 0):
            units[f"cli.{cmd.label}.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_share"] = "ratio"
    return units


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls = 0  # calls of the COUNTED method
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._command: int | None = None
        self._undo: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, work, pre):
        top = name == COMMAND_SPAN

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._command
            sid = next(self._ids)
            if top:
                self._command = sid
            command = self._command
            stack.append(sid)
            before = pre(args, kwargs) if pre else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if top:
                    self._command = None
            done = work(args, kwargs, result, before) if work else None
            self.spans.append((sid, name, start, end, parent, command, done))
            return result

        traced.__wrapped__ = fn
        return traced

    def _counting(self, fn):
        def counted(*args, **kwargs):
            with self._lock:
                self.calls += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _rebind(self, module: str, attr: str, wrapper_for) -> None:
        owner = sys.modules[f"walshlab.{module}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, wrapper_for(original))
            return
        original = getattr(owner, attr)
        wrapper = wrapper_for(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "walshlab" or mod_name.startswith("walshlab."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def install(self) -> None:
        import walshlab.cli  # noqa: F401  (imports every module whose bindings are replaced)

        for (module, attr), (_, work, pre) in TARGETS.items():
            name = f"{module}.{attr}"
            self._rebind(module, attr, lambda fn, n=name, w=work, p=pre: self._wrap(n, fn, w, p))
        self._rebind(*COUNTED, self._counting)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def reset(self) -> None:
        self.spans = []
        self.calls = 0

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time and work counts per traced function, over the recorded spans."""
        children = defaultdict(list)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _, _, work in self.spans:
            out[name + ".calls"] += 1
            out[name + ".self_s"] += (end - start) - _covered(children.get(sid, ()), start, end)
            for key, value in (work or {}).items():
                out[f"{name}.{key}"] += value
        name = "schauder.estimate_norm_lp"
        if out[name + ".calls"]:
            out[name + ".converged_ratio"] = out.pop(name + ".converged") / out[name + ".calls"]
        out[".".join(COUNTED) + ".calls"] = self.calls
        names = metric_units()
        return {key: value for key, value in out.items() if key in names}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, command, work in self.spans:
                record = {"id": sid, "name": name, "start": start, "end": end,
                          "parent": parent, "command": command, "work": work}
                fh.write(json.dumps(record) + "\n")


def _covered(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total
