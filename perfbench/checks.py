"""Correctness checks behind the benchmark's failure count.

A command fails when it exits non-zero, prints a FAIL row, or has an output
value that misses its reference or breaks an invariant.  Accuracy enters only
as pass or fail: a harmless change in floating-point order may move a value
in its last digits, which a deviation metric would report as a regression.

References are the outputs of the commit that defined the benchmark, keyed by
argv (``workloads.reference_key``).  Exact outputs match them to 1e-9
relative for every seed.  Estimates match them to 1e-4 relative, the
package's own tolerance for estimates against exact values, but only for the
seed the references were made with; other seeds check invariants alone.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

from workloads import Command, reference_key

EXACT_RTOL = 1e-9
ESTIMATE_RTOL = 1e-4
ABS_TOL = 1e-12
# A nonzero projection has norm >= 1.  An estimate is a lower bound whose
# ascent stops on a 1e-6 relative step, so it may land below 1 by more than
# 1e-6 (2.5e-5 was seen at p=3); it is held to its 1e-4 tolerance instead.
PROJECTION_FLOOR = {"exact-csv": 1.0 - 1e-6, "estimate-csv": 1.0 - ESTIMATE_RTOL}
SIGN_FLOOR = 1.0 - 1e-12  # the all-plus sign pattern is the identity

REFERENCE_FILE = Path(__file__).with_name("references.json")


@dataclass(frozen=True)
class Outcome:
    """What one command produced: exit code, stdout and the file it wrote."""

    rc: int
    stdout: str
    output: str | None


def load_references(path: Path = REFERENCE_FILE) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _number(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def _tokens(text: str, verify: bool) -> list[list[str]]:
    rows = []
    for line in text.splitlines():
        cells = [c for c in re.split(r"[,\s=]+", line.strip()) if c]
        if verify and cells and cells[0] == "PASS":
            # The residual of a passing assertion is judged by its own
            # tolerance, which the row carries; only REPORT values are data.
            cells = [c for k, c in enumerate(cells) if k != 3]
        rows.append(cells)
    return rows


def compare(text: str, reference: str, rtol: float, *, verify: bool = False, flags: bool = True) -> list[str]:
    """Token-wise comparison: numbers to ``rtol``, other tokens exactly.

    With ``flags`` false the true/false tokens (the estimator's convergence
    flag) are not compared.
    """
    got, want = _tokens(text, verify), _tokens(reference, verify)
    if len(got) != len(want):
        return [f"{len(got)} lines where the reference has {len(want)}"]
    problems = []
    for line, (a_row, b_row) in enumerate(zip(got, want)):
        if len(a_row) != len(b_row):
            problems.append(f"line {line}: {len(a_row)} fields where the reference has {len(b_row)}")
            continue
        for a, b in zip(a_row, b_row):
            x, y = _number(a), _number(b)
            if x is not None and y is not None:
                if not math.isclose(x, y, rel_tol=rtol, abs_tol=ABS_TOL):
                    problems.append(f"line {line}: {a} differs from reference {b}")
            elif b in ("true", "false") and not flags:
                continue
            elif a != b:
                problems.append(f"line {line}: {a!r} differs from reference {b!r}")
    return problems


def _csv_column(text: str, name: str) -> list[float]:
    lines = text.splitlines()
    col = lines[0].split(",").index(name)
    return [float(line.split(",")[col]) for line in lines[1:]]


def _invariants(cmd: Command, out: Outcome) -> list[str]:
    problems = []
    if cmd.check in ("exact-csv", "estimate-csv"):
        floor = PROJECTION_FLOOR[cmd.check]
        values = _csv_column(out.output, "value")
        problems += [f"value {v!r} is not finite" for v in values if not math.isfinite(v)]
        problems += [f"projection norm {v!r} < {floor}" for v in values if v < floor]
    elif cmd.check == "sign-csv":
        for v in _csv_column(out.output, "max_ratio"):
            if not (math.isfinite(v) and v >= SIGN_FLOOR):
                problems.append(f"max_ratio {v!r} is not finite and >= {SIGN_FLOOR}")
    elif cmd.check == "unit-norm":
        value = float(out.stdout.strip())
        if not abs(value - 1.0) <= ABS_TOL:
            problems.append(f"p=1 norm of a Walsh matrix is {value!r}, not 1")
    elif cmd.check == "unit-coefficients":
        payload = json.loads(out.output)
        coeffs = [complex(a, b) for a, b in zip(payload["re"], payload["im"])]
        expected = [1.0 if n == cmd.param else 0.0 for n in range(len(coeffs))]
        worst = max(abs(c - e) for c, e in zip(coeffs, expected))
        if not worst <= ABS_TOL:
            problems.append(f"coefficients differ from the unit vector e_{cmd.param} by {worst!r}")
    elif cmd.check == "verify-rows":
        for line in out.stdout.splitlines():
            value = re.search(r"value=(\S+)", line)
            if value and not math.isfinite(float(value.group(1))):
                problems.append(f"non-finite value in {line!r}")
    return problems


def command_problems(cmd: Command, out: Outcome, references: dict) -> list[str]:
    """Every reason the command's outcome is wrong; empty when it is correct."""
    if out.rc != 0:
        return [f"exit code {out.rc}"]
    if any(line.startswith("FAIL") for line in out.stdout.splitlines()):
        return ["a verification row failed"]
    if cmd.out is not None and out.output is None:
        return [f"no output file {cmd.out}"]
    try:
        problems = _invariants(cmd, out)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc}"]
    ref = references["outputs"].get(reference_key(cmd.argv))
    if cmd.check in ("exact-csv", "verify-rows"):
        if ref is None:
            return problems + ["no stored reference"]
        text = out.stdout if cmd.check == "verify-rows" else out.output
        problems += compare(text, ref, EXACT_RTOL, verify=cmd.check == "verify-rows")
    elif cmd.check in ("estimate-csv", "sign-csv") and ref is not None:
        problems += compare(out.output, ref, ESTIMATE_RTOL, flags=False)
    return problems
