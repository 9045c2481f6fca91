"""Batch command-line interface: generate objects, run verification suites,
sweep norms, and emit CSV/JSON artifacts with reproducibility manifests.

Output policy: CSV bodies are pure functions of argv (and seed) so reruns
are byte-identical under any worker count; run metadata lives in a sidecar
``<out>.manifest.json``.  All floats print with 17 significant digits.
Verification rows are either assertions (can fail the run) or residual
reports (informational only).
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from .linalg import (
    MAX_LEVEL,
    dagger,
    gaussian_matrix,
    gns_inner,
    level_of_dim,
    matrix_from_json,
    matrix_to_json,
    pin_blas_threads,
    task_rng,
)
from .states import (
    LEFT,
    SIDES,
    LpContext,
    StateSpec,
    cond_expect,
    lp_norm,
    mart_diff,
    modular_flow,
    rho_value,
    state_density,
)
from .schauder import (
    ESTIMATE,
    EXACT2,
    MAX_EXPLICIT_LEVEL,
    MAX_SIGN_STACK_BYTES,
    basis_constant_sweep,
    estimate_norms_lp,
    exact_norm_p2,
    identity_residual,
    sign_sweep_stack_bytes,
    unconditionality_constant,
)
from .classical import classical_norm_estimates, classical_norm_exact2
from .tensor import TensorContext, max_shell_index, shell_pair, tensor_partial_sum_handle
from .walsh import (
    MODES,
    PAPER,
    block_support,
    coefficients_to_json,
    gram_matrix,
    predicted_rademacher_sign,
    walsh_coefficients,
    walsh_coefficients_naive,
    walsh_matrix,
    walsh_product_index,
    walsh_stack,
    walsh_synthesize,
)

BASIS_HEADER = "n,p,alpha,side,method,value,converged"
SIGN_HEADER = "p,alpha,m,trials,seed,max_ratio"
TENSOR_HEADER = "n,i,j,alpha,alpha2,p,value"


def fmt(x) -> str:
    """17-significant-digit rendering for every float in an artifact."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_manifest(args, argv: list[str], **records) -> None:
    """Write ``<out>.manifest.json``: argv, seed, every other parsed flag, numpy's
    BLAS and its thread count, and ``records``."""
    blas, threads = pin_blas_threads()
    manifest = {
        "argv": list(argv),
        "seed": getattr(args, "seed", None),
        "parameters": {k: v for k, v in vars(args).items() if k not in ("command", "out", "seed")},
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": [args.out],
        "blas": {"name": blas, "threads": threads},
        **records,
    }
    with open(args.out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def write_csv(out_path: str, header: str, rows: list[list]) -> None:
    body = header + "\n" + "".join(",".join(fmt(v) for v in row) + "\n" for row in rows)
    with open(out_path, "w", newline="") as fh:
        fh.write(body)


class CheckRow(NamedTuple):
    name: str
    value: float
    threshold: float | None  # None marks a residual report, never a failure


def _row(name: str, value: float, threshold: float | None = None) -> CheckRow:
    return CheckRow(name, float(value), threshold)


def _suite_walsh(m: int, alpha: float) -> list[CheckRow]:
    rows = []
    count = 4**m
    mats = [walsh_matrix(n, m) for n in range(count)]
    eye = np.eye(1 << m)
    rows.append(_row("unitarity", max(np.max(np.abs(w @ dagger(w) - eye)) for w in mats), 1e-12))
    worst = 0.0
    for n in range(count):
        for i in range(count):
            idx, sign = walsh_product_index(n, i)
            worst = max(worst, np.max(np.abs(mats[n] @ mats[i] - sign * mats[idx])))
    rows.append(_row("product-law", worst, 1e-12))
    worst = 0.0
    for k in range(2 * m):
        r = mats[1 << k]
        for n in range(1 << k, min(1 << (k + 1), count)):
            eps = predicted_rademacher_sign(k, n)
            worst = max(worst, np.max(np.abs(r @ mats[n] - eps * mats[n - (1 << k)])))
    rows.append(_row("epsilon-rule", worst, 1e-12))
    rows.append(_row("orthonormality", np.max(np.abs(gram_matrix(m) - np.eye(count))), 1e-12))
    worst_rt = 0.0
    worst_naive = 0.0
    for k in range(10):
        x = gaussian_matrix(1 << m, task_rng(101, k))
        c = walsh_coefficients(x)
        worst_rt = max(worst_rt, np.max(np.abs(walsh_synthesize(c, m) - x)))
        worst_naive = max(worst_naive, np.max(np.abs(c - walsh_coefficients_naive(x))))
    rows.append(_row("transform-round-trip", worst_rt, 1e-12))
    rows.append(_row("fast-vs-naive", worst_naive, 1e-10))
    return rows


def _suite_expectations(m: int, alpha: float) -> list[CheckRow]:
    spec = StateSpec(alpha, m)
    steps = range(-1, 2 * m)
    draws = [gaussian_matrix(spec.dim, task_rng(202, k)) for k in range(20)]
    a_mat = state_density(spec)

    idem = max(
        np.max(np.abs(cond_expect(cond_expect(x, s, spec), s, spec) - cond_expect(x, s, spec)))
        for x in draws[:5]
        for s in steps
    )
    tower = max(
        np.max(np.abs(cond_expect(cond_expect(x, s, spec), t, spec) - cond_expect(x, min(s, t), spec)))
        for x in draws[:3]
        for s in steps
        for t in steps
    )
    preserve = max(
        abs(rho_value(cond_expect(x, s, spec), spec) - rho_value(x, spec))
        for x in draws[:5]
        for s in steps
    )
    module = 0.0
    for k, x in enumerate(draws[:3]):
        for s in range(0, 2 * m):
            a = cond_expect(gaussian_matrix(spec.dim, task_rng(203, k, s)), s, spec)
            b = cond_expect(gaussian_matrix(spec.dim, task_rng(204, k, s)), s, spec)
            module = max(
                module,
                np.max(np.abs(cond_expect(a @ x @ b, s, spec) - a @ cond_expect(x, s, spec) @ b)),
            )
    modular = 0.0
    for k, x in enumerate(draws[:3]):
        for s in steps:
            y = modular_flow(cond_expect(x, s, spec), 0.7, spec)
            modular = max(modular, np.max(np.abs(cond_expect(y, s, spec) - y)))
    complete = max(
        np.max(
            np.abs(
                rho_value(x, spec) * np.eye(spec.dim)
                + sum(mart_diff(x, s, spec) for s in range(2 * m))
                - x
            )
        )
        for x in draws[:5]
    )
    gns = 0.0
    for x in draws[:2]:
        for y in draws[2:4]:
            for s in range(2 * m):
                for t in range(2 * m):
                    if s != t:
                        gns = max(
                            gns,
                            abs(gns_inner(mart_diff(x, s, spec), mart_diff(y, t, spec), a_mat)),
                        )
    contract = 0.0
    for p in (1.0, 1.5, 2.0, 3.0, float("inf")):
        for side in ("left", "right"):
            ctx = LpContext(p, spec, side)
            for k in range(200):
                x = gaussian_matrix(spec.dim, task_rng(205, k))
                nx = lp_norm(x, ctx)
                for s in steps:
                    contract = max(contract, lp_norm(cond_expect(x, s, spec), ctx) / nx - 1.0)
    iso = 0.0
    for k, x in enumerate(draws[:3]):
        for n in range(4**m):
            w = walsh_matrix(n, m)
            for p in (1.0, 2.0, 3.0):
                left = LpContext(p, spec, "left")
                right = LpContext(p, spec, "right")
                iso = max(iso, abs(lp_norm(w @ x, left) - lp_norm(x, left)))
                iso = max(iso, abs(lp_norm(x @ w, right) - lp_norm(x, right)))
    return [
        _row("idempotence", idem, 1e-11),
        _row("tower-law", tower, 1e-11),
        _row("state-preservation", preserve, 1e-11),
        _row("module-property", module, 1e-10),
        _row("modular-invariance", modular, 1e-10),
        _row("completeness", complete, 1e-11),
        _row("gns-orthogonality", gns, 1e-10),
        _row("p-contractivity", contract, 1e-9),
        _row("multiplication-isometry", iso, 1e-10),
    ]


def _suite_identity(m: int, alpha: float) -> list[CheckRow]:
    spec = StateSpec(alpha, m)
    count = 4**m
    probes = walsh_stack(m)
    worst = 0.0
    for n in range(count - 1):
        for side in ("left", "right"):
            _, norms = identity_residual(probes, n, spec, side)
            worst = max(worst, float(norms[0].max()))
    if alpha == 0.5:
        return [_row("decomposition-identity(exhaustive)", worst, 1e-12)]
    rows = [_row("decomposition-identity(max-residual)", worst)]
    _, norms = identity_residual(walsh_matrix(1, m), 0, spec, "left")
    rows.append(_row("residual[x=w1,n=0]", norms[0]))
    if m >= 2:
        _, norms = identity_residual(walsh_matrix(4, m), 1, spec, "left")
        rows.append(_row("residual[x=w4,n=1]", norms[0]))
    return rows


def _suite_blocks(m: int, alpha: float) -> list[CheckRow]:
    spec = StateSpec(alpha, m)
    rows = []
    above = 0.0
    odd_outside = 0.0
    even_outside = 0.0
    zero_leak = 0.0
    below_leak = 0.0
    for k in range(10):
        x = gaussian_matrix(spec.dim, task_rng(206, k))
        for s in range(2 * m):
            c = walsh_coefficients(mart_diff(x, s, spec))
            lo, hi = block_support(s)
            above = max(above, np.max(np.abs(c[hi:])) if hi < c.size else 0.0)
            outside = max(
                np.max(np.abs(c[:lo])),
                np.max(np.abs(c[hi:])) if hi < c.size else 0.0,
            )
            if s % 2 == 1:
                odd_outside = max(odd_outside, outside)
            else:
                even_outside = max(even_outside, outside)
                zero_leak = max(zero_leak, abs(c[0]))
                if lo > 1:
                    below_leak = max(below_leak, np.max(np.abs(c[1:lo])))
    rows.append(_row("no-leak-above-block", above, 1e-10))
    rows.append(_row("odd-step-confined", odd_outside, 1e-10))
    if alpha == 0.5:
        rows.append(_row("even-step-confined", even_outside, 1e-10))
    else:
        rows.append(_row("even-step-leak(outside)", even_outside))
        rows.append(_row("even-step-leak(coefficient-0)", zero_leak))
        rows.append(_row("even-step-leak(below-block)", below_leak))
    return rows


SUITES = {
    "walsh": _suite_walsh,
    "expectations": _suite_expectations,
    "identity": _suite_identity,
    "blocks": _suite_blocks,
}
# The largest --level each suite runs at.  walsh holds all 4**m Walsh matrices
# densely, 16**m complex values (4 GiB at m = 7).  expectations takes 36 * 4**m
# norms of 2**m-row matrices in its multiplication-isometry loop alone: it ran
# 74 s at m = 6 and would run for hours at m = 8.  identity takes 2 * 4**m
# residuals over all 4**m Walsh matrices, about 16x the time per level.
SUITE_LEVEL_CAPS = {"walsh": 6, "expectations": 6, "identity": 4, "blocks": 8}


def _validate_flags(args) -> None:
    """Range checks with the offending flag named, before any computation."""
    checks = (
        ("alpha", lambda v: 0.0 < v <= 0.5, "--alpha must lie in (0, 1/2]"),
        ("alpha2", lambda v: 0.0 < v <= 0.5, "--alpha2 must lie in (0, 1/2]"),
        ("level", lambda v: 1 <= v <= 8, "--level must lie in [1, 8]"),
        ("level2", lambda v: 1 <= v <= 8, "--level2 must lie in [1, 8]"),
        ("p", lambda v: v >= 1, "--p must satisfy p >= 1"),
        ("trials", lambda v: v > 0, "--trials must be positive"),
        ("restarts", lambda v: v >= 1, "--restarts must be at least 1"),
        ("workers", lambda v: v >= 1, "--workers must be at least 1"),
        ("tol", lambda v: v > 0, "--tol must be positive"),
        ("index", lambda v: v >= 0, "--index must be non-negative"),
        ("nmax", lambda v: v >= 0, "--nmax must be non-negative"),
    )
    for name, good, message in checks:
        value = getattr(args, name, None)
        if value is not None and not good(value):
            raise ValueError(f"{message} (got {value})")


def _add_common(parser) -> None:
    parser.add_argument("--level", type=int, required=True, help="tensor level m")
    parser.add_argument("--alpha", type=float, required=True, help="bias in (0, 1/2]")


def _add_sweep_flags(parser) -> None:
    """The flags that the three projection sweeps share."""
    parser.add_argument("--p", type=float, required=True)
    parser.add_argument("--restarts", type=int, default=32)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", required=True)


@functools.cache  # once per process: parsing leaves the parser as it is
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="walshlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-walsh", help="emit one Walsh matrix as JSON")
    g.add_argument("--index", type=int, required=True)
    g.add_argument("--level", type=int, required=True)
    g.add_argument("--alpha", type=float, default=0.5)
    g.add_argument("--mode", choices=MODES, default=PAPER)
    g.add_argument("--out")

    c = sub.add_parser("coeffs", help="expansion coefficients of a matrix JSON file")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--out")

    n = sub.add_parser("norm", help="weighted norm of a matrix JSON file")
    n.add_argument("--in", dest="infile", required=True)
    n.add_argument("--p", type=float, required=True)
    n.add_argument("--alpha", type=float, required=True)
    n.add_argument("--side", choices=SIDES, default=LEFT)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", choices=sorted(SUITES), required=True)
    _add_common(v)
    v.add_argument("--tol", type=float, default=None, help="threshold of every assertion row")

    b = sub.add_parser("basis-constants", help="partial-sum projection norms")
    _add_common(b)
    _add_sweep_flags(b)
    b.add_argument("--method", choices=(EXACT2, ESTIMATE), required=True)
    b.add_argument("--side", choices=SIDES, default=LEFT)
    b.add_argument("--nmax", type=int, default=None)

    u = sub.add_parser("unconditionality", help="sign-sweep ratio experiment")
    _add_common(u)
    u.add_argument("--p", type=float, required=True)
    u.add_argument("--mode", choices=("exhaustive", "sampled"), required=True)
    u.add_argument("--trials", type=int, required=True)
    u.add_argument("--seed", type=int, required=True)
    u.add_argument("--out", required=True)

    t = sub.add_parser("tensor-sweep", help="shell partial-sum norms on a two-block space")
    _add_common(t)
    t.add_argument("--level2", type=int, required=True)
    t.add_argument("--alpha2", type=float, required=True)
    t.add_argument("--nmax", type=int, required=True)
    _add_sweep_flags(t)

    k = sub.add_parser("classical", help="classical partial-sum norms on dyadic steps")
    _add_common(k)
    k.add_argument("--nmax", type=int, required=True)
    _add_sweep_flags(k)
    for sweep in (b, u, t, k):
        sweep.add_argument("--workers", type=int, default=1, help="recorded only; runs serially")
    return parser


def _emit_json(args, argv, payload: str) -> int:
    """Write ``payload`` to ``--out`` with its manifest, or print it without one."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
        write_manifest(args, argv)
    else:
        print(payload)
    return 0


def _cmd_gen_walsh(args, argv) -> int:
    if args.index >= 4**args.level:
        raise ValueError(f"--index {args.index} out of range for --level {args.level} (max {4**args.level - 1})")
    w = walsh_matrix(args.index, args.level, args.alpha, args.mode)
    return _emit_json(args, argv, json.dumps(matrix_to_json(w)))


def _read_matrix(path: str) -> tuple[np.ndarray, int]:
    """The matrix of the ``--in`` JSON file and its level, which must lie in [1, MAX_LEVEL]."""
    with open(path) as fh:
        x = matrix_from_json(json.load(fh))
    m = level_of_dim(x.shape[0])
    if not 1 <= m <= MAX_LEVEL:
        raise ValueError(f"--in holds a level-{m} matrix; the level must lie in [1, {MAX_LEVEL}]")
    return x, m


def _cmd_coeffs(args, argv) -> int:
    x, m = _read_matrix(args.infile)
    return _emit_json(args, argv, json.dumps(coefficients_to_json(walsh_coefficients(x), m)))


def _cmd_norm(args, argv) -> int:
    x, m = _read_matrix(args.infile)
    value = lp_norm(x, LpContext(args.p, StateSpec(args.alpha, m), args.side))
    print(fmt(value))
    return 0


def _cmd_verify(args, argv) -> int:
    _check_level(args.level, cap=SUITE_LEVEL_CAPS[args.suite])
    ok = True
    for name, value, threshold in SUITES[args.suite](args.level, args.alpha):
        if threshold is None:
            print(f"REPORT {name:44s} value={fmt(value)}")
            continue
        if args.tol is not None:
            threshold = args.tol
        passed = value <= threshold
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL':6s} {name:44s} value={fmt(value)} tol={fmt(threshold)}")
    return 0 if ok else 1


def _check_level(level: int, flags: str = "--level", cap: int = MAX_EXPLICIT_LEVEL) -> None:
    if level > cap:
        raise ValueError(f"{flags} = {level} exceeds {cap}, the largest level this command runs at")


def _seed(args, stochastic: bool) -> int:
    """``--seed``, which a stochastic run must give; 0 when a deterministic run omits it."""
    if args.seed is None and stochastic:
        raise ValueError("--seed is required for the stochastic estimate")
    return 0 if args.seed is None else args.seed


def _cmd_basis_constants(args, argv) -> int:
    _check_level(args.level)
    if args.nmax is None:
        args.nmax = 4**args.level - 1
    if args.nmax >= 4**args.level:
        raise ValueError(f"--nmax {args.nmax} out of range for --level {args.level} (max {4**args.level - 1})")
    if args.method == EXACT2 and args.p != 2:
        raise ValueError(f"--method exact2 applies only at --p 2 (got --p {args.p})")
    rows = basis_constant_sweep(
        LpContext(args.p, StateSpec(args.alpha, args.level), args.side),
        args.nmax,
        method=args.method,
        restarts=args.restarts,
        seed=_seed(args, args.method == ESTIMATE),
    )
    write_csv(
        args.out,
        BASIS_HEADER,
        [[r.n, r.p, r.alpha, r.side, r.method, r.value, r.converged] for r in rows],
    )
    write_manifest(args, argv)
    for r in rows:
        print(
            f"n={r.n} value={fmt(r.value)} decomposition={fmt(r.decomp_value)} gap={fmt(r.gap)}"
        )
    return 0


def _cmd_unconditionality(args, argv) -> int:
    need = sign_sweep_stack_bytes(args.level, args.trials)
    if need > MAX_SIGN_STACK_BYTES:
        raise ValueError(
            f"--level {args.level} with --trials {args.trials} takes {need / 2**30:.2f} GiB of "
            f"martingale differences, each combined under every sign pattern, above the "
            f"{MAX_SIGN_STACK_BYTES / 2**30:.2f} GiB work limit; lower --level or --trials"
        )
    spec = StateSpec(args.alpha, args.level)
    report = unconditionality_constant(
        LpContext(args.p, spec),
        mode=args.mode,
        trials=args.trials,
        seed=args.seed,
    )
    write_csv(
        args.out,
        SIGN_HEADER,
        [[report.p, report.alpha, report.m, report.trials, report.seed, report.max_ratio]],
    )
    write_manifest(args, argv, sweep={"patterns": report.patterns, "probes": report.probes})
    print(f"max_ratio={fmt(report.max_ratio)}")
    return 0


def _cmd_tensor_sweep(args, argv) -> int:
    _check_level(args.level + args.level2, "--level + --level2")
    ctx = TensorContext(StateSpec(args.alpha, args.level), StateSpec(args.alpha2, args.level2))
    if not 0 <= args.nmax <= max_shell_index(ctx):
        raise ValueError(f"--nmax {args.nmax} out of range (max {max_shell_index(ctx)})")
    seed = _seed(args, args.p != 2)

    ns = range(args.nmax + 1)
    handles = (tensor_partial_sum_handle(n, ctx) for n in ns)
    if args.p == 2:
        values = [exact_norm_p2(handle, ctx).value for handle in handles]
    else:
        reports = estimate_norms_lp(handles, LpContext(args.p, ctx), args.restarts, [seed + n for n in ns])
        values = [rep.value for rep in reports]
    rows = [[n, *shell_pair(n), args.alpha, args.alpha2, args.p, value] for n, value in zip(ns, values)]
    write_csv(args.out, TENSOR_HEADER, rows)
    write_manifest(args, argv)
    return 0


def _cmd_classical(args, argv) -> int:
    if not 0 <= args.nmax < (1 << args.level):
        raise ValueError(f"--nmax {args.nmax} out of range for --level {args.level}")
    seed = _seed(args, args.p != 2)

    ns = range(args.nmax + 1)
    if args.p == 2:
        method, cells = EXACT2, [(classical_norm_exact2(n, args.level, args.alpha), True) for n in ns]
    else:
        method = ESTIMATE
        cells = classical_norm_estimates(
            ns, args.level, args.alpha, args.p, args.restarts, [seed + n for n in ns]
        )
    rows = [[n, args.p, args.alpha, "left", method, value, converged] for n, (value, converged) in zip(ns, cells)]
    write_csv(args.out, BASIS_HEADER, rows)
    write_manifest(args, argv)
    return 0


COMMANDS = {
    "gen-walsh": _cmd_gen_walsh,
    "coeffs": _cmd_coeffs,
    "norm": _cmd_norm,
    "verify": _cmd_verify,
    "basis-constants": _cmd_basis_constants,
    "unconditionality": _cmd_unconditionality,
    "tensor-sweep": _cmd_tensor_sweep,
    "classical": _cmd_classical,
}


def run_command(argv: list[str]) -> int:
    """Dispatch one command line on one BLAS thread; returns the process exit status."""
    pin_blas_threads()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _validate_flags(args)
        return COMMANDS[args.command](args, argv)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
