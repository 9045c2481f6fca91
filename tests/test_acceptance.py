"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import random_matrix
from walshlab.cli import run_command
from walshlab.linalg import dagger, gaussian_matrix, gns_inner, task_rng
from walshlab.states import (
    LpContext,
    StateSpec,
    cond_expect,
    lp_norm,
    mart_diff,
    modular_flow,
    rho_value,
    state_density,
)
from walshlab.schauder import (
    OperatorHandle,
    estimate_norm_lp,
    exact_norm_p2,
    identity_residual,
    partial_sum_handle,
    unconditionality_constant,
)
from walshlab.tensor import (
    TensorContext,
    shell_decomposition_check,
    shell_index,
    shell_pair,
    tensor_identity_residual,
)
from walshlab.classical import (
    classical_walsh_values,
    diag_index_map,
    diag_to_step,
    dyadic_weights,
    step_lp_norm,
)
from walshlab.walsh import (
    predicted_rademacher_sign,
    walsh_coefficients,
    walsh_coefficients_naive,
    walsh_matrix,
    walsh_synthesize,
)

ALPHAS = (0.5, 0.3, 0.1)
PS = (1.0, 1.5, 2.0, 3.0, np.inf)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except Exception:
        print(f"criterion {number:02d} [{name}] FAIL")
        raise
    print(f"criterion {number:02d} [{name}] PASS")


def test_criterion_01_walsh_algebra_exhaustive():
    with criterion(1, "walsh algebra, m=3 exhaustive"):
        start = time.perf_counter()
        m = 3
        mats = [walsh_matrix(n, m) for n in range(64)]
        eye = np.eye(8)
        for w in mats:
            assert np.max(np.abs(w @ dagger(w) - eye)) <= 1e-12
        from walshlab.walsh import walsh_product_index

        for n in range(64):
            for i in range(64):
                idx, sign = walsh_product_index(n, i)
                assert np.max(np.abs(mats[n] @ mats[i] - sign * mats[idx])) <= 1e-12
        for k in range(2 * m):
            r = mats[1 << k]
            for n in range(1 << k, 1 << (k + 1)):
                eps = predicted_rademacher_sign(k, n)
                assert np.max(np.abs(r @ mats[n] - eps * mats[n - (1 << k)])) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"exhaustive walsh checks took {elapsed:.1f}s"


def test_criterion_02_transform_suite():
    with criterion(2, "transform round-trip, naive agreement, speed"):
        draws = 0
        for m in (1, 2, 3, 4, 5, 6):
            for k in range(17):
                x = random_matrix(m, 1000 * m + k)
                c = walsh_coefficients(x)
                assert np.max(np.abs(walsh_synthesize(c, m) - x)) <= 1e-12
                draws += 1
        assert draws >= 100
        draws = 0
        for m in (1, 2, 3, 4, 5):
            for k in range(20):
                x = random_matrix(m, 2000 * m + k)
                diff = walsh_coefficients(x) - walsh_coefficients_naive(x)
                assert np.max(np.abs(diff)) <= 1e-10
                draws += 1
        assert draws >= 100

        m = 7
        x = random_matrix(m, 31415)
        fast_times = []
        for _ in range(5):
            t0 = time.perf_counter()
            walsh_coefficients(x)
            fast_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        naive = walsh_coefficients_naive(x)
        naive_time = time.perf_counter() - t0
        fast_time = min(fast_times)
        assert np.max(np.abs(walsh_coefficients(x) - naive)) <= 1e-10
        assert naive_time >= 10.0 * fast_time, (naive_time, fast_time)


def test_criterion_03_norm_suite():
    with criterion(3, "weighted norms of basis matrices and tracial scaling"):
        m = 3
        mats = [walsh_matrix(n, m) for n in range(64)]
        for alpha in ALPHAS:
            spec = StateSpec(alpha, m)
            for p in PS:
                for side in ("left", "right"):
                    ctx = LpContext(p, spec, side)
                    for w in mats:
                        assert abs(lp_norm(w, ctx) - 1) <= 1e-10
        from walshlab.linalg import schatten_norm

        spec = StateSpec(0.5, m)
        for k in range(5):
            x = random_matrix(m, 4000 + k)
            for p in PS:
                scale = 1.0 if np.isinf(p) else 2.0 ** (-m / p)
                got = lp_norm(x, LpContext(p, spec))
                assert abs(got - scale * schatten_norm(x, p)) <= 1e-10


def test_criterion_04_conditional_expectation_suite():
    with criterion(4, "filtration expectations, m=3"):
        m = 3
        steps = range(-1, 2 * m)
        for alpha in ALPHAS:
            spec = StateSpec(alpha, m)
            a_mat = state_density(spec)
            for k in range(5):
                x = random_matrix(m, 5000 + k)
                for s in steps:
                    ex = cond_expect(x, s, spec)
                    assert np.max(np.abs(cond_expect(ex, s, spec) - ex)) <= 1e-11
                    assert abs(rho_value(ex, spec) - rho_value(x, spec)) <= 1e-11
                total = rho_value(x, spec) * np.eye(8) + sum(
                    mart_diff(x, s, spec) for s in range(2 * m)
                )
                assert np.max(np.abs(total - x)) <= 1e-11
            x = random_matrix(m, 5100)
            for s in steps:
                for t in steps:
                    lhs = cond_expect(cond_expect(x, s, spec), t, spec)
                    assert np.max(np.abs(lhs - cond_expect(x, min(s, t), spec))) <= 1e-11
            for s in range(2 * m):
                a = cond_expect(random_matrix(m, 5200 + s), s, spec)
                b = cond_expect(random_matrix(m, 5300 + s), s, spec)
                lhs = cond_expect(a @ x @ b, s, spec)
                assert np.max(np.abs(lhs - a @ cond_expect(x, s, spec) @ b)) <= 1e-10
            for s in steps:
                y = cond_expect(random_matrix(m, 5400 + s), s, spec)
                fy = modular_flow(y, 0.7, spec)
                assert np.max(np.abs(cond_expect(fy, s, spec) - fy)) <= 1e-10
            y = random_matrix(m, 5500)
            for s in range(2 * m):
                for t in range(2 * m):
                    if s != t:
                        v = gns_inner(mart_diff(x, s, spec), mart_diff(y, t, spec), a_mat)
                        assert abs(v) <= 1e-10
        for alpha in ALPHAS:
            spec = StateSpec(alpha, m)
            for p in PS:
                ctx = LpContext(p, spec)
                for k in range(200):
                    x = random_matrix(m, 6000 + k)
                    nx = lp_norm(x, ctx)
                    for s in steps:
                        assert lp_norm(cond_expect(x, s, spec), ctx) <= nx * (1 + 1e-9)


def test_criterion_05_central_identity():
    with criterion(5, "partial-sum decomposition identity"):
        m = 3
        spec = StateSpec(0.5, m)
        for j in range(64):
            x = walsh_matrix(j, m)
            for n in range(63):
                for side in ("left", "right"):
                    _, norms = identity_residual(x, n, spec, side)
                    assert norms[0] <= 1e-12, (j, n, side)
        biased = StateSpec(0.3, m)
        _, norms = identity_residual(walsh_matrix(1, m), 0, biased, "left")
        assert abs(norms[0] - 0.4) <= 1e-10
        _, norms = identity_residual(walsh_matrix(4, m), 1, biased, "left")
        assert abs(norms[0] - 0.4) <= 1e-10


def _transform_superops(m: int) -> tuple[np.ndarray, np.ndarray]:
    dim = 1 << m
    count = dim * dim
    analysis = np.empty((count, count), dtype=np.complex128)
    synthesis = np.empty((count, count), dtype=np.complex128)
    probe = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(count):
        probe.flat[k] = 1.0
        analysis[:, k] = walsh_coefficients(probe)
        probe.flat[k] = 0.0
    unit = np.zeros(count, dtype=np.complex128)
    for k in range(count):
        unit[k] = 1.0
        synthesis[:, k] = walsh_synthesize(unit, m).ravel()
        unit[k] = 0.0
    return analysis, synthesis


def test_criterion_06_norm_engine_cross_validation():
    with criterion(6, "exact p=2 engine vs closed form and estimator"):
        spec1 = StateSpec(0.3, 1)
        closed = (1 - (1 - 2 * 0.3) ** 2) ** -0.5
        exact = exact_norm_p2(partial_sum_handle(2, 1, 0.3), spec1)
        assert abs(exact.value - closed) <= 1e-9
        est = estimate_norm_lp(
            partial_sum_handle(2, 1, 0.3), LpContext(2.0, spec1), restarts=16, seed=7
        )
        assert abs(est.value - closed) <= 1e-4

        m = 3
        spec = StateSpec(0.5, m)
        analysis, synthesis = _transform_superops(m)
        probe_handle = partial_sum_handle(20, m, 0.5)
        mask = np.zeros(64)
        mask[:21] = 1.0
        assembled = synthesis @ np.diag(mask) @ analysis
        assert np.max(np.abs(assembled - probe_handle.matrix())) <= 1e-12
        for n in range(64):
            mask = np.zeros(64)
            mask[: n + 1] = 1.0
            handle = OperatorHandle.from_matrix(synthesis @ np.diag(mask) @ analysis)
            rep = exact_norm_p2(handle, spec)
            assert abs(rep.value - 1) <= 1e-10, (n, rep.value)


def test_criterion_07_unconditionality():
    with criterion(7, "sign sweeps: exact p=2, stable sampled p=4"):
        for alpha in ALPHAS:
            ctx = LpContext(2.0, StateSpec(alpha, 3))
            rep = unconditionality_constant(ctx, "exhaustive", trials=40, seed=13)
            assert abs(rep.max_ratio - 1) <= 1e-8, (alpha, rep.max_ratio)
        ctx4 = LpContext(4.0, StateSpec(0.5, 2))
        first = unconditionality_constant(ctx4, "exhaustive", trials=10_000, seed=21)
        second = unconditionality_constant(ctx4, "exhaustive", trials=20_000, seed=21)
        assert second.max_ratio >= first.max_ratio - 1e-12  # probe refinement is monotone
        assert second.max_ratio - first.max_ratio <= 1e-2
        assert first.max_ratio >= 1 - 1e-9


def test_criterion_08_shell_machinery():
    with criterion(8, "shell enumeration and tensor residuals"):
        for n in range(10_000):
            assert shell_index(*shell_pair(n)) == n
        ctx = TensorContext(StateSpec(0.3, 1), StateSpec(0.3, 1))
        for k in range(3):
            x = random_matrix(2, 7000 + k)
            for n in range(16):
                rep = shell_decomposition_check(x, n, ctx)
                assert rep.residual <= 1e-11
        tracial = TensorContext(StateSpec(0.3, 1), StateSpec(0.5, 2))
        for i in range(4):
            for j in range(16):
                x = np.kron(walsh_matrix(i, 1), walsh_matrix(j, 2))
                for n in range(16):
                    rep = tensor_identity_residual(x, n, tracial)
                    assert rep.residual_norms[0] <= 1e-11
        biased = TensorContext(StateSpec(0.3, 1), StateSpec(0.3, 1))
        x = np.kron(np.eye(2), walsh_matrix(1, 1))
        rep = tensor_identity_residual(x, 0, biased)
        assert abs(rep.residual_norms[0] - 0.4) <= 1e-10


def test_criterion_09_classical_bridge():
    with criterion(9, "diagonal embedding and dyadic measure"):
        for m in (1, 2, 3, 4, 5, 6):
            for p in PS:
                for alpha in ALPHAS:
                    rng = task_rng(8000 + m)
                    vals = rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m)
                    x = np.diag(vals)
                    lhs = lp_norm(x, LpContext(p, StateSpec(alpha, m)))
                    rhs = step_lp_norm(diag_to_step(x), p, alpha)
                    assert abs(lhs - rhs) <= 1e-11
        for level in range(1, 9):
            for alpha in ALPHAS:
                assert abs(dyadic_weights(level, alpha).sum() - 1) <= 1e-12
        for m in range(1, 7):
            for n in range(1 << m):
                mat = walsh_matrix(diag_index_map(n), m)
                assert np.array_equal(np.diag(mat), classical_walsh_values(n, m).values)


def test_criterion_10_reproducibility(tmp_path):
    with criterion(10, "byte-identical stochastic reruns, any workers"):
        cases = [
            [
                "basis-constants", "--level", "1", "--alpha", "0.3", "--p", "3",
                "--method", "estimate", "--restarts", "4", "--seed", "17",
            ],
            [
                "unconditionality", "--level", "2", "--alpha", "0.3", "--p", "4",
                "--mode", "sampled", "--trials", "128", "--seed", "23",
            ],
            [
                "tensor-sweep", "--level", "1", "--level2", "1", "--alpha", "0.3",
                "--alpha2", "0.3", "--p", "3", "--nmax", "5", "--restarts", "4",
                "--seed", "29",
            ],
            [
                "classical", "--level", "2", "--alpha", "0.3", "--p", "3",
                "--nmax", "3", "--restarts", "4", "--seed", "31",
            ],
        ]
        for idx, base in enumerate(cases):
            bodies = []
            for tag, workers in (("a", "1"), ("b", "4"), ("c", "1")):
                out = tmp_path / f"case{idx}_{tag}.csv"
                argv = base + ["--workers", workers, "--out", str(out)]
                assert run_command(argv) == 0
                bodies.append(out.read_bytes())
                with open(str(out) + ".manifest.json") as fh:
                    manifest = json.load(fh)
                assert manifest["argv"] == argv
            assert bodies[0] == bodies[1] == bodies[2], base[0]
