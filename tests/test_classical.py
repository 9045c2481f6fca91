import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import dense_classical_norm_exact2, sequential_ascent
from walshlab import classical
from walshlab.classical import (
    StepFunction,
    classical_basis_matrix,
    classical_norm_estimate,
    classical_norm_estimates,
    classical_norm_exact2,
    classical_projection,
    classical_walsh_values,
    diag_index_map,
    diag_to_step,
    dyadic_weights,
    mu_weight,
    step_lp_norm,
)
from walshlab.linalg import task_rng
from walshlab.states import LpContext, StateSpec, lp_norm
from walshlab.walsh import walsh_matrix

ALPHAS = (0.5, 0.3, 0.1)
PS = (1.0, 1.5, 2.0, 3.0, np.inf)


def test_mu_weight_examples():
    assert abs(mu_weight(0, 1, 0.3) - 0.3) < 1e-15
    assert abs(mu_weight(3, 2, 0.3) - 0.49) < 1e-15
    for level in (1, 4, 8):
        for k in (0, (1 << level) - 1):
            assert abs(mu_weight(k, level, 0.5) - 2.0**-level) < 1e-15
    with pytest.raises(ValueError):
        mu_weight(4, 2, 0.3)
    with pytest.raises(ValueError):
        mu_weight(0, 2, 0.9)


def test_weights_sum_to_one_and_match_pointwise():
    for level in range(1, 9):
        weights = dyadic_weights(level, 0.3)
        assert abs(weights.sum() - 1) < 1e-12
        assert np.all(weights > 0)
        for k in range(0, 1 << level, max(1, (1 << level) // 8)):
            assert abs(weights[k] - mu_weight(k, level, 0.3)) < 1e-15


def test_refinement_additivity():
    # each interval splits into an alpha piece and a (1-alpha) piece
    for alpha in (0.3, 0.1):
        coarse = dyadic_weights(3, alpha)
        fine = dyadic_weights(4, alpha)
        assert np.allclose(fine[0::2], alpha * coarse)
        assert np.allclose(fine[1::2], (1 - alpha) * coarse)
        assert np.allclose(fine[0::2] + fine[1::2], coarse)


def test_classical_walsh_values_examples():
    assert np.array_equal(classical_walsh_values(0, 3).values, np.ones(8))
    assert np.array_equal(classical_walsh_values(1, 2).values, [1, 1, -1, -1])
    assert np.array_equal(classical_walsh_values(2, 2).values, [1, -1, 1, -1])
    with pytest.raises(ValueError):
        classical_walsh_values(4, 2)


def test_diag_to_step_examples():
    assert np.array_equal(diag_to_step(np.eye(4)).values, np.ones(4))
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(diag_to_step(np.diag(vals)).values, vals)
    z1 = walsh_matrix(diag_index_map(1), 2)
    assert np.array_equal(diag_to_step(z1).values, [1, 1, -1, -1])
    with pytest.raises(ValueError):
        diag_to_step(np.array([[0, 1], [0, 0]], dtype=complex))


def test_step_lp_norm_examples():
    const = StepFunction(2, np.ones(4))
    for p in PS:
        for alpha in ALPHAS:
            assert abs(step_lp_norm(const, p, alpha) - 1) < 1e-13
            f = classical_walsh_values(1, 2)
            assert abs(step_lp_norm(f, p, alpha) - 1) < 1e-13
    half = StepFunction(1, np.array([1.0, 0.0]))
    assert abs(step_lp_norm(half, 2, 0.3) - np.sqrt(0.3)) < 1e-12
    with pytest.raises(ValueError):
        step_lp_norm(const, 0.7, 0.3)


def test_diag_index_map_examples():
    assert diag_index_map(0) == 0
    assert diag_index_map(3) == 5
    assert diag_index_map(5) == 17
    for n in range(64):
        spread = diag_index_map(n)
        # odd binary digits of the image vanish
        assert all(((spread >> (2 * i + 1)) & 1) == 0 for i in range(8))


def test_subsequence_matches_matrix_diagonals_exactly():
    for m in range(1, 7):
        for n in range(1 << m):
            mat = walsh_matrix(diag_index_map(n), m)
            assert np.array_equal(np.diag(mat), classical_walsh_values(n, m).values)
            assert np.array_equal(mat, np.diag(np.diag(mat)))


@given(st.integers(0, 10_000), st.sampled_from([1, 3, 6]), st.sampled_from(PS), st.sampled_from(ALPHAS))
def test_norm_correspondence(seed, m, p, alpha):
    rng = task_rng(seed)
    vals = rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m)
    x = np.diag(vals)
    matrix_side = lp_norm(x, LpContext(p, StateSpec(alpha, m)))
    function_side = step_lp_norm(diag_to_step(x), p, alpha)
    assert abs(matrix_side - function_side) < 1e-11


def test_classical_projection_norms_tracial():
    for n in range(8):
        assert abs(classical_norm_exact2(n, 3, 0.5) - 1) < 1e-10


@pytest.mark.parametrize("alpha", [0.5, 0.3, 0.1, 1e-2, 1e-4])
def test_classical_norm_exact2_matches_dense_oracle(alpha):
    for level in range(1, 9):
        ns = range(1 << level) if level <= 5 else list(range(0, 1 << level, 1 << (level - 4))) + [(1 << level) - 1]
        for n in ns:
            value = classical_norm_exact2(n, level, alpha)
            oracle = dense_classical_norm_exact2(n, level, alpha)
            assert abs(value - oracle) <= 1e-13 * oracle, (level, n, value, oracle)


@pytest.mark.parametrize("alpha", [0.3, 1e-4])
def test_classical_norm_exact2_follows_the_digit_rule(alpha):
    # ||P_n||_2 = kappa**(L - t(n)), kappa = (4 alpha (1 - alpha))**(-1/2), t(n) the trailing 1 bits of n.
    kappa = (4 * alpha * (1 - alpha)) ** -0.5
    for level in range(1, 9):
        ns = range(1 << level) if level <= 6 else [0, 1, 2, 5, 63, 64, 100, (1 << level) - 2, (1 << level) - 1]
        for n in ns:
            trailing = (n ^ (n + 1)).bit_length() - 1
            target = kappa ** (level - trailing)
            value = classical_norm_exact2(n, level, alpha)
            assert abs(value - target) <= 1e-13 * target, (level, n, value, target)


def test_biased_walsh_functions_are_orthonormal():
    # Products of the normalized biased digits are orthonormal under the dyadic weights;
    # at alpha = 1/2 they are the classical +-1 Walsh functions.
    for alpha in (0.3, 1e-4):
        for level in (1, 4, 6):
            cols = classical._walsh_functions(np.arange(1 << level), level, alpha)
            gram = cols.conj().T @ (dyadic_weights(level, alpha)[:, np.newaxis] * cols)
            assert np.max(np.abs(gram - np.eye(1 << level))) <= 1e-12, (alpha, level)
    assert np.array_equal(classical._walsh_functions(np.arange(16), 4, 0.5), classical_basis_matrix(4))


def test_classical_projection_norm_cross_method():
    for n in (0, 1, 2):
        exact = classical_norm_exact2(n, 2, 0.3)
        est, converged = classical_norm_estimate(n, 2, 0.3, 2.0, restarts=8, seed=5)
        assert est <= exact + 1e-9
        assert abs(est - exact) < 1e-4, (n, exact, est)
    # the biased level-2 truncation at n=0 is oblique, norm above one
    assert classical_norm_exact2(0, 2, 0.3) > 1.05


def test_lockstep_classical_ascent_matches_sequential_oracle(monkeypatch):
    # Climbing all restarts together takes every restart along its own path.
    cases = [
        (n, level, p)
        for level in range(2, 6)
        for n in range(0, 1 << level, 1 << (level - 2))
        for p in (1.5, 3.0, 4.0)
    ]
    lockstep = [classical_norm_estimate(n, level, 0.3, p, restarts=4, seed=n) for n, level, p in cases]
    monkeypatch.setattr(classical, "multistart_ascent", sequential_ascent)
    for (n, level, p), (value, converged) in zip(cases, lockstep):
        oracle_value, oracle_converged = classical_norm_estimate(n, level, 0.3, p, restarts=4, seed=n)
        assert abs(value - oracle_value) <= 1e-12 * oracle_value, (n, level, p)
        assert converged == oracle_converged, (n, level, p)


def test_classical_lockstep_sweep_matches_sequential_oracle(monkeypatch):
    # All cells of a sweep climb in lockstep blocks; each restart keeps its own path.
    cases = {(level, p): range(3) for level in range(2, 6) for p in (1.5, 3.0)}
    sweeps = {
        (level, p): classical_norm_estimates(ns, level, 0.3, p, 2, [7 + n for n in ns])
        for (level, p), ns in cases.items()
    }
    monkeypatch.setattr(classical, "multistart_ascent", sequential_ascent)
    for (level, p), ns in cases.items():
        oracle = classical_norm_estimates(ns, level, 0.3, p, 2, [7 + n for n in ns])
        for n, (value, converged), (oracle_value, oracle_converged) in zip(ns, sweeps[level, p], oracle, strict=True):
            assert abs(value - oracle_value) <= 1e-12 * oracle_value, (level, p, n)
            assert converged == oracle_converged, (level, p, n)


@pytest.mark.parametrize("q", [1.001, 1.5])
def test_vector_gradient_stays_finite_on_subnormal_entries(q):
    # The gradient's |v|**(q-1) term must not be formed as |v|**(q-2) * v, which
    # overflows on entries near 1e-310 when q < 2.
    w = dyadic_weights(3, 0.3)
    v = np.array([1.0, -0.5j, 1e-300, 1e-308, 1e-310, -1e-310j, 0.0, 2e-310 + 1e-310j])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        grad = classical._weighted_vector_gradient(v, w, q)
    assert np.all(np.isfinite(grad))
    norm = classical._weighted_vector_norm(v, w, q)
    assert abs(np.vdot(v, grad).real - norm) <= 1e-12 * norm


@pytest.mark.parametrize("p", [1.001, 1.5, 3.0, 1000.0])
def test_estimator_dual_gradient_is_the_dual_map(p, monkeypatch):
    # The dual of (sum w |v|**p)**(1/p) is ||z / s||_q with s = w**(1/p), 1/p + 1/q = 1:
    # the dual gradient the estimator climbs with has norm 1 and pairs with z to that dual norm.
    level = 4
    callbacks = {}

    def capture(mats, draw, norm_of, norm_gradient, dual_gradient, restarts, seeds):
        callbacks.update(norm_of=norm_of, dual_gradient=dual_gradient)
        return [(0.0, False)] * len(seeds)

    monkeypatch.setattr(classical, "multistart_ascent", capture)
    classical_norm_estimates([0], level, 0.3, p, 1, [0])
    w = dyadic_weights(level, 0.3)
    rng = task_rng(17)
    zs = rng.standard_normal((4, 1 << level)) + 1j * rng.standard_normal((4, 1 << level))
    duals = callbacks["dual_gradient"](zs)
    assert np.allclose(callbacks["norm_of"](duals), 1.0, rtol=0.0, atol=1e-12)
    for z, dual in zip(zs, duals):
        dual_norm = classical._weighted_vector_norm(z / w ** (1 / p), np.ones_like(w), p / (p - 1))
        assert abs(np.vdot(z, dual).real - dual_norm) <= 1e-12 * dual_norm, p


def test_level8_cells_converge_at_p4():
    # Cells that take the iteration many rounds at L = 8; each must stop within the cap.
    for n in (112, 144, 160, 176, 208):
        value, converged = classical_norm_estimate(n, 8, 0.3, 4.0, restarts=8, seed=n)
        assert converged and value > 1, n


def test_classical_estimate_below_closed_form_at_p1_and_inf():
    # Weighted l^inf operator norm: max_i sum_j |P_ij|; weighted l^1: max_j sum_i w_i |P_ij| / w_j.
    level, alpha = 4, 0.3
    w = dyadic_weights(level, alpha)
    for n in range(1 << level):
        mags = np.abs(classical_projection(n, level))
        closed = {np.inf: mags.sum(axis=1).max(), 1.0: ((w @ mags) / w).max()}
        for p, bound in closed.items():
            est, converged = classical_norm_estimate(n, level, alpha, p, restarts=8, seed=n)
            assert abs(est - bound) <= 1e-12 * bound and converged, (n, p, est, bound)


def test_step_function_validation():
    with pytest.raises(ValueError):
        StepFunction(2, np.ones(3))
    with pytest.raises(ValueError):
        StepFunction(0, np.ones(1))


def test_classical_projection_equals_inverse_formula():
    for level in range(1, 9):
        dim = 1 << level
        basis = classical_basis_matrix(level)
        inverse = np.linalg.inv(basis)
        for n in sorted(set(range(0, dim, max(1, dim // 16))) | {dim - 1}):
            keep = np.zeros(dim)
            keep[: n + 1] = 1.0
            expected = basis @ np.diag(keep) @ inverse
            assert np.array_equal(classical_projection(n, level), expected), (level, n)


def test_classical_basis_matrix_equals_per_function_columns():
    for level in range(1, 9):
        dim = 1 << level
        basis = classical_basis_matrix(level)
        columns = np.column_stack([classical_walsh_values(n, level).values for n in range(dim)])
        assert basis.tobytes() == columns.tobytes(), level
        # Independent oracle: (-1)**popcount(digit-reversed k & n).
        rev = [int(format(k, f"0{level}b")[::-1], 2) for k in range(dim)]
        parity = np.array([[bin(r & n).count("1") & 1 for n in range(dim)] for r in rev])
        assert np.array_equal(basis, 1.0 - 2.0 * parity), level
