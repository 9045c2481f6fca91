import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import FILTRATION_MASK_TOL, dense_top_value, random_matrix
from walshlab.linalg import factor_products, gns_inner, schatten_norm, top_singular_value
from walshlab.states import (
    LpContext,
    StateSpec,
    batched_weighted_lp_norm,
    cond_expect,
    lp_norm,
    mart_diff,
    modular_flow,
    orthonormal_kernel,
    orthonormal_parts,
    rho_value,
    state_density,
    state_diagonal,
    weight_scale,
    weighted_lp_dual_gradient,
    weighted_lp_gradient,
    weighted_lp_norm,
)
from walshlab.tensor import TensorContext
from walshlab.walsh import GENERATORS, MEANZERO, block_support, keep_coefficients, walsh_coefficients, walsh_matrix

ALPHAS = (0.5, 0.3, 0.1)
PS = (1.0, 1.5, 2.0, 3.0, np.inf)


def test_state_spec_validation():
    with pytest.raises(ValueError):
        StateSpec(0.7, 2)
    with pytest.raises(ValueError):
        StateSpec(0.0, 2)
    with pytest.raises(ValueError):
        StateSpec(0.3, 0)
    assert abs(StateSpec(0.3, 2).lam - 0.3 / 0.7) < 1e-15


def test_state_density_examples():
    assert np.allclose(state_density(StateSpec(0.5, 2)), np.eye(4) / 4)
    assert np.allclose(state_density(StateSpec(0.3, 1)), np.diag([0.3, 0.7]))
    assert np.allclose(state_density(StateSpec(0.3, 2)), np.diag([0.09, 0.21, 0.21, 0.49]))
    for m in range(1, 9):
        d = state_density(StateSpec(0.3, m))
        assert abs(np.trace(d).real - 1) < 1e-12


def test_rho_examples():
    assert abs(rho_value(np.eye(4), StateSpec(0.3, 2)) - 1) < 1e-14
    assert abs(rho_value(walsh_matrix(1, 1), StateSpec(0.3, 1)) - (-0.4)) < 1e-14
    assert abs(rho_value(walsh_matrix(5, 2), StateSpec(0.3, 2)) - 0.16) < 1e-14
    stack = np.stack([np.eye(4), walsh_matrix(5, 2)])
    assert np.allclose(rho_value(stack, StateSpec(0.3, 2)), [1, 0.16], rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        rho_value(np.eye(2), StateSpec(0.3, 2))


def test_lp_norm_examples():
    for alpha in ALPHAS:
        for p in PS:
            for side in ("left", "right"):
                ctx = LpContext(p, StateSpec(alpha, 2), side)
                assert abs(lp_norm(np.eye(4), ctx) - 1) < 1e-12
    e12 = np.array([[0, 1], [0, 0]], dtype=complex)
    val = lp_norm(e12, LpContext(2.0, StateSpec(0.3, 1)))
    assert abs(val - np.sqrt(0.7)) < 1e-12
    with pytest.raises(ValueError):
        LpContext(0.5, StateSpec(0.3, 1))


def test_walsh_isometry_norms():
    spec = StateSpec(0.3, 2)
    for n in range(16):
        w = walsh_matrix(n, 2)
        for p in PS:
            for side in ("left", "right"):
                assert abs(lp_norm(w, LpContext(p, spec, side)) - 1) < 1e-10


@given(st.integers(0, 10_000), st.sampled_from(PS))
def test_tracial_norm_is_scaled_schatten(seed, p):
    m = 3
    x = random_matrix(m, seed)
    ctx = LpContext(p, StateSpec(0.5, m))
    scale = 1.0 if np.isinf(p) else 2.0 ** (-m / p)
    assert abs(lp_norm(x, ctx) - scale * schatten_norm(x, p)) < 1e-10


def test_modular_flow_examples():
    spec = StateSpec(0.3, 1)
    x = random_matrix(1, 4)
    assert np.allclose(modular_flow(x, 0.0, spec), x)
    e12 = np.array([[0, 1], [0, 0]], dtype=complex)
    lam = 0.3 / 0.7
    assert np.allclose(modular_flow(e12, 1.3, spec), lam**1.3j * e12, atol=1e-13)
    d = np.diag([2.0, 5.0])
    assert np.allclose(modular_flow(d, 0.9, spec), d)


@given(st.integers(0, 10_000), st.floats(-3, 3))
def test_modular_flow_multiplicative_and_isometric(seed, t):
    spec = StateSpec(0.3, 2)
    x, y = random_matrix(2, seed), random_matrix(2, seed + 1)
    fx, fy = modular_flow(x, t, spec), modular_flow(y, t, spec)
    assert np.max(np.abs(modular_flow(x @ y, t, spec) - fx @ fy)) < 1e-10
    for p in (1.0, 2.0, np.inf):
        for side in ("left", "right"):
            ctx = LpContext(p, spec, side)
            assert abs(lp_norm(fx, ctx) - lp_norm(x, ctx)) < 1e-10


def test_cond_expect_pinch_and_characterizing_property():
    spec = StateSpec(0.3, 1)
    x = np.array([[1.0 + 2j, 3.0], [4.0, -2.0]])
    e0 = cond_expect(x, 0, spec)
    assert np.allclose(e0, np.diag(np.diag(x)))
    # uniqueness oracle: Tr(E(x) d A) = Tr(x d A) for every diagonal d
    a = state_density(spec)
    for d in (np.eye(2), np.diag([1.0, -1.0]), np.diag([0.2, 5.0])):
        assert abs(np.trace(e0 @ d @ a) - np.trace(x @ d @ a)) < 1e-12


def test_cond_expect_examples():
    spec2 = StateSpec(0.3, 2)
    out = cond_expect(walsh_matrix(4, 2), 1, spec2)
    assert np.allclose(out, -0.4 * np.eye(4))
    x = random_matrix(2, 8)
    assert np.allclose(cond_expect(x, -1, spec2), rho_value(x, spec2) * np.eye(4))
    assert np.allclose(cond_expect(x, 3, spec2), x)
    with pytest.raises(ValueError):
        cond_expect(x, 4, spec2)
    with pytest.raises(ValueError):
        cond_expect(x, -2, spec2)


def test_mart_diff_examples():
    w1 = walsh_matrix(1, 1)
    assert np.allclose(mart_diff(w1, 0, StateSpec(0.5, 1)), w1)
    assert np.allclose(mart_diff(w1, 0, StateSpec(0.3, 1)), w1 + 0.4 * np.eye(2))
    w2 = walsh_matrix(2, 1)
    for alpha in ALPHAS:
        assert np.allclose(mart_diff(w2, 1, StateSpec(alpha, 1)), w2)


@given(st.integers(0, 10_000), st.sampled_from(ALPHAS))
def test_rho_preservation_and_completeness(seed, alpha):
    spec = StateSpec(alpha, 3)
    x = random_matrix(3, seed)
    for s in range(-1, 6):
        assert abs(rho_value(cond_expect(x, s, spec), spec) - rho_value(x, spec)) < 1e-11
    total = rho_value(x, spec) * np.eye(8) + sum(mart_diff(x, s, spec) for s in range(6))
    assert np.max(np.abs(total - x)) < 1e-11


def test_tower_law_all_pairs():
    spec = StateSpec(0.3, 3)
    x = random_matrix(3, 12)
    for s in range(-1, 6):
        for t in range(-1, 6):
            lhs = cond_expect(cond_expect(x, s, spec), t, spec)
            rhs = cond_expect(x, min(s, t), spec)
            assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_module_property():
    spec = StateSpec(0.3, 3)
    x = random_matrix(3, 31)
    for s in range(6):
        a = cond_expect(random_matrix(3, 32 + s), s, spec)
        b = cond_expect(random_matrix(3, 64 + s), s, spec)
        lhs = cond_expect(a @ x @ b, s, spec)
        rhs = a @ cond_expect(x, s, spec) @ b
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_modular_invariance_of_filtration():
    spec = StateSpec(0.3, 3)
    for s in range(-1, 6):
        y = cond_expect(random_matrix(3, 90 + s), s, spec)
        fy = modular_flow(y, 0.7, spec)
        assert np.max(np.abs(cond_expect(fy, s, spec) - fy)) < 1e-10


def test_gns_orthogonality_of_differences():
    spec = StateSpec(0.3, 3)
    a = state_density(spec)
    x, y = random_matrix(3, 44), random_matrix(3, 45)
    for s in range(6):
        for t in range(6):
            if s != t:
                v = gns_inner(mart_diff(x, s, spec), mart_diff(y, t, spec), a)
                assert abs(v) < 1e-10


def test_contractivity_grid():
    for alpha in ALPHAS:
        spec = StateSpec(alpha, 2)
        for p in PS:
            for side in ("left", "right"):
                ctx = LpContext(p, spec, side)
                for k in range(25):
                    x = random_matrix(2, 1000 + k)
                    nx = lp_norm(x, ctx)
                    for s in range(-1, 4):
                        assert lp_norm(cond_expect(x, s, spec), ctx) <= nx * (1 + 1e-9)


def test_left_right_multiplication_isometry():
    spec = StateSpec(0.3, 2)
    x = random_matrix(2, 77)
    for n in range(16):
        w = walsh_matrix(n, 2)
        for p in (1.0, 2.0, 3.0):
            left = LpContext(p, spec, "left")
            right = LpContext(p, spec, "right")
            assert abs(lp_norm(w @ x, left) - lp_norm(x, left)) < 1e-10
            assert abs(lp_norm(x @ w, right) - lp_norm(x, right)) < 1e-10


def test_block_membership_tracial_and_leak_structure():
    m = 3
    tracial = StateSpec(0.5, m)
    biased = StateSpec(0.3, m)
    for k in range(5):
        x = random_matrix(m, 300 + k)
        for s in range(2 * m):
            lo, hi = block_support(s)
            c_tr = walsh_coefficients(mart_diff(x, s, tracial))
            outside = np.concatenate([c_tr[:lo], c_tr[hi:]])
            assert np.max(np.abs(outside)) < 1e-10
            c_bi = walsh_coefficients(mart_diff(x, s, biased))
            # for every bias nothing lands above the block; odd steps stay confined
            assert np.max(np.abs(c_bi[hi:])) < 1e-10 if hi < c_bi.size else True
            if s % 2 == 1:
                assert np.max(np.abs(c_bi[:lo])) < 1e-10


def test_even_step_leak_is_recorded_below_block():
    # even steps leak onto slot 0 and earlier slots when the bias is not 1/2
    spec = StateSpec(0.3, 2)
    d0 = mart_diff(walsh_matrix(5, 2), 0, spec)
    c = walsh_coefficients(d0)
    assert abs(c[1] - (-0.4)) < 1e-12  # inside block [1, 2)
    assert abs(c[0] - (-0.16)) < 1e-12  # leak onto the mean slot
    assert np.max(np.abs(c[2:])) < 1e-12


def test_weighted_lp_norm_rejects():
    w = np.array([0.5, 0.5])
    xs = np.stack([np.eye(2), np.eye(2)])
    for norm in (weighted_lp_norm, batched_weighted_lp_norm, weighted_lp_gradient):
        x = xs if norm is batched_weighted_lp_norm else xs[0]
        with pytest.raises(ValueError):
            norm(x, w, 0.3)
        for p in (3.0, np.inf):
            with pytest.raises(ValueError):
                norm(x, w, p, "middle")


@pytest.mark.parametrize("batch", [(), (5,), (2, 3)])
def test_stacked_norms_equal_per_matrix_loop(batch):
    # One Schatten sum and one norm body serve one matrix and a stack, and both
    # take one (k, d, d) path, final root included: values agree bit for bit.
    spec = StateSpec(0.3, 2)
    w = state_diagonal(spec)
    count = int(np.prod(batch, dtype=int))
    xs = np.stack([random_matrix(2, 500 + k) for k in range(count)]).reshape(batch + (4, 4))
    for p in PS:
        schatten = schatten_norm(xs, p)
        assert isinstance(schatten, float) if batch == () else schatten.shape == batch
        for idx in np.ndindex(batch):
            assert np.asarray(schatten)[idx] == schatten_norm(xs[idx], p)
        for side in ("left", "right"):
            ctx = LpContext(p, spec, side)
            stacked = batched_weighted_lp_norm(xs, w, p, side)
            assert isinstance(stacked, np.ndarray) and stacked.shape == batch
            values = lp_norm(xs, ctx)
            assert isinstance(values, float) if batch == () else values.shape == batch
            for idx in np.ndindex(batch):
                one = weighted_lp_norm(xs[idx], w, p, side)
                assert lp_norm(xs[idx], ctx) == one
                assert stacked[idx] == one
                assert np.asarray(values)[idx] == one
    # The gradient body is stack-aware too, bit for bit; a zero matrix in a stack has a zero gradient.
    ys = xs.copy()
    zero = (-1,) * len(batch)
    if batch:
        ys[zero] = 0.0
    for p in (1.5, 3.0, np.inf):
        for side in ("left", "right"):
            grads = weighted_lp_gradient(ys, w, p, side)
            assert grads.shape == ys.shape
            for idx in np.ndindex(batch):
                one = weighted_lp_gradient(ys[idx], w, p, side)
                assert np.array_equal(grads[idx], one), (p, side, idx)
            if batch:
                assert not np.any(grads[zero])


@pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 3.0, np.inf])
def test_one_matrix_norm_equals_its_stacked_norm_bit_for_bit(p):
    # A value must not depend on whether its caller batched it: one matrix and
    # a stack take the same final root (sum)**(1/p).  At 1 < p < 2 a scalar
    # power and an array power used to differ in the last bit for about 1 in 20 sums.
    w = state_diagonal(StateSpec(0.3, 2))
    for trial in range(60):
        xs = np.stack([random_matrix(2, 5 * trial + k) for k in range(5)])
        for side in ("left", "right"):
            stacked = batched_weighted_lp_norm(xs, w, p, side)
            for k in range(5):
                assert weighted_lp_norm(xs[k], w, p, side) == stacked[k], (trial, side, k)


@pytest.mark.parametrize("p", [1.5, 3.0, np.inf])
@pytest.mark.parametrize("side", ["left", "right"])
def test_weighted_lp_gradient_matches_finite_differences(p, side):
    # At p = inf the gradient is u1 v1* of the top singular pair (simple for
    # this complex matrix), not u1 conj(v1*).
    w = state_diagonal(StateSpec(0.3, 2))
    x = random_matrix(2, 61)
    grad = weighted_lp_gradient(x, w, p, side)
    h = 1e-6
    for k in range(4):
        e = random_matrix(2, 620 + k)
        for direction in (e.real, 1j * e.imag):
            fd = (weighted_lp_norm(x + h * direction, w, p, side)
                  - weighted_lp_norm(x - h * direction, w, p, side)) / (2 * h)
            assert abs(np.sum(grad.conj() * direction).real - fd) <= 1e-7 * max(1.0, abs(fd))


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, np.inf])
@pytest.mark.parametrize("side", ["left", "right"])
def test_weighted_lp_dual_gradient_is_the_dual_map(p, side):
    # The dual of ||x S||_p under Re Tr(x* z) is ||z / S||_q, 1/p + 1/q = 1 (S the
    # weight scale): J*(z) has weighted p-norm 1 and pairs with z to that dual norm.
    w = state_diagonal(StateSpec(0.3, 2))
    q = np.inf if p == 1 else 1.0 if np.isinf(p) else p / (p - 1)
    zs = np.stack([random_matrix(2, 80 + k) for k in range(4)] + [np.zeros((4, 4))])
    duals = weighted_lp_dual_gradient(zs, w, p, side)
    for z, dual in zip(zs[:-1], duals):
        dual_norm = float(schatten_norm(z / weight_scale(w, p, side), q))
        assert abs(weighted_lp_norm(dual, w, p, side) - 1) <= 1e-12, (p, side)
        assert abs(np.vdot(z, dual).real - dual_norm) <= 1e-12 * dual_norm, (p, side)
    assert not np.any(duals[-1])


def _weighted_gram(stack, spec, side):
    """Gram matrix Tr(x_a* x_b A) (left) or Tr(x_a* A x_b) (right) of a stack."""
    w = state_diagonal(spec)
    scale = w[np.newaxis, :] if side == "left" else w[:, np.newaxis]
    flat = stack.reshape(len(stack), -1)
    return flat.conj() @ (stack * scale).reshape(len(stack), -1).T


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("bias", [0.5, 0.3, 0.1, 1e-2, 1e-4])
def test_orthonormal_kernel_is_gram_schmidt_of_the_generators(bias, side):
    # Gram-Schmidt of I, diag(1, -1), flip, rotation under diag(b, 1-b), taken numerically.
    spec = StateSpec(bias, 1)
    done = []
    for g in GENERATORS:
        v = g.astype(np.complex128)
        for e in done:
            v = v - _weighted_gram(np.stack([e, v]), spec, side)[0, 1] * e
        done.append(v / np.sqrt(_weighted_gram(v[np.newaxis], spec, side)[0, 0].real))
    closed = orthonormal_kernel(bias, side).T.reshape(4, 2, 2)
    assert np.max(np.abs(closed - np.stack(done))) <= 1e-12 * np.max(np.abs(closed))
    with pytest.raises(ValueError):
        orthonormal_kernel(bias, "middle")


BASIS_STATES = (
    StateSpec(0.3, 1),
    StateSpec(1e-4, 2),
    StateSpec(0.1, 3),
    TensorContext(StateSpec(0.3, 1), StateSpec(1e-2, 2)),
    TensorContext(StateSpec(1e-4, 2), StateSpec(0.5, 1)),
)


@pytest.mark.parametrize("side", ["left", "right"])
def test_orthonormal_stack_is_orthonormal_and_spans_walsh_prefixes(side):
    # The stack is the product matrices of the orthonormal parts.
    for spec in BASIS_STATES:
        n = 4**spec.m
        basis = factor_products(orthonormal_parts(spec, n, side))
        assert basis.shape == (n, spec.dim, spec.dim)
        gram = _weighted_gram(basis, spec, side)
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-12, (spec, side)
        # e_k has no Walsh coefficient above k, so every prefix spans w_0 .. w_(r-1).
        coeffs = walsh_coefficients(basis)
        assert np.all(np.triu(coeffs, 1) == 0), (spec, side)
        assert np.all(np.abs(np.diagonal(coeffs)) > 0), (spec, side)
        assert np.array_equal(factor_products(orthonormal_parts(spec, 3, side)), basis[:3])
        with pytest.raises(ValueError):
            orthonormal_parts(spec, n + 1, side)


def test_top_singular_value_of_compressed_rows_matches_dense_similarity():
    # A map whose range is a known subspace, compressed to an orthonormal basis of it:
    # the r rows (root X)* S of the similarity S = diag(root) mat diag(root)^-1.
    rng = np.random.default_rng(4)
    n, r = 32, 5
    root = np.sqrt(rng.uniform(1e-4, 1.0, n))
    q, _ = np.linalg.qr(rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r)))
    basis = (q / root[:, np.newaxis]).T  # rows orthonormal for sum root**2 conj(x) y
    mat = basis.T @ (rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n)))
    value = top_singular_value(((basis.conj() * (root * root)) @ mat) / root)
    assert abs(value - dense_top_value(mat, root)) <= 1e-13 * value
    assert top_singular_value(np.zeros((r, n))) == 0.0


@pytest.mark.parametrize("alpha", [0.5, 0.3, 0.1, 1e-4])
def test_expectation_keeps_a_prefix_of_meanzero_coefficients(alpha):
    for m in (1, 2, 3):
        spec = StateSpec(alpha, m)
        index = np.arange(4**m)
        for seed in range(3):
            x = random_matrix(m, 700 + seed)
            for s in range(-1, 2 * m):
                kept = keep_coefficients(x, index < 2 ** (s + 1), alpha, MEANZERO)
                assert np.max(np.abs(cond_expect(x, s, spec) - kept)) <= FILTRATION_MASK_TOL * np.max(np.abs(x)), (m, s)


@pytest.mark.parametrize("alpha", [0.5, 0.3, 0.1, 1e-4])
def test_difference_keeps_one_block_of_meanzero_coefficients(alpha):
    for m in (1, 2, 3):
        spec = StateSpec(alpha, m)
        index = np.arange(4**m)
        for seed in range(3):
            x = random_matrix(m, 800 + seed)
            for s in range(2 * m):
                lo, hi = block_support(s)
                kept = keep_coefficients(x, (index >= lo) & (index < hi), alpha, MEANZERO)
                assert np.max(np.abs(mart_diff(x, s, spec) - kept)) <= FILTRATION_MASK_TOL * np.max(np.abs(x)), (m, s)
