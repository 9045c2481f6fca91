import numpy as np
import pytest

from helpers import random_matrix
from walshlab.linalg import dagger
from walshlab.states import StateSpec, cond_expect, mart_diff, state_diagonal
from walshlab.tensor import (
    TensorContext,
    double_walsh,
    factor_expectation,
    factor_projection,
    fsum_partial,
    max_shell_index,
    shell_decomposition_check,
    shell_index,
    shell_pair,
    tensor_identity_residual,
    tensor_partial_sum,
)
from walshlab.walsh import walsh_coefficients, walsh_matrix

W = walsh_matrix
CTX11 = TensorContext(StateSpec(0.3, 1), StateSpec(0.3, 1))


def test_shell_index_examples():
    assert shell_index(0, 0) == 0
    assert shell_index(1, 1) == 2
    assert shell_index(1, 0) == 3
    assert shell_index(2, 0) == 8


def test_shell_pair_examples():
    assert shell_pair(0) == (0, 0)
    assert shell_pair(5) == (1, 2)
    assert shell_pair(7) == (2, 1)


def test_shell_bijection_exhaustive():
    for n in range(10_000):
        assert shell_index(*shell_pair(n)) == n
    for i in range(100):
        for j in range(100):
            assert shell_pair(shell_index(i, j)) == (i, j)


def test_shell_interval_structure():
    for l in range(31):
        positions = {shell_index(i, l) for i in range(l + 1)}
        positions |= {shell_index(l, j) for j in range(l)}
        assert positions == set(range(l * l, (l + 1) * (l + 1)))
    square = {shell_index(i, j) for i in range(30) for j in range(30)}
    assert square == set(range(900))


def test_double_walsh_examples():
    assert np.array_equal(double_walsh(0, CTX11), np.eye(4))
    assert np.array_equal(double_walsh(3, CTX11), np.kron(np.diag([1, -1]), np.eye(2)))
    assert np.array_equal(double_walsh(1, CTX11), np.kron(np.eye(2), np.diag([1, -1])))
    with pytest.raises(ValueError):
        double_walsh(16, CTX11)
    for m1, m2 in ((1, 2), (2, 1)):
        ctx = TensorContext(StateSpec(0.3, m1), StateSpec(0.1, m2))
        for n in range(max_shell_index(ctx) + 1):
            i, j = shell_pair(n)
            if i < 4**m1 and j < 4**m2:
                assert np.array_equal(double_walsh(n, ctx), np.kron(W(i, m1), W(j, m2))), (m1, m2, n)


def test_double_walsh_orthonormal_and_unitary():
    dim = 4
    mats = [double_walsh(n, CTX11) for n in range(16)]
    gram = np.array(
        [[np.trace(dagger(a) @ b) / dim for b in mats] for a in mats]
    )
    assert np.max(np.abs(gram - np.eye(16))) < 1e-12
    for z in mats:
        assert np.max(np.abs(z @ dagger(z) - np.eye(dim))) < 1e-12


def test_factor_expectation_examples():
    x = np.kron(W(1, 1), np.eye(2))
    assert np.allclose(factor_expectation(x, "first", CTX11), x)
    y = np.kron(W(1, 1), W(2, 1))
    assert np.max(np.abs(factor_expectation(y, "first", CTX11))) < 1e-13
    z = np.kron(W(1, 1), W(1, 1))
    assert np.allclose(factor_expectation(z, "first", CTX11), -0.4 * x)
    with pytest.raises(ValueError):
        factor_expectation(np.eye(2), "first", CTX11)


def test_factor_expectation_is_state_preserving_idempotent():
    weights = state_diagonal(CTX11)
    for seed in range(3):
        x = random_matrix(2, 500 + seed)
        for side in ("first", "second"):
            e = factor_expectation(x, side, CTX11)
            assert np.max(np.abs(factor_expectation(e, side, CTX11) - e)) < 1e-12
            assert abs(np.diag(e) @ weights - np.diag(x) @ weights) < 1e-12


def test_factor_projection_examples():
    x = np.kron(W(1, 1), W(2, 1))
    assert np.allclose(factor_projection(x, "second", 2, CTX11), x)
    assert np.max(np.abs(factor_projection(x, "second", 1, CTX11))) < 1e-13
    ctx12 = TensorContext(StateSpec(0.3, 1), StateSpec(0.3, 2))
    y = np.kron(W(1, 1), W(5, 2))
    out = factor_projection(y, "second", 4, ctx12)
    assert np.allclose(out, -0.4 * np.kron(W(1, 1), W(4, 2)))
    with pytest.raises(ValueError):
        factor_projection(x, "second", 4, CTX11)


def test_factor_projection_idempotent_on_grid():
    for a1 in (0.5, 0.3):
        for a2 in (0.5, 0.3):
            ctx = TensorContext(StateSpec(a1, 1), StateSpec(a2, 1))
            x = random_matrix(2, 600)
            for side in ("first", "second"):
                for j in range(4):
                    pj = factor_projection(x, side, j, ctx)
                    pj2 = factor_projection(pj, side, j, ctx)
                    assert np.max(np.abs(pj2 - pj)) < 1e-11


def test_factor_projection_resolution_tracial():
    ctx = TensorContext(StateSpec(0.3, 1), StateSpec(0.5, 1))
    x = random_matrix(2, 601)
    total = sum(factor_projection(x, "second", j, ctx) for j in range(4))
    assert np.max(np.abs(total - x)) < 1e-11


def test_tensor_partial_sum_examples():
    x = double_walsh(0, CTX11) + 5 * double_walsh(3, CTX11)
    assert np.allclose(tensor_partial_sum(x, 2, CTX11), double_walsh(0, CTX11), atol=1e-13)
    z2 = double_walsh(2, CTX11)
    assert np.allclose(tensor_partial_sum(z2, 2, CTX11), z2, atol=1e-13)
    y = random_matrix(2, 5)
    assert np.allclose(tensor_partial_sum(y, max_shell_index(CTX11), CTX11), y, atol=1e-12)
    with pytest.raises(ValueError):
        tensor_partial_sum(y, max_shell_index(CTX11) + 1, CTX11)


def test_tensor_partial_sum_full_reconstruction_unequal_levels():
    ctx = TensorContext(StateSpec(0.3, 1), StateSpec(0.3, 2))
    x = random_matrix(3, 6)
    assert np.allclose(tensor_partial_sum(x, max_shell_index(ctx), ctx), x, atol=1e-12)


def test_joint_coefficients_index_layout():
    # The pair (i, j) sits at joint Walsh index i + (j << 2*m1), which the
    # shell and block masks rely on: w_2 (x) w_7 is w_30 at (m1, m2) = (1, 2),
    # and the shell sums keep it from its pair's position shell_index(2, 7) on.
    ctx = TensorContext(StateSpec(0.3, 1), StateSpec(0.3, 2))
    x = np.kron(W(2, 1), W(7, 2))
    expected = np.zeros(64)
    expected[2 + (7 << 2)] = 1.0
    assert np.allclose(walsh_coefficients(x), expected, atol=1e-13)
    assert np.allclose(tensor_partial_sum(x, shell_index(2, 7) - 1, ctx), 0.0, atol=1e-13)
    assert np.allclose(tensor_partial_sum(x, shell_index(2, 7), ctx), x, atol=1e-13)


def test_shell_decomposition_square_case():
    x = random_matrix(2, 31)
    rep = shell_decomposition_check(x, 3, CTX11)  # n = l**2 - 1 with l = 2 next
    # n = 3 sits at the end of shell 1, so positions 1..3 form the remainder
    assert rep.residual < 1e-12
    full_square = shell_decomposition_check(x, 8, CTX11)
    assert full_square.residual < 1e-12


def test_shell_decomposition_z4_case():
    z4 = double_walsh(4, CTX11)
    rep = shell_decomposition_check(z4, 4, CTX11)
    assert rep.residual < 1e-12
    assert rep.square_norms[0] < 1e-12
    assert abs(rep.remainder_norms[0] - 1) < 1e-12


def test_shell_decomposition_random_all_positions():
    for seed in range(3):
        x = random_matrix(2, 700 + seed)
        for n in range(16):
            rep = shell_decomposition_check(x, n, CTX11)
            assert rep.residual < 1e-11, (seed, n)


def test_second_block_filtration_consistency():
    ctx = TensorContext(StateSpec(0.3, 1), StateSpec(0.3, 2))
    start = 2 * ctx.first.m  # second-block step s is the joint step start + s
    x = random_matrix(3, 800)
    fe = factor_expectation(x, "first", ctx)
    assert np.allclose(cond_expect(x, start - 1, ctx), fe, atol=1e-12)
    assert np.allclose(cond_expect(x, start + 3, ctx), x, atol=1e-13)
    total = fe + sum(mart_diff(x, start + s, ctx) for s in range(4))
    assert np.max(np.abs(total - x)) < 1e-11


def test_joint_filtration_acts_on_second_block_of_products():
    # On a (x) b, the joint step 2*m1 + s is id (x) E_s of the second block's own state.
    for m1 in (1, 2):
        for m2 in (1, 2):
            ctx = TensorContext(StateSpec(0.3, m1), StateSpec(0.1, m2))
            a = random_matrix(m1, 810 + m1)
            b = random_matrix(m2, 820 + m2)
            for s in range(-1, 2 * m2):
                got = cond_expect(np.kron(a, b), 2 * m1 + s, ctx)
                want = np.kron(a, cond_expect(b, s, ctx.second))
                assert np.max(np.abs(got - want)) <= 1e-14, (m1, m2, s)


def test_joint_state_diagonal_is_kron_of_block_diagonals():
    # One left-to-right fold against the product of two folds: the rounding differs by a few ulp.
    for m1 in (1, 2):
        for m2 in (1, 2):
            ctx = TensorContext(StateSpec(0.3, m1), StateSpec(0.1, m2))
            blocks = np.kron(state_diagonal(ctx.first), state_diagonal(ctx.second))
            np.testing.assert_array_max_ulp(state_diagonal(ctx), blocks, maxulp=2)


def test_tensor_identity_tracial_exhaustive():
    ctx = TensorContext(StateSpec(0.3, 1), StateSpec(0.5, 2))
    worst = 0.0
    for i in range(4):
        for j in range(16):
            x = np.kron(W(i, 1), W(j, 2))
            for n in range(16):
                rep = tensor_identity_residual(x, n, ctx)
                worst = max(worst, rep.residual_norms[0])
                assert rep.fsum_gap_norms[0] < 1e-11
                assert rep.fsum_idempotency_residual < 1e-11
    assert worst < 1e-11


def test_tensor_identity_biased_base_case():
    xb = np.kron(np.eye(2), W(1, 1))
    rep = tensor_identity_residual(xb, 0, CTX11)
    assert abs(rep.residual_norms[0] - 0.4) < 1e-12
    assert abs(rep.fsum_gap_norms[0] - 0.4) < 1e-12
    # the projection-sum value itself: rho'(w1) * identity
    fs = fsum_partial(xb, 0, CTX11, "second")
    assert np.allclose(fs, -0.4 * np.eye(4), atol=1e-13)


def test_tensor_identity_fixed_point_case():
    ctx = TensorContext(StateSpec(0.3, 1), StateSpec(0.5, 2))
    n = 3
    x = sum((k + 1) * np.kron(random_matrix(1, 900 + k), W(k, 2)) for k in range(n + 1))
    rep = tensor_identity_residual(x, n, ctx)
    assert rep.residual_norms[0] < 1e-12
    with pytest.raises(ValueError):
        tensor_identity_residual(x, 16, ctx)


def test_fsum_idempotency_residual_is_reported_when_biased():
    xb = random_matrix(2, 950)
    rep = tensor_identity_residual(xb, 1, CTX11)
    fs = fsum_partial(xb, 1, CTX11, "second")
    fs2 = fsum_partial(fs, 1, CTX11, "second")
    assert abs(rep.fsum_idempotency_residual - np.max(np.abs(fs2 - fs))) < 1e-13
