import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import PAPER_ANALYSIS_KERNEL, PAPER_SYNTHESIS_KERNEL, random_matrix
from walshlab.linalg import dagger, factor_map_matrix, task_rng
from walshlab.walsh import (
    MEANZERO,
    PAPER,
    binary_digits,
    block_support,
    factor_codes,
    factor_kernels,
    gram_matrix,
    keep_coefficients,
    mask_terms,
    mean_zero_block,
    predicted_rademacher_sign,
    rademacher_block,
    rademacher_matrix,
    system_coefficients,
    system_synthesize,
    walsh_coefficients,
    walsh_coefficients_naive,
    walsh_matrix,
    walsh_product_index,
    walsh_stack,
    walsh_synthesize,
)


def test_binary_digits():
    assert binary_digits(0) == []
    assert binary_digits(5) == [1, 0, 1]
    assert binary_digits(6) == [0, 1, 1]


def test_rademacher_block_examples():
    assert np.array_equal(rademacher_block(1, 1), [[0, 1], [-1, 0]])
    for mode in (PAPER, MEANZERO):
        assert np.array_equal(rademacher_block(0, 0, 0.3, mode), np.eye(2))
    b = rademacher_block(1, 0, alpha=0.2, mode=MEANZERO)
    assert np.allclose(b, np.diag([2.0, -0.5]))
    # mean-zero normalization: first and second moments under the bias
    assert abs(0.2 * 2.0 - 0.8 * 0.5) < 1e-14
    assert abs(0.2 * 4.0 + 0.8 * 0.25 - 1.0) < 1e-14


def test_rademacher_block_rejects_bad_bias():
    with pytest.raises(ValueError):
        rademacher_block(1, 0, alpha=0.7)
    with pytest.raises(ValueError):
        rademacher_block(1, 0, alpha=0.0, mode=MEANZERO)


@given(st.floats(0.05, 0.5))
def test_mean_zero_block_properties(alpha):
    b = mean_zero_block(alpha)
    d = np.diag(np.array([alpha, 1 - alpha]))
    assert abs(np.trace(b @ d)) < 1e-12
    assert abs(np.trace(b @ b @ d) - 1) < 1e-12


def test_walsh_matrix_examples():
    for m in (1, 2, 3):
        assert np.array_equal(walsh_matrix(0, m), np.eye(1 << m))
    assert np.array_equal(walsh_matrix(3, 1), [[0, 1], [-1, 0]])
    assert np.array_equal(walsh_matrix(5, 2), np.diag([1, -1, -1, 1]))
    with pytest.raises(ValueError):
        walsh_matrix(4, 1)


def test_rademacher_matrix_examples():
    assert np.array_equal(rademacher_matrix(0, 1), np.diag([1, -1]))
    assert np.array_equal(rademacher_matrix(1, 1), [[0, 1], [1, 0]])
    assert np.array_equal(rademacher_matrix(2, 2), np.kron(np.eye(2), np.diag([1, -1])))
    with pytest.raises(ValueError):
        rademacher_matrix(4, 2)


def test_rademacher_matrix_factor_placement():
    # even step s: diagonal generator at factor s/2; odd s: flip at (s-1)/2
    m = 3
    for s in range(2 * m):
        r = rademacher_matrix(s, m)
        pos = s // 2
        block = np.diag([1, -1]) if s % 2 == 0 else np.array([[0, 1], [1, 0]])
        expected = np.eye(1)
        for j in range(m):
            expected = np.kron(expected, block if j == pos else np.eye(2))
        assert np.array_equal(r, expected)


def test_walsh_product_index_examples():
    for n in (0, 3, 11):
        assert walsh_product_index(n, 0) == (n, 1)
    assert walsh_product_index(2, 3) == (1, -1)
    assert walsh_product_index(3, 2) == (1, 1)


def test_product_law_exhaustive_m2():
    m = 2
    mats = [walsh_matrix(n, m) for n in range(16)]
    for n in range(16):
        for i in range(16):
            idx, sign = walsh_product_index(n, i)
            assert np.max(np.abs(mats[n] @ mats[i] - sign * mats[idx])) < 1e-12


def test_epsilon_rule_exhaustive_m3():
    m = 3
    mats = [walsh_matrix(n, m) for n in range(64)]
    for k in range(2 * m):
        r = mats[1 << k]
        for n in range(1 << k, 1 << (k + 1)):
            eps = predicted_rademacher_sign(k, n)
            # left multiplication picks up the sign, right multiplication never does
            assert np.max(np.abs(r @ mats[n] - eps * mats[n - (1 << k)])) < 1e-12
            assert np.max(np.abs(mats[n] @ r - mats[n - (1 << k)])) < 1e-12
            idx, sign = walsh_product_index(1 << k, n)
            assert (idx, sign) == (n - (1 << k), eps)


def test_unitarity_exhaustive_small_levels():
    for m in (1, 2, 3):
        eye = np.eye(1 << m)
        for n in range(4**m):
            w = walsh_matrix(n, m)
            assert np.max(np.abs(w @ dagger(w) - eye)) < 1e-12


def test_gram_orthonormal_small_levels():
    for m in (1, 2, 3):
        assert np.array_equal(gram_matrix(m), np.eye(4**m))


def test_paper_factor_kernels_equal_the_typed_table():
    analysis, synthesis = factor_kernels()
    assert np.array_equal(analysis, PAPER_ANALYSIS_KERNEL)
    assert np.array_equal(synthesis, PAPER_SYNTHESIS_KERNEL)
    # Paper mode does not read the bias, not even one outside (0, 1/2].
    for alpha in (0.3, 0.9):
        assert all(map(np.array_equal, factor_kernels(alpha, PAPER), factor_kernels()))
    x = random_matrix(2, 7)
    assert np.array_equal(system_coefficients(x, 0.9, PAPER), walsh_coefficients(x))
    with pytest.raises(ValueError):
        factor_kernels(0.9, MEANZERO)


@pytest.mark.parametrize("alpha", [0.3, 0.1, 1e-4])
def test_meanzero_factor_kernels_are_inverse(alpha):
    analysis, synthesis = factor_kernels(alpha, MEANZERO)
    # An LU inverse is good to about eps * cond(S): 3e-16 at 0.3, 2e-14 at 1e-4,
    # where the mean-zero column carries sqrt((1-a)/a) ~ 100.
    bound = np.finfo(np.float64).eps * np.linalg.cond(synthesis)
    assert np.max(np.abs(analysis @ synthesis - np.eye(4))) <= bound
    for q, block in enumerate(rademacher_block(q & 1, q >> 1, alpha, MEANZERO) for q in range(4)):
        assert np.array_equal(synthesis[:, q], block.ravel())
    assert not analysis.flags.writeable and not synthesis.flags.writeable


@pytest.mark.parametrize("mode", [PAPER, MEANZERO])
def test_walsh_stack_equals_per_index_matrices(mode):
    for alpha in (0.5, 0.3, 0.02):
        for m in (1, 2, 3, 4):
            per_index = np.stack([walsh_matrix(n, m, alpha, mode) for n in range(4**m)])
            assert np.array_equal(walsh_stack(m, alpha, mode), per_index), (alpha, m)


@pytest.mark.parametrize("mode", [PAPER, MEANZERO])
def test_gram_matrix_matches_per_entry_traces(mode):
    for m in (1, 2, 3):
        mats = [walsh_matrix(n, m, 0.3, mode) for n in range(4**m)]
        oracle = np.array([[np.trace(dagger(a) @ b) / 2**m for b in mats] for a in mats])
        assert np.max(np.abs(gram_matrix(m, 0.3, mode) - oracle)) <= 1e-15


def test_coefficients_examples():
    x = walsh_matrix(0, 1) + 2 * walsh_matrix(1, 1)
    assert np.allclose(walsh_coefficients(x), [1, 2, 0, 0])
    e11 = np.array([[1, 0], [0, 0]], dtype=complex)
    assert np.allclose(walsh_coefficients(e11), [0.5, 0.5, 0, 0])
    with pytest.raises(ValueError):
        walsh_coefficients(np.eye(3))


def test_synthesize_examples():
    assert np.allclose(walsh_synthesize([1, 0, 0, 0], 1), np.eye(2))
    assert np.allclose(walsh_synthesize([0, 0, 1, 0], 1), [[0, 1], [1, 0]])
    assert np.allclose(walsh_synthesize([1, 2, 0, 0], 1), np.diag([3, -1]))
    with pytest.raises(ValueError):
        walsh_synthesize([1, 0, 0], 1)


@given(st.integers(0, 10_000), st.sampled_from([1, 2, 3, 4, 5, 6]))
def test_round_trip_random(seed, m):
    x = random_matrix(m, seed)
    c = walsh_coefficients(x)
    assert np.max(np.abs(walsh_synthesize(c, m) - x)) < 1e-12


@given(st.integers(0, 10_000), st.sampled_from([1, 2, 3]))
def test_fast_matches_naive_gram(seed, m):
    x = random_matrix(m, seed)
    fast = walsh_coefficients(x)
    naive = walsh_coefficients_naive(x)
    assert np.max(np.abs(fast - naive)) < 1e-10


def test_coefficient_slot_is_base4_code():
    # slot n = sum q_i 4**i with q_i the per-factor generator code
    m = 3
    for n in (0, 1, 7, 22, 63):
        w = walsh_matrix(n, m)
        c = walsh_coefficients(w)
        expected = np.zeros(64)
        expected[n] = 1.0
        assert np.allclose(c, expected, atol=1e-13)
        assert sum(q * 4**i for i, q in enumerate(factor_codes(n, m))) == n


def test_block_support():
    assert block_support(0) == (1, 2)
    assert block_support(2) == (4, 8)
    assert block_support(5) == (32, 64)


@given(st.integers(0, 10_000), st.sampled_from([1, 2]), st.floats(0.1, 0.5))
def test_meanzero_system_round_trip(seed, m, alpha):
    x = random_matrix(m, seed)
    c = system_coefficients(x, alpha, MEANZERO)
    back = system_synthesize(c, m, alpha, MEANZERO)
    assert np.max(np.abs(back - x)) < 1e-11


def test_meanzero_expansion_is_basis_expansion():
    # synthesizing a coordinate vector yields the matching basis matrix
    alpha, m = 0.3, 2
    for n in (0, 1, 5, 9, 15):
        c = np.zeros(16)
        c[n] = 1.0
        mat = system_synthesize(c, m, alpha, MEANZERO)
        assert np.allclose(mat, walsh_matrix(n, m, alpha, MEANZERO), atol=1e-12)


@pytest.mark.parametrize("mode", [PAPER, MEANZERO])
def test_transforms_map_stacks(mode):
    m = 2
    xs = np.stack([random_matrix(m, 300 + k) for k in range(6)]).reshape(2, 3, 4, 4)
    c = system_coefficients(xs, 0.3, mode)
    assert c.shape == (2, 3, 16)
    for idx in np.ndindex(2, 3):
        assert np.max(np.abs(c[idx] - system_coefficients(xs[idx], 0.3, mode))) <= 1e-15
    back = system_synthesize(c, m, 0.3, mode)
    assert back.shape == xs.shape
    assert np.max(np.abs(back - xs)) <= 1e-13


@pytest.mark.parametrize("mode", [PAPER, MEANZERO])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_mask_terms_materialize_keep_coefficients(m, mode):
    # Any mask splits into disjoint digit boxes: an overlap would count a
    # coefficient twice and a gap drop one.
    rng = task_rng(8, m)
    count = 4**m
    d = 1 << m
    units = np.eye(count).reshape(count, d, d)
    for keep in [rng.random(count) < 0.5 for _ in range(4)] + [np.arange(count) <= count // 3]:
        images = keep_coefficients(units, keep, 0.3, mode).reshape(count, count).T
        assert np.max(np.abs(factor_map_matrix(mask_terms(keep, m, 0.3, mode), m) - images)) <= 1e-14
    assert mask_terms(np.zeros(count, dtype=bool), m) == []


def test_prefix_masks_split_into_at_most_m_plus_1_boxes():
    for m in (1, 2, 3, 4):
        assert max(len(mask_terms(np.arange(4**m) <= n, m)) for n in range(4**m)) <= m + 1
    assert len(mask_terms(np.ones(4**3, dtype=bool), 3)) == 1
