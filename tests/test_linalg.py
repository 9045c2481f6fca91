import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import factor_map_oracle, random_matrix, random_psd
from walshlab.linalg import (
    _openblas,
    apply_factor_maps,
    dagger,
    factor_map_matrix,
    gaussian_matrix,
    gns_inner,
    kron,
    level_of_dim,
    matrix_from_json,
    matrix_to_json,
    schatten_norm,
    singular_values,
    task_gaussian_stack,
    task_rng,
)
from walshlab.states import StateSpec, state_diagonal
from walshlab.walsh import walsh_matrix

I2 = np.eye(2)


def test_kron_identity_cases():
    assert np.array_equal(kron(I2, I2), np.eye(4))
    assert np.array_equal(kron(np.diag([1, -1]), I2), np.diag([1, 1, -1, -1]))


def test_kron_diagonal_expansion():
    # direct 4x4 expansion of diag(1,-1) (x) diag(1,-1)
    expected = np.diag([1.0, -1.0, -1.0, 1.0])
    assert np.array_equal(kron(np.diag([1, -1]), np.diag([1, -1])), expected)


def test_kron_rejects_oversized_output():
    big = np.eye(512)
    with pytest.raises(ValueError):
        kron(big, big)


def test_dagger_examples():
    assert np.array_equal(dagger(np.eye(3)), np.eye(3))
    assert np.array_equal(dagger([[0, 1], [-1, 0]]), [[0, -1], [1, 0]])
    assert np.array_equal(dagger([[0, 1j], [0, 0]]), [[0, 0], [-1j, 0]])


@given(st.integers(0, 10_000))
def test_dagger_involution(seed):
    x = random_matrix(2, seed)
    assert np.array_equal(dagger(dagger(x)), x)


def test_schatten_examples():
    assert abs(schatten_norm(np.diag([3, 4]), 1) - 7) < 1e-12
    assert abs(schatten_norm(np.diag([3, 4]), 2) - 5) < 1e-12
    nilpotent = np.array([[0, 1], [0, 0]])
    for p in (1, 1.5, 2, 3, np.inf):
        assert abs(schatten_norm(nilpotent, p) - 1) < 1e-12


def test_schatten_stays_finite_at_large_p():
    # s**p alone underflows to 0 (1e-360) or overflows to inf (1e400) here.
    small = schatten_norm(1e-3 * np.eye(4), 120)
    large = schatten_norm(10 * np.eye(4), 400)
    assert abs(small - 1e-3 * 4 ** (1 / 120)) <= 1e-15 * small
    assert abs(large - 10 * 4 ** (1 / 400)) <= 1e-15 * large
    stacked = schatten_norm(np.stack([1e-3 * np.eye(4), 10 * np.eye(4), np.zeros((4, 4))]), 400)
    assert np.all(np.isfinite(stacked)) and stacked[2] == 0.0


def test_schatten_rejects_small_exponent():
    with pytest.raises(ValueError):
        schatten_norm(np.eye(2), 0.5)


@given(st.integers(0, 10_000), st.sampled_from([1, 2, 3]))
def test_schatten_frobenius_identity(seed, m):
    x = random_matrix(m, seed)
    dim = 1 << m
    frob = np.sum(np.abs(x) ** 2)
    assert abs(schatten_norm(x, 2) ** 2 - frob) <= 1e-10 * dim * dim


@given(st.integers(0, 10_000), st.integers(0, 63), st.sampled_from([1, 1.5, 2, 3, np.inf]))
def test_schatten_left_unitary_invariance(seed, n, p):
    x = random_matrix(3, seed)
    u = walsh_matrix(n, 3)
    assert abs(schatten_norm(u @ x, p) - schatten_norm(x, p)) <= 1e-10


@given(st.integers(0, 10_000))
def test_kron_mixed_product(seed):
    a, b = random_matrix(1, seed), random_matrix(2, seed + 1)
    c, d = random_matrix(1, seed + 2), random_matrix(2, seed + 3)
    assert np.max(np.abs(kron(a, b) @ kron(c, d) - kron(a @ c, b @ d))) < 1e-12


def test_kron_associative():
    # exact on sign-matrix entries, where the products are representable
    for na, nb, nc in ((1, 2, 3), (3, 1, 2), (2, 2, 1)):
        a, b, c = (walsh_matrix(n, 1) for n in (na, nb, nc))
        assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))
    a, b, c = random_matrix(1, 5), random_matrix(1, 6), random_matrix(1, 7)
    assert np.max(np.abs(kron(kron(a, b), c) - kron(a, kron(b, c)))) < 1e-14


def test_gns_inner_examples():
    a1 = np.diag([0.3, 0.7])
    assert abs(gns_inner(np.eye(2), np.eye(2), a1) - 1) < 1e-14
    assert abs(gns_inner(np.eye(2), np.diag([1, -1]), a1) - (-0.4)) < 1e-14
    for alpha in (0.5, 0.3, 0.1):
        a = np.diag([alpha, 1 - alpha])
        val = gns_inner(np.diag([1, -1]), [[0, 1], [1, 0]], a)
        assert abs(val) < 1e-14


def test_gns_inner_contract():
    a = random_psd(2, 9)
    x, y = random_matrix(2, 10), random_matrix(2, 11)
    assert abs(gns_inner(x, y, a) - np.conj(gns_inner(y, x, a))) < 1e-12
    assert gns_inner(x, x, a).real > -1e-12
    with pytest.raises(ValueError):
        gns_inner(np.eye(2), np.eye(4), np.eye(4))


def test_singular_values_descending():
    s = singular_values(random_matrix(3, 21))
    assert np.all(np.diff(s) <= 1e-12)


def test_level_of_dim():
    assert level_of_dim(8) == 3
    with pytest.raises(ValueError):
        level_of_dim(6)


@given(st.integers(0, 10_000), st.sampled_from([1, 2, 3]))
def test_matrix_json_round_trip_bit_identical(seed, m):
    x = random_matrix(m, seed)
    payload = json.dumps(matrix_to_json(x))
    back = matrix_from_json(json.loads(payload))
    assert np.array_equal(back, x)


def test_singular_values_of_weighted_walsh_matrix():
    spec = StateSpec(0.02, 6)
    w = state_diagonal(spec)
    expected = np.sort(w)[::-1]
    for n in (1, 6, 77, 4095):
        s = singular_values(walsh_matrix(n, 6) * w[None, :])
        assert np.max(np.abs(s - expected) / expected) <= 1e-12, n


def test_singular_values_keep_small_values_of_column_scaled_unitary():
    # x = H diag(w) with H a real orthogonal Hadamard matrix: the singular
    # values are w, down to 6.4e-11.  Through the eigenvalues of x*x every
    # value below about 1e-8 came back as 0.
    w = state_diagonal(StateSpec(0.02, 6))
    h = np.array([[1.0]])
    for _ in range(6):
        h = np.kron(h, np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
    s = singular_values(h * w[None, :])
    expected = np.sort(w)[::-1]
    assert np.max(np.abs(s - expected) / expected) <= 1e-7


GRAM_PS = (2.0, 2.5, 3.0, 4.0, 7.0, 120.0, np.inf)


def _svd_power_sum(x, p):
    """Oracle: the Schatten norm from the SVD singular values, top factored out."""
    s = np.linalg.svd(x, compute_uv=False)
    if np.isinf(p):
        return s[..., 0]
    top = np.maximum(s[..., :1], np.finfo(float).tiny)
    return top[..., 0] * ((s / top) ** p).sum(axis=-1) ** (1.0 / p)


def _hadamard(m):
    h = np.array([[1.0]])
    for _ in range(m):
        h = np.kron(h, np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
    return h


@pytest.mark.parametrize("p", GRAM_PS)
def test_gram_schatten_norms_match_svd_oracle(p):
    # At p >= 2 the norm comes from the Gram matrix x* x, not from the SVD.
    rng = np.random.default_rng(7)
    for d, batch in ((2, (3,)), (4, (2, 5)), (8, (6,)), (64, (2,))):
        xs = rng.standard_normal(batch + (d, d)) + 1j * rng.standard_normal(batch + (d, d))
        xs *= np.exp(rng.uniform(-3, 3, batch))[..., None, None]
        got, want = schatten_norm(xs, p), _svd_power_sum(xs, p)
        assert got.shape == batch
        assert np.max(np.abs(got - want) / want) <= 1e-14, d
    # Singular values w down to 6.4e-11: the sum at p >= 2 is exact to rounding.
    w = state_diagonal(StateSpec(0.02, 6))
    for x in (_hadamard(6) * w[None, :], w[:, None] * _hadamard(6)):
        want = np.max(w) if np.isinf(p) else np.sum(w**p) ** (1 / p)
        assert abs(schatten_norm(x, p) - want) <= 1e-14 * want
    assert schatten_norm(np.zeros((4, 4)), p) == 0.0
    zero_inside = schatten_norm(np.stack([np.zeros((4, 4)), np.eye(4)]), p)
    assert zero_inside[0] == 0.0 and abs(zero_inside[1] - _svd_power_sum(np.eye(4), p)) <= 1e-15 * 4
    # Far outside the float range of |G_ij|**2 (G_ij = 1e-200 or 1e200).
    for c in (1e-100, 1e100, 1e-300, 1e300):
        want = c * (1.0 if np.isinf(p) else 4 ** (1 / p))
        if p == 2 and c in (1e-300, 1e300):
            continue  # the Frobenius sum squares x itself, as the SVD's s**2 did
        got = schatten_norm(c * np.eye(4), p)
        assert np.isfinite(got) and abs(got - want) <= 1e-15 * want, c


@pytest.mark.parametrize("p", [1.0, 1.5, 1.99])
def test_schatten_below_two_keeps_the_svd(p):
    x = random_matrix(3, 77)
    s = singular_values(x)
    want = s.sum() if p == 1 else s[0] * ((s / s[0]) ** p).sum() ** (1 / p)
    assert schatten_norm(x, p) == want


def _random_maps(rng, m):
    factors = rng.choice(m, size=rng.integers(1, m + 1), replace=False)
    return {int(j): rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for j in factors}


@pytest.mark.parametrize("m", range(1, 9))
def test_apply_factor_maps_stack_equals_per_matrix_loop(m):
    rng = np.random.default_rng(100 + m)
    batch = (2, 3) if m <= 5 else (2,)
    d = 1 << m
    xs = rng.standard_normal(batch + (d, d)) + 1j * rng.standard_normal(batch + (d, d))
    for _ in range(3):
        maps = _random_maps(rng, m)
        stacked = apply_factor_maps(xs, maps)
        assert stacked.shape == xs.shape
        flat = xs.reshape(-1, d, d)
        loop = np.stack([apply_factor_maps(x, maps) for x in flat]).reshape(xs.shape)
        scale = np.max(np.abs(loop))
        assert np.max(np.abs(stacked - loop)) <= 1e-15 * scale
        if m <= 4:
            oracle = np.stack([factor_map_oracle(x, maps, m) for x in flat]).reshape(xs.shape)
            assert np.max(np.abs(stacked - oracle)) <= 1e-13 * scale


def test_apply_factor_maps_rejects_bad_input():
    with pytest.raises(ValueError):
        apply_factor_maps(np.eye(4), {2: np.eye(4)})
    with pytest.raises(ValueError):
        apply_factor_maps(np.zeros((3, 4, 2)), {0: np.eye(4)})


@pytest.mark.parametrize("d", [2, 4, 8, 16])
@pytest.mark.parametrize("seed", [0, 17, 2**40, -3])
@pytest.mark.parametrize("count", [0, 1, 257])
def test_task_gaussian_stack_equals_per_task_draws_bit_for_bit(d, seed, count):
    # One re-keyed generator gives the numbers of one fresh task_rng per draw.
    stack = task_gaussian_stack(d, seed, count)
    loop = [gaussian_matrix(d, task_rng(seed, k)) for k in range(count)]
    oracle = np.stack(loop) if loop else np.empty((0, d, d), dtype=np.complex128)
    assert stack.shape == oracle.shape and stack.dtype == oracle.dtype
    assert np.array_equal(stack, oracle)
    assert stack.tobytes() == oracle.tobytes()


def test_task_gaussian_stack_from_a_start_continues_the_draws():
    whole = task_gaussian_stack(4, 11, 12)
    assert task_gaussian_stack(4, 11, 5, start=7).tobytes() == whole[7:].tobytes()
    assert task_gaussian_stack(4, 11, 0, start=3).shape == (0, 4, 4)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_factor_map_matrix_acts_as_its_factor_maps(m):
    # Column k is the image of matrix unit k under sum_t c_t apply_factor_maps(., maps_t).
    rng = task_rng(5, m)
    terms = [(c, [rng.standard_normal((4, 4)) for _ in range(m)]) for c in (1.0, -0.5, 3.0)]
    d = 1 << m
    units = np.eye(d * d).reshape(d * d, d, d)
    images = sum(c * apply_factor_maps(units, dict(enumerate(maps))) for c, maps in terms)
    mat = factor_map_matrix(terms, m)
    assert mat.dtype == np.complex128 and mat.shape == (d * d, d * d)
    assert np.max(np.abs(mat - images.reshape(d * d, d * d).T)) <= 1e-12
    x = random_matrix(m, 40 + m)
    image = sum(c * factor_map_oracle(x, dict(enumerate(maps)), m) for c, maps in terms)
    assert np.max(np.abs((mat @ x.ravel()).reshape(d, d) - image)) <= 1e-12
    assert np.array_equal(factor_map_matrix([], m), np.zeros((d * d, d * d)))


def test_importing_walshlab_leaves_blas_threads_alone():
    # Only cli.run_command pins OpenBLAS to one thread; a library user keeps
    # the count the environment gave.
    if _openblas()[1] is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS runs at most one thread here")
    code = (
        "import walshlab.cli, walshlab.classical, walshlab.tensor\n"
        "from walshlab.linalg import _openblas\n"
        "print(_openblas()[1][1]())"
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "2"
