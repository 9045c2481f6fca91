"""Shared test utilities: seeded random matrices and small oracles."""

import numpy as np

from walshlab.classical import classical_projection, dyadic_weights
from walshlab.linalg import dagger, factor_synthesis, gaussian_matrix, schatten_norm, task_rng
from walshlab.schauder import ASCENT_TOL, MAX_ASCENT_ITER
from walshlab.states import LEFT, filtration_differences, state_diagonal, weight_scale
from walshlab.walsh import PAPER, factor_kernels, system_synthesize


# The paper-mode per-factor kernels, typed out: the analysis kernel sends a
# factor's entries (x00, x01, x10, x11) to its coefficients against
# I, diag(1, -1), the flip and the rotation; the synthesis kernel is its inverse.
PAPER_ANALYSIS_KERNEL = 0.5 * np.array(
    [
        [1, 0, 0, 1],
        [1, 0, 0, -1],
        [0, 1, 1, 0],
        [0, 1, -1, 0],
    ],
    dtype=np.complex128,
)
PAPER_SYNTHESIS_KERNEL = np.array(
    [
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [0, 0, 1, -1],
        [1, -1, 0, 0],
    ],
    dtype=np.complex128,
)


# The filtration is diagonal in the state's mean-zero basis: E_s keeps the
# meanzero coefficients below 2**(s + 1) and D_s the block of step s.
# Measured at most 5.1e-16 of max |x| for E_s and D_s, 4.5e-16 for subset
# projections and 6.7e-16 for their matrices (alpha = 1e-4, where cond(S) ~ 100).
FILTRATION_MASK_TOL = 1e-15


def random_matrix(m: int, seed: int) -> np.ndarray:
    return gaussian_matrix(1 << m, task_rng(seed))


def random_hermitian(m: int, seed: int) -> np.ndarray:
    x = random_matrix(m, seed)
    return (x + dagger(x)) / 2


def random_psd(m: int, seed: int, floor: float = 0.0) -> np.ndarray:
    x = random_matrix(m, seed)
    return x @ dagger(x) + floor * np.eye(1 << m)


def matrix_units(dim: int) -> list[np.ndarray]:
    units = []
    for r in range(dim):
        for c in range(dim):
            u = np.zeros((dim, dim), dtype=np.complex128)
            u[r, c] = 1.0
            units.append(u)
    return units


def matrix_unit_stack(dim: int) -> np.ndarray:
    """All dim**2 matrix units as a (dim**2, dim, dim) stack, row-major order."""
    return np.eye(dim * dim, dtype=np.complex128).reshape(dim * dim, dim, dim)


def probe_matrix(handle) -> np.ndarray:
    """Materialisation oracle: apply the handle to one matrix unit at a time.

    Column k is the image of matrix unit k (row-major vec convention), as in
    ``OperatorHandle.matrix``, which builds it from the mask's factor-map
    terms instead.
    """
    d2 = handle.dim * handle.dim
    cols = np.empty((d2, d2), dtype=np.complex128)
    for k, unit in enumerate(matrix_units(handle.dim)):
        cols[:, k] = handle(unit).ravel()
    return cols


def mask_product_matrix(keep, m: int, alpha: float = 0.5, mode: str = PAPER) -> np.ndarray:
    """Coefficient-mask oracle: the kept synthesis rows of the whole system, transposed, times its kept analysis rows.

    Row k of the synthesis is w_k and of the analysis a_k, both flattened, so
    column j is the synthesis of the kept coefficients of matrix unit j.  In
    paper mode every entry is dyadic (+-1, +-1/2), so the sum is exact.
    """
    count = 4**m
    synthesis = np.ascontiguousarray(system_synthesize(np.eye(count), m, alpha, mode).real).reshape(count, count)
    # a_k is the tensor product of the rows of the analysis kernel picked by the digits of k.
    analysis_rows = factor_synthesis(np.eye(count), m, [factor_kernels(alpha, mode)[0].T] * m)
    analysis = np.ascontiguousarray(analysis_rows.real).reshape(count, count)
    return (synthesis[keep].T @ analysis[keep]).astype(np.complex128)


def telescoped_subset_projection(x, steps, spec) -> np.ndarray:
    """Subset-projection oracle: E_-1 x (for step -1) plus D_s x for the other
    steps, the differences taken from the telescoped filtration
    (``states.filtration_differences``), not from a coefficient mask."""
    steps = sorted(set(steps))
    mean_part, diff_parts = filtration_differences(x, -1, max(steps, default=-1), spec)
    out = np.zeros_like(mean_part)
    for s in steps:
        out += mean_part if s == -1 else diff_parts[s]
    return out


def factor_map_oracle(x: np.ndarray, maps: dict, m: int) -> np.ndarray:
    """Independent factor-map reference on one matrix, in the (2,)*2m bit layout.

    Axis j is the row bit and axis m + j the column bit of factor j; a 4x4 map
    indexed (2*row bit + col bit) is a (2, 2, 2, 2) tensor on that axis pair.
    """
    t = np.asarray(x, dtype=np.complex128).reshape((2,) * (2 * m))
    for j, k4 in maps.items():
        k = np.asarray(k4, dtype=np.complex128).reshape(2, 2, 2, 2)
        t = np.moveaxis(np.tensordot(k, t, axes=([2, 3], [j, m + j])), [0, 1], [j, m + j])
    return t.reshape(1 << m, 1 << m)


def sequential_ascent(mats, draw, norm_of, norm_gradient, dual_gradient, restarts, seeds):
    """Ascent oracle: ``schauder.multistart_ascent`` climbing one cell and one restart at a time.

    Takes the same matrices, row-block callbacks and seeds and returns the
    same (best, converged) per cell; every restart of every cell runs its own
    dual power iteration on one vector.
    """
    return [
        _sequential_cell(mat, draw, norm_of, norm_gradient, dual_gradient, restarts, seed)
        for mat, seed in zip(mats, seeds)
    ]


def _sequential_cell(mat, draw, norm_of, norm_gradient, dual_gradient, restarts, seed):
    def one(fn, v):
        return fn(v[np.newaxis])[0]

    adj = mat.conj().T
    best = 0.0
    best_converged = False
    for r in range(restarts):
        x = draw(task_rng(seed, r))
        nx = float(one(norm_of, x))
        if nx == 0.0:
            continue
        x = x / nx
        value = float(one(norm_of, mat @ x))
        converged = False
        quiet = 0
        for _ in range(MAX_ASCENT_ITER):
            cand = one(dual_gradient, adj @ one(norm_gradient, mat @ x))
            cv = float(one(norm_of, mat @ cand))
            rel = 0.0
            if cv > value:
                rel = (cv - value) / max(value, 1e-300)
                x, value = cand, cv
            quiet = quiet + 1 if rel < ASCENT_TOL else 0
            if quiet >= 5:
                converged = True
                break
        if value > best:
            best, best_converged = value, converged
    return best, best_converged


def biased_digits(n: int, m: int, mode: str) -> int:
    """k(n) of the p = 2 digit rule ||P_n||_2 = kappa**k(n): the factors i whose bit 2i
    is biased while bits 0..2i of n are not all 1.

    Every bit 2i is biased in paper mode; in meanzero mode only when bit 2i + 1 is set.
    """
    count = 0
    for i in range(m):
        low = (1 << (2 * i + 1)) - 1
        biased = mode == PAPER or (n >> (2 * i + 1)) & 1
        count += bool(biased) and n & low != low
    return count


def dense_top_value(mat: np.ndarray, root: np.ndarray) -> float:
    """Dense p = 2 oracle: top singular value of the whole similarity diag(root) mat diag(root)^-1.

    Takes the top eigenvalue of its N x N Gram matrix (``schatten_norm`` at
    p = inf), O(N**3); the engines compress it to r rows first.
    """
    return schatten_norm((root[:, np.newaxis] * mat) / root[np.newaxis, :], np.inf)


def dense_exact_norm_p2(handle, spec, side=LEFT) -> float:
    """``schauder.exact_norm_p2`` on the dense similarity of the handle's matrix."""
    d = handle.dim
    root = np.broadcast_to(weight_scale(state_diagonal(spec), 2.0, side), (d, d)).ravel()
    return dense_top_value(handle.matrix(), root)


def dense_classical_norm_exact2(n: int, level: int, alpha: float) -> float:
    """``classical.classical_norm_exact2`` on the dense similarity of the projection."""
    root = weight_scale(dyadic_weights(level, alpha), 2.0, LEFT).ravel()
    return dense_top_value(classical_projection(n, level), root)
