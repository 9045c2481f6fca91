"""Shared test utilities: seeded random matrices and small oracles."""

import numpy as np

from walshlab.classical import classical_projection, dyadic_weights
from walshlab.linalg import dagger, gaussian_matrix, schatten_norm, task_rng
from walshlab.schauder import ASCENT_TOL, MAX_ASCENT_ITER
from walshlab.states import LEFT, state_diagonal, weight_scale


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


def probe_matrix(handle) -> np.ndarray:
    """Materialisation oracle: apply the handle to one matrix unit at a time.

    Column k is the image of matrix unit k (row-major vec convention), as in
    ``OperatorHandle.matrix``, which maps all units in one stacked call.
    """
    d2 = handle.dim * handle.dim
    cols = np.empty((d2, d2), dtype=np.complex128)
    for k, unit in enumerate(matrix_units(handle.dim)):
        cols[:, k] = handle(unit).ravel()
    return cols


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


def sequential_ascent(mats, draw, norm_of, norm_gradient, restarts, seeds):
    """Ascent oracle: ``schauder.multistart_ascent`` climbing one cell and one restart at a time.

    Takes the same matrices, row-block callbacks and seeds and returns the
    same (best, converged) per cell; every restart of every cell runs its own
    loop on one vector.
    """
    return [
        _sequential_cell(mat, draw, norm_of, norm_gradient, restarts, seed)
        for mat, seed in zip(mats, seeds)
    ]


def _sequential_cell(mat, draw, norm_of, norm_gradient, restarts, seed):
    def norm(v):
        return float(norm_of(v[np.newaxis])[0])

    def gradient(v):
        return norm_gradient(v[np.newaxis])[0]

    adj = mat.conj().T
    best = 0.0
    best_converged = False
    for r in range(restarts):
        x = draw(task_rng(seed, r))
        nx = norm(x)
        if nx == 0.0:
            continue
        x = x / nx
        value = norm(mat @ x)
        converged = False
        step = 1.0
        quiet = 0
        for _ in range(MAX_ASCENT_ITER):
            g = adj @ gradient(mat @ x) - value * gradient(x)
            gn = np.linalg.norm(g)
            if gn < 1e-300:
                converged = True
                break
            g = g / gn
            rel = 0.0
            trial = step
            while trial > 1e-12:
                cand = x + trial * g
                cn = norm(cand)
                if cn > 0:
                    cand = cand / cn
                    cv = norm(mat @ cand)
                    if cv > value:
                        rel = (cv - value) / max(value, 1e-300)
                        x, value = cand, cv
                        step = min(trial * 2.0, 1.0)
                        break
                trial *= 0.5
            else:
                step = 1.0
            quiet = quiet + 1 if rel < ASCENT_TOL else 0
            if quiet >= 5:
                converged = True
                break
        if value > best:
            best, best_converged = value, converged
    return best, best_converged


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
