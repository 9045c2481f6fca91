"""Shared test utilities: seeded random matrices and small oracles."""

import numpy as np

from walshlab.linalg import dagger, gaussian_matrix, task_rng


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
