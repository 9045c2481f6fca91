"""Commutative picture: the biased dyadic measure, step functions, the
diagonal Walsh subsequence, and the exact match between diagonal-matrix
norms and weighted function-space norms.

A step function at level L is constant on the 2**L dyadic intervals of
[0, 1); interval k is addressed by the binary digits of k read most
significant first, so digit i of k plays the role of tensor factor i.  Sign
changes at scale 2**-(i+1) are driven by digit i of the series index, which
shifts the classical index-to-frequency convention by one so that the
first factor is not degenerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, compressed_top_value, level_of_dim
from .schauder import multistart_ascent
from .states import LEFT, StateSpec, state_diagonal, weight_scale
from .walsh import mean_zero_block

MAX_STEP_LEVEL = 8


@dataclass(frozen=True)
class StepFunction:
    """Complex values on the 2**level dyadic intervals, left to right."""

    level: int
    values: np.ndarray

    def __post_init__(self):
        if not 1 <= self.level <= MAX_STEP_LEVEL:
            raise ValueError(f"level must lie in [1, {MAX_STEP_LEVEL}], got {self.level}")
        values = np.asarray(self.values, dtype=np.complex128)
        if values.shape != (1 << self.level,):
            raise ValueError(
                f"expected {1 << self.level} interval values, got shape {values.shape}"
            )
        object.__setattr__(self, "values", values)


def mu_weight(k: int, level: int, alpha: float) -> float:
    """Mass of the k-th dyadic interval under the product-Bernoulli measure."""
    if not 0 <= k < (1 << level):
        raise ValueError(f"interval index {k} out of range for level {level}")
    if not 0.0 < alpha <= 0.5:
        raise ValueError(f"bias must lie in (0, 1/2], got {alpha}")
    out = 1.0
    for i in range(level):
        bit = (k >> (level - 1 - i)) & 1
        out *= (1 - alpha) if bit else alpha
    return out


def dyadic_weights(level: int, alpha: float) -> np.ndarray:
    """All interval masses at one level (the diagonal of the product density)."""
    return state_diagonal(StateSpec(alpha, level))


def _walsh_functions(ns, level: int, alpha: float = 0.5) -> np.ndarray:
    """Walsh functions, one column per index in ``ns``: entry (k, n) is the
    product of the digits r_i(k) = 1 - 2 * bit_{level-1-i}(k) over the set
    bits i of n, each digit normalized for the alpha-biased measure,
    (r_i - (2 alpha - 1)) / (2 sqrt(alpha (1 - alpha))).

    A normalized digit is sqrt((1-alpha)/alpha) where r_i = 1 and
    -sqrt(alpha/(1-alpha)) where r_i = -1, the diagonal of
    ``walsh.mean_zero_block``; at alpha = 1/2 both are exactly +-1, so the
    columns are the classical +-1 Walsh functions.  Other biases give
    functions orthonormal under the dyadic weights.
    """
    plus, minus = np.diagonal(mean_zero_block(alpha)).real
    ks = np.arange(1 << level)[:, None]
    ns = np.asarray(ns)[None, :]
    values = np.ones((ks.shape[0], ns.shape[1]), dtype=np.complex128)
    for i in range(level):
        digit = np.where((ks >> (level - 1 - i)) & 1, minus, plus)
        np.multiply(values, digit, out=values, where=((ns >> i) & 1).astype(bool))
    return values


def classical_walsh_values(n: int, level: int) -> StepFunction:
    """Values of the n-th classical Walsh function on the level's intervals."""
    if not 0 <= n < (1 << level):
        raise ValueError(f"series index {n} out of range for level {level}")
    return StepFunction(level=level, values=_walsh_functions([n], level)[:, 0])


def diag_to_step(x) -> StepFunction:
    """Read a diagonal matrix as a step function (row index = interval index)."""
    x = as_matrix(x)
    m = level_of_dim(x.shape[0])
    off = x - np.diag(np.diag(x))
    worst = np.max(np.abs(off)) if off.size else 0.0
    if worst > 1e-12:
        raise ValueError(f"matrix is not diagonal (off-diagonal magnitude {worst:.3e})")
    return StepFunction(level=m, values=np.diag(x).copy())


def _weighted_vector_norm(v: np.ndarray, weights: np.ndarray, p: float):
    """(sum |v_k|**p w_k)**(1/p) along the last axis; p = inf gives max |v_k|.

    Taken as top * (sum (|v_k|/top)**p w_k)**(1/p) with top = max |v_k|, so
    that the powers stay in float range at large p.  A float for one vector,
    an array of shape (...) for rows of shape (..., k).
    """
    mags = np.abs(v)
    top = mags.max(axis=-1)
    if not math.isinf(p):
        top = top * ((mags / np.where(top > 0, top, 1.0)[..., np.newaxis]) ** p @ weights) ** (1.0 / p)
    return float(top) if top.ndim == 0 else top


def _weighted_vector_gradient(v: np.ndarray, weights: np.ndarray, p: float) -> np.ndarray:
    """Gradient of _weighted_vector_norm along the last axis, for p < inf; zero for a zero vector.

    weights * (|v| / value)**(p-1) times the phase v / |v|, with max |v| factored
    out of both: no negative power of |v|, so entries near 1e-310 stay finite.
    """
    mags = np.abs(v)
    top = mags.max(axis=-1, keepdims=True)
    live = top > 0.0
    ratios = mags / np.where(live, top, 1.0)
    rel_value = np.where(live, (ratios**p @ weights)[..., np.newaxis], 1.0) ** (1.0 / p)
    # The phase part by part: a complex division by a subnormal |v| overflows.
    safe = np.where(mags > 0, mags, 1.0)
    return weights * (ratios / rel_value) ** (p - 1.0) * (v.real / safe + 1j * (v.imag / safe))


def step_lp_norm(f: StepFunction, p: float, alpha: float) -> float:
    """Weighted L^p norm of a step function; p = inf gives the sup of |f|."""
    if p < 1:
        raise ValueError(f"norm exponent must satisfy p >= 1, got {p}")
    return _weighted_vector_norm(f.values, dyadic_weights(f.level, alpha), p)


def diag_index_map(n: int) -> int:
    """Spread the bits of n onto the even binary positions."""
    if n < 0:
        raise ValueError("index must be non-negative")
    out = 0
    i = 0
    while n:
        if n & 1:
            out |= 1 << (2 * i)
        n >>= 1
        i += 1
    return out


def classical_basis_matrix(level: int) -> np.ndarray:
    """Columns are the classical Walsh functions 0..2**level-1 (a +-1 matrix)."""
    return _walsh_functions(np.arange(1 << level), level)


def classical_projection(n: int, level: int) -> np.ndarray:
    """Matrix of the classical partial-sum projection onto Walsh functions 0..n.

    The basis columns are orthogonal +-1 vectors, so the inverse of the basis
    matrix is its transpose over 2**level and every entry is exact.
    """
    if not 0 <= n < (1 << level):
        raise ValueError(f"partial-sum index {n} out of range for level {level}")
    kept = _walsh_functions(np.arange(n + 1), level)
    return kept @ kept.T / 2**level


def classical_norm_exact2(n: int, level: int, alpha: float) -> float:
    """Exact weighted-L^2 norm of the classical partial-sum projection.

    Its range is spanned by Walsh functions 0..n, and so by the first n + 1
    functions orthonormalized for the biased measure, which give the r = n + 1
    rows of ``linalg.compressed_top_value``.
    """
    # A step function is a diagonal matrix: interval k carries the weight of column k.
    root = weight_scale(dyadic_weights(level, alpha), 2.0, LEFT).ravel()
    basis = _walsh_functions(np.arange(n + 1), level, alpha).T
    return compressed_top_value(classical_projection(n, level), root, basis)


def classical_norm_estimate(
    n: int,
    level: int,
    alpha: float,
    p: float,
    restarts: int = 32,
    seed: int = 0,
) -> tuple[float, bool]:
    """Lower-bound estimate of the weighted-L^p norm of the classical projection.

    The one-cell case of ``classical_norm_estimates``: exact at p = 1 and
    p = inf, a ``schauder.multistart_ascent`` on the interval-value vectors
    otherwise.
    """
    return classical_norm_estimates([n], level, alpha, p, restarts, [seed])[0]


def classical_norm_estimates(ns, level: int, alpha: float, p: float, restarts: int, seeds) -> list[tuple[float, bool]]:
    """``classical_norm_estimate`` of each index of ``ns``, index ns[c] from ``seeds[c]``.

    At p = inf the weighted norm is max |v_k| and at p = 1 it is
    sum_k w_k |v_k|, so the operator norms are exact in closed form,
    max_i sum_j |P_ij| and max_j sum_i w_i |P_ij| / w_j, and come back
    converged.  At any other p every cell climbs by the dual power iteration
    of ``schauder.multistart_ascent``, in its lockstep blocks, so each
    estimate is the one the cell gets alone.
    """
    if p < 1:
        raise ValueError(f"norm exponent must satisfy p >= 1, got {p}")
    weights = dyadic_weights(level, alpha)
    if math.isinf(p):
        return [(float(np.abs(classical_projection(n, level)).sum(axis=1).max()), True) for n in ns]
    if p == 1:
        return [(float(((weights @ np.abs(classical_projection(n, level))) / weights).max()), True) for n in ns]
    dim = 1 << level
    # The dual norm is ||v / scale||_q, 1/p + 1/q = 1 (as weights**(1 - q) it overflows as p -> 1).
    scale, unit, q = weights ** (1.0 / p), np.ones(dim), p / (p - 1.0)

    def draw(rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)

    return multistart_ascent(
        (classical_projection(n, level) for n in ns),
        draw,
        lambda v: _weighted_vector_norm(v, weights, p),
        lambda v: _weighted_vector_gradient(v, weights, p),
        lambda v: _weighted_vector_gradient(v / scale, unit, q) / scale,
        restarts,
        seeds,
    )
