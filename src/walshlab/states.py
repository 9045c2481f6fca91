"""Biased product states, weighted L^p norms, modular flow, the
state-preserving conditional-expectation filtration with its martingale
differences, and the Walsh basis orthonormalized for a state's weighted p = 2
inner product, on which the exact p = 2 norms are taken.

The filtration step s runs over [-1, 2m-1].  Step 2t-1 keeps the first t
tensor factors in full; step 2t additionally admits the diagonal of factor t.
The state-preserving expectation onto step s therefore slices every factor
beyond the kept range with that factor's state and, at even s, pinches
factor s/2 to its diagonal.

A state is its per-factor bias list: factor j has density
diag(b_j, 1 - b_j).  Everything here reads a state only through ``m``,
``dim`` and ``biases``, so a ``tensor.TensorContext`` (two blocks of factors
with their own biases) is a state as much as a ``StateSpec`` is.

``rho_value``, ``cond_expect``, ``mart_diff`` and ``filtration_differences``
act on one matrix or on a stack of shape (..., 2**m, 2**m), matrix by matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    MAX_LEVEL,
    apply_factor_maps,
    as_matrix,
    as_stack,
    schatten_norm,
)
from .walsh import GEN_FLIP, GEN_IDENTITY, mean_zero_block

LEFT = "left"
RIGHT = "right"
SIDES = (LEFT, RIGHT)

PINCH_KERNEL = np.diag([1.0, 0.0, 0.0, 1.0]).astype(np.complex128)


@dataclass(frozen=True)
class StateSpec:
    """Bias alpha in (0, 1/2] and ambient level m (dimension 2**m)."""

    alpha: float
    m: int

    def __post_init__(self):
        if not 0.0 < self.alpha <= 0.5:
            raise ValueError(f"bias must lie in (0, 1/2], got {self.alpha}")
        if not 1 <= self.m <= MAX_LEVEL:
            raise ValueError(f"level must lie in [1, {MAX_LEVEL}], got {self.m}")

    @property
    def dim(self) -> int:
        return 1 << self.m

    @property
    def lam(self) -> float:
        """Modular spectrum parameter alpha / (1 - alpha)."""
        return self.alpha / (1.0 - self.alpha)

    @property
    def biases(self) -> tuple[float, ...]:
        """Bias of each tensor factor, factor 0 first."""
        return (self.alpha,) * self.m


@dataclass(frozen=True)
class LpContext:
    """Exponent p in [1, inf], state (a StateSpec or a TensorContext), and injection side."""

    p: float
    state: StateSpec
    side: str = LEFT

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"norm exponent must satisfy p >= 1, got {self.p}")
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}, got {self.side!r}")


def slice_kernel(alpha: float) -> np.ndarray:
    """4x4 factor map replacing a 2x2 block y by Tr(y diag(a, 1-a)) * I."""
    a = float(alpha)
    return np.array(
        [
            [a, 0, 0, 1 - a],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [a, 0, 0, 1 - a],
        ],
        dtype=np.complex128,
    )


def state_diagonal(spec: StateSpec) -> np.ndarray:
    """Diagonal of the product density, factor-0 bit most significant."""
    first, *rest = spec.biases
    diag = np.array([first, 1.0 - first])
    for b in rest:
        diag = np.multiply.outer(diag, (b, 1.0 - b)).ravel()
    return diag


def state_density(spec: StateSpec) -> np.ndarray:
    """Product density matrix diag(alpha, 1-alpha)**(tensor m)."""
    return np.diag(state_diagonal(spec)).astype(np.complex128)


def _check_dim(x: np.ndarray, spec: StateSpec) -> None:
    if x.shape[-1] != spec.dim:
        raise ValueError(f"matrix dimension {x.shape[-1]} does not match level m={spec.m}")


def rho_value(x, spec: StateSpec):
    """State value Tr(x A): a complex scalar for one matrix, shape (...) for a stack."""
    x = as_stack(x)
    _check_dim(x, spec)
    return np.diagonal(x, axis1=-2, axis2=-1) @ state_diagonal(spec)


def weight_scale(weights, p: float, side: str = LEFT) -> np.ndarray:
    """Factor that applies the density's weight for a weighted p-norm by broadcasting.

    ``weights`` is the diagonal of the density A.  Left side: A^(1/p) as a
    row, scaling columns; right side: as a column, scaling rows.  At p = inf
    the weight is 1.  This is the one place the scaling rule lives.
    """
    if p < 1:
        raise ValueError(f"norm exponent must satisfy p >= 1, got {p}")
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    w = np.asarray(weights, dtype=np.float64)
    w = np.ones_like(w) if math.isinf(p) else w ** (1.0 / p)
    return w[np.newaxis, :] if side == LEFT else w[:, np.newaxis]


def batched_weighted_lp_norm(xs, weights: np.ndarray, p: float, side: str = LEFT) -> np.ndarray:
    """Tr(|x A^(1/p)|^p)^(1/p) (left) or the mirrored right version, matrix by matrix.

    ``weights`` is the diagonal of the density A; p = inf gives the plain
    operator norm for both sides.  Always an ndarray: shape () for one
    matrix, (...) for a (..., d, d) stack.
    """
    return np.asarray(schatten_norm(as_stack(xs) * weight_scale(weights, p, side), p))


def weighted_lp_norm(x, weights: np.ndarray, p: float, side: str = LEFT) -> float:
    """batched_weighted_lp_norm of one matrix, as a float."""
    return float(batched_weighted_lp_norm(as_matrix(x), weights, p, side))


def weighted_lp_gradient(x, weights: np.ndarray, p: float, side: str = LEFT) -> np.ndarray:
    """Euclidean gradient of weighted_lp_norm, matrix by matrix on a (..., d, d) stack.

    The Schatten subgradient of the scaled matrix, scaled back.  Singular
    modes below 1e-14 of the top one are omitted, so the norm value inside is
    taken over the kept modes; at p = inf it is u1 v1*, the subgradient of
    the top singular pair.
    The mode weights (s / value)**(p-1) are formed from s / s[0], which keeps
    them in float range at large p.  A zero matrix has a zero gradient.
    """
    scale = weight_scale(weights, p, side)
    scaled = as_stack(x) * scale
    u, s, vh = np.linalg.svd(scaled, full_matrices=False)
    top = s[..., :1]
    live = top > 0.0
    if math.isinf(p):
        grad = u[..., :, :1] * vh[..., :1, :]
    else:
        keep = s > top * 1e-14
        ratios = np.where(keep, s / np.where(live, top, 1.0), 0.0)
        root = np.where(live, (ratios**p).sum(axis=-1, keepdims=True), 1.0) ** (1.0 / p)
        coeff = np.where(keep, (ratios / root) ** (p - 1.0), 0.0)
        grad = (u * coeff[..., np.newaxis, :]) @ vh
    return np.where(live[..., np.newaxis], grad, 0.0) * scale


def weighted_lp_dual_gradient(y, weights: np.ndarray, p: float, side: str = LEFT) -> np.ndarray:
    """Euclidean gradient of the dual norm of weighted_lp_norm, matrix by matrix.

    Under Re Tr(x* y) the dual of ||x S||_p (S the ``weight_scale`` factor) is
    ||y / S||_q, 1/p + 1/q = 1, so this is the unit-weight gradient at q of
    y / S, divided by S: of weighted p-norm 1 (0 for a zero matrix), paired
    with y to its dual norm."""
    scale = weight_scale(weights, p, side)
    q = math.inf if p == 1 else 1.0 if math.isinf(p) else p / (p - 1.0)
    return weighted_lp_gradient(as_stack(y) / scale, np.ones(np.shape(weights)), q, side) / scale


def orthonormal_kernel(bias: float, side: str = LEFT) -> np.ndarray:
    """Synthesis kernel of one factor's generators, orthonormalized under diag(b, 1-b).

    Gram-Schmidt of I, diag(1, -1), the flip and the rotation, in that order,
    for the factor's inner product Tr(x* y D) (left) or Tr(x* D y) (right),
    comes out in closed form with no cancellation; with r = sqrt((1-b)/b) and
    q = sqrt(b/(1-b)) it is I, ``mean_zero_block(b)`` = diag(r, -q), the flip,
    and [[0, q], [-r, 0]] (left) or [[0, r], [-q, 0]] (right).  Column k holds
    the (00, 01, 10, 11) entries of element k, as in the Walsh synthesis kernel.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    block = mean_zero_block(bias)
    r, q = block[0, 0].real, -block[1, 1].real
    top, bottom = (q, -r) if side == LEFT else (r, -q)
    return np.column_stack(
        [GEN_IDENTITY.ravel(), block.ravel(), GEN_FLIP.ravel(), (0.0, top, bottom, 0.0)]
    ).astype(np.complex128)


def orthonormal_parts(spec: StateSpec, count: int, side: str = LEFT) -> list[np.ndarray]:
    """Per-factor parts of the first ``count`` elements e_0, e_1, ... of the state-orthonormal Walsh basis.

    e_n is the tensor product of ``orthonormal_kernel`` elements, the one of
    factor j picked by base-4 digit j of n under that factor's bias; part j
    is the (count, 4) array of those kernel elements, so the elements are
    ``linalg.factor_products`` of the parts.  They are orthonormal for the
    state's weighted p = 2 inner product, and e_n lies in the span of the
    Walsh matrices w_k whose every base-4 digit is at most that of n, so
    e_0 .. e_(r-1) span the same space as w_0 .. w_(r-1) for every r.
    """
    if not 1 <= count <= 4**spec.m:
        raise ValueError(f"basis size {count} out of range [1, {4**spec.m}] for level m={spec.m}")
    elements = {b: orthonormal_kernel(b, side).T for b in set(spec.biases)}  # row q: element q
    digits = np.arange(count)
    return [elements[b][(digits >> 2 * j) & 3] for j, b in enumerate(spec.biases)]


def lp_norm(x, ctx: LpContext) -> float | np.ndarray:
    """Weighted norm in the given context: a float for one matrix, shape (...) for a stack."""
    x = as_stack(x)
    _check_dim(x, ctx.state)
    value = batched_weighted_lp_norm(x, state_diagonal(ctx.state), ctx.p, ctx.side)
    return float(value) if value.ndim == 0 else value


def modular_flow(x, t: float, spec: StateSpec) -> np.ndarray:
    """One-parameter flow A^(it) x A^(-it) attached to the state."""
    x = as_matrix(x)
    if x.shape[0] != spec.dim:
        raise ValueError(f"matrix dimension {x.shape[0]} does not match level m={spec.m}")
    phase = np.exp(1j * t * np.log(state_diagonal(spec)))
    return x * np.outer(phase, phase.conj())


def expectation_maps(s: int, spec: StateSpec) -> dict[int, np.ndarray]:
    """Factor maps of the expectation onto step s: one slice kernel per distinct bias."""
    kept = (s + 1 + 1) // 2  # ceil((s+1)/2): factors 0..kept-1 stay untouched
    sliced = spec.biases[kept:]
    kernels = {b: slice_kernel(b) for b in set(sliced)}
    maps: dict[int, np.ndarray] = {kept + j: kernels[b] for j, b in enumerate(sliced)}
    if s % 2 == 0:
        maps[s // 2] = PINCH_KERNEL
    return maps


def cond_expect(x, s: int, spec: StateSpec) -> np.ndarray:
    """State-preserving conditional expectation onto filtration step s.

    s = -1 collapses to rho(x) * I; s = 2m - 1 is the identity.  The output
    is re-embedded at the full ambient dimension.  A stack maps matrix by
    matrix in one kernel call.
    """
    x = as_stack(x)
    _check_dim(x, spec)
    if not -1 <= s <= 2 * spec.m - 1:
        raise ValueError(f"filtration step {s} out of range [-1, {2 * spec.m - 1}]")
    if s == -1:
        return rho_value(x, spec)[..., None, None] * np.eye(spec.dim, dtype=np.complex128)
    if s == 2 * spec.m - 1:
        return x.copy()
    return apply_factor_maps(x, expectation_maps(s, spec))


def mart_diff(x, s: int, spec: StateSpec) -> np.ndarray:
    """Martingale difference between consecutive filtration steps."""
    if not 0 <= s <= 2 * spec.m - 1:
        raise ValueError(f"difference step {s} out of range [0, {2 * spec.m - 1}]")
    return cond_expect(x, s, spec) - cond_expect(x, s - 1, spec)


def filtration_differences(x, first: int, last: int, spec: StateSpec) -> tuple[np.ndarray, np.ndarray]:
    """E_first x and the differences D_(first+1) x .. D_last x, each E_s taken once from x.

    Returns (base, diffs): ``diffs[k]`` is D_(first+1+k) x, so diffs has shape
    (last - first,) + x.shape.  Only the previous expectation is kept alive
    next to the difference stack.  This is the one telescoped filtration:
    the sign sweep and the two-block identity take their differences from it.
    """
    x = as_stack(x)
    base = cond_expect(x, first, spec)
    diffs = np.empty((last - first,) + x.shape, dtype=np.complex128)
    previous = base
    for k, s in enumerate(range(first + 1, last + 1)):
        current = cond_expect(x, s, spec)
        np.subtract(current, previous, out=diffs[k])
        previous = current
    return base, diffs
