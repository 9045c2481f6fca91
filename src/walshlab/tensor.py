"""Two-factor tensor model: shell enumeration of pair indices, doubly indexed
Walsh matrices, one-factor projections, and residual checks for the tensor
partial-sum machinery.

Pairs (i, j) are ordered by expanding square shells; shell l fills the index
interval [l**2, (l+1)**2) by walking up column j = l and back down row i = l.

A ``TensorContext`` is one product state on m1 + m2 factors whose bias
changes at factor m1, so the filtration and norms of ``states`` act on it
directly: the second block's step s is the joint step 2*m1 + s, and the
joint step 2*m1 - 1 is the expectation onto the first block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import apply_factor_maps, as_matrix
from .schauder import OperatorHandle, coefficient_mask_handle
from .states import (
    LEFT,
    LpContext,
    StateSpec,
    cond_expect,
    expectation_maps,
    filtration_differences,
    lp_norm,
)
from .walsh import PAPER, binary_digits, keep_coefficients, walsh_matrix


@dataclass(frozen=True)
class TensorContext:
    """Pair of biased states acting on the two tensor blocks: one product state on m1 + m2 factors."""

    first: StateSpec
    second: StateSpec

    @property
    def m(self) -> int:
        return self.first.m + self.second.m

    @property
    def dim(self) -> int:
        return 1 << self.m

    @property
    def biases(self) -> tuple[float, ...]:
        return self.first.biases + self.second.biases


def shell_index(i: int, j: int) -> int:
    """Position of the pair (i, j) in the shell enumeration."""
    if i < 0 or j < 0:
        raise ValueError("pair entries must be non-negative")
    if i <= j:
        return j * j + i
    return (i + 1) * (i + 1) - j - 1


def shell_pair(n: int) -> tuple[int, int]:
    """Inverse of shell_index."""
    if n < 0:
        raise ValueError("shell position must be non-negative")
    l = math.isqrt(n)
    r = n - l * l
    if r <= l:
        return r, l
    return l, (l + 1) * (l + 1) - n - 1


def max_shell_index(ctx: TensorContext) -> int:
    """Largest shell position reachable inside the truncated index rectangle."""
    imax = 4**ctx.first.m - 1
    jmax = 4**ctx.second.m - 1
    return max(shell_index(min(imax, jmax), jmax), shell_index(imax, 0))


def double_walsh(n: int, ctx: TensorContext) -> np.ndarray:
    """Tensor basis element w_i (x) w_j at shell position n."""
    i, j = shell_pair(n)
    if i >= 4**ctx.first.m or j >= 4**ctx.second.m:
        raise ValueError(
            f"shell position {n} -> pair {(i, j)} outside levels "
            f"({ctx.first.m}, {ctx.second.m})"
        )
    return walsh_matrix(i + (j << 2 * ctx.first.m), ctx.m)


def _pair_indices(ctx: TensorContext) -> tuple[np.ndarray, np.ndarray]:
    """First- and second-block index (i, j) of every joint Walsh index i + (j << 2*m1)."""
    k = np.arange(4**ctx.m)
    return k & (4**ctx.first.m - 1), k >> 2 * ctx.first.m


def _shell_positions(ctx: TensorContext) -> np.ndarray:
    """Shell position of the pair at every joint Walsh index."""
    i, j = _pair_indices(ctx)
    return np.where(i <= j, j * j + i, (i + 1) * (i + 1) - j - 1)


def _check_shell_position(n: int, ctx: TensorContext) -> None:
    if not 0 <= n <= max_shell_index(ctx):
        raise ValueError(f"shell position {n} out of range for context (max {max_shell_index(ctx)})")


def factor_expectation(x, side: str, ctx: TensorContext) -> np.ndarray:
    """State-preserving expectation onto one tensor block.

    side='first' integrates the second block out against its state (image
    N (x) 1); side='second' mirrors.
    """
    x = as_matrix(x)
    if x.shape[0] != ctx.dim:
        raise ValueError(f"matrix dimension {x.shape[0]} does not match context dim {ctx.dim}")
    if side == "first":
        return cond_expect(x, 2 * ctx.first.m - 1, ctx)
    if side == "second":
        return apply_factor_maps(x, expectation_maps(-1, ctx.first))
    raise ValueError(f"side must be 'first' or 'second', got {side!r}")


def factor_projection(x, side: str, j: int, ctx: TensorContext) -> np.ndarray:
    """Rank-one-in-one-factor projection (1 (x) w_j) E_first((1 (x) w_j*) x).

    side='second' keeps index j of the second block as written above;
    side='first' mirrors with (w_j (x) 1) and the expectation onto the
    second block.
    """
    x = as_matrix(x)
    if side not in ("first", "second"):
        raise ValueError(f"side must be 'first' or 'second', got {side!r}")
    block, other, shift = (ctx.second, "first", 2 * ctx.first.m) if side == "second" else (ctx.first, "second", 0)
    if not 0 <= j < 4**block.m:
        raise ValueError(f"index {j} out of range for {side}-block level {block.m}")
    v = walsh_matrix(j << shift, ctx.m)
    return v @ factor_expectation(v.conj().T @ x, other, ctx)


def fsum_partial(x, n: int, ctx: TensorContext, side: str = "second") -> np.ndarray:
    """Sum of the factor projections with index 0..n on the chosen side."""
    out = np.zeros((ctx.dim, ctx.dim), dtype=np.complex128)
    for j in range(n + 1):
        out += factor_projection(x, side, j, ctx)
    return out


def first_truncation(x, s: int, ctx: TensorContext) -> np.ndarray:
    """Keep joint coefficients with first-block index <= s."""
    return keep_coefficients(x, _pair_indices(ctx)[0] <= s)


def second_truncation(x, s: int, ctx: TensorContext) -> np.ndarray:
    """Keep joint coefficients with second-block index <= s."""
    return keep_coefficients(x, _pair_indices(ctx)[1] <= s)


def tensor_partial_sum(x, n: int, ctx: TensorContext) -> np.ndarray:
    """Keep the joint coefficients at shell positions 0..n, matrix by matrix on a stack."""
    _check_shell_position(n, ctx)
    return keep_coefficients(x, _shell_positions(ctx) <= n)


def tensor_partial_sum_handle(n: int, ctx: TensorContext) -> OperatorHandle:
    """The shell partial sum Q_n as a handle; r is 1 + the largest joint index at shell position <= n."""
    _check_shell_position(n, ctx)
    return coefficient_mask_handle(_shell_positions(ctx) <= n, ctx.m, 0.5, PAPER, f"Q[{n}]")


@dataclass
class ShellDecompositionReport:
    n: int
    shell: int
    residual: float
    square_norms: list[float]
    remainder_norms: list[float]


def shell_decomposition_check(x, n: int, ctx: TensorContext, ps: tuple = (2.0,), side: str = LEFT) -> ShellDecompositionReport:
    """Split the shell partial sum into a full square plus a boundary strip.

    The square part composes the two one-sided coefficient truncations at
    l - 1 with l = isqrt(n); the remainder gathers shell positions l**2..n
    directly.  The identity is exact coefficient bookkeeping for every bias;
    the report carries the weighted norms of both parts.
    """
    x = as_matrix(x)
    _check_shell_position(n, ctx)
    l = math.isqrt(n)
    total = tensor_partial_sum(x, n, ctx)
    if l == 0:
        square = np.zeros_like(total)
    else:
        square = first_truncation(second_truncation(x, l - 1, ctx), l - 1, ctx)
    positions = _shell_positions(ctx)
    remainder = keep_coefficients(x, (positions >= l * l) & (positions <= n))
    return ShellDecompositionReport(
        n=n,
        shell=l,
        residual=float(np.max(np.abs(total - square - remainder))),
        square_norms=[lp_norm(square, LpContext(p, ctx, side)) for p in ps],
        remainder_norms=[lp_norm(remainder, LpContext(p, ctx, side)) for p in ps],
    )


@dataclass
class TensorIdentityReport:
    n: int
    residual: np.ndarray
    residual_norms: list[float]
    fsum_gap_norms: list[float]
    fsum_idempotency_residual: float


def tensor_identity_residual(x, n: int, ctx: TensorContext, ps: tuple = (2.0,), side: str = LEFT) -> TensorIdentityReport:
    """Residual of the second-block partial-sum decomposition identity.

    Compares (1 (x) w_n) applied to the second-block coefficient truncation
    of x against the block expectation plus the set-digit differences of
    (1 (x) w_n) x.  The report also measures how far the sum of factor
    projections 0..n drifts from the coefficient truncation (zero in the
    tracial case) and how far that sum is from being idempotent.
    """
    x = as_matrix(x)
    m2 = ctx.second.m
    if not 0 <= n < 4**m2:
        raise ValueError(f"index {n} out of range for second-block level {m2}")
    start = 2 * ctx.first.m  # the second block's filtration step s is the joint step start + s
    w = walsh_matrix(n << start, ctx.m)
    truncated = second_truncation(x, n, ctx)
    lhs = w @ truncated
    digits = binary_digits(n)
    rhs, diffs = filtration_differences(w @ x, start - 1, start + len(digits) - 1, ctx)
    for s, g in enumerate(digits):
        if g:
            rhs += diffs[s]
    residual = lhs - rhs
    fsum = fsum_partial(x, n, ctx, "second")
    fsum2 = fsum_partial(fsum, n, ctx, "second")
    return TensorIdentityReport(
        n=n,
        residual=residual,
        residual_norms=[lp_norm(residual, LpContext(p, ctx, side)) for p in ps],
        fsum_gap_norms=[lp_norm(fsum - truncated, LpContext(p, ctx, side)) for p in ps],
        fsum_idempotency_residual=float(np.max(np.abs(fsum2 - fsum))),
    )
