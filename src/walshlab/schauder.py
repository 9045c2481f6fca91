"""Partial-sum projections, residuals of the partial-sum decomposition
identity, exact p=2 operator norms in the weighted geometry, a multi-start
power-iteration estimator for general p, and sign-sweep experiments.

Identities whose derivation needs the bias mean of every non-trivial Walsh
matrix to vanish hold exactly only in the tracial case alpha = 1/2; for other
biases this module measures residuals instead of asserting them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    as_stack,
    compressed_top_value,
    factor_map_matrix,
    gaussian_matrix,
    level_of_dim,
    task_gaussian_stack,
    task_rng,
)
from .states import (
    LEFT,
    SIDES,
    LpContext,
    StateSpec,
    batched_weighted_lp_norm,
    filtration_differences,
    lp_norm,
    orthonormal_stack,
    state_diagonal,
    weight_scale,
    weighted_lp_dual_gradient,
    weighted_lp_gradient,
)
from .walsh import (
    MEANZERO,
    PAPER,
    binary_digits,
    coefficient_mask,
    factor_kernels,
    keep_coefficients,
    mask_terms,
    walsh_matrix,
    walsh_stack,
)

MAX_EXPLICIT_LEVEL = 4  # superoperator matrices stay at or below 256 x 256
# Refuse sign sweeps whose differences, over all probes and steps, would
# outgrow this many bytes.  The sweep never holds them all at once, so this
# bounds its total work (every difference is combined under every pattern),
# not any one allocation.
MAX_SIGN_STACK_BYTES = 1 << 30
# Bytes of each stack the sign sweep builds from a run of probes: their 2m
# differences, and the combined stack of one block of patterns over them.
# This bounds each stack, not the sweep's memory: the run also holds its
# probes, the mean part and the norm intermediates (the weighted copy, the
# Gram stack), about 6x this budget in all (101 MiB traced at m = 1).
SIGN_BLOCK_BYTES = 1 << 24
# Sign patterns drawn by a sampled sweep, before duplicates are dropped.
SIGN_PATTERN_SAMPLES = 256

EXACT2 = "exact2"
ESTIMATE = "estimate"

# Stopping rule of the multi-start ascent: relative tolerance and iteration cap.
ASCENT_TOL = 1e-6
MAX_ASCENT_ITER = 400
# Rows (restarts, over all cells) climbing in lockstep at most, and bytes of the
# operator matrices they climb on: together they bound the ascent's memory for
# any restart count and any sweep.
ASCENT_BLOCK = 64
ASCENT_BLOCK_BYTES = 1 << 24


def matrix_unit_stack(dim: int) -> np.ndarray:
    """All dim**2 matrix units as a (dim**2, dim, dim) stack, row-major order."""
    return np.eye(dim * dim, dtype=np.complex128).reshape(dim * dim, dim, dim)


class OperatorHandle:
    """Coefficient mask on the level-m system: a linear map on the 4**m
    dimensional space of 2**m matrices.

    Every operator measured here is one: P_n in both modes, a tensor shell sum
    Q_n, a subset projection.  Calling the handle on one matrix or on a stack
    gives ``keep_coefficients`` of each.  ``matrix()`` materializes the map in
    the matrix-unit basis (row-major vec convention) from its ``mask_terms``,
    for levels m <= 4.  ``rows`` is r, the number of leading Walsh matrices
    whose span holds the range: the last kept index + 1, and 1 for an empty
    mask.  ``from_matrix`` wraps an arbitrary matrix instead; it has no mask
    and takes all 4**m rows.
    """

    def __init__(self, keep, m: int, alpha: float = 0.5, mode: str = PAPER, label: str = ""):
        self.keep = coefficient_mask(keep, m)
        factor_kernels(alpha, mode)  # refuses an unknown mode or a meanzero bias outside (0, 1/2]
        self.m, self.alpha, self.mode, self.label = m, alpha, mode, label
        self.dim = 1 << m
        self.rows = int(np.flatnonzero(self.keep).max(initial=0)) + 1
        self._matrix = None

    def __call__(self, x) -> np.ndarray:
        x = as_stack(x)
        if self.keep is None:
            return (x.reshape(x.shape[:-2] + (-1,)) @ self._matrix.T).reshape(x.shape)
        return keep_coefficients(x, self.keep, self.alpha, self.mode)

    @classmethod
    def from_matrix(cls, mat: np.ndarray, label: str = "explicit") -> "OperatorHandle":
        mat = np.asarray(mat, dtype=np.complex128)
        dim = math.isqrt(mat.shape[0])
        if mat.shape != (dim * dim, dim * dim):
            raise ValueError(f"superoperator shape {mat.shape} is not (d^2, d^2)")
        handle = cls.__new__(cls)
        handle.keep, handle.m, handle.alpha, handle.mode, handle.label = None, level_of_dim(dim), None, None, label
        handle.dim, handle.rows, handle._matrix = dim, dim * dim, mat
        return handle

    def matrix(self) -> np.ndarray:
        """Explicit 4**m x 4**m matrix in the matrix-unit basis."""
        if self._matrix is None:
            if self.m > MAX_EXPLICIT_LEVEL:
                raise ValueError(
                    f"refusing to materialize a superoperator at level {self.m} > {MAX_EXPLICIT_LEVEL}"
                )
            self._matrix = factor_map_matrix(mask_terms(self.keep, self.m, self.alpha, self.mode), self.m)
        return self._matrix


@dataclass
class NormReport:
    """Operator-norm value with provenance of how it was computed."""

    value: float
    method: str
    restarts: int = 0
    converged: bool = True
    seed: int = 0


@dataclass
class SignSweepReport:
    p: float
    alpha: float
    m: int
    trials: int
    seed: int
    max_ratio: float
    patterns: int  # distinct sign patterns evaluated
    probes: int  # probes kept after the norm filter
    pattern_maxima: dict | None = None


@dataclass
class BasisConstantRow:
    n: int
    p: float
    alpha: float
    side: str
    method: str
    value: float
    converged: bool
    decomp_value: float
    decomp_converged: bool
    gap: float


def partial_sum(x, n: int, alpha: float = 0.5, mode: str = PAPER) -> np.ndarray:
    """Keep expansion coefficients 0..n of x (or of each matrix in a stack) and resynthesize."""
    x = as_stack(x)
    m = level_of_dim(x.shape[-1])
    return keep_coefficients(x, _prefix_mask(n, m), alpha, mode)


def _prefix_mask(n: int, m: int) -> np.ndarray:
    if not 0 <= n < 4**m:
        raise ValueError(f"partial-sum index {n} out of range for level m={m}")
    return np.arange(4**m) <= n


def partial_sum_handle(n: int, m: int, alpha: float = 0.5, mode: str = PAPER) -> OperatorHandle:
    """P_n as a handle; n must lie in [0, 4**m)."""
    return OperatorHandle(_prefix_mask(n, m), m, alpha, mode, f"P[{n}]")


def _subset_mask(steps, m: int) -> np.ndarray:
    """The meanzero coefficients a subset projection keeps.  The filtration is
    diagonal in the meanzero system: E_s keeps the indices below 2**(s+1), so
    index k belongs to step k.bit_length() - 1 (index 0 to step -1), and
    k.bit_length() is np.frexp's exponent of k."""
    steps = sorted({int(s) for s in steps})
    if not set(steps) <= set(range(-1, 2 * m)):
        raise ValueError(f"subset members must lie in [-1, {2 * m - 1}], got {steps}")
    kept = np.zeros(2 * m + 1, dtype=bool)  # by step + 1
    kept[np.array(steps, dtype=int) + 1] = True
    return kept[np.frexp(np.arange(4**m))[1]]


def subset_projection(x, steps, spec: StateSpec) -> np.ndarray:
    """Sum of martingale differences over ``steps``; -1 adds the rho(x)*I term.

    Acts on one matrix or matrix by matrix on a stack, as the meanzero
    coefficient mask of the steps.
    """
    return keep_coefficients(x, _subset_mask(steps, spec.m), spec.alpha, MEANZERO)


def subset_projection_handle(steps, spec: StateSpec) -> OperatorHandle:
    """The subset projection as a meanzero coefficient-mask handle; steps outside
    [-1, 2m - 1] are refused here."""
    steps = sorted({int(s) for s in steps})
    return OperatorHandle(_subset_mask(steps, spec.m), spec.m, spec.alpha, MEANZERO, f"T{steps}")


def decomposition_handle(n: int, spec: StateSpec) -> OperatorHandle:
    """The map rho(.)*I + sum of differences over the set digits of n."""
    steps = [-1] + [s for s, g in enumerate(binary_digits(n)) if g]
    return subset_projection_handle(steps, spec)


def identity_residual(
    x,
    n: int,
    spec: StateSpec,
    side: str = LEFT,
    mode: str = PAPER,
    ps: tuple = (2.0,),
) -> tuple[np.ndarray, list]:
    """Residual of the partial-sum decomposition identity at index n.

    Left side compares w_n * P_n(x) against rho(w_n x) I plus the martingale
    differences over the set digits of n, applied to w_n x; the right side
    mirrors with multiplication from the right.  Returns the residual and its
    weighted norms for each exponent in ``ps``: floats for one matrix, arrays
    of shape (...) for a (..., d, d) stack.
    """
    x = as_stack(x)
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    w = walsh_matrix(n, spec.m, spec.alpha, mode)
    px = partial_sum(x, n, spec.alpha, mode)
    if side == LEFT:
        lhs = w @ px
        wx = w @ x
    else:
        lhs = px @ w
        wx = x @ w
    residual = lhs - decomposition_handle(n, spec)(wx)
    norms = [lp_norm(residual, LpContext(p, spec, side)) for p in ps]
    return residual, norms


def exact_norm_p2(T: OperatorHandle, spec: StateSpec, side: str = LEFT) -> NormReport:
    """Exact operator norm of T on the weighted p=2 matrix space of the state.

    The weighted inner product Tr(x* y A) (left) or Tr(x* A y) (right) is
    diagonalized by rescaled matrix units, so the norm is the top singular
    value of the similarity-transformed superoperator.  Its range lies in the
    span of w_0 .. w_(r-1) (r = ``T.rows``), which the first r elements of
    the state-orthonormal Walsh basis span as well, so the value comes from
    the r rows of the similarity on that basis (``compressed_top_value``).
    """
    w = state_diagonal(spec)
    if np.any(w <= 0):
        raise ValueError("density must be positive definite")
    d = T.dim
    # Matrix unit (i, j) in row-major vec order carries the weight of its column (left) or row (right).
    root = np.broadcast_to(weight_scale(w, 2.0, side), (d, d)).ravel()
    basis = orthonormal_stack(spec, T.rows, side).reshape(-1, d * d)
    return NormReport(value=compressed_top_value(T.matrix(), root, basis), method=EXACT2)


def multistart_ascent(mats, draw, norm_of, norm_gradient, dual_gradient, restarts: int, seeds) -> list[tuple[float, bool]]:
    """Best ratio ||mat @ x|| / ||x|| of each cell's matrix, by multi-start dual power iteration on flat vectors.

    Cell c climbs on the c-th matrix of ``mats`` (an iterable of (N, N)
    matrices, such as a (C, N, N) stack or a generator) from seed
    ``seeds[c]``.  Its restart r climbs from ``draw(task_rng(seeds[c], r))``
    (a draw of norm 0 is skipped) in ``_climb_block`` rounds, and stops once
    five consecutive rounds improve by less than ``ASCENT_TOL`` relative, or
    after ``MAX_ASCENT_ITER`` rounds.  ``norm_of``, ``norm_gradient`` and
    ``dual_gradient`` (the gradient of the dual norm, of norm 1 or 0 at a
    zero row) act on a (k, N) block of row vectors, one value or gradient
    per row, whatever cell a row belongs to.

    The restarts of consecutive cells climb in lockstep as the rows of one
    block, each on its own path.  A block holds at most ``ASCENT_BLOCK`` rows
    and ``ASCENT_BLOCK_BYTES`` of matrices; a cell's restarts share a block
    unless they are more than ``ASCENT_BLOCK``.  ``mats`` is read one matrix
    at a time, as blocks fill, so a generator keeps only one block's
    matrices alive.  Returns one (best value, whether the first restart
    reaching it converged) per cell; the best value is a lower bound of the
    operator norm (to rounding), and (0.0, False) when every draw was zero.
    """
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    best = [(0.0, False)] * len(seeds)
    block: list[tuple] = []  # (cell, matrix, seed, first restart, restart count)

    def climb() -> None:
        mats_in_block = [mat for _, mat, _, _, _ in block]
        xs = np.concatenate([
            np.stack([draw(task_rng(seed, r)) for r in range(first, first + count)])
            for _, _, seed, first, count in block
        ])
        cells = np.repeat(np.arange(len(block)), [count for *_, count in block])
        nx = norm_of(xs)
        live = nx != 0.0
        values, converged = _climb_block(
            mats_in_block, cells[live], xs[live] / nx[live, np.newaxis], norm_of, norm_gradient, dual_gradient
        )
        for local, value, conv in zip(cells[live], values, converged):
            cell = block[local][0]
            if value > best[cell][0]:
                best[cell] = (float(value), bool(conv))
        block.clear()

    mats = iter(mats)
    for cell, seed in enumerate(seeds):
        # Close the block before the next matrix is built, so no more than one block's are alive.
        rows = sum(count for *_, count in block)
        if block and (
            rows + min(restarts, ASCENT_BLOCK) > ASCENT_BLOCK
            or (len(block) + 1) * block[0][1].nbytes > ASCENT_BLOCK_BYTES
        ):
            climb()
        mat = next(mats)
        for first in range(0, restarts, ASCENT_BLOCK):
            if first:
                climb()  # the previous block is full of this cell's restarts
            block.append((cell, mat, seed, first, min(ASCENT_BLOCK, restarts - first)))
    if block:
        climb()
    return best


def _block_product(mats, cells, xs, adjoint: bool = False) -> np.ndarray:
    """Row i of ``xs`` taken to ``mats[cells[i]] @ xs[i]``, or with ``adjoint`` to
    ``mats[cells[i]]* @ xs[i]``, as rows.  ``cells`` ascends, so each matrix
    takes one product with its run of rows."""
    # x @ mat.T is the image of a row x; conj(conj(x) @ mat) is its adjoint's.
    if adjoint:
        xs = xs.conj()
    out = np.empty_like(xs)
    lo = 0
    for mat, count in zip(mats, np.bincount(cells, minlength=len(mats)).tolist()):
        if count:
            np.matmul(xs[lo : lo + count], mat if adjoint else mat.T, out=out[lo : lo + count])
            lo += count
    return np.conj(out, out=out) if adjoint else out


def _climb_block(mats, cells, xs, norm_of, norm_gradient, dual_gradient):
    """Climb the unit rows of ``xs``, row i on ``mats[cells[i]]``, together; returns
    their final values and convergence flags.

    A round of the dual power iteration (D. W. Boyd, Linear Algebra Appl. 9,
    1974; N. J. Higham, Numer. Math. 62, 1992) moves a row x with image
    a = T x to x' = dual_gradient(T* y), y = norm_gradient(a), if that raises
    its value.  By duality N(T x') >= <T x', y> = N*(T* y) >= <x, T* y> = N(T x),
    so no step is searched.  A round takes one adjoint and one forward product
    per cell; only images are kept, and a row that stops leaves later rounds.
    """
    images = _block_product(mats, cells, xs)
    values = norm_of(images)
    converged = np.zeros(len(xs), dtype=bool)
    quiet = np.zeros(len(xs), dtype=int)
    active = np.arange(len(xs))
    for _ in range(MAX_ASCENT_ITER):
        if active.size == 0:
            break
        c, value = cells[active], values[active]
        cand = dual_gradient(_block_product(mats, c, norm_gradient(images[active]), adjoint=True))
        cand_images = _block_product(mats, c, cand)
        cv = norm_of(cand_images)
        up = cv > value
        images[active[up]], values[active[up]] = cand_images[up], cv[up]
        rel = np.where(up, cv - value, 0.0) / np.maximum(value, 1e-300)
        quiet[active] = np.where(rel < ASCENT_TOL, quiet[active] + 1, 0)
        done = quiet[active] >= 5
        converged[active[done]] = True
        active = active[~done]
    return values, converged


def estimate_norm_lp(
    T: OperatorHandle,
    ctx: LpContext,
    restarts: int = 32,
    seed: int = 0,
) -> NormReport:
    """Lower-bound estimate of the weighted p-norm of T by the dual power iteration
    of ``multistart_ascent`` on its materialized matrix, from seeded Gaussian matrices."""
    return estimate_norms_lp([T], ctx, restarts, [seed])[0]


def estimate_norms_lp(handles, ctx: LpContext, restarts: int, seeds) -> list[NormReport]:
    """``estimate_norm_lp`` of each handle of an iterable, handle c from ``seeds[c]``.

    All cells climb in ``multistart_ascent``'s lockstep blocks, so each
    estimate is the one ``estimate_norm_lp`` gives alone.  A handle's matrix
    is materialized when its block fills; handles made by a generator keep
    only one block's matrices alive.
    """
    weights = state_diagonal(ctx.state)
    p, side, d = ctx.p, ctx.side, ctx.state.dim

    def norm_of(v: np.ndarray) -> np.ndarray:
        return batched_weighted_lp_norm(v.reshape(-1, d, d), weights, p, side)

    def on_rows(gradient):
        return lambda v: gradient(v.reshape(-1, d, d), weights, p, side).reshape(v.shape)

    best = multistart_ascent(
        (T.matrix() for T in handles), lambda rng: gaussian_matrix(d, rng).ravel(), norm_of,
        on_rows(weighted_lp_gradient), on_rows(weighted_lp_dual_gradient), restarts, seeds,
    )
    return [
        NormReport(value=value, method=ESTIMATE, restarts=restarts, converged=converged, seed=seed)
        for (value, converged), seed in zip(best, seeds)
    ]


def basis_constant_sweep(
    ctx: LpContext,
    n_max: int,
    method: str = EXACT2,
    restarts: int = 32,
    seed: int = 0,
    mode: str = PAPER,
) -> list[BasisConstantRow]:
    """Norms of the partial-sum projections P_n for n = 0..n_max.

    Each row holds the norm of P_n, the norm of the matching decomposition
    operator rho(.)*I + set-digit differences, and the gap between the two.
    The estimates of P_n and its decomposition operator are seeded
    seed + 2n and seed + 2n + 1 and all of them climb in lockstep, so each
    cell's estimate does not depend on the others.
    """
    if method not in (EXACT2, ESTIMATE):
        raise ValueError(f"unknown method {method!r}")
    if method == EXACT2 and ctx.p != 2:
        raise ValueError("exact2 applies only at p = 2")
    spec = ctx.state
    if not 0 <= n_max < 4**spec.m:
        raise ValueError(f"sweep bound {n_max} out of range for level m={spec.m}")
    ns = range(n_max + 1)
    handles = (
        handle
        for n in ns
        for handle in (partial_sum_handle(n, spec.m, spec.alpha, mode), decomposition_handle(n, spec))
    )
    if method == EXACT2:
        reports = [exact_norm_p2(handle, spec, ctx.side) for handle in handles]
    else:
        seeds = [seed + 2 * n + k for n in ns for k in (0, 1)]
        reports = estimate_norms_lp(handles, ctx, restarts, seeds)
    return [
        BasisConstantRow(
            n=n,
            p=ctx.p,
            alpha=spec.alpha,
            side=ctx.side,
            method=method,
            value=rep.value,
            converged=rep.converged,
            decomp_value=dep.value,
            decomp_converged=dep.converged,
            gap=rep.value - dep.value,
        )
        for n, rep, dep in zip(ns, reports[::2], reports[1::2])
    ]


def _sign_patterns(count: int) -> np.ndarray:
    """All 2**count sign patterns: entry [k, s] is -1 where bit s of k is set."""
    bits = (np.arange(1 << count)[:, np.newaxis] >> np.arange(count)) & 1
    return np.where(bits == 1, -1.0, 1.0)


def sign_sweep_stack_bytes(m: int, trials: int) -> int:
    """Bytes of all the sign sweep's differences: 2m steps of 2*4**m + trials probes."""
    return 2 * m * (2 * 4**m + trials) * 4**m * np.dtype(np.complex128).itemsize


def unconditionality_constant(
    ctx: LpContext,
    mode: str = "exhaustive",
    trials: int = 1024,
    seed: int = 0,
) -> SignSweepReport:
    """Largest ratio ||rho(x)I + sum eps_s D_s x|| / ||x|| over sign patterns.

    The probe set is every Walsh matrix, every matrix unit, and ``trials``
    seeded Gaussian draws; draw k depends only on (seed, k), so enlarging
    ``trials`` refines the probe set monotonically.  Sampled mode draws
    ``SIGN_PATTERN_SAMPLES`` patterns, the all-plus one among them, and reduces
    them to their distinct rows before any norm: the ratio is a max over
    patterns, and sampled mode reports no per-pattern maxima.  The probes
    are taken in runs, each run drawing its own Gaussian probes, their own
    norms and the filter too, and the patterns in blocks, so no stack built
    from the probes outgrows ``SIGN_BLOCK_BYTES`` (unless one probe's
    differences do).
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown sweep mode {mode!r}")
    spec = ctx.state
    steps = 2 * spec.m
    need = sign_sweep_stack_bytes(spec.m, trials)
    if need > MAX_SIGN_STACK_BYTES:
        raise ValueError(
            f"sign sweep at level {spec.m} with {trials} trials takes {need / 2**30:.2f} GiB of "
            f"martingale differences, each combined under every sign pattern, above the "
            f"{MAX_SIGN_STACK_BYTES / 2**30:.2f} GiB work limit"
        )
    if mode == "exhaustive":
        if steps > 12:
            raise ValueError("exhaustive sign sweep requires 2m <= 12")
        patterns = _sign_patterns(steps)
    else:
        rng = task_rng(seed, 0xFACE)
        patterns = np.where(rng.random((SIGN_PATTERN_SAMPLES, steps)) < 0.5, -1.0, 1.0)
        patterns[0, :] = 1.0  # keep the all-plus pattern in the sample
        patterns = np.unique(patterns, axis=0)

    d = spec.dim
    # The Walsh matrices and matrix units as one stack (32 MiB at m = 5); each run draws its own Gaussian probes.
    fixed = np.concatenate([walsh_stack(spec.m), matrix_unit_stack(d)])
    weights = state_diagonal(spec)
    matrix_bytes = d * d * fixed.itemsize
    run = max(1, SIGN_BLOCK_BYTES // (steps * matrix_bytes))
    row_max = np.zeros(patterns.shape[0])
    kept = 0
    for first in range(0, len(fixed) + trials, run):
        last = min(first + run, len(fixed) + trials)
        probes = fixed[first:last]
        if last > len(fixed):  # Gaussian draws lo - len(fixed) .. last - len(fixed) - 1
            lo = max(first, len(fixed))
            probes = np.concatenate([probes, task_gaussian_stack(d, seed, last - lo, lo - len(fixed))])
        base_norms = batched_weighted_lp_norm(probes, weights, ctx.p, ctx.side)
        keep = base_norms > 1e-12
        probes, base_norms = probes[keep], base_norms[keep]
        kept += len(probes)
        if not len(probes):
            continue
        # D_s = E_s - E_{s-1}, one kernel call per step on the run.
        mean_part, diff_parts = filtration_differences(probes, -1, steps - 1, spec)
        chunk = max(1, SIGN_BLOCK_BYTES // (mean_part.shape[0] * matrix_bytes))
        for start in range(0, patterns.shape[0], chunk):
            rows = slice(start, start + chunk)
            combined = mean_part + np.tensordot(patterns[rows], diff_parts, axes=(1, 0))
            norms = batched_weighted_lp_norm(
                combined.reshape(-1, d, d), weights, ctx.p, ctx.side
            ).reshape(combined.shape[0], -1)
            row_max[rows] = np.maximum(row_max[rows], (norms / base_norms).max(axis=1))
    pattern_maxima: dict | None = None
    if mode == "exhaustive":
        pattern_maxima = {tuple(int(v) for v in pat): float(row_max[j]) for j, pat in enumerate(patterns)}
    return SignSweepReport(
        p=ctx.p, alpha=spec.alpha, m=spec.m, trials=trials, seed=seed, max_ratio=float(row_max.max()),
        patterns=patterns.shape[0], probes=kept, pattern_maxima=pattern_maxima,
    )
