"""Matrix Walsh system: 2x2 generators, tensor Walsh matrices, sign relations,
and the fast transform between matrices and coefficient arrays.  The transforms
map a (..., 2**m, 2**m) stack to (..., 4**m) coefficients and back.

Indexing: a Walsh index n < 4**m decomposes into binary digits
n = sum gamma_i 2**i; the pair (gamma_{2i}, gamma_{2i+1}) selects the 2x2
generator placed at tensor factor i, equivalently the base-4 digit
q_i = gamma_{2i} + 2*gamma_{2i+1} of n.
"""

from __future__ import annotations

import functools

import numpy as np

from .linalg import (
    as_matrix,
    as_stack,
    factor_coefficients,
    factor_synthesis,
    kron,
    level_of_dim,
)

PAPER = "paper"
MEANZERO = "meanzero"
MODES = (PAPER, MEANZERO)

# The four 2x2 generators, indexed by q = g0 + 2*g1.
GEN_IDENTITY = np.eye(2, dtype=np.complex128)
GEN_DIAG = np.array([[1, 0], [0, -1]], dtype=np.complex128)
GEN_FLIP = np.array([[0, 1], [1, 0]], dtype=np.complex128)
GEN_ROT = np.array([[0, 1], [-1, 0]], dtype=np.complex128)
GENERATORS = (GEN_IDENTITY, GEN_DIAG, GEN_FLIP, GEN_ROT)


def _sign_table() -> np.ndarray:
    """Product signs s with g_a g_b = s * g_(a XOR b), read off the matrices."""
    table = np.zeros((4, 4), dtype=np.int64)
    for a in range(4):
        for b in range(4):
            prod = GENERATORS[a] @ GENERATORS[b]
            target = GENERATORS[a ^ b]
            if np.array_equal(prod, target):
                table[a, b] = 1
            elif np.array_equal(prod, -target):
                table[a, b] = -1
            else:
                raise AssertionError("generator products left the signed family")
    return table


SIGN_TABLE = _sign_table()


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= 0.5:
        raise ValueError(f"bias must lie in (0, 1/2], got {alpha}")
    return alpha


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown generator mode {mode!r}, expected one of {MODES}")
    return mode


def binary_digits(n: int) -> list[int]:
    """Little-endian binary digits of n, empty for n = 0."""
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    digits = []
    while n:
        digits.append(n & 1)
        n >>= 1
    return digits


def factor_codes(n: int, m: int) -> list[int]:
    """Base-4 digits q_0..q_{m-1} of n; rejects indices outside level m."""
    if not 0 <= n < 4**m:
        raise ValueError(f"Walsh index {n} out of range for level m={m}")
    return [(n >> (2 * i)) & 3 for i in range(m)]


def mean_zero_block(alpha: float) -> np.ndarray:
    """Diagonal generator diag(sqrt((1-a)/a), -sqrt(a/(1-a))) with zero bias mean."""
    alpha = _check_alpha(alpha)
    return np.array(
        [
            [np.sqrt((1 - alpha) / alpha), 0],
            [0, -np.sqrt(alpha / (1 - alpha))],
        ],
        dtype=np.complex128,
    )


def rademacher_block(g0: int, g1: int, alpha: float = 0.5, mode: str = PAPER) -> np.ndarray:
    """The 2x2 generator for digit pair (g0, g1) in the requested mode."""
    _check_alpha(alpha)
    _check_mode(mode)
    if g0 not in (0, 1) or g1 not in (0, 1):
        raise ValueError(f"digits must be 0 or 1, got ({g0}, {g1})")
    q = g0 + 2 * g1
    if mode == MEANZERO and q == 1:
        return mean_zero_block(alpha)
    return GENERATORS[q].copy()


def generator_blocks(alpha: float = 0.5, mode: str = PAPER) -> list[np.ndarray]:
    """All four per-factor generators in code order q = 0..3."""
    return [rademacher_block(q & 1, q >> 1, alpha, mode) for q in range(4)]


@functools.cache
def factor_kernels(alpha: float = 0.5, mode: str = PAPER) -> tuple[np.ndarray, np.ndarray]:
    """The (analysis, synthesis) 4x4 kernels of one tensor factor, read-only.

    Column q of the synthesis kernel holds the (00, 01, 10, 11) entries of
    generator q; the analysis kernel is its inverse, and sends a factor's
    entries to its coefficients against the generators.  Paper-mode
    generators do not depend on the bias, so that mode does not read ``alpha``.
    """
    blocks = generator_blocks(alpha if mode == MEANZERO else 0.5, mode)
    synthesis = np.column_stack([b.reshape(4) for b in blocks])
    analysis = np.linalg.inv(synthesis)
    analysis.flags.writeable = synthesis.flags.writeable = False
    return analysis, synthesis


def walsh_matrix(n: int, m: int, alpha: float = 0.5, mode: str = PAPER) -> np.ndarray:
    """Walsh matrix w_n at level m, tensor factor 0 as the major operand."""
    blocks = generator_blocks(alpha, mode)
    return functools.reduce(kron, [blocks[q] for q in factor_codes(n, m)])


def rademacher_matrix(s: int, m: int) -> np.ndarray:
    """Filtration generator r_s = w_(2**s); requires s <= 2m - 1."""
    if not 0 <= s <= 2 * m - 1:
        raise ValueError(f"Rademacher step {s} out of range for level m={m}")
    return walsh_matrix(1 << s, m)


def walsh_product_index(n: int, i: int) -> tuple[int, int]:
    """Resolve w_n w_i = sign * w_(n XOR i) from per-factor generator products."""
    if n < 0 or i < 0:
        raise ValueError("Walsh indices must be non-negative")
    sign = 1
    a, b = n, i
    while a or b:
        sign *= SIGN_TABLE[a & 3, b & 3]
        a >>= 2
        b >>= 2
    return n ^ i, int(sign)


def predicted_rademacher_sign(k: int, n: int) -> int:
    """Sign eps in r_k w_n = eps * w_(n - 2**k) for 2**k <= n < 2**(k+1).

    Negative exactly when k is odd and the (k-1)-th digit of n is set.
    """
    if not (1 << k) <= n < (1 << (k + 1)):
        raise ValueError(f"need 2^{k} <= n < 2^{k + 1}, got n={n}")
    if k % 2 == 1 and n >= (1 << k) + (1 << (k - 1)):
        return -1
    return 1


def block_support(s: int) -> tuple[int, int]:
    """Half-open Walsh-index interval [2**s, 2**(s+1)) for filtration step s."""
    if s < 0:
        raise ValueError(f"filtration step must be non-negative, got {s}")
    return 1 << s, 1 << (s + 1)


def walsh_coefficients(x) -> np.ndarray:
    """Coefficients c_n = 2**(-m) Tr(w_n* x) via per-factor 4x4 passes.

    A (..., 2**m, 2**m) stack gives a (..., 4**m) coefficient stack.
    """
    return system_coefficients(x)


def walsh_coefficients_naive(x) -> np.ndarray:
    """Reference transform: one trace per basis element, no factor recursion."""
    x = as_matrix(x)
    m = level_of_dim(x.shape[0])
    scale = 2.0**-m
    out = np.empty(4**m, dtype=np.complex128)
    for n in range(4**m):
        w = walsh_matrix(n, m)
        out[n] = scale * np.sum(w.conj() * x)
    return out


def walsh_synthesize(c, m: int) -> np.ndarray:
    """Rebuild sum_n c_n w_n from coefficients of shape (..., 4**m)."""
    return system_synthesize(c, m)


def system_coefficients(x, alpha: float = 0.5, mode: str = PAPER) -> np.ndarray:
    """Expansion coefficients of x (or a stack) against the level-m system in the given mode."""
    return factor_coefficients(x, factor_kernels(alpha, mode)[0])


def system_synthesize(c, m: int, alpha: float = 0.5, mode: str = PAPER) -> np.ndarray:
    """Inverse of system_coefficients for the same (alpha, mode)."""
    return factor_synthesis(c, m, [factor_kernels(alpha, mode)[1]] * m)


def mask_terms(keep, m: int, alpha: float = 0.5, mode: str = PAPER) -> list[tuple[float, list[np.ndarray]]]:
    """``keep_coefficients`` with the mask ``keep`` as factor-map terms (``linalg.factor_map_matrix``).

    The mask splits into disjoint base-4 digit boxes d_0 x ... x d_(m-1) by
    splitting on the top digit and grouping the digits with equal sub-masks
    (a prefix mask gives at most m + 1).  A box is one term, with the map
    S diag(d_i) A on factor i, (A, S) the factor kernels.
    """
    analysis, synthesis = (kernel.real for kernel in factor_kernels(alpha, mode))

    def boxes(mask: np.ndarray, level: int) -> list[list[np.ndarray]]:
        if level == 0:
            return [[]] if mask[0] else []
        rows = mask.reshape(4, -1)  # row q: the sub-mask under top digit q
        out = []
        for row in {rows[q].tobytes(): rows[q] for q in range(4) if rows[q].any()}.values():
            digits = (rows == row).all(axis=1)  # the top digits with this sub-mask
            top = synthesis[:, digits] @ analysis[digits]
            out += [lower + [top] for lower in boxes(row, level - 1)]
        return out

    return [(1.0, maps) for maps in boxes(np.asarray(keep, dtype=bool), m)]


def keep_coefficients(x, keep, alpha: float = 0.5, mode: str = PAPER) -> np.ndarray:
    """Resynthesize x (or each matrix of a stack) from its system coefficients where ``keep`` holds.

    ``keep`` is a boolean mask over the 4**m coefficient indices.  This is the
    one coefficient-mask path: partial sums, shell sums and block truncations
    all run through it.
    """
    x = as_stack(x)
    m = level_of_dim(x.shape[-1])
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != (4**m,):
        raise ValueError(f"coefficient mask of shape {keep.shape} does not match level m={m}")
    return system_synthesize(np.where(keep, system_coefficients(x, alpha, mode), 0.0), m, alpha, mode)


def coefficients_to_json(c, m: int) -> dict:
    """Encode a coefficient array as {"m": m, "re": [...], "im": [...]} of length 4**m."""
    c = np.asarray(c, dtype=np.complex128).ravel()
    if c.shape[0] != 4**m:
        raise ValueError(f"expected {4 ** m} coefficients for level m={m}, got {c.shape[0]}")
    return {"m": m, "re": c.real.tolist(), "im": c.imag.tolist()}


def walsh_stack(m: int, alpha: float = 0.5, mode: str = PAPER) -> np.ndarray:
    """All 4**m system matrices as a (4**m, 2**m, 2**m) stack, entry n = w_n.

    One synthesis of the unit coefficient vectors.
    """
    return system_synthesize(np.eye(4**m, dtype=np.complex128), m, alpha, mode)


def gram_matrix(m: int, alpha: float = 0.5, mode: str = PAPER) -> np.ndarray:
    """Normalized-trace Gram matrix of the level-m system (orthonormal in paper mode).

    Entry (a, b) is Tr(w_a* w_b) / 2**m, the product over the factors of
    entry (a_i, b_i) of the one-factor Gram matrix S* S / 2, S the synthesis
    kernel: its m-th Kronecker power, the exact identity in paper mode.
    """
    synthesis = factor_kernels(alpha, mode)[1]
    factor = synthesis.conj().T @ synthesis / 2
    return functools.reduce(kron, [factor] * m, np.ones((1, 1), dtype=np.complex128))
