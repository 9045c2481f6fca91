"""Dense complex matrix kernel: Kronecker products, spectral routines, Schatten
norms, and the per-factor 4x4 maps and coefficient transforms of a stack.

Every matrix handled by this package is a square complex128 numpy array of
dimension 2**m; functions that say so also take a stack of such matrices, an
array of shape (..., 2**m, 2**m), and treat the leading axes as batch axes.
Tensor factor 0 is always the leftmost (major) Kronecker operand, so the row
index of a 2**m dimensional matrix reads as an m-bit string with the factor-0
bit in the most significant position.  This convention is normative for every
module that builds on this one.
"""

from __future__ import annotations

import ctypes
import functools
import math
from pathlib import Path

import numpy as np

MAX_LEVEL = 8
MAX_KRON_DIM = 2**16

__all__ = [
    "MAX_LEVEL",
    "as_matrix",
    "as_stack",
    "level_of_dim",
    "kron",
    "dagger",
    "singular_values",
    "schatten_norm",
    "gns_inner",
    "matrix_to_json",
    "matrix_from_json",
    "apply_factor_maps",
    "factor_coefficients",
    "factor_synthesis",
    "factor_map_matrix",
    "compressed_top_value",
    "gaussian_matrix",
    "task_rng",
    "task_gaussian_stack",
    "pin_blas_threads",
]


def as_matrix(x) -> np.ndarray:
    """Coerce to a square complex128 array."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def as_stack(x) -> np.ndarray:
    """Coerce to a complex128 stack of square matrices, shape (..., d, d)."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    return a


def level_of_dim(dim: int) -> int:
    """Return m with dim == 2**m, rejecting non powers of two."""
    dim = int(dim)
    m = dim.bit_length() - 1
    if dim <= 0 or (1 << m) != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return m


def kron(a, b) -> np.ndarray:
    """Kronecker product with the left operand as the major (slow) index."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape[0] * b.shape[0] > MAX_KRON_DIM:
        raise ValueError(
            f"kron dimension {a.shape[0] * b.shape[0]} exceeds {MAX_KRON_DIM}"
        )
    return np.kron(a, b)


def dagger(x) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(x).conj().T


def singular_values(x) -> np.ndarray:
    """Singular values in descending order, along the last axis for a stack.

    Taken from the SVD of x itself, not from the eigenvalues of x*x: squaring
    lets the small singular values of a column-scaled matrix vanish, since
    eigvalsh resolves them only down to about eps * s_max**2.  Power sums at
    p >= 2 do not need them (see ``schatten_norm``), values at p < 2 do.
    """
    return np.linalg.svd(as_stack(x), compute_uv=False)


# The Gram route takes x* x as it comes while the top term of every matrix
# (lambda_max, or ||G||_F**2 at p = 4) lies in TOP_RANGE.  Otherwise each
# matrix whose largest entry max|re, im| = m * 2**e (1/2 <= m < 1) has e
# outside EXPONENT_RANGE is divided by 2**e first, so that G and |G_ij|**2
# stay normal and finite.
TOP_RANGE = (2.0**-900, 2.0**900)
EXPONENT_RANGE = (-200, 200)
TINY = np.finfo(np.float64).tiny


def _gram_pass(xs: np.ndarray, p: float) -> tuple[np.ndarray, bool]:
    """Schatten p-norms (p > 2) of a (k, d, d) stack from G = x* x, and whether all are in range.

    A norm is in range when its top term (||G||_F**2 = sum s**4 at p = 4,
    else lambda_max) lies in ``TOP_RANGE``.
    """
    g = xs.conj().swapaxes(-1, -2) @ xs
    if p == 4:
        v = g.reshape(len(g), -1).view(np.float64)
        top = (v * v).sum(axis=-1)
        out = np.sqrt(np.sqrt(top))
    else:
        lam = np.linalg.eigvalsh(g)
        top = lam[:, -1]
        if math.isinf(p):
            out = np.sqrt(np.maximum(top, 0.0))
        else:
            # A zero matrix divides by the smallest normal float instead of 0.
            lead = np.maximum(lam[:, -1:], TINY)
            ratios = np.maximum(lam / lead, 0.0)
            out = np.sqrt(lead[:, 0]) * (ratios ** (0.5 * p)).sum(axis=-1) ** (1.0 / p)
    return out, TOP_RANGE[0] <= top.min() and top.max() <= TOP_RANGE[1]


def _gram_norms(xs: np.ndarray, p: float) -> np.ndarray:
    """Schatten p-norms (p > 2) of a non-empty (k, d, d) stack from its Gram matrices.

    One pass on x itself serves when every norm is in range.  Otherwise
    (zero, tiny or huge matrices, or an overflowed G) the stack is taken
    again with each matrix whose exponent leaves ``EXPONENT_RANGE`` divided
    by its power of two 2**e, and that norm multiplied by 2**e.  A power of
    two scales exactly, and every other matrix comes out as in the first pass.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            out, fits = _gram_pass(xs, p)
        if fits:
            return out
    except np.linalg.LinAlgError:
        pass
    exponent = np.frexp(np.abs(xs.reshape(len(xs), -1).view(np.float64)).max(axis=-1))[1]
    low, high = EXPONENT_RANGE
    scale = np.ldexp(1.0, np.where((exponent < low) | (exponent > high), np.minimum(exponent, 1023), 0))
    return scale * _gram_pass(xs / scale[:, np.newaxis, np.newaxis], p)[0]


def schatten_norm(x, p: float):
    """Schatten p-norm (sum of p-th powers of singular values)**(1/p).

    ``p = inf`` returns the operator norm.  Exponents below 1 are rejected.
    A float for one matrix, an array of shape (...) for a (..., d, d) stack.

    The engine depends on p alone:

    * 1 <= p < 2: the singular values of x (``singular_values``).  A sum
      of s**p with p < 2 weighs the small values, which squaring would lose.
    * p = 2: the Frobenius norm of x, no decomposition.
    * p = 4: ||G||_F**(1/2) of the Gram matrix G = x* x, no decomposition.
    * every other p > 2 and p = inf: the eigenvalues lambda = s**2 of G
      (``eigvalsh``), negative rounding clipped to 0.

    At p >= 2 the Gram route is safe: sum s**p = sum lambda(G)**(p/2), and
    the absolute error ~eps * lambda_max of eigvalsh moves each term by at
    most about (p/2) eps lambda_max**(p/2), since p/2 - 1 >= 0 (a negative
    eigenvalue clipped to 0 counts as well).  The sum, at least
    lambda_max**(p/2), thus moves by O(d p eps) relative and its p-th root by
    O(d eps).  G is formed from x scaled by a power of two when x is too
    small or too large for G to stay in the normal float range
    (``_gram_norms``).  At p other than
    1, 2, 4 and inf the top term is factored out, top * (sum (s/top)**p)**(1/p)
    (in lambda: (lambda/lambda_max)**(p/2)), so that the powers stay in
    float range at large p.
    """
    if p < 1:
        raise ValueError(f"Schatten exponent must satisfy p >= 1, got {p}")
    x = as_stack(x)
    # One (k, d, d) path for every shape, so that a matrix alone and in a stack
    # takes the same array operations down to its last bit.
    xs = x.reshape((-1,) + x.shape[-2:])
    if p < 2:
        s = singular_values(xs)
        if p == 1:
            out = s.sum(axis=-1)
        else:
            # A zero matrix divides by the smallest normal float instead of 0.
            top = np.maximum(s[:, :1], TINY)
            out = top[:, 0] * ((s / top) ** p).sum(axis=-1) ** (1.0 / p)
    elif p == 2:
        v = xs.reshape(len(xs), -1).view(np.float64)
        out = np.sqrt((v * v).sum(axis=-1))
    else:
        out = _gram_norms(xs, p) if xs.size else np.zeros(len(xs))
    return float(out[0]) if x.ndim == 2 else out.reshape(x.shape[:-2])


def gns_inner(x, y, a) -> complex:
    """Sesquilinear coupling Tr(x* y a) of two matrices against a density a."""
    x, y, a = as_matrix(x), as_matrix(y), as_matrix(a)
    if not (x.shape == y.shape == a.shape):
        raise ValueError(
            f"dimension mismatch: {x.shape} vs {y.shape} vs {a.shape}"
        )
    return complex(np.einsum("ji,jk,ki->", x.conj(), y, a))


def matrix_to_json(x) -> dict:
    """Encode a matrix as {"m": level, "re": rows, "im": rows}."""
    x = as_matrix(x)
    m = level_of_dim(x.shape[0])
    return {"m": m, "re": x.real.tolist(), "im": x.imag.tolist()}


def matrix_from_json(obj: dict) -> np.ndarray:
    """Decode the matrix JSON schema back into an array."""
    m = int(obj["m"])
    dim = 1 << m
    re = np.asarray(obj["re"], dtype=np.float64)
    im = np.asarray(obj["im"], dtype=np.float64)
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError(
            f"matrix payload shape {re.shape}/{im.shape} does not match m={m}"
        )
    return re + 1j * im


def _to_factor_tensor(x: np.ndarray, m: int) -> np.ndarray:
    """Reshape (..., 2**m, 2**m) into (..., 4, ..., 4): trailing axis i = (row bit, col bit) of factor i."""
    batch = x.shape[:-2]
    b = len(batch)
    t = x.reshape(batch + (2,) * (2 * m))
    order = list(range(b))
    for i in range(m):
        order += [b + i, b + m + i]
    return t.transpose(order).reshape(batch + (4,) * m)


def _from_factor_tensor(t: np.ndarray, m: int) -> np.ndarray:
    batch = t.shape[: t.ndim - m]
    b = len(batch)
    t = t.reshape(batch + (2,) * (2 * m))
    rows = list(range(b, b + 2 * m, 2))
    cols = list(range(b + 1, b + 2 * m, 2))
    return t.transpose(list(range(b)) + rows + cols).reshape(batch + (1 << m, 1 << m))


def _factor_tensor_maps(t: np.ndarray, maps: dict, batch: int) -> np.ndarray:
    """Apply 4x4 maps to chosen factor axes of a factor tensor with ``batch`` leading axes.

    Each map is one tensordot over the whole stack; the result may be a
    non-contiguous view.
    """
    m = t.ndim - batch
    for j, k4 in maps.items():
        if not 0 <= j < m:
            raise ValueError(f"factor index {j} out of range for m={m}")
        t = np.moveaxis(np.tensordot(np.asarray(k4, dtype=np.complex128), t, axes=(1, batch + j)), 0, batch + j)
    return t


def apply_factor_maps(x, maps: dict) -> np.ndarray:
    """Apply 4x4 linear maps to chosen tensor factors of every matrix in a stack.

    ``x`` is one 2**m matrix or a stack of shape (..., 2**m, 2**m); the maps
    act on each matrix and the result has the shape of ``x``.  ``maps`` sends
    factor indices to 4x4 arrays acting on the (row bit, col bit) pair of
    that factor, ordered (00, 01, 10, 11); omitted factors are left alone.
    Each map is one tensordot over the whole stack.  This is the shared
    kernel behind coefficient transforms and slice/pinch channels.
    """
    x = as_stack(x)
    m = level_of_dim(x.shape[-1])
    if m == 0:
        return x.copy()
    return _from_factor_tensor(_factor_tensor_maps(_to_factor_tensor(x, m), maps, x.ndim - 2), m)


def factor_map_matrix(terms, m: int) -> np.ndarray:
    """The (4**m, 4**m) vec-basis matrix of sum_t c_t apply_factor_maps(., dict(enumerate(maps_t))).

    A term (c, maps) holds m real 4x4 maps, factor 0 first; on the factor
    tensor it is c K_0 (x) ... (x) K_(m-1).  The products run from the last
    factor up (the long axis inner), and the real sum is permuted once.
    """
    total = np.zeros((4**m, 4**m))
    for c, maps in terms:
        term = np.full((1, 1), float(c))
        for k in reversed(maps):
            term = (np.asarray(k, dtype=np.float64)[:, None, :, None] * term[None, :, None, :]).reshape(4 * len(term), -1)
        total += term
    order = _from_factor_tensor(np.arange(4**m).reshape((4,) * m), m).ravel()  # vec slot -> factor-tensor slot
    return total.take(order[:, np.newaxis] * 4**m + order).astype(np.complex128)


def _coefficient_order(m: int, batch: int) -> tuple[int, ...]:
    # factor-tensor axis i carries q_i; the flat slot is n = sum q_i 4**i,
    # so q_0 must vary fastest and the factor axes are flattened in reverse.
    # The permutation is its own inverse; leading batch axes stay in place.
    return tuple(range(batch)) + tuple(batch + i for i in reversed(range(m)))


def factor_coefficients(x, kernel) -> np.ndarray:
    """Coefficients of each matrix in a (..., 2**m, 2**m) stack, shape (..., 4**m).

    One 4x4 analysis ``kernel`` acts on every factor; factor i gives digit q_i of slot n = sum q_i 4**i.
    """
    x = as_stack(x)
    m = level_of_dim(x.shape[-1])
    batch = x.shape[:-2]
    t = _factor_tensor_maps(_to_factor_tensor(x, m), dict.fromkeys(range(m), kernel), len(batch))
    t = t.transpose(_coefficient_order(m, len(batch)))
    return np.ascontiguousarray(t).reshape(batch + (4**m,))


def factor_synthesis(c, m: int, kernels) -> np.ndarray:
    """A (..., 4**m) coefficient stack to (..., 2**m, 2**m) with one 4x4 synthesis kernel per factor.

    With ``m`` copies of the inverse of an analysis kernel this inverts
    ``factor_coefficients`` with that kernel.
    """
    c = np.asarray(c, dtype=np.complex128)
    if c.ndim == 0 or c.shape[-1] != 4**m:
        raise ValueError(f"expected {4 ** m} coefficients for level m={m}, got shape {c.shape}")
    batch = c.shape[:-1]
    t = np.ascontiguousarray(c.reshape(batch + (4,) * m).transpose(_coefficient_order(m, len(batch))))
    return _from_factor_tensor(_factor_tensor_maps(t, dict(enumerate(kernels)), len(batch)), m)


def compressed_top_value(mat: np.ndarray, root: np.ndarray, basis: np.ndarray) -> float:
    """Top singular value of S = diag(root) mat diag(root)^-1 from its rows on a basis of its range.

    The value is the operator norm of ``mat`` for the inner product
    sum_k root_k**2 conj(x_k) y_k.  The r rows of ``basis`` must be
    orthonormal for that inner product and span a space that holds the range
    of ``mat``; then the vectors root * basis_k are orthonormal and hold the
    range of S, so ||S|| is the top singular value of the r x N matrix
    (root * basis)* S, at O(N**2 r) cost instead of the O(N**3) of S's own
    Gram matrix.  That value comes from the top eigenvalue of the r x r Gram
    matrix, scaled into float range if need be.
    """
    rows = ((basis.conj() * (root * root)) @ mat) / root
    return float(_gram_norms(rows.conj().T[np.newaxis], np.inf)[0])


def gaussian_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Complex standard Gaussian matrix (independent re/im parts)."""
    return (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)


def _task_key(seed: int, ids) -> np.ndarray:
    """Philox key of (seed, task ids): the seed word and one word folded from the ids."""
    mask = 0xFFFFFFFFFFFFFFFF
    word = 0
    for i in ids:
        word = ((word * 0x9E3779B97F4A7C15) + int(i) + 1) & mask
    return np.array([int(seed) & mask, word], dtype=np.uint64)


def task_rng(seed: int, *ids: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, task ids).

    Streams depend only on the key, never on draw order across tasks, so
    sweeps give identical results for any worker count.
    """
    return np.random.Generator(np.random.Philox(key=_task_key(seed, ids)))


def task_gaussian_stack(dim: int, seed: int, count: int, start: int = 0) -> np.ndarray:
    """The stack of ``gaussian_matrix(dim, task_rng(seed, k))`` for start <= k < start + count, bit for bit.

    One Philox generator serves every k: its fresh state (counter 0, empty
    buffer), the state ``task_rng`` starts from, is set again with the key of
    ``(seed, k)``, and it fills the real and imaginary parts as one
    (2, dim, dim) draw.
    """
    bits = np.random.Philox(key=0)
    gen = np.random.Generator(bits)
    fresh = bits.state
    parts = np.empty((count, 2, dim, dim))
    for k in range(count):
        fresh["state"]["key"] = _task_key(seed, (start + k,))
        bits.state = fresh
        gen.standard_normal(out=parts[k])
    return (parts[:, 0] + 1j * parts[:, 1]) / np.sqrt(2.0)


@functools.cache
def _openblas():
    """numpy's BLAS name, and OpenBLAS's (set, get) thread-count functions or None.

    numpy's wheels bundle OpenBLAS as a ``*openblas*`` file in ``numpy.libs``
    with ``scipy_openblas_*64_`` symbols (older builds: ``openblas_*64_`` or
    ``openblas_*``).  Looked up once per process.
    """
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        name = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            setter = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if setter is not None:
                getter = getattr(handle, f"{prefix}_get_num_threads{suffix}")
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return name, (setter, getter)
    return name, None


def pin_blas_threads() -> tuple[str, int | None]:
    """Run numpy's OpenBLAS on one thread; returns numpy's BLAS name and its
    thread count, None when the BLAS is not OpenBLAS (then nothing changes).

    The norms here are many small dense products, where a second BLAS thread
    spins rather than helps.  ``cli.run_command`` calls this before every
    command; importing walshlab leaves the thread state alone.
    """
    name, openblas = _openblas()
    if openblas is None:
        return name, None
    setter, getter = openblas
    setter(1)
    return name, getter()
