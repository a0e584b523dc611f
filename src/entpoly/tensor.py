"""Linear algebra for heterogeneous multi-qudit systems.

Sites are numbered left to right; site 0 is the leftmost (most significant)
tensor factor in the row-major flattening of state vectors and operators.
All functions are pure and never mutate their arguments.

A pure state is reduced only to its spectrum, by :func:`schmidt_spectrum`
(one SVD across the cut); no reduced density matrix is formed.  The dense
operators :func:`kron`, :func:`partial_trace` and :func:`partial_transpose`
build and reduce explicit density matrices: the references the spectral
path is tested against.

Every pure-state input passes one entry check: :func:`as_int` is the only
integer rule (dims, site indices, counts), :func:`as_dims` the only dims
check (with its ``MAX_STATE_DIM`` cap), and ``_pure_block`` the only
amplitude check (length, finiteness, and the norm band, with the one norm
formula of ``_norms``).
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import InvalidInputError
from .tolerances import HERMITIAN_TOL, NORM_TOL

# Largest pure-state vector accepted, in amplitudes (256 MiB of complex128):
# a larger product of dims is refused before anything is allocated.
MAX_STATE_DIM = 2**24


def as_int(value, what: str) -> int:
    """An integral value (int, numpy integer), never a float or a string."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{what} must be an integer, got {value!r}") from None


def as_dims(dims) -> tuple[int, ...]:
    """Validate a per-site dimension list: integers >= 2 with product at most ``MAX_STATE_DIM``.

    The product is checked entry by entry, so a lazy iterable of any length
    is refused after at most log2(``MAX_STATE_DIM``) + 1 entries.
    """
    out, size = [], 1
    for d in dims:
        d = as_int(d, "site dimension")
        if d < 2:
            raise InvalidInputError(f"site dimensions must all be >= 2, got {d}")
        size *= d
        if size > MAX_STATE_DIM:
            raise InvalidInputError(
                f"the product of the site dimensions exceeds MAX_STATE_DIM "
                f"({MAX_STATE_DIM} amplitudes)")
        out.append(d)
    if not out:
        raise InvalidInputError("a state needs at least one site")
    return tuple(out)


def as_sites(sites, num_sites: int) -> tuple[int, ...]:
    """Normalize a duplicate-free site selection to a sorted tuple."""
    out = tuple(sorted(as_int(j, "site index") for j in sites))
    if any(j < 0 or j >= num_sites for j in out):
        raise InvalidInputError(
            f"site index out of range for {num_sites} sites: {list(sites)}")
    if len(set(out)) != len(out):
        raise InvalidInputError(f"duplicate site indices in {list(sites)}")
    return out


def _square(mat, expected: int | None = None) -> np.ndarray:
    a = np.asarray(mat, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {a.shape}")
    if expected is not None and a.shape[0] != expected:
        raise InvalidInputError(
            f"matrix dimension {a.shape[0]} does not match the product "
            f"of the site dimensions ({expected})")
    return a


def is_hermitian(mat, tol: float = HERMITIAN_TOL) -> bool:
    a = np.asarray(mat)
    return bool(np.max(np.abs(a - a.conj().T)) <= tol)


def kron(a, b) -> np.ndarray:
    """Kronecker product with the left factor most significant."""
    return np.kron(np.asarray(a, dtype=np.complex128),
                   np.asarray(b, dtype=np.complex128))


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out every site not in ``keep``.

    Preserves the trace, and Hermiticity of Hermitian inputs.  ``keep`` may
    be empty (returns the 1x1 matrix ``[[Tr rho]]``) or the full site set
    (returns a copy).
    """
    dims = as_dims(dims)
    n = len(dims)
    keep = as_sites(keep, n)
    a = _square(rho, math.prod(dims))
    traced = tuple(j for j in range(n) if j not in keep)
    if not traced:
        return a.copy()
    perm = keep + traced
    dk = math.prod(dims[j] for j in keep) if keep else 1
    dt = math.prod(dims[j] for j in traced)
    t = a.reshape(dims + dims).transpose(perm + tuple(n + p for p in perm))
    return np.einsum("atbt->ab", t.reshape(dk, dt, dk, dt))


def _norms(v) -> np.ndarray:
    # the norm of each row, from the sum np.linalg.norm forms for one complex vector
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


def _pure_block(amplitudes, dims, tol: float = NORM_TOL) -> np.ndarray:
    # one state vector, or a (T, D) batch, with every row finite and its norm within tol of 1
    size = math.prod(dims)
    v = np.asarray(amplitudes, dtype=np.complex128)
    v = v.reshape(v.shape[:1] + (-1,) if v.ndim == 2 else (-1,))
    if v.shape[-1] != size:
        raise InvalidInputError(
            f"amplitude vector length {v.shape[-1]} does not match the product "
            f"of the site dimensions ({size})")
    err = np.abs(_norms(v) - 1.0)
    if np.count_nonzero(err <= tol) != err.size:  # a non-finite amplitude gives a NaN or inf norm
        if not np.isfinite(v).all():
            raise InvalidInputError("amplitudes must be finite")
        raise InvalidInputError(f"state is not normalized: |norm-1| = {err.max():.3e}")
    return v


def _cut_spectrum(v, dims, keep) -> np.ndarray:
    # ascending squared singular values of each row of validated amplitudes
    # reshaped to (kept dimension, traced dimension), zero-padded
    traced = tuple(j for j in range(len(dims)) if j not in keep)
    dk = math.prod(dims[j] for j in keep)
    batch = v.shape[:-1]
    axes = tuple(range(len(batch))) + tuple(len(batch) + j for j in keep + traced)
    m = v.reshape(batch + dims).transpose(axes).reshape(batch + (dk, -1))
    sv = np.linalg.svd(m, compute_uv=False)
    w = np.zeros(m.shape[:-1])
    w[..., m.shape[-2] - sv.shape[-1]:] = np.square(sv[..., ::-1])
    return w


def schmidt_spectrum(amplitudes, dims, keep) -> np.ndarray:
    """Ascending spectrum of the reduced state of a pure state on ``keep``.

    The squared singular values of the amplitudes reshaped across the cut
    (the squared Schmidt coefficients), zero-padded to the kept dimension.
    No density is formed, and small eigenvalues keep their accuracy (a
    singular value of 1e-10 squares to 1e-20, where an eigensolver of the
    reduced state returns roundoff).

    A 2-D ``amplitudes`` is a batch of T state vectors, one per row: every
    row is validated, one batched SVD runs, and row t of the (T, kept) result
    equals the spectrum of row t alone.
    """
    dims = as_dims(dims)
    return _cut_spectrum(_pure_block(amplitudes, dims), dims, as_sites(keep, len(dims)))


def partial_transpose(rho, dims, subset) -> np.ndarray:
    """Transpose the indices of ``subset`` sites only (an involution)."""
    dims = as_dims(dims)
    n = len(dims)
    subset = as_sites(subset, n)
    a = _square(rho, math.prod(dims))
    axes = list(range(2 * n))
    for j in subset:
        axes[j], axes[n + j] = axes[n + j], axes[j]
    d = a.shape[0]
    return a.reshape(dims + dims).transpose(axes).reshape(d, d)


def _hermitian(h) -> np.ndarray:
    a = _square(h)
    if not is_hermitian(a):
        raise InvalidInputError("matrix is not Hermitian within tolerance")
    return a


def hermitian_eigenvalues(h) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix (LAPACK ``eigvalsh``)."""
    return np.linalg.eigvalsh(_hermitian(h))


def hermitian_eigensystem(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and matching eigenvector columns (LAPACK ``eigh``)."""
    return np.linalg.eigh(_hermitian(h))
