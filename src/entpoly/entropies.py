"""Parameterized entropy functionals of a density matrix.

Implemented families, all evaluated from the validated, clipped spectrum of
:func:`density_spectrum`, so every entry point and every order rejects the
same inputs:

* ``f_q``:       1 - Tr(rho^q) for q >= 2
* ``unified``:   [(Tr rho^r)^s - 1] / ((1-r) s) for r, s >= 0
* ``renyi``:     log2(Tr rho^r) / (1-r)
* ``tsallis``:   (Tr rho^r - 1) / (1-r)
* ``von_neumann``: -Tr rho log2 rho
* ``renyi0``:    log2(rank)

Limit dispatch: a unified entropy with s within 1e-9 of 0 evaluates the
Renyi entropy, and unified/Renyi/Tsallis with r within 1e-9 of 1 evaluate
the von Neumann entropy.  Renyi and von Neumann use base-2 logarithms, so
the generic unified formula (which is algebraic and converges to natural-log
limits) approaches ln(2) times the dispatched value near r = 1 or s = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .tensor import hermitian_eigenvalues

LIMIT_TOL = 1e-9  # width of the parameter band that triggers limit dispatch
PSD_TOL = 1e-9    # eigenvalues below -PSD_TOL mean the input is not a density
LOG_EPS = 1e-12   # eigenvalues at or below this are dropped inside logarithms
RANK_TOL = 1e-9   # rank counts eigenvalues above this

ENTROPY_KINDS = ("fq", "unified", "renyi", "tsallis", "vn", "renyi0")


def density_spectrum(rho) -> np.ndarray:
    """Validated, clipped, ascending spectrum of a density matrix.

    Rejects non-Hermitian input, trace away from 1, and eigenvalues below
    ``-PSD_TOL``; eigenvalues in [-PSD_TOL, 0) are treated as roundoff and
    clipped to 0.
    """
    vals = hermitian_eigenvalues(rho)
    if abs(float(np.sum(vals)) - 1.0) > 1e-9:
        raise InvalidInputError("matrix does not have unit trace")
    if float(vals[0]) < -PSD_TOL:
        raise InvalidInputError(
            f"matrix is not positive semidefinite: min eigenvalue {vals[0]:.3e}")
    return np.clip(vals, 0.0, None)


def _power_sum(w: np.ndarray, r: float) -> float:
    # Tr(rho^r) from the clipped spectrum; r = 0 counts the rank.
    if r == 0.0:
        return float(np.count_nonzero(w > RANK_TOL))
    pos = w[w > 0.0]
    return float(np.sum(pos**r))


def fq_from_spectrum(w, q: float) -> float:
    if q < 2:
        raise InvalidInputError(f"f_q requires q >= 2, got {q}")
    return 1.0 - _power_sum(np.asarray(w, dtype=float), q)


def von_neumann_from_spectrum(w) -> float:
    w = np.asarray(w, dtype=float)
    w = w[w > LOG_EPS]
    return float(-(w @ np.log2(w)))


def renyi0_from_spectrum(w) -> float:
    rank = np.count_nonzero(np.asarray(w, dtype=float) > RANK_TOL)
    if rank == 0:
        raise InvalidInputError("zero spectrum has no rank entropy")
    return math.log2(rank)


def renyi_from_spectrum(w, r: float) -> float:
    if r < 0:
        raise InvalidInputError(f"Renyi entropy requires r >= 0, got {r}")
    if abs(r - 1.0) <= LIMIT_TOL:
        return von_neumann_from_spectrum(w)
    if r == 0.0:
        return renyi0_from_spectrum(w)
    return math.log2(_power_sum(np.asarray(w, dtype=float), r)) / (1.0 - r)


def tsallis_from_spectrum(w, r: float) -> float:
    if r <= 0:
        raise InvalidInputError(f"Tsallis entropy requires r > 0, got {r}")
    if abs(r - 1.0) <= LIMIT_TOL:
        return von_neumann_from_spectrum(w)
    return (_power_sum(np.asarray(w, dtype=float), r) - 1.0) / (1.0 - r)


def unified_from_spectrum(w, r: float, s: float) -> float:
    if r < 0 or s < 0:
        raise InvalidInputError(f"unified entropy requires r, s >= 0, got r={r}, s={s}")
    if abs(r - 1.0) <= LIMIT_TOL:
        return von_neumann_from_spectrum(w)
    if abs(s) <= LIMIT_TOL:
        return renyi_from_spectrum(w, r)
    t = _power_sum(np.asarray(w, dtype=float), r)
    return (t**s - 1.0) / ((1.0 - r) * s)


def f_q(rho, q: float) -> float:
    """1 - Tr(rho^q), zero on pure states, approaching 1 on maximally mixed ones."""
    return fq_from_spectrum(density_spectrum(rho), q)


def unified_entropy(rho, r: float, s: float) -> float:
    """Two-parameter entropy interpolating Renyi (s->0) and Tsallis (s->1)."""
    return unified_from_spectrum(density_spectrum(rho), r, s)


def renyi(rho, r: float) -> float:
    """Renyi entropy in bits; r within 1e-9 of 1 evaluates von Neumann."""
    return renyi_from_spectrum(density_spectrum(rho), r)


def tsallis(rho, r: float) -> float:
    """Tsallis entropy; r within 1e-9 of 1 evaluates von Neumann."""
    return tsallis_from_spectrum(density_spectrum(rho), r)


def von_neumann(rho) -> float:
    """von Neumann entropy -Tr(rho log2 rho) in bits, with 0 log 0 := 0."""
    return von_neumann_from_spectrum(density_spectrum(rho))


def renyi0(rho) -> float:
    """log2 of the rank (eigenvalues above 1e-9)."""
    return renyi0_from_spectrum(density_spectrum(rho))


@dataclass(frozen=True)
class EntropyParams:
    """Which entropy functional to evaluate, plus its parameters."""

    kind: str
    q: float | None = None
    r: float | None = None
    s: float | None = None

    def __post_init__(self):
        if self.kind not in ENTROPY_KINDS:
            raise InvalidInputError(f"unknown entropy kind {self.kind!r}")
        if self.kind == "fq":
            if self.q is None or self.q < 2:
                raise InvalidInputError("fq needs q >= 2")
        elif self.kind == "unified":
            if self.r is None or self.s is None or self.r < 0 or self.s < 0:
                raise InvalidInputError("unified needs r >= 0 and s >= 0")
        elif self.kind == "renyi":
            if self.r is None or self.r < 0:
                raise InvalidInputError("renyi needs r >= 0")
        elif self.kind == "tsallis":
            if self.r is None or self.r <= 0:
                raise InvalidInputError("tsallis needs r > 0")

    def of_spectrum(self, w) -> float:
        if self.kind == "fq":
            return fq_from_spectrum(w, self.q)
        if self.kind == "unified":
            return unified_from_spectrum(w, self.r, self.s)
        if self.kind == "renyi":
            return renyi_from_spectrum(w, self.r)
        if self.kind == "tsallis":
            return tsallis_from_spectrum(w, self.r)
        if self.kind == "vn":
            return von_neumann_from_spectrum(w)
        return renyi0_from_spectrum(w)

    def of_matrix(self, rho) -> float:
        if self.kind == "fq":
            return f_q(rho, self.q)
        if self.kind == "unified":
            return unified_entropy(rho, self.r, self.s)
        if self.kind == "renyi":
            return renyi(rho, self.r)
        if self.kind == "tsallis":
            return tsallis(rho, self.r)
        if self.kind == "vn":
            return von_neumann(rho)
        return renyi0(rho)
