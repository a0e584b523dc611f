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

Each ``*_from_spectrum`` function checks its own (finite) parameter domain
and reduces over the last axis: one spectrum gives a float, a stack of
spectra an array of values.  :class:`EntropyParams` reaches them only
through ``_ENTROPY_TABLE``.

Limit dispatch: a unified entropy with s within ``LIMIT_TOL`` of 0
evaluates the Renyi entropy, and unified/Renyi/Tsallis with r within
``LIMIT_TOL`` of 1 evaluate the von Neumann entropy.  Renyi and von Neumann
use base-2 logarithms, so the generic unified formula (which is algebraic
and converges to natural-log limits) approaches ln(2) times the dispatched
value near r = 1 or s = 0.  Tolerances live in :mod:`entpoly.tolerances`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .tensor import hermitian_eigenvalues
from .tolerances import EIG_RANK_EPS, LIMIT_TOL, LOG_EPS, PSD_TOL, RANK_TOL, TRACE_TOL


def density_spectrum(rho) -> np.ndarray:
    """Validated, clipped, ascending spectrum of a density matrix.

    Rejects non-Hermitian input, trace away from 1, and eigenvalues below
    ``-PSD_TOL``; eigenvalues in [-PSD_TOL, 0) are treated as roundoff and
    clipped to 0.  Eigenvalues at or below ``dim * EIG_RANK_EPS * max`` are
    roundoff, which orders r < 1 would lift far above roundoff: they become 0.
    """
    vals = hermitian_eigenvalues(rho)
    if abs(float(np.sum(vals)) - 1.0) > TRACE_TOL:
        raise InvalidInputError("matrix does not have unit trace")
    if float(vals[0]) < -PSD_TOL:
        raise InvalidInputError(
            f"matrix is not positive semidefinite: min eigenvalue {vals[0]:.3e}")
    vals = np.clip(vals, 0.0, None)
    vals[vals <= vals.size * EIG_RANK_EPS * vals[-1]] = 0.0
    return vals


def _value(x):
    # one spectrum gives a Python float, a batch of spectra an array
    return float(x) if x.ndim == 0 else x


def _power_sum(w: np.ndarray, r: float):
    # Tr(rho^r) of each spectrum along the last axis; r = 0 counts the rank.
    if r == 0.0:
        return (w > RANK_TOL).sum(axis=-1)
    return (np.fmax(w, 0.0) ** r).sum(axis=-1)  # nonpositive entries add 0


def fq_from_spectrum(w, q: float):
    if not 2 <= q < math.inf:
        raise InvalidInputError(f"f_q requires a finite q >= 2, got {q}")
    return _value(1.0 - _power_sum(np.asarray(w, dtype=float), q))


def von_neumann_from_spectrum(w):
    w = np.asarray(w, dtype=float)
    w = np.where(w > LOG_EPS, w, 1.0)  # 1 log 1 = 0 stands in for dropped eigenvalues
    return _value(-np.vecdot(w, np.log2(w)))


def renyi0_from_spectrum(w):
    rank = (np.asarray(w, dtype=float) > RANK_TOL).sum(axis=-1)
    if np.count_nonzero(rank == 0):
        raise InvalidInputError("zero spectrum has no rank entropy")
    return _value(np.log2(rank))


def renyi_from_spectrum(w, r: float):
    if not 0 <= r < math.inf:
        raise InvalidInputError(f"Renyi entropy requires a finite r >= 0, got {r}")
    if abs(r - 1.0) <= LIMIT_TOL:
        return von_neumann_from_spectrum(w)
    if r == 0.0:
        return renyi0_from_spectrum(w)
    return _value(np.log2(_power_sum(np.asarray(w, dtype=float), r)) / (1.0 - r))


def tsallis_from_spectrum(w, r: float):
    if not 0 < r < math.inf:
        raise InvalidInputError(f"Tsallis entropy requires a finite r > 0, got {r}")
    if abs(r - 1.0) <= LIMIT_TOL:
        return von_neumann_from_spectrum(w)
    return _value((_power_sum(np.asarray(w, dtype=float), r) - 1.0) / (1.0 - r))


def unified_from_spectrum(w, r: float, s: float):
    if not (0 <= r < math.inf and 0 <= s < math.inf):
        raise InvalidInputError(f"unified entropy requires finite r, s >= 0, got r={r}, s={s}")
    if abs(r - 1.0) <= LIMIT_TOL:
        return von_neumann_from_spectrum(w)
    if abs(s) <= LIMIT_TOL:
        return renyi_from_spectrum(w, r)
    t = _power_sum(np.asarray(w, dtype=float), r)
    return _value((t**s - 1.0) / ((1.0 - r) * s))


def f_q(rho, q: float) -> float:
    """1 - Tr(rho^q), zero on pure states, approaching 1 on maximally mixed ones."""
    return fq_from_spectrum(density_spectrum(rho), q)


def unified_entropy(rho, r: float, s: float) -> float:
    """Two-parameter entropy interpolating Renyi (s->0) and Tsallis (s->1)."""
    return unified_from_spectrum(density_spectrum(rho), r, s)


def renyi(rho, r: float) -> float:
    """Renyi entropy in bits; r within ``LIMIT_TOL`` of 1 evaluates von Neumann."""
    return renyi_from_spectrum(density_spectrum(rho), r)


def tsallis(rho, r: float) -> float:
    """Tsallis entropy; r within ``LIMIT_TOL`` of 1 evaluates von Neumann."""
    return tsallis_from_spectrum(density_spectrum(rho), r)


def von_neumann(rho) -> float:
    """von Neumann entropy -Tr(rho log2 rho) in bits, with 0 log 0 := 0."""
    return von_neumann_from_spectrum(density_spectrum(rho))


def renyi0(rho) -> float:
    """log2 of the rank (eigenvalues above ``RANK_TOL``)."""
    return renyi0_from_spectrum(density_spectrum(rho))


# kind -> (parameter names in q, r, s order, functional of the spectrum)
_ENTROPY_TABLE = {
    "fq": (("q",), fq_from_spectrum),
    "unified": (("r", "s"), unified_from_spectrum),
    "renyi": (("r",), renyi_from_spectrum),
    "tsallis": (("r",), tsallis_from_spectrum),
    "vn": ((), von_neumann_from_spectrum),
    "renyi0": ((), renyi0_from_spectrum),
}
ENTROPY_KINDS = tuple(_ENTROPY_TABLE)


@dataclass(frozen=True)
class EntropyParams:
    """Which entropy functional to evaluate, plus its parameters."""

    kind: str
    q: float | None = None
    r: float | None = None
    s: float | None = None

    def __post_init__(self):
        if self.kind not in _ENTROPY_TABLE:
            raise InvalidInputError(f"unknown entropy kind {self.kind!r}")
        names, functional = _ENTROPY_TABLE[self.kind]
        given = tuple(n for n in ("q", "r", "s") if getattr(self, n) is not None)
        if given != names:
            raise InvalidInputError(
                f"{self.kind} takes parameters ({', '.join(names)}), got ({', '.join(given)})")
        # evaluated once on a pure spectrum, the functional checks its domain
        functional(np.ones(1), *(getattr(self, n) for n in names))

    def of_spectrum(self, w) -> float:
        names, functional = _ENTROPY_TABLE[self.kind]
        return functional(w, *(getattr(self, n) for n in names))

    def of_matrix(self, rho) -> float:
        return self.of_spectrum(density_spectrum(rho))
