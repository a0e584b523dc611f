"""Polygon, triangle and bipartition inequality checkers plus indicators.

A violated inequality is returned as data, never raised: the randomized
search treats the satisfied/violated status as an observation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .measures import (
    Bipartition,
    MeasureSpec,
    cut_spectrum,
    marginal_vector,
    marginal_vector_from_spectra,
    site_spectra,
    value_from_spectrum,
)
from .entropies import renyi0_from_spectrum, renyi_from_spectrum
from .states import MultiQuditState
from .tolerances import DEFAULT_TOL


@dataclass(frozen=True)
class InequalityResult:
    """Two sides of an inequality lhs <= rhs and its slack."""

    lhs: float
    rhs: float
    margin: float
    satisfied: bool
    tol: float

    @staticmethod
    def of(lhs: float, rhs: float, tol: float) -> "InequalityResult":
        if not math.isfinite(tol):
            raise InvalidInputError(f"tol must be finite, got {tol}")
        margin = rhs - lhs
        return InequalityResult(lhs, rhs, margin, margin >= -tol, tol)


@dataclass(frozen=True)
class IndicatorResult:
    """Minimum slack and the site (or cut index) attaining it."""

    value: float
    argmin_site: int


def polygon_check(mv, j: int, tol: float = DEFAULT_TOL) -> InequalityResult:
    """mv[j] <= sum of the other entries (the polygon side bound)."""
    mv = np.asarray(mv, dtype=float)
    if mv.size == 0:
        raise InvalidInputError("marginal vector is empty")
    if j < 0 or j >= mv.size:
        raise InvalidInputError(f"site {j} out of range for {mv.size} marginals")
    lhs = float(mv[j])
    rhs = float(np.sum(mv) - mv[j])
    return InequalityResult.of(lhs, rhs, tol)


def triangle_check(mv, i: int, tol: float = DEFAULT_TOL):
    """Lower and upper triangle bounds on side i of a three-site marginal vector."""
    mv = np.asarray(mv, dtype=float)
    if mv.size != 3:
        raise InvalidInputError(f"triangle_check needs exactly 3 marginals, got {mv.size}")
    if i < 0 or i > 2:
        raise InvalidInputError(f"site {i} out of range for a three-site state")
    j, k = [t for t in range(3) if t != i]
    lower = InequalityResult.of(abs(float(mv[j]) - float(mv[k])), float(mv[i]), tol)
    upper = InequalityResult.of(float(mv[i]), float(mv[j]) + float(mv[k]), tol)
    return lower, upper


def renyi_mixed_check(psi: MultiQuditState, i: int, r: float,
                      tol: float = DEFAULT_TOL):
    """Renyi triangle bounds mixing order r with the log-rank entropy.

    For a three-site pure state and remaining sites j < k, checks
    R_r(rho_j) - R_0(rho_k) <= R_r(rho_i) <= R_r(rho_j) + R_0(rho_k).

    The lower bound keeps the signed difference: weak subadditivity does
    not bound R_0(rho_k) - R_r(rho_j), and the absolute-value form is
    genuinely violated on heterogeneous site dimensions (the log-rank term
    can exceed both Renyi terms).
    """
    MeasureSpec.renyi(r)  # raises outside the renyi measure's domain
    if psi.num_sites != 3:
        raise InvalidInputError("renyi_mixed_check needs a three-site state")
    if i < 0 or i > 2:
        raise InvalidInputError(f"site {i} out of range for a three-site state")
    spectra = site_spectra(psi)
    j, k = [t for t in range(3) if t != i]
    r_i = renyi_from_spectrum(spectra[i], r)
    r_j = renyi_from_spectrum(spectra[j], r)
    r0_k = renyi0_from_spectrum(spectra[k])
    lower = InequalityResult.of(r_j - r0_k, r_i, tol)
    upper = InequalityResult.of(r_i, r_j + r0_k, tol)
    return lower, upper


def bipartition_check(psi: MultiQuditState, cut: Bipartition, spec: MeasureSpec,
                      tol: float = DEFAULT_TOL) -> InequalityResult:
    """Cut measure <= sum of one-to-group marginals over the side_a sites."""
    if not spec.is_entropy_based:
        raise InvalidInputError("bipartition_check needs an entropy-based measure")
    cut.validate_for(psi.num_sites)
    lhs = value_from_spectrum(spec, cut_spectrum(psi, cut))
    mv = marginal_vector(psi, spec)
    rhs = float(sum(mv[j] for j in cut.side_a))
    return InequalityResult.of(lhs, rhs, tol)


def bipartition_margins(psi: MultiQuditState, cuts, specs,
                        tol: float = DEFAULT_TOL) -> list[list[InequalityResult]]:
    """Batch form of :func:`bipartition_check`: results[cut_index][spec_index].

    Computes each cut spectrum and the single-site spectra once and reuses
    them across specs, which is what the fuzz suites need.
    """
    spectra = site_spectra(psi)
    mvs = [marginal_vector_from_spectra(spectra, spec) for spec in specs]
    out = []
    for cut in cuts:
        w = cut_spectrum(psi, cut)
        row = []
        for spec, mv in zip(specs, mvs):
            lhs = value_from_spectrum(spec, w)
            rhs = float(sum(mv[j] for j in cut.side_a))
            row.append(InequalityResult.of(lhs, rhs, tol))
        out.append(row)
    return out


def tau_indicator(psi: MultiQuditState, spec: MeasureSpec) -> IndicatorResult:
    """Minimum polygon slack over all sites: min_j (sum_{k!=j} E_k - E_j)."""
    if psi.num_sites < 2:
        raise InvalidInputError("the indicator needs at least 2 sites")
    mv = marginal_vector(psi, spec)
    slacks = float(np.sum(mv)) - 2.0 * mv
    j = int(np.argmin(slacks))
    return IndicatorResult(float(slacks[j]), j)


def default_tau_hat_cuts(num_sites: int) -> list[Bipartition]:
    """Every cut with at least two sites on side_a (both orientations).

    Single-site sides are omitted: their slack reduces to a plain polygon
    term.
    """
    if num_sites < 3:
        return [Bipartition.of((0,), num_sites)] if num_sites == 2 else []
    cuts = []
    for size in range(2, num_sites):
        for side in itertools.combinations(range(num_sites), size):
            cuts.append(Bipartition.of(side, num_sites))
    return cuts


def tau_hat_indicator(psi: MultiQuditState, cuts, spec: MeasureSpec) -> IndicatorResult:
    """Minimum bipartition slack over the given cuts (default: all with |A| >= 2).

    ``argmin_site`` is the index into the cut sequence.
    """
    if cuts is None:
        cuts = default_tau_hat_cuts(psi.num_sites)
    cuts = list(cuts)
    if not cuts:
        raise InvalidInputError("tau_hat_indicator needs at least one cut")
    mv = marginal_vector(psi, spec)
    best_val, best_idx = None, -1
    for idx, cut in enumerate(cuts):
        cut.validate_for(psi.num_sites)
        lhs = value_from_spectrum(spec, cut_spectrum(psi, cut))
        slack = float(sum(mv[j] for j in cut.side_a)) - lhs
        if best_val is None or slack < best_val:
            best_val, best_idx = slack, idx
    return IndicatorResult(best_val, best_idx)


def product_structure_oracle(psi: MultiQuditState, tol: float = DEFAULT_TOL) -> bool:
    """True when the state factorizes across some one-vs-rest cut.

    Direct test: some single-site marginal has purity 1 (within tol),
    independent of any indicator computation.
    """
    for w in site_spectra(psi):
        if 1.0 - float(np.sum(np.square(w))) < tol:
            return True
    return False


def eof_product_test(psi: MultiQuditState, tol: float = DEFAULT_TOL) -> bool:
    """True when the EOF indicator vanishes, i.e. the state is a product.

    For three-site pure states a zero indicator is equivalent to product
    structure across some cut (see :func:`product_structure_oracle` for the
    direct test).
    """
    if psi.num_sites != 3:
        raise InvalidInputError("eof_product_test is defined for three-site states")
    return tau_indicator(psi, MeasureSpec.eof()).value < tol
