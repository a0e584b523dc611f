"""Polygon, triangle and bipartition inequality checkers plus indicators.

A violated inequality is returned as data, never raised: the randomized
search treats the satisfied/violated status as an observation.  Each of
:func:`polygon_margins`, :func:`renyi_mixed_bounds` (both over a block of
states) and :func:`bipartition_margins` makes one
:func:`~entpoly.measures.cut_values` call; the other checks reduce theirs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .measures import Bipartition, MeasureSpec, cut_values, site_spectra
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


def renyi_mixed_bounds(amplitudes, dims, r: float):
    """Both sides of :func:`renyi_mixed_check` for a (T, D) block of three-site states.

    lhs and rhs are (T, 3, 2): [t, i, 0] is site i's lower bound, [t, i, 1] its upper.
    """
    if len(dims) != 3:
        raise InvalidInputError("renyi_mixed_check needs a three-site state")
    # MeasureSpec.renyi raises outside the renyi measure's domain
    values = cut_values(amplitudes, dims, [MeasureSpec.renyi(r), MeasureSpec.renyi(0)],
                        [(0,), (1,), (2,)])
    rr, r0 = values[:, 0], values[:, 1]
    j, k = [1, 0, 0], [2, 2, 1]  # the remaining sites j < k of each site i
    return (np.stack([rr[:, j] - r0[:, k], rr], axis=-1),
            np.stack([rr, rr[:, j] + r0[:, k]], axis=-1))


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
    if i < 0 or i > 2:
        raise InvalidInputError(f"site {i} out of range for a three-site state")
    lhs, rhs = renyi_mixed_bounds(psi.amplitudes[None], psi.dims, r)
    return tuple(InequalityResult.of(float(lhs[0, i, b]), float(rhs[0, i, b]), tol)
                 for b in (0, 1))


def bipartition_check(psi: MultiQuditState, cut: Bipartition, spec: MeasureSpec,
                      tol: float = DEFAULT_TOL) -> InequalityResult:
    """Cut measure <= sum of one-to-group marginals over the side_a sites."""
    if not spec.is_entropy_based:
        raise InvalidInputError("bipartition_check needs an entropy-based measure")
    return bipartition_margins(psi, [cut], [spec], tol)[0][0]


def bipartition_margins(psi: MultiQuditState, cuts, specs,
                        tol: float = DEFAULT_TOL) -> list[list[InequalityResult]]:
    """Batch form of :func:`bipartition_check`: results[cut_index][spec_index].

    One :func:`~entpoly.measures.cut_values` call serves every site, cut and
    spec, so each distinct reduced side is computed once.
    """
    cuts, n = list(cuts), psi.num_sites
    for cut in cuts:
        cut.validate_for(n)
    values = cut_values(psi.amplitudes[None], psi.dims, specs,
                        [(j,) for j in range(n)] + [cut.side_a for cut in cuts])[0]
    return [[InequalityResult.of(float(row[n + c]), float(sum(row[j] for j in cut.side_a)), tol)
             for row in values] for c, cut in enumerate(cuts)]


def polygon_margins(amplitudes, dims, spec: MeasureSpec) -> np.ndarray:
    """Polygon slack sum_{k!=j} E_k - E_j of every site j of every row: a (T, n) array."""
    mv = cut_values(amplitudes, dims, [spec], [(j,) for j in range(len(dims))])[:, 0]
    return mv.sum(axis=-1, keepdims=True) - 2.0 * mv


def tau_indicator(psi: MultiQuditState, spec: MeasureSpec) -> IndicatorResult:
    """Minimum polygon slack over all sites: min_j (sum_{k!=j} E_k - E_j)."""
    if psi.num_sites < 2:
        raise InvalidInputError("the indicator needs at least 2 sites")
    slacks = polygon_margins(psi.amplitudes[None], psi.dims, spec)[0]
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
    slacks = [row[0].margin for row in bipartition_margins(psi, cuts, [spec])]
    idx = int(np.argmin(slacks))
    return IndicatorResult(slacks[idx], idx)


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
