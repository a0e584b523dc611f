"""Polygon, triangle and bipartition inequality checkers plus indicators.

A violated inequality is returned as data, never raised: the randomized
search treats the satisfied/violated status as an observation.  Each of the
paper's three families has a block form that gives arrays for a whole
(T, D) block of states: :func:`polygon_slack` and :func:`triangle_bounds`
over an array of marginals, :func:`polygon_margins`,
:func:`renyi_mixed_bounds` and :func:`bipartition_bounds` over amplitudes,
each from one :func:`~entpoly.measures.cut_values` call.  A ``*_bounds``
form returns both sides (lhs, rhs) of lhs <= rhs, so its margins are
``rhs - lhs``.  :func:`polygon_margins` and :func:`renyi_mixed_margins` are
margin functions of the fuzz engine.  The scalar checks
(:func:`polygon_check`, :func:`triangle_check`, :func:`renyi_mixed_check`,
:func:`bipartition_check`) are the only places that build
:class:`InequalityResult` objects; the indicators reduce the arrays.
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
    def of(lhs: float, rhs: float, margin: float, tol: float) -> "InequalityResult":
        # margin comes from the family's block form, which can round it apart from rhs - lhs
        if not math.isfinite(tol):
            raise InvalidInputError(f"tol must be finite, got {tol}")
        return InequalityResult(lhs, rhs, margin, margin >= -tol, tol)


@dataclass(frozen=True)
class IndicatorResult:
    """Minimum slack and the site (or cut index) attaining it."""

    value: float
    argmin_site: int


def polygon_check(mv, j: int, tol: float = DEFAULT_TOL) -> InequalityResult:
    """mv[j] <= sum of the other entries (the polygon side bound).

    The margin is :func:`polygon_slack`'s entry j, the value the indicator
    and the fuzz read.
    """
    mv = np.asarray(mv, dtype=float)
    if mv.size == 0:
        raise InvalidInputError("marginal vector is empty")
    if j < 0 or j >= mv.size:
        raise InvalidInputError(f"site {j} out of range for {mv.size} marginals")
    return InequalityResult.of(float(mv[j]), float(np.sum(mv) - mv[j]),
                               float(polygon_slack(mv)[j]), tol)


_J, _K = [1, 0, 0], [2, 2, 1]  # the remaining sites j < k of each site i of three


def triangle_bounds(mv):
    """(lhs, rhs) of :func:`triangle_check` per site of (..., 3) marginals, each (..., 3, 2)."""
    mv = np.atleast_1d(np.asarray(mv, dtype=float))
    if mv.shape[-1] != 3:
        raise InvalidInputError(f"triangle_check needs exactly 3 marginals, got {mv.shape[-1]}")
    return (np.stack([np.abs(mv[..., _J] - mv[..., _K]), mv], axis=-1),
            np.stack([mv, mv[..., _J] + mv[..., _K]], axis=-1))


def triangle_check(mv, i: int, tol: float = DEFAULT_TOL):
    """Lower and upper triangle bounds on side i of a three-site marginal vector."""
    lhs, rhs = triangle_bounds(np.ravel(mv))
    if i < 0 or i > 2:
        raise InvalidInputError(f"site {i} out of range for a three-site state")
    return tuple(InequalityResult.of(float(lhs[i, b]), float(rhs[i, b]),
                                     float(rhs[i, b] - lhs[i, b]), tol) for b in (0, 1))


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
    return (np.stack([rr[:, _J] - r0[:, _K], rr], axis=-1),
            np.stack([rr, rr[:, _J] + r0[:, _K]], axis=-1))


def renyi_mixed_margins(amplitudes, dims, spec: MeasureSpec) -> np.ndarray:
    """rhs - lhs of :func:`renyi_mixed_bounds` at a renyi spec's order, as (T, 6)."""
    if spec.kind != "renyi":
        raise InvalidInputError(f"the mixed Renyi bounds take a renyi measure, got {spec.kind}")
    lhs, rhs = renyi_mixed_bounds(amplitudes, dims, spec.r)
    return (rhs - lhs).reshape(len(lhs), 6)


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
    return tuple(InequalityResult.of(float(lhs[0, i, b]), float(rhs[0, i, b]),
                                     float(rhs[0, i, b] - lhs[0, i, b]), tol) for b in (0, 1))


def bipartition_check(psi: MultiQuditState, cut: Bipartition, spec: MeasureSpec,
                      tol: float = DEFAULT_TOL) -> InequalityResult:
    """Cut measure <= sum of one-to-group marginals over the side_a sites."""
    if not spec.is_entropy_based:
        raise InvalidInputError("bipartition_check needs an entropy-based measure")
    lhs, rhs = bipartition_bounds(psi.amplitudes[None], psi.dims, [spec], [cut])
    return InequalityResult.of(float(lhs[0, 0, 0]), float(rhs[0, 0, 0]),
                               float(rhs[0, 0, 0] - lhs[0, 0, 0]), tol)


def bipartition_bounds(amplitudes, dims, specs, cuts):
    """Both sides of :func:`bipartition_check` for a (T, D) block, every spec and cut.

    lhs[t, i, c] is ``specs[i]`` across ``cuts[c]``, rhs[t, i, c] the sum of its
    side_a sites' marginals, all from one :func:`~entpoly.measures.cut_values` call.
    """
    cuts, n = list(cuts), len(dims)
    if not cuts:
        raise InvalidInputError("bipartition bounds need at least one cut")
    for cut in cuts:
        cut.validate_for(n)
    values = cut_values(amplitudes, dims, specs,
                        [(j,) for j in range(n)] + [cut.side_a for cut in cuts])
    # Python's sum adds left to right; numpy's order would move tau_hat's last bit
    rhs = np.stack([sum(values[..., j] for j in cut.side_a) for cut in cuts], axis=-1)
    return values[..., n:], rhs


def polygon_slack(mv) -> np.ndarray:
    """Polygon slack sum_{k!=j} E_k - E_j of every site j over the last axis of marginals."""
    mv = np.asarray(mv, dtype=float)
    return mv.sum(axis=-1, keepdims=True) - 2.0 * mv


def polygon_margins(amplitudes, dims, spec: MeasureSpec) -> np.ndarray:
    """:func:`polygon_slack` of every row of a (T, D) block: a (T, n) array."""
    return polygon_slack(cut_values(amplitudes, dims, [spec],
                                    [(j,) for j in range(len(dims))])[:, 0])


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
    lhs, rhs = bipartition_bounds(psi.amplitudes[None], psi.dims, [spec], cuts)
    slacks = (rhs - lhs)[0, 0]
    idx = int(np.argmin(slacks))
    return IndicatorResult(float(slacks[idx]), idx)


def product_structure_oracle(psi: MultiQuditState, tol: float = DEFAULT_TOL) -> bool:
    """True when the state factorizes across some one-vs-rest cut.

    Direct test: some single-site marginal has purity 1 (within tol),
    independent of any indicator computation.
    """
    for w in site_spectra(psi):
        if 1.0 - float(np.sum(np.square(w))) < tol:
            return True
    return False

