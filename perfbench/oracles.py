"""Reference values the benchmark checks the library against.

Nothing here goes through ``entpoly.tensor`` or the library's eigensolver:
pure-state marginals come from ``np.linalg.svd`` of the reshaped amplitude
tensor (squared singular values are the Schmidt spectrum), and the fixed
families use their closed forms.  Every check returns a list of failure
messages; an empty list means the call passed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

ORACLE_TOL = 1e-9   # a mismatch beyond this fails the call
LIMIT_TOL = 1e-9    # parameter band where the library dispatches to a limit
SAMPLED_TRIALS = 2  # fuzz trials per call regenerated and recomputed


@dataclass(frozen=True)
class Measure:
    """A measure token and its parameters, kept apart from ``MeasureSpec``."""

    token: str
    q: float | None = None
    r: float | None = None
    s: float | None = None

    @property
    def tag(self) -> str:
        params = [f"{v:g}" for v in (self.q, self.r, self.s) if v is not None]
        return self.token + "_".join(params).replace(".", "p")


def measure_from_schmidt(m: Measure, sigma: np.ndarray) -> float:
    """Measure of a pure state across a cut from its Schmidt coefficients."""
    lam = np.square(sigma)
    if m.token == "qconc":
        return 1.0 - float(np.sum(lam**m.q))
    if m.token == "eof":
        pos = lam[lam > 0.0]
        return float(-np.sum(pos * np.log2(pos)))
    if m.token == "tsallis":
        return (float(np.sum(lam**m.r)) - 1.0) / (1.0 - m.r)
    if m.token == "unified":
        return (float(np.sum(lam**m.r)) ** m.s - 1.0) / ((1.0 - m.r) * m.s)
    if m.token == "conc":
        return math.sqrt(max(2.0 * (1.0 - float(np.sum(np.square(lam)))), 0.0))
    if m.token == "neg":
        # Vidal-Werner: negativity of a pure state is ((sum sigma)^2 - 1) / 2
        return (float(np.sum(sigma)) ** 2 - 1.0) / 2.0
    raise ValueError(f"no Schmidt oracle for {m.token}")


def polygon_margins(amplitudes, dims, m: Measure) -> np.ndarray:
    """Polygon slack sum(E) - 2 E_j for every site j, via per-site SVD."""
    t = np.asarray(amplitudes, dtype=np.complex128).reshape(dims)
    values = []
    for j, d in enumerate(dims):
        sigma = np.linalg.svd(np.moveaxis(t, j, 0).reshape(d, -1), compute_uv=False)
        values.append(measure_from_schmidt(m, sigma))
    e = np.array(values)
    return float(np.sum(e)) - 2.0 * e


def _hist_bin(margin: float, lo: float, hi: float, bins: int) -> int:
    return min(max(int((margin - lo) / (hi - lo) * bins), 0), bins - 1)


def check_fuzz(report, *, dims, m: Measure, trials: int, seed: int, proved: bool,
               record_worst: int, regenerate, mix) -> list[str]:
    """Check one ``fuzz_polygon`` report.

    ``regenerate(dims, trial_seed)`` returns the trial's amplitudes and
    ``mix(seed, trial)`` the published per-trial seed; worst states and a
    seeded sample of trials are recomputed through the SVD oracle.
    """
    errs = []
    n = len(dims)
    if report.trials_run != trials:
        errs.append(f"trials_run {report.trials_run} != {trials}")
    if sum(report.histogram) != trials * n:
        errs.append(f"histogram total {sum(report.histogram)} != {trials * n}")
    if proved and report.violations != 0:
        errs.append(f"{report.violations} violations on a proved row")
    worst = report.worst_states
    if len(worst) != min(record_worst, trials):
        errs.append(f"{len(worst)} worst states recorded, expected {min(record_worst, trials)}")
    if worst and report.min_margin != worst[0].margin:
        errs.append(f"min_margin {report.min_margin!r} != worst margin {worst[0].margin!r}")
    for w in worst:
        if w.seed != mix(seed, w.trial):
            errs.append(f"worst trial {w.trial}: seed {w.seed} is not the published mix")
            continue
        amps = regenerate(dims, w.seed)
        stored = np.array([complex(re, im) for re, im in w.state["amplitudes"]])
        if not np.array_equal(stored, amps):
            errs.append(f"worst trial {w.trial}: stored state differs from its seed")
        margins = polygon_margins(amps, dims, m)
        if abs(margins[w.site] - w.margin) > ORACLE_TOL:
            errs.append(f"worst trial {w.trial}: margin {w.margin!r} != oracle "
                        f"{margins[w.site]!r}")
        if margins[w.site] - float(np.min(margins)) > ORACLE_TOL:
            errs.append(f"worst trial {w.trial}: site {w.site} is not the worst site")
    lo, hi = report.histogram_range
    bins = len(report.histogram)
    rng = np.random.default_rng([seed & 0xFFFFFFFF, seed >> 32])
    for t in rng.choice(trials, size=min(SAMPLED_TRIALS, trials), replace=False):
        margins = polygon_margins(regenerate(dims, mix(seed, int(t))), dims, m)
        if float(np.min(margins)) < report.min_margin - ORACLE_TOL:
            errs.append(f"trial {t}: oracle margin below the reported min_margin")
        if proved and float(np.min(margins)) < -report.tol:
            errs.append(f"trial {t}: oracle finds a violation the report does not")
        for mg in margins:
            near = {_hist_bin(mg + d, lo, hi, bins) for d in (-ORACLE_TOL, ORACLE_TOL)}
            if not any(report.histogram[b] for b in near):
                errs.append(f"trial {t}: margin {mg:.6g} falls in an empty histogram bin")
    return errs


def uniform_value(m: Measure, dim: int) -> float:
    """Measure of a maximally mixed reduced state of size ``dim``."""
    if m.token == "qconc":
        return 1.0 - dim ** (1.0 - m.q)
    if m.token == "eof":
        return math.log2(dim)
    if m.token == "unified":
        if abs(m.r - 1.0) <= LIMIT_TOL or abs(m.s) <= LIMIT_TOL:
            return math.log2(dim)
        grow = dim ** ((m.r - 1.0) * m.s)
        return (1.0 - grow) / ((1.0 - m.r) * m.s * grow)
    raise ValueError(f"no uniform closed form for {m.token}")


def check_ghz3_tau(result, theta: float, phi: float, m: Measure) -> list[str]:
    """tau of generalized_ghz3: all three marginals share one spectrum, so tau = E."""
    lam = np.array([(math.sin(theta) * math.cos(phi)) ** 2,
                    (math.sin(theta) * math.sin(phi)) ** 2,
                    math.cos(theta) ** 2])
    closed = measure_from_schmidt(m, np.sqrt(lam))
    if abs(result.value - closed) > ORACLE_TOL:
        return [f"tau({theta:.6g}, {phi:.6g}) = {result.value!r}, closed form {closed!r}"]
    return []


def _star4_crossing(side) -> int:
    # the hub (site 0) shares one EPR pair with each of sites 1..3
    inside = set(side)
    return sum(1 for k in (1, 2, 3) if (k in inside) != (0 in inside))


def star4_tau_hat(m: Measure) -> float:
    """tau_hat of star4 over every cut with at least two sites on side A."""
    best = math.inf
    for size in (2, 3):
        for side in itertools.combinations(range(4), size):
            slack = sum(uniform_value(m, 2 ** _star4_crossing((j,))) for j in side)
            best = min(best, slack - uniform_value(m, 2 ** _star4_crossing(side)))
    return best


def check_star4_tau_hat(result, m: Measure) -> list[str]:
    closed = star4_tau_hat(m)
    if abs(result.value - closed) > ORACLE_TOL:
        return [f"tau_hat({m}) = {result.value!r}, closed form {closed!r}"]
    return []


def check_network(result, *, party_dims, measures) -> list[str]:
    """Every party of an EPR/GHZ/GHZ-diagonal network is maximally mixed."""
    net, vectors = result
    if tuple(net.party_dims) != tuple(party_dims):
        return [f"party dims {net.party_dims} != {party_dims}"]
    errs = []
    for m, mv in zip(measures, vectors):
        for p, dim in enumerate(party_dims):
            closed = uniform_value(m, dim)
            if abs(float(mv[p]) - closed) > ORACLE_TOL:
                errs.append(f"{m.tag} party {p}: {float(mv[p])!r} != closed form {closed!r}")
    return errs
