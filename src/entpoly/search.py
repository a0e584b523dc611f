"""Seeded randomized stress-testing of the polygon inequalities.

Trials are seeded individually through :func:`mix64`, so a report depends
only on (seed, trials, config) and never on how trials are scheduled across
workers or blocks.

States are evaluated in blocks of at most ``BLOCK_AMPLITUDES`` amplitudes
(at least one state), one (T, D) array each.  :func:`trial_blocks` alone
draws seeded trials, bit for bit the states ``haar_random`` gives for their
seeds; a fuzz worker takes each block's polygon margins from
:func:`~entpoly.inequalities.polygon_margins` and keeps only its worst
trials as :class:`~entpoly.states.MultiQuditState` objects.
:func:`grid_scan` stacks the states of a parameter grid the same way.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .inequalities import bipartition_margins, default_tau_hat_cuts, polygon_margins
from .measures import MeasureSpec
from .states import (
    MultiQuditState,
    _haar_draws,
    generalized_ghz3,
    haar_random,  # the per-trial state of the fuzz, looked up on this module by callers
    star4,
    state_from_dict,
    state_to_dict,
)
from .tensor import as_dims
from .tolerances import DEFAULT_TOL

HIST_BINS = 64
HIST_LO = -0.1
HIST_HI = 1.0
# Complex amplitudes drawn per block of trials (1 MiB): bounds a chunk's working memory.
BLOCK_AMPLITUDES = 2**16
_MASK64 = (1 << 64) - 1


def mix64(seed: int, index: int) -> int:
    """Published per-trial seed mix: SplitMix64 finalizer of seed + golden-ratio steps.

    trial_seed = finalize((seed + (index + 1) * 0x9E3779B97F4A7C15) mod 2^64)
    with finalize(z): z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
    z *= 0x94D049BB133111EB; z ^= z >> 31.
    """
    z = (int(seed) + (int(index) + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class SearchConfig:
    dims: tuple[int, ...]
    spec: MeasureSpec
    trials: int
    seed: int = 0
    tol: float = DEFAULT_TOL
    record_worst: int = 4

    def __post_init__(self):
        object.__setattr__(self, "dims", as_dims(self.dims))
        if self.trials < 1:
            raise InvalidInputError("trials must be >= 1")
        if not 0 < self.tol < math.inf:
            raise InvalidInputError(f"tol must be finite and > 0, got {self.tol}")
        if self.record_worst < 0:
            raise InvalidInputError("record_worst must be >= 0")


@dataclass(frozen=True)
class WorstState:
    """Provenance of one low-margin trial: seed, worst site, its margin, state."""

    trial: int
    seed: int
    site: int
    margin: float
    state: dict


@dataclass(frozen=True)
class ViolationReport:
    dims: tuple[int, ...]
    measure: str
    trials_run: int
    seed: int
    tol: float
    violations: int
    min_margin: float
    worst_states: tuple[WorstState, ...]
    histogram: tuple[int, ...]
    histogram_range: tuple[float, float] = (HIST_LO, HIST_HI)


def _hist_index(margins) -> np.ndarray:
    frac = (margins - HIST_LO) / (HIST_HI - HIST_LO)
    return np.minimum(np.maximum((frac * HIST_BINS).astype(np.int64), 0), HIST_BINS - 1)


def _blocks(items, size: int):
    # consecutive slices of items holding BLOCK_AMPLITUDES // size items each (at least one)
    step = max(1, BLOCK_AMPLITUDES // size)
    return [items[lo:lo + step] for lo in range(0, len(items), step)]


def trial_blocks(dims, seed: int, start: int, stop: int):
    """Trials start..stop-1 of a seeded search as (first trial, seeds, (T, D) amplitudes).

    Row t of a block holds ``haar_random(dims, mix64(seed, first + t))`` bit for bit.
    """
    size = math.prod(dims)
    for trials in _blocks(range(start, stop), size):
        seeds = [mix64(seed, t) for t in trials]
        yield trials.start, seeds, _haar_draws(seeds, size)


def _run_chunk(cfg: SearchConfig, start: int, stop: int):
    violations = 0
    min_margin = math.inf
    hist = np.zeros(HIST_BINS, dtype=np.int64)
    worst: list[tuple] = []  # (margin, trial, seed, site, state), lowest margin first
    for lo, seeds, amps in trial_blocks(cfg.dims, cfg.seed, start, stop):
        margins = polygon_margins(amps, cfg.dims, cfg.spec)
        violations += int(np.count_nonzero(margins < -cfg.tol))
        hist += np.bincount(_hist_index(margins).reshape(-1), minlength=HIST_BINS)
        sites = margins.argmin(axis=-1)
        lows = margins.min(axis=-1)
        min_margin = min(min_margin, float(lows.min()))
        # a stable sort keeps equal margins in trial order
        for i in np.argsort(lows, kind="stable")[:cfg.record_worst]:
            worst.append((float(lows[i]), lo + int(i), seeds[i], int(sites[i]),
                          MultiQuditState(cfg.dims, amps[i])))
        worst.sort(key=lambda t: (t[0], t[1]))
        del worst[cfg.record_worst:]
    return violations, min_margin, hist, worst


def fuzz_polygon(cfg: SearchConfig, workers: int = 1) -> ViolationReport:
    """Polygon-inequality fuzz over Haar-random states.

    Per trial t the state is ``haar_random(cfg.dims, mix64(cfg.seed, t))``
    and every one-to-group margin is accumulated, a block of trials at a
    time.  The report is identical for any ``workers`` count.  At most
    ``os.cpu_count()`` processes run, and never more than there are chunks
    of trials.
    """
    if workers < 1:
        raise InvalidInputError("workers must be >= 1")
    workers = min(workers, os.cpu_count() or 1)
    chunk = math.ceil(cfg.trials / workers)
    bounds = [(lo, min(lo + chunk, cfg.trials)) for lo in range(0, cfg.trials, chunk)]
    if len(bounds) == 1:
        parts = [_run_chunk(cfg, lo, hi) for lo, hi in bounds]
    else:
        with ProcessPoolExecutor(max_workers=len(bounds)) as pool:
            parts = list(pool.map(_run_chunk, *zip(*[(cfg,) + b for b in bounds])))
    violations = sum(p[0] for p in parts)
    min_margin = min(p[1] for p in parts)
    hist = sum(p[2] for p in parts)
    candidates = [w for p in parts for w in p[3]]
    candidates.sort(key=lambda t: (t[0], t[1]))
    worst = tuple(
        WorstState(trial=t, seed=s, site=j, margin=m, state=state_to_dict(psi))
        for m, t, s, j, psi in candidates[:cfg.record_worst])
    return ViolationReport(
        dims=cfg.dims,
        measure=cfg.spec.label(),
        trials_run=cfg.trials,
        seed=cfg.seed,
        tol=cfg.tol,
        violations=violations,
        min_margin=float(min_margin),
        worst_states=worst,
        histogram=tuple(hist.tolist()),
    )


def recompute_margin(entry: WorstState, spec: MeasureSpec) -> float:
    """Reload a recorded worst state and recompute its polygon margin."""
    psi = state_from_dict(entry.state)
    return float(polygon_margins(psi.amplitudes[None], psi.dims, spec)[0, entry.site])


def report_to_dict(report: ViolationReport) -> dict:
    return {
        "dims": list(report.dims),
        "measure": report.measure,
        "trials_run": report.trials_run,
        "seed": report.seed,
        "tol": report.tol,
        "violations": report.violations,
        "min_margin": report.min_margin,
        "worst_states": [
            {"trial": w.trial, "seed": w.seed, "site": w.site,
             "margin": w.margin, "state": w.state}
            for w in report.worst_states
        ],
        "histogram": list(report.histogram),
        "histogram_range": list(report.histogram_range),
    }


def report_to_json(report: ViolationReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def report_from_dict(doc: dict) -> ViolationReport:
    try:
        return ViolationReport(
            dims=tuple(doc["dims"]),
            measure=doc["measure"],
            trials_run=doc["trials_run"],
            seed=doc["seed"],
            tol=doc["tol"],
            violations=doc["violations"],
            min_margin=doc["min_margin"],
            worst_states=tuple(
                WorstState(trial=w["trial"], seed=w["seed"], site=w["site"],
                           margin=w["margin"], state=w["state"])
                for w in doc["worst_states"]),
            histogram=tuple(doc["histogram"]),
            histogram_range=tuple(doc["histogram_range"]),
        )
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"malformed report document: {exc}") from exc


def report_from_json(text: str) -> ViolationReport:
    try:
        return report_from_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"malformed report JSON: {exc}") from exc


# -- parameter grid scans ------------------------------------------------------

SCAN_FAMILIES = ("generalized_ghz3", "w_interp", "star4")


def _w_interp_state(theta: float, phi: float) -> MultiQuditState:
    # Three-qubit single-excitation family: angle-weighted |100>, |010>, |001>.
    amps = np.zeros(8, dtype=np.complex128)
    amps[4] = math.sin(theta) * math.cos(phi)
    amps[2] = math.sin(theta) * math.sin(phi)
    amps[1] = math.cos(theta)
    nrm = np.linalg.norm(amps)
    return MultiQuditState((2, 2, 2), amps / nrm)


# angle family -> (state constructor, total dimension)
_ANGLE_FAMILIES = {"generalized_ghz3": (generalized_ghz3, 27), "w_interp": (_w_interp_state, 8)}


def _grid_shape(grid) -> tuple[int, int]:
    if isinstance(grid, int):
        return grid, grid
    n1, n2 = grid
    return int(n1), int(n2)


def grid_scan(family: str, grid, spec: MeasureSpec) -> list[tuple[float, float, float]]:
    """Deterministic indicator scan; rows are (param1, param2, value).

    Families:

    * ``generalized_ghz3``: tau over theta in [0, pi], phi in [0, 2 pi]
    * ``w_interp``: tau of the three-qubit single-excitation family, same box
    * ``star4``: tau-hat of the fixed hub state, scanning the measure
      parameter(s): q in [2, 9] for qconc (param2 = 0), (r, s) in
      [1, 9] x [0, 10] for unified; every parameter's spec is evaluated on
      one set of cut spectra
    """
    n1, n2 = _grid_shape(grid)
    if n1 < 2 or n2 < 2:
        raise InvalidInputError("grid resolution must be >= 2 per axis")
    if family in _ANGLE_FAMILIES:
        build, size = _ANGLE_FAMILIES[family]
        points = [(float(theta), float(phi)) for theta in np.linspace(0.0, math.pi, n1)
                  for phi in np.linspace(0.0, 2.0 * math.pi, n2)]
        values = []
        for block in _blocks(points, size):
            states = [build(*point) for point in block]
            values += list(polygon_margins(np.stack([psi.amplitudes for psi in states]),
                                           states[0].dims, spec).min(axis=-1))
    elif family == "star4":
        if spec.kind == "qconc":
            points = [(float(q), 0.0) for q in np.linspace(2.0, 9.0, n1)]
        elif spec.kind == "unified":
            points = [(float(r), float(s)) for r in np.linspace(1.0, 9.0, n1)
                      for s in np.linspace(0.0, 10.0, n2)]
        else:
            raise InvalidInputError("star4 scans vary the measure parameter; use qconc or unified")
        specs = [MeasureSpec.from_token(spec.kind, q=a, r=a, s=b) for a, b in points]
        margins = bipartition_margins(star4(), default_tau_hat_cuts(4), specs)
        values = np.array([[res.margin for res in row] for row in margins]).min(axis=0)
    else:
        raise InvalidInputError(
            f"unknown scan family {family!r}; expected one of {', '.join(SCAN_FAMILIES)}")
    return [(a, b, float(v)) for (a, b), v in zip(points, values)]
