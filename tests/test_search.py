import math

import numpy as np
import pytest

from entpoly import search
from entpoly.errors import InvalidInputError
from entpoly.measures import MeasureSpec, marginal_vector
from entpoly.search import (
    HIST_BINS,
    SearchConfig,
    fuzz_polygon,
    grid_scan,
    mix64,
    recompute_margin,
    report_from_json,
    report_to_json,
)
from entpoly.inequalities import tau_hat_indicator, tau_indicator
from entpoly.search import _w_interp_state
from entpoly.states import generalized_ghz3, haar_random, star4, state_from_dict, state_to_dict


def test_mix64_published_convention():
    # frozen values guard the published trial-seed mixing function
    assert mix64(0, 0) == 16294208416658607535
    assert mix64(42, 7) == mix64(42, 7)
    assert mix64(42, 7) != mix64(42, 8)
    assert mix64(43, 7) != mix64(42, 7)
    assert 0 <= mix64(2**63, 2**40) < 2**64


def test_search_config_validation():
    spec = MeasureSpec.eof()
    with pytest.raises(InvalidInputError):
        SearchConfig(dims=(2, 2), spec=spec, trials=0, seed=0)
    with pytest.raises(InvalidInputError):
        SearchConfig(dims=(2, 2), spec=spec, trials=5, seed=0, tol=0.0)
    with pytest.raises(InvalidInputError):
        SearchConfig(dims=(1, 2), spec=spec, trials=5, seed=0)


def test_search_config_rejects_non_finite_tol():
    for tol in (float("nan"), float("inf")):
        with pytest.raises(InvalidInputError):
            SearchConfig(dims=(2, 2), spec=MeasureSpec.eof(), trials=5, seed=0, tol=tol)


def test_fuzz_serializes_only_the_reported_states(monkeypatch):
    calls = []
    real = search.state_to_dict
    monkeypatch.setattr(search, "state_to_dict", lambda psi: calls.append(psi) or real(psi))
    cfg = SearchConfig(dims=(2, 3, 2), spec=MeasureSpec.eof(), trials=50, seed=3,
                       record_worst=3)
    report = fuzz_polygon(cfg)
    assert len(calls) == 3
    for entry in report.worst_states:
        assert entry.state == real(search.haar_random(cfg.dims, entry.seed))
        assert entry.seed == mix64(cfg.seed, entry.trial)


def test_fuzz_polygon_blocks_do_not_change_the_report(monkeypatch):
    cfg = SearchConfig(dims=(2, 3, 2), spec=MeasureSpec.unified(2, 1), trials=10, seed=17)
    single = report_to_json(fuzz_polygon(cfg))  # all ten trials in one block
    for per_block in (1, 3):
        monkeypatch.setattr(search, "BLOCK_AMPLITUDES", 12 * per_block)
        for workers in (1, 2, 3):
            assert report_to_json(fuzz_polygon(cfg, workers=workers)) == single


@pytest.mark.parametrize("dims, spec", [
    ((5, 2, 2), MeasureSpec.negativity()),  # site 0 is reduced on the other side
    ((2, 3, 4), MeasureSpec.unified(2, 1)),
    ((3, 3, 3), MeasureSpec.concurrence()),
])
def test_block_margins_match_per_state_marginals(monkeypatch, dims, spec):
    trials = 12
    monkeypatch.setattr(search, "BLOCK_AMPLITUDES", 5 * math.prod(dims))
    cfg = SearchConfig(dims=dims, spec=spec, trials=trials, seed=29, record_worst=trials)
    report = fuzz_polygon(cfg)
    lo, hi = report.histogram_range
    hist = [0] * HIST_BINS
    violations = 0
    lows = {}
    for t in range(trials):
        mv = marginal_vector(haar_random(dims, mix64(cfg.seed, t)), spec)
        margins = np.sum(mv) - 2.0 * mv
        violations += int(np.count_nonzero(margins < -cfg.tol))
        for m in margins:
            hist[min(max(int((m - lo) / (hi - lo) * HIST_BINS), 0), HIST_BINS - 1)] += 1
        lows[t] = (float(np.min(margins)), int(np.argmin(margins)))
    assert list(report.histogram) == hist
    assert report.violations == violations
    # every trial is recorded: its seed, worst site, margin and state
    assert sorted(w.trial for w in report.worst_states) == list(range(trials))
    for w in report.worst_states:
        assert w.seed == mix64(cfg.seed, w.trial)
        assert abs(w.margin - lows[w.trial][0]) <= 1e-12
        assert w.site == lows[w.trial][1]
        assert w.state == state_to_dict(haar_random(dims, w.seed))
    assert abs(report.min_margin - min(m for m, _ in lows.values())) <= 1e-12


def test_fuzz_polygon_deterministic_and_worker_independent():
    cfg = SearchConfig(dims=(2, 3, 2), spec=MeasureSpec.qconcurrence(2),
                       trials=120, seed=42)
    r1 = fuzz_polygon(cfg, workers=1)
    r1b = fuzz_polygon(cfg, workers=1)
    r4 = fuzz_polygon(cfg, workers=4)
    assert report_to_json(r1) == report_to_json(r1b) == report_to_json(r4)


def test_fuzz_polygon_report_invariants():
    cfg = SearchConfig(dims=(2, 2, 2), spec=MeasureSpec.eof(),
                       trials=200, seed=7, record_worst=5)
    report = fuzz_polygon(cfg)
    assert report.trials_run == 200
    assert report.violations == 0
    assert sum(report.histogram) == 200 * 3
    assert len(report.histogram) == HIST_BINS
    assert len(report.worst_states) == 5
    margins = [w.margin for w in report.worst_states]
    assert margins == sorted(margins)
    assert report.min_margin == margins[0]
    assert all(report.min_margin <= w.margin for w in report.worst_states)


def test_fuzz_polygon_worst_state_provenance():
    cfg = SearchConfig(dims=(2, 3), spec=MeasureSpec.qconcurrence(2),
                       trials=50, seed=3, record_worst=3)
    report = fuzz_polygon(cfg)
    for w in report.worst_states:
        assert w.seed == mix64(3, w.trial)
        assert abs(recompute_margin(w, cfg.spec) - w.margin) < 1e-12
        psi = state_from_dict(w.state)
        assert psi.dims == (2, 3)


def test_fuzz_polygon_negativity_runs():
    cfg = SearchConfig(dims=(2, 2, 2), spec=MeasureSpec.negativity(),
                       trials=20, seed=1)
    report = fuzz_polygon(cfg)
    assert report.trials_run == 20
    assert report.min_margin > -1e-9  # proved for qubits; fuzz is regression


def test_report_json_roundtrip():
    cfg = SearchConfig(dims=(2, 2), spec=MeasureSpec.tsallis(2), trials=10, seed=9)
    report = fuzz_polygon(cfg)
    back = report_from_json(report_to_json(report))
    assert back == report
    with pytest.raises(InvalidInputError):
        report_from_json("{bad json")
    with pytest.raises(InvalidInputError):
        report_from_json("{}")


def test_grid_scan_generalized_ghz3():
    rows = grid_scan("generalized_ghz3", 12, MeasureSpec.eof())
    assert len(rows) == 144
    values = np.array([v for _, _, v in rows])
    assert values.min() >= -1e-9
    # endpoint rows (theta = 0 and pi) are product states
    assert abs(rows[0][2]) < 1e-9
    assert abs(rows[-1][2]) < 1e-9
    # deterministic
    again = grid_scan("generalized_ghz3", 12, MeasureSpec.eof())
    assert rows == again


def test_grid_scan_w_interp():
    rows = grid_scan("w_interp", (8, 9), MeasureSpec.qconcurrence(2))
    assert len(rows) == 72
    assert all(v >= -1e-9 for _, _, v in rows)


def test_grid_scan_star4_matches_closed_forms():
    rows = grid_scan("star4", 9, MeasureSpec.qconcurrence(2))
    assert [r[1] for r in rows] == [0.0] * 9
    for q, _, val in rows:
        closed = 2 * (1 - 2.0 ** (1 - q)) - (1 - 4.0 ** (1 - q))
        assert abs(val - closed) < 1e-10
    rows = grid_scan("star4", (5, 6), MeasureSpec.unified(1, 0))
    assert len(rows) == 30
    assert all(v >= -1e-9 for _, _, v in rows)


@pytest.mark.parametrize("family, grid, spec", [
    ("generalized_ghz3", (7, 6), MeasureSpec.eof()),
    ("w_interp", (5, 8), MeasureSpec.unified(2.5, 0.7)),
    ("star4", 9, MeasureSpec.qconcurrence(2)),
    ("star4", (5, 6), MeasureSpec.unified(1, 0)),
])
def test_grid_scan_rows_equal_per_point_indicators(monkeypatch, family, grid, spec):
    rows = grid_scan(family, grid, spec)
    for a, b, value in rows:
        if family == "star4":
            point = (MeasureSpec.qconcurrence(a) if spec.kind == "qconc"
                     else MeasureSpec.unified(a, b))
            assert value == tau_hat_indicator(star4(), None, point).value
        else:
            psi = generalized_ghz3(a, b) if family == "generalized_ghz3" else _w_interp_state(a, b)
            assert value == tau_indicator(psi, spec).value
    # blocks of three or four states give the same rows
    monkeypatch.setattr(search, "BLOCK_AMPLITUDES", 100)
    assert grid_scan(family, grid, spec) == rows


def test_one_svd_per_distinct_reduced_side(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    # star4: 4 site sides and 10 cuts reduce to 8 distinct sides
    tau_hat_indicator(star4(), None, MeasureSpec.qconcurrence(2))
    assert len(calls) == 8
    calls.clear()
    tau_indicator(haar_random((3, 3, 3), 5), MeasureSpec.eof())
    assert len(calls) == 3
    calls.clear()
    grid_scan("generalized_ghz3", 12, MeasureSpec.eof())
    assert calls == [(144, 3, 9)] * 3


def test_grid_scan_validation():
    with pytest.raises(InvalidInputError):
        grid_scan("bogus", 10, MeasureSpec.eof())
    with pytest.raises(InvalidInputError):
        grid_scan("star4", 10, MeasureSpec.eof())
    with pytest.raises(InvalidInputError):
        grid_scan("generalized_ghz3", 1, MeasureSpec.eof())


def test_fuzz_polygon_ten_thousand_trials_no_violations():
    # proved-regime regression at the full trial count (slowest search test)
    for dims, spec in (((3, 3, 3), MeasureSpec.qconcurrence(2)),
                       ((2, 2, 2), MeasureSpec.eof())):
        cfg = SearchConfig(dims=dims, spec=spec, trials=10_000, seed=123,
                           record_worst=1)
        report = fuzz_polygon(cfg)
        assert report.violations == 0
        assert report.min_margin >= -1e-9


@pytest.mark.parametrize("workers, cpus, trials, pool_size", [
    (64, 4, 100, 4),    # clamped to the CPU count
    (3, 8, 100, 3),     # the requested count fits
    (6, 8, 10, 5),      # ten trials in chunks of two make five chunks
    (64, None, 100, None),  # unknown CPU count: one process, no pool
    (5, 8, 1, None),    # a single trial is a single chunk
])
def test_fuzz_polygon_clamps_workers(monkeypatch, workers, cpus, trials, pool_size):
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(search, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
    cfg = SearchConfig(dims=(2, 2, 2), spec=MeasureSpec.eof(), trials=trials, seed=9)
    report = fuzz_polygon(cfg, workers=workers)
    assert sizes == ([] if pool_size is None else [pool_size])
    monkeypatch.undo()
    assert report_to_json(report) == report_to_json(fuzz_polygon(cfg, workers=1))


def test_fuzz_polygon_rejects_bad_workers():
    cfg = SearchConfig(dims=(2, 2), spec=MeasureSpec.eof(), trials=5, seed=0)
    with pytest.raises(InvalidInputError):
        fuzz_polygon(cfg, workers=0)
