"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The fuzz criterion (5)
evaluates its 5 x 10^4 states a block at a time through the library's block
inequality forms and takes a few seconds; so does everything else.
"""

import itertools
import math
import time

import numpy as np

from entpoly.entropies import renyi, tsallis, unified_entropy, von_neumann
from entpoly.inequalities import (
    bipartition_bounds,
    bipartition_check,
    polygon_check,
    polygon_slack,
    product_structure_oracle,
    renyi_mixed_check,
    renyi_mixed_margins,
    tau_hat_indicator,
    tau_indicator,
    triangle_bounds,
    triangle_check,
)
from entpoly.measures import Bipartition, MeasureSpec, cut_values, marginal_vector, measure_pure
from entpoly.reproduce import run_target
from entpoly.search import SearchConfig, fuzz_polygon, report_to_json, trial_blocks
from entpoly.states import (
    MultiQuditState,
    from_amplitudes,
    generalized_ghz3,
    ghz,
    haar_random,
    star4,
    w_qutrit,
)
from entpoly.tensor import hermitian_eigensystem, hermitian_eigenvalues, partial_trace

LN2 = math.log(2.0)

FUZZ_SPECS = [
    MeasureSpec.qconcurrence(2), MeasureSpec.qconcurrence(3),
    MeasureSpec.qconcurrence(4.5),
    MeasureSpec.unified(1, 1), MeasureSpec.unified(1.5, 0.5),
    MeasureSpec.unified(2, 1), MeasureSpec.unified(3, 2),
    MeasureSpec.tsallis(1.5), MeasureSpec.tsallis(2), MeasureSpec.tsallis(3),
    MeasureSpec.eof(),
]
FUZZ_SHAPES = ((3, 3, 3), (2, 3, 4), (4, 4, 4), (2, 2, 2, 2), (3, 2, 2, 3))
RENYI_ORDERS = (0.5, 2.0, 3.0)


def _report(num, desc, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {desc} {detail}"


def test_criterion_01_w_state_closed_form():
    t0 = time.perf_counter()
    w = w_qutrit()
    worst = 0.0
    for q in (2, 3, 4, 5, 6):
        closed = 1 - 2**q / 3**q - 2 / 6**q
        for i in range(3):
            got = measure_pure(w, Bipartition.one_vs_rest(i, 3),
                               MeasureSpec.qconcurrence(q))
            worst = max(worst, abs(got - closed))
    elapsed = time.perf_counter() - t0
    _report(1, "W-class closed form, q in {2..6}, all cuts",
            worst < 1e-12 and elapsed < 1.0,
            f"max diff {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_cat_state_closed_forms():
    worst = 0.0
    for d in (2, 3, 5):
        for m in (3, 4):
            g = ghz(d, m)
            for q in (2, 3):
                closed = 1 - 1 / d ** (q - 1)
                spec = MeasureSpec.qconcurrence(q)
                for j in range(m):
                    got = measure_pure(g, Bipartition.one_vs_rest(j, m), spec)
                    worst = max(worst, abs(got - closed))
                tau = tau_indicator(g, spec).value
                worst = max(worst, abs(tau - (m - 2) * closed))
            for r, s in ((2, 1), (3, 0.5), (1.5, 2)):
                closed = (1 - d ** (r * s - s)) / ((1 - r) * s * d ** (r * s - s))
                spec = MeasureSpec.unified(r, s)
                for j in range(m):
                    got = measure_pure(g, Bipartition.one_vs_rest(j, m), spec)
                    worst = max(worst, abs(got - closed))
                tau = tau_indicator(g, spec).value
                worst = max(worst, abs(tau - (m - 2) * closed))
    _report(2, "cat-state marginals and (m-2)-scaled indicators",
            worst < 1e-10, f"max diff {worst:.2e}")


def test_criterion_03_hub_state_closed_forms():
    psi = star4()
    cuts = {
        "1|234": (Bipartition.of((0,), 4), 8),
        "2|134": (Bipartition.of((1,), 4), 2),
        "3|124": (Bipartition.of((2,), 4), 2),
        "4|123": (Bipartition.of((3,), 4), 2),
        "12|34": (Bipartition.of((0, 1), 4), 4),
        "34|12": (Bipartition.of((2, 3), 4), 4),
    }
    worst = 0.0
    for q in (2, 3, 4):
        for cut, dim in cuts.values():
            closed = (dim ** (q - 1) - 1) / dim ** (q - 1)
            got = measure_pure(psi, cut, MeasureSpec.qconcurrence(q))
            worst = max(worst, abs(got - closed))
    for r in (1.5, 2, 3):
        for s in (0.5, 1, 2):
            for cut, dim in cuts.values():
                closed = (1 - dim ** (r * s - s)) / ((1 - r) * s * dim ** (r * s - s))
                got = measure_pure(psi, cut, MeasureSpec.unified(r, s))
                worst = max(worst, abs(got - closed))
    tau_hat = tau_hat_indicator(psi, None, MeasureSpec.qconcurrence(2)).value
    worst = max(worst, abs(tau_hat - 0.25))
    _report(3, "hub-state cut values and tau-hat(q=2) = 1/4",
            worst < 1e-10, f"max diff {worst:.2e}")


def test_criterion_04_angle_family_indicator_surface():
    t0 = time.perf_counter()
    eof = MeasureSpec.eof()
    grid_min = math.inf
    for theta in np.linspace(0.0, math.pi, 100):
        for phi in np.linspace(0.0, 2 * math.pi, 100):
            val = tau_indicator(generalized_ghz3(float(theta), float(phi)), eof).value
            grid_min = min(grid_min, val)
    zeros_ok = True
    for phi in np.linspace(0.0, 2 * math.pi, 100):
        zeros_ok &= tau_indicator(generalized_ghz3(math.pi, float(phi)), eof).value < 1e-9
    for phi in (math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi):
        zeros_ok &= tau_indicator(generalized_ghz3(math.pi / 2, phi), eof).value < 1e-9
    interior = tau_indicator(generalized_ghz3(math.pi / 2, math.pi / 4), eof).value
    elapsed = time.perf_counter() - t0
    ok = grid_min >= -1e-9 and zeros_ok and interior > 0.01 and elapsed < 30.0
    _report(4, "100x100 indicator surface: nonnegative, zeros at product points",
            ok, f"min {grid_min:.2e}, interior {interior:.3f}, {elapsed:.1f}s")


def _block_margins(shape, amps, cuts2):
    """Every margin of a block, one array per check.

    Polygon on every shape, triangle and mixed Renyi (RENYI_ORDERS) on three
    sites, the 2-site bipartitions on four; FUZZ_SPECS throughout.
    """
    mv = cut_values(amps, shape, FUZZ_SPECS, [(j,) for j in range(len(shape))])
    margins = {"polygon": polygon_slack(mv)}
    if len(shape) == 3:
        lhs, rhs = triangle_bounds(mv)
        margins["triangle"] = rhs - lhs
        for r in RENYI_ORDERS:
            margins[f"renyi{r:g}"] = renyi_mixed_margins(amps, shape, MeasureSpec.renyi(r))
    if cuts2:
        lhs, rhs = bipartition_bounds(amps, shape, FUZZ_SPECS, cuts2)
        margins["bipartition"] = rhs - lhs
    return margins


def _cross_check(shape, amps, margins, cuts2):
    """The scalar checks agree with one row of the block forms."""
    psi = MultiQuditState(shape, amps)
    n = len(shape)
    for i, spec in enumerate(FUZZ_SPECS):
        mv = marginal_vector(psi, spec)
        for j in range(n):
            assert abs(polygon_check(mv, j).margin - margins["polygon"][i, j]) < 1e-12
        for j in range(3 if n == 3 else 0):
            for b, res in enumerate(triangle_check(mv, j)):
                assert abs(res.margin - margins["triangle"][i, j, b]) < 1e-12
        for c, cut in enumerate(cuts2):
            res = bipartition_check(psi, cut, spec)
            assert abs(res.margin - margins["bipartition"][i, c]) < 1e-12
    for r in RENYI_ORDERS if n == 3 else ():
        for j in range(3):
            for b, res in enumerate(renyi_mixed_check(psi, j, r)):
                assert abs(res.margin - margins[f"renyi{r:g}"][2 * j + b]) < 1e-12


def test_criterion_05_fuzz_suites():
    t0 = time.perf_counter()
    trials = 10_000
    overall = math.inf
    per_shape = {}
    for shape in FUZZ_SHAPES:
        n = len(shape)
        cuts2 = ([Bipartition.of(side, n) for side in itertools.combinations(range(n), 2)]
                 if n >= 4 else [])
        shape_worst = math.inf
        # trial t is haar_random(shape, mix64(20_260_810, t))
        for lo, _, amps in trial_blocks(shape, 20_260_810, 0, trials):
            margins = _block_margins(shape, amps, cuts2)
            shape_worst = min(shape_worst, *(float(m.min()) for m in margins.values()))
            for t in range(25 if lo == 0 else 0):  # sampled cross-check, first block
                _cross_check(shape, amps[t], {k: m[t] for k, m in margins.items()}, cuts2)
        per_shape[shape] = shape_worst
        overall = min(overall, shape_worst)
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{s}:{m:.2e}" for s, m in per_shape.items())
    _report(5, f"fuzz suites, {trials} Haar states per shape",
            overall >= -1e-9 and elapsed < 600.0,
            f"min margins {detail}, {elapsed:.0f}s")


def _product_state(patterns, seed):
    amps = np.ones(1, dtype=complex)
    order = []
    for k, group in enumerate(patterns):
        sub = haar_random((3,) * len(group), seed + 7919 * k)
        amps = np.kron(amps, sub.amplitudes)
        order.extend(group)
    t = amps.reshape((3, 3, 3)).transpose(np.argsort(order)).reshape(-1)
    return from_amplitudes((3, 3, 3), t)


def test_criterion_06_product_indicator_oracle():
    eof = MeasureSpec.eof()
    patterns = [[(0,), (1, 2)], [(1,), (0, 2)], [(2,), (0, 1)], [(0,), (1,), (2,)]]
    worst_product = 0.0
    for k in range(500):
        psi = _product_state(patterns[k % 4], seed=k)
        worst_product = max(worst_product, tau_indicator(psi, eof).value)
    haar_ok = True
    min_tau = math.inf
    for k in range(500):
        psi = haar_random((3, 3, 3), 31_000 + k)
        tau = tau_indicator(psi, eof).value
        min_tau = min(min_tau, tau)
        if tau < 1e-6:
            # a tiny indicator is only acceptable for a genuine product state
            haar_ok &= product_structure_oracle(psi)
    ok = worst_product < 1e-9 and haar_ok
    _report(6, "product states give zero indicator, Haar states do not",
            ok, f"max product tau {worst_product:.2e}, min Haar tau {min_tau:.2e}")


def test_criterion_07_entropy_limit_continuity():
    worst_renyi = worst_tsallis = worst_vn = 0.0
    sizes = ((2, 2), (2, 3), (3, 3))
    for k in range(100):
        dims = sizes[k % 3]
        d = dims[0] * dims[1]
        env = d + 2
        psi = haar_random(dims + (env,), 5_000 + k)
        rho = partial_trace(np.outer(psi.amplitudes, psi.amplitudes.conj()),
                            dims + (env,), (0, 1))
        for r in (0.5, 2.0, 3.0):
            worst_renyi = max(worst_renyi,
                              abs(unified_entropy(rho, r, 1e-6) - renyi(rho, r) * LN2))
            for s1 in (1 - 1e-6, 1 + 1e-6):
                worst_tsallis = max(worst_tsallis,
                                    abs(unified_entropy(rho, r, s1) - tsallis(rho, r)))
        for s in (0.5, 1.0, 2.0):
            for r1 in (1 - 1e-6, 1 + 1e-6):
                worst_vn = max(worst_vn,
                               abs(unified_entropy(rho, r1, s) - von_neumann(rho) * LN2))
    ok = worst_renyi < 1e-4 and worst_tsallis < 1e-4 and worst_vn < 1e-3
    _report(7, "unified-entropy limits (ln2-consistent references)",
            ok, f"renyi {worst_renyi:.2e}, tsallis {worst_tsallis:.2e}, vn {worst_vn:.2e}")


def test_criterion_08_eigensolver_quality():
    rng = np.random.default_rng(77)
    worst_resid = 0.0
    for n in (4, 8, 16, 32, 64):
        for _ in range(3):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = 0.5 * (a + a.conj().T)
            vals, vecs = hermitian_eigensystem(h)
            worst_resid = max(worst_resid, float(np.max(np.abs(
                h - vecs @ np.diag(vals) @ vecs.conj().T))))
    worst_sum = 0.0
    for k, dims in enumerate(((2, 3), (3, 3), (2, 2, 2))):
        psi = haar_random(dims + (4,), 900 + k)
        rho = partial_trace(np.outer(psi.amplitudes, psi.amplitudes.conj()),
                            dims + (4,), tuple(range(len(dims))))
        vals = hermitian_eigenvalues(rho)
        worst_sum = max(worst_sum, abs(float(np.sum(np.clip(vals, 0, None))) - 1.0))
    rho12 = partial_trace(star4().density(), (8, 2, 2, 2), (0, 1))
    spec12 = hermitian_eigenvalues(rho12)
    spec_ok = (np.max(np.abs(spec12[-4:] - 0.25)) < 1e-10
               and np.max(np.abs(spec12[:-4])) < 1e-10)
    ok = worst_resid < 1e-10 and worst_sum < 1e-9 and spec_ok
    _report(8, "eigensolver residuals, spectrum sums, hub-pair spectrum",
            ok, f"resid {worst_resid:.2e}, sum err {worst_sum:.2e}")


def test_criterion_09_comparison_table_reports():
    header1, rows1, footers1, _ = run_target("table1", trials=1000, seed=0)
    header2, rows2, footers2, _ = run_target("table1", trials=1000, seed=0)
    identical = (header1, rows1, footers1) == (header2, rows2, footers2)
    open_rows = [r for r in rows1 if r[2] == "?"]
    generated = len(rows1) == 10 and len(open_rows) == 2
    trials_ok = all(r[3] == "1000" for r in rows1)
    _report(9, "comparison-table fuzz report, deterministic across runs",
            identical and generated and trials_ok,
            f"open-row violation counts {[r[4] for r in open_rows]}")


def test_criterion_10_search_worker_determinism():
    cfg = SearchConfig(dims=(3, 3, 3), spec=MeasureSpec.qconcurrence(2),
                       trials=1000, seed=42)
    r1 = fuzz_polygon(cfg, workers=1)
    r8 = fuzz_polygon(cfg, workers=8)
    identical = report_to_json(r1) == report_to_json(r8)
    _report(10, "fuzz report identical for 1 and 8 workers",
            identical, f"violations {r1.violations}, min margin {r1.min_margin:.3f}")
