import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entpoly.errors import InvalidInputError
from entpoly.inequalities import (
    bipartition_bounds,
    bipartition_check,
    default_tau_hat_cuts,
    polygon_check,
    polygon_margins,
    polygon_slack,
    product_structure_oracle,
    renyi_mixed_bounds,
    renyi_mixed_check,
    renyi_mixed_margins,
    tau_hat_indicator,
    tau_indicator,
    triangle_bounds,
    triangle_check,
)
from entpoly.measures import Bipartition, MeasureSpec, cut_values, marginal_vector
from entpoly.search import mix64
from entpoly.states import (
    from_amplitudes,
    generalized_ghz3,
    ghz,
    MultiQuditState,
    haar_random,
    star4,
    w_qutrit,
)
from entpoly.tolerances import DEFAULT_TOL

ENTROPY_SPECS = [
    MeasureSpec.qconcurrence(2), MeasureSpec.qconcurrence(3),
    MeasureSpec.qconcurrence(4.5), MeasureSpec.unified(1, 1),
    MeasureSpec.unified(1.5, 0.5), MeasureSpec.unified(2, 1),
    MeasureSpec.unified(3, 2), MeasureSpec.tsallis(1.5),
    MeasureSpec.tsallis(2), MeasureSpec.tsallis(3), MeasureSpec.eof(),
]


def product_state(dims, factors, seed):
    """Haar factor on each group of sites, tensored together."""
    amps = np.ones(1, dtype=complex)
    for k, group in enumerate(factors):
        sub = haar_random(tuple(dims[j] for j in group), seed + 1000 * k)
        amps = np.kron(amps, sub.amplitudes)
    order = [j for group in factors for j in group]
    perm_dims = tuple(dims[j] for j in order)
    t = amps.reshape(perm_dims).transpose(np.argsort(order)).reshape(-1)
    return from_amplitudes(dims, t)


def test_polygon_check_arithmetic():
    res = polygon_check([0.5, 0.5, 0.5], 0)
    assert res.lhs == 0.5 and res.rhs == 1.0 and res.satisfied
    assert abs(res.margin - 0.5) < 1e-15
    res = polygon_check([1.0, 0.0, 0.0], 0)
    assert res.margin == -1.0 and not res.satisfied
    with pytest.raises(InvalidInputError):
        polygon_check([0.5], 1)
    with pytest.raises(InvalidInputError):
        polygon_check([], 0)


def test_polygon_check_margin_is_the_polygon_slack():
    # sum - 2 mv[j] and (sum - mv[j]) - mv[j] round apart on this state and site
    psi = haar_random((3, 2, 2, 3), 0)
    mv = marginal_vector(psi, MeasureSpec.eof())
    res = polygon_check(mv, 2)
    assert res.rhs - res.lhs != polygon_slack(mv)[2]
    assert res.margin == polygon_slack(mv)[2] == polygon_margins(
        psi.amplitudes[None], psi.dims, MeasureSpec.eof())[0, 2]


def test_polygon_check_star4_vector():
    mv = marginal_vector(star4(), MeasureSpec.qconcurrence(2))
    res = polygon_check(mv, 0)
    assert abs(res.margin - 5 / 8) < 1e-12


def test_triangle_check_w_vector():
    lower, upper = triangle_check([0.5, 0.5, 0.5], 0)
    assert abs(lower.margin - 0.5) < 1e-15
    assert abs(upper.margin - 0.5) < 1e-15
    lower, upper = triangle_check([0.0, 0.5, 0.5], 0)
    assert abs(lower.margin) < 1e-15   # equality |0.5-0.5| = 0
    assert abs(upper.margin - 1.0) < 1e-15
    lower, upper = triangle_check([0.25, 0.125, 0.5], 0)  # |E_1 - E_2| exceeds E_0
    assert (lower.lhs, lower.rhs, lower.satisfied) == (0.375, 0.25, False)
    assert (upper.lhs, upper.rhs, upper.satisfied) == (0.25, 0.625, True)
    with pytest.raises(InvalidInputError):
        triangle_check([0.5, 0.5], 0)


def test_renyi_mixed_product_state_equalities():
    amps = np.zeros(8, dtype=complex); amps[0] = 1.0
    psi = from_amplitudes((2, 2, 2), amps)
    for i in range(3):
        lower, upper = renyi_mixed_check(psi, i, 2)
        assert abs(lower.lhs) < 1e-12 and abs(lower.rhs) < 1e-12
        assert abs(upper.margin) < 1e-12


def test_renyi_mixed_ghz_upper_margin():
    lower, upper = renyi_mixed_check(ghz(2, 3), 0, 2)
    assert abs(upper.lhs - 1.0) < 1e-12      # R_2 of a uniform 2-spectrum
    assert abs(upper.rhs - 2.0) < 1e-12      # R_2 + R_0
    assert abs(upper.margin - 1.0) < 1e-12
    assert lower.satisfied


def test_renyi_mixed_fuzz_qutrits():
    for seed in range(200):
        psi = haar_random((3, 3, 3), seed)
        for r in (0.5, 2, 3):
            for i in range(3):
                lower, upper = renyi_mixed_check(psi, i, r)
                assert lower.margin >= -1e-9
                assert upper.margin >= -1e-9


def test_renyi_mixed_validation():
    psi = haar_random((3, 3, 3), 0)
    with pytest.raises(InvalidInputError):
        renyi_mixed_check(psi, 0, 1.0)
    with pytest.raises(InvalidInputError):
        renyi_mixed_check(haar_random((2, 2), 0), 0, 2)
    with pytest.raises(InvalidInputError):
        renyi_mixed_margins(psi.amplitudes[None], psi.dims, MeasureSpec.tsallis(2))


def test_renyi_absolute_lower_bound_is_genuinely_violated():
    # frozen counterexample: the log-rank term exceeds both Renyi terms,
    # so wrapping the lower bound in an absolute value fails
    psi = haar_random((2, 3, 4), mix64(7, 1035))
    lower, _ = renyi_mixed_check(psi, 1, 3)
    abs_form_margin = lower.rhs - abs(lower.lhs)
    assert lower.satisfied                 # signed form holds
    assert abs_form_margin < -1.0          # quoted absolute form fails badly


def test_bipartition_check_star4():
    res = bipartition_check(star4(), Bipartition.of((0, 1), 4), MeasureSpec.qconcurrence(2))
    assert abs(res.lhs - 0.75) < 1e-12
    assert abs(res.rhs - (7 / 8 + 0.5)) < 1e-12
    assert res.satisfied


def test_bipartition_check_single_site_side_is_equality():
    psi = haar_random((2, 3, 2, 2), 4)
    res = bipartition_check(psi, Bipartition.of((1,), 4), MeasureSpec.qconcurrence(2))
    assert abs(res.margin) < 1e-12


def test_bipartition_check_random_cuts():
    for seed in range(100):
        psi = haar_random((2, 2, 2, 2), seed)
        for side in itertools.combinations(range(4), 2):
            res = bipartition_check(psi, Bipartition.of(side, 4), MeasureSpec.tsallis(2))
            assert res.margin >= -1e-9


def test_bipartition_check_five_sites():
    # smaller-count regression beyond the acceptance shapes
    for seed in range(40):
        psi = haar_random((2, 2, 2, 2, 2), seed)
        for side in itertools.combinations(range(5), 2):
            for spec in (MeasureSpec.qconcurrence(2), MeasureSpec.unified(2, 1)):
                res = bipartition_check(psi, Bipartition.of(side, 5), spec)
                assert res.margin >= -1e-9


def _same(res, lhs, rhs):
    # an InequalityResult equals one entry of a block form bit for bit
    return (res.lhs, res.rhs, res.margin) == (lhs, rhs, rhs - lhs)


def _assert_block_rows_equal_checks(dims):
    # two Haar rows, a product row and a GHZ row: each row of the block forms
    # equals the one-state checks and indicators
    n = len(dims)
    cat = np.zeros(dims, dtype=complex)
    for k in range(min(dims)):
        cat[(k,) * n] = 1 / math.sqrt(min(dims))
    block = np.stack([haar_random(dims, 70 + t).amplitudes for t in range(2)]
                     + [product_state(dims, [(j,) for j in range(n)], 80).amplitudes,
                        cat.reshape(-1)])
    cuts = default_tau_hat_cuts(n)
    lhs, rhs = bipartition_bounds(block, dims, ENTROPY_SPECS, cuts)
    assert lhs.shape == rhs.shape == (4, len(ENTROPY_SPECS), len(cuts))
    for t, amps in enumerate(block):
        psi = MultiQuditState(dims, amps)
        for i, spec in enumerate(ENTROPY_SPECS):
            for c, cut in enumerate(cuts):
                assert _same(bipartition_check(psi, cut, spec), lhs[t, i, c], rhs[t, i, c])
            slacks = rhs[t, i] - lhs[t, i]
            tau_hat = tau_hat_indicator(psi, None, spec)
            assert (tau_hat.value, tau_hat.argmin_site) == (slacks.min(), slacks.argmin())
    if n != 3:
        return
    tri_lhs, tri_rhs = triangle_bounds(cut_values(block, dims, ENTROPY_SPECS, [(0,), (1,), (2,)]))
    for r in (0.5, 2.0, 3.0):
        ren_lhs, ren_rhs = renyi_mixed_bounds(block, dims, r)
        for t, amps in enumerate(block):
            psi = MultiQuditState(dims, amps)
            for j in range(3):
                for b, res in enumerate(renyi_mixed_check(psi, j, r)):
                    assert _same(res, ren_lhs[t, j, b], ren_rhs[t, j, b])
    for t, amps in enumerate(block):
        psi = MultiQuditState(dims, amps)
        for i, spec in enumerate(ENTROPY_SPECS):
            for j in range(3):
                for b, res in enumerate(triangle_check(marginal_vector(psi, spec), j)):
                    assert _same(res, tri_lhs[t, i, j, b], tri_rhs[t, i, j, b])


def test_bipartition_margins_batch_matches_per_call():
    for dims in ((3, 3, 3), (2, 3, 4), (8, 2, 2, 2)):
        _assert_block_rows_equal_checks(dims)
    with pytest.raises(InvalidInputError):
        bipartition_check(haar_random((2, 3, 2, 2), 11), Bipartition.of((0, 1), 4),
                          MeasureSpec.negativity())


def test_tau_ghz_scaling():
    for d, m in ((2, 3), (3, 3), (3, 4), (2, 4)):
        g = ghz(d, m)
        for q in (2, 3):
            closed = (m - 2) * (1 - 1 / d ** (q - 1))
            res = tau_indicator(g, MeasureSpec.qconcurrence(q))
            assert abs(res.value - closed) < 1e-10
        for r, s in ((2, 1), (1.5, 0.5)):
            marg = (1 - d ** (r * s - s)) / ((1 - r) * s * d ** (r * s - s))
            res = tau_indicator(g, MeasureSpec.unified(r, s))
            assert abs(res.value - (m - 2) * marg) < 1e-10


def test_tau_w_qutrit():
    for q in (2, 3):
        closed = 1 - 2**q / 3**q - 2 / 6**q
        res = tau_indicator(w_qutrit(), MeasureSpec.qconcurrence(q))
        assert abs(res.value - closed) < 1e-10


def test_tau_product_state_is_zero():
    psi = product_state((3, 3, 3), [(0,), (1,), (2,)], seed=5)
    res = tau_indicator(psi, MeasureSpec.eof())
    assert abs(res.value) < 1e-9


def test_tau_nonnegative_on_random_states():
    for seed in range(100):
        psi = haar_random((2, 3, 2), seed)
        for spec in (MeasureSpec.qconcurrence(2), MeasureSpec.eof(),
                     MeasureSpec.unified(2, 1)):
            assert tau_indicator(psi, spec).value >= -1e-9


def test_default_tau_hat_cuts_enumeration():
    cuts = default_tau_hat_cuts(4)
    assert len(cuts) == 10  # C(4,2) + C(4,3)
    assert all(len(c.side_a) >= 2 for c in cuts)
    assert default_tau_hat_cuts(2)[0].side_a == (0,)


def test_tau_hat_star4():
    res = tau_hat_indicator(star4(), None, MeasureSpec.qconcurrence(2))
    assert abs(res.value - 0.25) < 1e-12
    for q in (2.0, 3.0, 5.5):
        closed = 2 * (1 - 2.0 ** (1 - q)) - (1 - 4.0 ** (1 - q))
        res = tau_hat_indicator(star4(), None, MeasureSpec.qconcurrence(q))
        assert abs(res.value - closed) < 1e-10


def test_tau_hat_two_site_state_is_zero():
    psi = haar_random((3, 3), 9)
    res = tau_hat_indicator(psi, None, MeasureSpec.qconcurrence(2))
    assert abs(res.value) < 1e-12
    assert abs(tau_indicator(psi, MeasureSpec.qconcurrence(2)).value) < 1e-12


def test_tau_hat_cat_states_minimize_at_two_site_sides():
    # every cut of a cat state carries the single-marginal value, so the
    # minimum slack is (|side_a| - 1) * C at |side_a| = 2
    for d, m in ((2, 3), (3, 4)):
        c = 1 - 1 / d
        res = tau_hat_indicator(ghz(d, m), None, MeasureSpec.qconcurrence(2))
        assert abs(res.value - c) < 1e-10


def test_tau_hat_explicit_cuts_and_argmin():
    cuts = [Bipartition.of((0, 1), 4), Bipartition.of((2, 3), 4)]
    res = tau_hat_indicator(star4(), cuts, MeasureSpec.qconcurrence(2))
    assert res.argmin_site == 1      # the {3,4}-side orientation attains 1/4
    assert abs(res.value - 0.25) < 1e-12
    with pytest.raises(InvalidInputError):
        tau_hat_indicator(star4(), [], MeasureSpec.qconcurrence(2))


def _eof_vanishes(psi):
    return tau_indicator(psi, MeasureSpec.eof()).value < DEFAULT_TOL


def test_eof_product_test_cases():
    assert _eof_vanishes(generalized_ghz3(math.pi, 0.7))
    assert not _eof_vanishes(generalized_ghz3(math.pi / 2, math.pi / 4))
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[3] = 1 / math.sqrt(2)   # |0> x EPR
    assert _eof_vanishes(from_amplitudes((2, 2, 2), amps))


def test_eof_product_test_agrees_with_oracle():
    patterns = [[(0,), (1, 2)], [(1,), (0, 2)], [(2,), (0, 1)], [(0,), (1,), (2,)]]
    for seed in range(500):
        psi = product_state((3, 3, 3), patterns[seed % 4], seed)
        assert product_structure_oracle(psi)
        assert _eof_vanishes(psi)
    for seed in range(500):
        psi = haar_random((3, 3, 3), seed)
        assert _eof_vanishes(psi) == product_structure_oracle(psi)
        assert not _eof_vanishes(psi)


def test_polygon_fuzz_small_heterogeneous():
    for seed in range(150):
        psi = haar_random((2, 3, 4), seed)
        for spec in ENTROPY_SPECS:
            mv = marginal_vector(psi, spec)
            for j in range(3):
                assert polygon_check(mv, j).margin >= -1e-9


def test_triangle_fuzz_small():
    for seed in range(150):
        psi = haar_random((2, 3, 4), seed)
        for spec in ENTROPY_SPECS:
            mv = marginal_vector(psi, spec)
            for i in range(3):
                lower, upper = triangle_check(mv, i)
                assert lower.margin >= -1e-9
                assert upper.margin >= -1e-9


@st.composite
def proved_polygon_cases(draw):
    """A Haar state and a measure whose polygon inequality is proved for it."""
    kind = draw(st.sampled_from(("qconc", "eof", "tsallis", "unified", "conc", "neg")))
    order = st.floats(1.0, 5.0, exclude_min=True)
    spec = {
        "qconc": lambda: MeasureSpec.qconcurrence(draw(st.floats(2.0, 9.0))),
        "eof": MeasureSpec.eof,
        "tsallis": lambda: MeasureSpec.tsallis(draw(order)),
        "unified": lambda: MeasureSpec.unified(draw(order), draw(st.floats(1.0, 5.0))),
        "conc": MeasureSpec.concurrence,
        "neg": MeasureSpec.negativity,
    }[kind]()
    if kind in ("conc", "neg"):  # proved for qubits only
        dims = (2, 2, 2)
    else:
        dims = tuple(draw(st.lists(st.integers(2, 4), min_size=3, max_size=4)))
    return haar_random(dims, draw(st.integers(0, 2**32 - 1))), spec


@settings(max_examples=50, deadline=None)
@given(case=proved_polygon_cases())
def test_polygon_margin_nonnegative_on_haar_states(case):
    psi, spec = case
    assert tau_indicator(psi, spec).value >= -DEFAULT_TOL
    if psi.num_sites == 3:  # the paper's lower and upper triangle bounds
        lhs, rhs = triangle_bounds(marginal_vector(psi, spec))
        assert (rhs - lhs).min() >= -DEFAULT_TOL
