import math

import numpy as np
import pytest

from entpoly.entropies import (
    EntropyParams,
    density_spectrum,
    f_q,
    renyi,
    renyi0,
    tsallis,
    unified_entropy,
    von_neumann,
)
from entpoly.errors import InvalidInputError
from entpoly.states import epr, haar_random
from entpoly.tensor import partial_trace

LN2 = math.log(2.0)


def random_mixed(dims_ab, dim_env, seed):
    """Induced-measure random density on dims_ab via a traced-out environment."""
    psi = haar_random(dims_ab + (dim_env,), seed)
    keep = tuple(range(len(dims_ab)))
    return partial_trace(np.outer(psi.amplitudes, psi.amplitudes.conj()),
                         dims_ab + (dim_env,), keep)


def random_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_fq_pure_state_is_zero():
    proj = np.zeros((4, 4)); proj[1, 1] = 1.0
    for q in (2, 3, 4.5, 9):
        assert abs(f_q(proj, q)) < 1e-12


def test_fq_maximally_mixed():
    for d in (2, 3, 5):
        for q in (2, 3, 2.5, 17):
            assert abs(f_q(np.eye(d) / d, q) - (1 - d ** (1 - q))) < 1e-12


def test_fq_w_marginal_closed_form():
    rho = np.diag([2 / 3, 1 / 6, 1 / 6])
    assert abs(f_q(rho, 3) - (1 - 8 / 27 - 2 / 216)) < 1e-14


def test_fq_validation():
    with pytest.raises(InvalidInputError):
        f_q(np.eye(2), 2)  # trace 2
    with pytest.raises(InvalidInputError):
        f_q(np.eye(2) / 2, 1.5)
    with pytest.raises(InvalidInputError):
        f_q(np.array([[0.5, 0.4], [0.1, 0.5]]), 2.5)  # not Hermitian
    with pytest.raises(InvalidInputError):
        f_q(np.diag([1.5, -0.5]), 2.5)  # not PSD (eigenvalue path)


def test_validation_does_not_depend_on_the_order():
    # integer and fractional orders must reject exactly the same matrices
    not_psd = np.diag([1.5, -0.5])
    not_hermitian = np.array([[0.5, 0.4], [0.1, 0.5]])
    trace_two = np.eye(2)
    for order in (2, 3, 2.5, 8, 9.5):
        for fn in (lambda m: f_q(m, order), lambda m: renyi(m, order),
                   lambda m: tsallis(m, order), lambda m: unified_entropy(m, order, 0.5)):
            for bad in (not_psd, not_hermitian, trace_two):
                with pytest.raises(InvalidInputError):
                    fn(bad)


def test_unified_special_values():
    proj = np.diag([1.0, 0.0])
    for r, s in ((2, 1), (0.5, 2), (3, 0.3)):
        assert abs(unified_entropy(proj, r, s)) < 1e-12
    assert abs(unified_entropy(np.eye(2) / 2, 2, 1) - 0.5) < 1e-14
    assert abs(tsallis(np.eye(2) / 2, 2) - 0.5) < 1e-14


def test_unified_limit_dispatch_bands():
    rho = random_mixed((2, 3), 4, 21)
    # inside the dispatch band the value is exactly the dispatched entropy
    assert unified_entropy(rho, 2, 1e-10) == renyi(rho, 2)
    assert unified_entropy(rho, 1 + 1e-10, 3) == von_neumann(rho)
    assert renyi(rho, 1 + 1e-10) == von_neumann(rho)
    assert tsallis(rho, 1 - 1e-10) == von_neumann(rho)


def test_limit_continuity_outside_band():
    # the algebraic formula approaches natural-log limits: compare against
    # the ln2-consistent references
    for seed in range(100):
        rho = random_mixed((3, 3), 4, seed) if seed % 2 else random_mixed((2, 2), 5, seed)
        for r in (0.5, 2.0, 3.0):
            assert abs(unified_entropy(rho, r, 1e-6) - renyi(rho, r) * LN2) < 1e-4
            for s_near_1 in (1 - 1e-6, 1 + 1e-6):
                assert abs(unified_entropy(rho, r, s_near_1) - tsallis(rho, r)) < 1e-4
        for s in (0.5, 1.0, 2.0):
            for r_near_1 in (1 - 1e-6, 1 + 1e-6):
                assert abs(unified_entropy(rho, r_near_1, s) - von_neumann(rho) * LN2) < 1e-3


def test_von_neumann_and_renyi0_values():
    assert abs(von_neumann(np.eye(2) / 2) - 1.0) < 1e-14
    marg = partial_trace(epr().density(), (2, 2), (0,))
    assert abs(renyi0(marg) - 1.0) < 1e-14
    assert abs(renyi0(np.diag([1.0, 0.0]))) < 1e-14
    assert abs(renyi(np.eye(2) / 2, 2) - 1.0) < 1e-14


def test_tsallis_matches_fq_at_two():
    for seed in range(10):
        rho = random_mixed((2, 3), 3, seed)
        assert abs(tsallis(rho, 2) - f_q(rho, 2)) < 1e-12


def test_renyi_zero_matches_renyi0():
    rho = np.diag([0.6, 0.4, 0.0])
    assert renyi(rho, 0) == renyi0(rho)
    assert abs(renyi(rho, 0) - 1.0) < 1e-14


def test_entropies_reject_non_density():
    for fn in (lambda m: unified_entropy(m, 2.5, 1), lambda m: renyi(m, 0.5),
               lambda m: tsallis(m, 2.5), von_neumann, renyi0):
        with pytest.raises(InvalidInputError):
            fn(np.diag([1.2, -0.2]))


def test_parameter_validation():
    rho = np.eye(2) / 2
    with pytest.raises(InvalidInputError):
        unified_entropy(rho, -0.5, 1)
    with pytest.raises(InvalidInputError):
        unified_entropy(rho, 2, -1)
    with pytest.raises(InvalidInputError):
        renyi(rho, -1)
    with pytest.raises(InvalidInputError):
        tsallis(rho, 0)
    with pytest.raises(InvalidInputError):
        EntropyParams("fq", q=1.0)
    with pytest.raises(InvalidInputError):
        EntropyParams("bogus")


def test_non_finite_and_unused_parameters_rejected():
    rho = np.eye(2) / 2
    for fn in (lambda: f_q(rho, math.nan), lambda: renyi(rho, math.inf),
               lambda: tsallis(rho, math.nan), lambda: unified_entropy(rho, 2, math.inf),
               lambda: EntropyParams("fq", q=math.nan), lambda: EntropyParams("fq"),
               lambda: EntropyParams("vn", q=2.0), lambda: EntropyParams("unified", r=2.0)):
        with pytest.raises(InvalidInputError):
            fn()
    assert EntropyParams("unified", r=2.0, s=0.0).of_matrix(rho) == renyi(rho, 2.0)


def test_unitary_invariance():
    # full-rank density: fractional powers of true zero eigenvalues are
    # ill-conditioned (sqrt of basis-dependent 1e-16 noise), which is a
    # property of the functional, not the implementation
    rng = np.random.default_rng(31)
    rho = random_mixed((2, 3), 8, 77)
    u = random_unitary(6, rng)
    conj = u @ rho @ u.conj().T
    for fn in (lambda m: f_q(m, 2.5), lambda m: unified_entropy(m, 2, 1.3),
               lambda m: renyi(m, 0.5), lambda m: tsallis(m, 3), von_neumann, renyi0):
        assert abs(fn(rho) - fn(conj)) < 1e-10


def test_fq_subadditivity_and_lower_bound():
    """|F_q(rho_A) - F_q(rho_B)| <= F_q(rho_AB) <= F_q(rho_A) + F_q(rho_B)."""
    shapes = ((2, 2), (2, 3), (3, 3))
    worst = math.inf
    for trial in range(5000):
        dims = shapes[trial % len(shapes)]
        psi = haar_random(dims, trial)
        full = np.outer(psi.amplitudes, psi.amplitudes.conj())
        wa = density_spectrum(partial_trace(full, dims, (0,)))
        wb = density_spectrum(partial_trace(full, dims, (1,)))
        for q in (2, 3, 4.5):
            fa, fb = 1 - np.sum(wa**q), 1 - np.sum(wb**q)
            worst = min(worst, fa + fb - 0.0, 0.0 - abs(fa - fb))
    assert worst >= -1e-9
    worst = math.inf
    for trial in range(5000):
        dims = shapes[trial % len(shapes)]
        rho = random_mixed(dims, 4, 10_000 + trial)
        wab = density_spectrum(rho)
        wa = density_spectrum(partial_trace(rho, dims, (0,)))
        wb = density_spectrum(partial_trace(rho, dims, (1,)))
        for q in (2, 3, 4.5):
            fab = 1 - np.sum(wab**q)
            fa, fb = 1 - np.sum(wa**q), 1 - np.sum(wb**q)
            worst = min(worst, fa + fb - fab, fab - abs(fa - fb))
    assert worst >= -1e-9


def test_unified_subadditivity_and_araki_lieb():
    """For r >= 1, s >= 0: |S(A) - S(B)| <= S(AB) <= S(A) + S(B)."""
    worst = math.inf
    for trial in range(300):
        dims = ((2, 2), (2, 3))[trial % 2]
        rho = random_mixed(dims, 4, trial)
        ra = partial_trace(rho, dims, (0,))
        rb = partial_trace(rho, dims, (1,))
        for r, s in ((1, 1), (1.5, 0.5), (2, 1), (3, 2), (2, 0)):
            sab = unified_entropy(rho, r, s)
            sa, sb = unified_entropy(ra, r, s), unified_entropy(rb, r, s)
            worst = min(worst, sa + sb - sab, sab - abs(sa - sb))
    assert worst >= -1e-9


def test_renyi_weak_subadditivity():
    """R_r(A) - R_0(B) <= R_r(AB) <= R_r(A) + R_0(B) on random states."""
    worst = math.inf
    for trial in range(300):
        dims = ((2, 2), (2, 3))[trial % 2]
        rho = random_mixed(dims, 4, 500 + trial)
        ra = partial_trace(rho, dims, (0,))
        rb = partial_trace(rho, dims, (1,))
        for r in (0.5, 2, 3):
            rab = renyi(rho, r)
            upper = renyi(ra, r) + renyi0(rb) - rab
            lower = rab - (renyi(ra, r) - renyi0(rb))
            worst = min(worst, upper, lower)
    assert worst >= -1e-9


def test_tsallis_triangle_for_r_above_one():
    worst = math.inf
    for trial in range(300):
        dims = ((2, 2), (3, 2))[trial % 2]
        rho = random_mixed(dims, 4, 900 + trial)
        ta = tsallis(partial_trace(rho, dims, (0,)), 2.5)
        tb = tsallis(partial_trace(rho, dims, (1,)), 2.5)
        tab = tsallis(rho, 2.5)
        worst = min(worst, ta + tb - tab, tab - abs(ta - tb))
    assert worst >= -1e-9
