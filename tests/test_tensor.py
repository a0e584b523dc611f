import math

import numpy as np
import pytest

from entpoly.errors import InvalidInputError
from entpoly.measures import Bipartition, MeasureSpec
from entpoly.reproduce import run_target
from entpoly.search import SearchConfig, fuzz_polygon, grid_scan, mix64
from entpoly.states import (
    MultiQuditState, NetworkSpec, Resource, from_amplitudes, ghz, haar_random, star4)
from entpoly.tensor import (
    MAX_STATE_DIM,
    as_dims,
    as_sites,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    kron,
    partial_trace,
    partial_transpose,
)


def random_hermitian(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def random_density(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_kron_identities():
    eye2 = np.eye(2)
    np.testing.assert_allclose(kron(eye2, eye2), np.eye(4), atol=0)
    np.testing.assert_allclose(
        kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
        np.diag([0.0, 1.0, 0.0, 0.0]), atol=0)


def test_kron_then_partial_trace_recovers_factor():
    rng = np.random.default_rng(1)
    rho = random_density(3, rng)
    composite = kron(np.diag([1.0, 0.0]), rho)
    np.testing.assert_allclose(partial_trace(composite, (2, 3), (1,)), rho, atol=1e-14)


def test_partial_trace_product_and_epr():
    ket00 = np.zeros(4); ket00[0] = 1.0
    rho = np.outer(ket00, ket00)
    np.testing.assert_allclose(partial_trace(rho, (2, 2), (0,)),
                               np.diag([1.0, 0.0]), atol=1e-15)
    epr = np.zeros(4, dtype=complex); epr[0] = epr[3] = 1 / np.sqrt(2)
    np.testing.assert_allclose(partial_trace(np.outer(epr, epr.conj()), (2, 2), (0,)),
                               np.eye(2) / 2, atol=1e-15)


def test_partial_trace_star4_hub_pair_spectrum():
    rho12 = partial_trace(star4().density(), (8, 2, 2, 2), (0, 1))
    vals = hermitian_eigenvalues(rho12)
    assert rho12.shape == (16, 16)
    np.testing.assert_allclose(vals[-4:], 0.25, atol=1e-10)
    np.testing.assert_allclose(vals[:-4], 0.0, atol=1e-10)


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(2)
    for dims in ((2, 3), (2, 2, 2), (3, 2, 4)):
        d = int(np.prod(dims))
        h = random_hermitian(d, rng)
        for keep in ((0,), (1,), (0, 1)):
            red = partial_trace(h, dims, keep)
            assert abs(np.trace(red) - np.trace(h)) < 1e-12
            assert np.max(np.abs(red - red.conj().T)) < 1e-12
        # trace preserved for general (non-Hermitian) input too
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert abs(np.trace(partial_trace(g, dims, (0,))) - np.trace(g)) < 1e-12


def test_partial_trace_empty_and_full_keep():
    rng = np.random.default_rng(3)
    rho = random_density(6, rng)
    np.testing.assert_allclose(partial_trace(rho, (2, 3), ()), [[1.0]], atol=1e-14)
    np.testing.assert_allclose(partial_trace(rho, (2, 3), (0, 1)), rho, atol=0)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        partial_trace(np.eye(5), (2, 2), (0,))
    with pytest.raises(InvalidInputError):
        partial_trace(np.eye(4), (2, 2), (0, 2))


def test_schmidt_symmetry_of_reduced_spectra():
    rng = np.random.default_rng(5)
    for dims, cut in (((2, 3), (0,)), ((3, 4), (0,)), ((2, 3, 4), (1,))):
        psi = haar_random(dims, int(rng.integers(2**62)))
        rest = tuple(j for j in range(len(dims)) if j not in cut)
        wa = hermitian_eigenvalues(partial_trace(psi.density(), dims, cut))
        wb = hermitian_eigenvalues(partial_trace(psi.density(), dims, rest))
        wa = np.sort(wa[wa > 1e-10])[::-1]
        wb = np.sort(wb[wb > 1e-10])[::-1]
        assert wa.size == wb.size
        np.testing.assert_allclose(wa, wb, atol=1e-10)


def test_eigenvalues_simple_cases():
    np.testing.assert_allclose(hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])),
                               [1.0, 2.0, 3.0], atol=0)
    np.testing.assert_allclose(hermitian_eigenvalues(np.eye(4) / 4), 0.25, atol=0)


def test_eigenvalues_match_lapack_oracle():
    rng = np.random.default_rng(6)
    for n in (2, 3, 5, 8, 13, 21, 34):
        h = random_hermitian(n, rng)
        np.testing.assert_allclose(hermitian_eigenvalues(h), np.linalg.eigvalsh(h),
                                   atol=1e-11)


def test_eigensystem_reconstruction_up_to_64():
    rng = np.random.default_rng(7)
    for n in (2, 5, 16, 33, 64):
        h = random_hermitian(n, rng)
        vals, vecs = hermitian_eigensystem(h)
        resid = np.max(np.abs(h - vecs @ np.diag(vals) @ vecs.conj().T))
        assert resid < 1e-10
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(n))) < 1e-12


def test_density_spectrum_sums_to_one():
    rng = np.random.default_rng(8)
    for n in (2, 5, 9):
        vals = hermitian_eigenvalues(random_density(n, rng))
        assert abs(np.sum(vals) - 1.0) < 1e-9
        assert vals[0] > -1e-10


def test_eigenvalues_reject_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InvalidInputError):
        hermitian_eigenvalues(bad)


def test_partial_transpose_product_state():
    rng = np.random.default_rng(10)
    a, b = random_density(2, rng), random_density(3, rng)
    got = partial_transpose(kron(a, b), (2, 3), (1,))
    np.testing.assert_allclose(got, kron(a, b.T), atol=1e-14)
    assert hermitian_eigenvalues(got)[0] > -1e-12  # still PSD


def test_partial_transpose_epr_negative_eigenvalue():
    epr = np.zeros(4, dtype=complex); epr[0] = epr[3] = 1 / np.sqrt(2)
    pt = partial_transpose(np.outer(epr, epr.conj()), (2, 2), (1,))
    assert abs(hermitian_eigenvalues(pt)[0] + 0.5) < 1e-12


def test_partial_transpose_involution_and_trace():
    rng = np.random.default_rng(11)
    for dims, subset in (((2, 2), (1,)), ((2, 3, 2), (0, 2)), ((3, 4), (0,))):
        rho = random_density(int(np.prod(dims)), rng)
        pt = partial_transpose(rho, dims, subset)
        np.testing.assert_array_equal(partial_transpose(pt, dims, subset), rho)
        assert abs(np.trace(pt) - np.trace(rho)) < 1e-14
        assert np.max(np.abs(pt - pt.conj().T)) < 1e-12


_EOF = MeasureSpec.eof()
_E0 = np.eye(4)[0]
# entry point -> a call that takes one integer through it (x = 2 is a valid value)
INTEGER_ENTRY_POINTS = {
    "haar_random": lambda x: haar_random((x, 3), 0),
    "MultiQuditState": lambda x: MultiQuditState((x, 2), _E0),
    "from_amplitudes": lambda x: from_amplitudes((2, x), _E0),
    "ghz_d": lambda x: ghz(x, 3),
    "ghz_m": lambda x: ghz(3, x),
    "SearchConfig_dims": lambda x: SearchConfig(dims=(x, 2), spec=_EOF, trials=2),
    "SearchConfig_trials": lambda x: SearchConfig(dims=(2, 2), spec=_EOF, trials=x),
    "SearchConfig_record_worst":
        lambda x: SearchConfig(dims=(2, 2), spec=_EOF, trials=2, record_worst=x),
    # one trial is one chunk, so no worker process starts
    "fuzz_polygon_workers":
        lambda x: fuzz_polygon(SearchConfig(dims=(2, 2), spec=_EOF, trials=1), workers=x),
    "Bipartition": lambda x: Bipartition((0,), (x,)),
    "as_sites": lambda x: as_sites((0, x), 3),
    "grid_scan": lambda x: grid_scan("w_interp", (x, 2), _EOF),
    "Resource": lambda x: Resource.ghz(x, (0, 1)),
    "NetworkSpec": lambda x: NetworkSpec(x, (Resource.epr(0, 1),)),
    "haar_random_seed": lambda x: haar_random((2, 2), x),
    "mix64_seed": lambda x: mix64(x, 0),
    "SearchConfig_seed": lambda x: SearchConfig(dims=(2, 2), spec=_EOF, trials=2, seed=x),
    "example1_grid": lambda x: run_target("example1", grid=x),
    "example3_d": lambda x: run_target("example3", d=x),
    "example3_m": lambda x: run_target("example3", m=x),
    "example4_n": lambda x: run_target("example4", n=x),
    "fig4a_grid": lambda x: run_target("fig4a", grid=x),
    "table1_trials": lambda x: run_target("table1", trials=x),
    "table1_seed": lambda x: run_target("table1", trials=1, seed=x),
}


@pytest.mark.parametrize("value", [2.7, 2.0, 2.5])
@pytest.mark.parametrize("entry", sorted(INTEGER_ENTRY_POINTS))
def test_one_integer_rule_at_every_entry_point(entry, value):
    call = INTEGER_ENTRY_POINTS[entry]
    with pytest.raises(InvalidInputError, match="must be an integer"):
        call(value)
    call(np.int64(2))  # numpy integers are integers


def test_state_dimension_cap():
    assert as_dims((2,) * 24) == (2,) * 24
    assert math.prod(as_dims((2,) * 24)) == MAX_STATE_DIM
    with pytest.raises(InvalidInputError, match="MAX_STATE_DIM"):
        as_dims((2,) * 25)
    # the product is checked entry by entry, so neither call builds its dims
    with pytest.raises(InvalidInputError, match="MAX_STATE_DIM"):
        ghz(2, 10**15)
    with pytest.raises(InvalidInputError, match="MAX_STATE_DIM"):
        haar_random((2**12, 2**12, 2), 0)
