"""Property tests of the Schmidt-spectrum kernel over every cut of small states."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entpoly.errors import InvalidInputError
from entpoly.measures import (
    Bipartition,
    MeasureSpec,
    cut_values,
    measure_pure,
    value_from_spectrum,
)
from entpoly.states import MultiQuditState, haar_random
from entpoly.tensor import partial_trace, partial_transpose, schmidt_spectrum

SPECS = [
    MeasureSpec.qconcurrence(2), MeasureSpec.qconcurrence(3.5),
    MeasureSpec.unified(2, 1), MeasureSpec.renyi(2), MeasureSpec.renyi(0.5),
    MeasureSpec.tsallis(2.5), MeasureSpec.eof(),
    MeasureSpec.concurrence(), MeasureSpec.negativity(),
]

dims_st = st.lists(st.integers(2, 4), min_size=2, max_size=4).map(tuple)
seed_st = st.integers(0, 2**63 - 1)
family_st = st.sampled_from(("haar", "product", "ghz"))


def all_cuts(n):
    """Every (side_a, side_b) split of n sites with both sides nonempty."""
    for size in range(1, n):
        for side in itertools.combinations(range(n), size):
            yield side, tuple(j for j in range(n) if j not in side)


def random_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def make_state(family, dims, seed):
    """Haar state, product of Haar sites, or GHZ over min(dims) levels."""
    if family == "haar":
        return haar_random(dims, seed)
    if family == "product":
        amps = np.ones(1, dtype=np.complex128)
        for k, d in enumerate(dims):
            amps = np.kron(amps, haar_random((d,), seed + k).amplitudes)
        return MultiQuditState(dims, amps)
    amps = np.zeros(dims, dtype=np.complex128)
    levels = min(dims)
    for k in range(levels):
        amps[(k,) * len(dims)] = 1.0 / math.sqrt(levels)
    return MultiQuditState(dims, amps)


@settings(max_examples=60, deadline=None)
@given(dims=dims_st, seed=seed_st, family=family_st)
def test_spectrum_matches_reduced_state_and_other_side(dims, seed, family):
    psi = make_state(family, dims, seed % 2**32)
    batch = np.stack([haar_random(dims, seed + 1).amplitudes, psi.amplitudes,
                      make_state("product", dims, seed % 2**32 + 2).amplitudes])
    for side_a, side_b in all_cuts(len(dims)):
        wa = schmidt_spectrum(psi.amplitudes, dims, side_a)
        wb = schmidt_spectrum(psi.amplitudes, dims, side_b)
        # a batch gives every row's own spectrum, bit for bit
        rows = schmidt_spectrum(batch, dims, side_a)
        assert rows.shape == (3, wa.size)
        for row, amps in zip(rows, batch):
            assert np.array_equal(row, schmidt_spectrum(amps, dims, side_a))
        assert wa.size == math.prod(dims[j] for j in side_a)
        assert np.all(wa >= 0.0) and np.all(np.diff(wa) >= 0.0)
        np.testing.assert_allclose(
            wa, np.linalg.eigvalsh(partial_trace(psi.density(), dims, side_a)),
            atol=1e-12)
        k = min(wa.size, wb.size)
        # the nonzero part is shared; the padding of the larger side is exact zeros
        np.testing.assert_allclose(wa[-k:], wb[-k:], atol=1e-14)
        assert not np.any(wa[:-k]) and not np.any(wb[:-k])


@settings(max_examples=40, deadline=None)
@given(dims=dims_st, seed=seed_st, family=family_st)
def test_values_invariant_under_local_unitaries(dims, seed, family):
    psi = make_state(family, dims, seed % 2**32)
    rng = np.random.default_rng(seed)
    u = np.ones((1, 1), dtype=np.complex128)
    for d in dims:
        u = np.kron(u, random_unitary(d, rng))
    rotated = MultiQuditState(dims, u @ psi.amplitudes)
    for side_a, side_b in all_cuts(len(dims)):
        np.testing.assert_allclose(schmidt_spectrum(rotated.amplitudes, dims, side_a),
                                   schmidt_spectrum(psi.amplitudes, dims, side_a),
                                   atol=1e-12)
        cut = Bipartition(side_a, side_b)
        batch = schmidt_spectrum(np.stack([rotated.amplitudes, psi.amplitudes]), dims, side_a)
        for spec in SPECS:
            a, b = measure_pure(rotated, cut, spec), measure_pure(psi, cut, spec)
            assert abs(a - b) < 1e-10
            # the batch of both spectra evaluates row by row like the 1-D calls
            values = value_from_spectrum(spec, batch)
            assert values.shape == (2,)
            for value, w in zip(values, batch):
                assert abs(value - value_from_spectrum(spec, w)) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(dims=dims_st, seed=seed_st, family=family_st)
def test_negativity_matches_partial_transpose_trace_norm(dims, seed, family):
    psi = make_state(family, dims, seed % 2**32)
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    for side_a, side_b in all_cuts(len(dims)):
        pt = partial_transpose(rho, dims, side_b)
        oracle = 0.5 * (float(np.sum(np.abs(np.linalg.eigvalsh(pt)))) - 1.0)
        got = measure_pure(psi, Bipartition(side_a, side_b), MeasureSpec.negativity())
        assert abs(got - oracle) < 1e-12


def test_known_spectra_and_padding():
    g = make_state("ghz", (2, 3, 4), 0)
    np.testing.assert_allclose(schmidt_spectrum(g.amplitudes, g.dims, (2,)),
                               [0.0, 0.0, 0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(schmidt_spectrum(g.amplitudes, g.dims, ()), [1.0], atol=1e-15)
    full = schmidt_spectrum(g.amplitudes, g.dims, (0, 1, 2))
    assert full.size == 24 and abs(full[-1] - 1.0) < 1e-15 and not np.any(full[:-1])


def test_batch_validates_every_row():
    good = haar_random((2, 3), 1).amplitudes
    short = haar_random((5,), 2).amplitudes  # normalized, one amplitude short
    nan_row, inf_row = good.copy(), good.copy()
    nan_row[2] = math.nan
    inf_row[4] = math.inf
    for batch in (np.stack([good, good, 2.0 * good]), np.stack([short, short]),
                  np.stack([good, nan_row, good]), np.stack([inf_row, good])):
        with pytest.raises(InvalidInputError):
            schmidt_spectrum(batch, (2, 3), (0,))
        with pytest.raises(InvalidInputError):
            cut_values(batch, (2, 3), [MeasureSpec.eof()], [(0,)])
    assert schmidt_spectrum(np.stack([good, good]), (2, 3), (0,)).shape == (2, 2)


def test_validates_like_reduced_of_pure():
    for args in ((np.array([1.0, 1.0]), (2,), (0,)),     # not normalized
                 (np.ones(3) / math.sqrt(3), (2,), (0,)),  # wrong length
                 (np.array([1.0, 0.0]), (2,), (1,)),       # site out of range
                 (np.array([1.0, 0.0]), (1, 2), (0,))):    # dimension < 2
        with pytest.raises(InvalidInputError):
            schmidt_spectrum(*args)
