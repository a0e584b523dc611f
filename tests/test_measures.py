import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entpoly.entropies import density_spectrum, f_q, renyi, tsallis, unified_entropy, von_neumann
from entpoly.errors import InvalidInputError, UnsupportedMeasureError
from entpoly.measures import (
    MEASURE_TOKENS,
    Bipartition,
    MeasureSpec,
    cut_values,
    marginal_vector,
    marginal_vector_from_spectra,
    measure_network,
    measure_pure,
    network_marginal_vector,
    site_spectra,
    total_entanglement,
    value_from_spectrum,
)
from entpoly.states import (
    MultiQuditState,
    NetworkSpec,
    Resource,
    compose_network,
    epr,
    from_amplitudes,
    ghz,
    haar_random,
    star4,
    w_qutrit,
)
from entpoly.tensor import hermitian_eigenvalues, kron, schmidt_spectrum
from entpoly.tolerances import LIMIT_TOL

ALL_SPECS = [
    MeasureSpec.qconcurrence(2), MeasureSpec.qconcurrence(3.5),
    MeasureSpec.unified(2, 1), MeasureSpec.unified(1, 0.5),
    MeasureSpec.renyi(2), MeasureSpec.renyi(0.5),
    MeasureSpec.tsallis(2.5), MeasureSpec.eof(),
    MeasureSpec.concurrence(), MeasureSpec.negativity(),
]


def zero_epr():
    """|0> on a qubit tensored with an EPR pair."""
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[3] = 1 / math.sqrt(2)
    return from_amplitudes((2, 2, 2), amps)


def test_bipartition_validation():
    with pytest.raises(InvalidInputError):
        Bipartition((0,), (0, 1))
    with pytest.raises(InvalidInputError):
        Bipartition((), (0,))
    with pytest.raises(InvalidInputError):
        Bipartition.from_string("0|1|2")
    with pytest.raises(InvalidInputError):
        Bipartition.from_string("0|x")
    cut = Bipartition.from_string("2,0|1")
    assert cut.side_a == (0, 2) and cut.side_b == (1,)
    with pytest.raises(InvalidInputError):
        cut.validate_for(4)  # does not cover site 3
    with pytest.raises(InvalidInputError):
        Bipartition.of((0, 1), 2)  # complement empty


def test_measure_spec_validation():
    with pytest.raises(InvalidInputError):
        MeasureSpec.qconcurrence(1.5)
    with pytest.raises(InvalidInputError):
        MeasureSpec.unified(0.5, 1)
    with pytest.raises(InvalidInputError):
        MeasureSpec.renyi(1.0)
    with pytest.raises(InvalidInputError):
        MeasureSpec.tsallis(1.0)
    with pytest.raises(InvalidInputError):
        MeasureSpec("eof", q=2.0)
    with pytest.raises(InvalidInputError):
        MeasureSpec.from_token("bogus")
    assert MeasureSpec.from_token("qconc", q=2).label() == "qconc(q=2)"
    assert MeasureSpec.eof().label() == "eof"


# token -> (valid parameters, invalid values of each parameter)
VALID_PARAMS = {
    "qconc": ({"q": 2.0}, {"q": (1.5, math.nan, math.inf)}),
    "unified": ({"r": 2.0, "s": 1.0},
                {"r": (0.5, math.nan, math.inf), "s": (-1.0, math.nan, math.inf)}),
    "renyi": ({"r": 2.0}, {"r": (-0.5, 1.0, math.nan, math.inf)}),
    "tsallis": ({"r": 2.0}, {"r": (1.0, math.nan, math.inf)}),
    "eof": ({}, {}),
    "conc": ({}, {}),
    "neg": ({}, {}),
}


def test_every_token_rejects_bad_missing_and_extra_parameters():
    assert set(VALID_PARAMS) == set(MEASURE_TOKENS)
    for token, (valid, invalid) in VALID_PARAMS.items():
        spec = MeasureSpec(token, **valid)
        assert MeasureSpec.from_token(token, q=2, r=2, s=1) == spec
        for name, values in invalid.items():
            for value in values:
                with pytest.raises(InvalidInputError):
                    MeasureSpec(token, **{**valid, name: value})
        for name in valid:
            with pytest.raises(InvalidInputError):
                MeasureSpec(token, **{n: v for n, v in valid.items() if n != name})
        for name in ("q", "r", "s"):
            if name not in valid:
                with pytest.raises(InvalidInputError):
                    MeasureSpec(token, **{**valid, name: 3.0})


def test_entropy_tokens_evaluate_the_matching_entropy():
    w = np.array([0.05, 0.15, 0.3, 0.5])
    rho = np.diag(w)
    cases = [
        (MeasureSpec.qconcurrence(3.5), f_q(rho, 3.5)),
        (MeasureSpec.eof(), von_neumann(rho)),
        (MeasureSpec.renyi(0.5), renyi(rho, 0.5)),
        (MeasureSpec.tsallis(2.5), tsallis(rho, 2.5)),
        (MeasureSpec.unified(2.5, 1.5), unified_entropy(rho, 2.5, 1.5)),
        (MeasureSpec.unified(2.5, 0.0), renyi(rho, 2.5)),
    ]
    for spec, expected in cases:
        assert abs(value_from_spectrum(spec, w) - expected) < 1e-14


def test_value_from_spectrum_reduces_over_the_last_axis():
    rng = np.random.default_rng(4)
    raw = rng.random((5, 4)) ** 3
    raw[1, :2] = 0.0   # zero-padded spectrum of rank 2
    raw[2, :3] = 0.0   # pure
    raw[3, 0] = 1e-13  # below the log and rank cutoffs
    batch = np.sort(raw / raw.sum(axis=1, keepdims=True), axis=1)
    specs = [MeasureSpec.from_token(t, q=3.5, r=2.5, s=0.5) for t in MEASURE_TOKENS] + [
        MeasureSpec.unified(1 + 0.5 * LIMIT_TOL, 2), MeasureSpec.unified(2, 0.5 * LIMIT_TOL),
        MeasureSpec.tsallis(1 + 0.5 * LIMIT_TOL), MeasureSpec.renyi(0)]
    for spec in specs:
        values = value_from_spectrum(spec, batch)
        assert values.shape == (5,)
        for value, w in zip(values, batch):
            single = value_from_spectrum(spec, w)
            assert type(single) is float
            assert abs(value - single) <= 1e-15
        # any leading axes: a (2, 5, 4) stack gives (2, 5) values
        stacked = value_from_spectrum(spec, np.stack([batch, batch]))
        assert np.array_equal(stacked, np.stack([values, values]))
    with pytest.raises(InvalidInputError):
        value_from_spectrum(MeasureSpec.renyi(0), np.vstack([batch, np.zeros(4)]))


def test_product_state_measures_zero():
    amps = np.zeros(4, dtype=complex); amps[0] = 1.0
    psi = from_amplitudes((2, 2), amps)
    cut = Bipartition.of((0,), 2)
    for spec in ALL_SPECS:
        assert abs(measure_pure(psi, cut, spec)) < 1e-12


def test_w_qutrit_qconcurrence_closed_form():
    w = w_qutrit()
    for q in (2, 3, 4.5):
        closed = 1 - 2**q / 3**q - 2 / 6**q
        for i in range(3):
            got = measure_pure(w, Bipartition.one_vs_rest(i, 3), MeasureSpec.qconcurrence(q))
            assert abs(got - closed) < 1e-12


def test_ghz_unified_closed_form():
    for d, m in ((2, 3), (3, 3), (3, 4)):
        g = ghz(d, m)
        for r, s in ((2, 1), (3, 0.5), (1.5, 2)):
            closed = (1 - d ** (r * s - s)) / ((1 - r) * s * d ** (r * s - s))
            got = measure_pure(g, Bipartition.one_vs_rest(0, m), MeasureSpec.unified(r, s))
            assert abs(got - closed) < 1e-12


def test_side_symmetry_on_pure_states():
    psi = haar_random((2, 3, 4), 3)
    for spec in ALL_SPECS:
        a = measure_pure(psi, Bipartition(side_a=(0,), side_b=(1, 2)), spec)
        b = measure_pure(psi, Bipartition(side_a=(1, 2), side_b=(0,)), spec)
        assert abs(a - b) < 1e-10


def test_local_unitary_invariance():
    rng = np.random.default_rng(40)
    psi = haar_random((2, 3, 2), 17)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, r = np.linalg.qr(z)
    u1 = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    u = kron(np.eye(2), kron(u1, np.eye(2)))
    rotated = from_amplitudes((2, 3, 2), u @ psi.amplitudes)
    cut = Bipartition.of((1,), 3)
    for spec in ALL_SPECS:
        assert abs(measure_pure(psi, cut, spec)
                   - measure_pure(rotated, cut, spec)) < 1e-9


def test_concurrence_squared_equals_twice_q2():
    for seed in range(20):
        psi = haar_random((3, 4), seed)
        cut = Bipartition.of((0,), 2)
        c = measure_pure(psi, cut, MeasureSpec.concurrence())
        c2 = measure_pure(psi, cut, MeasureSpec.qconcurrence(2))
        assert abs(c * c - 2 * c2) < 1e-10


def test_negativity_epr_and_schmidt_oracle():
    assert abs(measure_pure(epr(), Bipartition.of((0,), 2), MeasureSpec.negativity())
               - 0.5) < 1e-12
    # oracle: for pure states, trace norm of the partial transpose is
    # (sum of Schmidt coefficients)^2
    for seed in range(10):
        psi = haar_random((2, 3, 2), 100 + seed)
        for cut in (Bipartition.of((0,), 3), Bipartition.of((0, 2), 3)):
            neg = measure_pure(psi, cut, MeasureSpec.negativity())
            # smaller side avoids sqrt of true-zero eigenvalue noise
            side = min(cut.side_a, cut.side_b, key=len)
            w = hermitian_eigenvalues(psi.reduced(side))
            schmidt = np.sqrt(np.clip(w, 0, None))
            assert abs(neg - 0.5 * (float(np.sum(schmidt)) ** 2 - 1)) < 1e-9


def test_measure_pure_validation():
    psi = haar_random((2, 2), 1)
    with pytest.raises(InvalidInputError):
        measure_pure(psi, Bipartition((0,), (2,)), MeasureSpec.eof())
    with pytest.raises(InvalidInputError):
        measure_pure(psi, Bipartition.of((0,), 2), MeasureSpec.from_token("qconc", q=1.0))


def test_marginal_vector_known_states():
    mv = marginal_vector(ghz(2, 3), MeasureSpec.qconcurrence(2))
    np.testing.assert_allclose(mv, 0.5, atol=1e-12)
    mv = marginal_vector(star4(), MeasureSpec.qconcurrence(2))
    np.testing.assert_allclose(mv, [7 / 8, 0.5, 0.5, 0.5], atol=1e-12)
    mv = marginal_vector(zero_epr(), MeasureSpec.qconcurrence(2))
    np.testing.assert_allclose(mv, [0.0, 0.5, 0.5], atol=1e-12)


def test_marginal_vector_matches_spectra_shortcut():
    psi = haar_random((3, 2, 4), 7)
    spectra = site_spectra(psi)
    for spec in ALL_SPECS:
        if spec.kind == "neg":
            continue
        np.testing.assert_allclose(marginal_vector(psi, spec),
                                   marginal_vector_from_spectra(spectra, spec),
                                   atol=0)


SEVEN_SPECS = [MeasureSpec.from_token(t, q=3.5, r=2.5, s=0.5) for t in MEASURE_TOKENS]


@pytest.mark.parametrize("dims", [(3, 3, 3), (2, 3, 4), (8, 2, 2, 2), (2, 2, 2, 2)])
def test_block_rows_equal_one_row_calls(dims):
    n = len(dims)
    sides = [side for size in range(1, n) for side in itertools.combinations(range(n), size)]
    # three Haar rows, a product row and a GHZ row (zero-padded spectra)
    product = np.ones(1, dtype=complex)
    for k, d in enumerate(dims):
        product = np.kron(product, haar_random((d,), 50 + k).amplitudes)
    cat = np.zeros(dims, dtype=complex)
    for k in range(min(dims)):
        cat[(k,) * n] = 1 / math.sqrt(min(dims))
    block = np.stack([haar_random(dims, 60 + t).amplitudes for t in range(3)]
                     + [product, cat.reshape(-1)])
    values = cut_values(block, dims, SEVEN_SPECS, sides)
    assert values.shape == (5, 7, len(sides))
    for t, amps in enumerate(block):
        assert np.array_equal(cut_values(block[t:t + 1], dims, SEVEN_SPECS, sides)[0], values[t])
        psi = MultiQuditState(dims, amps)
        for i, spec in enumerate(SEVEN_SPECS):
            assert np.array_equal(marginal_vector(psi, spec), values[t, i, :n])
            for k, side in enumerate(sides):
                assert measure_pure(psi, Bipartition.of(side, n), spec) == values[t, i, k]
    for k, side in enumerate(sides):
        # the evaluator reduces the smaller side of the cut, the given side on a tie
        rest = tuple(j for j in range(n) if j not in side)
        smaller = math.prod(dims[j] for j in side) <= math.prod(dims[j] for j in rest)
        keep = side if smaller else rest
        w = schmidt_spectrum(block, dims, keep)
        for i, spec in enumerate(SEVEN_SPECS):
            assert np.array_equal(values[:, i, k], value_from_spectrum(spec, w))
            # the 1-D path agrees to roundoff
            for t in range(5):
                assert abs(values[t, i, k] - value_from_spectrum(spec, w[t])) <= 1e-14


def test_cut_values_takes_a_block():
    psi = haar_random((2, 3), 1)
    with pytest.raises(InvalidInputError):
        cut_values(psi.amplitudes, psi.dims, [MeasureSpec.eof()], [(0,)])
    with pytest.raises(InvalidInputError):
        cut_values(psi.amplitudes[None], psi.dims, [MeasureSpec.eof()], [(2,)])


@settings(max_examples=80, deadline=None)
@given(dims=st.lists(st.integers(2, 4), min_size=3, max_size=4).map(tuple),
       seed=st.integers(0, 2**32 - 1))
def test_concurrence_squares_obey_the_polygon(dims, seed):
    # conc^2 = 2 qconc(2), so the proved qconc(2) polygon bounds the squares
    c2 = marginal_vector(haar_random(dims, seed), MeasureSpec.concurrence()) ** 2
    assert np.all(c2 <= c2.sum() - c2 + 1e-12)


def test_total_entanglement():
    assert total_entanglement([0.5, 0.5, 0.5]) == 1.5
    assert total_entanglement(np.zeros(4)) == 0.0
    mv = marginal_vector(star4(), MeasureSpec.qconcurrence(2))
    assert abs(total_entanglement(mv) - 19 / 8) < 1e-12


def test_half_total_bound_on_random_states():
    for seed in range(50):
        psi = haar_random((2, 3, 2, 2), seed)
        for spec in (MeasureSpec.qconcurrence(2), MeasureSpec.eof(),
                     MeasureSpec.tsallis(2.0), MeasureSpec.unified(1.5, 0.5)):
            mv = marginal_vector(psi, spec)
            total = total_entanglement(mv)
            assert np.max(mv) <= total / 2 + 1e-9


def test_measure_network_single_epr():
    net = compose_network(NetworkSpec(2, (Resource.epr(0, 1),)))
    got = measure_network(net, Bipartition.of((0,), 2), MeasureSpec.qconcurrence(2))
    assert abs(got - 0.5) < 1e-12


def test_measure_network_ghz_marginals():
    net = compose_network(NetworkSpec(3, (Resource.ghz(3, (0, 1, 2)),)))
    mv = network_marginal_vector(net, MeasureSpec.qconcurrence(2))
    np.testing.assert_allclose(mv, 2 / 3, atol=1e-12)


def test_measure_network_complete_graph_joint_vs_additive():
    # the joint marginal of a party holding n-1 EPR halves is uniform over
    # 2^(n-1); the per-pair additive value is an upper bound (subadditivity)
    for n, q in ((3, 2), (4, 3)):
        pairs = tuple(Resource.epr(i, j) for i in range(n) for j in range(i + 1, n))
        net = compose_network(NetworkSpec(n, pairs))
        mv = network_marginal_vector(net, MeasureSpec.qconcurrence(q))
        joint = 1 - 2.0 ** ((1 - q) * (n - 1))
        additive = (n - 1) * (2 ** (q - 1) - 1) / 2 ** (q - 1)
        np.testing.assert_allclose(mv, joint, atol=1e-12)
        assert additive >= joint - 1e-12


def test_measure_network_star_agrees_with_pure_state_path():
    net = compose_network(NetworkSpec(4, (
        Resource.epr(0, 1), Resource.epr(0, 2), Resource.epr(0, 3))))
    assert net.party_dims == (8, 2, 2, 2)
    psi = star4()
    for cut in (Bipartition.of((0,), 4), Bipartition.of((1,), 4),
                Bipartition.of((0, 1), 4), Bipartition.of((2, 3), 4)):
        for spec in (MeasureSpec.qconcurrence(2), MeasureSpec.unified(2, 1),
                     MeasureSpec.eof()):
            assert abs(measure_network(net, cut, spec)
                       - measure_pure(psi, cut, spec)) < 1e-10


def test_measure_network_multi_party_cut():
    # triangle of EPRs, parties {0,1} vs {2}: the pair (0,1) is pure inside
    # the group, each outward half is maximally mixed
    pairs = (Resource.epr(0, 1), Resource.epr(0, 2), Resource.epr(1, 2))
    net = compose_network(NetworkSpec(3, pairs))
    got = measure_network(net, Bipartition.of((0, 1), 3), MeasureSpec.qconcurrence(2))
    assert abs(got - 0.75) < 1e-12


def test_measure_network_rejects_convex_roof_measures():
    net = compose_network(NetworkSpec(2, (Resource.ghz_diag(2, 0, 1),)))
    for spec in (MeasureSpec.concurrence(), MeasureSpec.negativity()):
        with pytest.raises(UnsupportedMeasureError):
            measure_network(net, Bipartition.of((0,), 2), spec)


@st.composite
def small_networks(draw):
    """A network of EPR, GHZ and GHZ-diagonal resources of total dimension <= 2^8.

    Resources draw owners from five labels, and a resource that would exceed
    2^8 ends the list; the labels in use are renumbered 0..n-1, so every
    party holds a particle.
    """
    drawn, dim = [], 1
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("epr", "ghz", "ghz_diag")))
        d = 2 if kind == "epr" else draw(st.integers(2, 3))
        k = draw(st.integers(2, 4)) if kind == "ghz" else 2
        if dim * d**k > 2**8:
            break
        dim *= d**k
        drawn.append((kind, tuple(draw(st.permutations(range(5)))[:k]), d))
    label = {p: i for i, p in enumerate(sorted({p for _, owners, _ in drawn for p in owners}))}
    resources = tuple(Resource(kind, tuple(label[p] for p in owners), d)
                      for kind, owners, d in drawn)
    return compose_network(NetworkSpec(len(label), resources))


NETWORK_SPECS = [
    MeasureSpec.qconcurrence(2), MeasureSpec.qconcurrence(3.5), MeasureSpec.eof(),
    MeasureSpec.tsallis(2.5), MeasureSpec.tsallis(1 + LIMIT_TOL / 2),
    MeasureSpec.unified(2, 1), MeasureSpec.unified(1.5, 0.5),
    MeasureSpec.unified(1 + LIMIT_TOL / 2, 0.5), MeasureSpec.unified(3, LIMIT_TOL / 2),
    # r in (0, 1) lifts any roundoff eigenvalue the dense oracle kept to ~1e-8
    MeasureSpec.renyi(0), MeasureSpec.renyi(0.2), MeasureSpec.renyi(0.5),
    MeasureSpec.renyi(2), MeasureSpec.renyi(3),
]


@settings(max_examples=60, deadline=None)
@given(net=small_networks())
def test_factored_network_spectrum_matches_dense_oracle(net):
    n = net.num_parties
    for size in range(1, n):
        for side in itertools.combinations(range(n), size):
            dense = density_spectrum(net.reduced(side))
            got = net.spectrum(side)
            assert got.shape == dense.shape == (math.prod(net.party_dims[p] for p in side),)
            np.testing.assert_allclose(got, dense, rtol=0, atol=1e-12)
            cut = Bipartition.of(side, n)
            for spec in NETWORK_SPECS:
                assert abs(measure_network(net, cut, spec)
                           - spec.entropy_params().of_spectrum(dense)) < 1e-12, spec
