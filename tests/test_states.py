import json
import math
import tracemalloc

import numpy as np
import pytest

from entpoly.errors import InvalidInputError
from entpoly.measures import MeasureSpec, network_marginal_vector
from entpoly.states import (
    MAX_NETWORK_DIM,
    MultiQuditState,
    NetworkSpec,
    Resource,
    compose_network,
    epr,
    from_amplitudes,
    generalized_ghz3,
    ghz,
    haar_random,
    load_state,
    save_state,
    star4,
    state_from_dict,
    state_to_dict,
    w_qutrit,
)
from entpoly.tensor import hermitian_eigenvalues, kron, partial_trace, reduced_of_pure


def test_from_amplitudes_basic():
    psi = from_amplitudes((2,), [1, 0])
    np.testing.assert_array_equal(psi.amplitudes, [1, 0])
    bell = from_amplitudes((2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2))
    np.testing.assert_allclose(bell.amplitudes, epr().amplitudes, atol=1e-15)


def test_from_amplitudes_renormalizes_within_band():
    psi = from_amplitudes((2,), [1 + 5e-7, 0])
    assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-12


def test_from_amplitudes_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        from_amplitudes((2,), [0, 0])
    with pytest.raises(InvalidInputError):
        from_amplitudes((2,), [1, 1])  # norm sqrt(2), outside the band
    with pytest.raises(InvalidInputError):
        from_amplitudes((2, 2), [1, 0])
    with pytest.raises(InvalidInputError):
        from_amplitudes((1, 2), [1, 0])
    for bad in ([math.nan, 0], [1, math.nan * 1j], [math.inf, 0]):
        with pytest.raises(InvalidInputError, match="finite"):
            from_amplitudes((2,), bad)
        with pytest.raises(InvalidInputError, match="finite"):
            MultiQuditState((2,), bad)


def test_state_is_immutable():
    psi = epr()
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.3


def test_ghz_construction():
    np.testing.assert_allclose(ghz(2, 2).amplitudes, epr().amplitudes, atol=0)
    g = ghz(3, 3)
    for j in range(3):
        np.testing.assert_allclose(g.reduced((j,)), np.eye(3) / 3, atol=1e-15)
    with pytest.raises(InvalidInputError):
        ghz(1, 3)
    with pytest.raises(InvalidInputError):
        ghz(3, 1)


def test_every_constructor_is_normalized():
    states = [epr(), ghz(3, 4), ghz(5, 3), generalized_ghz3(0.7, 1.3),
              w_qutrit(), star4(), haar_random((2, 3, 4), 12)]
    for psi in states:
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12


def test_generalized_ghz3_separable_points():
    amps = generalized_ghz3(math.pi, 0.3).amplitudes
    assert abs(abs(amps[26]) - 1.0) < 1e-15  # |222> up to phase
    amps = generalized_ghz3(math.pi / 2, math.pi / 2).amplitudes
    assert abs(abs(amps[13]) - 1.0) < 1e-15  # |111>


def test_generalized_ghz3_marginal_eigenvalues_on_angle_grid():
    for theta in np.linspace(0.0, math.pi, 50):
        for phi in np.linspace(0.0, 2 * math.pi, 50):
            lams = np.sort([
                (math.sin(theta) * math.cos(phi)) ** 2,
                (math.sin(theta) * math.sin(phi)) ** 2,
                math.cos(theta) ** 2,
            ])
            psi = generalized_ghz3(float(theta), float(phi))
            got = hermitian_eigenvalues(psi.reduced((0,)))
            np.testing.assert_allclose(got, lams, atol=1e-12)


def test_generalized_ghz3_half_angle_marginals():
    psi = generalized_ghz3(math.pi / 2, math.pi / 4)
    vals = hermitian_eigenvalues(psi.reduced((0,)))
    np.testing.assert_allclose(vals, [0.0, 0.5, 0.5], atol=1e-12)


def test_w_qutrit_marginals():
    w = w_qutrit()
    for j in range(3):
        vals = hermitian_eigenvalues(w.reduced((j,)))
        np.testing.assert_allclose(np.sort(vals), [1 / 6, 1 / 6, 2 / 3], atol=1e-14)
        purity = float(np.sum(np.sort(vals) ** 2))
        assert abs(purity - 0.5) < 1e-14


def test_star4_structure():
    s = star4()
    assert s.dims == (8, 2, 2, 2)
    np.testing.assert_allclose(s.reduced((0,)), np.eye(8) / 8, atol=1e-14)
    np.testing.assert_allclose(s.reduced((1,)), np.eye(2) / 2, atol=1e-14)


def test_haar_random_determinism_and_norm():
    a = haar_random((3, 3), 1234)
    b = haar_random((3, 3), 1234)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
    c = haar_random((3, 3), 1235)
    assert np.max(np.abs(a.amplitudes - c.amplitudes)) > 1e-3
    assert abs(np.linalg.norm(a.amplitudes) - 1.0) < 1e-12


def test_haar_random_uniformity_monte_carlo():
    # mean |amp_0|^2 over the sphere in dimension 2 is 1/2
    total = 0.0
    n = 100_000
    for seed in range(n):
        total += abs(haar_random((2,), seed).amplitudes[0]) ** 2
    assert abs(total / n - 0.5) < 0.01


def test_resource_validation():
    with pytest.raises(InvalidInputError):
        Resource.epr(0, 0)
    with pytest.raises(InvalidInputError):
        Resource("ghz", (0,), 3)
    with pytest.raises(InvalidInputError):
        Resource("epr", (0, 1), 3)
    with pytest.raises(InvalidInputError):
        Resource("bogus", (0, 1))


def test_compose_network_single_epr():
    net = compose_network(NetworkSpec(2, (Resource.epr(0, 1),)))
    assert net.party_dims == (2, 2)
    np.testing.assert_allclose(net.density, epr().density(), atol=1e-15)


def test_compose_network_groups_sites_by_party():
    # one EPR declared as (party1, party0): grouping must reorder the sites
    net = compose_network(NetworkSpec(2, (Resource("epr", (1, 0)),)))
    np.testing.assert_allclose(net.density, epr().density(), atol=1e-15)
    # party 0 holds halves of two EPRs; its reduced state is I4/4
    net = compose_network(NetworkSpec(3, (Resource.epr(0, 1), Resource.epr(0, 2))))
    assert net.party_dims == (4, 2, 2)
    np.testing.assert_allclose(net.reduced((0,)), np.eye(4) / 4, atol=1e-14)


def test_compose_network_psd_and_trace():
    net = compose_network(NetworkSpec(3, (
        Resource.epr(0, 1), Resource.ghz(3, (0, 1, 2)), Resource.ghz_diag(3, 1, 2))))
    assert net.party_dims == (6, 18, 9)
    assert abs(np.trace(net.density).real - 1.0) < 1e-9
    assert hermitian_eigenvalues(net.density)[0] >= -1e-10


def test_ghz_diag_resource_matrix():
    rho = Resource.ghz_diag(3, 0, 1).density()
    expected = np.zeros((9, 9))
    for j in range(3):
        expected[4 * j, 4 * j] = 1 / 3
    np.testing.assert_allclose(rho, expected, atol=0)


def test_compose_network_rejects_oversized_density_before_allocating():
    # a 5-party complete EPR graph: 10 pairs of qubits, total dimension 2^20
    pairs = tuple(Resource.epr(i, j) for i in range(5) for j in range(i + 1, 5))
    assert 4 ** len(pairs) > MAX_NETWORK_DIM
    with pytest.raises(InvalidInputError, match="dense limit"):
        compose_network(NetworkSpec(5, pairs))


def test_compose_network_matches_manual_kron():
    net = compose_network(NetworkSpec(2, (Resource.epr(0, 1), Resource.ghz_diag(2, 0, 1))))
    # manual: sites ordered (epr_0, epr_1, diag_0, diag_1) -> grouped (0,2),(1,3)
    raw = kron(epr().density(), Resource.ghz_diag(2, 0, 1).density())
    t = raw.reshape((2,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)
    np.testing.assert_allclose(net.density, t, atol=1e-15)
    assert net.party_dims == (4, 4)


def test_compose_network_errors():
    with pytest.raises(InvalidInputError):
        compose_network(NetworkSpec(3, (Resource.epr(0, 3),)))
    with pytest.raises(InvalidInputError):
        compose_network(NetworkSpec(3, (Resource.epr(0, 1),)))  # party 2 empty
    with pytest.raises(InvalidInputError):
        NetworkSpec(2, ())
    with pytest.raises(InvalidInputError):
        NetworkSpec(1, (Resource.epr(0, 1),))


@pytest.mark.parametrize("build", [
    lambda: Resource("ghz", (0, 1), 2.5),            # fractional dimension
    lambda: Resource("ghz_diag", (0, 1), "3"),       # dimension given as text
    lambda: Resource("epr", (0.7, 1)),               # fractional party index
    lambda: Resource("epr", 5),                      # parties not a sequence
    lambda: NetworkSpec(2.5, (Resource.epr(0, 1),)),  # fractional party count
    lambda: NetworkSpec(2, ("x",)),                  # entry that is not a Resource
    lambda: compose_network((2, (Resource.epr(0, 1),))),  # not a NetworkSpec
], ids=["d", "d-text", "party", "parties-scalar", "party-count", "resource-entry", "spec"])
def test_network_inputs_must_be_integral_resources(build):
    with pytest.raises(InvalidInputError):
        build()


def test_network_inputs_accept_numpy_integers():
    res = Resource("ghz", (np.int64(0), np.int32(2)), np.int64(3))
    assert res.parties == (0, 2) and res.d == 3 and type(res.d) is int
    assert NetworkSpec(np.int64(3), (res, Resource.epr(1, 2))).parties == 3


def test_network_measures_never_build_the_density():
    # n = 4 complete EPR graph, total dimension 2^12: its density is 256 MiB
    pairs = tuple(Resource.epr(i, j) for i in range(4) for j in range(i + 1, 4))
    tracemalloc.start()
    try:
        net = compose_network(NetworkSpec(4, pairs))
        # every party holds 3 EPR halves, so its marginal is I/8, where both
        # measures are 1 - Tr(rho^2)
        for spec in (MeasureSpec.qconcurrence(2), MeasureSpec.unified(2, 1)):
            np.testing.assert_allclose(
                network_marginal_vector(net, spec), 1 - 2.0**-3, atol=1e-15)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert "density" not in vars(net)
    rho = net.density
    assert rho.shape == (4096, 4096) and net.density is rho  # built once
    assert abs(np.trace(rho).real - 1.0) < 1e-9
    assert np.array_equal(rho, rho.conj().T)


def test_state_file_roundtrip(tmp_path):
    psi = haar_random((2, 3, 2), 99)
    path = tmp_path / "psi.state"
    save_state(psi, path)
    back = load_state(path)
    assert back.dims == psi.dims
    np.testing.assert_allclose(back.amplitudes, psi.amplitudes, atol=1e-15)


def test_state_file_norm_tolerance(tmp_path):
    doc = state_to_dict(epr())
    doc["amplitudes"][0][0] *= 1.5
    path = tmp_path / "bad.state"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(InvalidInputError):
        load_state(path)


def test_state_file_malformed(tmp_path):
    path = tmp_path / "junk.state"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InvalidInputError):
        load_state(path)
    with pytest.raises(InvalidInputError):
        state_from_dict({"dims": [2, 2]})


def test_reduced_consistency_with_tensor_layer():
    psi = haar_random((2, 2, 3), 5)
    np.testing.assert_allclose(
        psi.reduced((0, 2)),
        partial_trace(np.outer(psi.amplitudes, psi.amplitudes.conj()), psi.dims, (0, 2)),
        atol=1e-12)
    np.testing.assert_allclose(
        psi.reduced((1,)),
        reduced_of_pure(psi.amplitudes, psi.dims, (1,)), atol=0)
