"""State constructors: qudit pure-state families, Haar sampling, networks.

A pure state is a :class:`MultiQuditState`; an entanglement network built
from two-party and multi-party resources is composed into a
:class:`NetworkState` whose sites are grouped per party.  A network is
stored as its resources: the spectrum of any party reduction is the product
of small per-resource spectra, and the dense density is built only when
accessed.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidInputError
from .tensor import (
    as_dims, as_sites, is_hermitian, kron, partial_trace, reduced_of_pure, total_dim)
from .tolerances import NORM_LOAD_TOL, NORM_TOL, TRACE_TOL


@dataclass(frozen=True, eq=False)
class MultiQuditState:
    """Normalized pure state of qudits with per-site dimensions ``dims``."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = as_dims(self.dims)
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.size != total_dim(dims):
            raise InvalidInputError(
                f"expected {total_dim(dims)} amplitudes for dims {list(dims)}, "
                f"got {amps.size}")
        nrm = float(np.linalg.norm(amps))
        if not math.isfinite(nrm):
            raise InvalidInputError(f"amplitudes must be finite, norm is {nrm}")
        if abs(nrm - 1.0) > NORM_TOL:
            raise InvalidInputError("amplitudes are not normalized")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def num_sites(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def reduced(self, keep) -> np.ndarray:
        """Reduced density matrix on the ``keep`` sites."""
        return reduced_of_pure(self.amplitudes, self.dims, keep)


def from_amplitudes(dims, amplitudes) -> MultiQuditState:
    """Build a state, renormalizing when the norm is within ``NORM_LOAD_TOL`` of 1.

    A zero vector or a norm outside the tolerance band is rejected: it is
    more likely a malformed input than an unnormalized state.
    """
    dims = as_dims(dims)
    amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    if amps.size != total_dim(dims):
        raise InvalidInputError(
            f"expected {total_dim(dims)} amplitudes for dims {list(dims)}, got {amps.size}")
    nrm = float(np.linalg.norm(amps))
    if not math.isfinite(nrm):
        raise InvalidInputError(f"amplitudes must be finite, norm is {nrm}")
    if nrm == 0.0:
        raise InvalidInputError("amplitude vector is zero")
    if abs(nrm - 1.0) > NORM_LOAD_TOL:
        raise InvalidInputError(f"norm {nrm!r} is outside the accepted band around 1")
    return MultiQuditState(dims, amps / nrm)


def ghz(d: int, m: int) -> MultiQuditState:
    """m-party d-dimensional cat state: uniform over the m-fold repeated kets."""
    if d < 2 or m < 2:
        raise InvalidInputError("ghz requires d >= 2 and m >= 2")
    amps = np.zeros(d**m, dtype=np.complex128)
    step = (d**m - 1) // (d - 1)  # index of |j...j> is j * (1 + d + ... + d^(m-1))
    amps[np.arange(d) * step] = 1.0 / math.sqrt(d)
    return MultiQuditState((d,) * m, amps)


def epr() -> MultiQuditState:
    return ghz(2, 2)


def generalized_ghz3(theta: float, phi: float) -> MultiQuditState:
    """Three-qutrit family spanned by |000>, |111>, |222> with angle weights.

    Marginal eigenvalues are sin^2(theta)cos^2(phi), sin^2(theta)sin^2(phi)
    and cos^2(theta) on every site.
    """
    amps = np.zeros(27, dtype=np.complex128)
    amps[0] = math.sin(theta) * math.cos(phi)
    amps[13] = math.sin(theta) * math.sin(phi)
    amps[26] = math.cos(theta)
    return from_amplitudes((3, 3, 3), amps)


def w_qutrit() -> MultiQuditState:
    """Symmetric three-qutrit state with marginal spectrum (2/3, 1/6, 1/6).

    One dominant branch plus two light ones: (2|000> + |111> + |222>)/sqrt(6).
    Every single-site marginal is exactly diag(2/3, 1/6, 1/6), so all three
    one-to-group cuts carry the same entanglement.
    """
    amps = np.zeros(27, dtype=np.complex128)
    amps[0] = 2.0 / math.sqrt(6)
    amps[13] = 1.0 / math.sqrt(6)
    amps[26] = 1.0 / math.sqrt(6)
    return MultiQuditState((3, 3, 3), amps)


def star4() -> MultiQuditState:
    """Hub-and-spokes state of three EPR pairs on dims (8, 2, 2, 2).

    Site 0 is the 8-dimensional hub holding one half of each pair; its basis
    index encodes the three partner bits (most significant bit pairs with
    site 1).
    """
    amps = np.zeros(64, dtype=np.complex128)
    for b1 in (0, 1):
        for b2 in (0, 1):
            for b3 in (0, 1):
                hub = (b1 << 2) | (b2 << 1) | b3
                amps[((hub * 2 + b1) * 2 + b2) * 2 + b3] = 1.0 / math.sqrt(8)
    return MultiQuditState((8, 2, 2, 2), amps)


def haar_random(dims, seed: int) -> MultiQuditState:
    """Haar-uniform pure state: normalized i.i.d. complex Gaussian amplitudes.

    Deterministic for a given ``seed``; streams for different seeds are
    independent for fuzzing purposes.
    """
    dims = as_dims(dims)
    return MultiQuditState(dims, _haar_draws((seed,), total_dim(dims))[0])


def _haar_draws(seeds, size: int) -> np.ndarray:
    """One Haar-random unit vector of length ``size`` per seed, as the rows of an array.

    Row t holds the amplitudes of ``haar_random(dims, seeds[t])`` for any
    ``dims`` of total dimension ``size``: each seed's generator draws the
    real parts, then the imaginary parts, and the row is divided by its norm.
    """
    x = np.empty((len(seeds), 2, size))
    for row, seed in zip(x, seeds):
        np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF).standard_normal(out=row)
    z = x[:, 0] + 1j * x[:, 1]
    # per row, the sum np.linalg.norm forms for one complex vector
    nrm = np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))
    if np.count_nonzero(nrm == 0.0):  # unreachable in practice, guards the division
        raise InvalidInputError("degenerate zero sample")
    return z / nrm[:, None]


# -- network composition ------------------------------------------------------

RESOURCE_KINDS = ("epr", "ghz", "ghz_diag")
# Largest total dimension accepted, so that the dense density stays buildable:
# a 2^12 x 2^12 complex density is 256 MiB, and building it holds a few such
# arrays at once.
MAX_NETWORK_DIM = 2**12


def _as_int(value, what: str) -> int:
    # an integral value (int, numpy integer), never a float or a string
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class Resource:
    """One shared resource: an EPR pair, a GHZ state, or a GHZ-diagonal pair.

    ``parties`` lists the owner of each particle in site order; ``d`` is the
    local dimension (fixed at 2 for EPR).  The GHZ-diagonal pair is the mixed
    two-site state (1/d) sum_j |jj><jj|.
    """

    kind: str
    parties: tuple[int, ...]
    d: int = 2

    def __post_init__(self):
        if self.kind not in RESOURCE_KINDS:
            raise InvalidInputError(f"unknown resource kind {self.kind!r}")
        try:
            parties = tuple(self.parties)
        except TypeError:
            raise InvalidInputError(
                f"resource parties must be a sequence, got {self.parties!r}") from None
        object.__setattr__(self, "parties", tuple(_as_int(p, "party index") for p in parties))
        object.__setattr__(self, "d", _as_int(self.d, "resource dimension"))
        if self.d < 2:
            raise InvalidInputError("resource dimension must be >= 2")
        want = 2 if self.kind in ("epr", "ghz_diag") else len(self.parties)
        if self.kind == "ghz" and len(self.parties) < 2:
            raise InvalidInputError("a ghz resource needs at least 2 parties")
        if len(self.parties) != want or len(set(self.parties)) != len(self.parties):
            raise InvalidInputError(
                f"{self.kind} resource needs {want} distinct parties, got {list(self.parties)}")
        if self.kind == "epr" and self.d != 2:
            raise InvalidInputError("epr resources are two-dimensional")

    @staticmethod
    def epr(i: int, j: int) -> "Resource":
        return Resource("epr", (i, j))

    @staticmethod
    def ghz(d: int, parties) -> "Resource":
        return Resource("ghz", tuple(parties), d)

    @staticmethod
    def ghz_diag(d: int, i: int, j: int) -> "Resource":
        return Resource("ghz_diag", (i, j), d)

    def site_dims(self) -> tuple[int, ...]:
        return (self.d,) * len(self.parties)

    def density(self) -> np.ndarray:
        if self.kind == "ghz_diag":
            rho = np.zeros((self.d**2, self.d**2), dtype=np.complex128)
            for j in range(self.d):
                rho[j * self.d + j, j * self.d + j] = 1.0 / self.d
            return rho
        return ghz(self.d, len(self.parties)).density()

    def spectrum(self, kept) -> np.ndarray:
        """Ascending spectrum of the resource reduced to the particles flagged in ``kept``.

        ``kept`` holds one flag per particle.  A pure resource kept whole is
        pure; every other nonempty reduction (a cut GHZ state, either part of
        a GHZ-diagonal pair) is uniform of rank d.  Zero-padded to the kept
        dimension; keeping nothing gives ``[1]``.
        """
        k = sum(kept)
        if k == 0:
            return np.ones(1)
        rank = 1 if self.kind != "ghz_diag" and k == len(self.parties) else self.d
        w = np.zeros(self.d**k)
        w[-rank:] = 1.0 / rank
        return w


@dataclass(frozen=True)
class NetworkSpec:
    """``parties`` numbered 0..n-1 sharing the listed resources."""

    parties: int
    resources: tuple[Resource, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "parties", _as_int(self.parties, "party count"))
        object.__setattr__(self, "resources", tuple(self.resources))
        if self.parties < 2:
            raise InvalidInputError("a network needs at least 2 parties")
        if not self.resources:
            raise InvalidInputError("a network needs at least one resource")
        for res in self.resources:
            if not isinstance(res, Resource):
                raise InvalidInputError(f"network resources must be Resource objects, got {res!r}")
            if any(p < 0 or p >= self.parties for p in res.parties):
                raise InvalidInputError(
                    f"resource references a party outside 0..{self.parties - 1}: "
                    f"{list(res.parties)}")


@dataclass(frozen=True, eq=False)
class NetworkState:
    """A composed network, stored as its resources, with one composite site per party.

    ``owners`` is the owning party of each particle in resource declaration
    order, and ``party_dims`` the composite dimension of each party.  No
    density is stored: :meth:`spectrum` multiplies per-resource spectra.  The
    dense :attr:`density` is built on first access; no measure uses it.
    Built by :func:`compose_network`, which validates the spec.
    """

    spec: NetworkSpec
    party_dims: tuple[int, ...]
    owners: tuple[int, ...]

    @property
    def num_parties(self) -> int:
        return len(self.party_dims)

    def spectrum(self, parties) -> np.ndarray:
        """Ascending spectrum of the reduced state on ``parties``, zero-padded to its dimension.

        The reduction of a product of resources is the product of each
        resource's reduction on its kept particles, so its spectrum is the
        product of their spectra; no density is formed.
        """
        keep = as_sites(parties, self.num_parties)
        w = np.ones(1)
        for res in self.spec.resources:
            w = np.multiply.outer(w, res.spectrum([p in keep for p in res.parties])).ravel()
        return np.sort(w)

    @cached_property
    def density(self) -> np.ndarray:
        """Dense density with each party's particles contiguous (party 0 first).

        Particles keep their resource declaration order within a party.  Built
        once, on first access: the reference the factored :meth:`spectrum` is
        tested against.
        """
        dims = [d for res in self.spec.resources for d in res.site_dims()]
        rho = np.ones((1, 1), dtype=np.complex128)
        for res in self.spec.resources:
            rho = kron(rho, res.density())
        n, d = len(dims), rho.shape[0]
        # stable sort: per-party site order follows resource declaration order
        perm = sorted(range(n), key=lambda k: self.owners[k])
        rho = rho.reshape(tuple(dims) * 2)
        rho = rho.transpose(tuple(perm) + tuple(n + k for k in perm)).reshape(d, d)
        rho += rho.conj().T
        rho *= 0.5
        if not is_hermitian(rho):
            raise InvalidInputError("network density is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > TRACE_TOL:
            raise InvalidInputError("network density does not have unit trace")
        rho.flags.writeable = False
        return rho

    def reduced(self, keep_parties) -> np.ndarray:
        """Dense reduced density on ``keep_parties`` (builds :attr:`density`)."""
        return partial_trace(self.density, self.party_dims, keep_parties)


def compose_network(spec: NetworkSpec) -> NetworkState:
    """Group the particles of all resources by owning party, without forming a density.

    Party p's composite site is its particles in resource declaration order;
    ``party_dims`` records the resulting composite dimension per party.  Every
    party must hold at least one particle, and the total dimension may not
    exceed ``MAX_NETWORK_DIM``.
    """
    if not isinstance(spec, NetworkSpec):
        raise InvalidInputError(f"expected a NetworkSpec, got {spec!r}")
    owners = tuple(p for res in spec.resources for p in res.parties)
    dims = [d for res in spec.resources for d in res.site_dims()]
    for p in range(spec.parties):
        if p not in owners:
            raise InvalidInputError(f"party {p} holds no particle")
    d = math.prod(dims)
    if d > MAX_NETWORK_DIM:
        raise InvalidInputError(
            f"network total dimension {d} exceeds the dense limit {MAX_NETWORK_DIM}: "
            f"its density alone would take {16 * d * d / 2**30:.3g} GiB")
    party_dims = tuple(math.prod(dims[k] for k in range(len(dims)) if owners[k] == p)
                       for p in range(spec.parties))
    return NetworkState(spec, party_dims, owners)


# -- state file format --------------------------------------------------------


def state_to_dict(psi: MultiQuditState) -> dict:
    return {
        "dims": [int(d) for d in psi.dims],
        "amplitudes": [[float(a.real), float(a.imag)] for a in psi.amplitudes],
    }


def state_from_dict(doc: dict) -> MultiQuditState:
    try:
        dims = doc["dims"]
        pairs = doc["amplitudes"]
        amps = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed state document: {exc}") from exc
    return from_amplitudes(dims, amps)


def save_state(psi: MultiQuditState, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_dict(psi), fh)
        fh.write("\n")


def load_state(path) -> MultiQuditState:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"malformed state file {path}: {exc}") from exc
    return state_from_dict(doc)
