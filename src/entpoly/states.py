"""State constructors: qudit pure-state families, Haar sampling, networks.

A pure state is a :class:`MultiQuditState`; an entanglement network built
from two-party and multi-party resources is composed into a
:class:`NetworkState` whose sites are grouped per party.  A network is
stored as its resources: every party reduction is uniform, so it is one
integer rank, the product of per-resource ranks.  The dense density is
built only when accessed, as a test reference of limited size.

Every pure state, however it is built, passes the one entry check of
:mod:`~entpoly.tensor`: ``as_dims`` for its dims and ``_pure_block`` for its
amplitudes.  The angle families of ``ANGLE_FAMILIES`` are built as the rows
of a (T, D) block by :func:`angle_rows`; :func:`generalized_ghz3` is a
one-row call of it.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidInputError
from .tensor import (
    MAX_STATE_DIM, _norms, _pure_block, as_dims, as_int, as_sites, is_hermitian, kron)
from .tolerances import NORM_LOAD_TOL, TRACE_TOL


@dataclass(frozen=True, eq=False)
class MultiQuditState:
    """Normalized pure state of qudits with per-site dimensions ``dims``."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = as_dims(self.dims)
        amps = _pure_block(np.ravel(self.amplitudes), dims).copy()
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


def from_amplitudes(dims, amplitudes) -> MultiQuditState:
    """Build a state, renormalizing when the norm is within ``NORM_LOAD_TOL`` of 1.

    A norm outside the tolerance band, a zero vector included, is rejected:
    it is more likely a malformed input than an unnormalized state.
    """
    dims = as_dims(dims)
    amps = _pure_block(np.ravel(amplitudes), dims, NORM_LOAD_TOL)
    return MultiQuditState(dims, amps / _norms(amps))


def ghz(d: int, m: int) -> MultiQuditState:
    """m-party d-dimensional cat state: uniform over the m-fold repeated kets."""
    d, m = as_int(d, "ghz dimension"), as_int(m, "ghz party count")
    if d < 2 or m < 2:
        raise InvalidInputError("ghz requires d >= 2 and m >= 2")
    dims = as_dims(itertools.repeat(d, m))  # refuses an oversized state before building it
    amps = np.zeros(d**m, dtype=np.complex128)
    step = (d**m - 1) // (d - 1)  # index of |j...j> is j * (1 + d + ... + d^(m-1))
    amps[np.arange(d) * step] = 1.0 / math.sqrt(d)
    return MultiQuditState(dims, amps)


def epr() -> MultiQuditState:
    return ghz(2, 2)


# angle family -> (dims, indices of its sin(theta)cos(phi), sin(theta)sin(phi) and
# cos(theta) amplitudes): three-qutrit |000>, |111>, |222> and three-qubit |100>, |010>, |001>
ANGLE_FAMILIES = {"generalized_ghz3": ((3, 3, 3), (0, 13, 26)),
                  "w_interp": ((2, 2, 2), (4, 2, 1))}


def angle_rows(family: str, points) -> np.ndarray:
    """The states of an angle family at each (theta, phi) of ``points``, as (T, D) rows.

    Row t holds sin(theta)cos(phi), sin(theta)sin(phi) and cos(theta) at the
    family's three indices, divided by its norm.
    """
    dims, cols = ANGLE_FAMILIES[family]
    rows = np.zeros((len(points), math.prod(dims)), dtype=np.complex128)
    rows[:, cols] = np.reshape([(math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                                 math.cos(theta)) for theta, phi in points], (-1, 3))
    return rows / _norms(rows)[:, None]


def generalized_ghz3(theta: float, phi: float) -> MultiQuditState:
    """Three-qutrit family spanned by |000>, |111>, |222> with angle weights.

    Marginal eigenvalues are sin^2(theta)cos^2(phi), sin^2(theta)sin^2(phi)
    and cos^2(theta) on every site.
    """
    return MultiQuditState((3, 3, 3), angle_rows("generalized_ghz3", [(theta, phi)])[0])


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
    return MultiQuditState(dims, _haar_draws((as_int(seed, "seed"),), math.prod(dims))[0])


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
    nrm = _norms(z)
    if np.count_nonzero(nrm == 0.0):  # unreachable in practice, guards the division
        raise InvalidInputError("degenerate zero sample")
    return z / nrm[:, None]


# -- network composition ------------------------------------------------------

RESOURCE_KINDS = ("epr", "ghz", "ghz_diag")
# Largest total dimension whose dense density is built: a 2^12 x 2^12 complex
# density is 256 MiB, and building it holds a few such arrays at once.
MAX_NETWORK_DIM = 2**12


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
        object.__setattr__(self, "parties", tuple(as_int(p, "party index") for p in parties))
        object.__setattr__(self, "d", as_int(self.d, "resource dimension"))
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

    def rank(self, kept) -> int:
        """Rank of the resource reduced to the particles flagged in ``kept``.

        ``kept`` holds one flag per particle.  Keeping nothing, or a pure
        resource whole, gives rank 1; every other reduction (a cut GHZ state,
        either part of a GHZ-diagonal pair) is uniform of rank d.
        """
        k = sum(kept)
        return 1 if k == 0 or (self.kind != "ghz_diag" and k == len(self.parties)) else self.d


@dataclass(frozen=True)
class NetworkSpec:
    """``parties`` numbered 0..n-1 sharing the listed resources."""

    parties: int
    resources: tuple[Resource, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "parties", as_int(self.parties, "party count"))
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
    density is stored: :meth:`spectrum` multiplies per-resource ranks.  The
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
        """Nonzero spectrum of the reduced state on ``parties``: R entries of 1/R.

        The reduction of a product of resources is the product of each
        resource's reduction on its kept particles.  Each is uniform, so the
        product is uniform of rank R, the product of their ranks; no density
        is formed.  A rank above ``MAX_STATE_DIM`` is refused.
        """
        keep = as_sites(parties, self.num_parties)
        rank = math.prod(res.rank([p in keep for p in res.parties]) for res in self.spec.resources)
        if rank > MAX_STATE_DIM:
            raise InvalidInputError(
                f"the reduction on parties {list(keep)} has rank at least "
                f"2^{rank.bit_length() - 1}, above MAX_STATE_DIM ({MAX_STATE_DIM})")
        return np.full(rank, 1.0 / rank)

    @cached_property
    def density(self) -> np.ndarray:
        """Dense density with each party's particles contiguous (party 0 first).

        Particles keep their resource declaration order within a party.  Built
        once, on first access: the reference the factored :meth:`spectrum` is
        tested against.  A total dimension above ``MAX_NETWORK_DIM`` is
        refused before anything is allocated.
        """
        d = math.prod(self.party_dims)
        if d > MAX_NETWORK_DIM:
            log2 = d.bit_length() - 1
            raise InvalidInputError(
                f"network total dimension 2^{log2} or more exceeds the dense limit "
                f"{MAX_NETWORK_DIM}: its density alone would take at least 2^{2 * log2 - 16} MiB")
        dims = [dim for res in self.spec.resources for dim in res.site_dims()]
        rho = np.ones((1, 1), dtype=np.complex128)
        for res in self.spec.resources:
            rho = kron(rho, res.density())
        n = len(dims)
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


def compose_network(spec: NetworkSpec) -> NetworkState:
    """Group the particles of all resources by owning party, without forming a density.

    Party p's composite site is its particles in resource declaration order;
    ``party_dims`` records the resulting composite dimension per party.  Every
    party must hold at least one particle.
    """
    if not isinstance(spec, NetworkSpec):
        raise InvalidInputError(f"expected a NetworkSpec, got {spec!r}")
    owners = tuple(p for res in spec.resources for p in res.parties)
    dims = [d for res in spec.resources for d in res.site_dims()]
    for p in range(spec.parties):
        if p not in owners:
            raise InvalidInputError(f"party {p} holds no particle")
    party_dims = tuple(math.prod(dims[k] for k in range(len(dims)) if owners[k] == p)
                       for p in range(spec.parties))
    return NetworkState(spec, party_dims, owners)


# -- state file format --------------------------------------------------------


def state_to_dict(psi: MultiQuditState) -> dict:
    return {
        "dims": list(psi.dims),
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
