"""Bipartite entanglement measures on pure multi-qudit states and networks.

Every measure of a pure state across a cut is a function of the squared
Schmidt coefficients w (the reduced spectrum of either side): the entropy-
based measures evaluate an entropy of w, concurrence is the qudit
generalization sqrt(2 (1 - sum w^2)), and negativity,
(trace_norm(partial transpose) - 1) / 2, equals ((sum sqrt(w))^2 - 1) / 2
(Vidal and Werner, PRA 65, 032314).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropies import EntropyParams, density_spectrum
from .errors import InvalidInputError, UnsupportedMeasureError
from .states import MultiQuditState, NetworkState
from .tensor import as_sites, schmidt_spectrum

MEASURE_TOKENS = ("qconc", "unified", "renyi", "tsallis", "eof", "conc", "neg")
ENTROPY_BASED = ("qconc", "unified", "renyi", "tsallis", "eof")


@dataclass(frozen=True)
class Bipartition:
    """Two disjoint, nonempty groups of site indices forming a cut."""

    side_a: tuple[int, ...]
    side_b: tuple[int, ...]

    def __post_init__(self):
        a = tuple(sorted(int(j) for j in self.side_a))
        b = tuple(sorted(int(j) for j in self.side_b))
        if not a or not b:
            raise InvalidInputError("both sides of a bipartition must be nonempty")
        if len(set(a)) != len(a) or len(set(b)) != len(b) or set(a) & set(b):
            raise InvalidInputError("bipartition sides must be disjoint and duplicate-free")
        object.__setattr__(self, "side_a", a)
        object.__setattr__(self, "side_b", b)

    @staticmethod
    def of(side_a, num_sites: int) -> "Bipartition":
        a = as_sites(side_a, num_sites)
        b = tuple(j for j in range(num_sites) if j not in a)
        return Bipartition(a, b)

    @staticmethod
    def one_vs_rest(j: int, num_sites: int) -> "Bipartition":
        return Bipartition.of((j,), num_sites)

    @staticmethod
    def from_string(text: str) -> "Bipartition":
        """Parse ``"0|1,2"`` style cut syntax (comma lists split by a bar)."""
        parts = text.split("|")
        if len(parts) != 2:
            raise InvalidInputError(f"cut must have exactly one '|', got {text!r}")
        try:
            a = tuple(int(t) for t in parts[0].split(",") if t.strip() != "")
            b = tuple(int(t) for t in parts[1].split(",") if t.strip() != "")
        except ValueError as exc:
            raise InvalidInputError(f"malformed cut {text!r}: {exc}") from exc
        return Bipartition(a, b)

    def validate_for(self, num_sites: int) -> None:
        if set(self.side_a) | set(self.side_b) != set(range(num_sites)):
            raise InvalidInputError(
                f"cut {self} does not cover all {num_sites} sites exactly once")

    def __str__(self) -> str:
        return ",".join(map(str, self.side_a)) + "|" + ",".join(map(str, self.side_b))


@dataclass(frozen=True)
class MeasureSpec:
    """A measure token plus its parameters, validated against its domain."""

    kind: str
    q: float | None = None
    r: float | None = None
    s: float | None = None

    def __post_init__(self):
        if self.kind not in MEASURE_TOKENS:
            raise InvalidInputError(f"unknown measure {self.kind!r}")
        if self.kind == "qconc":
            if self.q is None or self.q < 2:
                raise InvalidInputError("qconc requires q >= 2 (flag --q)")
        elif self.kind == "unified":
            if self.r is None or self.s is None or self.r < 1 or self.s < 0:
                raise InvalidInputError("unified requires r >= 1 and s >= 0 (flags --r --s)")
        elif self.kind == "renyi":
            if self.r is None or self.r < 0 or abs(self.r - 1.0) <= 1e-9:
                raise InvalidInputError("renyi requires r >= 0 with r != 1 (flag --r)")
        elif self.kind == "tsallis":
            if self.r is None or self.r <= 1:
                raise InvalidInputError("tsallis requires r > 1 (flag --r)")
        else:
            if not (self.q is None and self.r is None and self.s is None):
                raise InvalidInputError(f"{self.kind} takes no parameters")

    @staticmethod
    def qconcurrence(q: float) -> "MeasureSpec":
        return MeasureSpec("qconc", q=float(q))

    @staticmethod
    def unified(r: float, s: float) -> "MeasureSpec":
        return MeasureSpec("unified", r=float(r), s=float(s))

    @staticmethod
    def renyi(r: float) -> "MeasureSpec":
        return MeasureSpec("renyi", r=float(r))

    @staticmethod
    def tsallis(r: float) -> "MeasureSpec":
        return MeasureSpec("tsallis", r=float(r))

    @staticmethod
    def eof() -> "MeasureSpec":
        return MeasureSpec("eof")

    @staticmethod
    def concurrence() -> "MeasureSpec":
        return MeasureSpec("conc")

    @staticmethod
    def negativity() -> "MeasureSpec":
        return MeasureSpec("neg")

    @staticmethod
    def from_token(token: str, q=None, r=None, s=None) -> "MeasureSpec":
        if token not in MEASURE_TOKENS:
            raise InvalidInputError(
                f"unknown measure token {token!r}; expected one of {', '.join(MEASURE_TOKENS)}")
        if token == "qconc":
            return MeasureSpec(token, q=None if q is None else float(q))
        if token in ("renyi", "tsallis"):
            return MeasureSpec(token, r=None if r is None else float(r))
        if token == "unified":
            return MeasureSpec(token,
                               r=None if r is None else float(r),
                               s=None if s is None else float(s))
        return MeasureSpec(token)

    @property
    def is_entropy_based(self) -> bool:
        return self.kind in ENTROPY_BASED

    def entropy_params(self) -> EntropyParams:
        if self.kind == "qconc":
            return EntropyParams("fq", q=self.q)
        if self.kind == "unified":
            return EntropyParams("unified", r=self.r, s=self.s)
        if self.kind == "renyi":
            return EntropyParams("renyi", r=self.r)
        if self.kind == "tsallis":
            return EntropyParams("tsallis", r=self.r)
        if self.kind == "eof":
            return EntropyParams("vn")
        raise UnsupportedMeasureError(f"{self.kind} is not an entropy-based measure")

    def label(self) -> str:
        args = []
        for name in ("q", "r", "s"):
            val = getattr(self, name)
            if val is not None:
                args.append(f"{name}={val:g}")
        return self.kind + (f"({','.join(args)})" if args else "")


def cut_spectrum(psi: MultiQuditState, cut: Bipartition) -> np.ndarray:
    """Ascending spectrum of the reduced state across a cut.

    Taken on the smaller side of the cut: for a pure state both reduced
    states share their nonzero spectrum, and every measure here depends only
    on that part.
    """
    cut.validate_for(psi.num_sites)
    da = math.prod(psi.dims[j] for j in cut.side_a)
    db = math.prod(psi.dims[j] for j in cut.side_b)
    side = cut.side_a if da <= db else cut.side_b
    return sites_spectrum(psi, side)


def sites_spectrum(psi: MultiQuditState, sites) -> np.ndarray:
    """Ascending spectrum of the reduced state on the given sites (one SVD)."""
    return schmidt_spectrum(psi.amplitudes, psi.dims, sites)


def site_spectra(psi: MultiQuditState) -> list[np.ndarray]:
    """Spectrum of every single-site marginal, smaller-side shortcut included."""
    out = []
    for j in range(psi.num_sites):
        out.append(cut_spectrum(psi, Bipartition.one_vs_rest(j, psi.num_sites)))
    return out


def value_from_spectrum(spec: MeasureSpec, w: np.ndarray) -> float:
    """Evaluate any of the seven measures from a pure state's nonnegative cut spectrum w.

    Negativity is ((sum sqrt(w))^2 - 1) / 2: the trace norm of a pure state's
    partial transpose is the squared sum of its Schmidt coefficients, so no
    density or partial transpose is formed.
    """
    if spec.is_entropy_based:
        return spec.entropy_params().of_spectrum(w)
    if spec.kind == "conc":
        return math.sqrt(max(2.0 * (1.0 - float(np.sum(np.square(w)))), 0.0))
    return 0.5 * (float(np.sum(np.sqrt(w))) ** 2 - 1.0)


def measure_pure(psi: MultiQuditState, cut: Bipartition, spec: MeasureSpec) -> float:
    """Entanglement of a pure state across a cut, per the given measure."""
    return value_from_spectrum(spec, cut_spectrum(psi, cut))


def marginal_vector(psi: MultiQuditState, spec: MeasureSpec) -> np.ndarray:
    """One-to-group marginal entanglement for every site j (cut j vs rest)."""
    return marginal_vector_from_spectra(site_spectra(psi), spec)


def marginal_vector_from_spectra(spectra, spec: MeasureSpec) -> np.ndarray:
    """Marginal vector evaluated from precomputed single-site spectra."""
    return np.array([value_from_spectrum(spec, w) for w in spectra])


def total_entanglement(mv) -> float:
    """Sum of the one-to-group marginals."""
    return float(np.sum(np.asarray(mv, dtype=float)))


def measure_network(net: NetworkState, party_cut: Bipartition, spec: MeasureSpec) -> float:
    """Entropy-based measure of a network state across a cut over parties.

    Evaluates the entropy of the reduced density on the ``side_a`` parties,
    which for product networks is the marginal quantity the polygon
    inequalities constrain; on pure networks it agrees with
    :func:`measure_pure`.  Concurrence and negativity would need a convex
    roof on mixed networks and are rejected.
    """
    if not spec.is_entropy_based:
        raise UnsupportedMeasureError(
            f"{spec.kind} on a (generally mixed) network state needs a convex roof; "
            "only entropy-based measures are supported")
    party_cut.validate_for(net.num_parties)
    rho_a = net.reduced(party_cut.side_a)
    return spec.entropy_params().of_spectrum(density_spectrum(rho_a))


def network_marginal_vector(net: NetworkState, spec: MeasureSpec) -> np.ndarray:
    """One-to-group marginals of a network state, one entry per party."""
    n = net.num_parties
    return np.array([
        measure_network(net, Bipartition.one_vs_rest(j, n), spec) for j in range(n)])
