"""Bipartite entanglement measures on pure multi-qudit states and networks.

Every measure of a pure state across a cut is a function of the squared
Schmidt coefficients w (the reduced spectrum of either side): the entropy-
based measures evaluate an entropy of w, concurrence is the qudit
generalization sqrt(2 (1 - sum w^2)) = 2 sqrt(sum_{i<j} w_i w_j), and
negativity, (trace_norm(partial transpose) - 1) / 2, equals
((sum sqrt(w))^2 - 1) / 2 (Vidal and Werner, PRA 65, 032314).

:class:`MeasureSpec` validates, parses and labels through ``_MEASURE_TABLE``
alone: each token's entropy kind, parameter names and parameter domain.
:func:`cut_values` evaluates pure states a (T, D) block at a time; the
scalar functions are one-row calls of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .entropies import EntropyParams, _value
from .errors import InvalidInputError, UnsupportedMeasureError
from .states import MultiQuditState, NetworkState
from .tensor import _cut_spectrum, _pure_block, as_dims, as_sites
from .tolerances import LIMIT_TOL


def _concurrence_from_spectrum(w):
    # 2 sqrt(sum_{i<j} w_i w_j) over the ascending spectrum: unlike
    # sqrt(2 (1 - sum w^2)) it does not cancel to roundoff near product states
    w = np.asarray(w, dtype=float)
    pairs = np.vecdot(w[..., 1:], w.cumsum(axis=-1)[..., :-1])
    return _value(2.0 * np.sqrt(np.maximum(pairs, 0.0)))


def _negativity_from_spectrum(w):
    return _value(0.5 * (np.sqrt(w).sum(axis=-1) ** 2 - 1.0))


class _MeasureRow(NamedTuple):
    entropy: str | None            # EntropyParams kind, None if not entropy-based
    params: tuple[str, ...]        # parameter names, in q, r, s order
    message: str                   # raised on a missing, extra or invalid parameter
    domain: Callable[..., bool] = lambda: True  # true on valid (finite) parameter values
    functional: Callable | None = None  # measure of w when not entropy-based


_MEASURE_TABLE = {
    "qconc": _MeasureRow("fq", ("q",), "qconc takes exactly one finite q >= 2 (flag --q)",
                         lambda q: 2 <= q < math.inf),
    "unified": _MeasureRow("unified", ("r", "s"),
                           "unified takes exactly a finite r >= 1 and s >= 0 (flags --r --s)",
                           lambda r, s: 1 <= r < math.inf and 0 <= s < math.inf),
    "renyi": _MeasureRow("renyi", ("r",),
                         "renyi takes exactly one finite r >= 0, r != 1 (flag --r)",
                         lambda r: 0 <= r < math.inf and abs(r - 1.0) > LIMIT_TOL),
    "tsallis": _MeasureRow("tsallis", ("r",), "tsallis takes exactly one finite r > 1 (flag --r)",
                           lambda r: 1 < r < math.inf),
    "eof": _MeasureRow("vn", (), "eof takes no parameters"),
    "conc": _MeasureRow(None, (), "conc takes no parameters",
                        functional=_concurrence_from_spectrum),
    "neg": _MeasureRow(None, (), "neg takes no parameters",
                       functional=_negativity_from_spectrum),
}
MEASURE_TOKENS = tuple(_MEASURE_TABLE)
ENTROPY_BASED = tuple(t for t, row in _MEASURE_TABLE.items() if row.entropy is not None)


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
    _entropy: EntropyParams | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        row = _MEASURE_TABLE.get(self.kind)
        if row is None:
            raise InvalidInputError(
                f"unknown measure {self.kind!r}; expected one of {', '.join(MEASURE_TOKENS)}")
        given = tuple(n for n in ("q", "r", "s") if getattr(self, n) is not None)
        if given != row.params or not row.domain(*(getattr(self, n) for n in given)):
            raise InvalidInputError(row.message)
        if row.entropy is not None:
            object.__setattr__(self, "_entropy", EntropyParams(
                row.entropy, **{n: getattr(self, n) for n in given}))

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
        """Spec for a token, keeping only the parameters the token takes."""
        given = {"q": q, "r": r, "s": s}
        names = _MEASURE_TABLE[token].params if token in _MEASURE_TABLE else ()
        return MeasureSpec(token, **{
            n: None if given[n] is None else float(given[n]) for n in names})

    @property
    def is_entropy_based(self) -> bool:
        return self._entropy is not None

    def entropy_params(self) -> EntropyParams:
        if self._entropy is None:
            raise UnsupportedMeasureError(f"{self.kind} is not an entropy-based measure")
        return self._entropy

    def label(self) -> str:
        args = [f"{n}={getattr(self, n):g}" for n in _MEASURE_TABLE[self.kind].params]
        return self.kind + (f"({','.join(args)})" if args else "")


def _reduced_spectra(amplitudes, dims, sides):
    # The distinct (T, d) spectra of a validated (T, D) block, and each side's index
    # into them.  A side reduces to itself or its complement, whichever is smaller
    # (itself on a tie): both share their nonzero spectrum, all a measure uses.
    dims = as_dims(dims)
    if np.ndim(amplitudes) != 2:
        raise InvalidInputError(f"expected a (T, D) amplitude block, got {np.shape(amplitudes)}")
    n, total = len(dims), math.prod(dims)
    keeps: dict[tuple[int, ...], int] = {}
    index = []
    for side in sides:
        a = as_sites(side, n)
        da = math.prod(dims[j] for j in a)
        keep = a if da * da <= total else tuple(j for j in range(n) if j not in a)
        index.append(keeps.setdefault(keep, len(keeps)))
    block = _pure_block(amplitudes, dims)
    return [_cut_spectrum(block, dims, keep) for keep in keeps], index


def cut_values(amplitudes, dims, specs, sides) -> np.ndarray:
    """Every spec across every cut of a (T, D) block of pure states: a (T, specs, sides) array.

    Entry [t, i, k] is ``specs[i]`` of row t across the cut ``sides[k]`` |
    rest.  The block is validated once and one batched SVD runs per distinct
    reduced side.
    """
    spectra, index = _reduced_spectra(amplitudes, dims, sides)
    values = np.empty((len(amplitudes), len(specs), len(spectra)))
    for k, w in enumerate(spectra):
        for i, spec in enumerate(specs):
            values[:, i, k] = value_from_spectrum(spec, w)
    return values[..., index]


def site_spectra(psi: MultiQuditState) -> list[np.ndarray]:
    """Spectrum of every single-site marginal, each taken on the smaller side of its cut."""
    spectra, index = _reduced_spectra(
        psi.amplitudes[None], psi.dims, [(j,) for j in range(psi.num_sites)])
    return [spectra[k][0] for k in index]


def value_from_spectrum(spec: MeasureSpec, w: np.ndarray):
    """Evaluate any of the seven measures from a pure state's nonnegative cut spectrum w.

    A 1-D ``w`` gives a float; a (T, d) batch of spectra gives the T values,
    each reduced over the last axis like the 1-D call.
    Negativity is ((sum sqrt(w))^2 - 1) / 2: the trace norm of a pure state's
    partial transpose is the squared sum of its Schmidt coefficients, so no
    density or partial transpose is formed.
    """
    if spec.is_entropy_based:
        return spec.entropy_params().of_spectrum(w)
    return _MEASURE_TABLE[spec.kind].functional(w)


def measure_pure(psi: MultiQuditState, cut: Bipartition, spec: MeasureSpec) -> float:
    """Entanglement of a pure state across a cut, per the given measure."""
    cut.validate_for(psi.num_sites)
    return float(cut_values(psi.amplitudes[None], psi.dims, [spec], [cut.side_a])[0, 0, 0])


def marginal_vector(psi: MultiQuditState, spec: MeasureSpec) -> np.ndarray:
    """One-to-group marginal entanglement for every site j (cut j vs rest)."""
    sites = [(j,) for j in range(psi.num_sites)]
    return cut_values(psi.amplitudes[None], psi.dims, [spec], sites)[0, 0]


def marginal_vector_from_spectra(spectra, spec: MeasureSpec) -> np.ndarray:
    """Marginal vector evaluated from precomputed single-site spectra."""
    return np.array([value_from_spectrum(spec, w) for w in spectra])


def total_entanglement(mv) -> float:
    """Sum of the one-to-group marginals."""
    return float(np.sum(np.asarray(mv, dtype=float)))


def measure_network(net: NetworkState, party_cut: Bipartition, spec: MeasureSpec) -> float:
    """Entropy-based measure of a network state across a cut over parties.

    Evaluates the entropy of the spectrum of the reduction onto the
    ``side_a`` parties, which :meth:`NetworkState.spectrum` takes as a product
    of per-resource spectra without forming a density.  For product networks
    this is the marginal quantity the polygon inequalities constrain; on pure
    networks it agrees with :func:`measure_pure`.  Concurrence and negativity
    would need a convex roof on mixed networks and are rejected.
    """
    if not spec.is_entropy_based:
        raise UnsupportedMeasureError(
            f"{spec.kind} on a (generally mixed) network state needs a convex roof; "
            "only entropy-based measures are supported")
    party_cut.validate_for(net.num_parties)
    return spec.entropy_params().of_spectrum(net.spectrum(party_cut.side_a))


def network_marginal_vector(net: NetworkState, spec: MeasureSpec) -> np.ndarray:
    """One-to-group marginals of a network state, one entry per party."""
    n = net.num_parties
    return np.array([
        measure_network(net, Bipartition.one_vs_rest(j, n), spec) for j in range(n)])
