"""The four closed-loop workloads.

A workload is a function ``cycle(seed, index) -> list[Call]`` that builds,
from the workload seed and a cycle number, the public-API calls one client
issues back to back.  Inputs are generated here, outside the timed region;
each ``Call.run`` is exactly the timed work and ``Call.check`` is its oracle.

Each cycle's mix keeps the 50th and 90th latency percentiles off the
boundary between two unlike kinds of call, and where a few kinds make up the
cycle, in the upper part of one kind: a percentile on a boundary jumps
between the kinds from run to run, and one near the lower edge of a kind
jumps with the share of the run that a shared host spends in its faster
state.

Library functions are looked up on their modules at call time
(``search.fuzz_polygon``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from entpoly import inequalities, measures, search, states

from oracles import (
    Measure,
    check_fuzz,
    check_ghz3_tau,
    check_network,
    check_star4_tau_hat,
)

QCONC2 = Measure("qconc", q=2.0)
QCONC3 = Measure("qconc", q=3.0)
EOF = Measure("eof")
TSALLIS2 = Measure("tsallis", r=2.0)
UNIFIED21 = Measure("unified", r=2.0, s=1.0)
CONC = Measure("conc")
NEG = Measure("neg")

RECORD_WORST = 4  # the SearchConfig default, left unset in the calls


@dataclass
class Call:
    kind: str                       # kind of call, e.g. "3x3x3-qconc2"
    items: int                      # trials, grid points or networks
    run: Callable[[], Any]          # the timed public-API work
    check: Callable[[Any], list]    # oracle: failure messages, empty if correct


def spec_of(m: Measure):
    return measures.MeasureSpec.from_token(m.token, q=m.q, r=m.r, s=m.s)


def _regenerate(dims, trial_seed):
    return states.haar_random(dims, trial_seed).amplitudes


def _call_seeds(seed: int, index: int, stream: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, index, stream])
    return [int(x) for x in rng.integers(0, 2**63, size=count)]


def _fuzz_call(dims, m: Measure, trials: int, seed: int, proved: bool) -> Call:
    cfg = search.SearchConfig(dims=dims, spec=spec_of(m), trials=trials, seed=seed)

    def check(report):
        return check_fuzz(report, dims=dims, m=m, trials=trials, seed=seed,
                          proved=proved, record_worst=RECORD_WORST,
                          regenerate=_regenerate, mix=search.mix64)

    return Call(f"{'x'.join(map(str, dims))}-{m.tag}", trials,
                lambda: search.fuzz_polygon(cfg, workers=1), check)


# Table 1 rows other than negativity, plus larger and heterogeneous shapes.
# ``proved`` rows must show no violation; (3,3,3) conc is an open row.
HAAR_ROWS = (
    ((3, 3, 3), QCONC2, True),
    ((3, 3, 3), EOF, True),
    ((3, 3, 3), TSALLIS2, True),
    ((3, 3, 3), UNIFIED21, True),
    ((3, 3, 3), CONC, False),
    ((2, 2, 2), EOF, True),
    ((2, 2, 2), CONC, True),
    ((4, 4, 4), QCONC2, True),
    ((4, 4, 4), EOF, True),
    ((4, 4, 4), UNIFIED21, True),
    ((2, 3, 4), QCONC3, True),
    ((2, 2, 2, 2), EOF, True),
    ((2, 3, 4, 5), EOF, True),
    ((2, 3, 4, 5), QCONC2, True),
    ((2, 3, 4, 5), TSALLIS2, True),
)
HAAR_TRIALS = 20


def fuzz_haar(seed: int, index: int) -> list[Call]:
    seeds = _call_seeds(seed, index, 0, len(HAAR_ROWS))
    return [_fuzz_call(dims, m, HAAR_TRIALS, s, proved)
            for (dims, m, proved), s in zip(HAAR_ROWS, seeds)]


# (dims, trials, proved): the proved qubit row and the open qutrit row,
# three to two, so the median is a (2,2,2) call and the p90 a (3,3,3) call.
# One (3,3,3) trial costs about a tenth of a second at the seed commit.
NEG_ROWS = (
    ((2, 2, 2), 4, True),
    ((3, 3, 3), 1, False),
    ((2, 2, 2), 4, True),
    ((3, 3, 3), 1, False),
    ((2, 2, 2), 4, True),
)


def fuzz_negativity(seed: int, index: int) -> list[Call]:
    seeds = _call_seeds(seed, index, 1, len(NEG_ROWS))
    return [_fuzz_call(dims, NEG, trials, s, proved)
            for (dims, trials, proved), s in zip(NEG_ROWS, seeds)]


# Grid points per cycle: fig2 calls are the faster three fifths of a cycle,
# so the median is a fig2 call and the p90 a star4 call.
FIG2_POINTS = 24
FIG4_POINTS = 16


def _tau_call(theta: float, phi: float, m: Measure) -> Call:
    spec = spec_of(m)
    return Call(f"fig2-{m.tag}", 1,
                lambda: inequalities.tau_indicator(states.generalized_ghz3(theta, phi), spec),
                lambda res: check_ghz3_tau(res, theta, phi, m))


def _star4_sweep(label: str, points: list[Measure]) -> list[Call]:
    held = {}  # the sweep builds star4 in its first call and reuses it

    def make(m: Measure) -> Call:
        spec = spec_of(m)

        def run():
            if "psi" not in held:
                held["psi"] = states.star4()
            return inequalities.tau_hat_indicator(held["psi"], None, spec)

        return Call(label, 1, run, lambda res: check_star4_tau_hat(res, m))

    return [make(m) for m in points]


def indicator_scan(seed: int, index: int) -> list[Call]:
    """Fig. 2 box (eof, qconc), Fig. 4a q-line and Fig. 4b (r, s) box."""
    rng = np.random.default_rng([seed, index, 2])
    calls = []
    for m in (EOF, QCONC2):
        for theta, phi in zip(rng.uniform(0.0, math.pi, FIG2_POINTS),
                              rng.uniform(0.0, 2.0 * math.pi, FIG2_POINTS)):
            calls.append(_tau_call(float(theta), float(phi), m))
    qs = rng.uniform(2.0, 9.0, FIG4_POINTS)
    calls += _star4_sweep("fig4a-qconc", [Measure("qconc", q=float(q)) for q in qs])
    rs = rng.uniform(1.0, 9.0, FIG4_POINTS)
    ss = rng.uniform(0.0, 10.0, FIG4_POINTS)
    calls += _star4_sweep("fig4b-unified",
                          [Measure("unified", r=float(r), s=float(s)) for r, s in zip(rs, ss)])
    return calls


# (log2 of the total dimension, parties) per call of a cycle.  The cost of
# compose_network and partial_trace grows with the square of the total
# dimension, so fixing it per slot keeps the latency mix the same per seed.
# The median falls on a 2^8 network and the p90 on a 2^10 one.
NETWORK_SLOTS = ((6, 3), (7, 3), (8, 4), (8, 4), (8, 4), (8, 4), (9, 4),
                 (10, 5), (10, 5), (10, 5))
NETWORK_MEASURES = (QCONC2, UNIFIED21)


def _resource_options(parties: int):
    # (kind, d, particles, log2 of the resource dimension)
    opts = [("epr", 2, 2, 2), ("ghz_diag", 2, 2, 2), ("ghz_diag", 4, 2, 4)]
    opts += [("ghz", 2, k, k) for k in range(3, parties + 1)]
    opts += [("ghz", 4, k, 2 * k) for k in range(2, parties + 1)]
    return opts


def random_network(rng: np.random.Generator, bits: int, parties: int):
    """Seeded network of total dimension 2**bits in which every party holds a particle."""
    opts = _resource_options(parties)
    while True:
        left, resources, dims = bits, [], [1] * parties
        while left:
            fit = [o for o in opts if o[3] <= left and left - o[3] != 1]
            kind, d, k, b = fit[rng.integers(len(fit))]
            owners = [int(p) for p in rng.permutation(parties)[:k]]
            if kind == "epr":
                resources.append(states.Resource.epr(*owners))
            elif kind == "ghz":
                resources.append(states.Resource.ghz(d, owners))
            else:
                resources.append(states.Resource.ghz_diag(d, *owners))
            for p in owners:
                dims[p] *= d
            left -= b
        if all(d > 1 for d in dims):
            return states.NetworkSpec(parties, tuple(resources)), tuple(dims)


def _network_call(net_spec, party_dims) -> Call:
    specs = [spec_of(m) for m in NETWORK_MEASURES]

    def run():
        net = states.compose_network(net_spec)
        return net, [measures.network_marginal_vector(net, s) for s in specs]

    return Call(f"net{math.prod(party_dims)}", 1, run,
                lambda res: check_network(res, party_dims=party_dims,
                                          measures=NETWORK_MEASURES))


def network(seed: int, index: int) -> list[Call]:
    rng = np.random.default_rng([seed, index, 3])
    return [_network_call(*random_network(rng, bits, parties))
            for bits, parties in NETWORK_SLOTS]


WORKLOADS = {
    "fuzz_haar": fuzz_haar,
    "fuzz_negativity": fuzz_negativity,
    "indicator_scan": indicator_scan,
    "network": network,
}

# What one item is on each workload (items_per_s counts these).
ITEMS = {
    "fuzz_haar": "trials",
    "fuzz_negativity": "trials",
    "indicator_scan": "grid points",
    "network": "networks",
}

# Workloads whose rate is scaled by the host's mean slowdown, measured with
# the interpreted reference kernel (see reference.py).  ``network`` spends
# its time in memory-bound dense products, which a busy host hardly slows,
# so its rate stays as measured.
SCALED = {"fuzz_haar", "fuzz_negativity", "indicator_scan"}

# Cycles in a traced run per second of --seconds.  A fixed count keeps the
# trace's counters identical from run to run; at the seed commit on a
# 2-CPU x86 machine the untraced pass over them takes about half of --seconds.
TRACE_CYCLES_PER_S = {
    "fuzz_haar": 1.2,
    "fuzz_negativity": 2.0,
    "indicator_scan": 5.0,
    "network": 1.2,
}
