"""Built-in reference scenarios with closed-form cross-checks.

Every target recomputes known closed-form values side by side with the
direct numerical path (for the figures, :func:`~entpoly.search.grid_scan`)
and reports the absolute differences; ``table1`` runs a seeded fuzz per
measure row instead, each through the fuzz engine's one reducer.  All
output is deterministic given the flags and seed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError
from .inequalities import (
    default_tau_hat_cuts,
    polygon_margins,
    polygon_slack,
    renyi_mixed_margins,
    tau_hat_indicator,
    tau_indicator,
)
from .measures import (
    Bipartition,
    MeasureSpec,
    cut_values,
    marginal_vector,
    measure_pure,
    network_marginal_vector,
    total_entanglement,
    value_from_spectrum,
)
from .search import SearchConfig, _run_chunk, grid_scan, mix64
from .states import (
    NetworkSpec,
    Resource,
    angle_rows,
    compose_network,
    ghz,
    star4,
    w_qutrit,
)
from .tensor import MAX_STATE_DIM, as_int
from .tolerances import LIMIT_TOL, LOG_EPS

TARGETS = ("example1", "example2", "example3", "example4", "example5", "example6",
           "fig2", "fig4a", "fig4b", "table1")

HEADER = ["quantity", "closed_form", "computed", "abs_diff"]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _vn_bits(lams) -> float:
    return float(-sum(l * math.log2(l) for l in lams if l > LOG_EPS))


def _closed_uniform(spec: MeasureSpec, dim: int) -> float:
    """Closed-form measure value for a maximally mixed reduced state of size dim.

    Mirrors the limit dispatch of the numerical path: unified with r near 1
    or s near 0 evaluates the base-2 entropy log2(dim).
    """
    if spec.kind == "qconc":
        return 1.0 - dim ** (1.0 - spec.q)
    if spec.kind in ("eof", "renyi"):
        return math.log2(dim)
    if spec.kind == "tsallis":
        return (dim ** (1.0 - spec.r) - 1.0) / (1.0 - spec.r)
    if spec.kind == "unified":
        r, s = spec.r, spec.s
        if abs(r - 1.0) <= LIMIT_TOL or abs(s) <= LIMIT_TOL:
            return math.log2(dim)
        grow = dim ** ((r - 1.0) * s)
        return (1.0 - grow) / ((1.0 - r) * s * grow)
    raise InvalidInputError(f"no closed form for {spec.kind} on a uniform spectrum")


class _Sheet:
    """Accumulates (quantity, closed, computed) rows and the running max diff."""

    def __init__(self):
        self.rows: list[list[str]] = []
        self.max_diff = 0.0

    def add(self, name: str, closed: float, computed: float) -> None:
        diff = abs(closed - computed)
        self.max_diff = max(self.max_diff, diff)
        self.rows.append([name, _fmt(closed), _fmt(computed), _fmt(diff)])

    def result(self, extra_footers: list[str] | None = None):
        footers = [f"# max_abs_diff = {_fmt(self.max_diff)}"]
        if extra_footers:
            footers.extend(extra_footers)
        return HEADER, self.rows, footers, self.max_diff


def _ghzg_lams(theta: float, phi: float) -> tuple[float, float, float]:
    st, ct = math.sin(theta), math.cos(theta)
    return ((st * math.cos(phi)) ** 2, (st * math.sin(phi)) ** 2, ct * ct)


def example1(grid: int = 5, **_):
    """Three-qutrit angle family: EOF marginals and the vanishing points."""
    grid = as_int(grid, "grid")
    if grid < 1:
        raise InvalidInputError(f"grid must be >= 1, got {grid}")
    sheet = _Sheet()
    eof, dims, sites = [MeasureSpec.eof()], (3, 3, 3), [(0,), (1,), (2,)]
    points = [(float(theta), float(phi)) for theta in np.linspace(0.0, math.pi, grid)
              for phi in np.linspace(0.0, 2.0 * math.pi, grid)]
    values = cut_values(angle_rows("generalized_ghz3", points), dims, eof, sites)[:, 0]
    for (theta, phi), row in zip(points, values):
        closed = _vn_bits(_ghzg_lams(theta, phi))
        for i in range(3):
            sheet.add(f"eof[theta={theta:.6f},phi={phi:.6f},cut={i}]", closed, float(row[i]))
    # five vanishing points, then the entangled point pi/2, pi/4
    tau_points = [(math.pi, 0.3)] + [
        (math.pi / 2, f * math.pi) for f in (0.5, 1.0, 1.5, 2.0, 0.25)]
    tau_rows = angle_rows("generalized_ghz3", tau_points)
    taus = polygon_slack(cut_values(tau_rows, dims, eof, sites)[:, 0]).min(axis=-1)
    for (theta, phi), tau in zip(tau_points[:-1], taus):
        sheet.add(f"tau_eof[theta={theta:.6f},phi={phi:.6f}]", 0.0, float(tau))
    footer = [f"# tau_eof_at_pi2_pi4 = {_fmt(float(taus[-1]))}"]
    return sheet.result(footer)


def _w_closed_qconc(q: float) -> float:
    return 1.0 - 2.0**q / 3.0**q - 2.0 / 6.0**q


def _w_closed_unified(r: float, s: float) -> float:
    lams = (2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0)
    if abs(r - 1.0) <= LIMIT_TOL:
        return _vn_bits(lams)
    if abs(s) <= LIMIT_TOL:
        return math.log2((4.0**r + 2.0) / 6.0**r) / (1.0 - r)
    return ((4.0**r + 2.0) ** s / 6.0 ** (r * s) - 1.0) / ((1.0 - r) * s)


def example2(q: float = 2.0, r: float = 2.0, s: float = 1.0, **_):
    """W-class qutrit state: marginal closed forms and the indicator."""
    sheet = _Sheet()
    psi = w_qutrit()
    qspec = MeasureSpec.qconcurrence(q)
    uspec = MeasureSpec.unified(r, s)
    for i in range(3):
        cut = Bipartition.one_vs_rest(i, 3)
        sheet.add(f"qconc[cut={i}]", _w_closed_qconc(q), measure_pure(psi, cut, qspec))
        sheet.add(f"unified[cut={i}]", _w_closed_unified(r, s), measure_pure(psi, cut, uspec))
    sheet.add("tau_qconc", _w_closed_qconc(q), tau_indicator(psi, qspec).value)
    sheet.add("tau_unified", _w_closed_unified(r, s), tau_indicator(psi, uspec).value)
    return sheet.result()


def example3(d: int = 3, m: int = 3, q: float = 2.0, r: float = 2.0, s: float = 1.0, **_):
    """Cat states: every marginal is maximally mixed, indicators scale with m-2."""
    sheet = _Sheet()
    psi = ghz(d, m)
    qspec = MeasureSpec.qconcurrence(q)
    uspec = MeasureSpec.unified(r, s)
    closed_q = _closed_uniform(qspec, d)
    closed_u = _closed_uniform(uspec, d)
    mv_q = marginal_vector(psi, qspec)
    mv_u = marginal_vector(psi, uspec)
    for j in range(m):
        sheet.add(f"qconc[site={j}]", closed_q, float(mv_q[j]))
        sheet.add(f"unified[site={j}]", closed_u, float(mv_u[j]))
    sheet.add("total_qconc", m * closed_q, total_entanglement(mv_q))
    sheet.add("tau_qconc", (m - 2) * closed_q, tau_indicator(psi, qspec).value)
    sheet.add("tau_unified", (m - 2) * closed_u, tau_indicator(psi, uspec).value)
    return sheet.result()


def _complete_graph(n: int) -> NetworkSpec:
    pairs = [Resource.epr(i, j) for i in range(n) for j in range(i + 1, n)]
    return NetworkSpec(n, tuple(pairs))


def example4(n: int = 3, q: float = 2.0, r: float = 2.0, s: float = 1.0, **_):
    """Complete pairwise-EPR network: per-pair additive and joint marginals.

    The additive value sums each shared pair's contribution; the joint value
    is the measure of the party's composite reduced state.  Subadditivity
    makes the additive form an upper bound on the joint one, so both satisfy
    the polygon inequality.
    """
    n = as_int(n, "n")
    if n < 2:
        raise InvalidInputError("the complete-graph scenario needs n >= 2")
    if n - 1 >= MAX_STATE_DIM.bit_length():  # 2^(n-1) > MAX_STATE_DIM, without forming 2^(n-1)
        raise InvalidInputError(
            f"example4 needs n <= {MAX_STATE_DIM.bit_length()}: each party's reduced state "
            f"has rank 2^(n-1), above MAX_STATE_DIM ({MAX_STATE_DIM}) for n = {n}")
    sheet = _Sheet()
    net = compose_network(_complete_graph(n))
    half = compose_network(_complete_graph(2)).spectrum((0,))  # one party's half of a pair
    for spec in (MeasureSpec.qconcurrence(q), MeasureSpec.unified(r, s)):
        per_pair = [value_from_spectrum(spec, half) for _pair in range(n - 1)]
        sheet.add(f"additive_marginal[{spec.kind}]",
                  (n - 1) * _closed_uniform(spec, 2), float(sum(per_pair)))
        mv = network_marginal_vector(net, spec)
        sheet.add(f"joint_marginal[{spec.kind}]",
                  _closed_uniform(spec, 2 ** (n - 1)), float(mv[0]))
        sheet.add(f"polygon_margin[{spec.kind}]",
                  (n - 2) * _closed_uniform(spec, 2 ** (n - 1)), float(polygon_slack(mv)[0]))
    return sheet.result()


def example5(q: float = 2.0, r: float = 2.0, s: float = 1.0, **_):
    """Three-party chain holding an EPR pair, a GHZ(3,3), and a diagonal pair.

    Every party marginal is maximally mixed at its composite dimension, so
    each closed form follows from the party dimension alone.
    """
    sheet = _Sheet()
    spec_list = (MeasureSpec.qconcurrence(q), MeasureSpec.unified(r, s))
    net = compose_network(NetworkSpec(3, (
        Resource.epr(0, 1),
        Resource.ghz(3, (0, 1, 2)),
        Resource.ghz_diag(3, 1, 2),
    )))
    for spec in spec_list:
        mv = network_marginal_vector(net, spec)
        closed_mv = [_closed_uniform(spec, dim) for dim in net.party_dims]
        for p in range(3):
            sheet.add(f"marginal[{spec.kind},party={p}]", closed_mv[p], float(mv[p]))
        for p in range(3):
            closed_margin = sum(closed_mv) - 2.0 * closed_mv[p]
            sheet.add(f"polygon_margin[{spec.kind},party={p}]", closed_margin,
                      float(polygon_slack(mv)[p]))
    return sheet.result()


_STAR4_CUTS = {
    "1|234": Bipartition.of((0,), 4),
    "2|134": Bipartition.of((1,), 4),
    "3|124": Bipartition.of((2,), 4),
    "4|123": Bipartition.of((3,), 4),
    "12|34": Bipartition.of((0, 1), 4),
    "34|12": Bipartition.of((2, 3), 4),
}


def _star4_crossing(side_a) -> int:
    # pairs connect the hub (site 0) with sites 1..3; count pairs cut in two
    inside = set(side_a)
    hub = 0 in inside
    return sum(1 for k in (1, 2, 3) if (k in inside) != hub)


def _star4_closed_cut(spec: MeasureSpec, side_a) -> float:
    return _closed_uniform(spec, 2 ** _star4_crossing(side_a))


def _star4_closed_tau_hat(spec: MeasureSpec) -> float:
    best = math.inf
    for cut in default_tau_hat_cuts(4):
        cand = sum(_star4_closed_cut(spec, (j,)) for j in cut.side_a)
        cand -= _star4_closed_cut(spec, cut.side_a)
        best = min(best, cand)
    return best


def example6(q: float = 2.0, r: float = 2.0, s: float = 1.0, **_):
    """Hub-and-spokes state of three EPR pairs on dims (8,2,2,2)."""
    sheet = _Sheet()
    psi = star4()
    for spec in (MeasureSpec.qconcurrence(q), MeasureSpec.unified(r, s)):
        for name, cut in _STAR4_CUTS.items():
            sheet.add(f"{spec.kind}[{name}]",
                      _star4_closed_cut(spec, cut.side_a),
                      measure_pure(psi, cut, spec))
        sheet.add(f"tau_hat[{spec.kind}]",
                  _star4_closed_tau_hat(spec),
                  tau_hat_indicator(psi, None, spec).value)
    return sheet.result()


def _scan_target(family, grid, spec, closed, header):
    # grid_scan rows beside their closed form (a function of the two parameters)
    rows = []
    max_diff = 0.0
    min_value = math.inf
    for a, b, value in grid_scan(family, grid, spec):
        max_diff = max(max_diff, abs(value - closed(a, b)))
        min_value = min(min_value, value)
        rows.append([_fmt(a), _fmt(b), _fmt(value)])
    footers = [f"# max_abs_diff = {_fmt(max_diff)}", f"# min_value = {_fmt(min_value)}"]
    return header, rows, footers, max_diff


def fig2(grid: int = 100, **_):
    """tau_EOF surface of the three-qutrit angle family on a grid."""
    return _scan_target("generalized_ghz3", grid, MeasureSpec.eof(),
                        lambda theta, phi: _vn_bits(_ghzg_lams(theta, phi)),
                        ["theta", "phi", "tau_eof"])


def fig4a(grid: int = 50, **_):
    """Hub-state tau-hat against the concurrence order q."""
    header, rows, footers, max_diff = _scan_target(
        "star4", grid, MeasureSpec.qconcurrence(2),
        lambda q, _: _star4_closed_tau_hat(MeasureSpec.qconcurrence(q)),
        ["q", "unused", "tau_hat_qconc"])
    return header, rows, footers[:1], max_diff  # no min_value footer


def fig4b(grid: int = 25, **_):
    """Hub-state tau-hat over the unified-entropy parameter box."""
    return _scan_target("star4", grid, MeasureSpec.unified(2, 1),
                        lambda r, s: _star4_closed_tau_hat(MeasureSpec.unified(r, s)),
                        ["r", "s", "tau_hat_unified"])


_TABLE1_ROWS = (
    ("qconc(q=2)", "qconc", (3, 3, 3), "proved"),
    ("eof", "eof", (2, 2, 2), "proved"),
    ("eof", "eof", (3, 3, 3), "proved"),
    ("tsallis(r=2)", "tsallis", (3, 3, 3), "proved"),
    ("renyi-triangle(r=2)", "renyi", (3, 3, 3), "proved"),
    ("unified(r=2,s=1)", "unified", (3, 3, 3), "proved"),
    ("conc", "conc", (2, 2, 2), "proved"),
    ("conc", "conc", (3, 3, 3), "open"),
    ("neg", "neg", (2, 2, 2), "proved"),
    ("neg", "neg", (3, 3, 3), "open"),
)


def table1(trials: int = 1000, seed: int = 0, **_):
    """Seeded fuzz per measure row; open rows report evidence only."""
    rows = []
    for index, (label, token, dims, status) in enumerate(_TABLE1_ROWS):
        cfg = SearchConfig(dims=dims, spec=MeasureSpec.from_token(token, q=2, r=2, s=1),
                           trials=trials, seed=mix64(seed, index), record_worst=0)
        margins_of = renyi_mixed_margins if token == "renyi" else polygon_margins
        violations, min_margin, _, _ = _run_chunk(cfg, 0, trials, margins_of)
        mark = "?" if status == "open" else "√"
        rows.append([label, ",".join(map(str, dims)), mark,
                     str(trials), str(violations), _fmt(min_margin)])
    header = ["measure", "dims", "status", "trials", "violations", "min_margin"]
    footers = [f"# seed = {seed}",
               "# status: √ proved (fuzz is regression), ? open (counts are evidence only)"]
    return header, rows, footers, None


_TARGET_FNS = {
    "example1": example1,
    "example2": example2,
    "example3": example3,
    "example4": example4,
    "example5": example5,
    "example6": example6,
    "fig2": fig2,
    "fig4a": fig4a,
    "fig4b": fig4b,
    "table1": table1,
}


def run_target(target: str, **kwargs):
    """Dispatch a reproduction target; returns (header, rows, footers, max_diff)."""
    if target not in _TARGET_FNS:
        raise InvalidInputError(
            f"unknown target {target!r}; expected one of {', '.join(TARGETS)}")
    return _TARGET_FNS[target](**kwargs)
