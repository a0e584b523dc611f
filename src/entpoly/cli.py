"""Command-line front end; all output is deterministic machine-readable CSV.

Exit codes: 0 success, 1 usage error, 2 bad numerical input (or a LAPACK
routine that did not converge), 3 when a
``check`` run finds a violated inequality (fuzz reports violations as data
and still exits 0).
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from .errors import InvalidInputError
from .inequalities import (
    bipartition_check,
    polygon_check,
    renyi_mixed_check,
    tau_hat_indicator,
    tau_indicator,
    triangle_check,
)
from .measures import Bipartition, MeasureSpec, marginal_vector, measure_pure
from .reproduce import TARGETS, run_target
from .search import SCAN_FAMILIES, SearchConfig, fuzz_polygon, grid_scan, report_to_json
from .states import haar_random, load_state, save_state
from .tolerances import DEFAULT_TOL


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(header, rows, footers=()):
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    for line in footers:
        print(line)


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(",") if t.strip() != "")
    except ValueError as exc:
        raise InvalidInputError(f"malformed dims {text!r}: {exc}") from exc


def _spec_from_args(args) -> MeasureSpec:
    if args.measure is None:
        raise _UsageError("--measure is required for this command")
    return MeasureSpec.from_token(args.measure, q=args.q, r=args.r, s=args.s)


def _add_measure_flags(parser, required: bool = True):
    parser.add_argument("--measure", required=required,
                        help="qconc|unified|renyi|tsallis|eof|conc|neg")
    parser.add_argument("--q", type=float, help="order for qconc")
    parser.add_argument("--r", type=float, help="order for unified/renyi/tsallis")
    parser.add_argument("--s", type=float, help="second unified parameter")


def _build_parser() -> _Parser:
    parser = _Parser(prog="entpoly",
                     description="entanglement measures, polygon inequalities, "
                                 "indicators, and randomized searches for qudit states")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="measure across one cut")
    p.add_argument("--state", required=True)
    p.add_argument("--cut", required=True, help='cut syntax like "0|1,2"')
    _add_measure_flags(p)

    p = sub.add_parser("marginals", help="one-to-group marginal per site")
    p.add_argument("--state", required=True)
    _add_measure_flags(p)

    p = sub.add_parser("check", help="inequality checks (exit 3 on violation)")
    p.add_argument("kind", choices=["polygon", "triangle", "bipartition", "renyi-mixed"])
    p.add_argument("--state", required=True)
    p.add_argument("--cut", help="required for bipartition")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    _add_measure_flags(p, required=False)

    p = sub.add_parser("indicator", help="polygon/bipartition slack indicators")
    p.add_argument("kind", choices=["tau", "tau-hat"])
    p.add_argument("--state", required=True)
    _add_measure_flags(p)

    p = sub.add_parser("reproduce", help="built-in reference scenarios")
    p.add_argument("target", choices=list(TARGETS))
    p.add_argument("--grid", type=int)
    p.add_argument("--q", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--s", type=float)
    p.add_argument("--d", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("fuzz", help="randomized polygon-inequality search")
    p.add_argument("--dims", required=True, help="comma list like 3,3,3")
    _add_measure_flags(p)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--record-worst", type=int, default=4)
    p.add_argument("--out", help="write the full JSON report here")

    p = sub.add_parser("scan", help="deterministic indicator grids")
    p.add_argument("--family", required=True, help="|".join(SCAN_FAMILIES))
    p.add_argument("--grid", type=int, default=50)
    _add_measure_flags(p)
    p.add_argument("--out", help="write the CSV here instead of stdout")

    p = sub.add_parser("sample", help="write a seeded Haar-random state file")
    p.add_argument("--dims", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    return parser


def _cmd_measure(args) -> int:
    psi = load_state(args.state)
    spec = _spec_from_args(args)
    cut = Bipartition.from_string(args.cut)
    value = measure_pure(psi, cut, spec)
    _write_csv(["measure", "cut", "value"], [[spec.label(), str(cut), _fmt(value)]])
    return 0


def _cmd_marginals(args) -> int:
    psi = load_state(args.state)
    spec = _spec_from_args(args)
    mv = marginal_vector(psi, spec)
    rows = [[str(j), _fmt(float(v))] for j, v in enumerate(mv)]
    _write_csv(["site", spec.label()], rows)
    return 0


def _cmd_check(args) -> int:
    psi = load_state(args.state)
    tol = args.tol
    results = []
    if args.kind == "renyi-mixed":
        if args.r is None:
            raise _UsageError("check renyi-mixed requires --r")
        header = ["i", "bound", "lhs", "rhs", "margin", "satisfied"]
        rows = []
        for i in range(psi.num_sites):
            lower, upper = renyi_mixed_check(psi, i, args.r, tol)
            for name, res in (("lower", lower), ("upper", upper)):
                results.append(res)
                rows.append([str(i), name, _fmt(res.lhs), _fmt(res.rhs),
                             _fmt(res.margin), str(res.satisfied).lower()])
    else:
        spec = _spec_from_args(args)
        if args.kind == "polygon":
            mv = marginal_vector(psi, spec)
            header = ["j", "lhs", "rhs", "margin", "satisfied"]
            rows = []
            for j in range(psi.num_sites):
                res = polygon_check(mv, j, tol)
                results.append(res)
                rows.append([str(j), _fmt(res.lhs), _fmt(res.rhs),
                             _fmt(res.margin), str(res.satisfied).lower()])
        elif args.kind == "triangle":
            mv = marginal_vector(psi, spec)
            header = ["i", "bound", "lhs", "rhs", "margin", "satisfied"]
            rows = []
            for i in range(psi.num_sites):
                lower, upper = triangle_check(mv, i, tol)
                for name, res in (("lower", lower), ("upper", upper)):
                    results.append(res)
                    rows.append([str(i), name, _fmt(res.lhs), _fmt(res.rhs),
                                 _fmt(res.margin), str(res.satisfied).lower()])
        else:
            if args.cut is None:
                raise _UsageError("check bipartition requires --cut")
            cut = Bipartition.from_string(args.cut)
            res = bipartition_check(psi, cut, spec, tol)
            results.append(res)
            header = ["cut", "lhs", "rhs", "margin", "satisfied"]
            rows = [[str(cut), _fmt(res.lhs), _fmt(res.rhs),
                     _fmt(res.margin), str(res.satisfied).lower()]]
    _write_csv(header, rows)
    return 0 if all(r.satisfied for r in results) else 3


def _cmd_indicator(args) -> int:
    psi = load_state(args.state)
    spec = _spec_from_args(args)
    if args.kind == "tau":
        res = tau_indicator(psi, spec)
        cut = str(Bipartition.one_vs_rest(res.argmin_site, psi.num_sites))
    else:
        from .inequalities import default_tau_hat_cuts
        cuts = default_tau_hat_cuts(psi.num_sites)
        res = tau_hat_indicator(psi, cuts, spec)
        cut = str(cuts[res.argmin_site])
    _write_csv(["indicator", "measure", "value", "argmin", "cut"],
               [[args.kind, spec.label(), _fmt(res.value), str(res.argmin_site), cut]])
    return 0


def _cmd_reproduce(args) -> int:
    kwargs = {}
    for name in ("grid", "q", "r", "s", "d", "m", "n", "trials", "seed"):
        val = getattr(args, name)
        if val is not None:
            kwargs[name] = val
    header, rows, footers, _max_diff = run_target(args.target, **kwargs)
    _write_csv(header, rows, footers)
    return 0


def _cmd_fuzz(args) -> int:
    spec = _spec_from_args(args)
    cfg = SearchConfig(dims=_parse_dims(args.dims), spec=spec, trials=args.trials,
                       seed=args.seed, tol=args.tol, record_worst=args.record_worst)
    report = fuzz_polygon(cfg, workers=args.workers)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(report))
    _write_csv(
        ["dims", "measure", "trials", "seed", "violations", "min_margin"],
        [[args.dims, report.measure, str(report.trials_run), str(report.seed),
          str(report.violations), _fmt(report.min_margin)]],
        [f"# seed = {report.seed}"])
    return 0


def _cmd_scan(args) -> int:
    if args.family == "star4":
        # the measure parameter is the scan variable; only the token matters
        spec = MeasureSpec.from_token(args.measure, q=2, r=2, s=1)
    else:
        spec = _spec_from_args(args)
    rows = grid_scan(args.family, args.grid, spec)
    text_rows = [[_fmt(a), _fmt(b), _fmt(v)] for a, b, v in rows]
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["param1", "param2", "value"])
            writer.writerows(text_rows)
        print(f"# wrote {len(text_rows)} rows to {args.out}")
    else:
        _write_csv(["param1", "param2", "value"], text_rows)
    return 0


def _cmd_sample(args) -> int:
    psi = haar_random(_parse_dims(args.dims), args.seed)
    save_state(psi, args.out)
    _write_csv(["file", "dims", "seed"], [[args.out, args.dims, str(args.seed)]])
    return 0


_HANDLERS = {
    "measure": _cmd_measure,
    "marginals": _cmd_marginals,
    "check": _cmd_check,
    "indicator": _cmd_indicator,
    "reproduce": _cmd_reproduce,
    "fuzz": _cmd_fuzz,
    "scan": _cmd_scan,
    "sample": _cmd_sample,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (InvalidInputError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
