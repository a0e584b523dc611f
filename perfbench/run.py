#!/usr/bin/env python3
"""Closed-loop benchmark of the entpoly library.

    python3 perfbench/run.py --workload fuzz_haar --seed 1 --seconds 10 --trace 0

Run from the repository root.  One client issues the workload's public-API
calls back to back, each waiting for the previous one, for ``--seconds`` of
call time (rounded up to a whole cycle of calls), and checks every result
against an oracle outside the timed region.

``--trace 0`` reports the end-to-end metrics.  On the interpreter-bound
workloads a reference kernel timed between calls (see ``reference.py``)
gives the host's mean slowdown over the run, and the rate is multiplied by
it, so that it follows the library and not the shared host's speed.

``--trace 1`` runs a fixed number of cycles twice, untraced and then with
every layer function wrapped (see ``tracer.py``), and reports the per-layer
metrics and the overhead.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record, with run metadata, sample
counts and every layer's numbers, goes to ``perfbench/runs/``.
"""

import time

_START = time.perf_counter()  # set-up is timed from here, before numpy is imported

import argparse  # noqa: E402
from array import array  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"

# Small dense matrices only: one BLAS/OpenMP thread (never more than nproc)
# keeps the single client from competing with itself.
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_RUNS = 7         # this process plus six fresh ones; setup_s is their median
WARMUP_CYCLE = 1 << 30  # the warm-up call's inputs come from a cycle never measured
PROBE_TIMEOUT_S = 120
MAX_FAILURES_SHOWN = 10

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics printed in the result line.  Self times are listed only
# for layers that every workload calls (a layer a workload never enters
# reads 0 s on every run); all layers' self times are in the run record.
PER_LAYER = {
    "states.construct.calls": "count",
    "states.construct.self_s": "s",
    "states.serialize.calls": "count",
    "states.compose.calls": "count",
    "states.compose.bytes": "B",
    "tensor.reduce.calls": "count",
    "tensor.reduce.bytes": "B",
    "tensor.transpose.calls": "count",
    "tensor.spectrum.calls": "count",
    "tensor.spectrum.self_s": "s",
    "tensor.spectrum.dim_max": "count",
    "tensor.spectrum.n3_sum": "count",
    "entropies.calls": "count",
    "measures.calls": "count",
    "measures.self_s": "s",
    "measures.spectrum_requests": "count",
    "measures.spectrum_unique_ratio": "ratio",
    "inequalities.calls": "count",
    "search.calls": "count",
    "search.trials": "count",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("fuzz_haar", "fuzz_negativity", "indicator_scan", "network"))
    ap.add_argument("--seed", type=int, default=0, help="workload seed (>= 0)")
    ap.add_argument("--seconds", type=float, default=10.0, help="call time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def git_commit(root: Path):
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Pass:
    """Latencies and outcomes of one closed-loop pass over whole cycles.

    Per-call records are compact arrays so that the benchmark's own
    bookkeeping hardly moves the process's peak RSS.
    """

    def __init__(self):
        self.latencies = array("d")
        self.call_items = array("i")
        self.call_kind = array("i")
        self.refs = array("d")  # reference kernel timings through the pass
        self.kind_names: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.cycles = 0

    def add(self, kind: str, items: int, dt: float) -> None:
        if kind not in self.kind_names:
            self.kind_names.append(kind)
        self.call_kind.append(self.kind_names.index(kind))
        self.call_items.append(items)
        self.latencies.append(dt)
        self.attempted += 1

    @property
    def items(self) -> int:
        return sum(self.call_items)

    @property
    def busy(self) -> float:
        return float(sum(self.latencies))

    def kinds(self):
        """(name, items, calls, median latency) for each kind of call."""
        import numpy as np

        kinds = np.asarray(self.call_kind)
        lat = np.asarray(self.latencies)
        items = np.asarray(self.call_items)
        for k, name in enumerate(self.kind_names):
            mine = kinds == k
            yield name, int(items[mine].sum()), int(mine.sum()), float(np.median(lat[mine]))

    def slowdown(self) -> float:
        """The host's mean slowdown over the pass: the kernel's mean time over REFERENCE_S."""
        from reference import REFERENCE_S

        return statistics.fmean(self.refs) / REFERENCE_S


def time_reference(kernel) -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def run_cycles(cycle_fn, seed, first, *, seconds=None, cycles=None, tracer=None,
               reference=None) -> Pass:
    """Issue whole cycles of calls until ``seconds`` of call time or ``cycles`` cycles.

    A ``reference`` kernel is timed before the first call and then between
    calls, every ``reference.EVERY_S`` of call time.
    """
    from reference import EVERY_S

    out = Pass()
    busy = 0.0
    last_ref = -EVERY_S
    while True:
        if cycles is not None and out.cycles >= cycles:
            break
        if seconds is not None and busy >= seconds:
            break
        for call in cycle_fn(seed, first + out.cycles):
            if reference and busy - last_ref >= EVERY_S:
                out.refs.append(time_reference(reference))
                last_ref = busy
            error = None
            t0 = time.perf_counter()
            try:
                result = tracer.call(call.run) if tracer else call.run()
            except Exception as exc:  # a raising call is a failed call, not a failed run
                error = f"{call.kind}: {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if error is None:
                try:
                    msgs = [f"{call.kind}: {m}" for m in call.check(result)]
                except Exception as exc:  # an oracle that cannot read the result fails it
                    msgs = [f"{call.kind}: oracle raised {type(exc).__name__}: {exc}"]
            else:
                msgs = [error]
            out.add(call.kind, call.items, dt)
            busy += dt
            if msgs:
                out.failed += 1
                out.failures.extend(msgs[:MAX_FAILURES_SHOWN - len(out.failures)])
        out.cycles += 1
    return out


def setup(workload: str, seed: int) -> float:
    """Generate the warm-up inputs and make one warm-up call; seconds since start."""
    from workloads import WORKLOADS

    WORKLOADS[workload](seed, WARMUP_CYCLE)[0].run()
    return time.perf_counter() - _START


def probe_setup(args, env) -> float:
    """Set-up time of a fresh process running the same workload and seed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def end_to_end(setups, p: Pass, scaled: bool) -> dict:
    """The end-to-end metrics, each with its sample count.

    If ``scaled``, the rate is multiplied by the host's mean slowdown over
    the pass (see ``reference.py``).  Set-up and latency percentiles stay
    as measured.
    """
    import numpy as np

    lat_ms = 1e3 * np.asarray(p.latencies)
    p50, p90 = np.percentile(lat_ms, [50, 90])
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "items_per_s": (p.items / p.busy * (p.slowdown() if scaled else 1.0), p.cycles),
        "call_p50_ms": (p50, len(lat_ms)),
        "call_p90_ms": (p90, int(np.count_nonzero(lat_ms > p90))),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }
    return {name: {"value": float(v), "unit": END_TO_END[name], "samples": n}
            for name, (v, n) in values.items()}


def host_record(p: Pass) -> dict:
    """The slowdown, the unscaled rate and the reference timings, for the record."""
    import numpy as np

    refs_ms = 1e3 * np.asarray(p.refs)
    return {
        "slowdown": p.slowdown(),
        "unscaled_items_per_s": p.items / p.busy,
        "reference_ms": {"timings": len(refs_ms), "mean": float(refs_ms.mean()),
                         "p10": float(np.percentile(refs_ms, 10)),
                         "p50": float(np.percentile(refs_ms, 50)),
                         "p90": float(np.percentile(refs_ms, 90))},
    }


def per_layer(args, cycle_fn, cycles_per_s: float):
    """Untraced then traced pass over fixed cycles: the passes, metrics and record extras."""
    from tracer import LAYER_EXTRAS, Tracer

    cycles = max(1, round(args.seconds * cycles_per_s))
    # the untraced pass uses other inputs, so a cache cannot favour either pass
    plain = run_cycles(cycle_fn, args.seed, cycles, cycles=cycles)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_cycles(cycle_fn, args.seed, 0, cycles=cycles, tracer=tracer)
    finally:
        tracer.uninstall()
    layers = tracer.summary()
    units = {"calls": "count", "self_s": "s"}
    metrics = {}
    for layer, row in layers.items():
        for key, value in row.items():
            if key != "present":
                unit = units.get(key) or LAYER_EXTRAS[layer][key]
                metrics[f"{layer}.{key}"] = {"value": value, "unit": unit}
    metrics["trace.overhead_ratio"] = {"value": traced.busy / plain.busy - 1.0,
                                       "unit": "ratio"}
    prefix = "search.rate." if args.workload.startswith("fuzz") else "client.rate."
    for name, items, calls, median in sorted(plain.kinds()):
        metrics[prefix + name] = {"value": items / (calls * median), "unit": "1/s"}
    extra = {
        "cycles": cycles,
        "traced_spans": len(tracer.start),
        "nesting_errors": tracer.nesting_errors(),
        "layers_present": {k: v["present"] for k, v in layers.items()},
        "attributes_absent": [f"{m}.{a}" for m, a in tracer.absent],
    }
    return [plain, traced], metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS  # must precede the numpy import
    if not (ROOT / "src" / "entpoly" / "__init__.py").is_file():
        print(f"error: no entpoly sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import entpoly
    from reference import interpreter_kernel
    from workloads import ITEMS, SCALED, TRACE_CYCLES_PER_S, WORKLOADS

    if Path(entpoly.__file__).resolve().parent != ROOT / "src" / "entpoly":
        print(f"error: imported entpoly from {entpoly.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    main_setup = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": main_setup}))
        return 0
    cycle_fn = WORKLOADS[args.workload]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items": ITEMS[args.workload],
        "git_commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "entpoly": entpoly.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "client": "closed loop, one client",
    }
    if args.trace:
        passes, metrics, extra = per_layer(args, cycle_fn, TRACE_CYCLES_PER_S[args.workload])
        reported = PER_LAYER
    else:
        scaled = args.workload in SCALED
        if scaled:
            interpreter_kernel()  # warm, outside set-up and the timed calls
        passes = [run_cycles(cycle_fn, args.seed, 0, seconds=args.seconds,
                             reference=interpreter_kernel if scaled else None)]
        env = dict(os.environ)
        setups = [main_setup] + [probe_setup(args, env) for _ in range(SETUP_RUNS - 1)]
        metrics = end_to_end(setups, passes[0], scaled)
        extra = {"host": host_record(passes[0])} if scaled else {}
        reported = END_TO_END
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    failures = [msg for p in passes for msg in p.failures]
    meta["samples"] = [{"calls": p.attempted, "cycles": p.cycles, "items": p.items}
                       for p in passes]
    record = {"metadata": meta, "correct": failed == 0, "attempted": attempted,
              "failed": failed, "fail_ratio": failed / attempted, "failures": failures,
              "metrics": metrics, **extra}
    RUNS.mkdir(exist_ok=True)
    path = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for msg in failures:
        print(f"FAIL {msg}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} calls={attempted} failed={failed} "
          f"fail_ratio={failed / attempted:.6g} record={path.relative_to(ROOT)}")
    for name, m in metrics.items():
        samples = f" (n={m['samples']})" if "samples" in m else ""
        print(f"# {name} = {m['value']:.6g} {m['unit']}{samples}")
    if args.trace:
        for layer, present in extra["layers_present"].items():
            if not present:
                print(f"# layer not present: {layer}")
        for item in extra["attributes_absent"]:
            print(f"# attribute not present: {item}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name]["value"], "unit": unit}
                          for name, unit in reported.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
