"""Self-tests of the benchmark: ``python3 -m pytest perfbench``."""

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_TABLE, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("calls", "bytes", "n3_sum", "dim_max", "spectrum_requests", "trials")


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0.3", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_metric_names_and_units():
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64, m
        assert UNIT.fullmatch(m["unit"]), m
    for cycle_fn in workloads.WORKLOADS.values():
        for call in cycle_fn(3, 0):
            assert NAME.fullmatch("search.rate." + call.kind), call.kind


def _pass(speed):
    """Four one-call cycles of 0.1 s, with the reference kernel timed between
    calls, on a host ``speed`` times slower than the kernel's REFERENCE_S."""
    from reference import REFERENCE_S

    p = run.Pass()
    for _ in range(4):
        p.refs.append(REFERENCE_S * speed)
        p.add("k", 1, 0.1 * speed)
        p.cycles += 1
    return p


def test_scaled_rate_cancels_a_slowdown_the_kernel_shares():
    fast = run.end_to_end([0.2], _pass(1.0), scaled=True)
    slow = run.end_to_end([0.2], _pass(2.5), scaled=True)
    assert slow["items_per_s"]["value"] == pytest.approx(fast["items_per_s"]["value"])
    assert fast["items_per_s"]["value"] == pytest.approx(10.0)
    # latency percentiles and set-up stay as measured
    assert slow["call_p50_ms"]["value"] == pytest.approx(250.0)
    assert slow["setup_s"]["value"] == pytest.approx(0.2)


def test_unscaled_rate_stays_as_measured():
    slow = run.end_to_end([0.2], _pass(2.5), scaled=False)
    assert slow["items_per_s"]["value"] == pytest.approx(4.0)


def _traced(cycle_fn, seed=5, cycles=1):
    tracer = Tracer()
    tracer.install()
    try:
        p = run.run_cycles(cycle_fn, seed, 0, cycles=cycles, tracer=tracer)
    finally:
        tracer.uninstall()
    assert p.failed == 0, p.failures
    return tracer


@pytest.mark.parametrize("workload", ["fuzz_haar", "indicator_scan", "network"])
def test_trace_spans_nest(workload):
    tracer = _traced(workloads.WORKLOADS[workload])
    layer, parent, start, end = tracer.spans()
    assert len(layer) > 0 and tracer.nesting_errors() == 0
    inner = parent >= 0
    assert (start[inner] >= start[parent[inner]]).all()
    assert (end[inner] <= end[parent[inner]]).all()
    assert (tracer.self_times() >= -1e-12).all()
    roots = parent < 0
    total = sum(row["self_s"] for row in tracer.summary().values())
    assert total == pytest.approx(float((end - start)[roots].sum()), rel=1e-9)


def test_trace_counts_repeat():
    for cycle_fn in workloads.WORKLOADS.values():
        a, b = _traced(cycle_fn).summary(), _traced(cycle_fn).summary()
        for layer in a:
            for key in COUNTS:
                assert a[layer].get(key) == b[layer].get(key), (layer, key)


def test_absent_attribute_is_reported_not_fatal():
    table = LAYER_TABLE + (("entpoly.tensor", "_no_such_solver", "tensor.spectrum", None),
                           ("entpoly.no_such_module", "f", "search", None))
    tracer = Tracer(table)
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == [("entpoly.tensor", "_no_such_solver"),
                             ("entpoly.no_such_module", "f")]


def test_uninstall_restores_library():
    import entpoly.entropies
    import entpoly.search

    before = (entpoly.search.fuzz_polygon, vars(entpoly.entropies.EntropyParams)["of_spectrum"])
    tracer = Tracer()
    tracer.install()
    assert entpoly.search.fuzz_polygon is not before[0]
    tracer.uninstall()
    assert before == (entpoly.search.fuzz_polygon,
                      vars(entpoly.entropies.EntropyParams)["of_spectrum"])


def test_oracle_rejects_a_wrong_margin():
    call = workloads.fuzz_haar(11, 0)[0]
    report = call.run()
    assert call.check(report) == []
    worst = report.worst_states[0]
    bad = type(worst)(worst.trial, worst.seed, worst.site, worst.margin + 1e-6, worst.state)
    tampered = type(report)(**{**vars(report), "worst_states": (bad,) + report.worst_states[1:],
                               "min_margin": bad.margin})
    assert any("oracle" in m for m in call.check(tampered))


def test_schmidt_negativity_matches_epr():
    # EPR pair: sigma = (1/sqrt2, 1/sqrt2), negativity 1/2
    sigma = [2 ** -0.5, 2 ** -0.5]
    assert oracles.measure_from_schmidt(oracles.Measure("neg"), sigma) == pytest.approx(0.5)


def test_refuses_to_run_without_sources():
    runs = HERE / "runs"
    runs.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=runs) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("runs", "__pycache__"))
        proc = _bench("--workload", "network", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp)
    assert proc.returncode != 0
    assert proc.stdout == ""
