import json
import time
import tracemalloc

import numpy as np
import pytest

from entpoly.cli import main
from entpoly.search import mix64, report_from_json
from entpoly.states import haar_random, save_state, state_to_dict


@pytest.fixture
def state_file(tmp_path):
    path = tmp_path / "psi.state"
    save_state(haar_random((3, 3, 3), 11), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_measure_subcommand(capsys, state_file):
    code, out, _ = run(capsys, "measure", "--state", state_file,
                       "--cut", "0|1,2", "--measure", "qconc", "--q", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "measure,cut,value"
    assert lines[1].startswith('qconc(q=2),"0|1,2",')


def test_marginals_subcommand(capsys, state_file):
    code, out, _ = run(capsys, "marginals", "--state", state_file, "--measure", "eof")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "site,eof"
    assert len(lines) == 4


def test_check_polygon_ok(capsys, state_file):
    code, out, _ = run(capsys, "check", "polygon", "--state", state_file,
                       "--measure", "qconc", "--q", "3")
    assert code == 0
    assert out.splitlines()[0] == "j,lhs,rhs,margin,satisfied"
    assert all(line.endswith("true") for line in out.strip().splitlines()[1:])


def test_check_triangle_violation_exits_3(capsys, tmp_path):
    # plain-Renyi triangle bounds genuinely fail on this Haar qubit state
    path = tmp_path / "viol.state"
    save_state(haar_random((2, 2, 2), 221), path)
    code, out, _ = run(capsys, "check", "triangle", "--state", str(path),
                       "--measure", "renyi", "--r", "3")
    assert code == 3
    assert "false" in out


def test_check_bipartition_and_renyi_mixed(capsys, state_file):
    code, out, _ = run(capsys, "check", "bipartition", "--state", state_file,
                       "--cut", "0,1|2", "--measure", "unified", "--r", "2", "--s", "1")
    assert code == 0
    assert out.splitlines()[0] == "cut,lhs,rhs,margin,satisfied"
    code, out, _ = run(capsys, "check", "renyi-mixed", "--state", state_file, "--r", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 7  # header + 3 sites x 2 bounds


def test_indicator_subcommands(capsys, state_file):
    code, out, _ = run(capsys, "indicator", "tau", "--state", state_file,
                       "--measure", "eof")
    assert code == 0
    assert out.splitlines()[0] == "indicator,measure,value,argmin,cut"
    code, out, _ = run(capsys, "indicator", "tau-hat", "--state", state_file,
                       "--measure", "qconc", "--q", "2")
    assert code == 0


def test_exit_codes_usage_and_input_errors(capsys, tmp_path):
    code, _, err = run(capsys, "check", "bipartition", "--state", "x", "--measure", "eof")
    assert code == 2  # unreadable state file
    code, _, err = run(capsys, "measure", "--state", "x")
    assert code == 1  # missing required flags
    bad = tmp_path / "bad.state"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "marginals", "--state", str(bad), "--measure", "eof")
    assert code == 2
    code, _, err = run(capsys, "marginals", "--state", str(bad))
    assert code == 1
    with pytest.raises(SystemExit):
        main(["--help"])


@pytest.mark.parametrize("argv", [
    ("marginals", "--measure", "qconc", "--q", "nan"),
    ("marginals", "--measure", "tsallis", "--r", "inf"),
    ("check", "renyi-mixed", "--r", "nan"),
    ("check", "polygon", "--measure", "eof", "--tol", "nan"),
])
def test_non_finite_parameters_exit_2(capsys, state_file, argv):
    code, out, err = run(capsys, *argv, "--state", state_file)
    assert code == 2 and out == "" and err.startswith("error:")


def test_fuzz_non_finite_tol_exits_2(capsys):
    code, _, err = run(capsys, "fuzz", "--dims", "2,2,2", "--measure", "eof",
                       "--trials", "5", "--tol", "nan")
    assert code == 2 and err.startswith("error:")


def test_fuzz_one_site_exits_2(capsys):
    code, out, err = run(capsys, "fuzz", "--dims", "3", "--measure", "eof", "--trials", "2")
    assert code == 2 and out == "" and "at least 2 sites" in err


def test_memory_error_exits_2(capsys, tmp_path, monkeypatch):
    # a 24-qubit draw passes the dims check; the patched draw stands in for a
    # host that cannot allocate it, and refuses before allocating
    def refuse(seeds, size):
        raise MemoryError(f"cannot draw {size} amplitudes")

    monkeypatch.setattr("entpoly.states._haar_draws", refuse)
    monkeypatch.setattr("entpoly.search._haar_draws", refuse)
    dims = ",".join(["2"] * 24)
    for argv in (("fuzz", "--dims", dims, "--measure", "eof", "--trials", "1"),
                 ("sample", "--dims", dims, "--out", str(tmp_path / "big.state"))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: out of memory: cannot draw {2**24} amplitudes\n"


@pytest.mark.parametrize("argv", [
    ("reproduce", "example3", "--d", "1000", "--m", "12"),
    ("fuzz", "--dims", ",".join(["2"] * 30), "--measure", "eof", "--trials", "1"),
])
def test_oversized_pure_state_exits_2_before_allocating(capsys, argv):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.startswith("error:") and "MAX_STATE_DIM" in err
    assert peak < 2**20


def test_sample_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "s.state"
    code, out, _ = run(capsys, "sample", "--dims", "2,3", "--seed", "5",
                       "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text(encoding="utf-8"))
    assert doc["dims"] == [2, 3]
    psi = haar_random((2, 3), 5)
    np.testing.assert_allclose(
        [complex(re, im) for re, im in doc["amplitudes"]], psi.amplitudes, atol=1e-15)


def test_fuzz_subcommand_writes_report(capsys, tmp_path):
    report_file = tmp_path / "report.json"
    code, out, _ = run(capsys, "fuzz", "--dims", "2,2,2", "--measure", "eof",
                       "--trials", "25", "--seed", "9", "--out", str(report_file))
    assert code == 0
    assert out.splitlines()[0] == "dims,measure,trials,seed,violations,min_margin"
    assert "# seed = 9" in out
    report = report_from_json(report_file.read_text(encoding="utf-8"))
    assert report.trials_run == 25
    assert report.seed == 9
    assert report.worst_states[0].seed == mix64(9, report.worst_states[0].trial)


def test_fuzz_violations_are_data_not_failure(capsys):
    # negativity on qutrits is the open question: exit stays 0 either way
    code, out, _ = run(capsys, "fuzz", "--dims", "2,2,2", "--measure", "neg",
                       "--trials", "5", "--seed", "0")
    assert code == 0


def test_scan_deterministic_bytes(capsys, tmp_path):
    args = ["scan", "--family", "generalized_ghz3", "--grid", "8",
            "--measure", "eof"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "param1,param2,value"
    out_file = tmp_path / "scan.csv"
    code, _, _ = run(capsys, *args, "--out", str(out_file))
    assert code == 0
    assert out_file.read_text(encoding="utf-8").splitlines()[1:] == \
        out1.strip().splitlines()[1:]


def test_scan_star4_without_fixed_parameters(capsys):
    code, out, _ = run(capsys, "scan", "--family", "star4", "--grid", "5",
                       "--measure", "qconc")
    assert code == 0
    assert len(out.strip().splitlines()) == 6


def test_reproduce_examples_all_match_closed_forms(capsys):
    for target in ("example1", "example2", "example3", "example4", "example5",
                   "example6"):
        code, out, _ = run(capsys, "reproduce", target)
        assert code == 0, target
        footer = [l for l in out.splitlines() if l.startswith("# max_abs_diff")]
        assert footer, target
        assert float(footer[0].split("=")[1]) < 1e-10, (target, footer)


def test_reproduce_example_flags(capsys):
    code, out, _ = run(capsys, "reproduce", "example3", "--d", "5", "--m", "4",
                       "--q", "3")
    assert code == 0
    assert "qconc[site=3]" in out


def test_reproduce_fig_targets_small_grids(capsys):
    for target, grid in (("fig2", 12), ("fig4a", 8), ("fig4b", 6)):
        code, out, _ = run(capsys, "reproduce", target, "--grid", str(grid))
        assert code == 0, target
        footer = [l for l in out.splitlines() if l.startswith("# max_abs_diff")]
        assert float(footer[0].split("=")[1]) < 1e-10, target


def test_reproduce_table1_deterministic(capsys):
    code1, out1, _ = run(capsys, "reproduce", "table1", "--trials", "15", "--seed", "4")
    code2, out2, _ = run(capsys, "reproduce", "table1", "--trials", "15", "--seed", "4")
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "measure,dims,status,trials,violations,min_margin"
    assert len([l for l in lines if not l.startswith("#")]) == 11  # header + 10 rows
    assert "# seed = 4" in out1
    assert any("?" in l for l in lines)


def test_reproduce_oversized_network_exits_2(capsys):
    # 2^(n-1) > MAX_STATE_DIM is refused before the graph's n(n-1)/2 pairs are built
    for n in ("26", "121", "1000"):
        start = time.perf_counter()
        code, out, err = run(capsys, "reproduce", "example4", "--n", n)
        assert time.perf_counter() - start < 1.0, n
        assert code == 2 and out == "", n
        assert "MAX_STATE_DIM" in err and f"n = {n}" in err


def test_reproduce_example4_beyond_the_dense_limit(capsys):
    # total dimension 2^20 and 2^132: each party's marginal is uniform of rank 2^(n-1)
    for n in ("5", "12"):
        code, out, _ = run(capsys, "reproduce", "example4", "--n", n)
        assert code == 0, n
        assert "# max_abs_diff = 0" in out.splitlines(), n


@pytest.mark.parametrize("target, grid", [
    ("fig2", 1), ("fig2", 0), ("fig2", -1), ("fig4a", 1), ("fig4b", 1), ("fig4b", -3),
    ("example1", 0), ("example1", -2),
])
def test_reproduce_rejects_small_grids(capsys, target, grid):
    code, out, err = run(capsys, "reproduce", target, "--grid", str(grid))
    assert code == 2 and out == "" and err.startswith("error:")


def test_non_finite_state_file_exits_2(capsys, tmp_path, monkeypatch):
    doc = state_to_dict(haar_random((2, 2), 3))
    doc["amplitudes"][1] = [float("nan"), 0.0]
    path = tmp_path / "nan.state"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "marginals", "--state", str(path), "--measure", "eof")
    assert code == 2 and out == "" and "finite" in err

    def fails(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    # a routine that does not converge is reported, not a traceback
    monkeypatch.setattr(np.linalg, "svd", fails)
    save_state(haar_random((2, 2), 3), path)
    code, out, err = run(capsys, "marginals", "--state", str(path), "--measure", "eof")
    assert code == 2 and out == "" and "did not converge" in err


def test_reproduce_unknown_target(capsys):
    code, _, err = run(capsys, "reproduce", "bogus")
    assert code == 1
