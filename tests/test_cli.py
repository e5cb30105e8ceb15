"""End-to-end CLI tests: exit codes, report JSON, and artifact files."""
import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from thermoforge import (
    GateSequence,
    Spectrum,
    build_cooling_catalyst,
    build_cooling_sequence,
    compile_exact,
    energy_blocks,
    random_energy_preserving_unitary,
    run_gc_eto,
)
from thermoforge import cli
from thermoforge.cli import main
from thermoforge.cooling import SYSTEM_SPECTRUM
from util import BLOCK_A, BLOCK_B, reference_apply_gates, sequence_to_json, to_json

LN2 = math.log(2.0)
SRC = Path(__file__).resolve().parents[1] / "src"


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def write_matrix(path, u):
    return write_json(path, {"re": np.real(u).tolist(), "im": np.imag(u).tolist()})


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


@pytest.fixture
def qutrit_file(tmp_path):
    return write_json(tmp_path / "sys.json", {"energies": [0.0, LN2, LN2]})


@pytest.fixture
def qubit_cat_file(tmp_path):
    return write_json(tmp_path / "cat.json", {"energies": [0.0, LN2]})


class TestCompile:
    def test_exact_identity(self, tmp_path, capsys, qutrit_file, qubit_cat_file):
        uf = write_matrix(tmp_path / "u.json", np.eye(6))
        code, report, _ = run_cli(capsys, [
            "compile", "--system", qutrit_file, "--catalyst", qubit_cat_file,
            "--unitary", uf,
        ])
        assert code == 0
        assert report["outputs"]["gate_count"] == 0
        assert report["checks"][0]["pass"]

    def test_exact_random_roundtrip(self, tmp_path, capsys, qutrit_file, qubit_cat_file):
        sys_spec = Spectrum.from_energies([0.0, LN2, LN2])
        cat = Spectrum.from_energies([0.0, LN2])
        blocks = energy_blocks(sys_spec, cat)
        u = random_energy_preserving_unitary(blocks, seed=42)
        uf = write_matrix(tmp_path / "u.json", u)
        out = tmp_path / "seq.json"
        code, report, _ = run_cli(capsys, [
            "compile", "--system", qutrit_file, "--catalyst", qubit_cat_file,
            "--unitary", uf, "--out", str(out),
        ])
        assert code == 0
        assert report["checks"][0]["measured"] < 1e-8
        saved = json.loads(out.read_text())
        assert saved["dims"] == [3, 2]
        assert len(saved["steps"]) == report["outputs"]["gate_count"]

    def test_cross_block_unitary_is_domain_error(self, tmp_path, capsys,
                                                 qutrit_file, qubit_cat_file):
        u = np.eye(6)
        u[[0, 1]] = u[[1, 0]]  # couples joint energies 0 and ln2
        uf = write_matrix(tmp_path / "u.json", u)
        code, report, err = run_cli(capsys, [
            "compile", "--system", qutrit_file, "--catalyst", qubit_cat_file,
            "--unitary", uf,
        ])
        assert code == 3
        assert "couples energy blocks" in err

    def test_re_im_shape_mismatch_exits_3(self, tmp_path, capsys, qubit_cat_file):
        uf = write_json(tmp_path / "u.json", {"re": np.eye(4).tolist(), "im": [[0]]})
        code, report, err = run_cli(capsys, [
            "compile", "--system", qubit_cat_file, "--catalyst", qubit_cat_file,
            "--unitary", uf,
        ])
        assert (code, report) == (3, None)
        assert "(4, 4)" in err and "(1, 1)" in err

    def test_non_unitary_block_diagonal_names_the_defect(self, tmp_path, capsys,
                                                         qubit_cat_file):
        # 2·I couples no energy blocks, so the message must not blame one.
        uf = write_matrix(tmp_path / "u.json", 2 * np.eye(4))
        code, report, err = run_cli(capsys, [
            "compile", "--system", qubit_cat_file, "--catalyst", qubit_cat_file,
            "--unitary", uf,
        ])
        assert (code, report) == (3, None)
        assert "not unitary" in err and "6.000e+00" in err
        assert "couples" not in err

    @pytest.mark.parametrize("method", ["exact", "trotter"])
    def test_overflowing_unitarity_defect_is_inf(self, tmp_path, capsys, recwarn, method):
        # U†U overflows on an entry of 1e308, so the defect is reported as
        # inf, in one stderr line and with no numpy warning.
        sf = write_json(tmp_path / "sys.json", {"energies": [0.0]})
        cf = write_json(tmp_path / "cat.json", {"energies": [0.0, 1.0]})
        uf = write_json(tmp_path / "u.json", {"re": [[1e308, 0], [0, 1]], "im": [[0, 0], [0, 0]]})
        code, report, err = run_cli(capsys, [
            "compile", "--system", sf, "--catalyst", cf, "--unitary", uf, "--method", method,
        ])
        assert (code, report) == (3, None)
        assert err == "domain error: matrix is not unitary: ||U†U - I||_F = inf\n"
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_joint_energy_past_the_float_range_writes_no_warning(self, tmp_path, capsys,
                                                                 recwarn):
        # 1e308 + 1e308 overflows to inf in the joint energies; the identity
        # is energy-preserving on any blocks, so the compile passes silently.
        sf = write_json(tmp_path / "sys.json", {"energies": [1e308, 0]})
        uf = write_matrix(tmp_path / "u.json", np.eye(4))
        code, report, err = run_cli(capsys, [
            "compile", "--system", sf, "--catalyst", sf, "--unitary", uf,
        ])
        assert (code, err) == (0, "")
        assert report["outputs"]["gate_count"] == 0
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_gate_between_overflowed_levels_exits_3(self, tmp_path, capsys, recwarn):
        # Joint levels (0, 0) and (1, 0) of [1e308, 1.5e308] ⊗ [1e308, 0] both
        # sum to inf, yet they are two singleton blocks: a swap of them
        # couples energy blocks.
        sf = write_json(tmp_path / "sys.json", {"energies": [1e308, 1.5e308]})
        cf = write_json(tmp_path / "cat.json", {"energies": [1e308, 0]})
        uf = write_matrix(tmp_path / "u.json", np.eye(4)[[2, 1, 0, 3]])
        code, report, err = run_cli(capsys, [
            "compile", "--system", sf, "--catalyst", cf, "--unitary", uf,
        ])
        assert (code, report) == (3, None)
        assert err.count("\n") == 1 and "couples energy blocks" in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("re_part,code", [
        ([1.0, 0.0, 0.0, 1.0], 3),  # 1-D
        (np.eye(4)[:3].tolist(), 3),  # 3 x 4
        ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1], [0, 0, 0, 1]], 2),  # ragged
        ([["1", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 3),  # a string entry
        ([[math.nan, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 3),
    ])
    @pytest.mark.parametrize("method", ["exact", "trotter"])
    def test_malformed_unitary_exit_code(self, tmp_path, capsys, qubit_cat_file, re_part,
                                         code, method):
        im = np.zeros(np.shape(re_part)).tolist() if code == 3 else re_part
        uf = write_json(tmp_path / "u.json", {"re": re_part, "im": im})
        got, report, err = run_cli(capsys, [
            "compile", "--system", qubit_cat_file, "--catalyst", qubit_cat_file,
            "--unitary", uf, "--method", method,
        ])
        assert (got, report) == (code, None)
        assert err

    @pytest.mark.parametrize("shape", [(1, 4, 4), (4, 4, 4), (2, 2, 2, 2)])
    def test_stacked_unitary_exits_3(self, tmp_path, capsys, qubit_cat_file, shape):
        # The kernels take stacks; the matrix reader does not.
        u = np.broadcast_to(np.eye(4).ravel(), (np.prod(shape) // 16, 16)).reshape(shape)
        uf = write_matrix(tmp_path / "u.json", u)
        code, report, err = run_cli(capsys, [
            "compile", "--system", qubit_cat_file, "--catalyst", qubit_cat_file,
            "--unitary", uf,
        ])
        assert (code, report) == (3, None)
        assert err == f"domain error: expected a square matrix, got shape {shape}\n"

    @pytest.mark.parametrize("system,code", [
        ({"energies": ["0", "1"]}, 3),
        ({"energies": [[0, 1], [2]]}, 2),
        ([0, 1], 2),
    ])
    def test_malformed_system_exit_code(self, tmp_path, capsys, qubit_cat_file, system, code):
        # The spectrum reader of curve serves compile --system too.
        sf = write_json(tmp_path / "sys.json", system)
        uf = write_matrix(tmp_path / "u.json", np.eye(4))
        got, report, err = run_cli(capsys, [
            "compile", "--system", sf, "--catalyst", qubit_cat_file, "--unitary", uf,
        ])
        assert (got, report) == (code, None)
        assert len(err.strip().splitlines()) == 1, err

    def test_malformed_json_is_parse_error(self, tmp_path, capsys,
                                           qutrit_file, qubit_cat_file):
        bad = tmp_path / "u.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, [
            "compile", "--system", qutrit_file, "--catalyst", qubit_cat_file,
            "--unitary", str(bad),
        ])
        assert code == 2

    def test_non_utf8_file_is_parse_error(self, tmp_path, capsys, qutrit_file, qubit_cat_file):
        bad = tmp_path / "u.json"
        bad.write_bytes(b"\xff\xfe")
        code, report, err = run_cli(capsys, [
            "compile", "--system", qutrit_file, "--catalyst", qubit_cat_file,
            "--unitary", str(bad),
        ])
        assert (code, report) == (2, None)
        assert len(err.strip().splitlines()) == 1, err

    def test_missing_file_is_parse_error(self, capsys, qutrit_file, qubit_cat_file):
        code, _, _ = run_cli(capsys, [
            "compile", "--system", qutrit_file, "--catalyst", qubit_cat_file,
            "--unitary", "/nonexistent/u.json",
        ])
        assert code == 2

    def test_trotter_backend(self, tmp_path, capsys, qutrit_file, qubit_cat_file):
        sys_spec = Spectrum.from_energies([0.0, LN2, LN2])
        cat = Spectrum.from_energies([0.0, LN2])
        blocks = energy_blocks(sys_spec, cat)
        u = random_energy_preserving_unitary(blocks, seed=9)
        uf = write_matrix(tmp_path / "u.json", u)
        code, report, _ = run_cli(capsys, [
            "compile", "--system", qutrit_file, "--catalyst", qubit_cat_file,
            "--unitary", uf, "--method", "trotter", "--accuracy", "1e-3",
        ])
        assert code == 0
        assert report["checks"][0]["measured"] < 1e-3
        assert report["outputs"]["trotter_m"] >= 1

    @pytest.mark.parametrize("method,accuracy", [("trotter", "1e-2"), ("bch", "1e-1")])
    def test_error_bound_is_the_measured_error(self, tmp_path, capsys, method, accuracy):
        es, ec = [0.0, 1.0], [0.0, 0.0]  # blocks [2, 2]: no singleton phase for bch
        blocks = energy_blocks(Spectrum.from_energies(es), Spectrum.from_energies(ec))
        uf = write_matrix(tmp_path / "u.json", random_energy_preserving_unitary(blocks, seed=9))
        out = tmp_path / "seq.json"
        code, report, _ = run_cli(capsys, [
            "compile", "--system", write_json(tmp_path / "s.json", {"energies": es}),
            "--catalyst", write_json(tmp_path / "c.json", {"energies": ec}),
            "--unitary", uf, "--method", method, "--accuracy", accuracy, "--out", str(out),
        ])
        assert code == 0
        measured = report["checks"][0]["measured"]
        assert report["checks"][0]["name"] == "reconstruction_error" and measured > 0.0
        assert report["outputs"]["error_bound"] == measured
        assert json.loads(out.read_text())["error_bound"] == measured

    @pytest.mark.parametrize("method", ["exact", "trotter"])
    def test_report_counts_asap_layers(self, tmp_path, capsys, method):
        es, ec = [0.0, 1.0, 1.0, 2.0], [0.0, 0.0, 1.0, 1.0, 2.0]
        blocks = energy_blocks(Spectrum.from_energies(es), Spectrum.from_energies(ec))
        u = random_energy_preserving_unitary(blocks, seed=4)
        out = tmp_path / "seq.json"
        argv = ["compile", "--system", write_json(tmp_path / "s.json", {"energies": es}),
                "--catalyst", write_json(tmp_path / "c.json", {"energies": ec}),
                "--unitary", write_matrix(tmp_path / "u.json", u), "--method", method,
                "--accuracy", "1e-1", "--out", str(out)]
        code, report, _ = run_cli(capsys, argv)
        assert code == 0
        # Each step one layer after the latest step sharing a level with it.
        saved = json.loads(out.read_text())
        dc, last, depth = saved["dims"][1], {}, []
        for step in saved["steps"][:len(saved["steps"]) // saved.get("trotter_m", 1)]:
            levels = {s * dc + c for s, c in step["indices"]}
            depth.append(1 + max((last.get(f, 0) for f in levels)))
            last.update(dict.fromkeys(levels, depth[-1]))
        assert report["outputs"]["layers"] == max(depth) * saved.get("trotter_m", 1)
        assert report["outputs"]["layers"] < report["outputs"]["gate_count"]
        rerun = run_cli(capsys, argv)[1]
        assert {**rerun, "wall_time": 0} == {**report, "wall_time": 0}

    @pytest.mark.parametrize("method", ["exact", "trotter", "bch"])
    def test_report_sizes(self, tmp_path, capsys, method):
        # joint energies 0 (x2), 1 (x5), 2 (x3), 3 (x2)
        es, ec = [0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 2.0]
        blocks = energy_blocks(Spectrum.from_energies(es), Spectrum.from_energies(ec))
        u = random_energy_preserving_unitary(blocks, seed=5)
        out = tmp_path / "seq.json"
        argv = ["compile", "--system", write_json(tmp_path / "s.json", {"energies": es}),
                "--catalyst", write_json(tmp_path / "c.json", {"energies": ec}),
                "--unitary", write_matrix(tmp_path / "u.json", u), "--method", method,
                "--accuracy", "0.5", "--out", str(out)]
        code, report, _ = run_cli(capsys, argv)
        assert code == 0
        saved = json.loads(out.read_text())
        m = saved.get("trotter_m", 1)
        sizes = report["outputs"]["sizes"]
        assert sizes == {"joint_dim": 12, "block_sizes": [2, 5, 3, 2],
                         "slice_gates": len(saved["steps"]) // m}
        assert sizes["slice_gates"] * m == report["outputs"]["gate_count"] > 0
        assert run_cli(capsys, argv)[1]["outputs"] == report["outputs"]


    @pytest.mark.parametrize("method", ["exact", "trotter", "bch"])
    @pytest.mark.parametrize("accuracy", ["-1", "0", "nan", "inf", "-inf"])
    def test_meaningless_accuracy_exits_3_before_any_work(self, tmp_path, capsys, method,
                                                          accuracy):
        # The input files do not exist: the option is refused before any
        # file is read, and no --out file is written.
        out = tmp_path / "seq.json"
        code, report, err = run_cli(capsys, [
            "compile", "--system", str(tmp_path / "none.json"), "--catalyst",
            str(tmp_path / "none.json"), "--unitary", str(tmp_path / "none.json"),
            "--method", method, f"--accuracy={accuracy}", "--out", str(out),
        ])
        assert (code, report) == (3, None)
        assert err == f"domain error: --accuracy must be positive and finite, got {float(accuracy)}\n"
        assert not out.exists()


class TestCool:
    def test_single_d(self, capsys):
        code, report, _ = run_cli(capsys, ["cool", "--D", "4"])
        assert code == 0
        row = report["outputs"]["rows"][0]
        assert abs(row["ground"] - 0.75) < 1e-12
        assert row["to_limit_check"]

    def test_to_limit_check_reports_oracle_deviation(self, capsys):
        code, report, _ = run_cli(capsys, ["cool", "--sweep", "2..5"])
        assert code == 0
        checks = {c["name"]: c for c in report["checks"]}
        for row in report["outputs"]["rows"]:
            check = checks[f"to_limit_check_D{row['D']}"]
            assert 0.0 <= row["to_limit_dev"] < 1e-12
            assert check["measured"] == row["to_limit_dev"]
            assert check["tolerance"] == 1e-12
            assert check["pass"] is row["to_limit_check"] is True

    def test_one_catalyst_per_row(self, capsys, monkeypatch):
        from thermoforge import cooling
        built = []
        original = cooling.build_cooling_catalyst
        monkeypatch.setattr(cooling, "build_cooling_catalyst",
                            lambda d: built.append(d) or original(d))
        code, _, _ = run_cli(capsys, ["cool", "--sweep", "3..5"])
        assert code == 0
        assert built == [3, 4, 5]

    def test_sweep_up_to_the_cap(self, capsys):
        code, report, _ = run_cli(capsys, ["cool", "--sweep", "18..20"])
        assert code == 0
        checks = {c["name"]: c["pass"] for c in report["checks"]}
        assert [checks[f"to_limit_check_D{d}"] for d in (18, 19, 20)] == [True] * 3
        assert all(checks.values())

    def test_d2_values(self, capsys):
        code, report, _ = run_cli(capsys, ["cool", "--D", "2"])
        assert code == 0
        row = report["outputs"]["rows"][0]
        assert abs(row["ground"] - 0.5) < 1e-12
        assert abs(row["invariant_level_population"] - 0.125) < 1e-12

    def test_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, report, _ = run_cli(capsys, [
            "cool", "--sweep", "2..6", "--csv", str(out),
        ])
        assert code == 0
        with open(out) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 5
        assert [int(r["D"]) for r in rows] == [2, 3, 4, 5, 6]
        assert list(rows[0]) == [
            "D", "ground", "excited1", "excited2", "invariant_level_population",
            "closed_form_dev", "invariant_dev", "to_limit_dev", "to_limit_check",
        ]
        assert abs(float(rows[-1]["ground"]) - (1 - 1 / 6)) < 1e-12

    def test_requires_d_or_sweep(self, capsys):
        code, _, err = run_cli(capsys, ["cool"])
        assert code == 3

    def test_capacity_guard(self, capsys):
        code, _, _ = run_cli(capsys, ["cool", "--D", "40"])
        assert code == 4

    @pytest.mark.parametrize("sweep", ["abc", "5..2", "2..", "..6", "2..6..8", "2-6", " 2..6"])
    def test_malformed_sweep_exits_3(self, capsys, sweep):
        code, report, err = run_cli(capsys, ["cool", "--sweep", sweep])
        assert code == 3
        assert report is None
        assert repr(sweep) in err

    def test_reversed_sweep_writes_no_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, ["cool", "--sweep", "5..2", "--csv", str(out)])
        assert code == 3
        assert not out.exists()

    def test_sweep_below_two_exits_3(self, capsys):
        code, _, _ = run_cli(capsys, ["cool", "--sweep", "1..3"])
        assert code == 3

    def test_sweep_above_cap_exits_4_before_work(self, capsys):
        # rejected before any row runs, however large the upper bound
        code, report, _ = run_cli(capsys, ["cool", "--sweep", "2..1000000000000"])
        assert code == 4
        assert report is None


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code, report, _ = run_cli(capsys, [
            "verify", "--suite", "all", "--seed", "7", "--trials", "5",
        ])
        assert code == 0
        assert all(c["pass"] for c in report["checks"])

    def test_zero_trials_vacuous(self, capsys):
        code, report, _ = run_cli(capsys, ["verify", "--trials", "0"])
        assert code == 0
        assert "vacuous" in report["outputs"]["note"]

    def test_negative_trials_exits_3(self, capsys):
        code, report, err = run_cli(capsys, ["verify", "--trials", "-3"])
        assert code == 3
        assert report is None
        assert "-3" in err

    def test_injected_failure_fails(self, capsys):
        code, report, _ = run_cli(capsys, [
            "verify", "--trials", "3", "--inject-failure",
        ])
        assert code == 1
        assert any(not c["pass"] for c in report["checks"])

    @pytest.mark.parametrize("argv", [
        ["--suite", "numerics", "--trials", "3"],
        ["--suite", "cooling", "--trials", "1"],
        ["--trials", "0"],
        ["--suite", "compiler", "--trials", "0"],
    ])
    def test_injected_failure_fails_for_any_suite_and_trials(self, capsys, argv):
        code, report, _ = run_cli(capsys, ["verify", *argv, "--inject-failure"])
        assert code == 1
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        assert failed == ["injected_curve_violation"]

    def test_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("THERMOFORGE_SEED", "123")
        code, report, _ = run_cli(capsys, ["verify", "--trials", "3"])
        assert code == 0
        assert report["inputs"]["seed"] == 123

    @pytest.mark.parametrize("env,argv,name", [
        ("abc", [], "THERMOFORGE_SEED"),
        ("-5", [], "THERMOFORGE_SEED"),
        ("", [], "THERMOFORGE_SEED"),
        ("9" * 5000, [], "THERMOFORGE_SEED"),  # beyond int()'s digit limit
        (None, ["--seed", "-5"], "--seed"),
    ], ids=["letters", "negative", "empty", "5000-digits", "negative-flag"])
    def test_bad_seed_exits_3(self, capsys, monkeypatch, env, argv, name):
        if env is None:
            monkeypatch.delenv("THERMOFORGE_SEED", raising=False)
        else:
            monkeypatch.setenv("THERMOFORGE_SEED", env)
        code, report, err = run_cli(capsys, ["verify", "--suite", "numerics", "--trials", "1",
                                             *argv])
        assert (code, report) == (3, None)
        assert len(err.splitlines()) == 1 and name in err and "non-negative integer" in err


class TestCurve:
    def test_diagonal_state_vertices(self, tmp_path, capsys, qutrit_file):
        sf = write_json(tmp_path / "p.json", {"populations": [0.0, 0.5, 0.5]})
        out = tmp_path / "curve.csv"
        code, report, _ = run_cli(capsys, [
            "curve", "--state", sf, "--spectrum", qutrit_file, "--out", str(out),
        ])
        assert code == 0
        verts = report["outputs"]["vertices"]
        assert verts[0] == [0.0, 0.0] and verts[-1] == [1.0, 1.0]
        with open(out) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["x", "y"]
        assert len(rows) == len(verts) + 1

    def test_gibbs_weight_below_an_ulp(self, tmp_path, capsys):
        # exp(-50) is below an ulp of 1, so two vertices share x = 1.0;
        # they merge into the one with the larger y.
        spec = write_json(tmp_path / "gap.json", {"energies": [0, 50]})
        sf = write_json(tmp_path / "p.json", {"populations": [1, 0]})
        code, report, err = run_cli(capsys, ["curve", "--state", sf, "--spectrum", spec])
        assert code == 0, err
        assert report["outputs"]["vertices"] == [[0.0, 0.0], [1.0, 1.0]]

    @pytest.mark.parametrize("energies,weights", [
        ([50, 0.6931471805599453, 740, 50], [4 / 15, 3 / 15, 4 / 15, 4 / 15]),  # huge tied slopes
        ([2, 2, 0, 2, 50], [2 / 7, 0, 4 / 7, 1 / 7, 0]),  # Gibbs sum rounds above 1
    ])
    def test_valid_curves_at_the_rounding_edge(self, tmp_path, capsys, energies, weights):
        spec = write_json(tmp_path / "spec.json", {"energies": energies})
        sf = write_json(tmp_path / "p.json", {"populations": weights})
        code, report, err = run_cli(capsys, ["curve", "--state", sf, "--spectrum", spec])
        assert code == 0, err
        assert report["outputs"]["vertices"][-1] == [1.0, 1.0]

    def test_last_run_merges_before_the_endpoint(self, tmp_path, capsys):
        # exp(-40) is below an ulp of the running Gibbs sum, which ends at
        # 1 - ulp: the last run merges into one vertex, (1, 1), and the
        # curve is not refused as not concave.
        spec = write_json(tmp_path / "spec.json", {"energies": [2, 0, 40, 2, 40]})
        sf = write_json(tmp_path / "p.json", {"populations": [4 / 7, 2 / 7, 0, 1 / 7, 0]})
        code, report, err = run_cli(capsys, ["curve", "--state", sf, "--spectrum", spec])
        assert (code, err) == (0, "")
        assert report["outputs"]["vertices"] == [
            [0.0, 0.0], [0.10650697891920073, 0.5714285714285714],
            [0.21301395783840146, 0.7142857142857142], [1.0, 1.0]]

    def test_zero_gibbs_weight_on_a_populated_level(self, tmp_path, capsys, recwarn):
        # exp(-800) underflows to 0, so level 1's ratio p/gamma is infinite:
        # it goes first, on a vertical segment at x = 0 above the origin.
        spec = write_json(tmp_path / "gap.json", {"energies": [0, 800]})
        sf = write_json(tmp_path / "p.json", {"populations": [0.5, 0.5]})
        gibbs = write_json(tmp_path / "g.json", {"populations": [1, 0]})
        code, report, err = run_cli(capsys, ["curve", "--state", sf, "--spectrum", spec,
                                             "--compare", gibbs])
        assert code == 0, err
        assert report["outputs"]["vertices"] == [[0.0, 0.0], [0.0, 0.5], [1.0, 1.0]]
        assert report["outputs"]["p_majorizes_q"] is True
        assert report["outputs"]["q_majorizes_p"] is False
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("flag", ["--state", "--compare"])
    def test_nan_populations_exit_3(self, tmp_path, capsys, flag):
        spec = write_json(tmp_path / "spec.json", {"energies": [0, 1]})
        nan = write_json(tmp_path / "nan.json", {"populations": [math.nan, 1]})
        half = write_json(tmp_path / "half.json", {"populations": [0.5, 0.5]})
        argv = ["curve", "--spectrum", spec, "--state", half, "--compare", half]
        argv[argv.index(flag) + 1] = nan
        code, report, err = run_cli(capsys, argv)
        assert (code, report) == (3, None)
        assert "nan" in err

    def test_re_im_shape_mismatch_exits_3(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", {"energies": [0, 1]})
        sf = write_json(tmp_path / "rho.json", {"re": np.diag([0.5, 0.5]).tolist(), "im": [[0]]})
        code, report, err = run_cli(capsys, ["curve", "--state", sf, "--spectrum", spec])
        assert (code, report) == (3, None)
        assert "(2, 2)" in err and "(1, 1)" in err

    @pytest.mark.parametrize("state,code", [
        ({"re": [[0.5, math.nan], [math.nan, 0.5]], "im": [[0, 0], [0, 0]]}, 3),
        ({"re": [[0.5, 0], [0, 0.5]], "im": [[0, math.inf], [0, 0]]}, 3),
        ({"re": [0.5, 0.5], "im": [0, 0]}, 3),  # 1-D
        ({"re": [[0.5, 0, 0], [0, 0.5, 0]], "im": [[0, 0, 0], [0, 0, 0]]}, 3),  # 2 x 3
        ({"re": [[0.5, 0], [0]], "im": [[0, 0], [0]]}, 2),  # ragged
        ({"re": [[0.5, "0"], [0, 0.5]], "im": [[0, 0], [0, 0]]}, 3),  # a string entry
        ({"re": [[0.5, None], [0, 0.5]], "im": [[0, 0], [0, 0]]}, 3),  # a null entry
        ([[0.5, 0], [0, 0.5]], 2),  # a list at the top level
        ("populations", 2),  # a string at the top level
    ])
    @pytest.mark.parametrize("flag", ["--state", "--compare"])
    def test_malformed_dense_state_exit_code(self, tmp_path, capsys, state, code, flag):
        spec = write_json(tmp_path / "spec.json", {"energies": [0, 1]})
        bad = write_json(tmp_path / "bad.json", state)
        half = write_json(tmp_path / "half.json", {"populations": [0.5, 0.5]})
        argv = ["curve", "--spectrum", spec, "--state", half, "--compare", half]
        argv[argv.index(flag) + 1] = bad
        got, report, err = run_cli(capsys, argv)
        assert (got, report) == (code, None)
        assert err

    def test_subnormal_gibbs_weight_writes_no_warning(self, tmp_path, capsys, recwarn):
        # exp(-740) is subnormal, so p / gamma and the first slope overflow.
        spec = write_json(tmp_path / "gap.json", {"energies": [0, 740]})
        sf = write_json(tmp_path / "p.json", {"populations": [0.5, 0.5]})
        code, report, err = run_cli(capsys, ["curve", "--state", sf, "--spectrum", spec])
        assert (code, err) == (0, "")
        assert report["outputs"]["vertices"] == [[0.0, 0.0], [math.exp(-740), 0.5], [1.0, 1.0]]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("state,message", [
        ({"re": [[0.9, 0.3], [0.3, 0.5]], "im": [[0, 0], [0, 0]]}, "sum to 1.4, not 1"),
        ({"re": [[1.5, 0], [0, -0.5]], "im": [[0, 0], [0, 0]]}, "negative or NaN population -0.5"),
        ({"re": [[0.5, 1e308], [0, 0.5]], "im": [[0, 0], [0, 0]]}, "not Hermitian"),
        ({"re": [[0.5, 0], [0, 0.5]], "im": [[0.1, 0], [0, 0]]}, "not Hermitian"),
        # Hermitian, trace 1 and a nonnegative diagonal, eigenvalues -1.5 and 2.5.
        ({"re": [[0.5, 2], [2, 0.5]], "im": [[0, 0], [0, 0]]},
         "not positive: smallest eigenvalue -1.500e+00"),
        # The same with off-diagonals whose absolute sum overflows.
        ({"re": [[0.5, 1e308], [1e308, 0.5]], "im": [[0, 0], [0, 0]]},
         "not positive: smallest eigenvalue -1.000e+308"),
    ])
    @pytest.mark.parametrize("command", ["simulate", "curve"])
    def test_dense_state_must_be_a_state(self, tmp_path, capsys, recwarn, state, message,
                                         command):
        # Checked on reading, before the coherence guard and before any gate.
        spec = write_json(tmp_path / "spec.json", {"energies": [0, 1]})
        cat = write_json(tmp_path / "cat.json", {"energies": [0]})
        gates = write_json(tmp_path / "gates.json", {
            "method": "handcrafted", "dims": [2, 1], "error_bound": 0.0,
            "steps": [{"kind": "h", "indices": [[0, 0], [1, 0]], "param": 0.3}],
        })
        sf = write_json(tmp_path / "rho.json", state)
        argv = (["simulate", "--state", sf, "--catalyst", cat, "--gates", gates]
                if command == "simulate" else ["curve", "--state", sf, "--spectrum", spec])
        code, report, err = run_cli(capsys, argv)
        assert (code, report) == (3, None)
        assert len(err.splitlines()) == 1 and message in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_coherent_state_is_guarded(self, tmp_path, capsys, qutrit_file):
        rho = np.full((3, 3), 1 / 3)
        sf = write_matrix(tmp_path / "rho.json", rho)
        code, _, err = run_cli(capsys, [
            "curve", "--state", sf, "--spectrum", qutrit_file,
        ])
        assert code == 5
        assert "coherence" in err.lower() or "off-diagonal" in err

    def test_compare_mutual(self, tmp_path, capsys, qutrit_file):
        pf = write_json(tmp_path / "p.json", {"populations": [0.0, 0.5, 0.5]})
        qf = write_json(tmp_path / "q.json", {"populations": [0.0, 0.5, 0.5]})
        code, report, _ = run_cli(capsys, [
            "curve", "--state", pf, "--spectrum", qutrit_file, "--compare", qf,
        ])
        assert code == 0
        assert report["outputs"]["p_majorizes_q"]
        assert report["outputs"]["q_majorizes_p"]

    def test_compare_one_sided(self, tmp_path, capsys, qutrit_file):
        pf = write_json(tmp_path / "p.json", {"populations": [0.0, 1.0, 0.0]})
        qf = write_json(tmp_path / "q.json", {"populations": [0.5, 0.25, 0.25]})
        code, report, _ = run_cli(capsys, [
            "curve", "--state", pf, "--spectrum", qutrit_file, "--compare", qf,
        ])
        assert code == 0
        assert report["outputs"]["p_majorizes_q"]
        assert not report["outputs"]["q_majorizes_p"]

    @pytest.mark.parametrize("spectrum,state,code", [
        ({"energies": ["0", "1"]}, {"populations": [0.5, 0.5]}, 3),
        ({"energies": [0, 1]}, {"populations": ["0.5", "0.5"]}, 3),
        ({"energies": [0, 1]}, {"populations": ["a", 1]}, 3),
        ({"energies": [[0, 1], [2]]}, {"populations": [0.5, 0.5]}, 2),
        ({"energies": [0, 1]}, {"populations": [[0.5], [0.5, 0]]}, 2),
        (5, {"populations": [0.5, 0.5]}, 2),
        ({"levels": [1, 2]}, {"populations": [0.5, 0.5]}, 2),
        ({"energy": [0, 1]}, {"populations": [0.5, 0.5]}, 2),  # no known key
        ({"levels": [{"energy": "0", "deg": 0}, {"energy": 1, "deg": 0}]},
         {"populations": [0.5, 0.5]}, 3),
        ({"levels": [{"energy": 0, "deg": "0"}, {"energy": 1, "deg": 0}]},
         {"populations": [0.5, 0.5]}, 3),
        ({"energies": [0, 1]}, {"populations": [[0.5], [0.5]]}, 3),  # 2-D
        ({"energies": [0, 1]}, {"populations": 1}, 3),  # a scalar
    ])
    def test_malformed_spectrum_or_populations_exit_code(self, tmp_path, capsys, spectrum,
                                                         state, code):
        spec = write_json(tmp_path / "spec.json", spectrum)
        sf = write_json(tmp_path / "p.json", state)
        got, report, err = run_cli(capsys, ["curve", "--state", sf, "--spectrum", spec])
        assert (got, report) == (code, None)
        assert len(err.strip().splitlines()) == 1, err

    def test_valid_spectrum_forms_read_alike(self, tmp_path, capsys):
        # A bool counts as its integer, and an integer beyond int64 as its float.
        argv = []
        for name, spectrum in (("a", {"energies": [0, 1.0, 1e20]}),
                               ("b", {"energies": [False, True, 10**20]}),
                               ("c", {"levels": [{"energy": 0, "deg": 0}, {"energy": 1, "deg": 0},
                                                 {"energy": 10**20, "deg": False}]})):
            spec = write_json(tmp_path / f"{name}.json", spectrum)
            sf = write_json(tmp_path / "p.json", {"populations": [0.5, 0.5, 0]})
            code, report, err = run_cli(capsys, ["curve", "--state", sf, "--spectrum", spec])
            assert code == 0, err
            argv.append(report["outputs"]["vertices"])
        assert argv[0] == argv[1] == argv[2]

    def test_energy_span_past_the_float_range_writes_no_warning(self, tmp_path, capsys,
                                                                recwarn):
        # 1e308 - (-1e308) overflows inside the Gibbs weights; the weight of
        # level 1 is 0 either way, so the curve is valid and stderr empty.
        spec = write_json(tmp_path / "wide.json", {"energies": [-1e308, 1e308]})
        sf = write_json(tmp_path / "p.json", {"populations": [0.5, 0.5]})
        code, report, err = run_cli(capsys, ["curve", "--state", sf, "--spectrum", spec])
        assert (code, err) == (0, "")
        assert report["outputs"]["vertices"] == [[0.0, 0.0], [0.0, 0.5], [1.0, 1.0]]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_overflowed_ratios_keep_the_curve_concave(self, tmp_path, capsys, recwarn):
        # exp(-740) and exp(-741) are subnormal, so both p / gamma overflow to
        # inf; level 2 has the larger true ratio and must come first.
        spec = write_json(tmp_path / "gap.json", {"energies": [0, 740, 741]})
        sf = write_json(tmp_path / "p.json", {"populations": [0.2, 0.3, 0.5]})
        code, report, err = run_cli(capsys, ["curve", "--state", sf, "--spectrum", spec])
        assert (code, err) == (0, "")
        g1, g2 = math.exp(-740), math.exp(-741)
        assert report["outputs"]["vertices"] == [[0.0, 0.0], [g2, 0.5], [g2 + g1, 0.8],
                                                 [1.0, 1.0]]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]



class TestSimulate:
    def test_coherent_state(self, tmp_path, capsys):
        # A dense state with coherence runs as it is, not dephased.
        rho = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]])
        steps = [{"kind": "givens", "indices": [[0, 0], [0, 1]],
                  "u2": [[0, 0], [1, 0], [1, 0], [0, 0]]},
                 {"kind": "h", "indices": [[1, 0], [1, 1]], "param": 0.3}]
        seq = {"method": "handcrafted", "dims": [2, 2], "error_bound": 0.0, "steps": steps}
        code, report, err = run_cli(capsys, [
            "simulate", "--state", write_matrix(tmp_path / "rho.json", rho),
            "--catalyst", write_json(tmp_path / "cat.json", {"energies": [0, 0]}),
            "--gates", write_json(tmp_path / "gates.json", seq),
            "--system", write_json(tmp_path / "sys.json", {"energies": [0, 1]})])
        assert (code, err) == (0, "")
        sigma, pre, _ = run_gc_eto(rho, Spectrum.from_energies([0, 0]),
                                   GateSequence.from_json(seq), rethermalize=False,
                                   system=Spectrum.from_energies([0, 1]))
        pops = report["outputs"]["system_populations"]
        assert pops == np.real(np.diag(sigma)).tolist()
        assert np.allclose(pops, [0.6, 0.4], atol=1e-12)
        assert report["outputs"]["pre_verdict"] == {**asdict(pre),
                                                    "approximate": pre.approximate(1e-10)}

    def test_cooling_run(self, tmp_path, capsys):
        d = 2
        cat = build_cooling_catalyst(d)
        seq = build_cooling_sequence(d)
        sf = write_json(tmp_path / "p.json", {"populations": [0.0, 0.5, 0.5]})
        cf = write_json(tmp_path / "cat.json", to_json(cat))
        gf = tmp_path / "gates.json"
        seq.save(str(gf))
        code, report, _ = run_cli(capsys, [
            "simulate", "--state", sf, "--catalyst", cf, "--gates", str(gf),
            "--rethermalize",
        ])
        assert code == 0
        pops = report["outputs"]["system_populations"]
        assert abs(pops[0] - 0.5) < 1e-12
        assert report["outputs"]["post_verdict"]["strict"]
        assert not report["outputs"]["pre_verdict"]["correlated"]

    @pytest.mark.parametrize("block,code,err", [
        (BLOCK_A, 0, ""), (BLOCK_B, 3, "domain error: step 0: givens block is not unitary\n")],
        ids=["A", "B"])
    def test_givens_bound_at_rounding(self, tmp_path, capsys, block, code, err):
        # Blocks within rounding of the unitarity bound: simulate takes the
        # verdict of the one bound that files and single steps share.
        sf = write_json(tmp_path / "p.json", {"populations": [1.0]})
        cf = write_json(tmp_path / "cat.json", {"energies": [0, 0]})
        gf = write_json(tmp_path / "gates.json", {
            "method": "handcrafted", "dims": [1, 2], "error_bound": 0.0,
            "steps": [{"kind": "givens", "indices": [[0, 0], [0, 1]], "u2": block}]})
        got = run_cli(capsys, ["simulate", "--state", sf, "--catalyst", cf, "--gates", gf])
        assert (got[0], got[2]) == (code, err)

    def test_step_across_energy_blocks_exits_3_with_system(self, tmp_path, capsys):
        # A swap of joint levels (0, 0) and (0, 1), of energies 0 and 1, breaks
        # energy conservation.  Without --system the energies are unknown and
        # the run goes through; with it, the step is named and refused.
        sf = write_json(tmp_path / "p.json", {"populations": [1.0]})
        cf = write_json(tmp_path / "cat.json", {"energies": [0, 1]})
        yf = write_json(tmp_path / "sys.json", {"energies": [0]})
        gf = write_json(tmp_path / "gates.json", {
            "method": "handcrafted", "dims": [1, 2], "error_bound": 0.0,
            "steps": [{"kind": "p", "indices": [[0, 1]], "param": 0.3},
                      {"kind": "givens", "indices": [[0, 0], [0, 1]],
                       "u2": [[0, 0], [1, 0], [1, 0], [0, 0]]}]})
        argv = ["simulate", "--state", sf, "--catalyst", cf, "--gates", gf, "--rethermalize"]
        code, report, _ = run_cli(capsys, argv)
        assert code == 0 and report["outputs"]["pre_verdict"]["catalyst_marginal_distance"] > 0.4
        code, report, err = run_cli(capsys, argv + ["--system", yf])
        assert (code, report) == (3, None)
        assert err == ("domain error: step 1: levels (0, 0) and (0, 1) lie in different "
                       "energy blocks (joint energies 0.0 and 1.0)\n")

    def test_system_spectrum_leaves_a_conserving_run_unchanged(self, tmp_path, capsys):
        cat = build_cooling_catalyst(2)
        sf = write_json(tmp_path / "p.json", {"populations": [0.0, 0.5, 0.5]})
        cf = write_json(tmp_path / "cat.json", to_json(cat))
        yf = write_json(tmp_path / "sys.json", to_json(SYSTEM_SPECTRUM))
        gf = tmp_path / "gates.json"
        build_cooling_sequence(2).save(str(gf))
        argv = ["simulate", "--state", sf, "--catalyst", cf, "--gates", str(gf), "--rethermalize"]
        _, plain, _ = run_cli(capsys, argv)
        code, with_system, _ = run_cli(capsys, argv + ["--system", yf])
        assert code == 0
        assert with_system["inputs"].pop("system") == yf
        plain.pop("wall_time")
        with_system.pop("wall_time")
        assert plain == with_system

    def test_system_spectrum_must_match_the_state(self, tmp_path, capsys):
        sf = write_json(tmp_path / "p.json", {"populations": [0.5, 0.5]})
        cf = write_json(tmp_path / "cat.json", {"energies": [0]})
        yf = write_json(tmp_path / "sys.json", {"energies": [0, 1, 2]})
        gf = write_json(tmp_path / "gates.json", {
            "method": "handcrafted", "dims": [2, 1], "error_bound": 0.0, "steps": []})
        code, _, err = run_cli(capsys, ["simulate", "--state", sf, "--catalyst", cf,
                                        "--gates", gf, "--system", yf])
        assert code == 3
        assert err == "domain error: system spectrum dim 3 != state dim 2\n"

    @pytest.mark.parametrize("shape", [(1, 2, 2), (2, 2, 2)])
    def test_stacked_state_exits_3(self, tmp_path, capsys, shape):
        # The kernels take stacks; the state reader does not.
        rho = np.broadcast_to(np.eye(2) / 2, shape)
        sf = write_matrix(tmp_path / "rho.json", rho)
        cf = write_json(tmp_path / "cat.json", {"energies": [0]})
        gf = write_json(tmp_path / "gates.json", {
            "method": "handcrafted", "dims": [2, 1], "error_bound": 0.0, "steps": []})
        code, report, err = run_cli(capsys, [
            "simulate", "--state", sf, "--catalyst", cf, "--gates", gf,
        ])
        assert (code, report) == (3, None)
        assert err == f"domain error: expected a square matrix, got shape {shape}\n"

    @pytest.mark.parametrize("bad", [[0, -1], [0, 2], [0.5, 0]])
    def test_bad_joint_index_exits_3(self, tmp_path, capsys, bad):
        sf = write_json(tmp_path / "p.json", {"populations": [0.2, 0.3, 0.5]})
        cf = write_json(tmp_path / "cat.json",
                        to_json(Spectrum.from_energies([0.0, 0.0])))
        gf = write_json(tmp_path / "gates.json", {
            "method": "handcrafted", "dims": [3, 2], "error_bound": 0.0,
            "steps": [{"kind": "givens", "indices": [bad, [0, 0]],
                       "u2": [[0, 0], [1, 0], [1, 0], [0, 0]]}],
        })
        code, _, err = run_cli(capsys, [
            "simulate", "--state", sf, "--catalyst", cf, "--gates", gf,
        ])
        assert code == 3
        assert "joint index" in err

    @pytest.mark.parametrize("step", [
        {"kind": "h", "indices": [[0, 0], [0, 1]], "param": math.inf},
        {"kind": "p", "indices": [[1, 0]], "param": math.nan},
        {"kind": "givens", "indices": [[0, 0], [0, 1]],
         "u2": [[math.nan, 0], [0, 0], [0, 0], [1, 0]]},
    ])
    def test_non_finite_step_exits_3(self, tmp_path, capsys, step):
        sf = write_json(tmp_path / "p.json", {"populations": [0.2, 0.3, 0.5]})
        cf = write_json(tmp_path / "cat.json",
                        to_json(Spectrum.from_energies([0.0, 0.0])))
        gf = write_json(tmp_path / "gates.json", {
            "method": "handcrafted", "dims": [3, 2], "error_bound": 0.0,
            "steps": [{"kind": "m", "indices": [[2, 0], [2, 1]], "param": 0.3}, step],
        })
        code, report, err = run_cli(capsys, [
            "simulate", "--state", sf, "--catalyst", cf, "--gates", gf,
        ])
        assert code == 3 and report is None
        assert "step 1" in err

    @pytest.mark.parametrize("step,code", [
        # structural faults (wrong nesting, pair count, missing key): exit 2
        ({"kind": "givens", "indices": [[0, 0], [0, 1]],
          "u2": [[0, 0], [1, 0], [1, 0]]}, 2),
        ({"kind": "givens", "indices": [[0, 0], [0, 1]], "u2": [0, 1, 1, 0]}, 2),
        ({"kind": "h", "indices": [0, 1], "param": 0.3}, 2),
        ({"kind": "h", "indices": [[0, 0, 0], [0, 1]], "param": 0.3}, 2),
        ({"kind": "h", "indices": 5, "param": 0.3}, 2),
        ([["kind", "h"]], 2),
        ({"kind": "h", "param": 0.3}, 2),
        ({"kind": "givens", "indices": [[0, 0], [0, 1]]}, 2),
        # bad values: exit 3
        ({"kind": "h", "indices": [[0, 0], [0, 1]], "param": "abc"}, 3),
        ({"kind": "p", "indices": [[1, 0]], "param": None}, 3),
        ({"kind": "m", "indices": [[0, 0], [0, 1]], "param": [0.3]}, 3),
        ({"kind": "m", "indices": [[0, 0], [0, 1]], "param": 10 ** 400}, 3),
        ({"kind": "m", "indices": [[0, 0], [0, 10 ** 400]], "param": 0.3}, 3),
        ({"kind": "givens", "indices": [[0, 0], [0, 1]],
          "u2": [["a", 0], [1, 0], [1, 0], [0, 0]]}, 3),
        ({"kind": "h", "indices": [[0, 0]], "param": 0.3}, 3),
        ({"kind": "x", "indices": [[0, 0], [0, 1]], "param": 0.3}, 3),
        ({"kind": "h", "indices": [[0, 0], [0, 0]], "param": 0.3}, 3),
    ])
    def test_malformed_step_exit_code(self, tmp_path, capsys, step, code):
        sf = write_json(tmp_path / "p.json", {"populations": [0.2, 0.3, 0.5]})
        cf = write_json(tmp_path / "cat.json",
                        to_json(Spectrum.from_energies([0.0, 0.0])))
        gf = write_json(tmp_path / "gates.json", {
            "method": "handcrafted", "dims": [3, 2], "error_bound": 0.0,
            "steps": [{"kind": "m", "indices": [[2, 0], [2, 1]], "param": 0.3}, step],
        })
        got, report, err = run_cli(capsys, [
            "simulate", "--state", sf, "--catalyst", cf, "--gates", gf,
        ])
        assert (got, report) == (code, None)
        assert "step 1:" in err

    @pytest.mark.parametrize("fields,code", [
        ({"steps": {}}, 2),
        ({"steps": "abc"}, 2),
        ({"dims": [3]}, 2),
        ({"dims": [3, "2"]}, 2),
        ({"error_bound": "abc"}, 3),
        ({"error_bound": math.nan}, 3),
        ({"error_bound": math.inf}, 3),
        ({"error_bound": -1.0}, 3),
        ({"error_bound": True}, 3),
        ({"error_bound": 10 ** 400}, 3),
        ({"trotter_m": "abc"}, 3),
        ({"trotter_m": -3}, 3),
        ({"trotter_m": 0}, 3),
        ({"trotter_m": 2.0}, 3),
        ({"trotter_m": True}, 3),
        ({"method": 5}, 3),
        ({"method": "EXACT"}, 3),
        ({"method": None}, 3),
        ({"method": ["exact"]}, 3),
    ])
    def test_malformed_sequence_exit_code(self, tmp_path, capsys, fields, code):
        sf = write_json(tmp_path / "p.json", {"populations": [0.2, 0.3, 0.5]})
        cf = write_json(tmp_path / "cat.json",
                        to_json(Spectrum.from_energies([0.0, 0.0])))
        seq = {"method": "handcrafted", "dims": [3, 2], "error_bound": 0.0, "steps": []}
        gf = write_json(tmp_path / "gates.json", {**seq, **fields})
        got, report, err = run_cli(capsys, [
            "simulate", "--state", sf, "--catalyst", cf, "--gates", gf,
        ])
        assert (got, report) == (code, None)
        assert next(iter(fields)) in err

    @pytest.mark.parametrize("epsilon", ["-1", "-1e-300", "nan", "inf"])
    def test_meaningless_epsilon_exits_3_before_any_work(self, tmp_path, capsys, epsilon):
        missing = str(tmp_path / "none.json")
        code, report, err = run_cli(capsys, [
            "simulate", "--state", missing, "--catalyst", missing, "--gates", missing,
            f"--epsilon={epsilon}",
        ])
        assert (code, report) == (3, None)
        assert err == ("domain error: --epsilon must be nonnegative and finite, "
                       f"got {float(epsilon)}\n")

    def test_zero_epsilon_is_allowed(self, tmp_path, capsys):
        sf = write_json(tmp_path / "p.json", {"populations": [1.0]})
        cf = write_json(tmp_path / "cat.json", {"energies": [0]})
        gf = write_json(tmp_path / "gates.json", {
            "method": "handcrafted", "dims": [1, 1], "error_bound": 0.0, "steps": []})
        code, report, _ = run_cli(capsys, ["simulate", "--state", sf, "--catalyst", cf,
                                           "--gates", gf, "--epsilon", "0"])
        assert code == 0
        assert report["inputs"]["epsilon"] == 0.0
        assert report["outputs"]["pre_verdict"]["approximate"] is True

    def test_no_rethermalize_omits_post(self, tmp_path, capsys):
        cat = build_cooling_catalyst(2)
        seq = build_cooling_sequence(2)
        sf = write_json(tmp_path / "p.json", {"populations": [0.0, 0.5, 0.5]})
        cf = write_json(tmp_path / "cat.json", to_json(cat))
        gf = tmp_path / "gates.json"
        seq.save(str(gf))
        code, report, _ = run_cli(capsys, [
            "simulate", "--state", sf, "--catalyst", cf, "--gates", str(gf),
        ])
        assert code == 0
        assert "post_verdict" not in report["outputs"]


def every_command(tmp_path):
    """One argv per command and approximate back-end, in an order that
    runs: simulate reads the sequence compile --method exact writes."""
    sf = write_json(tmp_path / "sys.json", {"energies": [0.0, 1.0]})
    cf = write_json(tmp_path / "cat.json", {"energies": [0.0, 0.0]})
    blocks = energy_blocks(Spectrum.from_json(sf), Spectrum.from_json(cf))
    uf = write_matrix(tmp_path / "u.json", random_energy_preserving_unitary(blocks, seed=3))
    pf = write_json(tmp_path / "p.json", {"populations": [0.25, 0.75]})
    seq = str(tmp_path / "seq.json")
    compile_argv = ["compile", "--system", sf, "--catalyst", cf, "--unitary", uf]
    return [
        compile_argv + ["--method", "exact", "--out", seq],
        compile_argv + ["--method", "trotter", "--accuracy", "1e-2"],
        compile_argv + ["--method", "bch", "--accuracy", "1e-1"],
        ["simulate", "--state", pf, "--catalyst", cf, "--gates", seq, "--rethermalize"],
        ["cool", "--D", "3"],
        ["verify", "--suite", "all", "--trials", "2"],
        ["curve", "--state", pf, "--spectrum", sf],
    ]


class TestMain:
    @pytest.mark.parametrize("argv, message", [
        (["cool", "--D", "abc"], "thermoforge cool: argument --D: invalid int value: 'abc'"),
        (["curve", "--state", "p.json"],
         "thermoforge curve: the following arguments are required: --spectrum"),
        # argparse reads -1e-300 as an option name; --epsilon=-1e-300 passes it
        (["simulate", "--state", "p.json", "--catalyst", "c.json", "--gates", "g.json",
          "--epsilon", "-1e-300"], "thermoforge simulate: argument --epsilon: expected one argument"),
    ])
    def test_usage_error_is_one_parse_error_line(self, capsys, argv, message):
        code, report, err = run_cli(capsys, argv)
        assert (code, report, err) == (2, None, f"parse error: {message}\n")

    def test_parser_built_once_per_process(self, capsys, monkeypatch):
        cli.build_parser.cache_clear()
        built = []  # build_parser calls add_subparsers once per parser it builds
        original = argparse.ArgumentParser.add_subparsers
        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers",
                            lambda self, **kw: built.append(1) or original(self, **kw))
        code, report, _ = run_cli(capsys, ["cool", "--D", "3"])
        assert (code, report["command"]) == (0, "cool")
        code, report, _ = run_cli(capsys, ["verify", "--suite", "numerics", "--trials", "1"])
        assert (code, report["command"], report["inputs"]["suite"]) == (0, "verify", "numerics")
        assert len(built) == 1

    def test_emit_writes_the_bytes_of_json_dump(self, tmp_path, capsys):
        for argv in every_command(tmp_path):
            assert main(argv) == 0, argv
            out = capsys.readouterr().out
            expected = io.StringIO()
            json.dump(json.loads(out), expected, indent=1, sort_keys=True)
            expected.write("\n")
            assert out == expected.getvalue(), argv[0]


def _json_paths(node, prefix=()):
    """The path (a tuple of keys and indices) of every node of a JSON value,
    the root () first."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(
        node, list) else ()
    for key, child in items:
        yield from _json_paths(child, prefix + (key,))


def _mutated(root, path, mutation, value):
    """A copy of root with the node at path changed by mutation."""
    root = json.loads(json.dumps(root))
    parent, node = None, root
    for key in path:
        parent, node = node, node[key]
    if mutation == "replace":  # a type swap, NaN/±Infinity or an empty list
        new = value
    elif mutation == "wrap":  # ragged nesting
        new = [node]
    elif isinstance(node, list) and node:  # mismatched shapes
        new = node[:-1] if mutation == "drop" else node + [node[-1]]
    elif isinstance(node, dict) and node:  # a missing key
        new = {k: v for k, v in node.items() if k != min(node)}
    else:
        new = value
    if parent is None:
        return new
    parent[path[-1]] = new
    return root


_REPLACEMENTS = ["0.5", "", None, True, False, {}, [], [[]], 0, -1, 5, 0.5, -0.5, 1e308,
                 math.nan, math.inf, -math.inf]


def _finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, list):
        return all(map(_finite, value))
    return True


class TestMutatedInputs:
    """Valid inputs on a 2-level system and a 2-level catalyst, with one node
    of one file changed; every command must exit 0, 2, 3, 4 or 5 without a
    traceback.  An exit 0 must report only finite numbers that mean what
    they claim (_check_meaning); any other exit writes no --out file."""

    @pytest.fixture(scope="class")
    def files(self):
        system = {"energies": [0.0, 1.0]}
        catalyst = {"levels": [{"energy": 0.0, "deg": 0}, {"energy": 0.0, "deg": 1}]}
        blocks = energy_blocks(Spectrum.from_json(system), Spectrum.from_json(catalyst))
        u = random_energy_preserving_unitary(blocks, seed=3)
        return {
            "sys": system,
            "cat": catalyst,
            "u": {"re": u.real.tolist(), "im": u.imag.tolist()},
            "p": {"populations": [0.25, 0.75]},
            "rho": {"re": [[0.25, 0.0], [0.0, 0.75]], "im": [[0.0, 0.0], [0.0, 0.0]]},
            "seq": sequence_to_json(compile_exact(u, blocks)),
        }

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("mutated")

    COMMANDS = {
        "compile": ["compile", "--system", "sys", "--catalyst", "cat", "--unitary", "u",
                    "--out", "out"],
        "compile_trotter": ["compile", "--system", "sys", "--catalyst", "cat", "--unitary", "u",
                            "--method", "trotter", "--accuracy", "1e-2", "--out", "out"],
        "simulate": ["simulate", "--state", "p", "--catalyst", "cat", "--gates", "seq",
                     "--rethermalize"],
        "simulate_system": ["simulate", "--state", "p", "--catalyst", "cat", "--gates", "seq",
                            "--rethermalize", "--system", "sys"],
        "simulate_dense": ["simulate", "--state", "rho", "--catalyst", "cat", "--gates", "seq"],
        "curve": ["curve", "--state", "p", "--spectrum", "sys", "--compare", "rho"],
    }

    @pytest.mark.parametrize("command", COMMANDS)
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_code_contract(self, files, workdir, capsys, command, data):
        argv = self.COMMANDS[command]
        names = [a for a in argv if a in files]
        target = data.draw(st.sampled_from(names), label="file")
        path = data.draw(st.sampled_from(list(_json_paths(files[target]))), label="path")
        mutation = data.draw(st.sampled_from(["replace", "wrap", "drop", "append"]),
                             label="mutation")
        value = data.draw(st.sampled_from(_REPLACEMENTS), label="value")
        paths = {"out": workdir / "out.json"}
        paths["out"].unlink(missing_ok=True)
        for name in names:
            obj = _mutated(files[name], path, mutation, value) if name == target else files[name]
            paths[name] = write_json(workdir / f"{name}.json", obj)
        code = main([str(paths.get(a, a)) for a in argv])
        out = capsys.readouterr()
        assert code in (0, 2, 3, 4, 5), out.err
        if code == 0:
            outputs = json.loads(out.out)["outputs"]
            assert _finite(outputs)
            self._check_meaning(argv, outputs, files, paths)
        else:
            assert out.out == "" and len(out.err.strip().splitlines()) == 1, out.err
            assert not paths["out"].exists()

    @staticmethod
    def _check_meaning(argv, outputs, files, paths):
        """Semantic oracles of an exit 0.  compile: the gates of --out,
        applied one by one to the identity, are within error_bound of u.
        curve: the vertices run from (0, 0) to (1, 1), x ascending, and
        the curve is concave.  simulate: the system populations are a
        probability vector and, given --system, every step of the gates
        lies in one energy block of the fixture's spectra (without it no
        step is checked, so a crossing step may pass)."""
        command = argv[0]
        if command == "compile":
            seq = GateSequence.from_json(str(paths["out"]))
            u = cli._complex_array(json.loads(Path(paths["u"]).read_text()))
            got = reference_apply_gates(seq, np.eye(len(u), dtype=complex))
            assert np.linalg.norm(got - u) <= seq.error_bound + 1e-12
        elif command == "curve":
            x, y = np.array(outputs["vertices"]).T
            assert (x[0], y[0], x[-1], y[-1]) == (0.0, 0.0, 1.0, 1.0)
            dx, dy = np.diff(x), np.diff(y)
            assert (dx >= 0).all()
            # each slope at most the one before: dy_k / dx_k <= dy_k-1 / dx_k-1
            assert (dy[1:] * dx[:-1] <= dy[:-1] * dx[1:] + 1e-12).all()
        else:
            p = np.array(outputs["system_populations"])
            assert (p >= -1e-12).all() and abs(p.sum() - 1.0) <= 1e-12
            if "--system" in argv:
                blocks = energy_blocks(Spectrum.from_json(files["sys"]),
                                       Spectrum.from_json(files["cat"]))
                bid = blocks.block_of_flat()
                seq = GateSequence.from_json(str(paths["seq"]))
                for step in seq.steps:
                    flats = [s * seq.dims[1] + c for s, c in step.indices]
                    assert len(set(bid[flats].tolist())) == 1, step


NO_SCIPY = """
import contextlib, json, os, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"import of {name} refused")

sys.meta_path.insert(0, RefuseScipy())
try:
    import scipy.linalg  # noqa: F401
    refused = False
except ImportError:
    refused = True
from thermoforge.cli import main
from thermoforge.cooling import SYSTEM_SPECTRUM

codes = []
with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
    for argv in json.loads(sys.argv[1]):
        codes.append(main(argv))
print(json.dumps({"refused": refused, "codes": codes,
                  "loaded": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_every_command_runs_without_scipy(tmp_path):
    argvs = every_command(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"refused": True, "codes": [0] * len(argvs), "loaded": []}
