"""End-to-end CLI tests: exit codes, report JSON, and artifact files."""
import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from thermoforge import (
    Spectrum,
    build_cooling_catalyst,
    build_cooling_sequence,
    energy_blocks,
    random_energy_preserving_unitary,
)
from thermoforge import cli
from thermoforge.cli import main

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

    def test_malformed_json_is_parse_error(self, tmp_path, capsys,
                                           qutrit_file, qubit_cat_file):
        bad = tmp_path / "u.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, [
            "compile", "--system", qutrit_file, "--catalyst", qubit_cat_file,
            "--unitary", str(bad),
        ])
        assert code == 2

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

    def test_subnormal_gibbs_weight_writes_no_warning(self, tmp_path, capsys, recwarn):
        # exp(-740) is subnormal, so p / gamma and the first slope overflow.
        spec = write_json(tmp_path / "gap.json", {"energies": [0, 740]})
        sf = write_json(tmp_path / "p.json", {"populations": [0.5, 0.5]})
        code, report, err = run_cli(capsys, ["curve", "--state", sf, "--spectrum", spec])
        assert (code, err) == (0, "")
        assert report["outputs"]["vertices"] == [[0.0, 0.0], [math.exp(-740), 0.5], [1.0, 1.0]]
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


class TestSimulate:
    def test_cooling_run(self, tmp_path, capsys):
        d = 2
        cat = build_cooling_catalyst(d)
        seq = build_cooling_sequence(d)
        sf = write_json(tmp_path / "p.json", {"populations": [0.0, 0.5, 0.5]})
        cf = write_json(tmp_path / "cat.json", cat.to_json())
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

    @pytest.mark.parametrize("bad", [[0, -1], [0, 2], [0.5, 0]])
    def test_bad_joint_index_exits_3(self, tmp_path, capsys, bad):
        sf = write_json(tmp_path / "p.json", {"populations": [0.2, 0.3, 0.5]})
        cf = write_json(tmp_path / "cat.json",
                        Spectrum.from_energies([0.0, 0.0]).to_json())
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
                        Spectrum.from_energies([0.0, 0.0]).to_json())
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
                        Spectrum.from_energies([0.0, 0.0]).to_json())
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
                        Spectrum.from_energies([0.0, 0.0]).to_json())
        seq = {"method": "handcrafted", "dims": [3, 2], "error_bound": 0.0, "steps": []}
        gf = write_json(tmp_path / "gates.json", {**seq, **fields})
        got, report, err = run_cli(capsys, [
            "simulate", "--state", sf, "--catalyst", cf, "--gates", gf,
        ])
        assert (got, report) == (code, None)
        assert next(iter(fields)) in err

    def test_no_rethermalize_omits_post(self, tmp_path, capsys):
        cat = build_cooling_catalyst(2)
        seq = build_cooling_sequence(2)
        sf = write_json(tmp_path / "p.json", {"populations": [0.0, 0.5, 0.5]})
        cf = write_json(tmp_path / "cat.json", cat.to_json())
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
