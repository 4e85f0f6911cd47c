"""End-to-end command tests: exit codes, determinism, failure replay."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nopanet
from nopanet import (
    NopaParams,
    PassiveNetwork,
    cfb_topology,
    closed_form,
    stability,
    static_coefficients,
    static_transfer,
    vanishing_search,
)
from nopanet import cli
from nopanet.cli import EXIT_CONFIG, EXIT_OK, EXIT_UNSTABLE, EXIT_VERIFY, build_parser, main
from nopanet.errors import WellPosednessError
from nopanet.oracles import random_unitary
from tests.test_dynamics import crossed_wiring
from tests.test_linalg import lapack_calls  # noqa: F401 (a fixture)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def stable_cfg(tmp_path):
    return write_json(
        tmp_path / "stable.json",
        {"params": {"x": 0.1, "y": 1.0}, "topology": "cfb", "n_nopas": 2},
    )


@pytest.fixture
def unstable_cfg(tmp_path):
    return write_json(
        tmp_path / "unstable.json",
        {"params": {"x": 0.6, "y": 1.0}, "topology": "cfb", "n_nopas": 2},
    )


def matrix_doc(s):
    return {"n_nopas": 2, "matrix": [[[z.real, z.imag] for z in row] for row in s]}


class TestStabilityCommand:
    def test_stable_exit_and_report(self, stable_cfg, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert main(["stability", "--config", stable_cfg, "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        assert "stable: True" in text
        assert "spectral_abscissa" in text

    def test_unstable_exit(self, unstable_cfg, tmp_path):
        out = tmp_path / "report.txt"
        code = main(["stability", "--config", unstable_cfg, "--out", str(out)])
        assert code == EXIT_UNSTABLE
        assert "stable: False" in out.read_text()

    def test_missing_config_file(self, tmp_path):
        code = main(["stability", "--config", str(tmp_path / "nope.json")])
        assert code == EXIT_CONFIG

    def test_config_that_is_not_an_object(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "list.json", [1, 2])
        assert main(["stability", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

    def test_malformed_params(self, tmp_path):
        cfg = write_json(tmp_path / "bad.json", {"params": {"x": 0.1}, "n_nopas": 2})
        assert main(["stability", "--config", cfg]) == EXIT_CONFIG

    def test_both_param_styles_rejected(self, tmp_path):
        cfg = write_json(
            tmp_path / "both.json",
            {"params": {"x": 0.1, "y": 1.0, "epsilon": 1.0, "gamma": 1.0}, "n_nopas": 2},
        )
        assert main(["stability", "--config", cfg]) == EXIT_CONFIG

    def test_custom_matrix_topology(self, tmp_path):
        mfile = write_json(tmp_path / "net.json", matrix_doc(cfb_topology(2)))
        cfg = write_json(
            tmp_path / "cfg.json",
            {"params": {"x": 0.1, "y": 1.0}, "topology": "custom", "matrix_file": mfile},
        )
        out = tmp_path / "report.txt"
        assert main(["stability", "--config", cfg, "--out", str(out)]) == EXIT_OK

    def test_non_unitary_custom_matrix_is_config_error(self, tmp_path):
        doc = matrix_doc(cfb_topology(2))
        doc["matrix"][0][0] = [0.5, 0.0]
        mfile = write_json(tmp_path / "net.json", doc)
        cfg = write_json(
            tmp_path / "cfg.json",
            {"params": {"x": 0.1, "y": 1.0}, "topology": "custom", "matrix_file": mfile},
        )
        assert main(["stability", "--config", cfg]) == EXIT_CONFIG

    def test_missing_matrix_file_is_config_error(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "params": {"x": 0.1, "y": 1.0},
                "topology": "custom",
                "matrix_file": str(tmp_path / "absent.json"),
            },
        )
        assert main(["stability", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "absent.json" in err


class TestSpectrumCommand:
    def spectrum_cfg(self, tmp_path, **extra):
        doc = {
            "params": {"x": 0.1, "y": 1.0},
            "topology": "cfb",
            "n_nopas": 2,
            "omega_grid": {"start": 0.0, "stop": 7.2e7, "points": 5},
        }
        doc.update(extra)
        return write_json(tmp_path / "spec.json", doc)

    def test_csv_output(self, tmp_path):
        cfg = self.spectrum_cfg(tmp_path)
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "omega_rad_s,v_plus,v_minus,v_total,entangled"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[3]) == pytest.approx(float(first[1]) + float(first[2]))

    def test_json_output(self, tmp_path):
        cfg = self.spectrum_cfg(tmp_path)
        out = tmp_path / "spec.json.out"
        code = main(["spectrum", "--config", cfg, "--out", str(out), "--format", "json"])
        assert code == EXIT_OK
        rows = json.loads(out.read_text())
        assert len(rows) == 5
        assert {"omega_rad_s", "v_plus", "v_minus", "v_total", "entangled"} <= rows[0].keys()

    @pytest.mark.parametrize("n", [2, 9, 128])
    def test_chain_makes_only_half_order_solves(self, n, tmp_path, lapack_calls):
        # the verdict comes from the chain's poles, with no eigvals call; the only LAPACK calls
        # are transfer's solves of the q half's shifted family
        x = 0.5 * math.tan(math.pi / (4 * n))
        cfg = self.spectrum_cfg(
            tmp_path, params={"x": x, "y": 1.0, "K": 0.0491}, n_nopas=n, theta_a="optimal", theta_b="optimal"
        )
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "spec.csv")]) == EXIT_OK
        assert lapack_calls
        assert all(name == "solve" and shape[1:] == (2 * n, 2 * n) for name, shape in lapack_calls)
        assert sum(shape[0] for _, shape in lapack_calls) == 5

    def test_optimal_theta_request(self, tmp_path):
        cfg = self.spectrum_cfg(tmp_path, theta_a="optimal", theta_b="optimal")
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_OK
        first = out.read_text().strip().splitlines()[1].split(",")
        assert float(first[3]) < 4.0  # entangled at omega = 0 with optimal phases

    def test_hz_unit_scales_grid(self, tmp_path):
        cfg_rad = self.spectrum_cfg(tmp_path)
        out_rad = tmp_path / "rad.csv"
        main(["spectrum", "--config", cfg_rad, "--out", str(out_rad)])
        doc = json.loads(open(cfg_rad).read())
        doc["omega_grid"] = {
            "start": 0.0,
            "stop": 7.2e7 / (2.0 * math.pi),
            "points": 5,
            "unit": "hz",
        }
        cfg_hz = write_json(tmp_path / "hz.json", doc)
        out_hz = tmp_path / "hz.csv"
        main(["spectrum", "--config", cfg_hz, "--out", str(out_hz)])
        last_rad = out_rad.read_text().strip().splitlines()[-1].split(",")
        last_hz = out_hz.read_text().strip().splitlines()[-1].split(",")
        assert float(last_hz[0]) == pytest.approx(float(last_rad[0]), rel=1e-12)
        assert float(last_hz[3]) == pytest.approx(float(last_rad[3]), rel=1e-9)

    def test_unstable_spectrum_exit(self, tmp_path):
        cfg = self.spectrum_cfg(tmp_path)
        doc = json.loads(open(cfg).read())
        doc["params"] = {"x": 0.6, "y": 1.0}
        cfg2 = write_json(tmp_path / "unstable.json", doc)
        assert main(["spectrum", "--config", cfg2]) == EXIT_UNSTABLE

    def test_optimal_theta_request_lossy(self, tmp_path):
        # K > 0: the phases come from the exact optimum of the static transfer
        params = {"x": 0.05, "y": 1.0, "K": 0.0276}
        cfg = write_json(
            tmp_path / "lossy.json",
            {
                "params": params,
                "topology": "cfb",
                "n_nopas": 4,
                "omega_grid": {"values": [0.0, 1e6]},
                "theta_a": "optimal",
                "theta_b": "optimal",
            },
        )
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_OK
        first = out.read_text().strip().splitlines()[1].split(",")
        coeffs = static_coefficients(0.05, 1.0, 0.0276)
        found = vanishing_search(static_transfer(coeffs, PassiveNetwork.cfb(4)).h_n)
        assert float(first[3]) == pytest.approx(found.v_total, rel=1e-9)

    def test_optimal_theta_request_custom_topology(self, tmp_path):
        # the chain's closed-form phases are not this network's optimum: at
        # them V+ + V- reads 4.445 at omega = 0, where the network reaches 3.700
        u = random_unitary(np.random.default_rng(5), 8)
        mfile = write_json(tmp_path / "net.json", {**matrix_doc(u), "n_nopas": 3})
        cfg = write_json(
            tmp_path / "custom.json",
            {
                "params": {"x": 0.05, "y": 1.0},
                "topology": "custom",
                "matrix_file": mfile,
                "omega_grid": {"values": [0.0, 1e6]},
                "theta_a": "optimal",
                "theta_b": "optimal",
            },
        )
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_OK
        first = out.read_text().strip().splitlines()[1].split(",")
        net = PassiveNetwork.from_json(mfile)
        found = vanishing_search(static_transfer(static_coefficients(0.05, 1.0), net).h_n)
        assert float(first[3]) == pytest.approx(found.v_total, rel=1e-9)
        assert float(first[3]) == pytest.approx(3.700, abs=5e-4)
        assert first[4] == "true"

    @pytest.mark.parametrize("ta,tb", [("optimal", 0.3), (0.3, "optimal")])
    def test_mixed_optimal_phase_request_rejected(self, tmp_path, capsys, ta, tb):
        # "optimal" sets both phases; a number beside it would be dropped
        cfg = self.spectrum_cfg(tmp_path, theta_a=ta, theta_b=tb)
        assert main(["spectrum", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

    def test_decreasing_grid_rejected(self, tmp_path):
        cfg = self.spectrum_cfg(tmp_path, omega_grid={"values": [1.0, 0.5]})
        assert main(["spectrum", "--config", cfg]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "grid", [{"values": []}, {"start": 0.0, "stop": 1e8, "points": 0}]
    )
    def test_empty_grid_rejected(self, tmp_path, capsys, grid):
        cfg = self.spectrum_cfg(tmp_path, omega_grid=grid)
        assert main(["spectrum", "--config", cfg]) == EXIT_CONFIG
        assert "omega grid must hold at least one value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid",
        [
            [0, 1],
            "abc",
            {"values": 5},
            {"start": 0, "stop": 1, "points": 2.5},
            {"start": 0, "stop": 1, "points": True},
            {"start": 0, "stop": 1, "points": -2},
        ],
    )
    def test_malformed_grid_is_a_config_error(self, tmp_path, capsys, grid):
        cfg = self.spectrum_cfg(tmp_path, n_nopas=3, omega_grid=grid)
        assert main(["spectrum", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("points", [4, 4.0, "4"])
    def test_integral_points_of_any_type_count(self, tmp_path, points):
        grid = {"start": 0.1, "stop": 1.0, "points": points}
        cfg = self.spectrum_cfg(tmp_path, n_nopas=3, omega_grid=grid)
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert len(out.read_text().strip().splitlines()) == 1 + 4

    def test_non_finite_grid_rejected(self, tmp_path, capsys):
        # Python's json reads NaN; the grid must not pass for an unstable system
        cfg = tmp_path / "nan.json"
        cfg.write_text(
            '{"params": {"x": 0.1, "y": 1.0}, "n_nopas": 2, "omega_grid": {"values": [0, NaN]}}'
        )
        assert main(["spectrum", "--config", str(cfg)]) == EXIT_CONFIG
        assert "only finite ones" in capsys.readouterr().err


class TestTheoremCommand:
    def theorem_cfg(self, tmp_path, x=0.1, n=2, **extra):
        doc = {"params": {"x": x, "y": 1.0}, "topology": "cfb", "n_nopas": n}
        doc.update(extra)
        return write_json(tmp_path / "thm.json", doc)

    def test_reference_values_and_oracle_agreement(self, tmp_path):
        cfg = self.theorem_cfg(tmp_path)
        out = tmp_path / "thm.json.out"
        assert main(["theorem", "--config", cfg, "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["u"] == pytest.approx(10201.0 / 9401.0, rel=1e-12)
        assert doc["v"] == pytest.approx(-3960.0 / 9401.0, rel=1e-12)
        assert doc["u_discrepancy"] < 1e-10
        assert doc["v_discrepancy"] < 1e-10
        assert doc["v_opt_db"] == pytest.approx(10.0 * math.log10(doc["v_opt"]), abs=1e-12)

    def test_csv_format(self, tmp_path):
        cfg = self.theorem_cfg(tmp_path, n=3)
        out = tmp_path / "thm.csv"
        code = main(["theorem", "--config", cfg, "--out", str(out), "--format", "csv"])
        assert code == EXIT_OK
        header, row = out.read_text().strip().splitlines()
        assert "v_opt" in header.split(",")

    def test_physical_params(self, tmp_path):
        # epsilon/gamma = 0.06; the static limit depends on that ratio alone
        cfg = write_json(
            tmp_path / "phys.json",
            {"params": {"epsilon": 3e6, "gamma": 5e7}, "topology": "cfb", "n_nopas": 3},
        )
        out = tmp_path / "phys.out"
        assert main(["theorem", "--config", cfg, "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        expected = closed_form(static_coefficients(0.06, 1.0), 3)
        assert doc["u"] == expected.u
        assert doc["v"] == expected.v

    def test_physical_params_above_threshold_named(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "phys.json",
            {"params": {"epsilon": 6e7, "gamma": 5e7}, "topology": "cfb", "n_nopas": 3},
        )
        assert main(["theorem", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "epsilon/gamma" in err
        assert "x must be" not in err

    def test_long_unstable_chain_answers(self, tmp_path):
        # |h1| ~ 1e4, so h1**80 is out of the float range; the rotation form
        # and the matrix oracle still answer
        cfg = self.theorem_cfg(tmp_path, x=0.9999, n=80)
        out = tmp_path / "thm.json.out"
        assert main(["theorem", "--config", cfg, "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["u_discrepancy"] <= 1e-9

    def test_lossy_rejected(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "lossy.json",
            {"params": {"x": 0.1, "y": 1.0, "K": 0.05}, "topology": "cfb", "n_nopas": 2},
        )
        assert main(["theorem", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: closed forms cover the lossless case only; "
            "use the spectrum command for kappa > 0\n"
        )


class TestCompareCommand:
    def test_text_preset_monotone_improvement(self, tmp_path):
        cfg = write_json(tmp_path / "cmp.json", {"preset": "x10-text"})
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,x_n,stable,v_opt,v_opt_db"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 9  # n = 2 .. 10
        assert all(r[2] == "true" for r in rows)
        dbs = [float(r[4]) for r in rows]
        assert dbs == sorted(dbs, reverse=True)
        for r in rows:
            assert float(r[4]) == pytest.approx(10.0 * math.log10(float(r[3])), abs=1e-12)

    def test_caption_preset_stable_only_below_bound(self, tmp_path):
        # x_n = sqrt(10/n)*0.13 stays under the chain bound tan(pi/(4n)) only for n <= 3
        cfg = write_json(tmp_path / "cmp.json", {"preset": "x10-caption"})
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(2, 11))
        assert [r[2] for r in rows] == ["true"] * 2 + ["false"] * 7
        for r in rows:
            assert int(r[0]) * float(r[1]) ** 2 == pytest.approx(10 * 0.13**2, rel=1e-12)

    @pytest.mark.parametrize(
        "preset, note",
        [("x10-caption", "n = 4, 5, 6, 7, 8, 9, 10 are unstable"), ("x10-text", None)],
        ids=("x10-caption", "x10-text"),
    )
    def test_unstable_rows_noted_on_stderr(self, tmp_path, capsys, preset, note):
        cfg = write_json(tmp_path / "cmp.json", {"preset": preset})
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "cmp.csv")]) == EXIT_OK
        err = capsys.readouterr().err
        if note is None:
            assert err == ""
        else:
            assert err.count("\n") == 1
            assert note in err and "not reachable" in err

    @pytest.mark.parametrize("y", [0.5, 1.0])
    def test_stable_column_matches_eigen_verdict(self, tmp_path, y):
        # the column comes from the bound x y < tan(pi/(4N)); stability() is its oracle
        verdicts = set()
        for x_ref in np.linspace(0.01, 0.2, 12):
            cfg = write_json(
                tmp_path / "cmp.json", {"x_ref": x_ref, "n_ref": 10, "n_max": 20, "y": y}
            )
            out = tmp_path / "cmp.csv"
            assert main(["compare", "--config", cfg, "--out", str(out)]) == EXIT_OK
            for line in out.read_text().strip().splitlines()[1:]:
                n, x_n, stable = line.split(",")[:3]
                n, x_n = int(n), float(x_n)
                if abs(x_n * y / math.tan(math.pi / (4 * n)) - 1.0) < 1e-9:
                    continue  # on the bound the eigen verdict is rounding
                report = stability(NopaParams.from_normalized(x_n, y), PassiveNetwork.cfb(n))
                assert stable == str(report.stable).lower(), (n, x_n, y)
                verdicts.add(stable)
        assert verdicts == {"true", "false"}

    def test_explicit_x_ref_matches_preset(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg_a = write_json(tmp_path / "a.json", {"preset": "x10-text"})
        cfg_b = write_json(tmp_path / "b.json", {"x_ref": 0.078, "n_ref": 10})
        main(["compare", "--config", cfg_a, "--out", str(out_a)])
        main(["compare", "--config", cfg_b, "--out", str(out_b)])
        assert out_a.read_text() == out_b.read_text()

    def test_deterministic_across_runs(self, tmp_path):
        cfg = write_json(tmp_path / "cmp.json", {"preset": "x10-text"})
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            main(["compare", "--config", cfg, "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_preset(self, tmp_path):
        cfg = write_json(tmp_path / "cmp.json", {"preset": "x10-nonsense"})
        assert main(["compare", "--config", cfg]) == EXIT_CONFIG

    def test_scaling_preserves_total_pump_power(self, tmp_path):
        cfg = write_json(tmp_path / "cmp.json", {"preset": "x10-text"})
        out = tmp_path / "cmp.csv"
        main(["compare", "--config", cfg, "--out", str(out)])
        for line in out.read_text().strip().splitlines()[1:]:
            n, x_n = line.split(",")[:2]
            assert int(n) * float(x_n) ** 2 == pytest.approx(10 * 0.078**2, rel=1e-12)


class TestVerifyCommand:
    def test_clean_run(self, tmp_path):
        out = tmp_path / "verify.txt"
        code = main(["verify", "--seed", "3", "--trials", "25", "--out", str(out)])
        assert code == EXIT_OK
        text = out.read_text()
        assert "passed: 25" in text
        assert "failed: 0" in text

    def test_omega_zero_check_scales_with_transfer(self, tmp_path):
        # a stable N = 3 chain near its margin: max|H(0)| ~ 2.4e3, gap ~ 1.4e-9
        out = tmp_path / "verify.txt"
        code = main(["verify", "--seed", "1473955740", "--trials", "5", "--out", str(out)])
        assert code == EXIT_OK
        assert "failed: 0" in out.read_text()

    def test_ill_posed_static_loop_fails_the_suite(self, tmp_path, monkeypatch):
        # a stable chain whose static elimination is rejected is a failed trial
        # with a replay file, not an escaping error
        def ill_posed(coeffs, net):
            raise WellPosednessError("static loop elimination is singular")

        monkeypatch.setattr("nopanet.oracles.static_transfer", ill_posed)
        replay_path = tmp_path / "fail.json"
        code = main(["verify", "--seed", "7", "--trials", "5", "--out", str(replay_path)])
        assert code == EXIT_VERIFY
        replay = json.loads(replay_path.read_text())
        assert replay["failed_trials"]
        for trial in replay["failed_trials"]:
            assert set(trial["failures"]) == {"stability_implies_invertible"}

    def test_negative_trial_count_is_a_config_error(self, tmp_path, capsys):
        replay = write_json(tmp_path / "replay.json", {"seed": 1, "trials": -2})
        for argv in (["--seed", "1", "--trials", "-3"], ["--replay", replay]):
            assert main(["verify", *argv]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.err.startswith("config error: trials must be nonnegative")
            assert "passed" not in captured.out
        assert main(["verify", "--seed", "1", "--trials", "0"]) == EXIT_OK
        assert "passed: 0" in capsys.readouterr().out

    def test_deterministic_output(self, tmp_path):
        blobs = []
        for name in ("v1.txt", "v2.txt"):
            out = tmp_path / name
            main(["verify", "--seed", "9", "--trials", "10", "--out", str(out)])
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_injected_failure_and_replay(self, tmp_path, monkeypatch, capsys):
        doc = matrix_doc(cfb_topology(2))
        doc["matrix"][0][0] = [0.3, 0.0]
        mfile = write_json(tmp_path / "broken.json", doc)
        cfg = write_json(
            tmp_path / "cfg.json", {"topology": "custom", "matrix_file": mfile}
        )
        monkeypatch.chdir(tmp_path)
        replay_path = tmp_path / "fail.json"
        code = main(
            [
                "verify",
                "--seed",
                "5",
                "--trials",
                "5",
                "--config",
                cfg,
                "--out",
                str(replay_path),
            ]
        )
        assert code == EXIT_VERIFY
        replay = json.loads(replay_path.read_text())
        assert replay["seed"] == 5
        assert replay["extra_failures"]
        # replaying the recorded failure reproduces the verdict
        code2 = main(["verify", "--replay", str(replay_path), "--out", str(tmp_path / "f2.json")])
        assert code2 == EXIT_VERIFY


    def test_missing_replay_file_is_config_error(self, tmp_path, capsys):
        code = main(["verify", "--replay", str(tmp_path / "missing.json")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

    def test_replay_file_without_seed_is_config_error(self, tmp_path, capsys):
        replay = write_json(tmp_path / "replay.json", {"trials": 5})
        assert main(["verify", "--replay", replay]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "'seed'" in err


class TestConfigValues:
    """A wrong-typed config value or a non-finite rate is a config error, not a traceback."""

    @pytest.mark.parametrize(
        "command,text",
        [
            ("stability", '{"params": {"x": [0.1], "y": 1.0}, "n_nopas": 2}'),
            ("stability", '{"params": {"x": 0.1, "y": 1.0}, "n_nopas": null}'),
            (
                "stability",
                '{"params": {"x": 0.1, "y": 1.0}, "topology": "custom", "matrix_file": null}',
            ),
            ("compare", '{"x_ref": null}'),
            ("compare", '{"x_ref": 0.078, "y": [1]}'),
            ("compare", '{"preset": ["x10-text"]}'),
            (
                "spectrum",
                '{"params": {"x": 0.1, "y": 1.0}, "n_nopas": 2, '
                '"omega_grid": {"values": [0.0]}, "theta_a": {}}',
            ),
            ("verify", '{"seed": null, "trials": 1}'),
            ("verify", '{"seed": 1, "trials": 1, "config": 5}'),
            ("theorem", '{"params": {"epsilon": 1.0, "gamma": 1e400}, "n_nopas": 2}'),
            ("stability", '{"params": {"epsilon": 1.0, "gamma": 1e400}, "n_nopas": 2}'),
            ("stability", '{"params": {"x": 0.1, "y": 1.0, "gamma_r": 1e400}, "n_nopas": 2}'),
            ("compare", '{"x_ref": 0.1, "n_ref": 0, "n_max": 4}'),
            ("compare", '{"x_ref": 0.1, "n_ref": -4, "n_max": 4}'),
        ],
        ids=[
            "x-list",
            "n_nopas-null",
            "matrix_file-null",
            "x_ref-null",
            "y-list",
            "preset-list",
            "theta_a-object",
            "replay-seed-null",
            "replay-config-int",
            "theorem-gamma-inf",
            "stability-gamma-inf",
            "stability-gamma_r-inf",
            "n_ref-zero",
            "n_ref-negative",
        ],
    )
    def test_bad_value_is_a_config_error(self, tmp_path, capsys, command, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        flag = "--replay" if command == "verify" else "--config"
        assert main([command, flag, str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error")
        assert "Traceback" not in err
        if "n_ref" in text:
            assert "n_ref must be at least 1" in err
            assert not (tmp_path / "out").exists()


class TestUnwritableOut:
    """An --out that cannot be written is a config error naming the path, not a traceback."""

    @staticmethod
    def assert_cannot_write(capsys, argv, path):
        assert main([*argv, "--out", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: cannot write {path}: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["compare", "theorem", "spectrum", "stability"])
    def test_table_into_a_missing_directory(self, tmp_path, capsys, command):
        cfg = {"preset": "x10-text"} if command == "compare" else {
            "params": {"x": 0.05, "y": 1.0},
            "n_nopas": 2,
            "omega_grid": {"values": [0.0, 1e7]},
        }
        argv = [command, "--config", write_json(tmp_path / "cfg.json", cfg)]
        self.assert_cannot_write(capsys, argv, tmp_path / "missing" / "out.csv")

    def test_verify_into_a_directory(self, tmp_path, capsys):
        self.assert_cannot_write(capsys, ["verify", "--trials", "1"], tmp_path)

    def test_verify_replay_into_a_directory(self, tmp_path, capsys):
        doc = matrix_doc(cfb_topology(2))
        doc["matrix"][0][0] = [0.3, 0.0]  # not unitary: the suite fails and writes a replay
        mfile = write_json(tmp_path / "broken.json", doc)
        cfg = write_json(tmp_path / "cfg.json", {"topology": "custom", "matrix_file": mfile})
        self.assert_cannot_write(capsys, ["verify", "--trials", "1", "--config", cfg], tmp_path)


class TestConfigNumbers:
    """Whole-number keys take whole numbers only; a bad number's message names its key."""

    CHAIN = '{"params": {"x": 0.1, "y": 1.0}, "n_nopas": %s}'
    CASES = {
        "n_nopas-half": ("stability", CHAIN % "2.5", "n_nopas"),
        "n_nopas-true": ("stability", CHAIN % "true", "n_nopas"),
        "n_nopas-inf": ("stability", CHAIN % "1e400", "n_nopas"),
        "n_nopas-huge-int": ("stability", CHAIN % ("1" + "0" * 400), "n_nopas"),
        "n_ref-half": ("compare", '{"x_ref": 0.05, "n_ref": 10.5}', "n_ref"),
        "n_ref-inf": ("compare", '{"x_ref": 0.05, "n_ref": 1e400}', "n_ref"),
        "n_min-true": ("compare", '{"x_ref": 0.05, "n_min": true}', "n_min"),
        "n_max-half": ("compare", '{"x_ref": 0.05, "n_max": 3.5}', "n_max"),
        "seed-half": ("verify", '{"seed": 1.5, "trials": 1}', "seed"),
        "trials-true": ("verify", '{"seed": 1, "trials": true}', "trials"),
        "x_ref-inf": ("compare", '{"x_ref": 1e400}', "x_ref"),
        "y-nan": ("compare", '{"x_ref": 0.05, "y": NaN}', "y"),
        "K-inf": ("stability", '{"params": {"x": 0.1, "y": 1.0, "K": 1e400}, "n_nopas": 2}', "K"),
        "K-negative": ("stability", '{"params": {"x": 0.05, "y": 1, "K": -0.1}, "n_nopas": 2}', "K"),
        "gamma_r-zero": ("stability", '{"params": {"x": 0.05, "y": 1, "gamma_r": 0}, "n_nopas": 2}', "gamma_r"),
        "x-true": ("stability", '{"params": {"x": true, "y": 1}, "n_nopas": 2}', "x"),
        "y-true": ("compare", '{"x_ref": 0.05, "y": true}', "y"),
        "theta_a-true": (
            "spectrum",
            '{"params": {"x": 0.1, "y": 1.0}, "n_nopas": 2, '
            '"omega_grid": {"values": [0.0]}, "theta_a": true}',
            "theta_a",
        ),
        "omega-values-true": (
            "spectrum",
            '{"params": {"x": 0.1, "y": 1.0}, "n_nopas": 2, "omega_grid": {"values": [true, 2]}}',
            "omega_grid values",
        ),
        "theta_a-inf": (
            "spectrum",
            '{"params": {"x": 0.1, "y": 1.0}, "n_nopas": 2, '
            '"omega_grid": {"values": [0.0]}, "theta_a": 1e400}',
            "theta_a",
        ),
        "points-inf": (
            "spectrum",
            '{"params": {"x": 0.1, "y": 1.0}, "n_nopas": 2, '
            '"omega_grid": {"start": 0, "stop": 1, "points": 1e400}}',
            "points",
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_bad_number_is_a_config_error_naming_its_key(self, tmp_path, capsys, case):
        command, text, key = self.CASES[case]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        flag = "--replay" if command == "verify" else "--config"
        assert main([command, flag, str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert f"{key} must be" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("n", ["3.0", '"3"'])
    def test_whole_number_of_any_type_counts(self, tmp_path, n):
        outs = []
        for text in (self.CHAIN % "3", self.CHAIN % n):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(text)
            out = tmp_path / f"out{len(outs)}"
            assert main(["stability", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            outs.append(out.read_text())
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) == 3 + 12


def write_matrix_file(path, s, n_nopas):
    path.write_text(json.dumps({"n_nopas": n_nopas, "matrix": [[[z.real, z.imag] for z in row] for row in s]}))
    return str(path)


class TestMatrixFile:
    """A custom interconnect file: its N is a whole number, and a wiring network needs no inverse."""

    def stability_cfg(self, tmp_path, n_nopas):
        mfile = write_matrix_file(tmp_path / "net.json", crossed_wiring(), n_nopas)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"x": 0.002, "y": 1.0, "K": 0.0491}, "topology": "custom", "matrix_file": mfile}))
        return str(cfg)

    def test_stability_of_a_wiring_network(self, tmp_path):
        net = PassiveNetwork.from_complex(crossed_wiring())
        assert net.wiring is not None and not np.array_equal(net.s_complex, cfb_topology(2))
        out = tmp_path / "out"
        assert main(["stability", "--config", self.stability_cfg(tmp_path, 2), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "stable: True"
        assert len(lines) == 3 + 8

    @pytest.mark.parametrize("n_nopas", ["2.5", "true"])
    def test_whole_n_nopas(self, tmp_path, capsys, n_nopas):
        cfg = self.stability_cfg(tmp_path, 2)
        mfile = tmp_path / "net.json"
        mfile.write_text(mfile.read_text().replace('"n_nopas": 2', f'"n_nopas": {n_nopas}'))
        assert main(["stability", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid network: n_nopas must be a whole number")
        assert "Traceback" not in err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["stability"],
            ["bogus"],
            ["verify", "--trials", "abc"],
            ["stability", "--config", "cfg.json", "--format", "csv"],
            ["verify", "--format", "json"],
        ],
    )
    def test_usage_error_is_a_config_error(self, argv, capsys):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("usage: nopanet")
        assert "config error: " in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["stability", "--help"])
        assert done.value.code == EXIT_OK
        assert "--format" not in capsys.readouterr().out

    def test_console_run_exits_with_the_code(self):
        done = subprocess.run(
            [sys.executable, "-m", "nopanet.cli", "stability"],
            env=dict(os.environ, PYTHONPATH=str(Path(nopanet.__file__).parents[1])),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == EXIT_CONFIG
        assert "required: --config" in done.stderr


class TestSharedParser:
    """``main`` parses with one parser per process, and each call answers as a fresh one would."""

    @staticmethod
    def answers(argvs, capsys):
        answered = []
        for argv in argvs:
            code = main(argv)
            captured = capsys.readouterr()
            answered.append((code, captured.out, captured.err))
        return answered

    def test_one_parser_answers_as_fresh_ones(self, tmp_path, capsys, monkeypatch):
        chain = write_json(
            tmp_path / "chain.json",
            {"params": {"x": 0.1, "y": 1.0}, "topology": "cfb", "n_nopas": 3},
        )
        custom = write_json(
            tmp_path / "custom.json",
            {
                "topology": "custom",
                "matrix_file": write_json(tmp_path / "m.json", matrix_doc(cfb_topology(2))),
            },
        )
        # the replay names a config, which verify writes into its namespace
        replay = write_json(tmp_path / "replay.json", {"seed": 4, "trials": 2, "config": custom})
        compare = write_json(tmp_path / "compare.json", {"preset": "x10-caption"})
        argvs = [
            ["stability"],
            ["verify", "--replay", replay],
            ["stability", "--config", chain],
            ["theorem", "--config", chain, "--format", "csv"],
            ["compare", "--config", compare],
            ["verify", "--seed", "3", "--trials", "2"],
        ]
        shared = self.answers(argvs, capsys)
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", build_parser)
        assert shared == self.answers(argvs, capsys)
        assert [code for code, _, _ in shared] == [EXIT_CONFIG] + [EXIT_OK] * 5
        assert "config error: " in shared[0][2]
        assert "custom-matrix unitarity: pass" in shared[1][1]
        assert "custom-matrix" not in shared[-1][1]
        assert build_parser() is not build_parser()


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # the phase optimum is closed form: even a lossy "optimal" spectrum,
    # which takes its phases from vanishing_search, runs on numpy alone
    cfg = write_json(
        tmp_path / "lossy.json",
        {
            "params": {"x": 0.05, "y": 1.0, "K": 0.0276},
            "n_nopas": 4,
            "omega_grid": {"values": [0.0, 1e6]},
            "theta_a": "optimal",
            "theta_b": "optimal",
        },
    )
    env = dict(os.environ, PYTHONPATH=str(Path(nopanet.__file__).parents[1]))
    argv = ["spectrum", "--config", cfg, "--out", str(tmp_path / "spec.csv")]
    probe = (
        "import sys, nopanet, nopanet.cli; "
        f"code = nopanet.cli.main({argv!r}); print(code, 'scipy' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0 False"
