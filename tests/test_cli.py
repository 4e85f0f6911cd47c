"""End-to-end command tests: exit codes, determinism, failure replay."""

import json
import math

import numpy as np
import pytest

from nopanet import cfb_topology, closed_form, static_coefficients
from nopanet.cli import EXIT_CONFIG, EXIT_OK, EXIT_UNSTABLE, EXIT_VERIFY, main


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

    def test_decreasing_grid_rejected(self, tmp_path):
        cfg = self.spectrum_cfg(tmp_path, omega_grid={"values": [1.0, 0.5]})
        assert main(["spectrum", "--config", cfg]) == EXIT_CONFIG


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

    def test_lossy_rejected(self, tmp_path):
        cfg = write_json(
            tmp_path / "lossy.json",
            {"params": {"x": 0.1, "y": 1.0, "K": 0.05}, "topology": "cfb", "n_nopas": 2},
        )
        assert main(["theorem", "--config", cfg]) == EXIT_CONFIG


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
