import json
from pathlib import Path

import numpy as np
import pytest

import clineshoot.shooting as shooting
from clineshoot import __version__, timemap
from clineshoot.cli import main
from clineshoot.integrator import BlowupError

REPO_CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture()
def prop1_config(tmp_path, prop1):
    path = tmp_path / "prop1.json"
    path.write_text(prop1.problem.to_json())
    return str(path)


@pytest.fixture()
def prop2_config(tmp_path, prop2):
    path = tmp_path / "prop2.json"
    path.write_text(prop2.problem.to_json())
    return str(path)


@pytest.fixture()
def out_dir(tmp_path, monkeypatch):
    d = tmp_path / "out"
    monkeypatch.setenv("CLINE_SEED_DIR", str(d))
    return d


def data_lines(path):
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


class TestCheckF:
    def test_in_scope_config(self, prop1_config, capsys):
        assert main(["check-f", prop1_config]) == 0
        out = capsys.readouterr().out
        assert "in conjecture scope: True" in out

    def test_positive_mean_fails_hypotheses(self, tmp_path, capsys):
        cfg = tmp_path / "posmean.json"
        cfg.write_text(json.dumps({
            "weight": {"alpha": 0.1, "omega1": -0.21, "omega2": 0.2},
            "f": {"kind": "degree_of_dominance", "k": 0.0},
            "lambda": 45.0,
        }))
        assert main(["check-f", str(cfg)]) == 1
        out = capsys.readouterr().out
        assert "(negative: False)" in out
        assert "in conjecture scope: False" in out

    def test_truncated_json(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text('{"weight": {')
        assert main(["check-f", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_missing_file(self, tmp_path):
        assert main(["check-f", str(tmp_path / "nope.json")]) == 2

    def test_unknown_kind(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "weight": {"alpha": 1.0, "omega1": -0.21, "omega2": 0.2},
            "f": {"kind": "cubic"}, "lambda": 45.0,
        }))
        assert main(["check-f", str(cfg)]) == 2

    @pytest.mark.parametrize("f, key", [
        ({"kind": "hat", "h": None}, "f.h"),
        ({"kind": "hat", "h": "x"}, "f.h"),
        ({"kind": "hat", "h": True}, "f.h"),
        ({"kind": "hat", "h": float("inf")}, "f.h"),
        ({"kind": "degree_of_dominance", "k": False}, "f.k"),
        ({"kind": "arctan_damped", "m": [1]}, "f.m"),
        ({"kind": "poly", "coeffs": 5}, "f.coeffs"),
        ({"kind": "poly", "coeffs": [None]}, "f.coeffs[0]"),
        ({"kind": "poly", "coeffs": [0, 1, True]}, "f.coeffs[2]"),
    ], ids=["h-null", "h-string", "h-true", "h-infinite", "k-false", "m-list",
            "coeffs-number", "coeffs-null", "coeffs-true"])
    def test_non_numeric_f_parameter(self, tmp_path, capsys, f, key):
        cfg = tmp_path / "bad_f.json"
        cfg.write_text(json.dumps({
            "weight": {"alpha": 1.0, "omega1": -0.21, "omega2": 0.2},
            "f": f, "lambda": 45.0,
        }))
        assert main(["check-f", str(cfg)]) == 2
        assert f"'{key}' must be " in capsys.readouterr().err

    @pytest.mark.parametrize("change, key", [
        ({"weight": {"alpha": -1.0, "omega1": -0.21, "omega2": 0.2}}, "weight.alpha"),
        ({"weight": {"alpha": 1.0, "omega1": 0.2, "omega2": 0.2}}, "weight.omega1"),
        ({"weight": {"alpha": 1.0, "omega1": -0.21, "omega2": 0.0}}, "weight.omega2"),
        ({"lambda": 0.0}, "lambda"),
        ({"f": {"kind": "degree_of_dominance", "k": 1.5}}, "f.k"),
        ({"f": {"kind": "hat", "h": -3.0}}, "f.h"),
        ({"f": {"kind": "arctan_damped", "m": 0.0}}, "f.m"),
        ({"f": {"kind": "poly", "coeffs": []}}, "f.coeffs"),
    ], ids=["alpha", "omega1", "omega2", "lambda", "k", "h", "m", "coeffs-empty"])
    def test_out_of_range_value_names_its_key(self, tmp_path, capsys, change, key):
        cfg = tmp_path / "out_of_range.json"
        cfg.write_text(json.dumps({
            "weight": {"alpha": 1.0, "omega1": -0.21, "omega2": 0.2},
            "f": {"kind": "hat", "h": 3.0}, "lambda": 45.0, **change,
        }))
        assert main(["check-f", str(cfg)]) == 2
        assert f"'{key}' must " in capsys.readouterr().err


class TestShoot:
    def test_probe_trajectory(self, prop1_config, out_dir, capsys):
        assert main(["shoot", prop1_config, "--r", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "terminal point: (0.230" in out
        csv = out_dir / "shoot_r0.1.csv"
        rows = data_lines(csv)
        assert rows[0] == "x,u,v"
        assert csv.read_text().startswith("# config_digest: sha256:")

    def test_file_records_its_height(self, prop2_config, out_dir):
        # the file name rounds r to 6 significant digits, so both heights
        # write shoot_r0.383454.csv; only its r: line tells them apart
        for r in ("0.38345441948", "0.3834544"):
            assert main(["shoot", prop2_config, "--r", r]) == 0
            header = (out_dir / "shoot_r0.383454.csv").read_text().split("x,u,v\n")[0]
            assert header.endswith(f"# r: {float(r):.17g}\n")

    def test_zero_initial_height(self, prop1_config, out_dir, capsys):
        assert main(["shoot", prop1_config, "--r", "0"]) == 0
        assert "terminal point: (0, 0)" in capsys.readouterr().out

    def test_blowup_exit_code(self, prop1_config, out_dir, capsys):
        assert main(["shoot", prop1_config, "--r", "5"]) == 3
        assert "blow-up at x" in capsys.readouterr().err


class TestGamma:
    def test_rows_and_first_entry(self, prop1_config, out_dir):
        assert main(["gamma", prop1_config, "--resolution", "101"]) == 0
        rows = data_lines(out_dir / "gamma.csv")
        assert rows[0] == "r,u_end,v_end,status"
        assert rows[1] == "0,0,0,ok"
        assert len(rows) == 1 + 101

    def test_sign_alternations_reported(self, prop1_config, out_dir, capsys):
        assert main(["gamma", prop1_config, "--resolution", "401"]) == 0
        out = capsys.readouterr().out
        changes = int(out.split("rows,")[1].split("interior sign changes")[0])
        assert changes >= 3

    def test_bad_resolution(self, prop1_config, out_dir):
        assert main(["gamma", prop1_config, "--resolution", "10"]) == 2


class TestFind:
    def test_first_instance_outputs(self, prop1_config, out_dir):
        assert main(["find", prop1_config, "--resolution", "201"]) == 0
        payload = json.loads((out_dir / "clines.json").read_text())
        assert len(payload["clines"]) == 3
        assert payload["manifest"]["version"] == __version__
        assert payload["manifest"]["config_digest"].startswith("sha256:")
        assert payload["settings"] == {"resolution": 201, "tol_r": 1e-12, "tol_v": 1e-10,
                                       "target_step": 1e-4, "blowup_bound": 1e3}
        assert payload["trajectory_files"] == ["cline_1.csv", "cline_2.csv",
                                               "cline_3.csv"]
        for name in payload["trajectory_files"]:
            assert (out_dir / name).exists()
        cs = [c["c"] for c in payload["clines"]]
        for c, ref in zip(cs, (0.125, 0.479, 0.683)):
            assert abs(c - ref) < 0.005

    def test_trivial_profiles_written(self, prop1_config, out_dir):
        assert main(["find", prop1_config, "--resolution", "201"]) == 0
        for name, level in (("trivial_0.csv", "0"), ("trivial_1.csv", "1")):
            rows = data_lines(out_dir / name)
            assert rows[0] == "x,u,v"
            assert all(r.split(",")[1] == level for r in rows[1:])

    def test_no_brackets_exit_code(self, tmp_path, out_dir):
        cfg = tmp_path / "flat.json"
        cfg.write_text(json.dumps({
            "weight": {"alpha": 1.0, "omega1": -0.21, "omega2": 0.2},
            "f": {"kind": "degree_of_dominance", "k": 0.0},
            "lambda": 0.001,
        }))
        assert main(["find", str(cfg)]) == 4

    def test_trivial_profile_blowup_exit_code(self, tmp_path, out_dir, capsys):
        # f(0) = 5, so u = 0 is no equilibrium and its constant profile is
        # no solution: it blows up
        cfg = tmp_path / "offset.json"
        cfg.write_text(json.dumps({
            "weight": {"alpha": 1.0, "omega1": -0.21, "omega2": 0.2},
            "f": {"kind": "poly", "coeffs": [5, 1, -1]},
            "lambda": 400.0,
        }))
        assert main(["find", str(cfg), "--resolution", "101"]) == 3
        err = capsys.readouterr().err
        assert "blow-up on the trivial profile u = 0 (trivial_0.csv) at x = " in err
        assert not out_dir.exists()

    def test_nonzero_f_at_a_trivial_level_exit_code(self, tmp_path, out_dir, capsys):
        # f(0) = 0.001 is too small to blow up, but u = 0 is still no
        # equilibrium, so there is no constant profile to write
        cfg = tmp_path / "small_offset.json"
        cfg.write_text(json.dumps({
            "weight": {"alpha": 1.0, "omega1": -0.21, "omega2": 0.2},
            "f": {"kind": "poly", "coeffs": [0.001, 1, -1]},
            "lambda": 45.0,
        }))
        assert main(["find", str(cfg), "--resolution", "101"]) == 3
        err = capsys.readouterr().err
        assert "f(0) = 0.001: the trivial profile u = 0 (trivial_0.csv) is no " in err
        assert not out_dir.exists()

    def test_lost_bracket_is_reported(self, prop1_config, out_dir, monkeypatch, capsys):
        # with no time-map root, the first bracket is refined on the map, and
        # every height strictly inside it blows up; the sweep's re-shots hit
        # grid nodes only and still run
        nodes = set(np.linspace(0.0, 1.0, 201).tolist())
        real_map = shooting.poincare_map
        lost = []

        def blow_up_inside(p, cfg, z0):
            if 0.1 < z0.u < 0.4 and z0.u not in nodes:
                lost.append(z0.u)
                raise BlowupError(0.05, 2.0 * cfg.blowup_bound, 0.0)
            return real_map(p, cfg, z0)

        monkeypatch.setattr(timemap, "find_root", lambda p, lo, hi, tol: None)
        monkeypatch.setattr(shooting, "poincare_map", blow_up_inside)
        assert main(["find", prop1_config, "--resolution", "201"]) == 0
        out = capsys.readouterr().out
        payload = json.loads((out_dir / "clines.json").read_text())
        assert len(payload["clines"]) == 2 and payload["bracket_count"] == 3
        (failure,) = payload["failures"]
        (r,) = lost
        lo, hi = failure["bracket"]
        assert 0.1 < lo < r < hi < 0.4 and failure["r"] == r
        reason = f"blow-up at r={r:.17g} inside bracket [{lo:.17g}, {hi:.17g}]"
        assert failure == {"bracket": [lo, hi], "r": r, "reason": reason}
        assert f"\nbracket lost: {reason}\n" in out

    @pytest.mark.skipif(not REPO_CONFIGS.exists(), reason="repo configs not present")
    def test_bad_tolerance_rejected_before_sweep(self, out_dir, monkeypatch, capsys):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the tolerances were checked")

        monkeypatch.setattr("clineshoot.shooting.sweep_terminals", no_sweep)
        assert main(["find", str(REPO_CONFIGS / "prop2.json"), "--tol-v", "0"]) == 2
        assert "tol_v" in capsys.readouterr().err
        assert not (out_dir / "clines.json").exists()

    def test_bad_tolerance_without_brackets(self, tmp_path, out_dir, capsys):
        # no bracket means no refinement; the tolerance is still rejected
        cfg = tmp_path / "flat.json"
        cfg.write_text(json.dumps({
            "weight": {"alpha": 1.0, "omega1": -0.21, "omega2": 0.2},
            "f": {"kind": "degree_of_dominance", "k": 0.0},
            "lambda": 0.001,
        }))
        assert main(["find", str(cfg), "--tol-r", "-1"]) == 2
        assert "tol_r" in capsys.readouterr().err

    def test_bracketing_line_on_stderr(self, prop1_config, out_dir, capsys):
        assert main(["find", prop1_config, "--resolution", "201"]) == 0
        err = capsys.readouterr().err
        assert "bracketing: coarse steps 0.00205 and 0.001025, E = " in err
        assert "bracketing" not in (out_dir / "clines.json").read_text()
        assert main(["find", prop1_config, "--resolution", "201", "--step", "1e-3"]) == 0
        assert "bracketing: direct sweep (coarse sweeps would take" in capsys.readouterr().err

    def test_help_shows_the_default_resolution(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["find", "--help"])
        assert exc_info.value.code == 0
        assert "(default 2001)" in " ".join(capsys.readouterr().out.split())

    def test_determinism(self, prop1_config, tmp_path, monkeypatch):
        outputs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            monkeypatch.setenv("CLINE_SEED_DIR", str(d))
            assert main(["find", prop1_config, "--resolution", "201"]) == 0
            outputs.append({p.name: p.read_bytes()
                            for p in sorted(d.iterdir())})
        assert outputs[0] == outputs[1]


class TestReproduce:
    def test_reports_and_exit(self, out_dir, capsys):
        code = main(["reproduce", "--resolution", "801", "--step", "5e-4"])
        out = capsys.readouterr().out
        # first instance reproduces; the second's published initial heights
        # are terminal abscissae, so its c comparison honestly fails
        assert "instance proposition-1" in out
        assert "verdict: PASS" in out
        assert "instance proposition-2" in out
        assert "verdict: FAIL" in out
        assert code == 1
        payload = json.loads((out_dir / "reproduce.json").read_text())
        assert payload["reports"][0]["passed"] is True
        assert payload["reports"][1]["passed"] is False


@pytest.mark.skipif(not REPO_CONFIGS.exists(), reason="repo configs not present")
class TestShippedConfigs:
    def test_bundled_configs_parse_and_validate(self, capsys):
        for name in ("prop1.json", "prop2.json", "remark_concave.json"):
            assert main(["check-f", str(REPO_CONFIGS / name)]) == 0
