import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import clineshoot.cli as cli
import clineshoot.integrator as integrator
import clineshoot.shooting as shooting
from clineshoot import __version__, timemap
from clineshoot.cli import CSV_CHUNK_ROWS, XUV_ROW, _write_csv, main
from clineshoot.integrator import (
    BLOWUP_BOUND,
    BlowupError,
    GammaCurve,
    IntegratorConfig,
    PhasePoint,
    coarsest_step,
    integrate,
    step_plan,
    sweep_terminals,
)
from clineshoot.reproduction import NamedInstance, remark_instances

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


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def chosen_step(p, resolution):
    """choose_step's (step, note) for E of the two coarse sweeps, tol_v 1e-10."""
    inner = np.linspace(0.0, 1.0, resolution)[1:-1]
    h = coarsest_step(p)   # H
    wide, half = (sweep_terminals(p, IntegratorConfig(target_step=t), inner)
                  for t in (h, 0.5 * h))
    error = float(np.nanmax(np.abs(wide.v_end - half.v_end))) / 15.0
    return shooting.choose_step(p, error, 1e-10)


class TestWriteCsv:
    def test_header_and_rows(self, prop1, tmp_path):
        traj = integrate(prop1.problem, IntegratorConfig(target_step=1e-2),
                         PhasePoint(0.4, 0.0))
        path = tmp_path / "traj.csv"
        _write_csv(path, {"alpha": 1.0, "resolution": 11, "version": "x"}, "x,u,v",
                   (traj.xs, traj.us, traj.vs), XUV_ROW)
        lines = path.read_text().splitlines()
        assert lines[:4] == ["# alpha: 1", "# resolution: 11", "# version: x", "x,u,v"]
        assert len(lines) == 4 + len(traj.xs)
        first = lines[4].split(",")
        assert float(first[0]) == prop1.problem.weight.omega1

    def test_rows_match_per_element_format(self, prop2, tmp_path):
        # at the default step the trajectory has 8551 samples, not a
        # multiple of the chunk
        traj = integrate(prop2.problem, IntegratorConfig(), PhasePoint(0.4, 0.0))
        n = len(traj.xs)
        assert n > CSV_CHUNK_ROWS and n % CSV_CHUNK_ROWS
        expected = "x,u,v\n" + "".join(
            f"{traj.xs[i]:.17g},{traj.us[i]:.17g},{traj.vs[i]:.17g}\n" for i in range(n))
        path = tmp_path / "traj.csv"
        _write_csv(path, {}, "x,u,v", (traj.xs, traj.us, traj.vs), XUV_ROW)
        assert path.read_text() == expected


class TestCheckF:
    def test_in_scope_config(self, prop1_config, capsys):
        assert main(["check-f", prop1_config]) == 0
        out = capsys.readouterr().out
        assert "in conjecture scope: True" in out

    # SHA-256 of the stdout, which prints f'(0) and f'(1) at 17 digits; these
    # polynomial f call no libm, so the bytes do not depend on the CPU
    @pytest.mark.parametrize("config, digest", [
        ("prop1.json", "5dbeb4d4867a8993a09aa9a826e51ee2e9e4e2d39fef4b96a97e67549b0664d2"),
        ("remark_concave.json", "d6ee0bb9e39c087731d1148a04e2898197f740d581778b24d6379001bcf1b4dd"),
    ])
    def test_stdout_is_pinned(self, config, digest, capsys):
        assert main(["check-f", str(REPO_CONFIGS / config)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

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

    @pytest.mark.parametrize("raw, message", [
        (b'{"weight": {', "parse error at line 1 column 13"),
        (b'{"lambda": 45.0, "f": "\xff"}', "is not UTF-8"),
    ], ids=["truncated", "not-utf-8"])
    def test_unparsable_config(self, tmp_path, capsys, raw, message):
        cfg = tmp_path / "broken.json"
        cfg.write_bytes(raw)
        assert main(["check-f", str(cfg)]) == 2
        assert message in capsys.readouterr().err

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
        # json parses a 400-digit integer to an int that float() overflows on
        ({"lambda": 10**400}, "lambda"),
        ({"weight": {"alpha": 10**400, "omega1": -0.21, "omega2": 0.2}}, "weight.alpha"),
        ({"f": {"kind": "hat", "h": 10**400}}, "f.h"),
        ({"f": {"kind": "poly", "coeffs": [0, 1, -10**400]}}, "f.coeffs[2]"),
        ({"weight": 1}, "weight"),
        ({"f": [1]}, "f"),
        ({"f": {"h": 3.0}}, "f"),
        ({"f": {"kind": "tent", "h": 3.0}}, "f.kind"),
    ], ids=["alpha", "omega1", "omega2", "lambda", "k", "h", "m", "coeffs-empty",
            "lambda-huge-int", "alpha-huge-int", "h-huge-int", "coeffs-huge-int",
            "weight-number", "f-list", "f-no-kind", "f-unknown-kind"])
    def test_out_of_range_value_names_its_key(self, tmp_path, capsys, change, key):
        cfg = tmp_path / "out_of_range.json"
        cfg.write_text(json.dumps({
            "weight": {"alpha": 1.0, "omega1": -0.21, "omega2": 0.2},
            "f": {"kind": "hat", "h": 3.0}, "lambda": 45.0, **change,
        }))
        assert main(["check-f", str(cfg)]) == 2
        assert f"'{key}' must " in capsys.readouterr().err

    @pytest.mark.parametrize("change, key", [
        ({"step": 0.01}, "step"),
        ({"weight": {"alpha": 1.0, "omega1": -0.21, "omega2": 0.2, "alpha2": 3.0}},
         "weight.alpha2"),
        ({"f": {"kind": "hat", "h": 3.0, "k": 1.0}}, "f.k"),
        ({"f": {"kind": "degree_of_dominance", "k": 0.0, "h": 3.0}}, "f.h"),
        ({"f": {"kind": "arctan_damped", "m": 10.0, "M": 10.0}}, "f.M"),
        ({"f": {"kind": "poly", "coeffs": [0, 1, -1], "coefs": [0, 1]}}, "f.coefs"),
    ], ids=["top-level", "weight", "hat", "degree_of_dominance", "arctan_damped", "poly"])
    def test_unknown_key_names_it(self, tmp_path, capsys, change, key):
        # a misspelt or misplaced key would otherwise be ignored in silence
        cfg = tmp_path / "stray.json"
        cfg.write_text(json.dumps({
            "weight": {"alpha": 1.0, "omega1": -0.21, "omega2": 0.2},
            "f": {"kind": "hat", "h": 3.0}, "lambda": 45.0, **change,
        }))
        assert main(["check-f", str(cfg)]) == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["check-f"], ["shoot", "--r", "0.5"], ["gamma"],
                                     ["find"]], ids=lambda c: c[0])
def test_habitat_with_overflowing_span_and_mean(tmp_path, out_dir, capsys, command):
    # every number is finite, but omega2 - omega1 and alpha omega1 + omega2 are not
    cfg = tmp_path / "vast.json"
    cfg.write_text(json.dumps({
        "weight": {"alpha": 1e308, "omega1": -1e308, "omega2": 1e308},
        "f": {"kind": "hat", "h": 3.0}, "lambda": 45.0,
    }))
    assert main([command[0], str(cfg)] + command[1:]) == 2
    assert "'weight' must have a finite span and mean, got span inf and mean -inf" in (
        capsys.readouterr().err)
    assert not out_dir.exists()


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
@pytest.mark.parametrize("command", [["shoot", "--r", "0.5"], ["gamma"], ["find"],
                                     ["reproduce"]], ids=lambda c: c[0])
def test_unusable_output_dir_exits_2_before_any_march(tmp_path, monkeypatch, capsys,
                                                       prop1_config, command, below):
    # CLINE_SEED_DIR names a regular file, or a path below one: no directory
    # can be made there, which must be said before a single RK4 step runs
    blocker = tmp_path / "taken"
    blocker.write_text("")
    target = blocker / "out" if below else blocker
    monkeypatch.setenv("CLINE_SEED_DIR", str(target))

    def no_march(*args, **kwargs):
        raise AssertionError("a march ran before the output directory was checked")

    monkeypatch.setattr(integrator, "_march", no_march)
    monkeypatch.setattr(integrator, "_march_batch", no_march)
    argv = command[:1] + ([] if command[0] == "reproduce" else [prop1_config]) + command[1:]
    assert main(argv) == 2
    assert f"CLINE_SEED_DIR={target} is no usable output directory" in capsys.readouterr().err
    assert blocker.read_text() == ""


@pytest.mark.parametrize("command, message", [
    (["shoot", "--r", "nan"], "phase point must be finite"),
    (["gamma", "--resolution", "5"], "resolution must be >= 11"),
    (["find", "--resolution", "5"], "resolution must be >= 11"),
    (["reproduce", "--resolution", "5"], "resolution must be >= 11"),
    # numpy refuses 8 TB grids at once, allocating nothing
    (["gamma", "--resolution", "1000000000000"], "resolution 1000000000000 is too large"),
    (["find", "--resolution", "1000000000000"], "resolution 1000000000000 is too large"),
    (["reproduce", "--resolution", "1000000000000"], "resolution 1000000000000 is too large"),
    (["check-f", "--grid-size", "1000000000000"], "grid_size 1000000000000 is too large"),
], ids=["shoot", "gamma", "find", "reproduce", "gamma-huge", "find-huge", "reproduce-huge",
        "check-f-huge"])
def test_bad_input_makes_no_output_dir(out_dir, capsys, prop1_config, command, message):
    argv = command[:1] + ([] if command[0] == "reproduce" else [prop1_config]) + command[1:]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


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
        # the file name holds the shortest repr of r, so two heights that
        # agree to 6 significant digits write two files
        for r in ("0.38345441948", "0.3834544"):
            assert main(["shoot", prop2_config, "--r", r]) == 0
            header = (out_dir / f"shoot_r{r}.csv").read_text().split("x,u,v\n")[0]
            assert header.endswith(f"# r: {float(r):.17g}\n")
        assert len(list(out_dir.glob("shoot_r*.csv"))) == 2

    def test_zero_initial_height(self, prop1_config, out_dir, capsys):
        assert main(["shoot", prop1_config, "--r", "0"]) == 0
        assert "terminal point: (0, 0)" in capsys.readouterr().out
        assert (out_dir / "shoot_r0.0.csv").exists()

    def test_blowup_exit_code(self, prop1_config, out_dir, capsys):
        assert main(["shoot", prop1_config, "--r", "5"]) == 3
        assert "blow-up at x" in capsys.readouterr().err

    def test_output_bytes_are_pinned(self, out_dir):
        # polynomial f, so the bits do not depend on the CPU (see TestGamma)
        assert main(["shoot", str(REPO_CONFIGS / "prop1.json"), "--r", "0.1"]) == 0
        assert sha256(out_dir / "shoot_r0.1.csv") == (
            "cd987f21c402ff9a0c5cd26996c0665143b5699e248a4a56785fe2024144e14b")


class TestGamma:
    def test_rows_and_first_entry(self, prop1_config, out_dir):
        assert main(["gamma", prop1_config, "--resolution", "101"]) == 0
        rows = data_lines(out_dir / "gamma.csv")
        assert rows[0] == "r,u_end,v_end,status"
        assert rows[1] == "0,0,0,ok"
        assert len(rows) == 1 + 101

    def test_rows_match_per_element_format(self, prop1_config, out_dir, monkeypatch):
        # a blown column holds nan, as sweep_terminals leaves it, and its row
        # reads r,nan,nan,blowup; the rows span two chunks and part of a third
        rng = np.random.default_rng(7)
        n = 2 * CSV_CHUNK_ROWS + 5
        ok = rng.random(n) > 0.1
        g = GammaCurve(rs=np.linspace(0.0, 1.0, n),
                       u_end=np.where(ok, rng.normal(size=n), np.nan),
                       v_end=np.where(ok, rng.normal(size=n) * 1e-7, np.nan))
        monkeypatch.setattr(cli, "build_gamma", lambda p, cfg, resolution: g)
        assert main(["gamma", prop1_config, "--resolution", str(n)]) == 0
        expected = "r,u_end,v_end,status\n" + "".join(
            f"{g.rs[i]:.17g},{g.u_end[i]:.17g},{g.v_end[i]:.17g},ok\n" if ok[i]
            else f"{g.rs[i]:.17g},nan,nan,blowup\n" for i in range(n))
        text = (out_dir / "gamma.csv").read_text()
        assert text[text.index("r,u_end"):] == expected
        assert text.count(",blowup\n") == int((~ok).sum()) > 0

    def test_sign_alternations_reported(self, prop1_config, out_dir, capsys):
        assert main(["gamma", prop1_config, "--resolution", "401"]) == 0
        out = capsys.readouterr().out
        assert int(out.split("rows,")[1].split("brackets")[0]) >= 3

    @pytest.mark.parametrize("v", [1e-14, 0.0], ids=["near-zero", "exact-zero"])
    def test_count_is_the_bracket_count_at_a_tangency(self, prop1_config, out_dir,
                                                      monkeypatch, capsys, v):
        # v_end touches zero at one node without changing sign: one exact
        # root, the one bracket find would refine
        g = GammaCurve(rs=np.linspace(0.0, 1.0, 11), u_end=np.full(11, 0.5),
                       v_end=np.array([0.0] + [-1.0] * 4 + [v] + [-1.0] * 4 + [0.0]))
        monkeypatch.setattr(cli, "build_gamma", lambda p, cfg, resolution: g)
        assert main(["gamma", prop1_config, "--resolution", "11"]) == 0
        assert len(shooting.find_brackets(g)) == 1
        assert "11 rows, 1 brackets, 0 blow-ups\n" in capsys.readouterr().out

    def test_bad_resolution(self, prop1_config, out_dir):
        assert main(["gamma", prop1_config, "--resolution", "10"]) == 2

    # SHA-256 of gamma.csv before the RK4 kernel and f went to in-place
    # arithmetic. These families' f use only + - *, whose IEEE results do
    # not depend on the CPU; prop-2's np.exp/np.arctan bits may, so it is
    # not pinned. The header holds the config's digest and the version.
    @pytest.mark.parametrize("config, digest", [
        ("prop1.json", "f19846314a2d2e3b52dc366b7e82909c6879d3bb8be9d751cb2345931ce4e6ff"),
        ("remark_concave.json", "44e749ab2221b43d8df5f1dcd8b4af83b3376a4054561bd7d4c227f0e1d1ff7f"),
    ])
    def test_output_bytes_are_pinned(self, out_dir, config, digest):
        assert main(["gamma", str(REPO_CONFIGS / config), "--resolution", "201"]) == 0
        assert sha256(out_dir / "gamma.csv") == digest

    def test_blown_rows_are_pinned(self, tmp_path, out_dir, capsys):
        # remark-no-dominance at lambda = 300: 108 of the 201 heights blow up
        # and are written as r,nan,nan,blowup; the digest covers the config's
        # bytes, which to_json fixes
        cfg = tmp_path / "remark0_300.json"
        cfg.write_text(replace(remark_instances()[0].problem, lam=300.0).to_json())
        assert main(["gamma", str(cfg), "--resolution", "201"]) == 0
        assert "108 blow-ups" in capsys.readouterr().out
        assert sha256(out_dir / "gamma.csv") == (
            "bba7dc6d77635f756f1d65f3f4b03d654bc1571e5622e64efcdd910f8e6026c2")


class TestFind:
    def test_first_instance_outputs(self, prop1_config, out_dir):
        assert main(["find", prop1_config, "--resolution", "201", "--step", "1e-4"]) == 0
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

    def test_profiles_share_the_search_grid(self, prop2, prop2_search):
        # find formats this x grid once, for every cline_<i> and trivial_<level> file
        result, _ = prop2_search
        xs, _ = integrator.sample_grid(prop2.problem, IntegratorConfig(result.bracketing.step))
        assert len(result.clines) == 3 and len(result.rejected) == 1
        for cline in result.clines + result.rejected:
            assert np.array_equal(cline.trajectory.xs, xs)

    def test_trivial_profiles_written(self, prop1_config, out_dir):
        # constant profiles on the sample grid of the clines' integrations
        assert main(["find", prop1_config, "--resolution", "201"]) == 0
        xs = [r.split(",")[0] for r in data_lines(out_dir / "cline_1.csv")]
        for name, level in (("trivial_0.csv", "0"), ("trivial_1.csv", "1")):
            rows = data_lines(out_dir / name)
            assert rows[0] == "x,u,v"
            assert [r.split(",")[0] for r in rows] == xs
            assert all(r.split(",")[1:] == [level, "0"] for r in rows[1:])

    @pytest.mark.parametrize("f, lam, flags, message", [
        ({"kind": "degree_of_dominance", "k": 0.0}, 0.001, [],
         "no brackets found at this resolution"),
        # f = 0 makes every height a constant steady state: 9 exact
        # brackets, each rejected as constant
        ({"kind": "poly", "coeffs": [0]}, 45.0, ["--resolution", "11"],
         "brackets found but no validated cline"),
    ], ids=["no-brackets", "all-rejected"])
    def test_no_brackets_exit_code(self, tmp_path, prop1, out_dir, capsys, f, lam, flags,
                                   message):
        cfg = tmp_path / "flat.json"
        cfg.write_text(json.dumps({"weight": prop1.problem.weight.to_dict(), "f": f,
                                   "lambda": lam}))
        assert main(["find", str(cfg)] + flags) == 4
        assert capsys.readouterr().err.endswith(message + "\n")

    @pytest.mark.parametrize("coeffs, lam, f0", [([5, 1, -1], 400.0, "5"),
                                                ([0.001, 1, -1], 45.0, "0.001")],
                             ids=["profile-blows-up", "profile-drifts"])
    def test_nonzero_f_at_a_trivial_level_exit_code(self, tmp_path, out_dir, monkeypatch,
                                                    capsys, coeffs, lam, f0):
        # u = 0 is no equilibrium, whether its profile would blow up (f(0) = 5)
        # or only drift (f(0) = 0.001), so there is no constant profile to
        # write; f says so before any height is swept
        sweeps = []
        real_sweep = shooting.sweep_terminals
        monkeypatch.setattr(shooting, "sweep_terminals",
                            lambda *args: sweeps.append(args) or real_sweep(*args))
        cfg = tmp_path / "offset.json"
        cfg.write_text(json.dumps({
            "weight": {"alpha": 1.0, "omega1": -0.21, "omega2": 0.2},
            "f": {"kind": "poly", "coeffs": coeffs},
            "lambda": lam,
        }))
        assert main(["find", str(cfg), "--resolution", "101"]) == 3
        assert capsys.readouterr().err == (
            f"f(0) = {f0}: the trivial profile u = 0 (trivial_0.csv) is no steady state; "
            "no files written\n")
        assert not out_dir.exists()
        assert sweeps == []

    def test_constant_steady_state_is_rejected(self, tmp_path, prop1, out_dir, capsys):
        # f = s (1 - s) (s - 1/2) vanishes at 1/2, so u = 1/2 is a steady
        # state, and a constant one: no cline
        cfg = tmp_path / "cubic.json"
        cfg.write_text(json.dumps({"weight": prop1.problem.weight.to_dict(),
                                   "f": {"kind": "poly", "coeffs": [0, -0.5, 1.5, -1]},
                                   "lambda": 45.0}))
        assert main(["find", str(cfg), "--resolution", "101"]) == 0
        payload = json.loads((out_dir / "clines.json").read_text())
        assert len(payload["clines"]) == 2
        (rejected,) = payload["rejected"]
        assert rejected["c"] == rejected["min_u"] == rejected["max_u"] == 0.5
        assert rejected["rejection_reason"] == "trajectory is constant (u = 5.000e-01)"
        assert "rejected: c = 0.5 (trajectory is constant" in capsys.readouterr().out

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
                raise BlowupError(0.05, 2.0 * BLOWUP_BOUND, 0.0)
            return real_map(p, cfg, z0)

        monkeypatch.setattr(timemap, "find_roots", lambda p, spans, tol: [None] * len(spans))
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
    @pytest.mark.parametrize("flag, value, name", [
        ("--tol-v", "0", "tol_v"), ("--tol-v", "inf", "tol_v"),
        ("--tol-r", "inf", "tol_r"), ("--step", "inf", "target_step")])
    def test_bad_value_rejected_before_sweep(self, out_dir, monkeypatch, capsys,
                                             flag, value, name):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the values were checked")

        monkeypatch.setattr("clineshoot.shooting.sweep_terminals", no_sweep)
        assert main(["find", str(REPO_CONFIGS / "prop2.json"), flag, value]) == 2
        assert f"{name} must be finite and > 0, got {float(value)}" in capsys.readouterr().err
        assert not out_dir.exists()

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
        assert main(["find", prop1_config, "--resolution", "201", "--step", "1e-4"]) == 0
        err = capsys.readouterr().err
        assert "bracketing: coarse steps 0.0041 and 0.00205, E = " in err
        assert "bracketing" not in (out_dir / "clines.json").read_text()
        assert main(["find", prop1_config, "--resolution", "201", "--step", "2e-3"]) == 0
        assert "bracketing: direct sweep (coarse sweeps would take" in capsys.readouterr().err

    def test_chosen_step_in_manifest(self, prop1_config, prop1, out_dir, capsys):
        p = prop1.problem
        step, note = chosen_step(p, 201)
        assert main(["find", prop1_config, "--resolution", "201"]) == 0
        assert capsys.readouterr().err.startswith(f"step: {step:.3g}{note}\nbracketing: ")
        payload = json.loads((out_dir / "clines.json").read_text())
        assert payload["manifest"]["target_step"] == payload["settings"]["target_step"] == step
        assert len(payload["clines"]) == 3
        n1, _, n2, _ = step_plan(p, IntegratorConfig(target_step=step))
        for name in payload["trajectory_files"] + ["trivial_0.csv", "trivial_1.csv"]:
            text = (out_dir / name).read_text()
            assert f"# target_step: {step:.17g}\n" in text
            assert len(data_lines(out_dir / name)) == 1 + n1 + n2 + 1

    def test_step_overrides_the_choice(self, prop1_config, out_dir, capsys):
        assert main(["find", prop1_config, "--resolution", "201", "--step", "5e-4"]) == 0
        assert not capsys.readouterr().err.startswith("step:")
        payload = json.loads((out_dir / "clines.json").read_text())
        assert payload["manifest"]["target_step"] == 5e-4
        assert len(payload["clines"]) == 3

    def test_help_shows_the_default_resolution(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["find", "--help"])
        assert exc_info.value.code == 0
        assert "(default 2001)" in " ".join(capsys.readouterr().out.split())

    def test_output_bytes_are_pinned(self, out_dir):
        # every file of a run at a caller's step; polynomial f (see TestGamma)
        assert main(["find", str(REPO_CONFIGS / "prop1.json"), "--resolution", "201",
                     "--step", "1e-4"]) == 0
        assert {p.name: sha256(p) for p in out_dir.iterdir()} == {
            "clines.json": "e3652071fe0bcd7b9ea91e775b99fcaee4acaa25afc8943ae431107f1c340167",
            "cline_1.csv": "eb16131a34a6289199adf4ef780861c71070819d34a71ebe0be9eea5105f2bdd",
            "cline_2.csv": "39aba2d008cbf9120c6a4f4c4d8516fb4ab8415aec1bec7adb2a5abf76145a18",
            "cline_3.csv": "be7a81db16f1dbab6ca2b90925575f2971317dad66f49a0185416faae84d6a68",
            "trivial_0.csv": "0387186528b2c2df71019b12b33c27d9cd5adf8d8e3eb7ccc4f3c3794f7616ec",
            "trivial_1.csv": "c06102abac778bfc9ce7109a5578a3a1fb7e62b544a2babe2380a19917f6e897",
        }

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
        assert payload["manifest"]["target_step"] == 5e-4
        assert all("target_step" not in r for r in payload["reports"])
        # the SHA-256 of the two instances' NamedInstance.to_json, which no
        # march enters, so it does not depend on the CPU
        assert payload["manifest"]["config_digest"] == (
            "sha256:b571892b6eda49804b04b23874f6fabc4271aba394b083d6a31c14f86770b0b4")

    def test_each_instance_records_its_chosen_step(self, prop1, prop2, out_dir):
        assert main(["reproduce", "--resolution", "801"]) == 1
        payload = json.loads((out_dir / "reproduce.json").read_text())
        assert "target_step" not in payload["manifest"]
        steps = [r["target_step"] for r in payload["reports"]]
        assert steps == [chosen_step(inst.problem, 801)[0] for inst in (prop1, prop2)]
        assert steps[0] != steps[1]

    def test_no_brackets_exits_4_and_still_writes_the_reports(self, out_dir, monkeypatch):
        # remark-full-dominance at lambda = 1000 brackets nothing on 11 heights
        skewed = remark_instances()[1]
        monkeypatch.setattr(cli, "proposition_2", lambda: NamedInstance(
            name="no-brackets", problem=replace(skewed.problem, lam=1000.0),
            expected_c=(0.5,)))
        assert main(["reproduce", "--resolution", "11"]) == 4
        payload = json.loads((out_dir / "reproduce.json").read_text())
        assert [r["instance"] for r in payload["reports"]] == ["proposition-1", "no-brackets"]
        assert payload["reports"][1]["passed"] is False


@pytest.mark.skipif(not REPO_CONFIGS.exists(), reason="repo configs not present")
class TestShippedConfigs:
    def test_bundled_configs_parse_and_validate(self, capsys):
        for name in ("prop1.json", "prop2.json", "remark_concave.json"):
            assert main(["check-f", str(REPO_CONFIGS / name)]) == 0
