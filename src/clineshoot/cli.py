"""Command-line front end: config ingestion, pipeline runs, table export.

Outputs are deterministic: identical config and flags give byte-identical
files (wall time is printed to the console only). Every file embeds the run
manifest as comment lines (CSV) or a manifest key (JSON).

Exit codes: 0 ok, 1 hypothesis or reproduction failure, 2 config error,
3 blow-up or a trivial level where f does not vanish, 4 no brackets found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional

from . import __version__
from .integrator import (
    DEFAULT_TARGET_STEP,
    BlowupError,
    IntegratorConfig,
    PhasePoint,
    integrate,
)
from .nonlinearity import DEFAULT_GRID_SIZE, ENDPOINT_ZERO_TOL
from .problem import Problem, problem_from_dict, validate_conjecture_hypotheses
from .reproduction import compare, proposition_1, proposition_2
from .shooting import (
    DEFAULT_RESOLUTION,
    DEFAULT_TOL_R,
    DEFAULT_TOL_V,
    build_gamma,
    find_all_clines,
)

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_NO_BRACKETS = 4

OUTPUT_DIR_ENV = "CLINE_SEED_DIR"


class ConfigError(Exception):
    """Unreadable or malformed configuration; maps to exit code 2."""


def _load_problem(path: str) -> tuple[Problem, str]:
    """Parse a problem config; returns the problem and the file's digest."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    digest = "sha256:" + hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: parse error at line {exc.lineno} "
                          f"column {exc.colno}: {exc.msg}") from exc
    try:
        return problem_from_dict(data), digest
    except ValueError as exc:
        raise ConfigError(f"config {path}: {exc}") from exc


def _out_dir() -> Path:
    override = os.environ.get(OUTPUT_DIR_ENV)
    d = Path(override) if override else Path.cwd()
    d.mkdir(parents=True, exist_ok=True)
    return d


def _manifest(digest: str, cfg: IntegratorConfig, resolution: Optional[int] = None,
              tol_r: Optional[float] = None, tol_v: Optional[float] = None) -> dict:
    """Provenance block embedded in every output file; unset fields are left out."""
    manifest = {"config_digest": digest, "target_step": cfg.target_step,
                "blowup_bound": cfg.blowup_bound, "version": __version__}
    for key, value in (("resolution", resolution), ("tol_r", tol_r), ("tol_v", tol_v)):
        if value is not None:
            manifest[key] = value
    return manifest


def _comment_lines(manifest: dict) -> tuple[str, ...]:
    """The manifest as CSV comment lines, floats at 17 significant digits."""
    return tuple(f"{k}: {v:.17g}" if isinstance(v, float) else f"{k}: {v}"
                 for k, v in manifest.items())


def cmd_check_f(args) -> int:
    problem, _ = _load_problem(args.config)
    report = validate_conjecture_hypotheses(problem, grid_size=args.grid_size)
    fs = report.f_star
    print(f"f(0) = {fs.f_at_0:.17g}, f(1) = {fs.f_at_1:.17g}")
    print(f"f'(0) = {fs.fprime_at_0:.17g}, f'(1) = {fs.fprime_at_1:.17g}")
    print(f"positive on (0,1): {fs.positive_on_open_interval}")
    print(f"concave on [0,1]: {fs.is_concave}")
    print(f"f(s)/s strictly decreasing: {fs.ratio_strictly_decreasing}")
    print(f"endpoint and slope conditions satisfied: {fs.satisfies_f_star}")
    print(f"weight positive somewhere: {report.weight_positive_somewhere}")
    print(f"weight mean: {report.weight_mean:.17g} "
          f"(negative: {report.weight_mean_negative})")
    print(f"in conjecture scope: {report.in_scope}")
    return EXIT_OK if report.in_scope else EXIT_HYPOTHESIS


def cmd_shoot(args) -> int:
    problem, digest = _load_problem(args.config)
    cfg = IntegratorConfig()
    manifest = _manifest(digest, cfg)
    try:
        traj = integrate(problem, cfg, PhasePoint(args.r, 0.0))
    except BlowupError as exc:
        print(f"blow-up at x = {exc.x:.17g} (u = {exc.u:.17g}, v = {exc.v:.17g})",
              file=sys.stderr)
        return EXIT_BLOWUP
    out = _out_dir() / f"shoot_r{args.r:g}.csv"
    with out.open("w") as fh:
        traj.write_csv(fh, header_lines=_comment_lines(manifest) + (f"r: {args.r:.17g}",))
    z = traj.terminal
    print(f"terminal point: ({z.u:.17g}, {z.v:.17g})")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_gamma(args) -> int:
    problem, digest = _load_problem(args.config)
    cfg = IntegratorConfig()
    manifest = _manifest(digest, cfg, resolution=args.resolution)
    t0 = time.perf_counter()
    gamma = build_gamma(problem, cfg, resolution=args.resolution)
    elapsed = time.perf_counter() - t0
    out = _out_dir() / "gamma.csv"
    with out.open("w") as fh:
        gamma.write_csv(fh, header_lines=_comment_lines(manifest))
    blowups = int((~gamma.ok).sum())
    print(f"{gamma.resolution} rows, {gamma.sign_changes()} interior sign changes, "
          f"{blowups} blow-ups")
    print(f"wrote {out} (wall time {elapsed:.2f} s)")
    return EXIT_OK


def cmd_find(args) -> int:
    problem, digest = _load_problem(args.config)
    cfg = IntegratorConfig(target_step=args.step)
    manifest = _manifest(digest, cfg, resolution=args.resolution,
                         tol_r=args.tol_r, tol_v=args.tol_v)
    t0 = time.perf_counter()
    result = find_all_clines(problem, cfg, resolution=args.resolution,
                             tol_r=args.tol_r, tol_v=args.tol_v)
    elapsed = time.perf_counter() - t0
    print(result.bracketing.summary(), file=sys.stderr)
    # u = level is a steady state only if f(level) = 0; otherwise its profile
    # blows up or drifts, and no file is written. A profile that stayed
    # exactly constant had f(level) = 0 at every stage, so f is not asked.
    trivial = []
    for level, name in ((0.0, "trivial_0.csv"), (1.0, "trivial_1.csv")):
        try:
            traj = integrate(problem, cfg, PhasePoint(level, 0.0))
        except BlowupError as exc:
            print(f"blow-up on the trivial profile u = {level:g} ({name}) at "
                  f"x = {exc.x:.17g} (u = {exc.u:.17g}, v = {exc.v:.17g}); "
                  f"no files written", file=sys.stderr)
            return EXIT_BLOWUP
        f_level = problem.f.value(level) if traj.vs.any() else 0.0
        if abs(f_level) > ENDPOINT_ZERO_TOL:
            print(f"f({level:g}) = {f_level:.17g}: the trivial profile u = {level:g} "
                  f"({name}) is no steady state; no files written", file=sys.stderr)
            return EXIT_BLOWUP
        trivial.append((name, traj))
    out_dir = _out_dir()

    payload = result.to_dict()
    payload["manifest"] = manifest
    payload["settings"] = {k: manifest[k] for k in
                           ("resolution", "tol_r", "tol_v", "target_step", "blowup_bound")}
    csv_names = []
    for i, cline in enumerate(result.clines, start=1):
        name = f"cline_{i}.csv"
        with (out_dir / name).open("w") as fh:
            cline.trajectory.write_csv(fh, header_lines=_comment_lines(manifest)
                                       + (f"c: {cline.c:.17g}",))
        csv_names.append(name)
    payload["trajectory_files"] = csv_names
    for name, traj in trivial:
        with (out_dir / name).open("w") as fh:
            traj.write_csv(fh, header_lines=_comment_lines(manifest))
    with (out_dir / "clines.json").open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for cline in result.clines:
        print(f"cline: c = {cline.c:.17g}, terminal u = {cline.terminal_u:.17g}, "
              f"|terminal v| = {abs(cline.terminal_v_residual):.3g}")
    for cline in result.rejected:
        print(f"rejected: c = {cline.c:.17g} ({cline.rejection_reason})")
    for failure in result.failures:
        print(f"bracket lost: {failure}")
    print(f"{len(result.brackets)} brackets, {len(result.clines)} validated clines "
          f"(wall time {elapsed:.2f} s)")
    print(f"wrote {out_dir / 'clines.json'}")
    if not result.brackets:
        print("no brackets found at this resolution", file=sys.stderr)
        return EXIT_NO_BRACKETS
    if not result.clines:
        print("brackets found but no validated cline", file=sys.stderr)
        return EXIT_NO_BRACKETS
    return EXIT_OK


def cmd_reproduce(args) -> int:
    cfg = IntegratorConfig(target_step=args.step)
    instances = [proposition_1(), proposition_2()]
    digest = "sha256:" + hashlib.sha256(
        "\n".join(i.to_json() for i in instances).encode()).hexdigest()
    manifest = _manifest(digest, cfg, resolution=args.resolution)
    reports = []
    all_pass = True
    no_brackets = False
    t0 = time.perf_counter()
    for instance in instances:
        result = find_all_clines(instance.problem, cfg, resolution=args.resolution)
        if not result.brackets:
            no_brackets = True
        report = compare(instance, result.clines)
        print(report.render())
        reports.append(report)
        all_pass = all_pass and report.passed
    elapsed = time.perf_counter() - t0
    payload = {"manifest": manifest,
               "reports": [r.to_dict() for r in reports]}
    out = _out_dir() / "reproduce.json"
    with out.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out} (wall time {elapsed:.2f} s)")
    if no_brackets:
        return EXIT_NO_BRACKETS
    return EXIT_OK if all_pass else EXIT_HYPOTHESIS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clineshoot",
        description="Locate positive nonconstant steady states of a "
                    "two-sided habitat by phase-plane shooting.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-f", help="validate the structural hypotheses of a config")
    p.add_argument("config", help="problem JSON file")
    p.add_argument("--grid-size", type=int, default=DEFAULT_GRID_SIZE,
                   help="interior grid points for the checks (default %(default)d)")
    p.set_defaults(func=cmd_check_f)

    p = sub.add_parser("shoot", help="integrate one trajectory from (r, 0)")
    p.add_argument("config", help="problem JSON file")
    p.add_argument("--r", type=float, required=True, help="initial height at the left end")
    p.set_defaults(func=cmd_shoot)

    p = sub.add_parser("gamma", help="sweep initial heights and export the terminal curve")
    p.add_argument("config", help="problem JSON file")
    p.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION,
                   help="grid points on [0,1] (default %(default)d)")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("find", help="locate all clines of a config")
    p.add_argument("config", help="problem JSON file")
    p.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION,
                   help="initial heights swept for brackets (default %(default)d)")
    p.add_argument("--tol-r", type=float, default=DEFAULT_TOL_R,
                   help="refinement bracket width tolerance (default %(default)g)")
    p.add_argument("--tol-v", type=float, default=DEFAULT_TOL_V,
                   help="terminal slope tolerance (default %(default)g)")
    p.add_argument("--step", type=float, default=DEFAULT_TARGET_STEP,
                   help="integrator target step (default %(default)g)")
    p.set_defaults(func=cmd_find)

    p = sub.add_parser("reproduce", help="run both benchmark instances and compare")
    p.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION,
                   help="initial heights swept for brackets (default %(default)d)")
    p.add_argument("--step", type=float, default=DEFAULT_TARGET_STEP,
                   help="integrator target step (default %(default)g)")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
