"""Command-line front end: config ingestion, pipeline runs, table export.

Outputs are deterministic: identical config and flags give byte-identical
files (wall time is printed to the console only). Every file embeds the run
manifest as comment lines (CSV) or a manifest key (JSON), and every file is
written by `_write_csv` or `_write_json`.

Exit codes: 0 ok, 1 hypothesis or reproduction failure, 2 config error, 3 shoot
blow-up or find's f(0) or f(1) nonzero (checked before the sweep), 4 no brackets.
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

import numpy as np

from . import __version__
from .integrator import (
    BLOWUP_BOUND,
    BlowupError,
    IntegratorConfig,
    PhasePoint,
    integrate,
    sample_grid,
)
from .nonlinearity import DEFAULT_GRID_SIZE, ENDPOINT_ZERO_TOL
from .problem import Problem, problem_from_dict, validate_conjecture_hypotheses
from .reproduction import compare, proposition_1, proposition_2
from .shooting import (
    DEFAULT_RESOLUTION,
    DEFAULT_TOL_R,
    DEFAULT_TOL_V,
    _check_tolerances,
    _grid,
    build_gamma,
    find_all_clines,
    find_brackets,
)

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_NO_BRACKETS = 4

OUTPUT_DIR_ENV = "CLINE_SEED_DIR"

STEP_HELP = "integrator target step (default: chosen from the coarse sweeps' error estimate)"

# CSV rows are formatted this many at a time, from Python floats; joining
# a whole file into one string would hold every row in memory at once.
CSV_CHUNK_ROWS = 1024
XUV_ROW = "%.17g,%.17g,%.17g\n"   # an x,u,v row of shoot


def _load_problem(path: str) -> tuple[Problem, str]:
    """Parse a problem config; returns the problem and the file's digest."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    digest = "sha256:" + hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"config {path} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path}: parse error at line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}") from exc
    try:
        return problem_from_dict(data), digest
    except ValueError as exc:
        raise ValueError(f"config {path}: {exc}") from exc


def _out_dir() -> Path:
    """The output directory, made if missing; called after the input checks, before any work."""
    override = os.environ.get(OUTPUT_DIR_ENV)
    d = Path(override) if override else Path.cwd()
    try:
        d.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"{OUTPUT_DIR_ENV}={override} is no usable output directory: "
                         f"{exc}") from exc
    return d


def _manifest(digest: str, step: Optional[float], resolution: Optional[int] = None,
              tol_r: Optional[float] = None, tol_v: Optional[float] = None) -> dict:
    """Provenance block embedded in every output file; unset fields are left out."""
    manifest = {"config_digest": digest, "target_step": step,
                "blowup_bound": BLOWUP_BOUND, "version": __version__,
                "resolution": resolution, "tol_r": tol_r, "tol_v": tol_v}
    return {k: v for k, v in manifest.items() if v is not None}


def _write_csv(path: Path, manifest: dict, header: str, columns: tuple, row: str) -> None:
    """Write the manifest as `# key: value` lines, floats at 17 significant
    digits, then the header, then `row % values` for each index of the columns.

    `%.17g` writes a float as `f"{x:.17g}"` does, nan included; a `%s`
    takes a column formatted beforehand, an object array of str.
    """
    with path.open("w") as fh:
        for k, v in manifest.items():
            fh.write(f"# {k}: {v:.17g}\n" if isinstance(v, float) else f"# {k}: {v}\n")
        fh.write(header + "\n")
        for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
            chunk = [c[start:start + CSV_CHUNK_ROWS].tolist() for c in columns]
            fh.write("".join(row % values for values in zip(*chunk)))


def _write_json(path: Path, payload: dict) -> None:
    """The payload as indented JSON with sorted keys and a final newline."""
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    z0 = PhasePoint(args.r, 0.0)
    out = _out_dir() / f"shoot_r{args.r!r}.csv"
    cfg = IntegratorConfig()
    manifest = _manifest(digest, cfg.target_step)
    try:
        traj = integrate(problem, cfg, z0)
    except BlowupError as exc:
        print(f"blow-up at x = {exc.x:.17g} (u = {exc.u:.17g}, v = {exc.v:.17g})",
              file=sys.stderr)
        return EXIT_BLOWUP
    _write_csv(out, {**manifest, "r": args.r}, "x,u,v", (traj.xs, traj.us, traj.vs), XUV_ROW)
    print(f"terminal point: ({traj.us[-1]:.17g}, {traj.vs[-1]:.17g})")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_gamma(args) -> int:
    problem, digest = _load_problem(args.config)
    _grid(args.resolution)   # rejects a resolution below MIN_RESOLUTION
    out = _out_dir() / "gamma.csv"
    cfg = IntegratorConfig()
    manifest = _manifest(digest, cfg.target_step, resolution=args.resolution)
    t0 = time.perf_counter()
    gamma = build_gamma(problem, cfg, resolution=args.resolution)
    elapsed = time.perf_counter() - t0
    # a blown column holds nan in u_end and v_end, so its row reads r,nan,nan,blowup
    _write_csv(out, manifest, "r,u_end,v_end,status",
               (gamma.rs, gamma.u_end, gamma.v_end, np.where(gamma.ok, "ok", "blowup")),
               "%.17g,%.17g,%.17g,%s\n")
    blowups = int((~gamma.ok).sum())
    print(f"{args.resolution} rows, {len(find_brackets(gamma))} brackets, {blowups} blow-ups")
    print(f"wrote {out} (wall time {elapsed:.2f} s)")
    return EXIT_OK


def cmd_find(args) -> int:
    problem, digest = _load_problem(args.config)
    # u = 0 and u = 1 are steady states exactly when f vanishes there; the
    # clines run between them, so without both nothing is searched
    for level, f_level in zip((0, 1), problem.f.value(np.array([0.0, 1.0])).tolist()):
        if abs(f_level) > ENDPOINT_ZERO_TOL:
            print(f"f({level}) = {f_level:.17g}: the trivial profile u = {level} "
                  f"(trivial_{level}.csv) is no steady state; no files written",
                  file=sys.stderr)
            return EXIT_BLOWUP
    cfg = None if args.step is None else IntegratorConfig(target_step=args.step)
    _check_tolerances(args.tol_r, args.tol_v)
    _grid(args.resolution)   # rejects a resolution below MIN_RESOLUTION
    out_dir = _out_dir()
    t0 = time.perf_counter()
    result = find_all_clines(problem, cfg, resolution=args.resolution,
                             tol_r=args.tol_r, tol_v=args.tol_v)
    elapsed = time.perf_counter() - t0
    bracketing = result.bracketing
    print(bracketing.summary(), file=sys.stderr)
    manifest = _manifest(digest, bracketing.step, resolution=args.resolution,
                         tol_r=args.tol_r, tol_v=args.tol_v)

    payload = result.to_dict()
    payload["manifest"] = manifest
    payload["settings"] = {k: manifest[k] for k in
                           ("resolution", "tol_r", "tol_v", "target_step", "blowup_bound")}
    # every profile is sampled on the x grid of the search's step: format it once
    xs, _ = sample_grid(problem, IntegratorConfig(target_step=bracketing.step))
    x_text = np.array(["%.17g" % x for x in xs.tolist()], dtype=object)
    csv_names = []
    for i, cline in enumerate(result.clines, start=1):
        name = f"cline_{i}.csv"
        traj = cline.trajectory
        _write_csv(out_dir / name, {**manifest, "c": cline.c}, "x,u,v",
                   (x_text, traj.us, traj.vs), "%s,%.17g,%.17g\n")
        csv_names.append(name)
    payload["trajectory_files"] = csv_names
    for level in (0, 1):
        _write_csv(out_dir / f"trivial_{level}.csv", manifest, "x,u,v", (x_text,),
                   f"%s,{level},0\n")
    _write_json(out_dir / "clines.json", payload)

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
    cfg = None if args.step is None else IntegratorConfig(target_step=args.step)
    _grid(args.resolution)   # rejects a resolution below MIN_RESOLUTION
    out = _out_dir() / "reproduce.json"
    instances = [proposition_1(), proposition_2()]
    digest = "sha256:" + hashlib.sha256(
        "\n".join(i.to_json() for i in instances).encode()).hexdigest()
    # a chosen step is the instance's own, so its report records it
    manifest = _manifest(digest, args.step, resolution=args.resolution)
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
        record = report.to_dict()
        if cfg is None:
            record["target_step"] = result.bracketing.step
        reports.append(record)
        all_pass = all_pass and report.passed
    elapsed = time.perf_counter() - t0
    _write_json(out, {"manifest": manifest, "reports": reports})
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
    p.add_argument("--step", type=float, default=None, help=STEP_HELP)
    p.set_defaults(func=cmd_find)

    p = sub.add_parser("reproduce", help="run both benchmark instances and compare")
    p.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION,
                   help="initial heights swept for brackets (default %(default)d)")
    p.add_argument("--step", type=float, default=None, help=STEP_HELP)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
