"""The benchmark's workloads: what one operation is, and how it is checked.

Each workload class loads its inputs when constructed (that is the set-up
a user pays before the first operation), lists the inputs its operations
cycle through, runs one operation and checks its output. The program is
imported from the `src` tree next to this directory; the caller puts that
tree on `sys.path` first.

- find-prop2: `clineshoot find configs/prop2.json`. Refinement-heavy: about
  half of each operation is scalar bisection through `poincare_map`.
- gamma-dense: `clineshoot gamma configs/prop1.json --resolution 10001`.
  Only the batched kernel runs; no refinement, no validation.
- lambda-scan: `sweep_cline_counts` for one (instance, lambda) pair. Each
  solve is short, so fixed per-solve costs dominate, and large lambda drives
  columns into the blow-up freezing path.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from pathlib import Path

from clineshoot import cli, reproduction
from clineshoot.integrator import IntegratorConfig
from clineshoot.problem import problem_from_json

ROOT = Path(__file__).resolve().parent.parent

# 1e-8 is the bound on a shift in a validated c that the project accepts.
C_TOL = 1e-8


def _cli(argv: list[str], out_dir: Path) -> int:
    """Run the command line in-process, writing its files to out_dir."""
    os.environ[cli.OUTPUT_DIR_ENV] = str(out_dir)
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def check_find(rc: int, payload: dict, files: set[str]) -> list[str]:
    """Problems with one find-prop2 result; empty when it is correct."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    found = sorted(c["c"] for c in payload.get("clines", []))
    if len(found) != len(FindProp2.EXPECTED_C):
        problems.append(f"{len(found)} validated clines, expected {len(FindProp2.EXPECTED_C)}")
    for got, want in zip(found, FindProp2.EXPECTED_C):
        if not abs(got - want) <= C_TOL:
            problems.append(f"c = {got!r}, expected {want!r} within {C_TOL:g}")
    if len(payload.get("rejected", [])) != 1:
        problems.append(f"{len(payload.get('rejected', []))} rejected roots, expected 1")
    if payload.get("failures"):
        problems.append(f"{len(payload['failures'])} lost brackets, expected 0")
    missing = FindProp2.FILES - files
    if missing:
        problems.append(f"missing output files {sorted(missing)}")
    return problems


def check_gamma(rc: int, csv_text: str, resolution: int) -> list[str]:
    """Problems with one gamma-dense result; empty when it is correct."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    rows = [line.split(",") for line in csv_text.splitlines()
            if line and not line.startswith("#")][1:]
    if len(rows) != resolution:
        problems.append(f"{len(rows)} rows, expected {resolution}")
    blowups = sum(1 for row in rows if row[3] != "ok")
    if blowups:
        problems.append(f"{blowups} blow-ups, expected 0")
    inner = [float(row[2]) for row in rows[1:-1] if row[3] == "ok"]
    inner = [v for v in inner if v != 0.0]
    changes = sum(1 for a, b in zip(inner, inner[1:]) if a * b < 0.0)
    if changes != GammaDense.SIGN_CHANGES:
        problems.append(f"{changes} interior sign changes, expected {GammaDense.SIGN_CHANGES}")
    return problems


class FindProp2:
    name = "find-prop2"
    # the interference reference: (scalar RK2 steps, array updates, array
    # width, seconds it takes on an idle core); see run.reference_seconds
    REFERENCE = (2500, 100, 2001, 0.85e-3)
    EXPECTED_C = (0.01815146677009762, 0.3834544194936752, 0.48757759416103363)
    FILES = {"clines.json", "cline_1.csv", "cline_2.csv", "cline_3.csv",
             "trivial_0.csv", "trivial_1.csv"}
    # exact per-operation counts at commit df27641; a change to them is
    # reported next to the trace, not counted as a failure
    BASELINE_COUNTS = {
        "integrator.poincare_map.calls": 97,
        "integrator.poincare_map.steps": 97 * 8550,
        "integrator.integrate.calls": 6,
        "integrator.column_steps": 2001 * 8550,
        "shooting.brackets": 4,
        "shooting.validated": 3,
        "shooting.rejected": 1,
        "shooting.lost": 0,
    }

    def __init__(self):
        self.config = ROOT / "configs" / "prop2.json"
        self.problem = problem_from_json(self.config.read_text())

    def items(self, seed: int) -> list:
        return [None]

    def run(self, item, out_dir: Path) -> int:
        return _cli(["find", str(self.config)], out_dir)

    def check(self, item, rc: int, out_dir: Path) -> list[str]:
        path = out_dir / "clines.json"
        if not path.is_file():
            return [f"exit code {rc}, and no clines.json written"]
        files = {p.name for p in out_dir.iterdir()}
        return check_find(rc, json.loads(path.read_text()), files)

    def probe_case(self):
        """(problem, config, r of one Poincare map, columns of one sweep)."""
        return self.problem, IntegratorConfig(), 0.3, 2001


class GammaDense:
    name = "gamma-dense"
    RESOLUTION = 10001
    REFERENCE = (100, 40, RESOLUTION, 0.53e-3)
    SIGN_CHANGES = 3
    BASELINE_COUNTS = {
        "integrator.columns": RESOLUTION,
        "integrator.column_steps": RESOLUTION * 4100,
        "integrator.blown_columns": 0,
        "integrator.poincare_map.calls": 0,
    }

    def __init__(self):
        self.config = ROOT / "configs" / "prop1.json"
        self.problem = problem_from_json(self.config.read_text())

    def items(self, seed: int) -> list:
        return [None]

    def run(self, item, out_dir: Path) -> int:
        return _cli(["gamma", str(self.config), "--resolution", str(self.RESOLUTION)], out_dir)

    def check(self, item, rc: int, out_dir: Path) -> list[str]:
        path = out_dir / "gamma.csv"
        if not path.is_file():
            return [f"exit code {rc}, and no gamma.csv written"]
        return check_gamma(rc, path.read_text(), self.RESOLUTION)

    def probe_case(self):
        return self.problem, IntegratorConfig(), 0.5, self.RESOLUTION


class LambdaScan:
    name = "lambda-scan"
    REFERENCE = (2000, 150, 501, 0.7e-3)
    LAMBDAS = tuple(5.0 * 60.0 ** (k / 15) for k in range(16))  # geometric, 5 to 300
    # validated-cline counts per lambda, as commit df27641 computes them
    COUNTS = {
        "remark-no-dominance": (1,) * 16,
        "remark-full-dominance": (2,) * 14 + (1, 1),
    }
    BASELINE_COUNTS: dict = {}  # the mix per operation depends on the seed

    def __init__(self):
        self.instances = {inst.name: inst for inst in reproduction.remark_instances()}

    def items(self, seed: int) -> list:
        pairs = [(name, k) for name in sorted(self.COUNTS) for k in range(len(self.LAMBDAS))]
        random.Random(seed).shuffle(pairs)
        return pairs

    def run(self, item, out_dir: Path) -> list:
        name, k = item
        return reproduction.sweep_cline_counts(self.instances[name], [self.LAMBDAS[k]])

    def check(self, item, result, out_dir: Path) -> list[str]:
        name, k = item
        want = [(self.LAMBDAS[k], self.COUNTS[name][k])]
        if result != want:
            return [f"{name} at lambda {self.LAMBDAS[k]!r}: got {result}, expected {want}"]
        return []

    def probe_case(self):
        inst = self.instances["remark-full-dominance"]
        return inst.problem, IntegratorConfig(target_step=1e-3), 0.5, 501


WORKLOADS = {w.name: w for w in (FindProp2, GammaDense, LambdaScan)}
