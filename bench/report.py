"""Run every workload, plain and traced, and print all metrics with units.

    python3 bench/report.py [--seconds 30] [--seed 1] [--out bench/results/NAME.json]

Each run is a separate `bench/run.py` process, one after another. With
`--out`, the run records and results are written as one JSON file. Exits 1
if any run failed or reported an incorrect output.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return {"workload": workload, "trace": trace,
            "record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    runs = []
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            run = run_one(workload, args.seed, args.seconds, trace)
            runs.append(run)
            result = run["result"]
            ok = ok and result["correct"]
            print(f"{workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"fail_rate={run['record']['fail_rate']:g}")
            if not trace:
                solve = run["record"]["solve"]
                print(f"  solve_s_tail is p{solve['tail_percentile']:.1f} of "
                      f"{solve['samples']} samples")
            for name, m in result["metrics"].items():
                print(f"  {name:45s} {m['value']:14.6g} {m['unit']}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds,
                                        "runs": runs}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
