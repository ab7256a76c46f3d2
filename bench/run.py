"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload find-prop2 --seed 1 --seconds 25 --trace 0

The program is the `src` tree next to this directory, imported in-process.
One process, one caller, closed loop: an operation starts when the previous
one has returned and its output has been checked. The first operation is a
warm-up and is not timed; the loop then runs for `--seconds`, and for at
least MIN_SAMPLES operations so that the tail percentile exists. The run
is pinned to one CPU.

`--trace 0` prints the end-to-end metrics (BENCHMARK.json `end_to_end`).
Operation and set-up times are wall times scaled by a reference
computation timed around them (see `Reference`), so that they measure the
program rather than whatever else shares the core; the unscaled wall times
are in the record. `--trace 1` prints the per-layer metrics instead: it
alternates plain and traced operations on the same input, and adds the
layer probes.

Standard output ends with the run record (one JSON line with key "record")
and then the result line {"correct", "attempted", "failed", "metrics"}.
A readable summary goes to standard error. Outputs are written under
`.bench_tmp/` in the checkout and removed before the run ends.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported; the
# set-up children inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from tracing import crosscheck, layer_counts, tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"

MIN_SAMPLES = 11     # the tail percentile needs ten samples beyond it
TAIL_BEYOND = 10
MIN_TRACED_PAIRS = 2
SETUP_SAMPLES = 11

# A fresh interpreter: import the program and load the workload's inputs,
# then say so. The parent times it from spawn to that line.
SETUP_CHILD = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
               "workloads.WORKLOADS[sys.argv[3]](); print('ready', flush=True)")

END_TO_END = {
    "setup_s": "s",
    "solve_s_p50": "s",
    "solve_s_tail": "s",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}

# Per traced operation, averaged over the traced operations.
PER_OP = {
    "nonlinearity.scalar_calls": "count",
    "nonlinearity.vector_calls": "count",
    "nonlinearity.vector_elems": "count",
    "integrator.scalar_steps": "count",
    "integrator.poincare_map.calls": "count",
    "integrator.poincare_map.s": "s",
    "integrator.sweep_terminals.s": "s",
    "integrator.column_steps": "count",
    "integrator.integrate.calls": "count",
    "integrator.integrate.s": "s",
    "shooting.brackets": "count",
    "shooting.validated": "count",
    "shooting.rejected": "count",
    "shooting.lost": "count",
    "shooting.refine_iterations": "count",
    "shooting.bisect_cline.s": "s",
    "shooting.bisect_cline.self_s": "s",
    "shooting.build_gamma.s": "s",
    "shooting.find_brackets.s": "s",
    "shooting.find_all_clines.s": "s",
    "problem.necessary_integral.calls": "count",
    "problem.necessary_integral.s": "s",
    "problem.parse_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "cli.files_written": "count",
    "reproduction.sweep_cline_counts.s": "s",
}

# name: (unit, numerator, denominator, scale), all over traced totals
RATIOS = {
    "nonlinearity.vector_ns_per_elem": ("ns", "nonlinearity.vector_s", "nonlinearity.vector_elems", 1e9),
    "integrator.column_step_ns": ("ns", "integrator.sweep_terminals.s", "integrator.column_steps", 1e9),
    "integrator.blowup_ratio": ("ratio", "integrator.blown_columns", "integrator.columns", 1.0),
    "shooting.useful_ratio": ("ratio", "shooting.validated", "shooting.brackets", 1.0),
    "shooting.refine_iterations_per_bracket": ("count", "shooting.refine_iterations",
                                               "shooting.bisect_cline.calls", 1.0),
}

PROBES = {
    "nonlinearity.scalar_ns_per_eval": "ns",
    "nonlinearity.probe.vector_ns_per_elem_501": "ns",
    "nonlinearity.probe.vector_ns_per_elem_10001": "ns",
    "integrator.probe.poincare_map_s": "s",
    "integrator.scalar_step_ns": "ns",
    "integrator.probe.sweep_terminals_s": "s",
}

TRACE = {
    "trace.overhead_s": "s",
    "trace.ops": "count",
    "trace.crosscheck_failures": "count",
    "trace.baseline_count_diffs": "count",
}

PER_LAYER = {**PER_OP, **{k: v[0] for k, v in RATIOS.items()}, **PROBES, **TRACE}


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond it).
    """
    ordered = sorted(samples)
    k = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[k - 1], 100.0 * k / len(ordered), len(ordered) - k


def reference_seconds(scalar_steps: int, array_updates: int, width: int,
                      repeat: int = 5) -> float:
    """Median wall time of a fixed computation that uses none of the program.

    It does the two kinds of work the program does: an RK2 loop on Python
    floats, and elementwise updates of a numpy array of `width` elements.
    Timed next to an operation, it tells how fast the machine runs at that
    moment, whatever else shares the core.
    """
    a0 = np.linspace(0.0, 1.0, width)
    times = []
    for _ in range(repeat):
        t0 = perf_counter()
        u, v, h = 0.3, 0.0, 1e-3
        for _ in range(scalar_steps):
            k1u, k1v = v, -u * (1.0 - u)
            u2, v2 = u + 0.5 * h * k1u, v + 0.5 * h * k1v
            u, v = u + h * v2, v - h * u2 * (1.0 - u2)
        a = a0
        for _ in range(array_updates):
            a = a * (1.0 - a) * 0.9 + 0.05
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Reference:
    """Times the workload's reference before, during and after operations.

    While an operation runs, SIGALRM fires every INTERVAL seconds and the
    handler times one reference run; that time is taken back out of the
    operation's wall time. An operation's scaled time is its wall time
    times `idle` over the median reference time seen around and inside it.
    """

    INTERVAL = 0.25

    def __init__(self, scalar_steps: int, array_updates: int, width: int, idle: float):
        self.spec = (scalar_steps, array_updates, width)
        self.idle = idle
        self.last = reference_seconds(*self.spec)
        self.walls: list[float] = []
        self.refs: list[float] = []

    def time(self, fn):
        """Run fn(); returns (its result, its scaled time in seconds)."""
        samples = [self.last]
        spent = []  # (start, seconds) of each sample taken inside fn

        def sample(signum, frame):
            t0 = perf_counter()
            samples.append(reference_seconds(*self.spec, repeat=1))
            spent.append((t0, perf_counter() - t0))

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        try:
            t0 = perf_counter()
            result = fn()
            end = perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = end - t0 - sum(dt for start, dt in spent if start < end)
        self.last = reference_seconds(*self.spec)
        samples.append(self.last)
        ref = statistics.median(samples)
        self.walls.append(wall)
        self.refs.append(ref)
        return result, wall * self.idle / ref


def _timed(fn):
    t0 = perf_counter()
    result = fn()
    return result, perf_counter() - t0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "clineshoot").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure_setup(workload, samples: int = SETUP_SAMPLES) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until its first operation can run.

    Returns (scaled, wall): each wall time is scaled like an operation's, by
    the workload's reference timed before and after the spawn.
    """
    *spec, idle = workload.REFERENCE
    cmd = [sys.executable, "-c", SETUP_CHILD, str(BENCH), str(SRC), workload.name]
    scaled, walls = [], []
    before = reference_seconds(*spec)
    for i in range(samples + 1):  # the first spawn warms the file cache, untimed
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up child exited {proc.returncode} after {line!r}")
        after = reference_seconds(*spec)
        if i:
            walls.append(elapsed)
            scaled.append(elapsed * idle / (0.5 * (before + after)))
        before = after
    return scaled, walls


class Runner:
    """Runs and checks operations, keeping what the record needs."""

    def __init__(self, workload, items: list, tmp: Path):
        self.workload = workload
        self.items = items
        self.tmp = tmp
        self.reference: Reference | None = None  # scales untraced operations when set
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, set[str]] = {}

    def op(self, i: int, traced: bool):
        """Run operation i; returns (seconds, tracer or None, output file stats)."""
        item = self.items[i % len(self.items)]
        out_dir = self.tmp / str(i)
        out_dir.mkdir(parents=True)
        tracer = None
        run = functools.partial(self.workload.run, item, out_dir)
        t0 = perf_counter()
        try:
            if traced:
                with tracing() as tracer:
                    result, seconds = _timed(run)
            else:
                result, seconds = (self.reference.time if self.reference else _timed)(run)
            problems = self.workload.check(item, result, out_dir)
        except Exception as exc:  # a failed operation is counted, not fatal
            seconds = perf_counter() - t0
            problems = [f"{type(exc).__name__}: {exc}"]
        files = sorted(p for p in out_dir.iterdir() if p.is_file())
        written = Counter({"cli.files_written": len(files)})
        for path in files:
            data = path.read_bytes()
            written["cli.bytes_written"] += len(data)
            self.digests.setdefault(path.name, set()).add(hashlib.sha256(data).hexdigest())
        shutil.rmtree(out_dir)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"operation {i}: {p}" for p in problems)
        return seconds, tracer, written


def run_plain(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Closed loop of untraced operations, each scaled by the reference."""
    ref = runner.reference = Reference(*runner.workload.REFERENCE)
    times = []
    deadline = perf_counter() + seconds
    i = 1
    while perf_counter() < deadline or len(times) < MIN_SAMPLES:
        times.append(runner.op(i, traced=False)[0])
        i += 1
    value, percentile, beyond = tail(times)
    metrics = {
        "solve_s_p50": statistics.median(times),
        "solve_s_tail": value,
        "success_rate": 1.0 - runner.failed / runner.attempted,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    fields = {"solve": {"samples": len(times), "p50": metrics["solve_s_p50"],
                        "tail": value, "tail_percentile": percentile,
                        "samples_beyond_tail": beyond,
                        "wall_p50": statistics.median(ref.walls), "wall_tail": tail(ref.walls)[0],
                        "reference_idle_s": ref.idle, "reference_p50_s": statistics.median(ref.refs),
                        "wall_s": [round(t, 6) for t in ref.walls],
                        "reference_s": [round(r, 7) for r in ref.refs]}}
    return metrics, fields


def run_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Plain and traced operations in pairs, then the layer probes."""
    from probes import probe  # imports the program

    totals = Counter()
    overheads = []
    broken: dict[str, int] = {}
    diffs: dict[str, list] = {}
    missing: set[str] = set()
    expected = runner.workload.BASELINE_COUNTS
    deadline = perf_counter() + seconds
    i = 1
    while perf_counter() < deadline or len(overheads) < MIN_TRACED_PAIRS:
        plain = runner.op(i, traced=False)[0]
        traced, tracer, written = runner.op(i, traced=True)
        overheads.append(traced - plain)
        counts = layer_counts(tracer)
        counts.update(written)
        totals.update(counts)
        for problem in crosscheck(tracer):
            broken[problem] = broken.get(problem, 0) + 1
        for name, want in expected.items():
            if counts[name] != want:
                diffs.setdefault(name, []).append(counts[name])
        missing.update(tracer.missing)
        i += 1
    ops = len(overheads)
    metrics = {name: totals[name] / ops for name in PER_OP}
    for name, (_, num, den, scale) in RATIOS.items():
        metrics[name] = totals[num] / totals[den] * scale if totals[den] else 0.0
    probe_metrics, probe_missing = probe(*runner.workload.probe_case())
    metrics.update(probe_metrics)
    metrics["trace.overhead_s"] = statistics.median(overheads)
    metrics["trace.ops"] = ops
    metrics["trace.crosscheck_failures"] = len(broken)
    metrics["trace.baseline_count_diffs"] = len(diffs)
    fields = {"trace": {
        "traced_ops": ops,
        "totals": dict(sorted(totals.items())),
        "crosscheck_failures": broken,
        "baseline_counts": expected,
        "baseline_count_diffs": {k: sorted(set(v)) for k, v in diffs.items()},
        "missing": sorted(missing | set(probe_missing)),
    }}
    return metrics, fields


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "clineshoot" / "__init__.py").is_file():
        print(f"bench: no clineshoot sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    # one CPU for the loop, the reference and the set-up children alike
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "loadavg_start": os.getloadavg(),
    }
    metrics = {}
    cls = workloads.WORKLOADS[args.workload]
    if not args.trace:
        setup, setup_walls = measure_setup(cls)
        metrics["setup_s"] = statistics.median(setup)
        record["setup_wall_s"] = setup_walls
        record["setup_scaled_s"] = setup
    workload = cls()
    runner = Runner(workload, workload.items(args.seed), TMP / f"{args.workload}-{os.getpid()}")
    try:
        runner.op(0, traced=False)  # warm-up: checked and counted, not timed
        measured, fields = (run_traced if args.trace else run_plain)(runner, args.seconds)
    finally:
        shutil.rmtree(runner.tmp, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass  # another run still uses it
    metrics.update(measured)
    units = PER_LAYER if args.trace else END_TO_END
    record.update(fields)
    record["fail_rate"] = runner.failed / runner.attempted
    record["problems"] = runner.problems[:20]
    record["output_sha256"] = {k: sorted(v) for k, v in sorted(runner.digests.items())}
    record["loadavg_end"] = os.getloadavg()

    for name in units:
        print(f"{args.workload:12s} {name:45s} {metrics[name]:.6g} {units[name]}", file=sys.stderr)
    if not args.trace:
        solve = record["solve"]
        print(f"{args.workload:12s} {'wall p50, tail (not scaled)':45s} {solve['wall_p50']:.6g} "
              f"{solve['wall_tail']:.6g} s; tail is p{solve['tail_percentile']:.1f} of "
              f"{solve['samples']}", file=sys.stderr)
    print(f"{args.workload:12s} {'fail_rate':45s} {record['fail_rate']:.6g} "
          f"({runner.failed} of {runner.attempted})", file=sys.stderr)
    for problem in record["problems"]:
        print(f"{args.workload:12s} FAILED {problem}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
