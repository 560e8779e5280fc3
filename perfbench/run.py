"""Benchmark command for pnpfusion: time to solution, per workload.

    python3 perfbench/run.py --workload pair-iterate --seed 11 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. The package is imported from ``src/`` of the
same checkout. BLAS/OpenMP threads are pinned to ``THREADS`` through the
environment before numpy loads.

``--trace 0`` times the public entry points (``deblur_pair``/``sharpen``)
untouched and prints the end-to-end metrics; ``--trace 1`` additionally runs
every solve under :mod:`tracing` and prints the per-layer metrics. Either way
each distinct solve is checked (see :func:`workloads.gate`). The last line of
standard output is the result object; the line before it is the run record
(environment, sample counts, per-scene figures).
"""

import os

THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

# Fresh processes timed for setup_s, half before and half after the timed
# loop so that the median spans the run; the median is reported.
SETUP_SAMPLES = 6
CHILD_TIMEOUT_S = 150


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_package():
    """Import pnpfusion and refuse a copy from outside this checkout."""
    import pnpfusion

    where = Path(pnpfusion.__file__).resolve().parent.parent
    if where != SRC:
        raise SystemExit(f"pnpfusion imported from {where}, expected {SRC}")
    return pnpfusion


def setup_probe(workload: str, seed: int, toy: bool) -> None:
    """Child mode: time the import of pnpfusion plus building the inputs."""
    start = time.perf_counter()
    import_package()
    import workloads

    table = workloads.SMOKE_WORKLOADS if toy else workloads.WORKLOADS
    workloads.build_inputs(table[workload], seed)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def measure_setup(workload: str, seed: int, toy: bool, count: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    if toy:
        cmd.append("--toy")
    samples = []
    for _ in range(count):
        done = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True,
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            # a checkout that is not a repository must not report a parent's
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),  # identifies the code without git
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "threads": THREADS,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Solves:
    """Timed solves of one run, with per-scene correctness bookkeeping."""

    def __init__(self, w, problems):
        self.w = w
        self.problems = problems
        self.times = []
        self.attempted = 0
        self.failed = 0
        self.solved = []  # scene index of every solve that returned
        self.first = {}  # scene index -> (x, report) of its first solve
        self.reasons = {}  # scene index -> failure reasons
        self.nondeterministic = []

    def run_one(self, index: int, tracer=None):
        """Solve one scene and time it; returns the elapsed seconds or None."""
        import workloads

        problem = self.problems[index]
        self.attempted += 1
        try:
            with tracer.installed() if tracer else contextlib.nullcontext():
                start = time.perf_counter()
                x, report = workloads.solve(self.w, problem)
                elapsed = time.perf_counter() - start
        except Exception:  # a raising solve is a failed solve; keep measuring
            traceback.print_exc()
            self.failed += 1
            self.reasons.setdefault(index, []).append("raised")
            return None
        self.times.append(elapsed)
        self.solved.append(index)
        if index in self.first:
            x0, report0 = self.first[index]
            if report.iterations_run != report0.iterations_run or (
                x.tobytes() != x0.tobytes()
            ):
                self.nondeterministic.append(index)
        else:
            self.first[index] = (x, report)
        return elapsed

    def cycle(self, seconds: float, tracer_factory=None):
        """Cycle over the scenes for ``w.solves`` calls and ``seconds``."""
        start = time.perf_counter()
        results = []
        k = 0
        while k < self.w.solves or time.perf_counter() - start < seconds:
            tracer = tracer_factory() if tracer_factory else None
            elapsed = self.run_one(k % len(self.problems), tracer)
            results.append((k % len(self.problems), elapsed, tracer))
            k += 1
        return results

    def check(self) -> dict:
        """Gate each distinct solve once; repeats share their scene's result."""
        import workloads

        figures = {}
        for index, (x, report) in sorted(self.first.items()):
            figs, reasons = workloads.gate(self.w, self.problems[index], x, report)
            figs["iters"] = report.iterations_run
            figures[index] = figs
            if reasons:
                self.reasons.setdefault(index, []).extend(reasons)
                self.failed += self.solved.count(index)
        return figures


def mean(values):
    return sum(values) / len(values) if values else float("nan")


def end_to_end(args, w, problems) -> tuple[dict, dict, Solves]:
    half = SETUP_SAMPLES // 2
    setup = measure_setup(args.workload, args.seed, args.toy, half)
    solves = Solves(w, problems)
    solves.cycle(args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += measure_setup(args.workload, args.seed, args.toy, SETUP_SAMPLES - half)
    figures = solves.check()
    per_scene = [figures[i] for i in sorted(figures)]
    values = {
        "total_s": statistics.median(solves.times) if solves.times else float("nan"),
        "setup_s": statistics.median(setup),
        "iters": mean([f["iters"] for f in per_scene]),
        "psnr_db": mean([f["psnr_db"] for f in per_scene if "psnr_db" in f]),
        "sam_deg": mean([f["sam_deg"] for f in per_scene if "sam_deg" in f]),
        "solved_ratio": 1.0 - solves.failed / solves.attempted,
        "peak_rss_mb": rss_mb,
    }
    samples = {
        "total_s": len(solves.times),
        "setup_s": len(setup),
        "iters": len(per_scene),
        "psnr_db": len(per_scene),
        "sam_deg": len(per_scene),
        "solved_ratio": solves.attempted,
        "peak_rss_mb": 1,
    }
    detail = {"samples": samples, "per_scene": per_scene, "setup_samples_s": setup}
    return values, detail, solves


def per_layer(args, w, problems) -> tuple[dict, dict, Solves]:
    import tracing

    solves = Solves(w, problems)
    untraced = solves.run_one(0)
    results = solves.cycle(args.seconds, tracing.Tracer)
    figures = solves.check()
    traced = [(i, t, tr.layer_metrics()) for i, t, tr in results if t is not None]
    values = {}
    if traced:
        for name in traced[0][2]:
            values[name] = statistics.median(layers[name] for _, _, layers in traced)
        values["trace.total_s"] = statistics.median(t for _, t, _ in traced)
        if untraced is not None:
            values["trace.overhead_s"] = traced[0][1] - untraced
    samples = {name: len(traced) for name in values}
    samples["trace.overhead_s"] = 1
    per_scene = [figures[i] for i in sorted(figures)]
    return values, {"samples": samples, "per_scene": per_scene}, solves


def measure(args) -> int:
    spec = load_spec()
    import_package()
    import workloads

    table = workloads.SMOKE_WORKLOADS if args.toy else workloads.WORKLOADS
    if args.workload not in table:
        raise SystemExit(f"unknown workload {args.workload!r}; known: {sorted(table)}")
    w = table[args.workload]
    problems = workloads.build_inputs(w, args.seed)
    # Untimed warm-up at full size with a two-iteration budget: loads lazy
    # imports and lets the allocator reach its steady state before timing.
    warm = dataclasses.replace(w, em_iters=2, max_iters=2)
    workloads.solve(warm, workloads.build_problem(warm, problems[0].seed))

    if args.trace:
        values, detail, solves = per_layer(args, w, problems)
        wanted = spec["per_layer"]
    else:
        values, detail, solves = end_to_end(args, w, problems)
        wanted = spec["end_to_end"]

    missing = [m["name"] for m in wanted if m["name"] not in values]
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in wanted
        if m["name"] in values
    }
    finite = all(math.isfinite(v["value"]) for v in metrics.values())
    correct = (
        solves.failed == 0
        and not solves.nondeterministic
        and not missing
        and finite
    )
    record = {
        "environment": environment(args),
        "scene_seeds": w.scene_seeds(args.seed),
        "solve_times_s": solves.times,
        "failures": {str(k): v for k, v in solves.reasons.items()},
        "nondeterministic_scenes": solves.nondeterministic,
        "missing_metrics": missing,
        **detail,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": solves.attempted,
        "failed": solves.failed,
        "metrics": metrics,
    }))
    return 0


def smoke() -> int:
    """Every workload at toy size, both modes; check the result schema."""
    spec = load_spec()
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--toy",
                   "--workload", workload, "--seed", "1", "--seconds", "0",
                   "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            label = f"{workload} trace={trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            wanted = spec["per_layer" if trace else "end_to_end"]
            problems += [f"{label}: {p}" for p in schema_problems(result, wanted)]
            print(f"{label}: ok, {len(result['metrics'])} metrics")
    for p in problems:
        print(p, file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def schema_problems(result: dict, wanted: list[dict]) -> list[str]:
    out = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"result keys {sorted(result)}")
        return out
    if result["correct"] is not True:
        out.append("correct is not true")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        out.append(f"attempted {result['attempted']!r}")
    if result["failed"] != 0:
        out.append(f"failed {result['failed']!r}")
    names = [m["name"] for m in wanted]
    if sorted(result["metrics"]) != sorted(names):
        out.append(f"metric names differ: {sorted(set(names) ^ set(result['metrics']))}")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            continue
        if set(got) != {"value", "unit"} or got["unit"] != m["unit"]:
            out.append(f"{m['name']}: {got}")
        elif not math.isfinite(got["value"]):
            out.append(f"{m['name']}: non-finite value")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at toy size and check the schema")
    parser.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.toy)
        return 0
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
