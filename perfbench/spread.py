"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workloads pair-iterate hs-sharpen --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline/BENCH_x.json

For every workload and metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
``(q3 - q1) / median`` next to the metric's bound from ``BENCHMARK.json``.
With ``--out`` every run's record and result line is written as well, so two
commits can be compared on the same seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return {"workload": workload, "seed": seed, "trace": trace,
            "record": json.loads(lines[-2])["record"],
            "result": json.loads(lines[-1])}


def summarise(runs: list[dict], wanted: list[dict]) -> dict:
    out = {}
    for m in wanted:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[m["name"]] = {
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf"),
            "bound": m.get("bound"), "unit": m["unit"], "n": len(values),
        }
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    runs, summary, ok = [], {}, True
    for workload in args.workloads:
        mine = []
        for seed in parse_seeds(args.seeds):
            run = run_once(workload, seed, args.seconds, args.trace)
            res = run["result"]
            print(f"{workload} seed={seed} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", flush=True)
            ok &= res["correct"]
            mine.append(run)
        runs += mine
        if len(mine) < 2:
            continue
        summary[workload] = summarise(mine, wanted)
        for name, s in summary[workload].items():
            flag = ""
            if s["bound"] is not None and name != "setup_s":
                flag = "ok" if s["spread"] <= s["bound"] / 3 else "WIDE"
            print(f"  {name:24s} median={s['median']:.6g} {s['unit']:6s} "
                  f"spread={s['spread']:.4f} bound={s['bound']} {flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(dumps(summary, runs))
    return 0 if ok else 1


def dumps(summary: dict, runs: list[dict]) -> str:
    """JSON text with the summary indented and one run per line."""
    body = ",\n".join(json.dumps(r) for r in runs)
    return (f'{{"summary": {json.dumps(summary, indent=1)},\n'
            f'"runs": [\n{body}\n]}}\n')


if __name__ == "__main__":
    sys.exit(main())
