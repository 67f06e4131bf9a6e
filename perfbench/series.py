"""Run the benchmark over several seeds and save the results in one file.

    python3 perfbench/series.py --out results.json [--workloads stream,fit]
        [--seeds 1-10] [--seconds S] [--trace 0|1]

Each run is a fresh process of run.py. The file holds every run's result
and detail lines; it prints each end-to-end metric's median and its
spread, (Q3 - Q1) / median, next to the metric's bound. compare.py
compares two such files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall_s = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": json.loads(lines[-1]), "detail": json.loads(lines[-2])["detail"], "wall_s": wall_s}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(runs: list[dict]) -> dict:
    """{workload: {metric: (q1, median, q3, n)}} over the untraced runs."""
    out: dict = {}
    for run in runs:
        if run["trace"]:
            continue
        for name, m in run["result"]["metrics"].items():
            out.setdefault(run["workload"], {}).setdefault(name, []).append(m["value"])
    return {w: {k: (*quartiles(v), len(v)) for k, v in ms.items()} for w, ms in out.items()}


def host_probes(runs: list[dict], workload: str) -> list[float]:
    """Median reference-loop time of each untraced run of `workload`."""
    return [r["detail"]["host_probe_ms"][1] for r in runs
            if r["workload"] == workload and not r["trace"]]


def main(argv=None) -> int:
    bench = spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="an inclusive range such as 1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    runs = []
    for workload in args.workloads.split(","):
        for seed in seeds(args.seeds):
            run = run_once(workload, seed, args.seconds, args.trace)
            runs.append(run)
            r = run["result"]
            values = ", ".join(f"{k}={m['value']:.4g} {m['unit']}" for k, m in r["metrics"].items())
            named = ", ".join(f"{k}={v:.4g} {u}" for k, (v, u) in run["detail"]["figures"].items())
            probe = "/".join(f"{v:.2f}" for v in run["detail"]["host_probe_ms"])
            print(f"{workload} seed {seed}: correct={r['correct']} failed={r['failed']}/{r['attempted']} "
                  f"{values} [{named}] host_probe_ms={probe} wall {run['wall_s']:.1f} s", flush=True)
    Path(args.out).write_text(json.dumps({"seconds": args.seconds, "runs": runs}, indent=1) + "\n")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload, metrics in summary(runs).items():
        for name, (q1, med, q3, n) in metrics.items():
            if name not in bounds:
                continue
            spread = (q3 - q1) / med
            flag = "ok" if name == "setup_s" or spread < bounds[name] / 3 else "WIDE"
            print(f"{workload:8s} {name:14s} median {med:12.4f} spread {spread:6.3f} "
                  f"bound {bounds[name]:.2f} n={n} {flag}")
        q1, med, q3 = quartiles(host_probes(runs, workload))
        print(f"{workload:8s} {'host_probe_ms':14s} median {med:12.4f} spread {(q3 - q1) / med:6.3f}"
              " (the host's own speed, no bound)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
