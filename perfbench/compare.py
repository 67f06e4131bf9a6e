"""Compare two result files written by series.py (before, after).

    python3 perfbench/compare.py BEFORE.json AFTER.json

For every workload and end-to-end metric it prints both medians and
quartiles, the change of the median, and a verdict against the metric's
bound in BENCHMARK.json: "ok" when the after-median is not worse by more
than the bound, "REGRESSED" when it is, and "unresolved" when the
before-runs spread wider than the bound (unless every after-run beats
every before-run). It also prints each side's median host probe, the
speed of the host itself while the runs were made.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from series import host_probes, quartiles, spec


def values(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and not r["trace"]]


def verdict(before: list[float], after: list[float], bound: float, lower_is_better: bool) -> str:
    b, a = quartiles(before), quartiles(after)
    sign = 1.0 if lower_is_better else -1.0
    change = sign * (a[1] - b[1]) / b[1]  # > 0 means worse
    spread = (b[2] - b[0]) / b[1]
    if lower_is_better:
        all_better = max(after) < min(before)
    else:
        all_better = min(after) > max(before)
    if spread > bound and not all_better:
        return "unresolved"
    return "REGRESSED" if change > bound else "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    before = json.loads(Path(args.before).read_text())["runs"]
    after = json.loads(Path(args.after).read_text())["runs"]
    regressed = False
    print(f"{'workload':8s} {'metric':14s} {'before median [q1, q3]':>34s} "
          f"{'after median [q1, q3]':>34s} {'change':>8s} bound  verdict")
    for m in spec()["end_to_end"]:
        for workload in sorted({r["workload"] for r in before} & {r["workload"] for r in after}):
            b, a = values(before, workload, m["name"]), values(after, workload, m["name"])
            if not b or not a:
                continue
            (b1, bm, b3), (a1, am, a3) = quartiles(b), quartiles(a)
            word = verdict(b, a, m["bound"], m["better"] == "lower")
            regressed |= word == "REGRESSED"
            print(f"{workload:8s} {m['name']:14s} {bm:12.4f} [{b1:9.4f}, {b3:9.4f}] "
                  f"{am:12.4f} [{a1:9.4f}, {a3:9.4f}] {(am - bm) / bm:+8.1%} {m['bound']:.2f}  {word}")
    for workload in sorted({r["workload"] for r in before} & {r["workload"] for r in after}):
        bm, am = quartiles(host_probes(before, workload))[1], quartiles(host_probes(after, workload))[1]
        print(f"{workload:8s} host_probe_ms  before {bm:.3f}, after {am:.3f} ({(am - bm) / bm:+.1%}: the host's own speed)")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
