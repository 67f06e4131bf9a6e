"""safemon benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload {stream,replay,fit,agent} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
``src/``. Inputs come from the seed (see corpus.py). Set-up, ending in an
untimed warm-up, is repeated SETUP_REPEATS times and `setup_s` is the
median. Units of work then run until S seconds have passed, and their
outputs are checked. Every time is scaled to a reference host speed by a
short fixed loop run around it (see REFERENCE_S in workloads.py), which
takes out the shared host's slow and fast phases; raw medians are printed
beside the figures. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 the same run is repeated with spans around the program's
public functions, and the metrics are the per-layer ones. The lines
before the result give a readable report and one ``detail`` JSON line
(machine, generator properties, tracing overhead) for series.py.
"""

from __future__ import annotations

import os

# Set before numpy loads: one thread for BLAS, no forest worker pool.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "SMARLA_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
DEFAULT_SEED = 1  # the seed whose artifact digests are recorded
DIGESTS = HERE / "digests.json"


def import_program():
    """Import safemon from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "safemon" / "__init__.py").is_file():
        raise SystemExit(f"no safemon sources under {src}: run from a source checkout")
    sys.path.insert(0, str(src))
    import safemon

    if Path(safemon.__file__).resolve().parent != (src / "safemon").resolve():
        raise SystemExit(f"safemon imported from {safemon.__file__}, not from {src}")


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float) -> dict:
    """Set up SETUP_REPEATS times, then run units until `seconds` have passed."""
    from workloads import REFERENCE_S, reference_s

    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        first = len(workload.bracket.readings)
        before = reference_s()
        start = time.perf_counter()
        workload.setup()
        raw_setups.append(time.perf_counter() - start)
        # Set-up runs commands, each bracketed: use every reading it took.
        readings = [before, *workload.bracket.readings[first:], reference_s()]
        setups.append(raw_setups[-1] * REFERENCE_S / statistics.fmean(readings))
    start = time.perf_counter()
    units = 0
    while units == 0 or time.perf_counter() - start < seconds or workload.more():
        workload.unit()
        units += 1
    primary, secondary = workload.metrics()
    return {
        "setup_s": statistics.median(setups),
        "_raw_setup_s": statistics.median(raw_setups),
        "primary_ms": primary,
        "secondary_ms": secondary,
        "peak_rss_mb": peak_rss_mb(),
        "_units": units,
        "_measured_s": time.perf_counter() - start,
    }


def check_digests(workload, seed: int, record: bool) -> None:
    """Artifacts of the default seed must match the recorded digests."""
    if seed != DEFAULT_SEED or not workload.digested:
        return
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    if record:
        table[workload.name] = workload.artifacts
        DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
        return
    want = table.get(workload.name, {})
    workload.check(bool(want), f"no recorded digests for {workload.name}")
    for name, digest in sorted(want.items()):
        workload.check(workload.artifacts.get(name) == digest, f"{name} digest differs from the record")


def traced_pass(cls, work: Path, seed: int, seconds: float):
    import layers
    from spans import Tracer

    tracer = Tracer()
    uninstall = layers.install(tracer)
    try:
        workload = cls(work / "traced", seed)
        figures = measure(workload, seconds)
    finally:
        uninstall()
    per_layer, props = layers.metrics(tracer, getattr(workload, "lines_per_session", []))
    return workload, figures, per_layer, props


def report(figures: dict, workload) -> None:
    print(f"== {workload.name}: {figures['_units']} units of work in {figures['_measured_s']:.1f} s")
    print(f"  setup_s        {figures['setup_s']:12.4f} s   (median of {SETUP_REPEATS} set-ups;"
          f" raw {figures['_raw_setup_s']:.4f} s)")
    for slot, (name, unit, per_ms) in (("primary_ms", workload.primary),
                                       ("secondary_ms", workload.secondary)):
        print(f"  {slot:14s} {figures[slot]:12.4f} ms  = {name} {figures[slot] * per_ms:.6g} {unit}")
    print(f"  peak_rss_mb    {figures['peak_rss_mb']:12.1f} MB")
    ratio = workload.failed / workload.attempted if workload.attempted else 0.0
    print(f"  op_fail_ratio  {ratio:12.4f}     ({workload.failed} failed of {workload.attempted} operations)")
    for key, value in workload.info.items():
        print(f"  {key}: {json.dumps(value)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"store the artifact digests of seed {DEFAULT_SEED} instead of checking them")
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(HERE))
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = cls(work / "plain", args.seed)
        figures = measure(workload, args.seconds)
        workload.verify()
        check_digests(workload, args.seed, args.record_digests)
        report(figures, workload)
        # The host's own speed over the run: the reference loop's time.
        readings = workload.bracket.readings
        probe = [statistics.quantiles(readings, n=4)[i] * 1e3 for i in (0, 1, 2)]
        print(f"  host_probe_ms  {probe[1]:.3f} median, [{probe[0]:.3f}, {probe[2]:.3f}] quartiles"
              f" of {len(readings)} readings (reference {workloads.REFERENCE_S * 1e3:g})")
        detail = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "machine": machine(), "info": workload.info, "figures": {
                name: [figures[slot] * per_ms, unit] for slot, (name, unit, per_ms)
                in (("primary_ms", workload.primary), ("secondary_ms", workload.secondary))},
            "units": figures["_units"], "end_to_end": figures, "host_probe_ms": probe,
        }
        attempted, failed = workload.attempted, workload.failed
        metrics = {
            "setup_s": (figures["setup_s"], "s"),
            "primary_ms": (figures["primary_ms"], "ms"),
            "secondary_ms": (figures["secondary_ms"], "ms"),
            "peak_rss_mb": (figures["peak_rss_mb"], "MB"),
        }
        if args.trace:
            import layers

            traced, traced_figures, per_layer, props = traced_pass(cls, work, args.seed, args.seconds)
            attempted += traced.attempted
            failed += traced.failed
            overhead = {k: traced_figures[k] - figures[k]
                        for k in ("setup_s", "primary_ms", "secondary_ms")}
            print(f"== per-layer ({args.workload}, traced pass, set-up included)")
            for name, unit, moves in layers.PER_LAYER:
                print(f"  {name:38s} {per_layer[name]:>14.6g} {unit:9s} -> {moves}")
            for name, unit, what in layers.PROPERTIES:
                print(f"  {name:38s} {props[name]:>14.6g} {unit:9s} ({what})")
            print("  tracing overhead (traced - untraced): "
                  + ", ".join(f"{k} {v:+.4f}" for k, v in overhead.items()))
            detail.update(per_layer=per_layer, properties=props, tracing_overhead=overhead)
            metrics = {name: (per_layer[name], unit) for name, unit, _ in layers.PER_LAYER}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if (HERE / "_work").is_dir() and not any((HERE / "_work").iterdir()):
            (HERE / "_work").rmdir()
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
