"""Benchmark command: wall-clock GRASP aggregation queries on one workload.

Run from the repository root:

    python3 perfbench/run.py --workload similarity_j06_grasp --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the traced variant and reports the per-layer metrics.
Every metric is printed by name and unit, followed by the run's
environment; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The full
report, spans included, is written to ``.bench_build/perfbench/``.
Exits non-zero when the program's sources are missing or set-up fails.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_build" / "perfbench"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    # Keep every temporary file inside the checkout, including the ones
    # PySpark and the JVM launcher create before Spark's own settings apply.
    os.environ["TMPDIR"] = str(scratch)
    # spark-submit first runs a small launcher JVM; keep its files here too.
    os.environ["SPARK_LAUNCHER_OPTS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={scratch}"
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import bench  # needs the paths above

    if args.workload not in bench.CASES:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(bench.CASES)}",
            file=sys.stderr,
        )
        return 2
    case = bench.CASES[args.workload]
    spark, start_s = bench.start_spark(min(4, os.cpu_count() or 1), str(scratch))
    try:
        report = bench.run(
            spark,
            case,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            spark_start_s=start_s,
        )
    finally:
        stop_spark(spark)
    out = OUT / f"{case.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, default=str))
    print(bench.format_report(report))
    print(json.dumps(report["result"]))
    return 0


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM to exit: the gateway JVM
    quits when its standard input closes."""
    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        proc.wait(timeout=60)


if __name__ == "__main__":
    sys.exit(main())
