#!/usr/bin/env python3
"""Flex-stack benchmark: one seeded, closed-loop workload per process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The process builds the workload's state
from ``--seed`` (``SETUPS`` times; ``setup_s`` is the median), runs whole
rounds of operations from one client until ``--seconds`` have passed,
checks every recorded output against an independent computation (DuckDB
SQL, networkx, or an MVCC mirror of the writes), and prints one JSON
object as its last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the layer entry points are wrapped (see ``layers.py``) and the per-layer
metrics are printed instead.  A ``detail`` line before the result carries
per-operation-class figures for people reading the log.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

# Operation classes rarer than this share are left out of geomean_ms: on
# oltp_interactive the complex reads C1-C5 are ~2% each, and with 10-20 a
# run their medians swing by up to 100x with the persons the seed draws.
MIN_CLASS_SHARE = 0.05

WORKLOADS = {
    "oltp_interactive": "wl_oltp",
    "olap_graphar": "wl_olap",
    "analytics_grape": "wl_grape",
    "htap_gart": "wl_htap",
}


def driver_heap() -> str:
    """Driver JVM heap from MemTotal, the same rule as the tier-1 command:
    half the machine's memory in GiB, clamped to [2, 8]."""
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    g = int(line.split()[1]) // 2097152
                    return f"{min(8, max(2, g))}g"
    except OSError:
        pass
    return "2g"


def spark_cores() -> int:
    return max(1, min(4, len(os.sched_getaffinity(0))))


def configure_env(workdir: Path) -> None:
    """Everything the program and Spark's Python workers need, set here so
    no pytest conftest or outer shell is relied on."""
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    sys.path.insert(0, str(SRC))
    local = workdir / "spark-local"
    local.mkdir(parents=True, exist_ok=True)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["TMPDIR"] = str(workdir)
    os.environ["PYSPARK_PYTHON"] = sys.executable  # Spark's Python workers
    # a stray PYSPARK_SUBMIT_ARGS would override the master and heap below
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)


def start_spark(workdir: Path):
    from pyspark.sql import SparkSession

    n = spark_cores()
    spark = (
        SparkSession.builder.appName("perfbench")
        .master(f"local[{n}]")
        .config("spark.driver.memory", driver_heap())
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={workdir}")
        .config("spark.local.dir", str(workdir / "spark-local"))
        .config("spark.sql.warehouse.dir", str(workdir / "warehouse"))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        # fixed plans: AQE re-planning would make stage counts drift run to run
        .config("spark.sql.adaptive.enabled", "false")
        .config("spark.sql.shuffle.partitions", str(n))
        .config("spark.sql.autoBroadcastJoinThreshold", str(10 * 1024 * 1024))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and with it Spark's Python
    workers) to exit."""
    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the launcher JVM exits when its stdin closes
        proc.wait(timeout=60)


class Recorder:
    """Times each operation of the timed phase, by operation class."""

    def __init__(self, tracer=None):
        self.lat: dict[str, list[float]] = {}
        self.tracer = tracer
        self.timing = False

    def op(self, cls: str, fn, *args):
        if self.tracer is not None:
            self.tracer.begin_op()
        t = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t
        if self.timing:
            self.lat.setdefault(cls, []).append(dt)
        if self.tracer is not None:
            self.tracer.end_op(cls, counted=self.timing)
        return out

    def count(self) -> int:
        return sum(len(v) for v in self.lat.values())

    def all(self) -> list[float]:
        return [x for v in self.lat.values() for x in v]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t_proc = time.perf_counter()
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    workdir = TMP / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    configure_env(workdir)
    sys.path.insert(0, str(HERE))
    wl = importlib.import_module(WORKLOADS[args.workload])

    spark = None
    try:
        tracer = None
        if args.trace:
            import layers

            tracer = layers.Tracer()
        session_s = 0.0
        if wl.NEEDS_SPARK:
            t = time.perf_counter()
            spark = start_spark(workdir)
            session_s = time.perf_counter() - t
            if tracer is not None:
                tracer.attach_spark(spark)
        if tracer is not None:
            tracer.install()

        rec = Recorder(tracer)
        setups = []
        for k in range(wl.SETUPS):
            t = time.perf_counter()
            state = wl.build(spark, args.seed, workdir / f"build-{k}", rec)
            setups.append(time.perf_counter() - t)

        rec.timing = True
        if tracer is not None:
            tracer.phase = "timed"
        t0 = time.perf_counter()
        rounds = 0
        while wl.run_round(state, rec) is not False:
            rounds += 1
            if time.perf_counter() - t0 >= args.seconds:
                break
        wall = time.perf_counter() - t0
        rec.timing = False
        if tracer is not None:
            tracer.end_run()

        correct, failed, detail = wl.check(state, rec)
        attempted = rec.count()
        # geometric mean of the per-class median latencies over the classes
        # that make up at least MIN_CLASS_SHARE of the operations; see README
        medians = [statistics.median(v) for v in rec.lat.values() if len(v) >= MIN_CLASS_SHARE * attempted]
        geo = math.exp(statistics.fmean(math.log(m) for m in medians))
        e2e = {
            "setup_s": (statistics.median(setups), "s"),
            "geomean_ms": (geo * 1000, "ms"),
        }
        detail.update(
            ops_per_s=(attempted - failed) / wall,
            rounds=rounds,
            wall_s=round(wall, 4),
            session_s=round(session_s, 4),
            setups_s=[round(x, 4) for x in setups],
            process_s=round(time.perf_counter() - t_proc, 3),
            classes={c: [len(v), round(statistics.median(v) * 1000, 4)] for c, v in rec.lat.items()},
        )
        if tracer is not None:
            metrics = tracer.metrics(rec, setups_n=wl.SETUPS)
        else:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        print("detail " + json.dumps(detail, default=float), flush=True)
        print(
            json.dumps(
                {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}
            ),
            flush=True,
        )
        return 0
    finally:
        if spark is not None:
            stop_spark(spark)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP.rmdir()  # only if no other run is using it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
