"""Per-layer tracing for the traced run (``--trace 1``).

The program is not edited: :meth:`Tracer.install` wraps the public entry
points of each layer from here, recording calls and wall time per phase
(``setup``, ``timed``, ``check``).  Spark work is attributed per operation
through job groups: each timed operation gets its own group, and after it
returns the jobs of that group are looked up in Spark's status store
(which works with the UI disabled) for stage, task, run-time and shuffle
figures.  GraphAr scans are read from the executed plan of each query:
its Parquet scan nodes give the chunk files read and the rows returned.

Per-operation metrics are totals over the timed phase divided by the
number of timed operations, so they compare across runs of any length.
"""
from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict

# (name, unit), in output order.  Every workload prints all of them; a
# layer the workload does not touch reads 0.
METRICS = [
    ("datasets.build_s", "s"),
    ("store.build_s", "s"),
    ("access.vertex_calls", "count/op"),
    ("access.vertex_ms", "ms/op"),
    ("access.neighbors_calls", "count/op"),
    ("access.neighbors_ms", "ms/op"),
    ("access.update_calls", "count/op"),
    ("access.update_ms", "ms/op"),
    ("compile.calls", "count/op"),
    ("compile.parse_ms", "ms/op"),
    ("compile.plan_ms", "ms/op"),
    ("compile.rbo_ms", "ms/op"),
    ("compile.cbo_ms", "ms/op"),
    ("catalog.build_s", "s"),
    ("hiactor.build_s", "s"),
    ("hiactor.calls", "count/op"),
    ("hiactor.execute_ms", "ms/op"),
    ("hiactor.rows_out", "rows/op"),
    ("gaia.calls", "count/op"),
    ("gaia.build_ms", "ms/op"),
    ("spark.jobs", "count/op"),
    ("spark.stages", "count/op"),
    ("spark.tasks", "count/op"),
    ("spark.executor_run_ms", "ms/op"),
    ("spark.shuffle_read_bytes", "bytes/op"),
    ("spark.shuffle_write_bytes", "bytes/op"),
    ("graphar.chunks_read", "count/op"),
    ("graphar.rows_read", "rows/op"),
    ("query.rows_out", "rows/op"),
    ("graphar.rows_read_per_row_out", "ratio"),
    ("grape.engine_build_s", "s"),
    *[
        (f"grape.{alg}.{m}", u)
        for alg in ("pagerank", "bfs", "wcc")
        for m, u in (
            ("jobs", "count/run"),
            ("stages", "count/run"),
            ("executor_run_ms", "ms/run"),
            ("shuffle_write_bytes", "bytes/run"),
        )
    ],
    ("gart.insert_ms", "ms/op"),
    ("gart.delete_ms", "ms/op"),
    ("gart.compact_ms", "ms/op"),
    ("gart.snapshot_ms", "ms"),
    ("spark.cached_rdds", "count"),
]

_SPARK_FIELDS = ("jobs", "stages", "tasks", "executor_run_ms", "shuffle_read_bytes", "shuffle_write_bytes")


class Tracer:
    """Wraps layer entry points and gathers Spark metrics per operation."""

    def __init__(self):
        self.phase = "setup"
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.secs: dict[tuple[str, str], float] = defaultdict(float)
        self.spark_ops = defaultdict(float)  # field -> total over timed ops
        self.per_class = defaultdict(lambda: defaultdict(float))  # cls -> field -> total
        self.class_ops = defaultdict(int)
        self.scan = defaultdict(float)
        self._spark = None
        self._n = 0
        self._cached_rdds = 0
        self._active: set[str] = set()

    # -- wrapping -------------------------------------------------------
    def _wrap(self, owner, attr: str, key: str, on_result=None) -> None:
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*a, **kw):
            if key in self._active:  # nested call of the same layer: counted once
                return orig(*a, **kw)
            self._active.add(key)
            t = time.perf_counter()
            try:
                out = orig(*a, **kw)
            finally:
                self.secs[(self.phase, key)] += time.perf_counter() - t
                self.calls[(self.phase, key)] += 1
                self._active.discard(key)
            if on_result is not None:
                on_result(out)
            return out

        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from repro.analytics import grape
        from repro.datasets import graphs, snb
        from repro.query import catalog, cbo, cypher, gaia, hiactor, planner, rbo
        from repro.query import snb_interactive as si
        from repro.storage import csr, gart, graphar

        w = self._wrap
        w(snb, "snb_graph", "datasets")
        w(graphs, "rmat_edges", "datasets")
        for owner, attr in (
            (si.IndexedAccess, "__init__"),
            (graphar, "write_graphar"),
            (graphar.GraphArStore, "__init__"),
            (csr.StaticCSRStore, "__init__"),
            (gart.GartStore, "__init__"),
        ):
            w(owner, attr, "store")
        w(si.IndexedAccess, "vertex", "access.vertex")
        w(si.IndexedAccess, "neighbors", "access.neighbors")
        w(si.IndexedAccess, "neighbors_with_prop", "access.neighbors")
        w(si.IndexedAccess, "add_vertex", "access.update")
        w(si.IndexedAccess, "add_edge", "access.update")
        w(cypher, "parse_cypher", "compile.parse")
        w(planner, "compile_plan", "compile.plan")
        w(rbo, "apply_rbo", "compile.rbo")
        w(cbo, "lower_match_cbo", "compile.cbo")
        w(catalog.Catalog, "from_store", "catalog")
        w(hiactor.HiActorEngine, "__init__", "hiactor.build")
        w(hiactor.HiActorEngine, "execute", "hiactor.execute", self._hiactor_rows)
        w(gaia.GaiaExecutor, "execute", "gaia")
        w(grape.GrapeEngine, "__init__", "grape.build")
        w(gart.GartStore, "insert_edges", "gart.insert")
        w(gart.GartStore, "insert_vertices", "gart.insert")
        w(gart.GartStore, "delete_edges", "gart.delete")
        w(gart.GartStore, "compact", "gart.compact")

    def _hiactor_rows(self, df) -> None:
        self.calls[(self.phase, "hiactor.rows")] += len(df)

    # -- Spark, per operation ------------------------------------------
    def attach_spark(self, spark) -> None:
        self._spark = spark
        sc = spark.sparkContext
        self._sc = sc
        self._jsc = sc._jsc.sc()
        self._no_quantiles = sc._gateway.new_array(sc._gateway.jvm.double, 0)

    def begin_op(self) -> None:
        if self._spark is not None:
            self._n += 1
            self._group = f"perfbench-op-{self._n}"
            self._sc.setJobGroup(self._group, self._group)

    def end_op(self, cls: str, *, counted: bool) -> None:
        if not counted or self._spark is None:
            return
        m = self.spark_metrics(self._group)
        for k, v in m.items():
            self.spark_ops[k] += v
            self.per_class[cls][k] += v
        self.class_ops[cls] += 1

    def spark_metrics(self, group: str) -> dict:
        """Jobs, stages, tasks, run time and shuffle bytes of one job group."""
        self._jsc.listenerBus().waitUntilEmpty()
        store = self._jsc.statusStore()
        tracker = self._sc.statusTracker()
        out = dict.fromkeys(_SPARK_FIELDS, 0.0)
        stage_ids = set()
        for job in tracker.getJobIdsForGroup(group):
            out["jobs"] += 1
            info = tracker.getJobInfo(job)
            if info is not None:
                stage_ids.update(info.stageIds)
        for sid in stage_ids:
            attempts = store.stageData(sid, False, None, False, self._no_quantiles)
            for i in range(attempts.size()):
                s = attempts.apply(i)
                if s.status().toString() == "SKIPPED":
                    continue
                out["stages"] += 1
                out["tasks"] += s.numCompleteTasks()
                out["executor_run_ms"] += s.executorRunTime()
                out["shuffle_read_bytes"] += s.shuffleReadBytes()
                out["shuffle_write_bytes"] += s.shuffleWriteBytes()
        return out

    def graphar_scan(self, df, rows_out: int) -> None:
        """Chunk files and rows read by the GraphAr scans (``Scan parquet``
        over the archive's chunk files) of one executed query."""
        stack = [df._jdf.queryExecution().executedPlan()]
        while stack:
            node = stack.pop()
            if node.nodeName().startswith("Scan parquet"):
                m = node.metrics()
                self.scan["chunks"] += m.apply("numFiles").value()
                self.scan["rows"] += m.apply("numOutputRows").value()
            children = node.children()
            stack.extend(children.apply(i) for i in range(children.size()))
        self.scan["rows_out"] += rows_out

    def end_run(self) -> None:
        self.phase = "check"
        if self._spark is not None:
            self._cached_rdds = self._spark.sparkContext._jsc.getPersistentRDDs().size()

    # -- output -----------------------------------------------------------
    _PER_OP_CALLS = {
        "access.vertex_calls": "access.vertex",
        "access.neighbors_calls": "access.neighbors",
        "access.update_calls": "access.update",
        "compile.calls": "compile.parse",
        "hiactor.calls": "hiactor.execute",
        "gaia.calls": "gaia",
    }
    _PER_OP_MS = {
        "access.vertex_ms": "access.vertex",
        "access.neighbors_ms": "access.neighbors",
        "access.update_ms": "access.update",
        "compile.parse_ms": "compile.parse",
        "compile.plan_ms": "compile.plan",
        "compile.rbo_ms": "compile.rbo",
        "compile.cbo_ms": "compile.cbo",
        "hiactor.execute_ms": "hiactor.execute",
        "gaia.build_ms": "gaia",
        "gart.insert_ms": "gart.insert",
        "gart.delete_ms": "gart.delete",
        "gart.compact_ms": "gart.compact",
    }
    _PER_SETUP_S = {
        "datasets.build_s": "datasets",
        "store.build_s": "store",
        "catalog.build_s": "catalog",
        "hiactor.build_s": "hiactor.build",
        "grape.engine_build_s": "grape.build",
    }

    def metrics(self, rec, *, setups_n: int) -> dict:
        ops = max(1, rec.count())
        v = {
            "hiactor.rows_out": self.calls[("timed", "hiactor.rows")] / ops,
            "graphar.chunks_read": self.scan["chunks"] / ops,
            "graphar.rows_read": self.scan["rows"] / ops,
            "query.rows_out": self.scan["rows_out"] / ops,
            "graphar.rows_read_per_row_out": self.scan["rows"] / max(1.0, self.scan["rows_out"]),
            "gart.snapshot_ms": statistics.median(rec.lat.get("read_new", [0.0])) * 1000,
            "spark.cached_rdds": self._cached_rdds,
        }
        v.update({m: self.calls[("timed", k)] / ops for m, k in self._PER_OP_CALLS.items()})
        v.update({m: self.secs[("timed", k)] * 1000 / ops for m, k in self._PER_OP_MS.items()})
        v.update({m: self.secs[("setup", k)] / setups_n for m, k in self._PER_SETUP_S.items()})
        v.update({f"spark.{f}": self.spark_ops[f] / ops for f in _SPARK_FIELDS})
        for alg in ("pagerank", "bfs", "wcc"):
            n = max(1, self.class_ops.get(alg, 0))
            for f in ("jobs", "stages", "executor_run_ms", "shuffle_write_bytes"):
                v[f"grape.{alg}.{f}"] = self.per_class[alg][f] / n
        return {name: {"value": float(v[name]), "unit": unit} for name, unit in METRICS}
