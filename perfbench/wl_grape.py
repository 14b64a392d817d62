"""analytics_grape: Graphalytics-style algorithms on GRAPE (paper Exp-3).

A Graph500-like RMAT graph (scale ``SCALE``, a/b/c = 0.57/0.19/0.19) is
loaded into a ``StaticCSRStore``; a round runs PageRank with a fixed
iteration count, BFS from the highest-out-degree vertex, and WCC on a
symmetrized engine, each through ``GrapeEngine`` and collected.  Storage
does no work after set-up.  BFS and WCC have shrinking frontiers;
PageRank keeps every vertex active.

Checks: PageRank by DuckDB power iteration, BFS and WCC by networkx.
"""
from __future__ import annotations

import math

import duckdb
import networkx as nx

from repro.analytics import algorithms
from repro.analytics import grape
from repro.datasets import graphs
from repro.storage import csr

NEEDS_SPARK = True
SETUPS = 1  # a Spark set-up costs 10-15 s; one per run fits the run budget

SCALE = 13
RAW_EDGES = 60_000  # before self-loop and duplicate removal
PR_ITERS = 3
ALPHA = 0.85


class State:
    pass


def build(spark, seed: int, workdir, rec) -> State:
    st = State()
    raw = graphs.rmat_edges(scale=SCALE, n_edges=RAW_EDGES, seed=seed)
    st.edges, st.n = graphs.compact_ids(raw)
    store = csr.StaticCSRStore(spark, st.edges)
    st.engine = grape.GrapeEngine(spark, store)
    st.sym_engine = grape.GrapeEngine(spark, store, symmetrize=True)
    deg = st.edges.groupby("src").size()
    st.source = int(deg[deg == deg.max()].index.min())
    st.results = []
    # warm-up: one PageRank superstep compiles the engine's join plans
    rec.op("warmup", lambda: algorithms.pagerank(st.engine, num_iter=1).collect())
    return st


def run_round(st: State, rec) -> None:
    pr = rec.op("pagerank", lambda: algorithms.pagerank(st.engine, alpha=ALPHA, num_iter=PR_ITERS).collect())
    bfs = rec.op("bfs", lambda: algorithms.bfs(st.engine, source=st.source).collect())
    wcc = rec.op("wcc", lambda: algorithms.wcc(st.sym_engine).collect())
    st.results.append(
        (
            {r["id"]: r["rank"] for r in pr},
            {r["id"]: r["dist"] for r in bfs},
            {r["id"]: r["component"] for r in wcc},
        )
    )


def _pagerank_duckdb(edges, n_iter: int) -> dict:
    """PageRank without dangling redistribution, by SQL power iteration."""
    db = duckdb.connect()
    db.register("e", edges[["src", "dst"]])
    db.execute("CREATE TABLE v AS SELECT src AS id FROM e UNION SELECT dst FROM e")
    n = db.execute("SELECT count(*) FROM v").fetchone()[0]
    db.execute("CREATE TABLE deg AS SELECT src AS id, count(*) AS d FROM e GROUP BY src")
    db.execute(f"CREATE TABLE r AS SELECT id, 1.0 / {n} AS rank FROM v")
    for _ in range(n_iter):
        db.execute(
            f"""CREATE OR REPLACE TABLE r AS
            SELECT v.id, {(1 - ALPHA) / n!r} + {ALPHA!r} * coalesce(m.s, 0.0) AS rank
            FROM v LEFT JOIN (
                SELECT e.dst AS id, sum(r.rank / deg.d) AS s
                FROM e JOIN r ON r.id = e.src JOIN deg ON deg.id = e.src
                GROUP BY e.dst) m ON m.id = v.id"""
        )
    out = dict(db.execute("SELECT id, rank FROM r").fetchall())
    db.close()
    return out


def check(st: State, rec):
    pr_want = _pagerank_duckdb(st.edges, PR_ITERS)
    g = nx.DiGraph()
    g.add_edges_from(zip(st.edges.src.tolist(), st.edges.dst.tolist()))
    reach = nx.single_source_shortest_path_length(g, st.source)
    bfs_want = {v: reach.get(v) for v in g.nodes}
    wcc_want = {}
    for comp in nx.weakly_connected_components(g):
        m = min(comp)
        wcc_want.update(dict.fromkeys(comp, m))
    ok = bool(st.results)
    for pr, bfs, wcc in st.results:
        ok &= pr.keys() == pr_want.keys() and all(
            math.isclose(pr[v], pr_want[v], rel_tol=1e-9, abs_tol=1e-12) for v in pr
        )
        ok &= bfs == bfs_want and wcc == wcc_want
    detail = {
        "vertices": st.n,
        "edges": len(st.edges),
        "bfs_levels": max(reach.values()),
        "components": len(set(wcc_want.values())),
    }
    for alg in ("pagerank", "bfs", "wcc"):
        v = sorted(rec.lat.get(alg, [float("nan")]))
        detail[f"{alg}_s"] = v[len(v) // 2]
    return ok, 0, detail
