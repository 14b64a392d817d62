"""olap_graphar: BI queries on Gaia over a GraphAr archive (paper Workload 5).

The SNB-lite graph is archived with ``write_graphar`` in several chunks
per label and read back by ``GraphArStore`` on every access: every query
re-reads Parquet chunks, so the storage layer and Spark do most of the
work.  The store reads the chunk files with Spark's Parquet reader
(``use_datasource=False``); through the ``graphar`` Python DataSource a
query costs 4-5 s here and a run would not fit the time budget.  A round
compiles (RBO + CBO) and runs the four Exp-2c BI queries and the four
selective Exp-2a Q2 queries; the Q2 queries pin one start vertex by
``name``/``id``, so a chunk-pruning scan could skip most chunks of the
first label they read.

Checks: DuckDB SQL per query over the generated tables.
"""
from __future__ import annotations

import math

import duckdb
import numpy as np

from repro.datasets import snb
from repro.query import catalog, cypher, gaia, planner
from repro.storage import graphar

NEEDS_SPARK = True
SETUPS = 1  # a Spark set-up costs 10-15 s; one per run fits the run budget

N_PERSONS = 2000
VERTEX_CHUNK = 500
EDGE_CHUNK = 4000

# (name, Cypher, DuckDB SQL, ORDER BY key positions, LIMIT); %(..)s holes
# are filled from the seed.
QUERIES = [
    (
        "BI1",
        """MATCH (p:Person)-[:KNOWS]->(q:Person)-[:LIKES]->(o:Post)
        WHERE p.city = '%(city)s' RETURN q.city AS city, count(o) AS likes
        ORDER BY likes DESC LIMIT 5""",
        """SELECT q.city, count(*) FROM person p JOIN knows k ON k.src = p.id
        JOIN person q ON q.id = k.dst JOIN likes l ON l.src = q.id JOIN post o ON o.id = l.dst
        WHERE p.city = '%(city)s' GROUP BY q.city""",
        [(1, True)],
        5,
    ),
    (
        "BI2",
        """MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person)-[:CREATED]->(p:Post)
        WHERE a.name = '%(name1)s'
        RETURN c.city AS city, avg(p.length) AS avg_len ORDER BY avg_len DESC LIMIT 5""",
        """SELECT c.city, avg(p.length) FROM person a JOIN knows k1 ON k1.src = a.id
        JOIN knows k2 ON k2.src = k1.dst JOIN person c ON c.id = k2.dst
        JOIN created cr ON cr.src = c.id JOIN post p ON p.id = cr.dst
        WHERE a.name = '%(name1)s' GROUP BY c.city""",
        [(1, True)],
        5,
    ),
    (
        "BI3",
        """MATCH (a:Account)-[:AKNOWS]->(b:Account)-[:BUY]->(i:Item)
        WHERE i.price > %(price)d AND a.riskScore > 0.9
        RETURN i.category AS cat, count(a) AS buyers ORDER BY buyers DESC LIMIT 5""",
        """SELECT i.category, count(*) FROM account a JOIN aknows ak ON ak.src = a.id
        JOIN buy b ON b.src = ak.dst JOIN item i ON i.id = b.dst
        WHERE i.price > %(price)d AND a.riskScore > 0.9 GROUP BY i.category""",
        [(1, True)],
        5,
    ),
    (
        "BI4",
        """MATCH (b:Person)-[:KNOWS]->(c:Person)-[:LIKES]->(p:Post)
        MATCH (a:Person {name: '%(name2)s'})-[:KNOWS]->(b) WHERE p.length > 1000
        RETURN c.city AS city, count(p) AS liked ORDER BY liked DESC, city ASC LIMIT 5""",
        """SELECT c.city, count(*) FROM person a JOIN knows k0 ON k0.src = a.id
        JOIN knows k1 ON k1.src = k0.dst JOIN person c ON c.id = k1.dst
        JOIN likes l ON l.src = c.id JOIN post p ON p.id = l.dst
        WHERE a.name = '%(name2)s' AND p.length > 1000 GROUP BY c.city""",
        [(1, True), (0, False)],
        5,
    ),
    (
        "Q2a",
        """MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person)-[:KNOWS]->(d:Person)
        WHERE a.name = '%(name3)s' RETURN count(*) AS cnt""",
        """SELECT count(*) FROM person a JOIN knows k1 ON k1.src = a.id
        JOIN knows k2 ON k2.src = k1.dst JOIN knows k3 ON k3.src = k2.dst
        WHERE a.name = '%(name3)s'""",
        [],
        None,
    ),
    (
        "Q2b",
        """MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person)-[:LIKES]->(p:Post)
        WHERE a.name = '%(name4)s' RETURN count(*) AS cnt""",
        """SELECT count(*) FROM person a JOIN knows k1 ON k1.src = a.id
        JOIN knows k2 ON k2.src = k1.dst JOIN likes l ON l.src = k2.dst
        WHERE a.name = '%(name4)s'""",
        [],
        None,
    ),
    (
        "Q2c",
        """MATCH (a:Account)-[:AKNOWS]->(b:Account)-[:BUY]->(i:Item)<-[:BUY]-(s:Account)
        WHERE a.id = %(account)d RETURN count(*) AS cnt""",
        """SELECT count(*) FROM aknows ak JOIN buy b1 ON b1.src = ak.dst
        JOIN buy b2 ON b2.dst = b1.dst WHERE ak.src = %(account)d""",
        [],
        None,
    ),
    (
        "Q2d",
        """MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person)-[:CREATED]->(p:Post)
        WHERE a.name = '%(name5)s' RETURN count(*) AS cnt""",
        """SELECT count(*) FROM person a JOIN knows k1 ON k1.src = a.id
        JOIN knows k2 ON k2.src = k1.dst JOIN created cr ON cr.src = k2.dst
        WHERE a.name = '%(name5)s'""",
        [],
        None,
    ),
]


class State:
    pass


def _params(pg, seed: int) -> dict:
    """Query constants, curated as LDBC does: start persons whose 2-hop
    KNOWS path count is at the median, so a query's work does not depend
    on whether the seed drew a hub."""
    knows = pg.edges["KNOWS"]
    deg = knows.groupby("src").size()
    paths2 = knows.assign(d=knows.dst.map(deg).fillna(0)).groupby("src").d.sum()
    middle = paths2.sort_values(kind="stable").index.to_numpy()
    mid = len(middle) // 2
    picks = [int(v) for v in middle[mid - 3 : mid + 3]]
    g = np.random.default_rng(seed + 3)
    names = pg.vertices["Person"].set_index("id").name
    return {
        **{f"name{i}": names[p] for i, p in enumerate(picks[:5], start=1)},
        "account": snb.ACCOUNT_BASE + picks[5] - snb.PERSON_BASE,  # AKNOWS mirrors KNOWS
        "city": str(g.choice(snb.CITIES)),
        "price": 450,
    }


def build(spark, seed: int, workdir, rec) -> State:
    st = State()
    st.pg = snb.snb_graph(n_persons=N_PERSONS, seed=seed)
    root = workdir / "graphar"
    graphar.write_graphar(st.pg, root, vertex_chunk_size=VERTEX_CHUNK, edge_chunk_size=EDGE_CHUNK)
    st.store = graphar.GraphArStore(spark, root, use_datasource=False)
    st.catalog = catalog.Catalog.from_store(st.store)
    st.gaia = gaia.GaiaExecutor(spark, st.store)
    st.params = _params(st.pg, seed)
    st.results = []
    st.last_df = None
    # warm-up: the first query pays the Python DataSource's cold start
    _query(st, QUERIES[0][1] % st.params)
    return st


def _query(st: State, text: str):
    plan = planner.compile_plan(cypher.parse_cypher(text), catalog=st.catalog, rbo=True, cbo=True)
    st.last_df = st.gaia.execute(plan)
    return st.last_df.collect()


def run_round(st: State, rec) -> None:
    for name, text, *_ in QUERIES:
        rows = rec.op(name, _query, st, text % st.params)
        if rec.tracer is not None:
            rec.tracer.graphar_scan(st.last_df, len(rows))
        st.results.append((name, [tuple(r) for r in rows]))


def _agree(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def _rows_agree(got, want) -> bool:
    return len(got) == len(want) and all(
        len(g) == len(w) and all(_agree(x, y) for x, y in zip(g, w)) for g, w in zip(got, want)
    )


def check_top(got, full, keys, limit) -> bool:
    """``got`` is a correct ORDER BY ... LIMIT answer over ``full``: its rows
    are rows of ``full``, in key order, and its keys are the top ``limit``
    keys (rows tied on the keys may be any of the tied ones)."""
    def key(r):
        return tuple(-r[i] if desc else r[i] for i, desc in keys)

    ref = sorted(full, key=key)[:limit]
    by_first = {r[0]: r for r in full}
    return (
        len(got) == len(ref)
        and all(r[0] in by_first and _rows_agree([r], [by_first[r[0]]]) for r in got)
        and [key(r) for r in got] == sorted(key(r) for r in got)
        and _rows_agree([key(r) for r in got], [key(r) for r in ref])
    )


def check(st: State, rec):
    db = duckdb.connect()
    pg = st.pg
    for name, pdf in [*pg.vertices.items(), *pg.edges.items()]:
        db.register("src_df", pdf)
        db.execute(f"CREATE TABLE {name.lower()} AS SELECT * FROM src_df")
        db.unregister("src_df")
    spec = {q[0]: q for q in QUERIES}
    want = {}
    bad = []
    for name, got in st.results:
        _, _, sql, keys, limit = spec[name]
        if name not in want:
            want[name] = db.execute(sql % st.params).fetchall()
        ok = check_top(got, want[name], keys, limit) if limit else _rows_agree(got, want[name])
        if not ok:
            bad.append(name)
    db.close()
    return bool(st.results) and not bad, 0, {"mismatches": bad[:5]}
