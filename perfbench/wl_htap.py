"""htap_gart: writes beside snapshot reads on the GART store (paper §4.2).

A round is ``CYCLES`` write/read cycles and one ``compact()``.  A cycle
writes a batch of BUY orders (``insert_edges``), tombstones KNOWS edges
(``delete_edges``) and adds Accounts (``insert_vertices``); then reads the
newest snapshot (one BI Cypher query through Gaia on ``snapshot()`` and
one ``scan_edges().count()``) and re-reads the snapshot taken one cycle
earlier, both the same BI query and its Account vertex count.

Known fault, kept on purpose: ``GartSnapshot.vertices`` ignores the
snapshot's version, so the old snapshot's Account count includes the
Accounts inserted after it.  That re-read fails in every cycle, whatever
the seed, and is counted in ``failed``; a fix that versions vertex
inserts shows as fewer failed operations.

Checks: DuckDB SQL over the benchmark's own versioned log of the writes
(create/delete version per row), and the MVCC property that a snapshot
re-read after later writes returns its earlier answer.
"""
from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd

from repro.datasets import snb
from repro.query import cypher, gaia, planner
from repro.storage import gart

NEEDS_SPARK = True
SETUPS = 1  # a Spark set-up costs 10-15 s; one per run fits the run budget

N_PERSONS = 2000
CYCLES = 2  # write/read cycles per round; each round ends in compact()
BUY_BATCH = 200
KNOWS_DELETES = 50
NEW_ACCOUNTS = 20
PRICE = 250

BI = (
    "MATCH (a:Account)-[:BUY]->(i:Item) WHERE i.price > %d "
    "RETURN i.category AS cat, count(a) AS buys ORDER BY cat" % PRICE
)
BI_SQL = f"""SELECT i.category, count(*) FROM buy b JOIN item i ON i.id = b.dst
    WHERE b.cv <= $v AND b.dv > $v AND i.price > {PRICE} GROUP BY i.category ORDER BY 1"""
LIVE = np.iinfo(np.int64).max


class State:
    pass


def build(spark, seed: int, workdir, rec) -> State:
    st = State()
    st.spark = spark
    st.pg = snb.snb_graph(n_persons=N_PERSONS, seed=seed)
    st.store = gart.GartStore(spark, st.pg)
    st.plan = planner.compile_plan(cypher.parse_cypher(BI), rbo=True)
    st.rng = np.random.default_rng(seed + 5)
    st.accounts = st.pg.vertices["Account"].id.to_numpy()
    st.items = st.pg.vertices["Item"].id.to_numpy()
    st.next_account = int(st.accounts.max()) + 1
    st.live_knows = st.pg.edges["KNOWS"][["src", "dst"]].to_numpy()
    st.writes = []  # (version, label, kind, frame)
    st.reads = []  # (kind, version, answer)
    st.rows_written = 0
    st.prev = _read_new(st, rec)  # warm-up read; the first cycle re-reads it
    return st


def _bi_rows(spark, snap, plan) -> list:
    return [tuple(r) for r in gaia.GaiaExecutor(spark, snap).execute(plan).collect()]


def _read_new(st: State, rec):
    snap = st.store.snapshot()
    bi = rec.op("read_new", _bi_rows, st.spark, snap, st.plan)
    st.reads.append(("bi", snap.version, bi))
    n = rec.op("scan_new", lambda: snap.scan_edges().count())
    st.reads.append(("scan", snap.version, n))
    return snap, bi


def _cycle(st: State, rec) -> None:
    g = st.rng
    buys = pd.DataFrame(
        {
            "src": g.choice(st.accounts, BUY_BATCH),
            "dst": g.choice(st.items, BUY_BATCH),
            "date": g.integers(3000, 4000, BUY_BATCH),
            "amount": (g.random(BUY_BATCH) * 100 + 1).round(2),
        }
    )
    v = rec.op("insert_edges", st.store.insert_edges, "BUY", buys)
    st.writes.append((v, "BUY", "insert", buys))

    pick = g.choice(len(st.live_knows), KNOWS_DELETES, replace=False)
    keys = pd.DataFrame(st.live_knows[pick], columns=["src", "dst"])
    st.live_knows = np.delete(st.live_knows, pick, axis=0)
    v = rec.op("delete", st.store.delete_edges, "KNOWS", keys)
    st.writes.append((v, "KNOWS", "delete", keys))

    ids = np.arange(st.next_account, st.next_account + NEW_ACCOUNTS, dtype=np.int64)
    st.next_account += NEW_ACCOUNTS
    accts = pd.DataFrame({"id": ids, "riskScore": g.random(NEW_ACCOUNTS).round(4)})
    v = rec.op("insert_vertices", st.store.insert_vertices, "Account", accts)
    st.writes.append((v, "Account", "insert", accts))
    st.rows_written += len(buys) + len(keys) + len(accts)

    old, old_bi = st.prev
    st.prev = _read_new(st, rec)
    again = rec.op("read_old", _bi_rows, st.spark, old, st.plan)
    st.reads.append(("bi_again", old.version, (old_bi, again)))
    n = rec.op("vertices_old", lambda: old.vertices("Account").count())
    st.reads.append(("vertices", old.version, n))


def run_round(st: State, rec) -> None:
    for _ in range(CYCLES):
        _cycle(st, rec)
    rec.op("compact", st.store.compact)


def check(st: State, rec):
    db = duckdb.connect()
    pg = st.pg
    buy = pg.edges["BUY"].assign(cv=0, dv=LIVE)
    knows = pg.edges["KNOWS"].assign(cv=0, dv=LIVE)
    account = pg.vertices["Account"].assign(cv=0)
    for v, label, kind, frame in st.writes:
        if label == "BUY":
            buy = pd.concat([buy, frame.assign(cv=v, dv=LIVE)], ignore_index=True)
        elif label == "Account":
            account = pd.concat([account, frame.assign(cv=v)], ignore_index=True)
        else:
            hit = knows.set_index(["src", "dst"]).index.isin(
                frame.set_index(["src", "dst"]).index
            ) & (knows.dv == LIVE).to_numpy()
            knows.loc[hit, "dv"] = v
    static = sum(len(pdf) for label, pdf in pg.edges.items() if label not in ("BUY", "KNOWS"))
    for name, frame in (("buy", buy), ("knows", knows), ("account", account), ("item", pg.vertices["Item"])):
        db.register("src_df", frame)
        db.execute(f"CREATE TABLE {name} AS SELECT * FROM src_df")
        db.unregister("src_df")

    bad, failed = [], 0
    for kind, v, got in st.reads:
        if kind == "bi":
            ok = got == db.execute(BI_SQL, {"v": v}).fetchall()
        elif kind == "scan":
            live = db.execute(
                "SELECT (SELECT count(*) FROM buy WHERE cv <= $v AND dv > $v)"
                " + (SELECT count(*) FROM knows WHERE cv <= $v AND dv > $v)",
                {"v": v},
            ).fetchone()[0]
            ok = got == live + static
        elif kind == "bi_again":
            earlier, again = got
            ok = again == earlier  # MVCC: an old snapshot keeps its answer
        else:  # vertices: the known fault, counted as failed, not as wrong
            want = db.execute("SELECT count(*) FROM account WHERE cv <= $v", {"v": v}).fetchone()[0]
            if got != want:
                failed += 1
            continue
        if not ok:
            bad.append((kind, v))
    db.close()
    writes = sum(sum(rec.lat.get(c, [])) for c in ("insert_edges", "insert_vertices", "delete"))
    detail = {
        "mismatches": bad[:5],
        "ingest_rows_per_s": st.rows_written / writes if writes else 0.0,
        "compact_s": float(np.median(rec.lat.get("compact", [float("nan")]))),
    }
    return not bad, failed, detail
