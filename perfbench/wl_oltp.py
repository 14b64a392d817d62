"""oltp_interactive: SNB-Interactive-style requests on the in-memory OLTP path.

One client runs the ``snb_interactive.make_workload`` op stream (short
reads, complex 2-hop reads, ~10% inserts) against ``IndexedAccess``, with
a parameterised Cypher point read compiled per request
(``parse_cypher`` -> ``compile_plan(rbo=True)``) and run by
``HiActorEngine.execute`` after every ``CYPHER_EVERY`` stream ops.  The
Cypher reads touch only labels the insert stream never changes
(Account/BUY/AKNOWS/Item and Person-CREATED-Post), so the HiActor index
built at set-up stays exact.  No Spark session is started.

Every output, warm-up included, is checked afterwards with DuckDB SQL over
the generated tables, replaying the inserts in stream order.
"""
from __future__ import annotations

import math

import duckdb
import numpy as np

from repro.datasets import snb
from repro.query import cypher, hiactor, planner
from repro.query import snb_interactive as si

NEEDS_SPARK = False
SETUPS = 3  # set-ups per run; setup_s is their median

N_PERSONS = 20_000
STREAM_OPS = 12_000  # ~9x what a timed phase consumes today; see run_round
ROUND_OPS = 50  # stream ops per round
CYPHER_EVERY = 10
WARMUP_OPS = 200

CYPHER = {
    "Q_buys": "MATCH (a:Account {id: %(account)d})-[:BUY]->(i:Item) "
    "RETURN i.category AS cat, count(i) AS n",
    "Q_fof_buys": "MATCH (a:Account {id: %(account)d})-[:AKNOWS]->(b:Account)-[:BUY]->(i:Item) "
    "WHERE i.price > %(price)d RETURN count(*) AS cnt",
    "Q_posts": "MATCH (p:Person {id: %(person)d})-[:CREATED]->(o:Post) "
    "RETURN o.id AS post, o.length AS len ORDER BY len DESC, post ASC LIMIT 5",
}


class State:
    pass


def build(spark, seed: int, workdir, rec) -> State:
    st = State()
    st.pg = snb.snb_graph(n_persons=N_PERSONS, seed=seed)
    st.access = si.IndexedAccess(st.pg)
    st.engine = hiactor.HiActorEngine(st.pg)
    st.stream = si.make_workload(st.pg, n_ops=STREAM_OPS, seed=seed + 1)
    g = np.random.default_rng(seed + 2)
    accounts = st.pg.vertices["Account"].id.to_numpy()
    persons = st.pg.vertices["Person"].id.to_numpy()
    names = sorted(CYPHER)
    st.requests = [
        (
            names[i % len(names)],
            {
                "account": int(g.choice(accounts)),
                "person": int(g.choice(persons)),
                "price": int(g.integers(50, 450)),
            },
        )
        for i in range(STREAM_OPS // CYPHER_EVERY)
    ]
    st.pos = 0
    st.log = []  # (kind, params, result), in execution order
    # warm-up: short reads and Cypher reads only, so its cost does not hang
    # on whether a hub-sized complex read is drawn; nothing is written
    for kind, fn in st.stream[:WARMUP_OPS]:
        if kind.startswith("S"):
            st.log.append((kind, fn.__defaults__, rec.op(kind, fn, st.access)))
    for name, params in st.requests[-WARMUP_OPS // CYPHER_EVERY:]:
        df = rec.op("cypher", _cypher_read, st.engine, CYPHER[name] % params)
        st.log.append((name, params, list(df.itertuples(index=False, name=None))))
    return st


def _cypher_read(engine, text: str):
    plan = planner.compile_plan(cypher.parse_cypher(text), rbo=True)
    return engine.execute(plan)


def run_round(st: State, rec) -> bool:
    """One round; False once the op stream cannot supply another, which
    ends the timed phase early rather than repeating inserts."""
    if st.pos + ROUND_OPS > len(st.stream):
        return False
    for _ in range(ROUND_OPS):
        kind, fn = st.stream[st.pos]
        out = rec.op("update" if kind.startswith("U_") else kind, fn, st.access)
        st.log.append((kind, fn.__defaults__, out))
        st.pos += 1
        if st.pos % CYPHER_EVERY == 0:
            name, params = st.requests[st.pos // CYPHER_EVERY - 1]
            df = rec.op("cypher", _cypher_read, st.engine, CYPHER[name] % params)
            st.log.append((name, params, list(df.itertuples(index=False, name=None))))
    return True


# ---------------------------------------------------------------------------
# independent check: DuckDB over the generated tables + replayed inserts
# ---------------------------------------------------------------------------
SQL = {
    "S1": "SELECT id, name, city, creationDate FROM person WHERE id = $p",
    "S2": "SELECT po.id, po.creationDate, po.length FROM created c JOIN post po ON po.id = c.dst "
    "WHERE c.src = $p",
    "S3": "SELECT dst, creationDate FROM knows WHERE src = $p ORDER BY dst, creationDate",
    "S4": "SELECT id, creationDate, length FROM post WHERE id = $q",
    "C1": """WITH f1 AS (SELECT DISTINCT dst AS id FROM knows WHERE src = $p),
        f2 AS (SELECT DISTINCT k.dst AS id FROM knows k JOIN f1 ON k.src = f1.id),
        cand AS (SELECT id FROM f1 UNION SELECT id FROM f2)
        SELECT person.id, person.name FROM cand JOIN person ON person.id = cand.id
        WHERE person.id <> $p AND person.city = $c ORDER BY person.name LIMIT 10""",
    "C2": """SELECT po.creationDate, po.id, k.dst FROM knows k
        JOIN created c ON c.src = k.dst JOIN post po ON po.id = c.dst
        WHERE k.src = $p AND po.creationDate <= 2500
        ORDER BY 1 DESC, 2 DESC, 3 DESC LIMIT 10""",
    "C3": """WITH f1 AS (SELECT DISTINCT dst AS id FROM knows WHERE src = $p),
        f2 AS (SELECT DISTINCT k.dst AS id FROM knows k JOIN f1 ON k.src = f1.id),
        cand AS (SELECT id FROM f1 UNION SELECT id FROM f2)
        SELECT person.city, count(*) FROM cand JOIN person ON person.id = cand.id
        WHERE person.id <> $p GROUP BY person.city ORDER BY person.city""",
    "C4": """SELECT avg(po.length), count(*) FROM knows k JOIN likes l ON l.src = k.dst
        JOIN post po ON po.id = l.dst WHERE k.src = $p""",
    "C5": """WITH f1 AS (SELECT DISTINCT dst AS id FROM knows WHERE src = $p)
        SELECT k.dst, count(*) AS score FROM knows k JOIN f1 ON k.src = f1.id
        WHERE k.dst <> $p AND k.dst NOT IN (SELECT id FROM f1)
        GROUP BY k.dst ORDER BY score DESC, k.dst LIMIT 5""",
    "Q_buys": """SELECT i.category, count(*) FROM buy b JOIN item i ON i.id = b.dst
        WHERE b.src = $account GROUP BY i.category""",
    "Q_fof_buys": """SELECT count(*) FROM aknows ak JOIN buy b ON b.src = ak.dst
        JOIN item i ON i.id = b.dst WHERE ak.src = $account AND i.price > $price""",
    "Q_posts": """SELECT po.id, po.length FROM created c JOIN post po ON po.id = c.dst
        WHERE c.src = $person ORDER BY po.length DESC, po.id ASC LIMIT 5""",
}


def _matches(kind: str, args, got, db) -> bool:
    def q(params):
        return db.execute(SQL[kind], params).fetchall()

    if kind in ("S1", "S4"):
        (vid,) = args
        want = q({"p" if kind == "S1" else "q": vid})
        cols = ("id", "name", "city", "creationDate") if kind == "S1" else ("id", "creationDate", "length")
        return got is not None and [tuple(got[c] for c in cols)] == want
    if kind == "S2":
        (p,) = args
        rows = q({"p": p})
        top = sorted((r[1] for r in rows), reverse=True)[:5]
        mine = [(d["id"], d["creationDate"], d["length"]) for d in got]
        return [r[1] for r in mine] == top and set(mine) <= set(rows)
    if kind == "S3":
        return [tuple(x) for x in got] == q({"p": args[0]})
    if kind == "C1":
        p, c = args
        return [tuple(x) for x in got] == q({"p": p, "c": c})
    if kind in ("C2", "C5"):
        return [tuple(x) for x in got] == q({"p": args[0]})
    if kind == "C3":
        return list(got.items()) == q({"p": args[0]})
    if kind == "C4":
        avg, n = q({"p": args[0]})[0]
        want = avg if n else 0.0
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)
    if kind == "Q_buys":
        return sorted(got) == sorted(q({"account": args["account"]}))
    if kind == "Q_fof_buys":
        return got == q({"account": args["account"], "price": args["price"]})
    if kind == "Q_posts":
        return got == q({"person": args["person"]})
    raise KeyError(kind)


def _replay_update(db, ev: dict) -> None:
    if ev["kind"] == "add_person":
        db.execute(
            "INSERT INTO person VALUES (?, ?, ?, ?)",
            [ev["id"], ev["name"], ev["city"], ev["creationDate"]],
        )
    elif ev["kind"] == "add_like":
        db.execute("INSERT INTO likes VALUES (?, ?, ?)", [ev["src"], ev["dst"], ev["date"]])
    else:
        db.execute("INSERT INTO knows VALUES (?, ?, ?)", [ev["src"], ev["dst"], ev["creationDate"]])


def check(st: State, rec):
    db = duckdb.connect()
    pg = st.pg
    tables = {
        "person": (pg.vertices["Person"], "id, name, city, creationDate"),
        "post": (pg.vertices["Post"], "id, creationDate, length"),
        "item": (pg.vertices["Item"], "id, price, category"),
        "knows": (pg.edges["KNOWS"], "src, dst, creationDate"),
        "likes": (pg.edges["LIKES"], "src, dst, date"),
        "created": (pg.edges["CREATED"], "src, dst"),
        "buy": (pg.edges["BUY"], "src, dst"),
        "aknows": (pg.edges["AKNOWS"], "src, dst"),
    }
    for name, (pdf, cols) in tables.items():
        db.register("src_df", pdf)
        db.execute(f"CREATE TABLE {name} AS SELECT {cols} FROM src_df")
        db.unregister("src_df")
    bad = []
    for i, (kind, args, got) in enumerate(st.log):
        if kind.startswith("U_"):
            _replay_update(db, args[0])
        elif not _matches(kind, args, got, db):
            bad.append((i, kind))
    # read-your-writes: every inserted vertex and every source vertex of an
    # inserted edge, read back from the final state
    for kind, args, _ in st.log:
        if not kind.startswith("U_"):
            continue
        ev = args[0]
        if ev["kind"] == "add_person":
            ok = _matches("S1", (ev["id"],), st.access.vertex("Person", ev["id"]), db)
        else:
            label = "KNOWS" if ev["kind"] == "add_knows" else "LIKES"
            got = sorted(st.access.neighbors(ev["src"], label, "out").tolist())
            want = db.execute(f"SELECT dst FROM {label.lower()} WHERE src = ? ORDER BY dst", [ev["src"]])
            ok = got == [r[0] for r in want.fetchall()]
        if not ok:
            bad.append(("final", kind))
    db.close()
    detail = {
        "checked": len(st.log),
        "mismatches": bad[:5],
        "p99_ms": np.percentile(rec.all(), 99) * 1000,
        "update_p50_ms": float(np.median(rec.lat.get("update", [float("nan")])) * 1000),
        "cypher_p50_ms": float(np.median(rec.lat.get("cypher", [float("nan")])) * 1000),
    }
    return not bad, 0, detail
