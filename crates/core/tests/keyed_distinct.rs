//! A DISTINCT over rows a key column already makes distinct runs as its
//! input, decided per execution against the executor's snapshot: a
//! prepared padded-union provenance query follows the writes that make
//! or break the key, an open stream keeps its own snapshot's decision,
//! and a streamed `SELECT DISTINCT key … LIMIT k` — or a padded union's
//! provenance under a `LIMIT k` — stops scanning early.
//!
//! The `exec.distinct.passthrough` failpoint site counts which path ran;
//! failpoints are process-global, so every test takes the fault guard.

use perm_core::{PermServer, Result, Session, SessionOptions, Tuple, UnionStrategy, Value};

const UNION_PROVENANCE: &str = "SELECT PROVENANCE mid, text FROM m UNION SELECT mid, text FROM i";

/// `m(mid, text)` and `i(mid, text)` with `n` rows each; `mid` is a key of
/// both, `text` repeats. `mid` is `NOT NULL`, which makes the padded
/// branches disjoint, so each branch de-duplicates its base rows.
fn keyed_server(n: i64) -> (PermServer, Session) {
    let server = PermServer::new();
    let session = server.session();
    session
        .run_script("CREATE TABLE m (mid int NOT NULL, text text); CREATE TABLE i (mid int NOT NULL, text text);")
        .unwrap();
    {
        let mut w = session.catalog_write();
        for mid in 0..n {
            for (table, offset) in [("m", 0), ("i", n / 2)] {
                w.table_mut(table).unwrap().push_raw(Tuple::new(vec![
                    Value::Int(mid + offset),
                    Value::text(format!("t{}", mid % 3)),
                ]));
            }
        }
    }
    (server, session)
}

/// A session that rewrites every UNION's provenance as a padded union.
fn padded(server: &PermServer) -> Session {
    server.session_with_options(
        SessionOptions::default().force_union_strategy(UnionStrategy::PaddedUnion),
    )
}

/// Run `f` and count how many DISTINCTs it passed through.
fn passthroughs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    perm_fault::configure("exec.distinct.passthrough=stall(0)").unwrap();
    let out = f();
    let fired = perm_fault::fired_count("exec.distinct.passthrough");
    perm_fault::clear();
    (out, fired)
}

/// The provenance of [`UNION_PROVENANCE`] by the join-back strategy,
/// sorted: the reference the padded union must match as a multiset.
fn join_back(server: &PermServer) -> Vec<Tuple> {
    let session = server.session_with_options(
        SessionOptions::default().force_union_strategy(UnionStrategy::JoinBack),
    );
    sorted(session.query(UNION_PROVENANCE).unwrap().rows)
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort_by_key(|t| format!("{t:?}"));
    rows
}

#[test]
fn prepared_padded_union_decides_per_snapshot() {
    let _guard = perm_fault::test_guard();
    let (server, session) = keyed_server(40);
    let prepared = padded(&server).prepare(UNION_PROVENANCE).unwrap();
    let check = |write: Option<&str>, expected_rows: usize, expected_passes: u64| {
        if let Some(sql) = write {
            session.execute(sql).unwrap();
        }
        let (result, passes) = passthroughs(|| prepared.execute().unwrap());
        let context = write.unwrap_or("before any write");
        assert_eq!(
            passes, expected_passes,
            "DISTINCTs passed through {context}"
        );
        assert_eq!(result.row_count(), expected_rows, "{context}");
        assert_eq!(sorted(result.rows), join_back(&server), "{context}");
    };
    check(None, 80, 2);
    // A copy of a base row breaks `m`'s key: its DISTINCT hashes, and the
    // copy collapses.
    check(Some("INSERT INTO m VALUES (3, 't0')"), 80, 1);
    check(Some("DELETE FROM m WHERE mid = 3"), 79, 2);
    // A duplicated `mid` alone breaks the key too; the rows stay distinct.
    check(Some("UPDATE m SET mid = 5 WHERE mid = 4"), 79, 1);
    // The DELETE removes both rows of mid 5 and restores the key.
    check(Some("DELETE FROM m WHERE mid = 5"), 77, 2);
}

#[test]
fn an_open_stream_keeps_its_snapshot() {
    let _guard = perm_fault::test_guard();
    let (server, session) = keyed_server(40);
    let reader = padded(&server);
    let before = reader.query(UNION_PROVENANCE).unwrap().rows;
    // The UNION ALL streams its branches: both are built, and their
    // DISTINCTs decided, when the stream opens.
    let (stream, passes) = passthroughs(|| reader.query_stream(UNION_PROVENANCE).unwrap());
    assert_eq!(passes, 2, "the stream decides against its own snapshot");
    // Break `m`'s key and change a row of `i` before the first pull.
    session
        .run_script("INSERT INTO m VALUES (3, 't0'); UPDATE i SET text = 'x' WHERE mid = 30;")
        .unwrap();
    let rows = stream.collect::<Result<Vec<Tuple>>>().unwrap();
    assert_eq!(
        rows, before,
        "the stream reads the snapshot it was opened on"
    );
    let (after, passes) = passthroughs(|| reader.query(UNION_PROVENANCE).unwrap().rows);
    assert_ne!(after, before);
    assert_eq!(passes, 1, "`m` holds a duplicate now");
}

#[test]
fn a_streamed_distinct_over_a_key_stops_scanning_early() {
    let _guard = perm_fault::test_guard();
    let (_server, session) = keyed_server(2_000);
    let all = session.query("SELECT DISTINCT mid FROM m").unwrap().rows;
    let (mut stream, passes) = passthroughs(|| {
        session
            .query_stream("SELECT DISTINCT mid FROM m LIMIT 5")
            .unwrap()
    });
    assert_eq!(passes, 1);
    let got: Vec<Tuple> = stream.by_ref().map(|r| r.unwrap()).collect();
    assert_eq!(got, all[..5]);
    assert!(
        stream.rows_scanned() < 100,
        "LIMIT 5 over a key pulled {} of 2000 rows",
        stream.rows_scanned()
    );
    // `text` repeats: the DISTINCT hashes the whole table in its blocking
    // body before the LIMIT sees a row (reads the scan counter never sees).
    let (mut stream, passes) = passthroughs(|| {
        session
            .query_stream("SELECT DISTINCT text FROM m LIMIT 2")
            .unwrap()
    });
    assert_eq!(passes, 0);
    assert_eq!(stream.by_ref().count(), 2);
    assert_eq!(stream.rows_scanned(), 0);
}

#[test]
fn a_streamed_padded_union_stops_scanning_early() {
    let _guard = perm_fault::test_guard();
    let (server, _session) = keyed_server(2_000);
    let reader = padded(&server);
    let sql = format!("{UNION_PROVENANCE} LIMIT 5");
    let all = reader.query(UNION_PROVENANCE).unwrap().rows;
    let (mut stream, passes) = passthroughs(|| reader.query_stream(&sql).unwrap());
    assert_eq!(passes, 2);
    let got: Vec<Tuple> = stream.by_ref().map(|r| r.unwrap()).collect();
    assert_eq!(got, all[..5]);
    // The UNION ALL pulls its first branch only as far as the LIMIT asks.
    assert!(
        (1..100).contains(&stream.rows_scanned()),
        "LIMIT 5 over the padded union pulled {} of 4000 rows",
        stream.rows_scanned()
    );
}

#[test]
fn a_sublink_over_a_passed_through_distinct_stays_on_the_calling_thread() {
    let _guard = perm_fault::test_guard();
    let (server, serial) = keyed_server(3_000);
    let parallel = server.session_with_options(
        SessionOptions::default()
            .with_max_parallelism(2)
            .with_parallel_row_threshold(1),
    );
    // The projection's sublink lands on the scan leaf the DISTINCT leaves
    // behind; only the calling thread holds the sublink bodies.
    let sql = "SELECT d.mid, (SELECT count(*) FROM i WHERE i.mid < 10) FROM \
               (SELECT DISTINCT mid, text FROM m) d";
    let explain = parallel.query(&format!("EXPLAIN {sql}")).unwrap().rows;
    let plan: String = explain.iter().map(|r| format!("{}\n", r.get(0))).collect();
    assert!(plan.contains("[dop=2]"), "{plan}");
    let expected = serial.query(sql).unwrap().rows;
    assert_eq!(expected.len(), 3_000);
    let (rows, passes) = passthroughs(|| parallel.query(sql).unwrap().rows);
    assert_eq!(passes, 1, "{plan}");
    assert_eq!(rows, expected);
}
