//! Memory-governance behavior through the server API: reservation
//! hygiene (the pool always drains back to zero, however a query ends),
//! the typed resource errors, admission queueing, and the `EXPLAIN
//! VERBOSE` memory estimates.

use perm_core::{PermServer, Session, SessionOptions, UnionStrategy, Value};

/// A server with `big(x int, y int)` holding `n` rows.
fn server_with_rows(n: i64) -> (PermServer, Session) {
    let server = PermServer::new();
    let session = server.session();
    session.execute("CREATE TABLE big (x int, y int)").unwrap();
    {
        let mut w = session.catalog_write();
        let t = w.table_mut("big").unwrap();
        for i in 0..n {
            t.push_raw(perm_core::Tuple::new(vec![
                perm_core::Value::Int(i % 97),
                perm_core::Value::Int(i),
            ]));
        }
    }
    (server, session)
}

// ----------------------------------------------------------------------
// Reservation hygiene: the pool drains to zero on every exit path
// ----------------------------------------------------------------------

#[test]
fn pool_drains_after_stream_dropped_mid_limit() {
    let (server, session) = server_with_rows(2_000);
    let mut stream = session
        .query_stream("SELECT x FROM big ORDER BY x DESC LIMIT 5")
        .unwrap();
    assert!(stream.next().unwrap().is_ok(), "one row pulled");
    drop(stream); // abandon the rest
    let pool = server.memory_pool();
    assert_eq!(pool.used(), 0, "abandoned stream must release everything");
    assert!(pool.peak() > 0, "the sort buffered (and was tracked)");
}

#[test]
fn pool_drains_after_mid_query_error() {
    let (server, session) = server_with_rows(500);
    // The group-key division blows up on x = 7 rows *after* the
    // aggregate charged its input.
    let err = session
        .query("SELECT y / (x - 7) FROM big GROUP BY y / (x - 7)")
        .unwrap_err();
    assert_eq!(err.kind(), "value", "{err}");
    let pool = server.memory_pool();
    assert_eq!(pool.used(), 0, "error unwind must release everything");
    assert!(pool.peak() > 0, "the aggregate charged before the error");
}

#[test]
fn pool_drains_after_parallel_execution() {
    let (server, _) = server_with_rows(3_000);
    let session = server.session_with_options(
        SessionOptions::default()
            .with_max_parallelism(3)
            .with_parallel_row_threshold(1),
    );
    let r = session
        .query("SELECT x, count(*) FROM big GROUP BY x ORDER BY x")
        .unwrap();
    assert_eq!(r.row_count(), 97);
    let pool = server.memory_pool();
    assert_eq!(
        pool.used(),
        0,
        "DOP>1 workers share one drained reservation"
    );
    assert!(pool.peak() > 0);
}

#[test]
fn over_budget_queries_spill_and_still_answer_exactly() {
    let (server, session) = server_with_rows(2_000);
    let sql = "SELECT x, count(*), sum(y) FROM big GROUP BY x ORDER BY x";
    let unconstrained = session.query(sql).unwrap();
    server.set_memory_budget(Some(1));
    let spilled = session.query(sql).unwrap();
    assert_eq!(spilled, unconstrained, "spilling must be invisible");
    assert_eq!(server.memory_pool().used(), 0);
}

#[test]
fn witness_aggregates_spill_or_fail_typed_and_always_drain() {
    // Aggregation provenance is one witness-emitting aggregate, which
    // holds every input row until it emits them.
    let (server, session) = server_with_rows(2_000);
    let grouped = "SELECT PROVENANCE x, count(*), sum(y) FROM big GROUP BY x";
    let global = "SELECT PROVENANCE count(*) FROM big";
    let explain = session.query(&format!("EXPLAIN {grouped}")).unwrap();
    assert!(
        explain.rows[0]
            .get(0)
            .to_string()
            .contains("emit=witnesses"),
        "{explain:?}"
    );
    let unconstrained = session.query(grouped).unwrap();
    assert_eq!(unconstrained.row_count(), 2_000);
    assert_eq!(session.query(global).unwrap().row_count(), 2_000);
    let pool = server.memory_pool();
    assert_eq!(pool.used(), 0);
    assert!(pool.peak() > 0, "the retained witness rows were charged");
    // Over budget the grouped one spills and answers exactly; the global
    // one has no partitions to spill to and fails with the typed error.
    server.set_memory_budget(Some(1));
    assert_eq!(session.query(grouped).unwrap(), unconstrained);
    assert_eq!(pool.used(), 0);
    let err = session.query(global).unwrap_err();
    assert_eq!(err.kind(), "resource", "{err}");
    assert!(err.message().contains("HashAggregate"), "{err}");
    assert_eq!(pool.used(), 0);
}

#[test]
fn a_join_chain_whose_inner_build_is_denied_spills_and_answers_exactly() {
    // Joins pass row references up a chain; a spilled join in the middle
    // hands up its gathered rows instead. The budget admits the outer
    // join's build over `small` but not the inner self-join's build over
    // `big`, so only the inner join runs as a Grace join.
    const BUDGET: usize = 4_096;
    let setup = |budget: Option<usize>| {
        let (server, session) = server_with_rows(2_000);
        session
            .run_script(
                "CREATE TABLE small (k int, tag text);
                 INSERT INTO small VALUES (0, 'a'), (1, 'b'), (2, 'c'), (3, 'd'), (5, 'e');",
            )
            .unwrap();
        server.set_memory_budget(budget);
        (server, session)
    };
    let (free, unconstrained) = setup(None);
    let (tight, constrained) = setup(Some(BUDGET));
    for sql in [
        "SELECT b1.y, b2.y, s.tag FROM big b1 JOIN big b2 ON b1.y = b2.y + 1 \
         JOIN small s ON s.k = b1.x",
        "SELECT PROVENANCE b1.y, s.tag FROM big b1 JOIN big b2 ON b1.y = b2.y + 1 \
         JOIN small s ON s.k = b2.x",
    ] {
        let expected = unconstrained.query(sql).unwrap();
        assert!(expected.row_count() > 0, "{sql}");
        assert!(
            free.memory_pool().peak() > BUDGET,
            "{sql}: the inner build must not fit the budget"
        );
        assert_eq!(constrained.query(sql).unwrap(), expected, "{sql}");
        let pool = tight.memory_pool();
        assert_eq!(pool.used(), 0, "{sql}");
        assert!(
            pool.peak() > 0 && pool.peak() <= BUDGET,
            "{sql}: the outer build ran in memory (peak {})",
            pool.peak()
        );
    }
    assert_eq!(free.memory_pool().used(), 0);
}

// ----------------------------------------------------------------------
// Typed resource errors
// ----------------------------------------------------------------------

#[test]
fn per_query_cap_fails_with_typed_error_naming_operator() {
    // A 16-byte per-query cap cannot even hold the spill working set:
    // the failure is the query's own, and names the operator + budget.
    let (server, _) = server_with_rows(1_000);
    let session = server.session_with_options(SessionOptions::default().with_memory_budget(16));
    let err = session
        .query("SELECT x, count(*) FROM big GROUP BY x")
        .unwrap_err();
    assert_eq!(err.kind(), "resource", "{err}");
    assert!(err.message().contains("HashAggregate"), "{err}");
    assert!(err.message().contains("budget is 16 bytes"), "{err}");
    assert_eq!(server.memory_pool().used(), 0);
}

#[test]
fn a_moderate_per_query_cap_spills_low_cardinality_queries_exactly() {
    // 40 000 rows with 97 distinct `x` under a 64 KiB cap: the in-memory
    // reservation is denied, and each spilled partition reads back
    // thousands of rows but keeps at most 97 of them (or 97 groups). Only
    // what a partition keeps counts against the cap.
    let (server, unconstrained) = server_with_rows(40_000);
    let capped =
        server.session_with_options(SessionOptions::default().with_memory_budget(64 << 10));
    // The input is over the cap: an aggregate that cannot spill fails.
    let err = capped
        .query("SELECT PROVENANCE count(*) FROM big")
        .unwrap_err();
    assert_eq!(err.kind(), "resource", "{err}");
    for sql in [
        "SELECT DISTINCT x FROM big",
        "SELECT DISTINCT x % 2 FROM big",
        "SELECT x, count(*), sum(y) FROM big GROUP BY x",
        "SELECT x % 2, count(*) FROM big GROUP BY x % 2",
    ] {
        let expected = unconstrained.query(sql).unwrap();
        assert_eq!(capped.query(sql).unwrap(), expected, "{sql}");
        assert_eq!(server.memory_pool().used(), 0, "{sql}");
    }
}

#[test]
fn full_join_over_budget_fails_with_typed_error() {
    // FULL hash joins are non-spillable by design (spill=never in the
    // plan): pool pressure surfaces the typed error instead of a
    // silent degradation.
    let (server, session) = server_with_rows(200);
    server.set_memory_budget(Some(1));
    let err = session
        .query("SELECT * FROM big b1 FULL OUTER JOIN big b2 ON b1.x = b2.x")
        .unwrap_err();
    assert_eq!(err.kind(), "resource", "{err}");
    assert!(err.message().contains("HashJoin build"), "{err}");
    assert_eq!(server.memory_pool().used(), 0);
}

// ----------------------------------------------------------------------
// Admission control
// ----------------------------------------------------------------------

#[test]
fn streams_hold_their_admission_slot_until_dropped() {
    let (server, _) = server_with_rows(100);
    let session =
        server.session_with_options(SessionOptions::default().with_max_concurrent_queries(1));
    let stream = session.query_stream("SELECT x FROM big").unwrap();
    assert_eq!(server.governor().running(), 1);
    drop(stream);
    assert_eq!(server.governor().running(), 0);
}

#[test]
fn admission_queues_until_the_running_query_finishes() {
    let (server, _) = server_with_rows(100);
    let session = server.session_with_options(
        SessionOptions::default()
            .with_max_concurrent_queries(1)
            .with_admission_timeout_ms(30_000),
    );
    let stream = session.query_stream("SELECT x FROM big").unwrap();
    let s2 = session.clone();
    let waiter = std::thread::spawn(move || s2.query("SELECT count(*) FROM big"));
    while server.governor().waiting() == 0 {
        std::thread::yield_now();
    }
    drop(stream); // frees the slot; the queued query must now run
    let r = waiter.join().unwrap().unwrap();
    assert_eq!(r.row(0)[0], perm_core::Value::Int(100));
    assert_eq!(server.governor().running(), 0);
}

#[test]
fn admission_timeout_yields_typed_error() {
    let (server, _) = server_with_rows(100);
    let session = server.session_with_options(
        SessionOptions::default()
            .with_max_concurrent_queries(1)
            .with_admission_timeout_ms(10),
    );
    let _stream = session.query_stream("SELECT x FROM big").unwrap();
    let err = session.query("SELECT count(*) FROM big").unwrap_err();
    assert_eq!(err.kind(), "resource", "{err}");
    assert!(err.message().contains("admission"), "{err}");
}

#[test]
fn a_lone_over_estimate_query_is_admitted_and_spills() {
    // With nothing else running the governor always admits: a lone
    // too-big query spills rather than queueing forever.
    let (server, session) = server_with_rows(2_000);
    server.set_memory_budget(Some(1));
    let r = session
        .query("SELECT DISTINCT x FROM big ORDER BY x")
        .unwrap();
    assert_eq!(r.row_count(), 97);
    assert_eq!(server.governor().running(), 0);
    assert_eq!(server.memory_pool().used(), 0);
}

#[test]
fn explain_skips_admission() {
    let (server, _) = server_with_rows(100);
    let session = server.session_with_options(
        SessionOptions::default()
            .with_max_concurrent_queries(1)
            .with_admission_timeout_ms(10),
    );
    let _stream = session.query_stream("SELECT x FROM big").unwrap();
    // The slot is taken, but EXPLAIN never executes, so it needs none.
    let r = session.query("EXPLAIN SELECT count(*) FROM big").unwrap();
    assert!(r.row_count() >= 1);
}

// ----------------------------------------------------------------------
// EXPLAIN VERBOSE memory estimates
// ----------------------------------------------------------------------

#[test]
fn explain_verbose_reports_operator_memory_estimates() {
    let (_, session) = server_with_rows(1_000);
    let r = session
        .query(
            "EXPLAIN VERBOSE SELECT b1.x, count(*) FROM big b1, big b2 \
             WHERE b1.x = b2.x GROUP BY b1.x ORDER BY b1.x",
        )
        .unwrap();
    let text = (0..r.row_count())
        .map(|i| r.row(i)[0].to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("est_mem≈"), "{text}");
    assert!(text.contains("[spill="), "{text}");
    // Plain EXPLAIN stays terse.
    let plain = session
        .query("EXPLAIN SELECT x, count(*) FROM big GROUP BY x")
        .unwrap();
    let plain_text = (0..plain.row_count())
        .map(|i| plain.row(i)[0].to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(!plain_text.contains("est_mem"), "{plain_text}");
}

#[test]
fn keyed_padded_union_provenance_reserves_nothing_under_a_tiny_cap() {
    // Each padded branch of the provenance of a UNION de-duplicates its
    // base rows; a NOT NULL key column makes them distinct already, so
    // both DISTINCTs pass their rows through. A 16-byte per-query cap —
    // far below the input, too small for even one spilled row — still
    // answers exactly, with nothing reserved and nothing spilled.
    let server = PermServer::new();
    let setup = server.session();
    setup
        .run_script(
            "CREATE TABLE m (mid int NOT NULL, text text, uid int); \
             CREATE TABLE i (mid int NOT NULL, text text, origin text);",
        )
        .unwrap();
    {
        let mut w = setup.catalog_write();
        for mid in 0..2_000 {
            for (table, last) in [("m", Value::Int(mid % 7)), ("i", Value::text("web"))] {
                w.table_mut(table)
                    .unwrap()
                    .push_raw(perm_core::Tuple::new(vec![
                        Value::Int(mid),
                        Value::text(format!("message {}", mid % 10)),
                        last,
                    ]));
            }
        }
    }
    let padded = SessionOptions::default().force_union_strategy(UnionStrategy::PaddedUnion);
    let unconstrained = server.session_with_options(padded);
    let capped = server.session_with_options(padded.with_memory_budget(16));
    let sql = "SELECT PROVENANCE mid, text FROM m UNION SELECT mid, text FROM i";
    let expected = unconstrained.query(sql).unwrap();
    assert_eq!(expected.row_count(), 4_000);
    assert_eq!(capped.query(sql).unwrap(), expected);
    let pool = server.memory_pool();
    assert_eq!(pool.used(), 0);
    assert_eq!(pool.peak(), 0, "no DISTINCT reserved memory");
    // A copy of one row breaks `m`'s key: its DISTINCT hashes, and the cap
    // cannot hold its spill working set.
    setup
        .execute("INSERT INTO m VALUES (7, 'message 7', 0)")
        .unwrap();
    let err = capped.query(sql).unwrap_err();
    assert_eq!(err.kind(), "resource", "{err}");
    assert!(err.message().contains("HashDistinct"), "{err}");
    assert_eq!(
        unconstrained.query(sql).unwrap(),
        expected,
        "the copy collapses"
    );
    assert_eq!(pool.used(), 0);
}
