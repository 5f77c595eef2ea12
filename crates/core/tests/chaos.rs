//! Engine-wide chaos harness: query lifecycle robustness under
//! cancellation, deadlines, injected faults and panics.
//!
//! Every scenario must terminate bounded (never hang), never leak (the
//! memory pool drains to zero, the admission queue empties, the spill
//! directory is clean), and either return the correct rows or a *typed*
//! error — never a panic across the API boundary and never a wrong
//! answer.
//!
//! CI runs this in release mode with `PERM_VERIFY_PLANS=1` (the `chaos`
//! job) so the static verifier also re-checks every plan the storm
//! produces.
//!
//! Failpoints are process-global, so every test here serializes on
//! [`perm_fault::test_guard`] and clears the registry on entry and exit.

use std::time::{Duration, Instant};

use perm_core::{PermServer, QueryResult, SessionOptions, Tuple, Value};

/// Seed a server with a `facts` table of `n` rows: `k` cycles through 53
/// keys (dense join fan-out), `v` is unique, `tag` cycles through 7.
fn seeded_server(n: i64) -> PermServer {
    let server = PermServer::new();
    let session = server.session();
    session
        .run_script("CREATE TABLE facts (k int, v int, tag text);")
        .unwrap();
    {
        let mut w = session.catalog_write();
        let t = w.table_mut("facts").unwrap();
        for i in 0..n {
            t.push_raw(Tuple::new(vec![
                Value::Int(i % 53),
                Value::Int(i),
                Value::text(format!("tag-{}", i % 7)),
            ]));
        }
    }
    server
}

/// A provenance self-join big enough that cancellation always lands
/// mid-flight (53 keys over 4000 rows ≈ 300k join output rows).
const LONG_JOIN: &str =
    "SELECT PROVENANCE a.k, b.v FROM facts a JOIN facts b ON a.k = b.k WHERE a.v < b.v";

/// Generous upper bound on cancellation latency: the cooperative checks
/// sit on morsel claims, batch boundaries, spill-run boundaries and the
/// stream's pull loop, all of which fire orders of magnitude faster than
/// this even on a loaded CI machine.
const LATENCY_BOUND: Duration = Duration::from_secs(5);

/// Drain a stream after cancelling it from another thread once `prefix`
/// rows arrived; returns the observed error and the latency from
/// `cancel()` to the error surfacing.
fn cancel_mid_stream(
    session: &perm_core::Session,
    sql: &str,
    prefix: usize,
) -> (perm_core::PermError, Duration) {
    let mut stream = session.query_stream(sql).unwrap();
    let handle = stream.cancel_handle();
    for _ in 0..prefix {
        stream.next().expect("prefix row").expect("prefix row ok");
    }
    let cancelled_at = Instant::now();
    let canceller = std::thread::spawn(move || handle.cancel());
    let err = loop {
        match stream.next() {
            Some(Ok(_)) => continue,
            Some(Err(e)) => break e,
            None => panic!("stream ended without surfacing the cancellation"),
        }
    };
    let latency = cancelled_at.elapsed();
    canceller.join().unwrap();
    assert!(stream.next().is_none(), "stream must fuse after the error");
    (err, latency)
}

fn assert_drained(server: &PermServer) {
    assert_eq!(server.memory_pool().used(), 0, "pool must drain to zero");
    assert_eq!(server.governor().running(), 0, "no queries still running");
    assert_eq!(server.governor().waiting(), 0, "admission queue must empty");
    assert!(
        perm_storage::spill_dir_is_clean(),
        "spill temp files must be deleted"
    );
}

// ----------------------------------------------------------------------
// Cancellation latency
// ----------------------------------------------------------------------

#[test]
fn cancel_is_prompt_at_dop_1() {
    let _guard = perm_fault::test_guard();
    perm_fault::clear();
    let server = seeded_server(4_000);
    let session = server.session_with_options(SessionOptions::default().with_max_parallelism(1));
    let (err, latency) = cancel_mid_stream(&session, LONG_JOIN, 10);
    assert_eq!(err.kind(), "cancelled", "{err}");
    assert!(err.to_string().contains("user requested"), "{err}");
    assert!(latency < LATENCY_BOUND, "latency {latency:?}");
    drop(session);
    assert_drained(&server);
}

#[test]
fn cancel_is_prompt_at_dop_4() {
    let _guard = perm_fault::test_guard();
    perm_fault::clear();
    let server = seeded_server(4_000);
    let session = server.session_with_options(
        SessionOptions::default()
            .with_max_parallelism(4)
            .with_parallel_row_threshold(1),
    );
    let (err, latency) = cancel_mid_stream(&session, LONG_JOIN, 10);
    assert_eq!(err.kind(), "cancelled", "{err}");
    assert!(latency < LATENCY_BOUND, "latency {latency:?}");
    drop(session);
    assert_drained(&server);
}

#[test]
fn cancel_is_prompt_while_spilling() {
    let _guard = perm_fault::test_guard();
    perm_fault::clear();
    let server = seeded_server(4_000);
    // A starved pool forces the join build and the aggregation to
    // Grace-partition to disk; cancellation must still land promptly and
    // every spill temp file must be deleted on the unwind path.
    server.set_memory_budget(Some(16 * 1024));
    let session = server.session();
    let sql = "SELECT a.k, count(*) FROM facts a JOIN facts b ON a.k = b.k \
               GROUP BY a.k ORDER BY a.k";
    let (err, latency) = cancel_mid_stream(&session, sql, 0);
    assert_eq!(err.kind(), "cancelled", "{err}");
    assert!(latency < LATENCY_BOUND, "latency {latency:?}");
    drop(session);
    assert_drained(&server);
}

// ----------------------------------------------------------------------
// Statement deadlines
// ----------------------------------------------------------------------

#[test]
fn statement_deadline_cancels_long_queries() {
    let _guard = perm_fault::test_guard();
    perm_fault::clear();
    let server = seeded_server(4_000);
    let session =
        server.session_with_options(SessionOptions::default().with_statement_timeout_ms(1));
    let err = session.query(LONG_JOIN).unwrap_err();
    assert_eq!(err.kind(), "cancelled", "{err}");
    assert!(err.to_string().contains("deadline exceeded"), "{err}");
    // The deadline is per statement: a fast query on the same session
    // still answers.
    let ok = session.query("SELECT count(*) FROM facts").unwrap();
    assert_eq!(ok.rows[0].values()[0], Value::Int(4_000));
    drop(session);
    assert_drained(&server);
}

// ----------------------------------------------------------------------
// Panic containment
// ----------------------------------------------------------------------

#[test]
fn worker_panic_fails_one_query_and_spares_siblings() {
    let _guard = perm_fault::test_guard();
    perm_fault::clear();
    let server = seeded_server(4_000);
    let parallel = SessionOptions::default()
        .with_max_parallelism(4)
        .with_parallel_row_threshold(1);
    let session = server.session_with_options(parallel);
    let sibling = server.session_with_options(parallel);

    let baseline = sibling
        .query("SELECT k, count(*) FROM facts GROUP BY k ORDER BY k")
        .unwrap();

    // The first worker the pool starts panics; the panic must convert to
    // a typed error for that query only.
    perm_fault::configure("exec.worker.start=panic@1").unwrap();
    let err = session
        .query("SELECT k, count(*) FROM facts GROUP BY k ORDER BY k")
        .unwrap_err();
    assert_eq!(err.kind(), "execution", "{err}");
    assert!(err.to_string().contains("contained"), "{err}");

    // The pool stays healthy: the sibling session answers correctly,
    // in parallel, right after the contained panic.
    let after = sibling
        .query("SELECT k, count(*) FROM facts GROUP BY k ORDER BY k")
        .unwrap();
    assert_eq!(after, baseline, "sibling diverged after a contained panic");
    perm_fault::clear();
    drop((session, sibling));
    assert_drained(&server);
}

// ----------------------------------------------------------------------
// Streamed parallel scans
// ----------------------------------------------------------------------

/// A stream's demand never exceeds a batch — less than a morsel — yet a
/// parallel scan's windows double per pull up to `dop` morsels and run on
/// the pool. `exec.worker.start` fires once per pool worker a window
/// starts (a one-morsel window runs on the consumer's thread).
#[test]
fn streamed_parallel_scan_runs_its_windows_on_the_pool() {
    let _guard = perm_fault::test_guard();
    perm_fault::clear();
    let server = seeded_server(20_000);
    let session = server.session_with_options(
        SessionOptions::default()
            .with_max_parallelism(4)
            .with_parallel_row_threshold(1),
    );
    let sql = "SELECT v + 1 FROM facts WHERE tag <> 'tag-3'";
    let expected = session.query(sql).unwrap();
    perm_fault::configure("exec.worker.start=stall(0)").unwrap();
    let streamed: Vec<Tuple> = session
        .query_stream(sql)
        .unwrap()
        .map(|r| r.unwrap())
        .collect();
    let workers = perm_fault::fired_count("exec.worker.start");
    perm_fault::clear();
    assert_eq!(streamed, expected.rows);
    assert!(
        workers >= 2,
        "the streamed scan started {workers} pool workers"
    );
    drop(session);
    assert_drained(&server);
}

// ----------------------------------------------------------------------
// Server shutdown
// ----------------------------------------------------------------------

#[test]
fn shutdown_cancels_in_flight_streams_and_rejects_new_statements() {
    let _guard = perm_fault::test_guard();
    perm_fault::clear();
    let server = seeded_server(4_000);
    let session = server.session();

    let mut stream = session.query_stream(LONG_JOIN).unwrap();
    stream.next().unwrap().unwrap();
    server.shutdown();
    assert!(server.is_shutting_down());
    let err = loop {
        match stream.next() {
            Some(Ok(_)) => continue,
            Some(Err(e)) => break e,
            None => panic!("in-flight stream ended instead of cancelling"),
        }
    };
    assert_eq!(err.kind(), "cancelled", "{err}");
    assert!(err.to_string().contains("server shutdown"), "{err}");

    // New statements are rejected at their first cooperative check.
    let err = session.query("SELECT count(*) FROM facts").unwrap_err();
    assert_eq!(err.kind(), "cancelled", "{err}");
    assert!(err.to_string().contains("server shutdown"), "{err}");
    drop(stream);
    drop(session);
    assert_drained(&server);
}

// ----------------------------------------------------------------------
// The chaos matrix: faults × queries × cancel points
// ----------------------------------------------------------------------

/// Fault specs covering every executor chaos site (plus a no-fault
/// control). Stalls exercise slow paths, `panic` containment, `deny`
/// reservation denial (spill fallback), `io_err` hard errors
/// mid-pipeline.
const FAULTS: &[&str] = &[
    "",
    "exec.morsel.claim=stall(2)@2",
    "exec.morsel.claim=io_err@2",
    "exec.worker.start=panic@1",
    "exec.kernel.batch=io_err@3",
    "exec.memory.grow=deny@2+",
    "exec.admission.wait=stall(2)",
];

/// Deterministic-order queries (every shape the engine offers: grouped
/// aggregation, distinct, provenance rewrite, dense join, hash set-op)
/// so a surviving result can be compared row-for-row against baseline.
const QUERIES: &[&str] = &[
    "SELECT k, count(*), sum(v) FROM facts GROUP BY k ORDER BY k",
    "SELECT DISTINCT tag FROM facts ORDER BY tag",
    "SELECT PROVENANCE k, v FROM facts WHERE v < 200 ORDER BY v",
    "SELECT a.k, count(*) FROM facts a JOIN facts b ON a.v = b.v \
     GROUP BY a.k ORDER BY a.k",
    "SELECT k FROM facts INTERSECT SELECT k + 1 FROM facts ORDER BY k",
];

/// Error kinds a chaos scenario may legitimately surface. Anything else
/// (or a panic) is a bug.
const TYPED_KINDS: &[&str] = &["cancelled", "execution", "resource"];

fn typed(err: &perm_core::PermError) -> bool {
    TYPED_KINDS.iter().any(|k| err.kind().starts_with(k))
}

/// Splitmix-style LCG step — the harness's only randomness source, fully
/// deterministic per (fault, query) cell.
fn lcg(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

#[test]
fn chaos_matrix_terminates_without_leaks_or_wrong_answers() {
    let _guard = perm_fault::test_guard();
    perm_fault::clear();

    // Reference answers from an unconstrained, fault-free server.
    let baseline: Vec<QueryResult> = {
        let s = seeded_server(600).session();
        QUERIES.iter().map(|q| s.query(q).unwrap()).collect()
    };

    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    for (f, fault) in FAULTS.iter().enumerate() {
        // Fresh server per fault spec so leak checks isolate the cell.
        let server = seeded_server(600);
        server.set_memory_budget(Some(32 * 1024));
        let session = server.session_with_options(
            SessionOptions::default()
                .with_max_parallelism(2)
                .with_parallel_row_threshold(1)
                .with_max_concurrent_queries(2)
                .with_admission_timeout_ms(60_000),
        );
        for (q, sql) in QUERIES.iter().enumerate() {
            // Cancel point: 0 = never, 1 = before the first row,
            // 2 = after a pseudo-random prefix.
            for cancel_mode in 0..3usize {
                if fault.is_empty() {
                    perm_fault::clear();
                } else {
                    perm_fault::configure(fault).unwrap();
                }
                let cell = format!("fault[{f}]={fault:?} query[{q}] cancel={cancel_mode}");

                let stream = match session.query_stream(sql) {
                    Ok(s) => s,
                    Err(e) => {
                        assert!(typed(&e), "{cell}: untyped error {e} ({})", e.kind());
                        continue;
                    }
                };
                let handle = stream.cancel_handle();
                let cancel_after = match cancel_mode {
                    0 => usize::MAX,
                    1 => 0,
                    _ => 1 + (lcg(&mut seed) % 64) as usize,
                };
                if cancel_after == 0 {
                    handle.cancel();
                }
                let mut got: Vec<Tuple> = Vec::new();
                let mut error = None;
                for (i, row) in stream.enumerate() {
                    if i + 1 == cancel_after {
                        handle.cancel();
                    }
                    match row {
                        Ok(t) => got.push(t),
                        Err(e) => {
                            error = Some(e);
                            break;
                        }
                    }
                }
                match error {
                    // Typed failure: fine — but never a wrong prefix.
                    Some(e) => {
                        assert!(typed(&e), "{cell}: untyped error {e} ({})", e.kind());
                        assert!(
                            got.len() <= baseline[q].rows.len()
                                && got == baseline[q].rows[..got.len()],
                            "{cell}: prefix diverged before the error"
                        );
                    }
                    // Survived: the answer must be exactly right.
                    None => assert_eq!(
                        got, baseline[q].rows,
                        "{cell}: survived with a wrong answer"
                    ),
                }
            }
        }
        perm_fault::clear();
        drop(session);
        assert_drained(&server);
    }
}

/// An uncorrelated `IN` nested in a correlated `EXISTS` body is one
/// sublink of the statement: its body runs once per statement however
/// many outer rows evaluate the `EXISTS`. The body's DISTINCT reserves
/// memory every time it runs, so the hits of the `exec.memory.grow`
/// site count the runs: one outer row or 600 must cost the same. (`u`
/// holds every uid twice, so no key makes the DISTINCT a pass-through.)
#[test]
fn nested_uncorrelated_sublink_runs_once_per_statement() {
    let _guard = perm_fault::test_guard();
    perm_fault::clear();
    let server = PermServer::new();
    let session = server.session();
    session
        .run_script("CREATE TABLE m (mid int); CREATE TABLE a (mid int, uid int); CREATE TABLE u (uid int, name text);")
        .unwrap();
    {
        let mut w = session.catalog_write();
        for i in 0..600 {
            w.table_mut("m")
                .unwrap()
                .push_raw(Tuple::new(vec![Value::Int(i)]));
            w.table_mut("a")
                .unwrap()
                .push_raw(Tuple::new(vec![Value::Int(i), Value::Int(i % 40)]));
        }
        for uid in (0..40).chain(0..40) {
            w.table_mut("u")
                .unwrap()
                .push_raw(Tuple::new(vec![Value::Int(uid), Value::text("n")]));
        }
    }
    let body_runs = |outer: &str| {
        perm_fault::configure("exec.memory.grow=stall(0)").unwrap();
        let rows = session
            .query(&format!(
                "SELECT mid FROM m WHERE {outer} AND EXISTS (SELECT 1 FROM a WHERE a.mid = m.mid \
                 AND a.uid IN (SELECT DISTINCT uid FROM u WHERE name <> 'zz'))"
            ))
            .unwrap();
        let hits = perm_fault::fired_count("exec.memory.grow");
        perm_fault::clear();
        (rows.row_count(), hits)
    };
    let (one_row, once) = body_runs("mid = 7");
    let (all_rows, statement) = body_runs("mid >= 0");
    assert_eq!((one_row, all_rows), (1, 600));
    assert!(once > 0, "the DISTINCT body reserves no memory");
    assert_eq!(
        statement, once,
        "the nested IN body ran per outer row ({statement} grows for 600 rows, {once} for one)"
    );
    drop(session);
    assert_drained(&server);
}
