//! Integration tests for the concurrent server API: `PermServer` /
//! `Session` / `Prepared` / `RowStream`.
//!
//! The concurrency smoke test drives 8 threads in debug builds and 16 in
//! release (`cargo test --release` in CI), all querying one `PermServer` —
//! including `SELECT PROVENANCE` — while a writer applies DDL/DML.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;

use perm::storage::{Relation, TableStats};
use perm::{PermServer, Session, SessionOptions, Tuple, Value};

/// The paper's Figure 1 forum database, loaded through a server session.
fn forum_server() -> PermServer {
    let server = PermServer::new();
    server
        .session()
        .run_script(
            "CREATE TABLE messages (mId int NOT NULL, text text, uId int);
             CREATE TABLE users (uId int NOT NULL, name text);
             CREATE TABLE imports (mId int NOT NULL, text text, origin text);
             CREATE TABLE approved (uId int NOT NULL, mId int NOT NULL);
             INSERT INTO messages VALUES (1, 'lorem ipsum ...', 3), (4, 'hi there ...', 2);
             INSERT INTO users VALUES (1, 'Bert'), (2, 'Gert'), (3, 'Gertrud');
             INSERT INTO imports VALUES (2, 'hello ...', 'superForum'),
                                        (3, 'I don''t ...', 'HiBoard');
             INSERT INTO approved VALUES (2, 2), (1, 4), (2, 4), (3, 4);
             CREATE VIEW v1 AS SELECT mId, text FROM messages
                               UNION SELECT mId, text FROM imports;",
        )
        .expect("fixture script is valid");
    server
}

/// How many reader threads the smoke tests drive: 8 in debug, 16 in
/// release (the CI release job exercises the wider fan-out).
fn reader_threads() -> usize {
    if cfg!(debug_assertions) {
        8
    } else {
        16
    }
}

#[test]
fn concurrent_sessions_read_correct_results() {
    let server = forum_server();
    let n_threads = reader_threads();
    let iterations = 25;

    thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..n_threads {
            let session = server.session();
            handles.push(s.spawn(move || {
                for _ in 0..iterations {
                    // Mix provenance and plain queries across threads.
                    if t % 2 == 0 {
                        let r = session
                            .query("SELECT PROVENANCE mid, text FROM messages")
                            .unwrap();
                        assert_eq!(
                            r.columns,
                            vec![
                                "mid",
                                "text",
                                "prov_public_messages_mid",
                                "prov_public_messages_text",
                                "prov_public_messages_uid"
                            ]
                        );
                        assert_eq!(r.row_count(), 2);
                    } else {
                        let r = session
                            .query("SELECT count(*) FROM v1 JOIN approved a ON v1.mId = a.mId")
                            .unwrap();
                        assert_eq!(r.row(0), &[Value::Int(4)]);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    });
}

#[test]
fn readers_run_during_writer_ddl() {
    let server = forum_server();
    let n_threads = reader_threads();
    let errors = AtomicUsize::new(0);

    thread::scope(|s| {
        // Readers: fixed tables stay queryable and correct throughout.
        let mut handles = Vec::new();
        for _ in 0..n_threads {
            let session = server.session();
            let errors = &errors;
            handles.push(s.spawn(move || {
                for _ in 0..30 {
                    match session.query("SELECT PROVENANCE mid FROM messages") {
                        Ok(r) => {
                            if r.row_count() != 2 {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }));
        }

        // Writer: churn unrelated tables with DDL + DML while readers run.
        let writer = server.session();
        handles.push(s.spawn(move || {
            for i in 0..15 {
                writer
                    .execute(&format!("CREATE TABLE scratch_{i} (x int)"))
                    .unwrap();
                writer
                    .execute(&format!("INSERT INTO scratch_{i} VALUES ({i})"))
                    .unwrap();
                writer.execute(&format!("DROP TABLE scratch_{i}")).unwrap();
            }
        }));

        for h in handles {
            h.join().unwrap();
        }
    });

    assert_eq!(
        errors.load(Ordering::Relaxed),
        0,
        "readers must never see wrong or missing results during DDL"
    );
}

#[test]
fn one_prepared_statement_shared_across_threads() {
    let server = forum_server();
    let prepared = server
        .session()
        .prepare("SELECT PROVENANCE mid, text FROM messages")
        .unwrap();
    let expected = prepared.execute().unwrap();

    thread::scope(|s| {
        let mut handles = Vec::new();
        for _ in 0..reader_threads() {
            let prepared = prepared.clone();
            let expected = expected.clone();
            handles.push(s.spawn(move || {
                for _ in 0..20 {
                    assert_eq!(prepared.execute().unwrap(), expected);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    });
}

#[test]
fn prepared_reuse_returns_identical_rows_to_one_shot_query() {
    let server = forum_server();
    let session = server.session();
    for sql in [
        "SELECT PROVENANCE mid, text FROM messages",
        "SELECT PROVENANCE mid FROM v1",
        "SELECT PROVENANCE count(*), text FROM v1 JOIN approved a ON v1.mId = a.mId \
         GROUP BY v1.mId",
        "SELECT text FROM messages WHERE mid IN (SELECT mid FROM approved)",
    ] {
        let prepared = session.prepare(sql).unwrap();
        let one_shot = session.query(sql).unwrap();
        assert_eq!(prepared.execute().unwrap(), one_shot, "{sql}");
        assert_eq!(prepared.execute().unwrap(), one_shot, "{sql} (re-run)");
    }
}

#[test]
fn row_stream_limit_pulls_only_k_rows_from_the_scan() {
    let server = PermServer::new();
    // Serial plan (`parallel_row_stream_limit_short_circuits` covers the
    // parallel scan).
    let session = server.session_with_options(SessionOptions::default().with_max_parallelism(1));
    session.execute("CREATE TABLE big (x int)").unwrap();
    {
        let mut cat = session.catalog_write();
        let t = cat.table_mut("big").unwrap();
        for i in 0..10_000 {
            t.push_raw(Tuple::new(vec![Value::Int(i)]));
        }
    }

    // A provenance query with LIMIT: the rewrite of a base-table query is
    // a streamable projection over the scan.
    let mut stream = session
        .query_stream("SELECT PROVENANCE x FROM big LIMIT 5")
        .unwrap();
    let rows: Vec<Tuple> = stream.by_ref().map(|r| r.unwrap()).collect();
    assert_eq!(rows.len(), 5);
    assert_eq!(rows[0].values(), &[Value::Int(0), Value::Int(0)]);
    assert!(
        stream.rows_scanned() <= 5,
        "LIMIT 5 should pull at most 5 of the 10000 scan rows, pulled {}",
        stream.rows_scanned()
    );

    // Early termination also works by just dropping the stream.
    let mut stream = session.query_stream("SELECT x FROM big").unwrap();
    let first = stream.next().unwrap().unwrap();
    assert_eq!(first.values(), &[Value::Int(0)]);
    assert!(stream.rows_scanned() <= 1);
    drop(stream);

    // And the streamed result matches the materialized one.
    let streamed = session
        .query_stream("SELECT x FROM big WHERE x % 1000 = 3")
        .unwrap()
        .collect_result()
        .unwrap();
    let materialized = session
        .query("SELECT x FROM big WHERE x % 1000 = 3")
        .unwrap();
    assert_eq!(streamed, materialized);
}

#[test]
fn sessions_carry_independent_options() {
    use perm::rewrite::ContributionSemantics;
    let server = forum_server();
    let influence: Session = server.session();
    let lineage = server.session_with_options(
        SessionOptions::default().with_default_semantics(ContributionSemantics::Lineage),
    );
    // Both run concurrently against the same catalog with different
    // default semantics; each still answers correctly.
    thread::scope(|s| {
        let a = s.spawn(|| {
            influence
                .query("SELECT PROVENANCE mid FROM messages")
                .unwrap()
                .row_count()
        });
        let b = s.spawn(|| {
            lineage
                .query("SELECT PROVENANCE mid FROM messages")
                .unwrap()
                .row_count()
        });
        assert_eq!(a.join().unwrap(), 2);
        assert_eq!(b.join().unwrap(), 2);
    });
}

#[test]
fn session_server_handle_shares_the_catalog() {
    // A session's `server()` is a handle on the server it came from:
    // sessions handed out by it see (and affect) the same data.
    let db = PermServer::new().session();
    db.execute("CREATE TABLE t (x int)").unwrap();
    let session = db.server().session();
    session.execute("INSERT INTO t VALUES (1)").unwrap();
    assert_eq!(db.query("SELECT x FROM t").unwrap().row_count(), 1);
}

// ----------------------------------------------------------------------
// Parallel execution under concurrency (thread-safety audit)
// ----------------------------------------------------------------------

/// A server whose tables are big enough that sessions with a lowered
/// parallel threshold really fan queries out over the worker pool.
fn big_forum_server() -> PermServer {
    let server = forum_server();
    let session = server.session();
    {
        let mut cat = session.catalog_write();
        let messages = cat.table_mut("messages").unwrap();
        for i in 0..6000i64 {
            messages.push_raw(Tuple::new(vec![
                Value::Int(100 + i),
                Value::text(format!("bulk message {i}")),
                Value::Int(i % 3 + 1),
            ]));
        }
        let approved = cat.table_mut("approved").unwrap();
        for i in 0..6000i64 {
            approved.push_raw(Tuple::new(vec![Value::Int(i % 3 + 1), Value::Int(100 + i)]));
        }
    }
    server
}

/// Session options that force intra-query parallelism onto every
/// eligible pipeline of the bulk tables.
fn parallel_options() -> SessionOptions {
    SessionOptions::default()
        .with_max_parallelism(4)
        .with_parallel_row_threshold(512)
}

#[test]
fn concurrent_sessions_with_parallel_execution_agree_with_serial() {
    let server = big_forum_server();
    let serial = server.session();
    let queries = [
        "SELECT PROVENANCE mid, text FROM messages WHERE mid % 7 = 0",
        "SELECT PROVENANCE a.mid, count(*) FROM messages m JOIN approved a ON m.mid = a.mid \
         GROUP BY a.mid",
        "SELECT uid, count(*) FROM messages GROUP BY uid ORDER BY uid",
        "SELECT DISTINCT uid FROM messages ORDER BY uid",
    ];
    let expected: Vec<_> = queries.iter().map(|q| serial.query(q).unwrap()).collect();

    thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..reader_threads() {
            let session = server.session_with_options(parallel_options());
            let expected = expected.clone();
            handles.push(s.spawn(move || {
                for i in 0..8 {
                    let q = (t + i) % queries.len();
                    let r = session.query(queries[q]).unwrap();
                    // Parallel merges reproduce the serial output
                    // exactly — rows and order — from every thread.
                    assert_eq!(r, expected[q], "{}", queries[q]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    });
}

#[test]
fn parallel_readers_survive_concurrent_ddl_and_dml() {
    let server = big_forum_server();
    let errors = AtomicUsize::new(0);

    thread::scope(|s| {
        let mut handles = Vec::new();
        for _ in 0..reader_threads() {
            let session = server.session_with_options(parallel_options());
            let errors = &errors;
            handles.push(s.spawn(move || {
                for _ in 0..10 {
                    // Multi-core provenance query against a snapshot while
                    // the writer churns: must never error or lose rows.
                    match session.query("SELECT PROVENANCE mid FROM messages WHERE mid % 2 = 0") {
                        Ok(r) => {
                            if r.row_count() == 0 {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }));
        }

        let writer = server.session();
        handles.push(s.spawn(move || {
            for i in 0..12 {
                writer
                    .execute(&format!("CREATE TABLE par_scratch_{i} (x int)"))
                    .unwrap();
                writer
                    .execute(&format!(
                        "INSERT INTO par_scratch_{i} VALUES ({i}), ({i} + 1)"
                    ))
                    .unwrap();
                writer
                    .execute(&format!("DELETE FROM par_scratch_{i} WHERE x = {i}"))
                    .unwrap();
                writer
                    .execute(&format!("DROP TABLE par_scratch_{i}"))
                    .unwrap();
            }
        }));

        for h in handles {
            h.join().unwrap();
        }
    });

    assert_eq!(errors.load(Ordering::Relaxed), 0);
}

/// Sets its flag when dropped.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// A writer runs the benchmark's mixed read/write cycle against indexed
/// tables (insert a message and its approval, update the message, delete
/// the pair inserted two cycles earlier) while readers plan provenance
/// queries. Every table of every snapshot a reader takes carries exact
/// statistics, including tables the writer copied while a reader was
/// still filling their statistics.
#[test]
fn readers_see_exact_statistics_while_a_writer_runs_the_mixed_cycle() {
    let server = big_forum_server();
    let setup = server.session();
    setup.create_index("messages", "mid").unwrap();
    setup.create_index("approved", "mid").unwrap();
    let done = AtomicBool::new(false);

    thread::scope(|s| {
        let mut handles = Vec::new();
        for _ in 0..reader_threads() {
            let session = server.session();
            let done = &done;
            handles.push(s.spawn(move || loop {
                let finished = done.load(Ordering::SeqCst);
                let snapshot = session.snapshot();
                session
                    .query(
                        "SELECT PROVENANCE m.mid, a.uid FROM messages m \
                         JOIN approved a ON m.mid = a.mid WHERE m.uid = 2",
                    )
                    .unwrap();
                session
                    .query("SELECT PROVENANCE uid, count(*) FROM messages GROUP BY uid")
                    .unwrap();
                for rel in snapshot.relations() {
                    if let Relation::Table(t) = rel {
                        let fresh = TableStats::compute(t.schema(), t.rows());
                        assert_eq!(t.stats(), &fresh, "statistics of '{}'", t.name());
                    }
                }
                if finished {
                    break;
                }
            }));
        }

        let writer = server.session();
        let done = &done;
        handles.push(s.spawn(move || {
            // Set on the way out, panic included, so the readers stop and
            // a writer failure surfaces through `join` instead of a hang.
            let _stop_readers = SetOnDrop(done);
            let id = |k: i64| 50_000 + k;
            for k in 0..40i64 {
                writer
                    .execute(&format!(
                        "INSERT INTO messages VALUES ({}, 'rw body {k}', {})",
                        id(k),
                        k % 3 + 1
                    ))
                    .unwrap();
                writer
                    .execute(&format!(
                        "INSERT INTO approved VALUES ({}, {})",
                        k % 3 + 1,
                        id(k)
                    ))
                    .unwrap();
                writer
                    .execute(&format!(
                        "UPDATE messages SET text = 'rw edit {k}' WHERE mid = {}",
                        id(k)
                    ))
                    .unwrap();
                if k >= 2 {
                    let old = id(k - 2);
                    writer
                        .execute(&format!("DELETE FROM approved WHERE mid = {old}"))
                        .unwrap();
                    writer
                        .execute(&format!("DELETE FROM messages WHERE mid = {old}"))
                        .unwrap();
                }
            }
        }));

        for h in handles {
            h.join().unwrap();
        }
    });
}

#[test]
fn parallel_prepared_statement_shared_across_threads() {
    let server = big_forum_server();
    let prepared = server
        .session_with_options(parallel_options())
        .prepare(
            "SELECT PROVENANCE a.mid, count(*) FROM messages m JOIN approved a \
             ON m.mid = a.mid GROUP BY a.mid",
        )
        .unwrap();
    let expected = prepared.execute().unwrap();

    thread::scope(|s| {
        let mut handles = Vec::new();
        for _ in 0..reader_threads() {
            let prepared = prepared.clone();
            let expected = expected.clone();
            handles.push(s.spawn(move || {
                for _ in 0..5 {
                    assert_eq!(prepared.execute().unwrap(), expected);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    });
}

#[test]
fn parallel_row_stream_limit_short_circuits() {
    let server = big_forum_server();
    let session = server.session_with_options(parallel_options());
    let mut stream = session
        .query_stream("SELECT mid * 2 FROM messages WHERE mid % 2 = 0 LIMIT 4")
        .unwrap();
    let got: Vec<_> = stream.by_ref().map(|r| r.unwrap()).collect();
    assert_eq!(got.len(), 4);
    assert!(
        stream.rows_scanned() < 6002,
        "the parallel scan kept reading: {} rows",
        stream.rows_scanned()
    );
}
