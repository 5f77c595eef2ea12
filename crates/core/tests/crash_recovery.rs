//! Crash-recovery matrix: run a DDL/DML script, kill it at every WAL
//! record boundary and every durability failpoint site, reopen, and
//! assert the recovered catalog equals exactly the committed prefix —
//! zero lost committed statements, zero phantom uncommitted ones, no
//! panics. Unrecoverable corruption must surface as a typed
//! `PermError::Corruption` over a functioning read-only server.
//!
//! The ground truth for "state after the first `n` statements" is a
//! plain in-memory server that applies the same prefix — recovery is
//! correct iff it is indistinguishable from never having crashed.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use perm_core::{
    ContributionSemantics, CopyMode, DurabilityOptions, FsyncPolicy, PermServer, Session,
    SessionOptions,
};
use perm_storage::{wal, Catalog, Relation, TableStats, WAL_FILE};

/// One step of the recovery script. `Index` exercises the non-SQL WAL
/// record kind (`CREATE INDEX` has no syntax; it is an API call).
#[derive(Clone, Copy)]
enum Step {
    Sql(&'static str),
    Index(&'static str, &'static str),
}
use Step::{Index, Sql};

/// Every statement kind the WAL records, in one script: table + view DDL,
/// multi-row insert, update (one with a sublink, whose body replays
/// against the recovered table), delete, eager provenance
/// materialization, drop, and an index build. Quoted names and float literals that print
/// differently from how they were written check that the log replays
/// the statement's own text; the view `w` is created before the
/// cadence-3 auto-checkpoint after step 6, which persists it by its SQL.
const SCRIPT: &[Step] = &[
    Sql("CREATE TABLE t (x int NOT NULL, y text)"),
    Sql("INSERT INTO t VALUES (1, 'a'), (2, 'b')"),
    Index("t", "x"),
    Sql("CREATE VIEW v AS SELECT x, y FROM t WHERE x > 1"),
    Sql("CREATE VIEW w AS SELECT x * 1e16 / 3 AS \"Big Y\" FROM t"),
    Sql("INSERT INTO t VALUES (3, 'c')"),
    Sql("UPDATE t SET y = 'zz' WHERE x = 2"),
    Sql("CREATE TABLE p AS SELECT PROVENANCE y FROM t"),
    Sql("CREATE TABLE \"my table\" (x int)"),
    Sql("INSERT INTO \"my table\" VALUES (7)"),
    Sql("CREATE TABLE q AS SELECT 1e16 / 3 AS y"),
    Sql("INSERT INTO q VALUES (1e300)"),
    Sql("DELETE FROM t WHERE x = 1"),
    Sql("CREATE TABLE u (k int)"),
    Sql("DROP TABLE u"),
    Sql("INSERT INTO t VALUES (4, 'd')"),
    Sql("UPDATE t SET y = (SELECT max(y) FROM t) WHERE x > 2"),
];

fn run_step(session: &Session, step: &Step) -> perm_types::Result<()> {
    match step {
        Sql(sql) => session.execute(sql).map(|_| ()),
        Index(table, column) => session.create_index(table, column),
    }
}

/// Failpoint state is process-global and the test harness is
/// multi-threaded: each test takes this lock and starts from a clean
/// registry.
fn fp_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    perm_fault::clear();
    g
}

struct TempDir(PathBuf);
impl TempDir {
    fn new(name: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!("perm-crash-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        TempDir(p)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        perm_fault::clear();
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn opts() -> DurabilityOptions {
    DurabilityOptions::default()
        .with_fsync(FsyncPolicy::Never)
        .with_checkpoint_every(0)
}

/// A canonical, deterministic rendering of a catalog: schemas, rows (in
/// storage order — replay preserves it), index and provenance columns,
/// view definitions. Two catalogs are "the same state" iff dumps match.
/// Each table's statistics, which replay maintains write by write, must
/// also equal a fresh computation over its rows.
fn dump(cat: &Catalog) -> String {
    let mut out = String::new();
    for rel in cat.relations() {
        match rel {
            Relation::Table(t) => {
                assert_eq!(
                    t.stats(),
                    &TableStats::compute(t.schema(), t.rows()),
                    "statistics of '{}'",
                    t.name()
                );
                out.push_str(&format!(
                    "table {} schema={:?} prov={:?} idx={:?} rows={:?}\n",
                    t.name(),
                    t.schema(),
                    t.provenance_columns(),
                    t.index_columns(),
                    t.rows(),
                ));
            }
            Relation::View(v) => {
                out.push_str(&format!("view {} sql={:?}\n", v.name(), v.sql()));
            }
        }
    }
    out
}

/// State after the first `n` script steps, computed on a plain in-memory
/// server (the never-crashed ground truth).
fn expected_dump(n: usize) -> String {
    let server = PermServer::new();
    let session = server.session();
    for step in &SCRIPT[..n] {
        run_step(&session, step).expect("script prefix applies cleanly in memory");
    }
    dump(&server.snapshot())
}

fn open(dir: &Path) -> PermServer {
    PermServer::open_with(dir, opts()).expect("open never hard-fails on recoverable damage")
}

/// Byte offset where record `i` ends (its commit point) in a scanned log.
fn record_ends(scan: &wal::WalScan) -> Vec<u64> {
    let mut ends: Vec<u64> = scan.records.iter().skip(1).map(|(off, _)| *off).collect();
    ends.push(scan.valid_len);
    ends
}

#[test]
fn kill_at_every_wal_byte_boundary() {
    let _g = fp_lock();
    let full = TempDir::new("boundary-full");
    {
        let server = open(&full.0);
        let session = server.session();
        for step in SCRIPT {
            run_step(&session, step).unwrap();
        }
    }
    let bytes = std::fs::read(full.0.join(WAL_FILE)).unwrap();
    let scan = wal::scan(&bytes);
    assert!(
        matches!(scan.tail, wal::TailState::Clean),
        "{:?}",
        scan.tail
    );
    assert_eq!(scan.records.len(), SCRIPT.len());
    let ends = record_ends(&scan);

    // Cache expected dumps per prefix (the in-memory replay is the
    // expensive part of each iteration).
    let expected: Vec<String> = (0..=SCRIPT.len()).map(expected_dump).collect();

    let crash = TempDir::new("boundary-crash");
    for cut in 0..=bytes.len() as u64 {
        // A crash that persisted exactly `cut` bytes of the log.
        std::fs::create_dir_all(&crash.0).unwrap();
        std::fs::write(crash.0.join(WAL_FILE), &bytes[..cut as usize]).unwrap();

        let committed = ends.iter().filter(|&&e| e <= cut).count();
        let server = open(&crash.0);
        assert!(
            !server.is_read_only(),
            "cut at {cut}: a truncated tail is a torn record, not corruption"
        );
        assert_eq!(
            dump(&server.snapshot()),
            expected[committed],
            "cut at {cut}: recovered state must be the {committed}-statement prefix"
        );
        drop(server);

        // Recovery idempotence: recovering a recovered directory is a
        // no-op (the repaired log replays to the same state).
        let again = open(&crash.0);
        assert_eq!(
            dump(&again.snapshot()),
            expected[committed],
            "cut at {cut}: second recovery diverged"
        );
        drop(again);
        std::fs::remove_dir_all(&crash.0).unwrap();
    }
}

#[test]
fn kill_at_every_append_failpoint_and_statement() {
    let _g = fp_lock();
    // Soft failures (rollback repairs the tail in-process) and hard kills
    // (`wal.rollback=io_err` leaves the torn bytes on disk, like a machine
    // that died mid-write). Either way, reopening must serve exactly the
    // statements that committed before the failure.
    let specs: &[(&str, &str)] = &[
        ("wal.append.write=short_write(0)", ""),
        ("wal.append.write=short_write(6)", ""),
        ("wal.append.write=torn_write(6)", ""),
        ("wal.append.sync=sync_fail", ""),
        ("wal.append.write=short_write(3)", ";wal.rollback=io_err"),
        ("wal.append.write=torn_write(9)", ";wal.rollback=io_err"),
    ];
    let expected: Vec<String> = (0..=SCRIPT.len()).map(expected_dump).collect();

    for (base, extra) in specs {
        for kill_at in 1..=SCRIPT.len() {
            let spec = format!("{base}@{kill_at}{extra}");
            let dir = TempDir::new("fp-append");
            let applied = {
                // Fsync on every commit so the `wal.append.sync` site is
                // actually on the path.
                let server =
                    PermServer::open_with(&dir.0, opts().with_fsync(FsyncPolicy::Always)).unwrap();
                let session = server.session();
                perm_fault::configure(&spec).unwrap();
                let mut applied = 0;
                for step in SCRIPT {
                    match run_step(&session, step) {
                        Ok(()) => applied += 1,
                        Err(e) => {
                            assert_eq!(e.kind(), "io", "{spec} @{kill_at}: {e}");
                            break;
                        }
                    }
                }
                assert_eq!(
                    applied,
                    kill_at - 1,
                    "{spec}: failpoint fired on hit {kill_at}"
                );
                // The in-memory catalog never shows the failed statement.
                assert_eq!(
                    dump(&server.snapshot()),
                    expected[applied],
                    "{spec} @{kill_at}"
                );
                perm_fault::clear();
                applied
            };
            let server = open(&dir.0);
            assert!(!server.is_read_only(), "{spec} @{kill_at}");
            assert_eq!(
                dump(&server.snapshot()),
                expected[applied],
                "{spec} @{kill_at}: lost or phantom statement after reopen"
            );
            // The recovered server accepts the rest of the script.
            let session = server.session();
            for step in &SCRIPT[applied..] {
                run_step(&session, step).unwrap();
            }
            assert_eq!(
                dump(&server.snapshot()),
                expected[SCRIPT.len()],
                "{spec} @{kill_at}"
            );
        }
    }
}

#[test]
fn checkpoint_failures_never_lose_committed_statements() {
    let _g = fp_lock();
    // Auto-checkpoints fire mid-script (cadence 3). A failure in any
    // checkpoint phase must leave every committed statement recoverable:
    // pre-rename failures keep the old snapshot + full log; post-rename
    // (log reset) failures keep the new snapshot, and epoch
    // reconciliation makes any stale log records harmless.
    let sites: &[&str] = &[
        "checkpoint.write=short_write(10)",
        "checkpoint.write=io_err",
        "checkpoint.sync=sync_fail",
        "checkpoint.rename=io_err",
        "checkpoint.dir_sync=sync_fail",
        "wal.reset=io_err",
        "wal.reset.write=short_write(4)",
        "wal.reset.sync=sync_fail",
    ];
    let full = expected_dump(SCRIPT.len());

    for site in sites {
        let dir = TempDir::new("fp-ckpt");
        let applied = {
            let server = PermServer::open_with(&dir.0, opts().with_checkpoint_every(3)).unwrap();
            let session = server.session();
            // Install after open: a fresh open writes a WAL header through
            // the wal.reset sites itself.
            perm_fault::configure(site).unwrap();
            let mut applied = 0;
            for step in SCRIPT {
                match run_step(&session, step) {
                    Ok(()) => applied += 1,
                    // Only a poisoned log (failed reset) refuses commits;
                    // pre-rename checkpoint failures are invisible here.
                    Err(e) => {
                        assert!(e.kind() == "io" || e.kind() == "execution", "{site}: {e}");
                        break;
                    }
                }
            }
            perm_fault::clear();
            applied
        };
        let server = open(&dir.0);
        assert!(!server.is_read_only(), "{site}");
        assert_eq!(
            dump(&server.snapshot()),
            expected_dump(applied),
            "{site}: committed prefix lost across a checkpoint failure"
        );
        if applied < SCRIPT.len() {
            let session = server.session();
            for step in &SCRIPT[applied..] {
                run_step(&session, step).unwrap();
            }
            assert_eq!(dump(&server.snapshot()), full, "{site}");
        }
    }
}

#[test]
fn corruption_is_typed_and_leaves_a_working_read_only_server() {
    let _g = fp_lock();
    let dir = TempDir::new("corrupt-matrix");
    {
        let server = open(&dir.0);
        let session = server.session();
        for step in SCRIPT {
            run_step(&session, step).unwrap();
        }
    }
    let wal_path = dir.0.join(WAL_FILE);
    let good = std::fs::read(&wal_path).unwrap();
    let scan = wal::scan(&good);
    let second_record = scan.records[1].0;

    // Flip one payload byte of the *second* record: mid-log corruption.
    let mut bad = good.clone();
    bad[second_record as usize + 8 + 1] ^= 0x01;
    std::fs::write(&wal_path, &bad).unwrap();

    let server = open(&dir.0);
    assert!(server.is_read_only());
    let err = server.recovery_error().expect("typed corruption");
    assert_eq!(err.kind(), "corruption");
    assert!(
        err.message().contains(&format!("offset {second_record}")),
        "error names the damaged offset: {err}"
    );
    // The valid prefix (statement 1) is served read-only; writes fail
    // with the typed error, reads and reopen both keep working.
    assert_eq!(dump(&server.snapshot()), expected_dump(1));
    let session = server.session();
    assert_eq!(
        session.query("SELECT count(*) FROM t").unwrap().row_count(),
        1
    );
    let werr = session
        .execute("INSERT INTO t VALUES (9, 'x')")
        .unwrap_err();
    assert_eq!(werr.kind(), "corruption");
    drop(server);
    let again = open(&dir.0);
    assert!(again.is_read_only(), "corruption does not silently heal");
    assert_eq!(dump(&again.snapshot()), expected_dump(1));
}

#[test]
fn unreplayable_statement_degrades_to_read_only() {
    let _g = fp_lock();
    // A log statement that no longer applies (here: hand-appended SQL that
    // never committed through the server) is corruption, not a panic.
    let dir = TempDir::new("badstmt");
    {
        let server = open(&dir.0);
        let session = server.session();
        session.execute("CREATE TABLE t (x int)").unwrap();
        session.execute("INSERT INTO t VALUES (1)").unwrap();
    }
    // Forge a record that parses but cannot re-apply.
    let wal_path = dir.0.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let sql = b"INSERT INTO nope VALUES (1)";
    let mut payload = vec![0x01u8];
    payload.extend_from_slice(sql);
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&wal::crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    let forged_offset = std::fs::metadata(&wal_path).unwrap().len();
    std::fs::write(&wal_path, &bytes).unwrap();

    let server = open(&dir.0);
    assert!(server.is_read_only());
    let err = server.recovery_error().unwrap();
    assert_eq!(err.kind(), "corruption");
    assert!(
        err.message().contains(&format!("offset {forged_offset}")),
        "{err}"
    );
    // Everything before the unreplayable record is served.
    let session = server.session();
    assert_eq!(session.query("SELECT x FROM t").unwrap().row_count(), 1);
}

/// Run `script` on a durable server under `options`, answer `query`,
/// then reopen (from the log alone, and again after a checkpoint) and
/// require the same answer with a clean recovery.
fn restart_keeps_the_answer(name: &str, options: SessionOptions, script: &str, query: &str) {
    for checkpoint in [false, true] {
        let dir = TempDir::new(&format!("restart-{name}-{checkpoint}"));
        let before = {
            let server = open(&dir.0);
            let session = server.session_with_options(options);
            session.run_script(script).unwrap();
            if checkpoint {
                server.checkpoint().unwrap();
            }
            session.query(query).unwrap()
        };
        let server = open(&dir.0);
        let label = format!("{name}, checkpoint: {checkpoint}");
        assert_eq!(server.recovery_error(), None, "{label}");
        let after = server.session_with_options(options).query(query).unwrap();
        assert_eq!(after, before, "{label}");
    }
}

#[test]
fn restart_returns_what_the_statements_computed() {
    let _g = fp_lock();
    let options = SessionOptions::default();
    restart_keeps_the_answer(
        "quoted-table",
        options,
        "CREATE TABLE \"my table\" (x int); INSERT INTO \"my table\" VALUES (7)",
        "SELECT x FROM \"my table\"",
    );
    restart_keeps_the_answer(
        "huge-float",
        options,
        "CREATE TABLE g (f float); INSERT INTO g VALUES (1e300)",
        "SELECT f FROM g",
    );
    restart_keeps_the_answer(
        "float-division",
        options,
        "CREATE TABLE p AS SELECT 1e16 / 3 AS y",
        "SELECT y FROM p",
    );
    restart_keeps_the_answer(
        "quoted-alias-view",
        options,
        "CREATE TABLE t (x int); INSERT INTO t VALUES (1);
         CREATE VIEW w AS SELECT x * 1e16 / 3 AS \"Big Y\" FROM t",
        "SELECT \"Big Y\" FROM w",
    );
}

#[test]
fn eager_provenance_replays_under_its_sessions_semantics() {
    let _g = fp_lock();
    // Under COPY PARTIAL the provenance of `mid` copies nothing from
    // `text`, so the stored `prov_public_m_text` is NULL; replayed under
    // the default (INFLUENCE) it would be 'a'.
    restart_keeps_the_answer(
        "copy-partial",
        SessionOptions::default()
            .with_default_semantics(ContributionSemantics::Copy(CopyMode::Partial)),
        "CREATE TABLE m (mid int, text text); INSERT INTO m VALUES (1, 'a');
         CREATE TABLE p AS SELECT PROVENANCE mid FROM m",
        "SELECT * FROM p",
    );
}
