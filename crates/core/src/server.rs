//! The concurrent server API: [`PermServer`] → [`Session`] →
//! [`Prepared`](crate::Prepared). This module holds the server and its
//! durability wiring; sessions and the read pipeline live in
//! `session.rs`, the DDL/DML path in `write.rs`, prepared statements in
//! `prepared.rs`.
//!
//! The paper's Perm runs inside PostgreSQL, where one catalog serves many
//! backend sessions, plans are prepared once and executed many times, and
//! results stream to clients cursor-style. This module reproduces that
//! shape for the embedded engine:
//!
//! * [`PermServer`] owns the catalog behind a copy-on-write lock
//!   ([`perm_storage::SharedCatalog`]). DDL/DML take the write lock; any
//!   number of sessions read concurrently from immutable snapshots.
//! * [`Session`] is a cheap, cloneable, `Send + Sync` handle carrying its
//!   own [`SessionOptions`] (contribution semantics, rewrite-strategy
//!   toggles). All query methods take `&self`, so one session can be
//!   shared across threads — or cloned per thread with different options.
//! * [`Prepared`](crate::Prepared) caches the parsed,
//!   provenance-rewritten, optimized plan of one query so repeated
//!   execution skips parse + rewrite + optimize (the hot path for
//!   provenance queries asked many times).
//! * [`Session::query_stream`] returns a pull-based
//!   [`RowStream`](crate::RowStream) that yields tuples on demand instead
//!   of materializing the result.
//!
//! ```
//! use perm_core::PermServer;
//!
//! let server = PermServer::new();
//! let session = server.session();
//! session.execute("CREATE TABLE t (x int)").unwrap();
//! session.execute("INSERT INTO t VALUES (1), (2)").unwrap();
//!
//! // Prepare once, execute many times.
//! let prepared = session.prepare("SELECT PROVENANCE x FROM t").unwrap();
//! assert_eq!(prepared.execute().unwrap().row_count(), 2);
//! assert_eq!(prepared.execute().unwrap().row_count(), 2);
//!
//! // Sessions are cloneable handles onto the same catalog.
//! let other = server.session();
//! assert_eq!(other.query("SELECT x FROM t").unwrap().row_count(), 2);
//! ```

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use perm_exec::MemoryPool;
use perm_storage::{Catalog, DurableStore, SharedCatalog, WalRecord, WAL_FILE};
use perm_types::{PermError, Result};

use crate::admission::ResourceGovernor;
use crate::options::{DurabilityOptions, SessionOptions};
use crate::session::Session;

/// The durability side of a server opened with [`PermServer::open`]: the
/// WAL + checkpoint store behind a mutex, plus the recovery verdict.
///
/// Lock order is catalog write lock → store mutex, everywhere: the WAL
/// append of a committing statement and an explicit checkpoint both hold
/// the catalog lock first, so the log always records the same statement
/// order the catalog applied.
#[derive(Debug)]
pub(crate) struct Durability {
    /// `None` after unrecoverable corruption — the server is read-only.
    store: Mutex<Option<DurableStore>>,
    /// Auto-checkpoint after this many WAL records (`0` = never).
    checkpoint_every: u64,
    /// Why recovery degraded to read-only, when it did.
    recovery_error: Option<PermError>,
}

impl Durability {
    fn store(&self) -> std::sync::MutexGuard<'_, Option<DurableStore>> {
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fail fast before a write statement runs: read-only servers and
    /// poisoned logs refuse commits.
    pub(crate) fn check_writable(&self) -> Result<()> {
        match &*self.store() {
            Some(s) if s.is_poisoned() => Err(PermError::Execution(
                "write-ahead log disabled by an unrecovered append failure; \
                 reopen the server to repair the log tail"
                    .into(),
            )),
            Some(_) => Ok(()),
            None => Err(match &self.recovery_error {
                Some(e) => e
                    .clone()
                    .with_context("server is read-only after recovery failure"),
                None => PermError::Execution("server is read-only".into()),
            }),
        }
    }

    /// Make one committed statement durable.
    pub(crate) fn log(&self, rec: &WalRecord) -> Result<()> {
        match self.store().as_mut() {
            Some(s) => s.append(rec),
            None => Err(PermError::Execution("server is read-only".into())),
        }
    }

    /// Checkpoint if the log has grown past the configured cadence. A
    /// failure here is non-fatal to the committing statement — it is
    /// already durable in the WAL; the next commit retries.
    pub(crate) fn maybe_checkpoint(&self, catalog: &Catalog) {
        if self.checkpoint_every == 0 {
            return;
        }
        if let Some(s) = self.store().as_mut() {
            if s.records_since_checkpoint() >= self.checkpoint_every {
                let _ = s.checkpoint(catalog);
            }
        }
    }
}

/// The server: one shared catalog, many sessions.
///
/// Cloning a `PermServer` clones the *handle*; both clones serve the same
/// catalog. Dropping the server does not invalidate live sessions — the
/// catalog lives as long as any handle to it.
#[derive(Debug, Default, Clone)]
pub struct PermServer {
    pub(crate) catalog: SharedCatalog,
    pub(crate) governor: Arc<ResourceGovernor>,
    pub(crate) durability: Option<Arc<Durability>>,
    /// Set by [`PermServer::shutdown`]; every statement context carries a
    /// clone, so in-flight queries observe it at their next cooperative
    /// check and fail typed (`reason: ServerShutdown`).
    pub(crate) shutting_down: Arc<AtomicBool>,
    /// Server-wide statement id allocator; ids appear in cancellation
    /// errors so a client can tell *which* query was cancelled.
    pub(crate) next_query_id: Arc<AtomicU64>,
}

impl PermServer {
    /// A server over an empty catalog.
    pub fn new() -> PermServer {
        PermServer::default()
    }

    /// A server over an existing catalog (e.g. pre-loaded tables).
    pub fn with_catalog(catalog: Catalog) -> PermServer {
        PermServer {
            catalog: SharedCatalog::new(catalog),
            governor: Arc::default(),
            durability: None,
            shutting_down: Arc::default(),
            next_query_id: Arc::default(),
        }
    }

    /// Open (or create) a durable server over a data directory, with
    /// default durability options (fsync every commit, periodic
    /// checkpoints).
    ///
    /// Recovery loads the last checkpoint and replays the WAL tail through
    /// the full parse→plan→execute pipeline. A torn final record (a crash
    /// mid-append) is truncated silently; anything worse degrades the
    /// server to read-only over the last good prefix, with the typed
    /// [`PermError::Corruption`] available from
    /// [`PermServer::recovery_error`].
    pub fn open(dir: impl AsRef<Path>) -> Result<PermServer> {
        PermServer::open_with(dir, DurabilityOptions::default())
    }

    /// [`PermServer::open`] with explicit [`DurabilityOptions`].
    pub fn open_with(dir: impl AsRef<Path>, options: DurabilityOptions) -> Result<PermServer> {
        match &options.failpoints {
            Some(spec) => perm_fault::configure(spec)?,
            None => perm_fault::configure_from_env()?,
        }
        let dir = dir.as_ref();
        let outcome = DurableStore::open(dir, options.fsync)?;
        let mut store = outcome.store;
        let mut corruption = outcome.corruption;

        // Replay through a plain (non-durable) server: recovered
        // statements must not be re-logged, and a plain server's write
        // path is exactly the commit path minus the WAL append.
        let replay_server = PermServer::with_catalog(outcome.base);
        for (offset, record) in &outcome.replay {
            // Chaos site: an injected fault here aborts recovery with a
            // typed error (the on-disk log is intact — reopening retries),
            // exercising the bounded-termination property of replay.
            perm_fault::exec_point("exec.replay.statement", "WAL replay")?;
            let applied = match record {
                // The default contribution semantics is the one session
                // option that changes what a logged statement computes.
                WalRecord::Statement { sql, semantics } => {
                    let options = SessionOptions::default().with_default_semantics(*semantics);
                    replay_server
                        .session_with_options(options)
                        .execute(sql)
                        .map(|_| ())
                }
                WalRecord::CreateIndex { table, column } => {
                    replay_server.session().create_index(table, column)
                }
            };
            if let Err(e) = applied {
                // A logged statement committed once and must re-apply
                // cleanly; failure means the log (or snapshot) lies.
                // Writes through execute are atomic, so the catalog holds
                // exactly the records before this one.
                corruption = Some(PermError::Corruption {
                    path: dir.join(WAL_FILE).display().to_string(),
                    offset: *offset,
                    detail: format!("logged statement failed to re-apply: {}", e.message()),
                });
                store = None;
                break;
            }
        }

        Ok(PermServer {
            catalog: replay_server.catalog,
            governor: Arc::default(),
            durability: Some(Arc::new(Durability {
                store: Mutex::new(store),
                checkpoint_every: options.checkpoint_every,
                recovery_error: corruption,
            })),
            shutting_down: Arc::default(),
            next_query_id: Arc::default(),
        })
    }

    /// True when recovery degraded this server to read-only (see
    /// [`PermServer::recovery_error`]); always false for in-memory
    /// servers.
    pub fn is_read_only(&self) -> bool {
        self.durability
            .as_ref()
            .is_some_and(|d| d.store().is_none())
    }

    /// The corruption that made recovery degrade to read-only, if any.
    pub fn recovery_error(&self) -> Option<PermError> {
        self.durability
            .as_ref()
            .and_then(|d| d.recovery_error.clone())
    }

    /// Write a durable snapshot of the current catalog and truncate the
    /// WAL. Errors if the server is in-memory or read-only; on checkpoint
    /// I/O failure the previous snapshot (and the full log) stay intact.
    pub fn checkpoint(&self) -> Result<()> {
        let d = self.durability.as_ref().ok_or_else(|| {
            PermError::Execution("checkpoint requires a durable server (PermServer::open)".into())
        })?;
        // The write lock pins the catalog ↔ WAL correspondence.
        let guard = self.catalog.write();
        let snapshot = guard.snapshot();
        let mut store = d.store();
        match store.as_mut() {
            Some(s) => s.checkpoint(&snapshot),
            None => {
                // check_writable re-locks the store mutex; release ours
                // first (the scrutinee guard would otherwise deadlock).
                drop(store);
                d.check_writable()
            }
        }
    }

    /// A new session with default options.
    pub fn session(&self) -> Session {
        self.session_with_options(SessionOptions::default())
    }

    /// A new session with explicit options.
    pub fn session_with_options(&self, options: SessionOptions) -> Session {
        Session::new(self.clone(), options)
    }

    /// A consistent snapshot of the current catalog.
    pub fn snapshot(&self) -> Arc<Catalog> {
        self.catalog.snapshot()
    }

    /// The server-wide execution memory pool every session's queries
    /// charge against. Unbounded by default; see
    /// [`PermServer::set_memory_budget`].
    pub fn memory_pool(&self) -> &MemoryPool {
        self.governor.pool()
    }

    /// Budget the server's execution memory (`None` = unbounded).
    /// Under pressure, buffering operators spill to disk and incoming
    /// queries whose estimates do not fit queue for admission — takes
    /// effect for queries admitted after the call.
    pub fn set_memory_budget(&self, bytes: Option<usize>) {
        self.governor.pool().set_budget(bytes);
    }

    /// The admission gate shared by this server's sessions.
    pub fn governor(&self) -> &Arc<ResourceGovernor> {
        &self.governor
    }

    /// Begin server shutdown: every in-flight statement observes it at
    /// its next cooperative check and fails with the typed cancellation
    /// error (`reason: ServerShutdown`); queued statements leave the
    /// admission queue. Statements started after this call fail on their
    /// first check. Idempotent; the catalog itself stays readable through
    /// existing snapshots.
    pub fn shutdown(&self) {
        self.shutting_down.store(true, Ordering::Relaxed);
    }

    /// Has [`PermServer::shutdown`] been called (on any handle)?
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod durability {
    use super::*;
    use perm_types::Value;
    use std::path::PathBuf;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Failpoint state is process-global; durability tests serialize
    /// on this lock and clear the registry on both ends.
    fn fp_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        let g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        perm_fault::clear();
        g
    }

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(name: &str) -> TempDir {
            let p =
                std::env::temp_dir().join(format!("perm-server-dur-{}-{name}", std::process::id()));
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

    /// Fast options for tests: no fsync, no auto-checkpoint.
    fn opts() -> DurabilityOptions {
        DurabilityOptions::default()
            .with_fsync(perm_storage::FsyncPolicy::Never)
            .with_checkpoint_every(0)
    }

    #[test]
    fn reopen_recovers_ddl_dml_and_indexes() {
        let _g = fp_lock();
        let dir = TempDir::new("reopen");
        {
            let server = PermServer::open_with(&dir.0, opts()).unwrap();
            assert!(!server.is_read_only());
            let s = server.session();
            s.run_script(
                "CREATE TABLE t (x int NOT NULL, y text);
                 INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c');
                 CREATE VIEW v AS SELECT x FROM t WHERE x > 1;
                 UPDATE t SET y = 'z' WHERE x = 2;
                 DELETE FROM t WHERE x = 3;
                 CREATE TABLE p AS SELECT PROVENANCE y FROM t;",
            )
            .unwrap();
            s.create_index("t", "x").unwrap();
        }
        let server = PermServer::open_with(&dir.0, opts()).unwrap();
        assert!(!server.is_read_only());
        let s = server.session();
        let r = s.query("SELECT x, y FROM t ORDER BY x").unwrap();
        assert_eq!(r.row_count(), 2);
        assert_eq!(r.row(1)[1], Value::text("z"));
        assert_eq!(s.query("SELECT x FROM v").unwrap().row_count(), 1);
        // The index and the eager-provenance metadata survived.
        assert_eq!(s.snapshot().table("t").unwrap().index_columns(), vec![0]);
        // `SELECT PROVENANCE y FROM t` emits y plus one provenance
        // attribute per column of t, so columns 1 and 2 of p are
        // provenance.
        assert_eq!(
            s.snapshot().table("p").unwrap().provenance_columns(),
            &[1, 2],
            "CREATE TABLE AS provenance columns recovered"
        );
    }

    #[test]
    fn a_guard_load_survives_a_reopen_once_checkpointed() {
        let _g = fp_lock();
        let dir = TempDir::new("guard-load");
        {
            let server = PermServer::open_with(&dir.0, opts()).unwrap();
            let s = server.session();
            s.execute("CREATE TABLE t (x int)").unwrap();
            {
                // The guard writes past the log.
                let mut w = s.catalog_write();
                let t = w.table_mut("t").unwrap();
                t.insert(perm_types::Tuple::new(vec![Value::Int(1)]))
                    .unwrap();
                t.insert(perm_types::Tuple::new(vec![Value::Int(2)]))
                    .unwrap();
            }
            server.checkpoint().unwrap();
        }
        let server = PermServer::open_with(&dir.0, opts()).unwrap();
        assert_eq!(server.recovery_error(), None);
        let r = server
            .session()
            .query("SELECT x FROM t ORDER BY x")
            .unwrap();
        assert_eq!(r.row_count(), 2);
        assert_eq!(r.row(1)[0], Value::Int(2));
    }

    #[test]
    fn checkpoint_truncates_wal_and_recovery_uses_snapshot() {
        let _g = fp_lock();
        let dir = TempDir::new("ckpt");
        {
            let server = PermServer::open_with(&dir.0, opts()).unwrap();
            let s = server.session();
            s.execute("CREATE TABLE t (x int)").unwrap();
            for i in 0..10 {
                s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
            }
            let before = std::fs::metadata(dir.0.join(WAL_FILE)).unwrap().len();
            server.checkpoint().unwrap();
            let after = std::fs::metadata(dir.0.join(WAL_FILE)).unwrap().len();
            assert!(
                after < before,
                "checkpoint truncates the log ({before} -> {after})"
            );
            // Post-checkpoint commits land in the fresh log.
            s.execute("INSERT INTO t VALUES (99)").unwrap();
        }
        let server = PermServer::open_with(&dir.0, opts()).unwrap();
        let s = server.session();
        assert_eq!(s.query("SELECT x FROM t").unwrap().row_count(), 11);
    }

    #[test]
    fn auto_checkpoint_fires_at_cadence() {
        let _g = fp_lock();
        let dir = TempDir::new("autockpt");
        let server = PermServer::open_with(&dir.0, opts().with_checkpoint_every(3)).unwrap();
        let s = server.session();
        s.execute("CREATE TABLE t (x int)").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        assert!(
            !dir.0.join(perm_storage::CHECKPOINT_FILE).exists(),
            "2 records: below cadence"
        );
        s.execute("INSERT INTO t VALUES (2)").unwrap();
        assert!(
            dir.0.join(perm_storage::CHECKPOINT_FILE).exists(),
            "3rd record triggers the checkpoint"
        );
    }

    #[test]
    fn wal_append_failure_rolls_back_the_statement() {
        let _g = fp_lock();
        let dir = TempDir::new("appendfail");
        let server = PermServer::open_with(&dir.0, opts()).unwrap();
        let s = server.session();
        s.execute("CREATE TABLE t (x int)").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();

        perm_fault::configure("wal.append.write=io_err").unwrap();
        let err = s.execute("INSERT INTO t VALUES (2)").unwrap_err();
        assert_eq!(err.kind(), "io");
        // Not applied in memory (no phantom row a crash would lose) …
        assert_eq!(s.query("SELECT x FROM t").unwrap().row_count(), 1);
        perm_fault::clear();

        // … and the log tail is intact: later commits and recovery work.
        s.execute("INSERT INTO t VALUES (3)").unwrap();
        drop(server);
        let server = PermServer::open_with(&dir.0, opts()).unwrap();
        let r = server
            .session()
            .query("SELECT x FROM t ORDER BY x")
            .unwrap();
        assert_eq!(r.row_count(), 2);
        assert_eq!(r.row(1)[0], Value::Int(3));
    }

    #[test]
    fn mid_log_corruption_degrades_to_read_only() {
        let _g = fp_lock();
        let dir = TempDir::new("corrupt");
        {
            let server = PermServer::open_with(&dir.0, opts()).unwrap();
            let s = server.session();
            s.execute("CREATE TABLE t (x int)").unwrap();
            s.execute("INSERT INTO t VALUES (1)").unwrap();
        }
        // Flip a payload byte of the *first* record: a mid-log checksum
        // mismatch, which recovery must not truncate away.
        let wal_path = dir.0.join(WAL_FILE);
        let mut bytes = std::fs::read(&wal_path).unwrap();
        bytes[16 + 8 + 1] ^= 0x40;
        std::fs::write(&wal_path, &bytes).unwrap();

        let server = PermServer::open_with(&dir.0, opts()).unwrap();
        assert!(server.is_read_only());
        let err = server.recovery_error().expect("typed corruption");
        assert_eq!(err.kind(), "corruption");
        assert!(err.message().contains("offset 16"), "{err}");

        // Reads serve the last good prefix (nothing, here); writes fail
        // with the recovery error, not a panic.
        let s = server.session();
        assert!(s.query("SELECT x FROM t").is_err(), "t was never recovered");
        let err = s.execute("CREATE TABLE u (a int)").unwrap_err();
        assert_eq!(err.kind(), "corruption");
        assert!(err.message().contains("read-only"), "{err}");
        assert!(server.checkpoint().is_err(), "no checkpoint while degraded");
    }

    #[test]
    fn torn_final_record_is_truncated_not_fatal() {
        let _g = fp_lock();
        let dir = TempDir::new("torn");
        {
            let server = PermServer::open_with(&dir.0, opts()).unwrap();
            let s = server.session();
            s.execute("CREATE TABLE t (x int)").unwrap();
            s.execute("INSERT INTO t VALUES (1)").unwrap();
        }
        // Chop the last record mid-payload: a crash during append.
        let wal_path = dir.0.join(WAL_FILE);
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 5]).unwrap();

        let server = PermServer::open_with(&dir.0, opts()).unwrap();
        assert!(!server.is_read_only(), "a torn tail is expected, not fatal");
        let s = server.session();
        assert_eq!(
            s.query("SELECT x FROM t").unwrap().row_count(),
            0,
            "the torn INSERT never committed"
        );
        // The repaired log accepts new commits at the truncated tail.
        s.execute("INSERT INTO t VALUES (7)").unwrap();
        drop(server);
        let server = PermServer::open_with(&dir.0, opts()).unwrap();
        assert_eq!(
            server
                .session()
                .query("SELECT x FROM t")
                .unwrap()
                .row_count(),
            1
        );
    }
}
