//! Durable catalog storage: snapshot checkpoints plus the WAL tail.
//!
//! A data directory holds at most three files:
//!
//! ```text
//! <dir>/CHECKPOINT      -- last durable catalog snapshot (atomic rename)
//! <dir>/CHECKPOINT.tmp  -- in-flight snapshot; deleted/ignored on open
//! <dir>/wal.log         -- statements committed since that snapshot
//! ```
//!
//! The checkpoint is a checksummed full serialization of the catalog —
//! schemas, rows (in the spill value codec), provenance-column metadata,
//! index columns, and view definitions (as SQL text, re-parsed on load).
//! It also records the WAL `epoch` and byte `wal_offset` it covers, which
//! is what makes checkpointing and log truncation crash-safe in any
//! interleaving:
//!
//! * checkpoint rename is atomic — a reader sees the old or the new
//!   snapshot, never a mix (a torn `CHECKPOINT.tmp` is simply ignored);
//! * after the rename the WAL is truncated and restarted with `epoch+1`;
//!   if the crash hits between those two steps, the next open sees
//!   `wal epoch == checkpoint epoch` and replays only records at
//!   `offset >= wal_offset` — never double-applying a statement that the
//!   snapshot already contains.
//!
//! [`DurableStore::open`] never panics on bad input: torn WAL tails are
//! truncated (the statement was never acknowledged), while genuine
//! corruption comes back as [`OpenOutcome::corruption`] with the failing
//! offset, alongside the last good snapshot so the caller can serve
//! reads over it (read-only degraded mode).

use std::fs::File;
use std::path::{Path, PathBuf};

use perm_sql::{parse_statement, Statement};
use perm_types::{Column, DataType, PermError, Result, Schema, Tuple, Value};

use crate::catalog::{Catalog, Relation};
use crate::spill::{read_value, value_encoded_len, write_value};
use crate::table::Table;
use crate::wal::{crc32, scan, FsyncPolicy, TailState, WalRecord, WalWriter, WAL_HEADER_LEN};

/// File names inside a data directory.
pub const CHECKPOINT_FILE: &str = "CHECKPOINT";
pub const CHECKPOINT_TMP: &str = "CHECKPOINT.tmp";
pub const WAL_FILE: &str = "wal.log";

/// Magic bytes opening every checkpoint file (version 1).
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"PERMCKP1";

fn io(operator: &str, path: &Path, e: std::io::Error) -> PermError {
    PermError::Io {
        operator: operator.to_string(),
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

fn corrupt(path: &Path, offset: u64, detail: impl Into<String>) -> PermError {
    PermError::Corruption {
        path: path.display().to_string(),
        offset,
        detail: detail.into(),
    }
}

// ---------------------------------------------------------------------
// Checkpoint serialization
// ---------------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn type_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Text => 3,
        DataType::Unknown => 4,
    }
}

fn type_from_tag(tag: u8) -> Option<DataType> {
    match tag {
        0 => Some(DataType::Bool),
        1 => Some(DataType::Int),
        2 => Some(DataType::Float),
        3 => Some(DataType::Text),
        4 => Some(DataType::Unknown),
        _ => None,
    }
}

/// Serialize the catalog into a checkpoint body for the given WAL
/// position. Deterministic: equal catalogs yield identical bytes.
fn serialize_catalog(catalog: &Catalog, epoch: u64, wal_offset: u64) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&wal_offset.to_le_bytes());
    let rels: Vec<&Relation> = catalog.relations().collect();
    out.extend_from_slice(&(rels.len() as u32).to_le_bytes());
    for rel in rels {
        match rel {
            Relation::Table(t) => {
                out.push(0);
                put_str(&mut out, t.name());
                let cols = t.schema().columns();
                out.extend_from_slice(&(cols.len() as u32).to_le_bytes());
                for c in cols {
                    put_str(&mut out, &c.name);
                    out.push(type_tag(c.ty));
                    out.push(u8::from(c.nullable));
                    match &c.qualifier {
                        Some(q) => {
                            out.push(1);
                            put_str(&mut out, q);
                        }
                        None => out.push(0),
                    }
                }
                let prov = t.provenance_columns();
                out.extend_from_slice(&(prov.len() as u32).to_le_bytes());
                for &p in prov {
                    out.extend_from_slice(&(p as u32).to_le_bytes());
                }
                let idx = t.index_columns();
                out.extend_from_slice(&(idx.len() as u32).to_le_bytes());
                for i in idx {
                    out.extend_from_slice(&(i as u32).to_le_bytes());
                }
                out.extend_from_slice(&(t.row_count() as u64).to_le_bytes());
                for row in t.rows() {
                    out.extend_from_slice(&(row.len() as u32).to_le_bytes());
                    out.reserve(row.iter().map(value_encoded_len).sum::<u64>() as usize);
                    for v in row.iter() {
                        write_value(&mut out, v).map_err(|e| {
                            PermError::Execution(format!("checkpoint of table '{}': {e}", t.name()))
                        })?;
                    }
                }
            }
            Relation::View(v) => {
                out.push(1);
                put_str(&mut out, v.name());
                let sql = v.sql().ok_or_else(|| {
                    PermError::Execution(format!(
                        "cannot checkpoint view '{}': it has no stored SQL text \
                         (created outside the durable server API)",
                        v.name()
                    ))
                })?;
                put_str(&mut out, sql);
            }
        }
    }
    Ok(out)
}

/// Bounds-checked cursor over a checkpoint body.
struct Cur<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> std::result::Result<&'a [u8], String> {
        if self.data.len() - self.pos < n {
            return Err(format!(
                "truncated: need {n} bytes at position {}",
                self.pos
            ));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> std::result::Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> std::result::Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> std::result::Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn str(&mut self) -> std::result::Result<String, String> {
        let len = self.u32()? as usize;
        let b = self.take(len)?;
        String::from_utf8(b.to_vec()).map_err(|_| "string is not valid UTF-8".to_string())
    }

    fn value(&mut self) -> std::result::Result<Value, String> {
        let mut rest = &self.data[self.pos..];
        let before = rest.len();
        let v = read_value(&mut rest).map_err(|e| e.to_string())?;
        self.pos += before - rest.len();
        Ok(v)
    }
}

fn decode_catalog(body: &[u8]) -> std::result::Result<(u64, u64, Catalog), (usize, String)> {
    let mut cur = Cur { data: body, pos: 0 };
    decode_catalog_at(&mut cur).map_err(|detail| (cur.pos, detail))
}

fn decode_catalog_at(cur: &mut Cur<'_>) -> std::result::Result<(u64, u64, Catalog), String> {
    {
        let epoch = cur.u64()?;
        let wal_offset = cur.u64()?;
        let nrel = cur.u32()?;
        let mut catalog = Catalog::new();
        for _ in 0..nrel {
            match cur.u8()? {
                0 => {
                    let name = cur.str()?;
                    let ncols = cur.u32()?;
                    let mut cols = Vec::with_capacity(ncols as usize);
                    for _ in 0..ncols {
                        let cname = cur.str()?;
                        let ty = type_from_tag(cur.u8()?)
                            .ok_or_else(|| format!("unknown type tag in table '{name}'"))?;
                        let nullable = cur.u8()? != 0;
                        let mut col = Column::new(cname, ty);
                        col.nullable = nullable;
                        if cur.u8()? != 0 {
                            col.qualifier = Some(cur.str()?);
                        }
                        cols.push(col);
                    }
                    let mut table = Table::new(&name, Schema::new(cols));
                    let nprov = cur.u32()?;
                    let mut prov = Vec::with_capacity(nprov as usize);
                    for _ in 0..nprov {
                        prov.push(cur.u32()? as usize);
                    }
                    table
                        .set_provenance_columns(prov)
                        .map_err(|e| format!("table '{name}': {}", e.message()))?;
                    let nidx = cur.u32()?;
                    for _ in 0..nidx {
                        let c = cur.u32()? as usize;
                        table
                            .create_index(c)
                            .map_err(|e| format!("table '{name}': {}", e.message()))?;
                    }
                    let nrows = cur.u64()?;
                    for _ in 0..nrows {
                        let nvals = cur.u32()? as usize;
                        let mut values = Vec::with_capacity(nvals);
                        for _ in 0..nvals {
                            values.push(cur.value()?);
                        }
                        table.push_raw(Tuple::new(values));
                    }
                    catalog
                        .create_table(table)
                        .map_err(|e| format!("table '{name}': {}", e.message()))?;
                }
                1 => {
                    let name = cur.str()?;
                    let sql = cur.str()?;
                    let query = match parse_statement(&sql) {
                        Ok(Statement::Query(q)) => q,
                        Ok(_) => return Err(format!("view '{name}': stored SQL is not a query")),
                        Err(e) => {
                            return Err(format!(
                                "view '{name}': stored SQL fails to parse: {}",
                                e.message()
                            ))
                        }
                    };
                    catalog
                        .create_view_with_sql(&name, query, sql)
                        .map_err(|e| format!("view '{name}': {}", e.message()))?;
                }
                k => return Err(format!("unknown relation kind {k}")),
            }
        }
        if cur.pos != cur.data.len() {
            return Err("trailing bytes after catalog".to_string());
        }
        Ok((epoch, wal_offset, catalog))
    }
}

/// Read and validate the checkpoint at `path`. `Ok(None)` when the file
/// does not exist (a fresh data directory).
fn read_checkpoint(path: &Path) -> Result<Option<(u64, u64, Catalog)>> {
    if std::fs::metadata(path).is_err() {
        return Ok(None);
    }
    let bytes = perm_fault::read_file("checkpoint.read", path, "checkpoint read")?;
    if bytes.len() < 16 {
        return Err(corrupt(path, 0, "checkpoint shorter than its header"));
    }
    if &bytes[..8] != CHECKPOINT_MAGIC {
        return Err(corrupt(path, 0, "bad checkpoint magic"));
    }
    let body_len = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
    let crc = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
    if bytes.len() - 16 != body_len {
        return Err(corrupt(
            path,
            8,
            format!(
                "checkpoint body is {} bytes, header says {body_len}",
                bytes.len() - 16
            ),
        ));
    }
    let body = &bytes[16..];
    if crc32(body) != crc {
        return Err(corrupt(path, 12, "checkpoint checksum mismatch"));
    }
    match decode_catalog(body) {
        Ok(parsed) => Ok(Some(parsed)),
        Err((pos, detail)) => Err(corrupt(path, 16 + pos as u64, detail)),
    }
}

// ---------------------------------------------------------------------
// Open / recovery
// ---------------------------------------------------------------------

/// What [`DurableStore::open`] found on disk.
#[derive(Debug)]
pub struct OpenOutcome {
    /// Catalog as of the last durable checkpoint (empty for a fresh
    /// directory, or when the checkpoint itself is the corrupt artifact).
    pub base: Catalog,
    /// WAL records committed after that snapshot, oldest first, each with
    /// its byte offset in the log (for error reporting during replay).
    pub replay: Vec<(u64, WalRecord)>,
    /// The live store — `None` when recovery hit unrecoverable corruption
    /// and the caller must degrade to read-only over `base` + the valid
    /// `replay` prefix.
    pub store: Option<DurableStore>,
    /// The typed corruption, when `store` is `None`.
    pub corruption: Option<PermError>,
}

/// A recovered, writable data directory: WAL appends and checkpoints.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    wal: WalWriter,
}

impl DurableStore {
    /// Open (or create) the data directory, read the checkpoint, scan the
    /// WAL tail, and classify what recovery has to do. Torn tails are
    /// truncated here; corruption is reported, not repaired.
    pub fn open(dir: &Path, fsync: FsyncPolicy) -> Result<OpenOutcome> {
        std::fs::create_dir_all(dir).map_err(|e| io("data dir create", dir, e))?;
        // A leftover tmp is an in-flight checkpoint that never committed.
        let _ = std::fs::remove_file(dir.join(CHECKPOINT_TMP));

        let ckpt_path = dir.join(CHECKPOINT_FILE);
        let wal_path = dir.join(WAL_FILE);

        let (base, ckpt_epoch, wal_offset) = match read_checkpoint(&ckpt_path) {
            Ok(Some((epoch, offset, catalog))) => (catalog, epoch, offset),
            Ok(None) => (Catalog::new(), 0, WAL_HEADER_LEN),
            Err(e @ PermError::Corruption { .. }) => {
                // The snapshot itself is damaged: nothing trustworthy to
                // replay onto. Serve nothing rather than something wrong.
                return Ok(OpenOutcome {
                    base: Catalog::new(),
                    replay: Vec::new(),
                    store: None,
                    corruption: Some(e),
                });
            }
            Err(e) => return Err(e),
        };

        let read_only = |base: Catalog, replay: Vec<(u64, WalRecord)>, e: PermError| {
            Ok(OpenOutcome {
                base,
                replay,
                store: None,
                corruption: Some(e),
            })
        };

        if std::fs::metadata(&wal_path).is_err() {
            // Fresh directory, or checkpoint present with no log yet.
            let wal = WalWriter::create(&wal_path, ckpt_epoch + 1, fsync)?;
            return Ok(OpenOutcome {
                base,
                replay: Vec::new(),
                store: Some(DurableStore {
                    dir: dir.to_path_buf(),
                    wal,
                }),
                corruption: None,
            });
        }

        let data = perm_fault::read_file("wal.read", &wal_path, "wal recovery")?;
        let s = scan(&data);

        // A missing/torn header can only come from a crash while the log
        // was being created or reset — nothing after it was ever durable.
        let Some(wal_epoch) = s.epoch else {
            let wal = WalWriter::create(&wal_path, ckpt_epoch + 1, fsync)?;
            return Ok(OpenOutcome {
                base,
                replay: Vec::new(),
                store: Some(DurableStore {
                    dir: dir.to_path_buf(),
                    wal,
                }),
                corruption: None,
            });
        };

        // Which records does the checkpoint NOT already contain?
        let replay_from = if wal_epoch == ckpt_epoch {
            wal_offset
        } else if wal_epoch == ckpt_epoch + 1 {
            WAL_HEADER_LEN
        } else {
            return read_only(
                base,
                Vec::new(),
                corrupt(
                    &wal_path,
                    8,
                    format!("WAL epoch {wal_epoch} does not extend checkpoint epoch {ckpt_epoch}"),
                ),
            );
        };

        match s.tail {
            TailState::Corrupt { offset, detail } => {
                let replay = s
                    .records
                    .into_iter()
                    .filter(|(off, _)| *off >= replay_from)
                    .collect();
                read_only(base, replay, corrupt(&wal_path, offset, detail))
            }
            TailState::Clean | TailState::Torn => {
                if s.valid_len < replay_from {
                    // The log ends before the point the checkpoint says it
                    // covers: records the snapshot already holds are gone
                    // from the log, which a crash cannot produce.
                    return read_only(
                        base,
                        Vec::new(),
                        corrupt(
                            &wal_path,
                            s.valid_len,
                            format!(
                                "WAL ends at {} but the checkpoint covers it up to {replay_from}",
                                s.valid_len
                            ),
                        ),
                    );
                }
                let replay = s
                    .records
                    .into_iter()
                    .filter(|(off, _)| *off >= replay_from)
                    .collect();
                let wal = WalWriter::open_at(&wal_path, wal_epoch, s.valid_len, fsync)?;
                Ok(OpenOutcome {
                    base,
                    replay,
                    store: Some(DurableStore {
                        dir: dir.to_path_buf(),
                        wal,
                    }),
                    corruption: None,
                })
            }
        }
    }

    /// Append one committed statement to the log (fsync per the open
    /// policy). See [`WalWriter::append`] for the rollback guarantees.
    pub fn append(&mut self, rec: &WalRecord) -> Result<()> {
        self.wal.append(rec)
    }

    /// Records appended since the last checkpoint (or open).
    pub fn records_since_checkpoint(&self) -> u64 {
        self.wal.records_since_reset()
    }

    /// Current WAL byte length.
    pub fn wal_len(&self) -> u64 {
        self.wal.len()
    }

    /// True when an unrecovered append failure disabled the log; reads
    /// still work, commits fail until the next open repairs the tail.
    pub fn is_poisoned(&self) -> bool {
        self.wal.is_poisoned()
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Write a durable snapshot of `catalog` and truncate the log.
    ///
    /// Protocol: serialize → write `CHECKPOINT.tmp` → fsync → rename over
    /// `CHECKPOINT` → fsync the directory → reset the WAL to the next
    /// epoch. A failure before the rename leaves the previous snapshot
    /// intact; a failure after it (log reset) leaves a durable snapshot
    /// whose epoch/offset pair makes the old log records harmless.
    pub fn checkpoint(&mut self, catalog: &Catalog) -> Result<()> {
        let epoch = self.wal.epoch();
        let body = serialize_catalog(catalog, epoch, self.wal.len())?;
        let mut bytes = Vec::with_capacity(16 + body.len());
        bytes.extend_from_slice(CHECKPOINT_MAGIC);
        bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&body).to_le_bytes());
        bytes.extend_from_slice(&body);

        let tmp = self.dir.join(CHECKPOINT_TMP);
        let dest = self.dir.join(CHECKPOINT_FILE);
        let write = (|| {
            let mut f = File::create(&tmp).map_err(|e| io("checkpoint create", &tmp, e))?;
            perm_fault::write_all("checkpoint.write", &mut f, &bytes, "checkpoint", &tmp)?;
            perm_fault::sync("checkpoint.sync", &f, "checkpoint", &tmp)?;
            perm_fault::rename("checkpoint.rename", &tmp, &dest, "checkpoint")?;
            let dirf =
                File::open(&self.dir).map_err(|e| io("checkpoint dir open", &self.dir, e))?;
            perm_fault::sync("checkpoint.dir_sync", &dirf, "checkpoint", &self.dir)
        })();
        match write {
            Ok(()) => {
                // The snapshot is durable; truncating the log is now safe.
                // If the reset fails the writer poisons itself — commits
                // stop, but no data is at risk (epoch reconciliation makes
                // the stale records harmless).
                self.wal.reset(epoch + 1)
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_sql::ContributionSemantics;
    use perm_types::{Column, DataType};

    fn stmt(sql: &str) -> WalRecord {
        WalRecord::Statement {
            sql: sql.into(),
            semantics: ContributionSemantics::Influence,
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("perm-durtest-{}-{name}", std::process::id()))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn rich_catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut t = Table::new(
            "users",
            Schema::new(vec![
                Column::new("uid", DataType::Int).not_null(),
                Column::new("name", DataType::Text),
                Column::new("score", DataType::Float),
            ]),
        );
        t.insert(Tuple::new(vec![
            Value::Int(1),
            Value::text("bert"),
            Value::Float(1.5),
        ]))
        .unwrap();
        t.insert(Tuple::new(vec![Value::Int(2), Value::Null, Value::Null]))
            .unwrap();
        t.create_index(0).unwrap();
        t.set_provenance_columns(vec![1]).unwrap();
        c.create_table(t).unwrap();
        let sql = "SELECT uid FROM users";
        let Statement::Query(q) = parse_statement(sql).unwrap() else {
            unreachable!()
        };
        c.create_view_with_sql("v", q, sql).unwrap();
        c
    }

    fn assert_catalogs_equal(a: &Catalog, b: &Catalog) {
        assert_eq!(a.relation_names(), b.relation_names());
        for name in a.relation_names() {
            match (a.get(name).unwrap(), b.get(name).unwrap()) {
                (Relation::Table(x), Relation::Table(y)) => {
                    assert_eq!(x.schema(), y.schema(), "{name}");
                    assert_eq!(x.rows(), y.rows(), "{name}");
                    assert_eq!(x.provenance_columns(), y.provenance_columns(), "{name}");
                    assert_eq!(x.index_columns(), y.index_columns(), "{name}");
                }
                (Relation::View(x), Relation::View(y)) => {
                    assert_eq!(x.definition(), y.definition(), "{name}");
                    assert_eq!(x.sql(), y.sql(), "{name}");
                }
                _ => panic!("{name}: kind mismatch"),
            }
        }
    }

    #[test]
    fn checkpoint_round_trips_a_rich_catalog() {
        let dir = temp_dir("roundtrip");
        let _c = Cleanup(dir.clone());
        let catalog = rich_catalog();
        let out = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        let mut store = out.store.unwrap();
        store.checkpoint(&catalog).unwrap();
        drop(store);

        let out = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert!(out.corruption.is_none());
        assert!(out.replay.is_empty());
        assert_catalogs_equal(&out.base, &catalog);
        // The rebuilt index actually answers lookups.
        assert_eq!(
            out.base
                .table("users")
                .unwrap()
                .index_lookup(0, &Value::Int(2))
                .unwrap(),
            &[1]
        );
    }

    #[test]
    fn serialization_is_deterministic() {
        let a = serialize_catalog(&rich_catalog(), 3, 99).unwrap();
        let b = serialize_catalog(&rich_catalog(), 3, 99).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn view_without_sql_cannot_be_checkpointed() {
        let mut c = Catalog::new();
        let Statement::Query(q) = parse_statement("SELECT 1").unwrap() else {
            unreachable!()
        };
        c.create_view("v", q).unwrap();
        let err = serialize_catalog(&c, 1, WAL_HEADER_LEN).unwrap_err();
        assert!(err.message().contains("no stored SQL"), "{err}");
    }

    #[test]
    fn wal_records_replay_after_reopen() {
        let dir = temp_dir("replay");
        let _c = Cleanup(dir.clone());
        let out = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        let mut store = out.store.unwrap();
        store.append(&stmt("CREATE TABLE t (x int)")).unwrap();
        store.append(&stmt("INSERT INTO t VALUES (1)")).unwrap();
        assert_eq!(store.records_since_checkpoint(), 2);
        drop(store);

        let out = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert!(out.corruption.is_none());
        assert!(out.base.is_empty());
        let stmts: Vec<&WalRecord> = out.replay.iter().map(|(_, r)| r).collect();
        assert_eq!(
            stmts,
            vec![
                &stmt("CREATE TABLE t (x int)"),
                &stmt("INSERT INTO t VALUES (1)"),
            ]
        );
    }

    #[test]
    fn checkpoint_truncates_wal_and_stops_replaying() {
        let dir = temp_dir("truncate");
        let _c = Cleanup(dir.clone());
        let out = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        let mut store = out.store.unwrap();
        store.append(&stmt("CREATE TABLE t (x int)")).unwrap();
        let mut catalog = Catalog::new();
        catalog
            .create_table(Table::new(
                "t",
                Schema::new(vec![Column::new("x", DataType::Int)]),
            ))
            .unwrap();
        store.checkpoint(&catalog).unwrap();
        assert_eq!(store.records_since_checkpoint(), 0);
        store.append(&stmt("INSERT INTO t VALUES (1)")).unwrap();
        drop(store);

        let out = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert!(out.corruption.is_none());
        assert_eq!(out.base.relation_names(), vec!["t"]);
        let stmts: Vec<&WalRecord> = out.replay.iter().map(|(_, r)| r).collect();
        assert_eq!(
            stmts,
            vec![&stmt("INSERT INTO t VALUES (1)")],
            "only the post-checkpoint record replays"
        );
    }

    #[test]
    fn stale_wal_after_checkpoint_is_not_double_applied() {
        // Simulate a crash between checkpoint rename and WAL reset: the
        // log still holds records the snapshot already contains.
        let dir = temp_dir("stale");
        let _c = Cleanup(dir.clone());
        let out = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        let mut store = out.store.unwrap();
        store.append(&stmt("CREATE TABLE t (x int)")).unwrap();
        let wal_before = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let mut catalog = Catalog::new();
        catalog
            .create_table(Table::new(
                "t",
                Schema::new(vec![Column::new("x", DataType::Int)]),
            ))
            .unwrap();
        store.checkpoint(&catalog).unwrap();
        drop(store);
        // Undo the WAL reset, as if the crash hit first.
        std::fs::write(dir.join(WAL_FILE), &wal_before).unwrap();

        let out = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert!(out.corruption.is_none());
        assert_eq!(out.base.relation_names(), vec!["t"]);
        assert!(
            out.replay.is_empty(),
            "records covered by the checkpoint must not replay"
        );
    }

    #[test]
    fn corrupt_checkpoint_degrades_to_read_only() {
        let dir = temp_dir("badckpt");
        let _c = Cleanup(dir.clone());
        let out = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        let mut store = out.store.unwrap();
        store.checkpoint(&rich_catalog()).unwrap();
        drop(store);
        let path = dir.join(CHECKPOINT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let out = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert!(out.store.is_none());
        let err = out.corruption.unwrap();
        assert_eq!(err.kind(), "corruption");
        assert!(out.base.is_empty());
    }

    #[test]
    fn mid_log_corruption_reports_offset_and_keeps_prefix() {
        let dir = temp_dir("midlog");
        let _c = Cleanup(dir.clone());
        let out = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        let mut store = out.store.unwrap();
        store.append(&stmt("CREATE TABLE t (x int)")).unwrap();
        store.append(&stmt("INSERT INTO t VALUES (1)")).unwrap();
        drop(store);
        let path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        // Damage the first record's payload; the second record follows it.
        bytes[WAL_HEADER_LEN as usize + 9] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let out = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert!(out.store.is_none());
        match out.corruption.unwrap() {
            PermError::Corruption { offset, .. } => assert_eq!(offset, WAL_HEADER_LEN),
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn torn_tail_is_truncated_and_recovery_is_idempotent() {
        let dir = temp_dir("torntail");
        let _c = Cleanup(dir.clone());
        let out = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        let mut store = out.store.unwrap();
        store.append(&stmt("CREATE TABLE t (x int)")).unwrap();
        store.append(&stmt("INSERT INTO t VALUES (1)")).unwrap();
        drop(store);
        let path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&path).unwrap();
        // Chop the last record mid-frame: a torn append.
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        for round in 0..2 {
            let out = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
            assert!(out.corruption.is_none(), "round {round}");
            let stmts: Vec<&WalRecord> = out.replay.iter().map(|(_, r)| r).collect();
            assert_eq!(
                stmts,
                vec![&stmt("CREATE TABLE t (x int)")],
                "round {round}: torn record dropped, committed prefix kept"
            );
        }
        // The torn bytes really are gone from disk after the first open:
        // the file now ends exactly where the first record does.
        let repaired = std::fs::read(&path).unwrap();
        let s = scan(&repaired);
        assert_eq!(s.tail, TailState::Clean);
        assert_eq!(s.valid_len, repaired.len() as u64);
        assert_eq!(s.records.len(), 1);
    }
}
