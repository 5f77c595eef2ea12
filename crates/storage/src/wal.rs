//! The write-ahead log: checksummed, length-prefixed statement records.
//!
//! Durability in this engine is *logical*: every committed DDL/DML
//! statement is appended to the log as a self-contained record and
//! replayed through the normal execution pipeline on recovery. The file
//! layout is
//!
//! ```text
//! [8 bytes  b"PERMWAL1"] [u64 epoch LE]          -- 16-byte header
//! record*
//! record := [u32 len LE] [u32 crc32 LE] [payload]
//! payload := 0x03 [u8 semantics] [UTF-8 SQL statement]
//!          | 0x01 [UTF-8 SQL statement]   -- older logs: INFLUENCE
//!          | 0x02 [u32 len][table] [u32 len][column]   -- CREATE INDEX
//! ```
//!
//! A statement record holds the text the statement was parsed from and
//! the default contribution semantics of the session that ran it (the
//! one session option that changes what a logged statement computes:
//! an unqualified `SELECT PROVENANCE` under `CREATE TABLE AS`).
//!
//! The CRC (IEEE 802.3, the zlib polynomial) covers the payload only; the
//! length prefix is validated against the file size. The `epoch` ties a
//! log to the checkpoint generation it extends: after a successful
//! checkpoint the log is truncated and rewritten with `epoch + 1`, and
//! recovery uses the pair (checkpoint epoch, WAL epoch) to decide which
//! records still need replaying — so a crash *between* checkpoint rename
//! and WAL truncation never double-applies a statement.
//!
//! Appends go through [`WalWriter::append`], which on any mid-append
//! failure rolls the file back to the previous record boundary (the
//! file is opened in append mode, so a rollback `set_len` also moves the
//! write cursor). If even the rollback fails the writer poisons itself:
//! further commits are refused and the next open repairs the tail.
//! Recovery ([`scan`]) classifies the log tail: a record that extends
//! past end-of-file or fails its checksum *at* end-of-file is a torn
//! tail (truncated, data loss limited to the never-acknowledged last
//! statement); a bad record with valid data after it is real corruption
//! and is surfaced as such, never silently dropped.
//!
//! All file I/O goes through the [`perm_fault`] wrappers; `xtask
//! lint` enforces that no raw write/sync/rename/truncate calls appear in
//! this module.

use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};

use perm_sql::{ContributionSemantics, CopyMode};
use perm_types::{PermError, Result};

/// Magic bytes opening every WAL file (version 1).
pub const WAL_MAGIC: &[u8; 8] = b"PERMWAL1";

/// Byte length of the WAL header (magic + epoch).
pub const WAL_HEADER_LEN: u64 = 16;

/// When the log forces data to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// fsync after every committed statement (the durable default).
    #[default]
    Always,
    /// Never fsync: crash durability is best-effort. For tests and
    /// benchmarks that measure everything but the disk.
    Never,
}

/// CRC-32 (IEEE) lookup table, built at compile time.
const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE 802.3) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: [u32; 256] = crc_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// The contribution semantics a statement record can carry, indexed by
/// its byte in the record.
const SEMANTICS: [ContributionSemantics; 4] = [
    ContributionSemantics::Influence,
    ContributionSemantics::Copy(CopyMode::Partial),
    ContributionSemantics::Copy(CopyMode::Complete),
    ContributionSemantics::Lineage,
];

/// One logical WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A committed DDL/DML statement: the SQL text it was parsed from,
    /// replayed through the full parse→plan→execute pipeline on recovery
    /// under the default contribution semantics it ran with.
    Statement {
        sql: String,
        semantics: ContributionSemantics,
    },
    /// An index creation (there is no SQL surface syntax for it).
    CreateIndex { table: String, column: String },
}

impl WalRecord {
    fn encode(&self) -> Vec<u8> {
        match self {
            WalRecord::Statement { sql, semantics } => {
                let tag = SEMANTICS.iter().position(|s| s == semantics);
                let mut out = Vec::with_capacity(2 + sql.len());
                // INVARIANT: SEMANTICS lists every contribution semantics.
                out.extend_from_slice(&[0x03, tag.expect("listed") as u8]);
                out.extend_from_slice(sql.as_bytes());
                out
            }
            WalRecord::CreateIndex { table, column } => {
                let mut out = Vec::with_capacity(9 + table.len() + column.len());
                out.push(0x02);
                out.extend_from_slice(&(table.len() as u32).to_le_bytes());
                out.extend_from_slice(table.as_bytes());
                out.extend_from_slice(&(column.len() as u32).to_le_bytes());
                out.extend_from_slice(column.as_bytes());
                out
            }
        }
    }

    fn decode(payload: &[u8]) -> std::result::Result<WalRecord, String> {
        match payload.first() {
            Some(0x03) => match payload.get(1).and_then(|&b| SEMANTICS.get(b as usize)) {
                Some(&semantics) => decode_statement(&payload[2..], semantics),
                None => Err("statement record has no valid contribution semantics".into()),
            },
            // Written before records carried the semantics: such a
            // statement always replayed under the default, INFLUENCE.
            Some(0x01) => decode_statement(&payload[1..], ContributionSemantics::Influence),
            Some(0x02) => {
                let rest = &payload[1..];
                let (table, rest) = decode_str(rest)?;
                let (column, rest) = decode_str(rest)?;
                if !rest.is_empty() {
                    return Err("trailing bytes after create-index record".into());
                }
                Ok(WalRecord::CreateIndex { table, column })
            }
            Some(k) => Err(format!("unknown record kind {k:#04x}")),
            None => Err("empty record payload".into()),
        }
    }
}

fn decode_statement(
    sql: &[u8],
    semantics: ContributionSemantics,
) -> std::result::Result<WalRecord, String> {
    match std::str::from_utf8(sql) {
        Ok(sql) => Ok(WalRecord::Statement {
            sql: sql.to_string(),
            semantics,
        }),
        Err(_) => Err("statement record is not valid UTF-8".into()),
    }
}

fn decode_str(data: &[u8]) -> std::result::Result<(String, &[u8]), String> {
    if data.len() < 4 {
        return Err("truncated string length".into());
    }
    let len = u32::from_le_bytes([data[0], data[1], data[2], data[3]]) as usize;
    let data = &data[4..];
    if data.len() < len {
        return Err("truncated string payload".into());
    }
    match std::str::from_utf8(&data[..len]) {
        Ok(s) => Ok((s.to_string(), &data[len..])),
        Err(_) => Err("string payload is not valid UTF-8".into()),
    }
}

/// Frame a record for disk: `[len][crc][payload]`.
fn encode_frame(rec: &WalRecord) -> Vec<u8> {
    let payload = rec.encode();
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// How [`scan`] classified the end of the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailState {
    /// The log ends exactly at a record boundary.
    Clean,
    /// The final record is partial or fails its checksum with nothing
    /// after it: a torn write from a crash mid-append. Recovery truncates
    /// it — the statement was never acknowledged as committed.
    Torn,
    /// A record failed validation with valid data *after* it (or
    /// structurally impossible framing mid-log): data that was once
    /// acknowledged is damaged. Never repaired silently.
    Corrupt { offset: u64, detail: String },
}

/// Result of scanning a WAL file image.
#[derive(Debug)]
pub struct WalScan {
    /// Epoch from the header, or `None` if the header itself is missing
    /// or torn (only possible from a crash while creating/resetting the
    /// log, i.e. nothing after it was ever durable).
    pub epoch: Option<u64>,
    /// Every fully-validated record, with its byte offset in the file.
    pub records: Vec<(u64, WalRecord)>,
    /// File length up to and including the last valid record.
    pub valid_len: u64,
    pub tail: TailState,
}

/// Parse a WAL file image into records plus a tail classification. Pure
/// slice math — the caller does the file read (through a failpoint).
pub fn scan(data: &[u8]) -> WalScan {
    if data.len() < WAL_HEADER_LEN as usize {
        return WalScan {
            epoch: None,
            records: Vec::new(),
            valid_len: 0,
            tail: if data.is_empty() {
                TailState::Clean
            } else {
                TailState::Torn
            },
        };
    }
    if &data[..8] != WAL_MAGIC {
        return WalScan {
            epoch: None,
            records: Vec::new(),
            valid_len: 0,
            tail: TailState::Corrupt {
                offset: 0,
                detail: "bad WAL magic".into(),
            },
        };
    }
    let epoch = u64::from_le_bytes([
        data[8], data[9], data[10], data[11], data[12], data[13], data[14], data[15],
    ]);
    let mut records = Vec::new();
    let mut off = WAL_HEADER_LEN as usize;
    loop {
        if off == data.len() {
            return WalScan {
                epoch: Some(epoch),
                records,
                valid_len: off as u64,
                tail: TailState::Clean,
            };
        }
        let torn = |records: Vec<(u64, WalRecord)>| WalScan {
            epoch: Some(epoch),
            records,
            valid_len: off as u64,
            tail: TailState::Torn,
        };
        if data.len() - off < 8 {
            return torn(records);
        }
        let len =
            u32::from_le_bytes([data[off], data[off + 1], data[off + 2], data[off + 3]]) as usize;
        // A zero length never occurs in a real record (every payload has a
        // kind byte); it is the signature of a zero-filled tail after a
        // crash, so it is torn, not corrupt.
        if len == 0 {
            return torn(records);
        }
        let crc = u32::from_le_bytes([data[off + 4], data[off + 5], data[off + 6], data[off + 7]]);
        let body_start = off + 8;
        if data.len() - body_start < len {
            // Record extends past end-of-file: torn tail.
            return torn(records);
        }
        let payload = &data[body_start..body_start + len];
        let at_eof = body_start + len == data.len();
        if crc32(payload) != crc {
            if at_eof {
                return torn(records);
            }
            return WalScan {
                epoch: Some(epoch),
                records,
                valid_len: off as u64,
                tail: TailState::Corrupt {
                    offset: off as u64,
                    detail: "record checksum mismatch".into(),
                },
            };
        }
        match WalRecord::decode(payload) {
            Ok(rec) => records.push((off as u64, rec)),
            Err(detail) => {
                // The checksum passed, so these bytes are what was written:
                // a version/logic problem, not a torn write.
                return WalScan {
                    epoch: Some(epoch),
                    records,
                    valid_len: off as u64,
                    tail: TailState::Corrupt {
                        offset: off as u64,
                        detail,
                    },
                };
            }
        }
        off = body_start + len;
    }
}

/// Append side of the log.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    len: u64,
    epoch: u64,
    records_since_reset: u64,
    fsync: FsyncPolicy,
    poisoned: bool,
}

const OP: &str = "wal append";

impl WalWriter {
    fn open_file(path: &Path) -> Result<File> {
        // Append mode: after a rollback/truncate `set_len`, the next write
        // lands at the new end-of-file without an explicit seek.
        OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)
            .map_err(|e| PermError::Io {
                operator: "wal open".into(),
                path: path.display().to_string(),
                detail: e.to_string(),
            })
    }

    /// Create (or wipe) the log at `path` and write a fresh header for
    /// `epoch`.
    pub fn create(path: &Path, epoch: u64, fsync: FsyncPolicy) -> Result<WalWriter> {
        let file = Self::open_file(path)?;
        let mut w = WalWriter {
            file,
            path: path.to_path_buf(),
            len: 0,
            epoch,
            records_since_reset: 0,
            fsync,
            poisoned: false,
        };
        w.write_header(epoch)?;
        Ok(w)
    }

    /// Open an existing log whose valid prefix is `valid_len` bytes
    /// (as reported by [`scan`]), truncating any torn tail beyond it.
    pub fn open_at(
        path: &Path,
        epoch: u64,
        valid_len: u64,
        fsync: FsyncPolicy,
    ) -> Result<WalWriter> {
        let file = Self::open_file(path)?;
        perm_fault::set_len("wal.open.truncate", &file, valid_len, "wal recovery", path)?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            len: valid_len,
            epoch,
            records_since_reset: 0,
            fsync,
            poisoned: false,
        })
    }

    fn write_header(&mut self, epoch: u64) -> Result<()> {
        perm_fault::set_len("wal.reset", &self.file, 0, "wal reset", &self.path)?;
        self.len = 0;
        let mut header = Vec::with_capacity(WAL_HEADER_LEN as usize);
        header.extend_from_slice(WAL_MAGIC);
        header.extend_from_slice(&epoch.to_le_bytes());
        perm_fault::write_all(
            "wal.reset.write",
            &mut self.file,
            &header,
            "wal reset",
            &self.path,
        )?;
        perm_fault::sync("wal.reset.sync", &self.file, "wal reset", &self.path)?;
        self.len = WAL_HEADER_LEN;
        self.epoch = epoch;
        self.records_since_reset = 0;
        Ok(())
    }

    /// Append one record and (under [`FsyncPolicy::Always`]) force it to
    /// disk. On failure the file is rolled back to the previous record
    /// boundary so a half-written frame is never followed by a later
    /// append; if even that rollback fails, the writer refuses all
    /// further appends (the torn tail is repaired on next open).
    pub fn append(&mut self, rec: &WalRecord) -> Result<()> {
        if self.poisoned {
            return Err(PermError::Io {
                operator: OP.into(),
                path: self.path.display().to_string(),
                detail: "log writer disabled by an earlier unrecovered write failure".into(),
            });
        }
        let frame = encode_frame(rec);
        let pre_len = self.len;
        let result =
            perm_fault::write_all("wal.append.write", &mut self.file, &frame, OP, &self.path)
                .and_then(|()| match self.fsync {
                    FsyncPolicy::Always => {
                        perm_fault::sync("wal.append.sync", &self.file, OP, &self.path)
                    }
                    FsyncPolicy::Never => Ok(()),
                });
        match result {
            Ok(()) => {
                self.len += frame.len() as u64;
                self.records_since_reset += 1;
                Ok(())
            }
            Err(e) => {
                if perm_fault::set_len("wal.rollback", &self.file, pre_len, OP, &self.path).is_err()
                {
                    self.poisoned = true;
                }
                Err(e)
            }
        }
    }

    /// Wipe the log and start epoch `new_epoch` (after a successful
    /// checkpoint made the old records redundant). On failure the writer
    /// poisons itself: the on-disk tail is in an unknown state and only a
    /// fresh open may append again.
    pub fn reset(&mut self, new_epoch: u64) -> Result<()> {
        match self.write_header(new_epoch) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// Current logical length: header plus every committed record.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True right after creation (no records yet).
    pub fn is_empty(&self) -> bool {
        self.len <= WAL_HEADER_LEN
    }

    /// The checkpoint generation this log extends.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Records appended since the log was last created/reset.
    pub fn records_since_reset(&self) -> u64 {
        self.records_since_reset
    }

    /// True when an unrecovered failure disabled this writer.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stmt(sql: &str) -> WalRecord {
        WalRecord::Statement {
            sql: sql.into(),
            semantics: ContributionSemantics::Influence,
        }
    }

    fn temp_wal(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("perm-waltest-{}-{name}.log", std::process::id()))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_round_trip_through_scan() {
        let path = temp_wal("roundtrip");
        let _c = Cleanup(path.clone());
        let recs = vec![
            stmt("CREATE TABLE t (x int)"),
            stmt("INSERT INTO t VALUES (1)"),
            WalRecord::CreateIndex {
                table: "t".into(),
                column: "x".into(),
            },
        ];
        let mut w = WalWriter::create(&path, 7, FsyncPolicy::Never).unwrap();
        for r in &recs {
            w.append(r).unwrap();
        }
        assert_eq!(w.records_since_reset(), 3);
        let data = std::fs::read(&path).unwrap();
        assert_eq!(data.len() as u64, w.len());
        let s = scan(&data);
        assert_eq!(s.epoch, Some(7));
        assert_eq!(s.tail, TailState::Clean);
        assert_eq!(s.valid_len, w.len());
        let got: Vec<WalRecord> = s.records.into_iter().map(|(_, r)| r).collect();
        assert_eq!(got, recs);
    }

    #[test]
    fn statement_records_keep_their_semantics() {
        for semantics in SEMANTICS {
            let rec = WalRecord::Statement {
                sql: "CREATE TABLE p AS SELECT PROVENANCE x FROM t".into(),
                semantics,
            };
            assert_eq!(WalRecord::decode(&rec.encode()), Ok(rec));
        }
        // A record from a log written before statements carried their
        // semantics replays under the default.
        assert_eq!(
            WalRecord::decode(b"\x01INSERT INTO t VALUES (1)"),
            Ok(stmt("INSERT INTO t VALUES (1)"))
        );
        assert!(WalRecord::decode(b"\x03\x09SELECT 1").is_err());
    }

    #[test]
    fn torn_tail_is_detected_at_every_boundary() {
        let path = temp_wal("torn");
        let _c = Cleanup(path.clone());
        let mut w = WalWriter::create(&path, 1, FsyncPolicy::Never).unwrap();
        w.append(&stmt("CREATE TABLE t (x int)")).unwrap();
        w.append(&stmt("INSERT INTO t VALUES (42)")).unwrap();
        let data = std::fs::read(&path).unwrap();
        let full = scan(&data);
        assert_eq!(full.records.len(), 2);
        let second_start = full.records[1].0;

        // Cutting exactly at the boundary is a clean (shorter) log …
        let s = scan(&data[..second_start as usize]);
        assert_eq!(s.tail, TailState::Clean);
        assert_eq!(s.records.len(), 1);
        // … while a cut at every byte inside the second record must be
        // classified as a torn tail ending after record one.
        for cut in (second_start + 1)..(data.len() as u64) {
            let s = scan(&data[..cut as usize]);
            assert_eq!(s.tail, TailState::Torn, "cut at {cut}");
            assert_eq!(s.records.len(), 1, "cut at {cut}");
            assert_eq!(s.valid_len, second_start, "cut at {cut}");
        }
    }

    #[test]
    fn zero_filled_tail_is_torn_not_corrupt() {
        let path = temp_wal("zerofill");
        let _c = Cleanup(path.clone());
        let mut w = WalWriter::create(&path, 1, FsyncPolicy::Never).unwrap();
        w.append(&stmt("CREATE TABLE t (x int)")).unwrap();
        let mut data = std::fs::read(&path).unwrap();
        let valid = data.len() as u64;
        data.extend_from_slice(&[0u8; 32]);
        let s = scan(&data);
        assert_eq!(s.tail, TailState::Torn);
        assert_eq!(s.valid_len, valid);
        assert_eq!(s.records.len(), 1);
    }

    #[test]
    fn mid_log_damage_is_corruption_with_offset() {
        let path = temp_wal("midlog");
        let _c = Cleanup(path.clone());
        let mut w = WalWriter::create(&path, 1, FsyncPolicy::Never).unwrap();
        w.append(&stmt("CREATE TABLE t (x int)")).unwrap();
        let first_end = w.len();
        w.append(&stmt("INSERT INTO t VALUES (1)")).unwrap();
        let mut data = std::fs::read(&path).unwrap();
        // Flip a payload byte of the FIRST record: valid data follows it.
        data[WAL_HEADER_LEN as usize + 9] ^= 0xFF;
        let s = scan(&data);
        match s.tail {
            TailState::Corrupt { offset, .. } => assert_eq!(offset, WAL_HEADER_LEN),
            other => panic!("expected corruption, got {other:?}"),
        }
        assert!(s.records.is_empty());

        // The same flip in the LAST record is a torn tail instead.
        let mut data = std::fs::read(&path).unwrap();
        data[first_end as usize + 9] ^= 0xFF;
        let s = scan(&data);
        assert_eq!(s.tail, TailState::Torn);
        assert_eq!(s.records.len(), 1);
    }

    #[test]
    fn reset_bumps_epoch_and_empties_log() {
        let path = temp_wal("reset");
        let _c = Cleanup(path.clone());
        let mut w = WalWriter::create(&path, 3, FsyncPolicy::Never).unwrap();
        w.append(&stmt("CREATE TABLE t (x int)")).unwrap();
        w.reset(4).unwrap();
        assert!(w.is_empty());
        assert_eq!(w.epoch(), 4);
        assert_eq!(w.records_since_reset(), 0);
        let s = scan(&std::fs::read(&path).unwrap());
        assert_eq!(s.epoch, Some(4));
        assert!(s.records.is_empty());
        assert_eq!(s.tail, TailState::Clean);
    }

    #[test]
    fn missing_or_torn_header_reads_as_fresh() {
        assert_eq!(scan(&[]).epoch, None);
        assert_eq!(scan(&[]).tail, TailState::Clean);
        let s = scan(b"PERMWAL");
        assert_eq!(s.epoch, None);
        assert_eq!(s.tail, TailState::Torn);
        let s = scan(b"NOTAWAL!\0\0\0\0\0\0\0\0");
        assert!(matches!(s.tail, TailState::Corrupt { offset: 0, .. }));
    }
}
