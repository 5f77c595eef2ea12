//! On-disk spill files: the storage layer's first on-disk codepath.
//!
//! Buffering operators (hash-join builds, aggregation tables, sort
//! buffers, set-operation partitions) that are denied a memory
//! reservation partition their input and write the partitions here, then
//! read them back one at a time. The format is a minimal length-prefixed
//! row codec — every record is
//!
//! ```text
//! [u64 tag LE] [u32 value-count LE] value*
//! value := 0x00                      -- NULL
//!        | 0x01 [u8]                 -- bool
//!        | 0x02 [i64 LE]             -- int
//!        | 0x03 [f64 bits LE]        -- float (exact bit pattern)
//!        | 0x04 [u32 len LE] [UTF-8] -- text
//! ```
//!
//! The `tag` carries whatever the operator needs to restore the exact
//! in-memory processing order (a global row index, a probe position).
//! Floats round-trip by bit pattern — a spilled-and-reloaded row is
//! byte-identical to the row that was written, which is what lets the
//! spilling operators promise results identical to the in-memory path.
//! The same value codec serializes table rows in durable checkpoints
//! (see `durable`).
//!
//! Files live in the OS temp directory under process-unique names and
//! are deleted when the `SpillFile` handle drops (including on error
//! unwind). This module is one of the few places in the engine allowed
//! to create files; `xtask lint` enforces that.
//!
//! I/O failures surface as typed [`PermError::Io`] naming the operator
//! and file path. Reads additionally retry transient failures a bounded
//! number of times (with a short backoff) before failing the query —
//! a spill read error never takes down the server, only the one query.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use perm_types::{PermError, Result, Tuple, Value};

/// Process-wide counter making spill file names unique.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Transient read failures are retried this many times (after the first
/// attempt) before the error is surfaced to the query.
const SPILL_READ_RETRIES: u32 = 3;

fn io_err(what: &str, path: &Path, e: std::io::Error) -> PermError {
    PermError::Io {
        operator: format!("spill {what}"),
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// Encode one value in the spill codec (shared with checkpoints).
/// Invalid data (text longer than `u32::MAX`) maps to
/// [`ErrorKind::InvalidData`].
pub(crate) fn write_value(out: &mut impl Write, v: &Value) -> std::io::Result<()> {
    match v {
        Value::Null => out.write_all(&[0x00]),
        Value::Bool(b) => out.write_all(&[0x01, u8::from(*b)]),
        Value::Int(i) => out
            .write_all(&[0x02])
            .and_then(|()| out.write_all(&i.to_le_bytes())),
        Value::Float(f) => out
            .write_all(&[0x03])
            .and_then(|()| out.write_all(&f.to_bits().to_le_bytes())),
        Value::Text(s) => {
            let len = u32::try_from(s.len()).map_err(|_| {
                std::io::Error::new(ErrorKind::InvalidData, "text value too long to encode")
            })?;
            out.write_all(&[0x04])
                .and_then(|()| out.write_all(&len.to_le_bytes()))
                .and_then(|()| out.write_all(s.as_bytes()))
        }
    }
}

/// Decode one value in the spill codec. Unknown tags and invalid UTF-8
/// map to [`ErrorKind::InvalidData`].
pub(crate) fn read_value(input: &mut impl Read) -> std::io::Result<Value> {
    let mut b1 = [0u8; 1];
    let mut b4 = [0u8; 4];
    let mut b8 = [0u8; 8];
    input.read_exact(&mut b1)?;
    match b1[0] {
        0x00 => Ok(Value::Null),
        0x01 => {
            input.read_exact(&mut b1)?;
            Ok(Value::Bool(b1[0] != 0))
        }
        0x02 => {
            input.read_exact(&mut b8)?;
            Ok(Value::Int(i64::from_le_bytes(b8)))
        }
        0x03 => {
            input.read_exact(&mut b8)?;
            Ok(Value::Float(f64::from_bits(u64::from_le_bytes(b8))))
        }
        0x04 => {
            input.read_exact(&mut b4)?;
            let len = u32::from_le_bytes(b4) as usize;
            let mut buf = vec![0u8; len];
            input.read_exact(&mut buf)?;
            String::from_utf8(buf)
                .map(Value::text)
                .map_err(|_| std::io::Error::new(ErrorKind::InvalidData, "invalid UTF-8 text"))
        }
        other => Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("unknown value tag {other:#04x}"),
        )),
    }
}

/// Encoded byte length of one value in the spill codec.
pub(crate) fn value_encoded_len(v: &Value) -> u64 {
    match v {
        Value::Null => 1,
        Value::Bool(_) => 2,
        Value::Int(_) | Value::Float(_) => 9,
        Value::Text(s) => 5 + s.len() as u64,
    }
}

/// A temp file owned by a spill partition; removed from disk on drop.
#[derive(Debug)]
struct SpillFile {
    path: PathBuf,
}

impl SpillFile {
    fn create() -> Result<(SpillFile, File)> {
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("perm-spill-{}-{seq}.bin", std::process::id()));
        let file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| io_err("create", &path, e))?;
        Ok((SpillFile { path }, file))
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Write side of one spill partition.
#[derive(Debug)]
pub struct SpillWriter {
    file: SpillFile,
    out: BufWriter<File>,
    records: usize,
}

impl SpillWriter {
    /// Create an empty spill partition in the OS temp directory.
    pub fn create() -> Result<SpillWriter> {
        let (file, handle) = SpillFile::create()?;
        Ok(SpillWriter {
            file,
            out: BufWriter::new(handle),
            records: 0,
        })
    }

    /// Append one `(tag, row)` record, the row given by its values.
    pub fn push<'v>(
        &mut self,
        tag: u64,
        row: impl ExactSizeIterator<Item = &'v Value>,
    ) -> Result<()> {
        let path = &self.file.path;
        let out = &mut self.out;
        out.write_all(&tag.to_le_bytes())
            .map_err(|e| io_err("write", path, e))?;
        let n = u32::try_from(row.len())
            .map_err(|_| PermError::Execution("spill write: row too wide".into()))?;
        out.write_all(&n.to_le_bytes())
            .map_err(|e| io_err("write", path, e))?;
        for v in row {
            write_value(out, v).map_err(|e| {
                if e.kind() == ErrorKind::InvalidData {
                    PermError::Execution(format!("spill write: {e}"))
                } else {
                    io_err("write", path, e)
                }
            })?;
        }
        self.records += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn len(&self) -> usize {
        self.records
    }

    /// True when no record has been written.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Flush and reopen the partition for reading. Records come back in
    /// the order they were pushed.
    pub fn into_reader(mut self) -> Result<SpillReader> {
        let path = &self.file.path;
        self.out.flush().map_err(|e| io_err("flush", path, e))?;
        let handle = File::open(path).map_err(|e| io_err("reopen", path, e))?;
        Ok(SpillReader {
            file: self.file,
            input: BufReader::new(handle),
            remaining: self.records,
            offset: 0,
        })
    }
}

/// Read side of one spill partition; an iterator of `(tag, row)` records
/// in write order. The underlying temp file is removed when the reader
/// drops.
#[derive(Debug)]
pub struct SpillReader {
    file: SpillFile,
    input: BufReader<File>,
    remaining: usize,
    /// Byte offset of the next unread record; lets a failed read seek
    /// back to the record boundary and retry.
    offset: u64,
}

impl SpillReader {
    /// Records not yet read.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// One read attempt from the current position. I/O errors come back
    /// as typed `Io`; decode failures (which a retry cannot fix) as
    /// `Execution`.
    fn try_read_record(&mut self) -> Result<(u64, Tuple)> {
        let path = &self.file.path;
        if perm_fault::hit("spill.read").is_some() {
            return Err(PermError::Io {
                operator: "spill read".into(),
                path: path.display().to_string(),
                detail: "injected read error (failpoint)".into(),
            });
        }
        let input = &mut self.input;
        let mut b8 = [0u8; 8];
        let mut b4 = [0u8; 4];
        input
            .read_exact(&mut b8)
            .map_err(|e| io_err("read", path, e))?;
        let tag = u64::from_le_bytes(b8);
        input
            .read_exact(&mut b4)
            .map_err(|e| io_err("read", path, e))?;
        let n = u32::from_le_bytes(b4) as usize;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            let v = read_value(input).map_err(|e| {
                if e.kind() == ErrorKind::InvalidData {
                    PermError::Execution(format!("spill read: {e}"))
                } else {
                    io_err("read", path, e)
                }
            })?;
            values.push(v);
        }
        Ok((tag, Tuple::new(values)))
    }

    /// Read the next record, retrying transient I/O failures a bounded
    /// number of times from the record boundary before giving up.
    fn read_record(&mut self) -> Result<(u64, Tuple)> {
        let mut attempt = 0u32;
        loop {
            match self.try_read_record() {
                Ok((tag, row)) => {
                    self.offset += 12 + row.iter().map(value_encoded_len).sum::<u64>();
                    return Ok((tag, row));
                }
                // Decode errors are deterministic; retrying cannot help.
                Err(e) if e.kind() != "io" => return Err(e),
                Err(e) if attempt >= SPILL_READ_RETRIES => return Err(e),
                Err(_) => {
                    attempt += 1;
                    std::thread::sleep(std::time::Duration::from_millis(1 << attempt));
                    self.input
                        .seek(SeekFrom::Start(self.offset))
                        .map_err(|e| io_err("seek", &self.file.path, e))?;
                }
            }
        }
    }
}

impl Iterator for SpillReader {
    type Item = Result<(u64, Tuple)>;

    fn next(&mut self) -> Option<Result<(u64, Tuple)>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(self.read_record())
    }
}

/// True when no spill temp file created by this process remains on
/// disk. Spill files are owned by handles that remove them on drop —
/// including error unwind and cancellation paths — so between
/// statements the spill directory must be clean. Tests and the chaos
/// harness assert this after every run to catch leaked temp files.
pub fn spill_dir_is_clean() -> bool {
    let prefix = format!("perm-spill-{}-", std::process::id());
    match std::fs::read_dir(std::env::temp_dir()) {
        Ok(entries) => !entries
            .flatten()
            .any(|e| e.file_name().to_string_lossy().starts_with(&prefix)),
        // An unreadable temp dir can't hide a leak we could observe.
        Err(_) => true,
    }
}

/// A fixed set of spill partitions an operator scatters rows into, then
/// reads back partition by partition.
#[derive(Debug)]
pub struct SpillPartitions {
    writers: Vec<SpillWriter>,
}

impl SpillPartitions {
    /// `parts` empty partitions (at least one).
    pub fn create(parts: usize) -> Result<SpillPartitions> {
        let mut writers = Vec::with_capacity(parts.max(1));
        for _ in 0..parts.max(1) {
            writers.push(SpillWriter::create()?);
        }
        Ok(SpillPartitions { writers })
    }

    /// Number of partitions.
    pub fn parts(&self) -> usize {
        self.writers.len()
    }

    /// Append `(tag, row)` to partition `part`, the row given by its
    /// values.
    pub fn push<'v>(
        &mut self,
        part: usize,
        tag: u64,
        row: impl ExactSizeIterator<Item = &'v Value>,
    ) -> Result<()> {
        self.writers[part].push(tag, row)
    }

    /// Rows written to partition `part` so far.
    pub fn part_len(&self, part: usize) -> usize {
        self.writers[part].len()
    }

    /// Finish writing and open every partition for reading, in partition
    /// order.
    pub fn into_readers(self) -> Result<Vec<SpillReader>> {
        self.writers
            .into_iter()
            .map(SpillWriter::into_reader)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows() -> Vec<Tuple> {
        vec![
            Tuple::new(vec![
                Value::Int(42),
                Value::text("héllo"),
                Value::Null,
                Value::Bool(true),
            ]),
            Tuple::new(vec![
                Value::Float(1.5),
                Value::Float(f64::NAN),
                Value::Float(-0.0),
                Value::text(""),
            ]),
            Tuple::empty(),
        ]
    }

    #[test]
    fn rows_round_trip_exactly_in_order() {
        // Reads spill records: must not overlap the tests below that
        // install `spill.read` failpoints (process-global state).
        let _g = perm_fault::test_guard();
        let mut w = SpillWriter::create().unwrap();
        let rows = sample_rows();
        for (i, r) in rows.iter().enumerate() {
            w.push(i as u64, r.iter()).unwrap();
        }
        assert_eq!(w.len(), rows.len());
        let got: Vec<(u64, Tuple)> = w.into_reader().unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(got.len(), rows.len());
        for (i, (tag, row)) in got.iter().enumerate() {
            assert_eq!(*tag, i as u64);
            // Bit-exact floats: compare the raw representation, not just
            // grouping equality (NaN payloads and -0.0 must survive).
            assert_eq!(row.len(), rows[i].len());
            for (a, b) in row.iter().zip(rows[i].iter()) {
                match (a, b) {
                    (Value::Float(x), Value::Float(y)) => {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                    _ => assert_eq!(a, b),
                }
            }
        }
    }

    #[test]
    fn temp_file_is_removed_on_drop() {
        let w = SpillWriter::create().unwrap();
        let path = w.file.path.clone();
        assert!(path.exists());
        drop(w);
        assert!(!path.exists(), "writer drop must remove {path:?}");

        let mut w = SpillWriter::create().unwrap();
        w.push(0, Tuple::new(vec![Value::Int(1)]).iter()).unwrap();
        let r = w.into_reader().unwrap();
        let path = r.file.path.clone();
        assert!(path.exists());
        drop(r);
        assert!(!path.exists(), "reader drop must remove {path:?}");
    }

    #[test]
    fn partitions_scatter_and_read_back() {
        let _g = perm_fault::test_guard();
        let mut parts = SpillPartitions::create(3).unwrap();
        for i in 0..10u64 {
            let row = Tuple::new(vec![Value::Int(i as i64)]);
            parts.push((i % 3) as usize, i, row.iter()).unwrap();
        }
        assert_eq!(parts.parts(), 3);
        assert_eq!(parts.part_len(0), 4);
        let readers = parts.into_readers().unwrap();
        let mut seen = Vec::new();
        for (p, reader) in readers.into_iter().enumerate() {
            for r in reader {
                let (tag, row) = r.unwrap();
                assert_eq!(tag % 3, p as u64);
                assert_eq!(row.get(0), &Value::Int(tag as i64));
                seen.push(tag);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_partition_reads_empty() {
        let w = SpillWriter::create().unwrap();
        assert!(w.is_empty());
        let mut r = w.into_reader().unwrap();
        assert_eq!(r.remaining(), 0);
        assert!(r.next().is_none());
    }

    #[test]
    fn transient_read_error_is_retried() {
        let _g = perm_fault::test_guard();
        perm_fault::configure("spill.read=read_err@1").unwrap();
        let mut w = SpillWriter::create().unwrap();
        w.push(7, Tuple::new(vec![Value::Int(7), Value::text("x")]).iter())
            .unwrap();
        w.push(8, Tuple::new(vec![Value::Int(8), Value::Null]).iter())
            .unwrap();
        let got: Vec<(u64, Tuple)> = w.into_reader().unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(got.len(), 2, "one transient failure must be absorbed");
        assert_eq!(got[0].0, 7);
        assert_eq!(got[1].0, 8);
        assert_eq!(perm_fault::fired_count("spill.read"), 1);
        perm_fault::clear();
    }

    #[test]
    fn persistent_read_error_fails_query_with_typed_io() {
        let _g = perm_fault::test_guard();
        perm_fault::configure("spill.read=read_err").unwrap();
        let mut w = SpillWriter::create().unwrap();
        w.push(7, Tuple::new(vec![Value::Int(7)]).iter()).unwrap();
        let err = w.into_reader().unwrap().next().unwrap().unwrap_err();
        assert_eq!(err.kind(), "io");
        assert!(err.message().contains("injected read error"), "{err}");
        assert_eq!(
            perm_fault::fired_count("spill.read"),
            1 + SPILL_READ_RETRIES as u64,
            "bounded retries, then give up"
        );
        perm_fault::clear();
    }

    #[test]
    fn encoded_len_matches_codec() {
        for row in sample_rows() {
            for v in row.iter() {
                let mut buf = Vec::new();
                write_value(&mut buf, v).unwrap();
                assert_eq!(buf.len() as u64, value_encoded_len(v), "{v:?}");
            }
        }
    }
}
