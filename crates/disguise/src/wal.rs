//! The disguise journal: a checksummed write-ahead log of disguise and
//! restore transactions.
//!
//! The format reuses the `segio` codec idioms — little-endian framing,
//! a 64-bit FNV-1a checksum verified before any decoding, tmp+rename
//! rewrites, fail-closed on anything torn or corrupt:
//!
//! ```text
//! magic     8  b"TDFWAL1\0"
//! entry*:
//!   len     4  u32, byte length of body
//!   body       txn_id u64 | kind u8 (0 disguise / 1 restore) | user u64
//!              | nops u32 | op* | commit u8 (0xC7)
//!     op:      row u64 | col u32 | before value | after value
//!     value:   tag u8 (0 Int i64 / 1 Float f64-bits / 2 Bool u8
//!              / 3 Str u32+bytes / 4 Missing)
//!   checksum 8 FNV-1a over body
//! ```
//!
//! A transaction is journalled as **one** frame whose commit marker and
//! checksum land with the same `write_all`+`sync_all`, so the classic
//! WAL dichotomy holds per entry: a frame that parses and checksums is
//! committed in full; anything else is an uncommitted tail. [`Journal::open`]
//! keeps the longest clean prefix and truncates the tail (tmp+rename, so
//! a crash *during recovery* leaves either the old file or the repaired
//! one, never a hybrid); [`read_all`] is the strict variant that turns
//! any damage into a typed error.
//!
//! [`Journal::append`] is where the `disguise.wal_append` fault site
//! lives: an injected crash writes half the frame and errors. Retries
//! first truncate the file back to the committed length — re-appending
//! over a torn tail without that repair would bury garbage mid-file and
//! silently orphan every later entry. The final failed attempt leaves
//! the torn tail in place, exactly as a real crash would.

use crate::{Error, Result};
use std::fs;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use tdf_microdata::segio::fnv1a;
use tdf_microdata::Value;

const MAGIC: &[u8; 8] = b"TDFWAL1\0";
const COMMIT: u8 = 0xC7;

/// Transaction direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Forward: original cells → ghost/redacted cells.
    Disguise,
    /// Inverse: disguised cells → original cells.
    Restore,
}

/// One cell mutation: absolute before/after images, so replay is
/// idempotent (re-applying an `after` value is a no-op).
#[derive(Debug, Clone, PartialEq)]
pub struct CellOp {
    /// Row index in the base dataset.
    pub row: u64,
    /// Column index in the base schema.
    pub col: u32,
    /// Cell value before the transaction.
    pub before: Value,
    /// Cell value after the transaction.
    pub after: Value,
}

/// A whole disguise or restore transaction, journalled as one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct TxnRecord {
    /// Monotonic transaction id.
    pub txn_id: u64,
    /// Disguise or restore.
    pub kind: OpKind,
    /// The user the transaction is for.
    pub user: u64,
    /// Every cell the transaction touches.
    pub ops: Vec<CellOp>,
}

/// What [`Journal::open`] found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Committed transactions recovered from the journal.
    pub entries: usize,
    /// Torn/uncommitted tail bytes truncated away.
    pub truncated_bytes: u64,
    /// True when the file had to be rewritten (torn tail or short header).
    pub repaired: bool,
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            out.push(0);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(1);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Bool(b) => {
            out.push(2);
            out.push(*b as u8);
        }
        Value::Str(s) => {
            out.push(3);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Missing => out.push(4),
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.bytes.len() {
            return Err(Error::Wal("journal entry truncated".into()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Int(self.u64()? as i64),
            1 => Value::Float(f64::from_bits(self.u64()?)),
            2 => Value::Bool(self.u8()? != 0),
            3 => {
                let len = self.u32()? as usize;
                Value::Str(
                    String::from_utf8(self.take(len)?.to_vec())
                        .map_err(|_| Error::Wal("journal string not UTF-8".into()))?,
                )
            }
            4 => Value::Missing,
            t => return Err(Error::Wal(format!("unknown value tag {t}"))),
        })
    }
}

impl TxnRecord {
    fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.ops.len() * 24);
        out.extend_from_slice(&self.txn_id.to_le_bytes());
        out.push(match self.kind {
            OpKind::Disguise => 0,
            OpKind::Restore => 1,
        });
        out.extend_from_slice(&self.user.to_le_bytes());
        out.extend_from_slice(&(self.ops.len() as u32).to_le_bytes());
        for op in &self.ops {
            out.extend_from_slice(&op.row.to_le_bytes());
            out.extend_from_slice(&op.col.to_le_bytes());
            put_value(&mut out, &op.before);
            put_value(&mut out, &op.after);
        }
        out.push(COMMIT);
        out
    }

    /// The full on-disk frame: length prefix, body, checksum trailer.
    pub fn encode_frame(&self) -> Vec<u8> {
        let body = self.encode_body();
        let mut out = Vec::with_capacity(body.len() + 12);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        out.extend_from_slice(&fnv1a(&body).to_le_bytes());
        out
    }

    fn decode_body(body: &[u8]) -> Result<TxnRecord> {
        let mut cur = Cursor {
            bytes: body,
            pos: 0,
        };
        let txn_id = cur.u64()?;
        let kind = match cur.u8()? {
            0 => OpKind::Disguise,
            1 => OpKind::Restore,
            t => return Err(Error::Wal(format!("unknown txn kind {t}"))),
        };
        let user = cur.u64()?;
        let nops = cur.u32()? as usize;
        let mut ops = Vec::with_capacity(nops.min(1 << 16));
        for _ in 0..nops {
            let row = cur.u64()?;
            let col = cur.u32()?;
            let before = cur.value()?;
            let after = cur.value()?;
            ops.push(CellOp {
                row,
                col,
                before,
                after,
            });
        }
        if cur.u8()? != COMMIT {
            return Err(Error::Wal("missing commit marker".into()));
        }
        if cur.pos != body.len() {
            return Err(Error::Wal("trailing bytes after commit marker".into()));
        }
        Ok(TxnRecord {
            txn_id,
            kind,
            user,
            ops,
        })
    }
}

/// Parses the byte stream after the magic. Returns the records of the
/// longest clean prefix and the byte offset (relative to the start of
/// `bytes`) where that prefix ends; `clean` is false when damaged bytes
/// follow the prefix.
fn parse_entries(bytes: &[u8]) -> (Vec<TxnRecord>, usize, bool) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let rem = &bytes[pos..];
        if rem.len() < 4 {
            return (records, pos, false);
        }
        let len = u32::from_le_bytes(rem[..4].try_into().unwrap()) as usize;
        if rem.len() < 4 + len + 8 {
            return (records, pos, false);
        }
        let body = &rem[4..4 + len];
        let stored = u64::from_le_bytes(rem[4 + len..4 + len + 8].try_into().unwrap());
        if fnv1a(body) != stored {
            return (records, pos, false);
        }
        match TxnRecord::decode_body(body) {
            Ok(rec) => records.push(rec),
            Err(_) => return (records, pos, false),
        }
        pos += 4 + len + 8;
    }
    (records, pos, true)
}

fn io_wal(ctx: &str, path: &Path, e: std::io::Error) -> Error {
    Error::Wal(format!("{ctx} {}: {e}", path.display()))
}

/// Strict read: every byte of the journal must parse and checksum, or
/// the whole read fails with a typed error. This is the auditor's view;
/// recovery (which tolerates a torn tail) is [`Journal::open`].
pub fn read_all(path: &Path) -> Result<Vec<TxnRecord>> {
    let bytes = fs::read(path).map_err(|e| io_wal("read", path, e))?;
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err(Error::Wal(format!(
            "bad journal magic in {}",
            path.display()
        )));
    }
    let (records, _, clean) = parse_entries(&bytes[MAGIC.len()..]);
    if !clean {
        return Err(Error::Wal(format!(
            "journal {} has a torn or corrupt tail",
            path.display()
        )));
    }
    Ok(records)
}

/// The open journal: an append handle plus the committed length.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: fs::File,
    committed_len: u64,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, recovering the committed
    /// prefix. A file shorter than the magic is re-initialised (a crash
    /// during creation); a file with the wrong magic is a typed error —
    /// it is not ours to destroy. A torn or corrupt tail is truncated
    /// away via tmp+rename and reported.
    pub fn open(path: &Path) -> Result<(Journal, Vec<TxnRecord>, RecoveryReport)> {
        // A crash during a previous recovery rewrite may have left a tmp.
        let tmp = path.with_extension("tmp");
        let _ = fs::remove_file(&tmp);

        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_wal("read", path, e)),
        };
        let mut report = RecoveryReport::default();
        let records;
        if bytes.len() < MAGIC.len() {
            // Nothing committed could fit before the magic was durable:
            // reinitialise from scratch.
            if !bytes.is_empty() {
                report.repaired = true;
                report.truncated_bytes = bytes.len() as u64;
            }
            fs::write(path, MAGIC).map_err(|e| io_wal("init", path, e))?;
            records = Vec::new();
        } else if &bytes[..MAGIC.len()] != MAGIC {
            return Err(Error::Wal(format!(
                "bad journal magic in {}",
                path.display()
            )));
        } else {
            let (recs, end, clean) = parse_entries(&bytes[MAGIC.len()..]);
            if !clean {
                let keep = MAGIC.len() + end;
                report.repaired = true;
                report.truncated_bytes = (bytes.len() - keep) as u64;
                let mut f = fs::File::create(&tmp).map_err(|e| io_wal("create", &tmp, e))?;
                f.write_all(&bytes[..keep])
                    .map_err(|e| io_wal("write", &tmp, e))?;
                f.sync_all().map_err(|e| io_wal("sync", &tmp, e))?;
                drop(f);
                fs::rename(&tmp, path).map_err(|e| io_wal("rename", &tmp, e))?;
                obs::count("disguise.wal_truncated_bytes", report.truncated_bytes);
            }
            records = recs;
        }
        report.entries = records.len();
        obs::count("disguise.wal_recovered", records.len() as u64);

        let mut file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_wal("open", path, e))?;
        let committed_len = file
            .seek(SeekFrom::End(0))
            .map_err(|e| io_wal("seek", path, e))?;
        Ok((
            Journal {
                path: path.to_path_buf(),
                file,
                committed_len,
            },
            records,
            report,
        ))
    }

    /// Path of the journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes of committed journal (magic + committed frames).
    pub fn committed_len(&self) -> u64 {
        self.committed_len
    }

    /// Durably appends one transaction frame. The commit marker and
    /// checksum ship in the same write, so the entry is committed iff
    /// the whole frame lands.
    ///
    /// The `disguise.wal_append` fault site crashes an attempt after
    /// half the frame: each retry first truncates back to the committed
    /// length (never re-append over a torn tail), and the final failed
    /// attempt leaves the torn tail on disk as the crash image.
    pub fn append(&mut self, rec: &TxnRecord) -> Result<()> {
        let frame = rec.encode_frame();
        let start = self.committed_len;
        for attempt in 0..3 {
            if attempt > 0 {
                obs::count("disguise.wal_retry", 1);
                self.file
                    .set_len(start)
                    .map_err(|e| io_wal("truncate", &self.path, e))?;
            }
            self.file
                .seek(SeekFrom::Start(start))
                .map_err(|e| io_wal("seek", &self.path, e))?;
            if faultkit::fire("disguise.wal_append") {
                let _ = self.file.write_all(&frame[..frame.len() / 2]);
                let _ = self.file.sync_all();
                continue;
            }
            self.file
                .write_all(&frame)
                .map_err(|e| io_wal("append", &self.path, e))?;
            self.file
                .sync_all()
                .map_err(|e| io_wal("sync", &self.path, e))?;
            self.committed_len = start + frame.len() as u64;
            obs::count("disguise.wal_entries", 1);
            obs::count("disguise.wal_bytes", frame.len() as u64);
            return Ok(());
        }
        Err(Error::Crashed("disguise.wal_append"))
    }

    /// Re-reads the whole journal strictly (committed entries only — a
    /// torn tail left by the final failed append attempt is an error
    /// here, by design).
    pub fn read_back(&mut self) -> Result<Vec<TxnRecord>> {
        self.file
            .seek(SeekFrom::Start(0))
            .map_err(|e| io_wal("seek", &self.path, e))?;
        let mut bytes = Vec::new();
        self.file
            .read_to_end(&mut bytes)
            .map_err(|e| io_wal("read", &self.path, e))?;
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            return Err(Error::Wal("bad journal magic".into()));
        }
        let (records, _, clean) = parse_entries(&bytes[MAGIC.len()..]);
        if !clean {
            return Err(Error::Wal("journal has a torn or corrupt tail".into()));
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tdf_wal_{tag}_{}.wal", std::process::id()))
    }

    fn sample_rec(txn_id: u64) -> TxnRecord {
        TxnRecord {
            txn_id,
            kind: if txn_id % 2 == 0 {
                OpKind::Disguise
            } else {
                OpKind::Restore
            },
            user: 40 + txn_id,
            ops: vec![
                CellOp {
                    row: 3,
                    col: 0,
                    before: Value::Float(171.5),
                    after: Value::Missing,
                },
                CellOp {
                    row: 3,
                    col: 4,
                    before: Value::Int(7),
                    after: Value::Int((1i64 << 48) + 99),
                },
                CellOp {
                    row: 9,
                    col: 3,
                    before: Value::Bool(true),
                    after: Value::Str("ghost".into()),
                },
            ],
        }
    }

    #[test]
    fn append_then_reopen_round_trips() {
        let path = tmp_path("roundtrip");
        let _ = fs::remove_file(&path);
        let (mut j, recs, report) = Journal::open(&path).unwrap();
        assert!(recs.is_empty());
        assert!(!report.repaired);
        crate::testsupport::without_faults(|| {
            j.append(&sample_rec(0)).unwrap();
            j.append(&sample_rec(1)).unwrap();
        });
        assert_eq!(j.read_back().unwrap().len(), 2);
        drop(j);
        let (_, recs, report) = Journal::open(&path).unwrap();
        assert_eq!(recs, vec![sample_rec(0), sample_rec(1)]);
        assert_eq!(report.entries, 2);
        assert!(!report.repaired);
        let strict = read_all(&path).unwrap();
        assert_eq!(strict.len(), 2);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_to_the_committed_prefix() {
        let path = tmp_path("torn");
        let _ = fs::remove_file(&path);
        let (mut j, _, _) = Journal::open(&path).unwrap();
        crate::testsupport::without_faults(|| j.append(&sample_rec(0)).unwrap());
        drop(j);
        // A crash mid-append: half of the next frame lands.
        let frame = sample_rec(1).encode_frame();
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&frame[..frame.len() / 2]);
        fs::write(&path, &bytes).unwrap();
        assert!(read_all(&path).is_err(), "strict read fails closed");
        let (_, recs, report) = Journal::open(&path).unwrap();
        assert_eq!(recs, vec![sample_rec(0)], "committed prefix survives");
        assert!(report.repaired);
        assert_eq!(report.truncated_bytes, (frame.len() / 2) as u64);
        // After repair the strict read agrees.
        assert_eq!(read_all(&path).unwrap(), vec![sample_rec(0)]);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn short_header_reinitialises_and_foreign_magic_fails_closed() {
        let path = tmp_path("header");
        fs::write(&path, b"TDF").unwrap();
        let (_, recs, report) = Journal::open(&path).unwrap();
        assert!(recs.is_empty());
        assert!(report.repaired);
        fs::write(&path, b"NOTAWAL0rest").unwrap();
        assert!(matches!(Journal::open(&path), Err(Error::Wal(_))));
        assert!(matches!(read_all(&path), Err(Error::Wal(_))));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn injected_append_crash_retries_then_fails_closed() {
        let path = tmp_path("fault");
        let _ = fs::remove_file(&path);
        let (mut j, _, _) = Journal::open(&path).unwrap();
        // Budget 1: the first attempt tears, the retry commits.
        crate::testsupport::with_fault_plan("disguise.wal_append=1", || {
            j.append(&sample_rec(0)).unwrap();
        });
        // Unbounded: all three attempts tear; the torn tail stays on disk.
        crate::testsupport::with_fault_plan("disguise.wal_append=0", || {
            assert_eq!(
                j.append(&sample_rec(1)),
                Err(Error::Crashed("disguise.wal_append"))
            );
        });
        drop(j);
        let (mut j, recs, report) = Journal::open(&path).unwrap();
        assert_eq!(recs, vec![sample_rec(0)], "only the committed entry");
        assert!(report.repaired, "the torn tail was truncated");
        // The journal keeps working after recovery.
        crate::testsupport::without_faults(|| j.append(&sample_rec(1)).unwrap());
        assert_eq!(j.read_back().unwrap().len(), 2);
        let _ = fs::remove_file(&path);
    }
}
