//! The write-ahead job journal: every job transition survives a crash.
//!
//! One file, `vecycled.wal`, under the daemon's `--journal-dir`. Each
//! record is a JSON payload in the crate's one [`record`] frame, so a
//! record either replays intact or is detected as a torn tail and
//! discarded. Replay tolerates exactly one torn suffix (the crash
//! mid-append case): decoding stops at the first short or
//! checksum-failing record, the valid prefix is kept, and the file is
//! truncated back to it.
//!
//! [`Journal::append`] syncs (`fdatasync`); `Journal::append_hint`
//! only writes, and the next synced append carries the hint to disk —
//! which transition gets which is [`crate::queue::Queue`]'s call
//! (DESIGN §17.1). An append that fails is cut back off the file, so the
//! WAL stays a sequence of whole records and the caller may refuse what
//! it was recording; if even the cut fails, every later append fails.
//! [`Journal::compact`] rewrites the whole file through
//! [`vecycle_types::atomic_replace`], as boot replay's snapshot; the
//! WAL it displaces stays as `vecycled.wal.tmp`, the next compaction's
//! spare.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};
use vecycle_types::sync;

use crate::record;

/// The WAL file name under the journal directory.
pub const WAL_FILE: &str = "vecycled.wal";

/// Record kinds, in lifecycle order. Replay ignores a kind that is not
/// listed here.
pub mod rec {
    /// Job accepted into the queue (spec + peer recorded).
    pub const SUBMITTED: &str = "submitted";
    /// Scheduler picked the job; the host claim comes next.
    pub const CLAIMED: &str = "claimed";
    /// Data-plane progress: `pages_landed` messages durably applied or
    /// skipped at the destination so far.
    pub const TRANSFERRING: &str = "transferring";
    /// Terminal: completed, reconciled, destination verified.
    pub const DONE: &str = "done";
    /// Terminal: failed (detail carries the error).
    pub const FAILED: &str = "failed";
    /// Terminal: cancelled while queued.
    pub const CANCELLED: &str = "cancelled";
}

/// One journal record. Flat struct (the vendored serde derive has no
/// enum support); unused fields ride along empty.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalRecord {
    /// Monotonic sequence number, assigned at append time.
    pub seq: u64,
    /// The job this record belongs to.
    pub job: u64,
    /// One of the [`rec`] kinds.
    pub kind: String,
    /// Scenario key-value form (`submitted` records only).
    pub spec: String,
    /// Peer daemon address (`submitted` records only).
    pub peer: String,
    /// Messages landed at the destination (`transferring` records).
    pub pages_landed: u64,
    /// Error message (`failed`), or a resume detail (`transferring`,
    /// a compacted `submitted`).
    pub detail: String,
}

impl WalRecord {
    /// A record of `kind` for `job` with everything else empty.
    pub fn bare(kind: &str, job: u64) -> WalRecord {
        WalRecord {
            seq: 0,
            job,
            kind: kind.to_string(),
            spec: String::new(),
            peer: String::new(),
            pages_landed: 0,
            detail: String::new(),
        }
    }
}

/// What replaying a WAL file produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// Every intact record, in append order.
    pub records: Vec<WalRecord>,
    /// Bytes of torn tail discarded (0 on a clean file).
    pub torn_bytes: u64,
}

/// A record as the WAL holds it: `record` under sequence number `seq`.
struct Stamped<'a> {
    seq: u64,
    record: &'a WalRecord,
}

impl Serialize for Stamped<'_> {
    fn serialize(&self) -> serde::Value {
        let mut value = self.record.serialize();
        if let serde::Value::Object(fields) = &mut value {
            for (key, field) in fields {
                if key == "seq" {
                    *field = serde::Value::U64(self.seq);
                }
            }
        }
        value
    }
}

/// Appends the on-disk frame of `record`, stamped `seq`, to `buf`.
fn encode_record(record: &WalRecord, seq: u64, buf: &mut Vec<u8>) {
    let payload = serde_json::to_string(&Stamped { seq, record }).expect("wal record serializes");
    record::push(buf, payload.as_bytes());
}

/// Largest record payload replay will accept. A WAL payload is one
/// JSON job record; 1 MiB is far beyond any legitimate spec.
const MAX_RECORD: usize = 1 << 20;

/// Decodes records from raw file bytes, stopping at the first torn,
/// corrupt or unparsable record. Returns the records and the byte
/// offset of the valid prefix.
pub fn decode_records(bytes: &[u8]) -> (Vec<WalRecord>, u64) {
    let mut records = Vec::new();
    let mut scan = record::scan(bytes, MAX_RECORD);
    let mut valid = 0;
    while let Some(payload) = scan.next() {
        let parsed = std::str::from_utf8(payload)
            .ok()
            .and_then(|text| serde_json::from_str::<WalRecord>(text).ok());
        let Some(entry) = parsed else { break };
        records.push(entry);
        valid = scan.offset();
    }
    (records, valid as u64)
}

/// The append handle to one daemon's WAL.
pub struct Journal {
    dir: PathBuf,
    path: PathBuf,
    inner: Mutex<JournalInner>,
}

struct JournalInner {
    file: File,
    next_seq: u64,
    /// The frame being appended, kept across appends for its capacity.
    frame: Vec<u8>,
    /// The file's length, every record whole; `None` once a failed
    /// append could not be cut back off.
    len: Option<u64>,
}

impl Journal {
    /// Opens (or creates) the WAL under `dir`, replaying what is
    /// already there. A torn tail is truncated away so the next append
    /// lands on a clean boundary.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation, open, read and truncate errors.
    pub fn open(dir: &Path) -> std::io::Result<(Journal, Replay)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(WAL_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut bytes)?;
        let (records, valid) = decode_records(&bytes);
        let torn_bytes = bytes.len() as u64 - valid;
        if torn_bytes > 0 {
            file.set_len(valid)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::End(0))?;
        let next_seq = records.last().map_or(1, |r| r.seq.saturating_add(1));
        let journal = Journal::at(file, dir, next_seq, valid);
        Ok((
            journal,
            Replay {
                records,
                torn_bytes,
            },
        ))
    }

    /// The WAL under `dir`, appending to `file` (`len` bytes of whole
    /// records).
    pub(crate) fn at(file: File, dir: &Path, next_seq: u64, len: u64) -> Journal {
        Journal {
            dir: dir.to_path_buf(),
            path: dir.join(WAL_FILE),
            inner: Mutex::new(JournalInner {
                file,
                next_seq,
                frame: Vec::new(),
                len: Some(len),
            }),
        }
    }

    /// The WAL file path (tests and artifact upload).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record durably (write + `fdatasync`), assigning its
    /// sequence number. Returns the assigned `seq`.
    ///
    /// # Errors
    ///
    /// Propagates write and sync errors.
    pub fn append(&self, record: &WalRecord) -> std::io::Result<u64> {
        self.write(record, true)
    }

    /// Appends one record as a *hint*: written in order like any other,
    /// but not synced — the next [`Journal::append`] carries it to disk.
    /// For records no recovery decision reads (module docs).
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub(crate) fn append_hint(&self, record: &WalRecord) -> std::io::Result<u64> {
        self.write(record, false)
    }

    /// Appends one record; on any error, what reached the file is cut
    /// back off (module docs).
    fn write(&self, record: &WalRecord, sync: bool) -> std::io::Result<u64> {
        let mut guard = sync::lock(&self.inner);
        let inner = &mut *guard;
        let broken = || std::io::Error::other("a failed append could not be cut off the wal");
        let len = inner.len.ok_or_else(broken)?;
        let seq = inner.next_seq;
        inner.frame.clear();
        encode_record(record, seq, &mut inner.frame);
        let (file, frame) = (&mut inner.file, &inner.frame);
        let written = file
            .write_all(frame)
            .and_then(|()| if sync { file.sync_data() } else { Ok(()) });
        if let Err(e) = written {
            inner.len = inner.file.set_len(len).ok().map(|()| len);
            return Err(e);
        }
        inner.len = Some(len + inner.frame.len() as u64);
        inner.next_seq += 1;
        Ok(seq)
    }

    /// Rewrites the WAL to exactly `records` (re-sequenced from 1)
    /// through [`vecycle_types::atomic_replace`], as `DiskStore::save`
    /// writes checkpoints. Used by boot recovery to snapshot replayed
    /// state.
    ///
    /// # Errors
    ///
    /// Propagates write, sync and rename errors; a failed compaction
    /// leaves the WAL as it was and no temp file behind.
    pub fn compact(&self, records: &[WalRecord]) -> std::io::Result<()> {
        let mut inner = sync::lock(&self.inner);
        let mut buf = Vec::new();
        for (seq, record) in (1..).zip(records) {
            encode_record(record, seq, &mut buf);
        }
        let tmp = self.dir.join(format!("{WAL_FILE}.tmp"));
        vecycle_types::atomic_replace(&self.path, &tmp, |f| f.write_all(&buf))?;
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        inner.file = file;
        inner.next_seq = records.len() as u64 + 1;
        inner.len = Some(buf.len() as u64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("vecycle-wal-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn submitted(job: u64) -> WalRecord {
        let mut r = WalRecord::bare(rec::SUBMITTED, job);
        r.spec = "vm=1,ram=4".into();
        r.peer = "127.0.0.1:9".into();
        r
    }

    #[test]
    fn append_then_reopen_replays_in_order() {
        let d = dir("roundtrip");
        let (j, replay) = Journal::open(&d).unwrap();
        assert!(replay.records.is_empty());
        assert_eq!(j.append(&submitted(1)).unwrap(), 1);
        assert_eq!(j.append(&WalRecord::bare(rec::CLAIMED, 1)).unwrap(), 2);
        assert_eq!(j.append(&WalRecord::bare(rec::DONE, 1)).unwrap(), 3);
        drop(j);
        let (j2, replay) = Journal::open(&d).unwrap();
        assert_eq!(replay.torn_bytes, 0);
        let kinds: Vec<&str> = replay.records.iter().map(|r| r.kind.as_str()).collect();
        assert_eq!(kinds, ["submitted", "claimed", "done"]);
        assert_eq!(replay.records[0].spec, "vm=1,ram=4");
        assert_eq!(
            replay.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            [1, 2, 3]
        );
        // Sequence numbers continue where the file left off.
        assert_eq!(j2.append(&submitted(2)).unwrap(), 4);
    }

    #[test]
    fn torn_tail_is_detected_and_truncated() {
        let d = dir("torn");
        let (j, _) = Journal::open(&d).unwrap();
        j.append(&submitted(1)).unwrap();
        j.append(&WalRecord::bare(rec::CLAIMED, 1)).unwrap();
        let path = j.path().to_path_buf();
        drop(j);
        // Simulate a crash mid-append: a partial frame at the tail.
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0, 0, 0, 99, b'{', b'"']).unwrap();
        drop(f);
        let (_, replay) = Journal::open(&d).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.torn_bytes, 6);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
    }

    #[test]
    fn corrupt_byte_cuts_replay_at_the_damaged_record() {
        let d = dir("corrupt");
        let (j, _) = Journal::open(&d).unwrap();
        j.append(&submitted(1)).unwrap();
        let after_first = std::fs::metadata(j.path()).unwrap().len();
        j.append(&WalRecord::bare(rec::DONE, 1)).unwrap();
        let path = j.path().to_path_buf();
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 12] ^= 0xFF; // inside record 2's payload
        std::fs::write(&path, &bytes).unwrap();
        let (_, replay) = Journal::open(&d).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].kind, "submitted");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), after_first);
    }

    #[test]
    fn compact_rewrites_and_resequences() {
        let d = dir("compact");
        let (j, _) = Journal::open(&d).unwrap();
        for job in 1..=3 {
            j.append(&submitted(job)).unwrap();
            j.append(&WalRecord::bare(rec::DONE, job)).unwrap();
        }
        // Keep only job 3's pair, as recovery would after jobs 1–2 age out.
        let mut keep = vec![submitted(3), WalRecord::bare(rec::DONE, 3)];
        keep[1].detail = "recovered".into();
        j.compact(&keep).unwrap();
        let appended = j.append(&WalRecord::bare(rec::CLAIMED, 4)).unwrap();
        assert_eq!(appended, 3, "seq continues after the compacted set");
        drop(j);
        let (_, replay) = Journal::open(&d).unwrap();
        let kinds: Vec<&str> = replay.records.iter().map(|r| r.kind.as_str()).collect();
        assert_eq!(kinds, ["submitted", "done", "claimed"]);
        assert_eq!(replay.records[1].detail, "recovered");
    }

    /// A compaction that dies at the rename reports the error, leaves
    /// the WAL's entry as it was, and strands no `vecycled.wal.tmp`.
    #[test]
    fn failed_compaction_leaves_no_temp_file() {
        let d = dir("compact-fail");
        let (j, _) = Journal::open(&d).unwrap();
        j.append(&submitted(1)).unwrap();
        // A directory squatting on the WAL's path makes the rename fail.
        std::fs::remove_file(j.path()).unwrap();
        std::fs::create_dir(j.path()).unwrap();
        assert!(j.compact(&[submitted(1)]).is_err());
        assert!(j.path().is_dir());
        assert!(!d.join(format!("{WAL_FILE}.tmp")).exists());
        std::fs::remove_dir_all(d).unwrap();
    }

    /// Compaction writes into the file the previous one displaced: two
    /// leave the WAL and its one spare, and the WAL is the second's.
    #[test]
    fn compactions_keep_one_spare_beside_the_wal() {
        let d = dir("compact-spare");
        let (j, _) = Journal::open(&d).unwrap();
        j.append(&submitted(1)).unwrap();
        j.compact(&[submitted(1), submitted(2)]).unwrap();
        j.compact(&[submitted(3)]).unwrap();
        drop(j);
        let mut names: Vec<String> = std::fs::read_dir(&d)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, [WAL_FILE, &format!("{WAL_FILE}.tmp")]);
        let (_, replay) = Journal::open(&d).unwrap();
        let jobs: Vec<u64> = replay.records.iter().map(|r| r.job).collect();
        assert_eq!(jobs, [3]);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn oversized_declared_length_stops_replay() {
        let d = dir("oversized");
        std::fs::create_dir_all(&d).unwrap();
        std::fs::write(d.join(WAL_FILE), u32::MAX.to_be_bytes()).unwrap();
        let (_, replay) = Journal::open(&d).unwrap();
        assert!(replay.records.is_empty());
        assert_eq!(replay.torn_bytes, 4);
    }
}
