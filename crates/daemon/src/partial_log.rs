//! The destination's crash-durable landed pages: an append-only log of
//! the page each applied message wrote.
//!
//! A journal-backed destination keeps one
//! `partial-job<id>-<fingerprint>.bin` per job. It is a header record
//! followed by chunk records, all in the crate's [`record`] frame:
//!
//! ```text
//! header := record: "VECYPLG2" ‖ job u64 ‖ fingerprint u64
//! chunk  := record: (idx u64 ‖ digest [16])*
//! ```
//!
//! Every applied page message — full page, checksum, dedup reference,
//! zero marker — is logged as the page it wrote and the digest that
//! page now holds; round delimiters are not logged, though they still
//! end a chunk. [`replay`] overwrites `landed[idx]` entry by entry, so a
//! page written twice lands as it ended: no state machine runs and no
//! index is needed. The result is a recycle base — a retry epoch offers
//! these digests, beside the checkpoint's, in its bulk exchange
//! (`scenario::offer`). A retry's session appends behind the earlier
//! epochs' chunks, so a later epoch wins per page.
//!
//! The destination appends one chunk per persistence boundary — what
//! landed since the last one, never the whole map again — with a single
//! `write` on the one open file and no `fsync`. A process kill can
//! therefore tear only the tail: every earlier chunk was a completed
//! `write` and lives in the page cache. A short or checksum-failing tail
//! is dropped (and truncated away before the session appends again).
//! Any intact prefix is a valid recycle base, because the DONE content
//! hash proves whatever a retry builds on it. A record that is intact
//! but is not a whole number of entries, or names a page beyond the
//! guest, was not written by this code for this job: the whole file is
//! ignored, and the retry recycles from the checkpoint alone. So is any
//! file an older release left — a `VECYPLG1` log or a `VECYPAR1` state
//! snapshot — because its first record is not this header: a lost
//! partial costs bytes, never correctness.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

use vecycle_types::PageDigest;

use crate::record;
use crate::session_state::partial_path;

/// Magic of the header record that begins a fresh log.
pub const LOG_MAGIC: &[u8; 8] = b"VECYPLG2";

/// Largest chunk payload [`replay`] accepts — far above the
/// `STREAM_CHUNK` entries of 24 bytes a boundary logs.
const MAX_CHUNK: usize = 64 * 1024;

/// Bytes of one logged page: `idx u64 ‖ digest`.
const ENTRY: usize = 8 + PageDigest::LEN;

/// Per guest page, the digest the logged epochs left in it.
pub type Landed = Vec<Option<PageDigest>>;

fn header_payload(job: u64, fingerprint: u64) -> [u8; 24] {
    let mut payload = [0u8; 24];
    payload[..8].copy_from_slice(LOG_MAGIC);
    payload[8..16].copy_from_slice(&job.to_be_bytes());
    payload[16..].copy_from_slice(&fingerprint.to_be_bytes());
    payload
}

/// The append handle to one job's partial file.
pub struct PartialLog {
    file: File,
    /// The open chunk record, built in place and reused across chunks.
    chunk: Vec<u8>,
}

impl PartialLog {
    /// Begins a fresh log for `(job, fingerprint)` under `dir`,
    /// replacing whatever file was there.
    ///
    /// # Errors
    ///
    /// Propagates create and write errors.
    pub fn create(dir: &Path, job: u64, fingerprint: u64) -> std::io::Result<PartialLog> {
        let mut file = File::create(partial_path(dir, job, fingerprint))?;
        let mut header = Vec::with_capacity(24 + record::OVERHEAD);
        record::push(&mut header, &header_payload(job, fingerprint));
        file.write_all(&header)?;
        Ok(PartialLog::at(file))
    }

    /// Reads the partial file for `(job, fingerprint)` of a `pages`-page
    /// guest, if an intact one exists: the pages its base and chunk
    /// prefix [`replay`] to, and the handle that keeps appending behind
    /// that prefix, the torn tail truncated away.
    pub fn load(
        dir: &Path,
        job: u64,
        fingerprint: u64,
        pages: u64,
    ) -> Option<(Landed, PartialLog)> {
        let path = partial_path(dir, job, fingerprint);
        let bytes = std::fs::read(&path).ok()?;
        let (landed, valid) = replay(&bytes, job, fingerprint, pages)?;
        let file = OpenOptions::new().append(true).open(&path).ok()?;
        if valid < bytes.len() {
            file.set_len(valid as u64).ok()?;
        }
        Some((landed, PartialLog::at(file)))
    }

    /// A handle appending to `file`.
    pub(crate) fn at(file: File) -> PartialLog {
        let mut log = PartialLog {
            file,
            chunk: Vec::with_capacity(4096),
        };
        record::begin(&mut log.chunk);
        log
    }

    /// Adds one landed page to the open chunk (memory only).
    pub fn push(&mut self, idx: u64, digest: PageDigest) {
        self.chunk.extend_from_slice(&idx.to_be_bytes());
        self.chunk.extend_from_slice(digest.as_bytes());
    }

    /// Appends the open chunk to the file with one `write` and opens
    /// the next; `Ok(false)` when no page was pushed since the last
    /// commit, in which case nothing is written.
    ///
    /// # Errors
    ///
    /// Propagates the write error; the file then ends in a torn record
    /// and the caller must stop using (and drop) it.
    pub fn commit(&mut self) -> std::io::Result<bool> {
        if self.chunk.len() == 4 {
            return Ok(false);
        }
        record::seal(&mut self.chunk, 0);
        let written = self.file.write_all(&self.chunk);
        self.chunk.clear();
        record::begin(&mut self.chunk);
        written.map(|()| true)
    }
}

/// Reads the landed pages a partial file's bytes hold for `(job,
/// fingerprint)` of a `pages`-page guest: its header ([`replay_base`]),
/// then every intact chunk in order ([`replay_chunks`]). Returns them
/// and the length of the prefix they came from, or `None` when the
/// header is missing, damaged or someone else's, or an intact record is
/// not this job's (module docs). Allocation is bounded by the guest: one
/// slot per page.
pub fn replay(bytes: &[u8], job: u64, fingerprint: u64, pages: u64) -> Option<(Landed, usize)> {
    let base_len = replay_base(bytes, job, fingerprint)?;
    let mut landed = vec![None; usize::try_from(pages).ok()?];
    let used = replay_chunks(&mut landed, &bytes[base_len..])?;
    Some((landed, base_len + used))
}

/// The length of the header record `bytes` begin with, if it is this
/// `(job, fingerprint)`'s: a file's base, which lands no page.
pub fn replay_base(bytes: &[u8], job: u64, fingerprint: u64) -> Option<usize> {
    let mut scan = record::scan(bytes, MAX_CHUNK);
    let ours = scan.next()? == header_payload(job, fingerprint);
    ours.then(|| scan.offset())
}

/// Overwrites `landed` with the entries of the intact chunk records
/// `bytes` starts with and returns their total length — so a caller
/// holding a growing file can continue from where the last call
/// stopped. `None` means an intact record is not a whole number of
/// entries or names a page beyond `landed`; the pages are then
/// part-overwritten and must be discarded.
pub fn replay_chunks(landed: &mut [Option<PageDigest>], bytes: &[u8]) -> Option<usize> {
    let mut scan = record::scan(bytes, MAX_CHUNK);
    for chunk in scan.by_ref() {
        let (entries, []) = chunk.as_chunks::<ENTRY>() else {
            return None;
        };
        for entry in entries {
            let (idx, digest) = entry.split_first_chunk::<8>().expect("an entry");
            let slot = usize::try_from(u64::from_be_bytes(*idx)).ok();
            *slot.and_then(|idx| landed.get_mut(idx))? =
                Some(PageDigest::new(digest.try_into().expect("16")));
        }
    }
    Some(scan.offset())
}

#[cfg(test)]
mod tests {
    use super::*;

    const JOB: u64 = 4;
    const FP: u64 = 0x106;
    const PAGES: u64 = 256;

    fn dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("vecycle-plog-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// 80 landed pages, page 3 written twice.
    fn entries() -> Vec<(u64, PageDigest)> {
        let mut entries: Vec<_> = (0..79)
            .map(|i| (i, PageDigest::from_content_id(i)))
            .collect();
        entries.push((3, PageDigest::from_content_id(900)));
        entries
    }

    fn landed_after(entries: &[(u64, PageDigest)]) -> Landed {
        let mut landed = vec![None; PAGES as usize];
        for &(idx, digest) in entries {
            landed[idx as usize] = Some(digest);
        }
        landed
    }

    /// Logs `entries` in chunks of `per` and returns the committed count.
    fn log_in_chunks(log: &mut PartialLog, entries: &[(u64, PageDigest)], per: usize) -> usize {
        let mut commits = 0;
        for chunk in entries.chunks(per) {
            chunk.iter().for_each(|&(idx, d)| log.push(idx, d));
            commits += usize::from(log.commit().unwrap());
        }
        commits
    }

    #[test]
    fn a_fresh_log_replays_to_the_last_digest_per_page_and_stays_small() {
        let (d, entries) = (dir("fresh"), entries());
        let mut log = PartialLog::create(&d, JOB, FP).unwrap();
        assert_eq!(log_in_chunks(&mut log, &entries, 16), 5);
        assert!(!log.commit().unwrap(), "an empty chunk writes nothing");
        let len = std::fs::metadata(partial_path(&d, JOB, FP)).unwrap().len();
        assert_eq!(len as usize, 36 + 5 * record::OVERHEAD + 80 * ENTRY);

        let (landed, _) = PartialLog::load(&d, JOB, FP, PAGES).unwrap();
        assert_eq!(landed, landed_after(&entries));
        assert_eq!(landed[3], Some(PageDigest::from_content_id(900)));
        // Someone else's file is no file, and neither is a smaller guest's.
        assert!(PartialLog::load(&d, JOB + 1, FP, PAGES).is_none());
        assert!(PartialLog::load(&d, JOB, FP, 78).is_none());
        std::fs::rename(partial_path(&d, JOB, FP), partial_path(&d, JOB, FP ^ 1)).unwrap();
        assert!(PartialLog::load(&d, JOB, FP ^ 1, PAGES).is_none());
    }

    #[test]
    fn a_loaded_log_drops_its_torn_tail_and_keeps_appending() {
        let (d, entries) = (dir("append"), entries());
        let mut log = PartialLog::create(&d, JOB, FP).unwrap();
        log_in_chunks(&mut log, &entries[..40], 16);
        drop(log);
        let path = partial_path(&d, JOB, FP);
        let clean = std::fs::metadata(&path).unwrap().len();
        let mut torn = OpenOptions::new().append(true).open(&path).unwrap();
        torn.write_all(&[0, 0, 0, 50, 9, 9, 9]).unwrap();
        drop(torn);

        let (landed, mut log) = PartialLog::load(&d, JOB, FP, PAGES).unwrap();
        assert_eq!(landed, landed_after(&entries[..40]));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean);
        log_in_chunks(&mut log, &entries[40..], 16);
        let (landed, _) = PartialLog::load(&d, JOB, FP, PAGES).unwrap();
        assert_eq!(landed, landed_after(&entries));
    }

    #[test]
    fn an_intact_record_that_is_not_this_jobs_condemns_the_file() {
        let mut base = Vec::new();
        record::push(&mut base, &header_payload(JOB, FP));
        let chunk = |payload: &[u8]| {
            let mut buf = Vec::new();
            record::push(&mut buf, payload);
            buf
        };
        let entry = |idx: u64| [&idx.to_be_bytes()[..], &[7; 16]].concat();
        let beyond = [base.clone(), chunk(&entry(PAGES))].concat();
        assert!(replay(&beyond, JOB, FP, PAGES).is_none(), "page beyond");
        let ragged = [base.clone(), chunk(&entry(1)[..20])].concat();
        assert!(replay(&ragged, JOB, FP, PAGES).is_none(), "part entry");
        let junk = [base.clone(), chunk(&[]), vec![0xEE; 40]].concat();
        let (landed, valid) = replay(&junk, JOB, FP, PAGES).expect("junk is a torn tail");
        assert_eq!((landed, valid), (vec![None; 256], junk.len() - 40));
        // The previous release's log is not ours.
        let mut old = Vec::new();
        let mut header = header_payload(JOB, FP);
        header[..8].copy_from_slice(b"VECYPLG1");
        record::push(&mut old, &header);
        assert!(replay(&old, JOB, FP, PAGES).is_none());
    }
}
