//! The destination's crash-durable landed prefix: an append-only log
//! of the messages already validated.
//!
//! A journal-backed destination keeps one
//! `partial-job<id>-<fingerprint>.bin` per session. It is a *base*
//! followed by chunk records in the crate's [`record`] frame:
//!
//! ```text
//! base   := header record: "VECYPLG1" ‖ job u64 ‖ fingerprint u64   (a log begun fresh)
//!         | a VECYPAR1 state snapshot                                (previous release)
//! chunk  := record: first u64 ‖ landed message*
//! ```
//!
//! `first` is the stream position of the chunk's first message, so a
//! chunk only ever continues the state it was written behind. A landed
//! message is its wire encoding, except that a `Full` keeps only
//! `idx ‖ digest` (same header, payload length 16): its 4 KiB filler
//! was checked when it was decoded, in the session's page buffer, and
//! is a function of the digest, so the log costs tens of bytes per
//! message whatever the message carried. The session lands a `Full` in
//! exactly that form, a `Full` with no page bytes, and replay applies a
//! logged one the same way; [`SessionState::apply`] accepts it as the
//! filler, and no page is rebuilt or copied. (A `Full` read off the
//! wire still carries exactly 4 096 bytes: the decoder enforces the
//! length before the filler check.)
//!
//! The destination appends one chunk per persistence boundary — what
//! landed since the last one, never the whole state again — with a
//! single `write` on the one open file and no `fsync`. A process kill
//! can therefore tear only the tail: every earlier chunk was a
//! completed `write` and lives in the page cache. [`replay`] rebuilds
//! the state by applying the intact chunk prefix through
//! `SessionState::apply`, from the fresh state or from the snapshot
//! base; a short or checksum-failing tail is dropped (and truncated
//! away before the session appends again). Any prefix is safe to
//! announce, because the source re-derives the state and compares
//! hashes before it skips anything. A record that is intact but does
//! not continue the state — wrong position, undecodable, refused by
//! `apply` — was not written by this code for this stream: the whole
//! file is ignored and the transfer starts fresh.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

use vecycle_checkpoint::ChecksumIndex;
use vecycle_net::wiremsg::{kind, HEADER};
use vecycle_net::WireMsg;
use vecycle_types::PageDigest;

use crate::record;
use crate::session_state::{partial_path, SessionState, PARTIAL_MAGIC};

/// Magic of the header record that begins a fresh log.
pub const LOG_MAGIC: &[u8; 8] = b"VECYPLG1";

/// Largest chunk payload [`replay`] accepts — far above the
/// `STREAM_CHUNK` messages of tens of bytes a boundary logs.
const MAX_CHUNK: usize = 64 * 1024;

/// Kind byte and 3-byte payload length of a logged `Full`.
const LANDED_FULL: [u8; 4] = [kind::FULL, 0, 0, PageDigest::LEN as u8];

/// Bytes of an open chunk before its first message: the record's
/// length prefix and `first`.
const CHUNK_HEAD: usize = 4 + 8;

/// Appends `msg` to `out` as a chunk logs it: the wire encoding, a
/// `Full` cut down to its header and digest.
pub fn encode_landed(msg: &WireMsg, out: &mut Vec<u8>) {
    match msg {
        WireMsg::Full { idx, digest, .. } => {
            out.extend_from_slice(&idx.to_be_bytes());
            out.extend_from_slice(&LANDED_FULL);
            out.extend_from_slice(digest.as_bytes());
        }
        other => other.encode(out),
    }
}

fn header_payload(job: u64, fingerprint: u64) -> [u8; 24] {
    let mut payload = [0u8; 24];
    payload[..8].copy_from_slice(LOG_MAGIC);
    payload[8..16].copy_from_slice(&job.to_be_bytes());
    payload[16..].copy_from_slice(&fingerprint.to_be_bytes());
    payload
}

/// The append handle to one session's partial file.
pub struct PartialLog {
    file: File,
    /// The open chunk record, built in place and reused across chunks.
    chunk: Vec<u8>,
    /// Stream position of the next message to be logged.
    next: u64,
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
        Ok(PartialLog::at(file, 0))
    }

    /// Reads the partial file for `(job, fingerprint)`, if an intact
    /// one exists: the state its base and chunk prefix [`replay`] to
    /// (`fresh` is the pre-stream state, `index` the checkpoint index
    /// checksum messages resolve against), and the handle that keeps
    /// appending behind that prefix, the torn tail truncated away.
    pub fn load(
        dir: &Path,
        job: u64,
        fingerprint: u64,
        fresh: &SessionState,
        index: Option<&ChecksumIndex>,
    ) -> Option<(SessionState, PartialLog)> {
        let path = partial_path(dir, job, fingerprint);
        let bytes = std::fs::read(&path).ok()?;
        let (state, valid) = replay(&bytes, job, fingerprint, fresh, index)?;
        let file = OpenOptions::new().append(true).open(&path).ok()?;
        if valid < bytes.len() {
            file.set_len(valid as u64).ok()?;
        }
        let next = state.applied();
        Some((state, PartialLog::at(file, next)))
    }

    /// A handle appending to `file` from stream position `next`.
    pub(crate) fn at(file: File, next: u64) -> PartialLog {
        let mut log = PartialLog {
            file,
            chunk: Vec::with_capacity(4096),
            next,
        };
        log.open_chunk();
        log
    }

    fn open_chunk(&mut self) {
        self.chunk.clear();
        record::begin(&mut self.chunk);
        self.chunk.extend_from_slice(&self.next.to_be_bytes());
    }

    /// Adds one validated message to the open chunk (memory only).
    pub fn push(&mut self, msg: &WireMsg) {
        encode_landed(msg, &mut self.chunk);
        self.next += 1;
    }

    /// Appends the open chunk to the file with one `write` and opens
    /// the next; `Ok(false)` when no message was pushed since the last
    /// commit, in which case nothing is written.
    ///
    /// # Errors
    ///
    /// Propagates the write error; the file then ends in a torn record
    /// and the caller must stop using (and drop) it.
    pub fn commit(&mut self) -> std::io::Result<bool> {
        if self.chunk.len() == CHUNK_HEAD {
            return Ok(false);
        }
        record::seal(&mut self.chunk, 0);
        let written = self.file.write_all(&self.chunk);
        self.open_chunk();
        written.map(|()| true)
    }
}

/// Rebuilds the state a partial file's bytes hold for `(job,
/// fingerprint)`: its base ([`replay_base`]), then every intact chunk
/// applied in order ([`replay_chunks`]). Returns the state and the
/// length of the prefix it came from, or `None` when the base is
/// missing, damaged or someone else's, or an intact record does not
/// continue the state (module docs). Allocation is bounded by the
/// input: one state.
pub fn replay(
    bytes: &[u8],
    job: u64,
    fingerprint: u64,
    fresh: &SessionState,
    index: Option<&ChecksumIndex>,
) -> Option<(SessionState, usize)> {
    let (mut state, base_len) = replay_base(bytes, job, fingerprint, fresh)?;
    let used = replay_chunks(&mut state, &bytes[base_len..], index)?;
    Some((state, base_len + used))
}

/// The state a partial file starts from and the length of the base
/// that says so: `fresh` behind this `(job, fingerprint)`'s header
/// record, or the snapshot a previous release left for it.
pub fn replay_base(
    bytes: &[u8],
    job: u64,
    fingerprint: u64,
    fresh: &SessionState,
) -> Option<(SessionState, usize)> {
    if bytes.starts_with(PARTIAL_MAGIC) {
        let (j, f, base, used) = SessionState::decode_prefix(bytes).ok()?;
        let ours = (j, f) == (job, fingerprint) && base.mem().len() == fresh.mem().len();
        return ours.then_some((base, used));
    }
    let mut scan = record::scan(bytes, MAX_CHUNK);
    let ours = scan.next()? == header_payload(job, fingerprint);
    ours.then(|| (fresh.clone(), scan.offset()))
}

/// Applies the intact chunk records `bytes` starts with to `state` and
/// returns their total length — so a caller holding a growing file can
/// continue from where the last call stopped. `None` means an intact
/// record did not continue the state, which is then part-applied and
/// must be discarded.
pub fn replay_chunks(
    state: &mut SessionState,
    bytes: &[u8],
    index: Option<&ChecksumIndex>,
) -> Option<usize> {
    let mut scan = record::scan(bytes, MAX_CHUNK);
    for chunk in scan.by_ref() {
        let (first, mut msgs) = chunk.split_first_chunk::<8>()?;
        if u64::from_be_bytes(*first) != state.applied() {
            return None;
        }
        while !msgs.is_empty() {
            // A logged `Full` applies as a `Full` with no page bytes.
            let msg = match msgs.split_at_checked(HEADER + PageDigest::LEN) {
                Some((logged, rest)) if logged[8..HEADER] == LANDED_FULL => {
                    msgs = rest;
                    WireMsg::Full {
                        idx: u64::from_be_bytes(logged[..8].try_into().expect("8")),
                        digest: PageDigest::new(logged[HEADER..].try_into().expect("16")),
                        page: Vec::new(),
                    }
                }
                _ => WireMsg::read_from(&mut msgs).ok()?,
            };
            state.apply(&msg, index).ok()?;
        }
    }
    Some(scan.offset())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;
    use crate::session_state::spec_fingerprint;
    use vecycle_sim::ScenarioSpec;

    const JOB: u64 = 4;

    fn dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("vecycle-plog-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// A cold spec, its fresh state and a stream touching every
    /// loggable variant.
    fn traffic() -> (u64, SessionState, Vec<WireMsg>) {
        let mut spec = ScenarioSpec::golden(0x106);
        spec.ram_mib = 1;
        spec.strategy = "dedup".into();
        spec.warm = false;
        let fresh = SessionState::fresh(&spec, &scenario::initial_memory(&spec).unwrap());
        let d = PageDigest::from_content_id;
        let mut msgs: Vec<WireMsg> = (0..70).map(|i| WireMsg::full_filler(i, d(i))).collect();
        msgs.push(WireMsg::DedupRef { idx: 70, source: 3 });
        msgs.push(WireMsg::Zero { idx: 71 });
        msgs.push(WireMsg::RoundEnd { round: 1 });
        msgs.push(WireMsg::full_filler(3, d(900)));
        msgs.push(WireMsg::StopEnd);
        (spec_fingerprint(&spec), fresh, msgs)
    }

    fn state_after(fresh: &SessionState, msgs: &[WireMsg]) -> SessionState {
        let mut st = fresh.clone();
        for msg in msgs {
            st.apply(msg, None).unwrap();
        }
        st
    }

    /// Logs `msgs` in chunks of `per` and returns the committed count.
    fn log_in_chunks(log: &mut PartialLog, msgs: &[WireMsg], per: usize) -> usize {
        let mut commits = 0;
        for chunk in msgs.chunks(per) {
            chunk.iter().for_each(|m| log.push(m));
            commits += usize::from(log.commit().unwrap());
        }
        commits
    }

    #[test]
    fn a_fresh_log_replays_to_the_streamed_state_and_stays_small() {
        let (fp, fresh, msgs) = traffic();
        let d = dir("fresh");
        let mut log = PartialLog::create(&d, JOB, fp).unwrap();
        assert_eq!(log_in_chunks(&mut log, &msgs, 16), 5);
        assert!(!log.commit().unwrap(), "an empty chunk writes nothing");
        let len = std::fs::metadata(partial_path(&d, JOB, fp)).unwrap().len();
        assert!(len < 3 * 1024, "72 full pages logged in {len} bytes");

        let (state, _) = PartialLog::load(&d, JOB, fp, &fresh, None).unwrap();
        assert_eq!(state, state_after(&fresh, &msgs));
        assert!(state.finished());
        // Someone else's file is no file.
        assert!(PartialLog::load(&d, JOB + 1, fp, &fresh, None).is_none());
        std::fs::rename(partial_path(&d, JOB, fp), partial_path(&d, JOB, fp ^ 1)).unwrap();
        assert!(PartialLog::load(&d, JOB, fp ^ 1, &fresh, None).is_none());
    }

    #[test]
    fn a_loaded_log_drops_its_torn_tail_and_keeps_appending() {
        let (fp, fresh, msgs) = traffic();
        let d = dir("append");
        let mut log = PartialLog::create(&d, JOB, fp).unwrap();
        log_in_chunks(&mut log, &msgs[..40], 16);
        drop(log);
        let path = partial_path(&d, JOB, fp);
        let clean = std::fs::metadata(&path).unwrap().len();
        let mut torn = OpenOptions::new().append(true).open(&path).unwrap();
        torn.write_all(&[0, 0, 0, 50, 9, 9, 9]).unwrap();
        drop(torn);

        let (state, mut log) = PartialLog::load(&d, JOB, fp, &fresh, None).unwrap();
        assert_eq!(state, state_after(&fresh, &msgs[..40]));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean);
        log_in_chunks(&mut log, &msgs[40..], 16);
        let (state, _) = PartialLog::load(&d, JOB, fp, &fresh, None).unwrap();
        assert_eq!(state, state_after(&fresh, &msgs));
    }

    #[test]
    fn an_intact_record_that_does_not_continue_the_state_condemns_the_file() {
        let (fp, fresh, msgs) = traffic();
        let mut base = Vec::new();
        record::push(&mut base, &header_payload(JOB, fp));
        let chunk = |first: u64, msgs: &[WireMsg]| {
            let mut buf = Vec::new();
            let mark = record::begin(&mut buf);
            buf.extend_from_slice(&first.to_be_bytes());
            msgs.iter().for_each(|m| m.encode(&mut buf));
            record::seal(&mut buf, mark);
            buf
        };
        let unsent = [base.clone(), chunk(0, &msgs[70..71])].concat();
        assert!(
            replay(&unsent, JOB, fp, &fresh, None).is_none(),
            "unsent ref"
        );
        let gap = [base.clone(), chunk(5, &msgs[..2])].concat();
        assert!(
            replay(&gap, JOB, fp, &fresh, None).is_none(),
            "position gap"
        );
        let junk = [base.clone(), chunk(0, &[]), vec![0xEE; 40]].concat();
        let (state, valid) = replay(&junk, JOB, fp, &fresh, None).expect("junk is a torn tail");
        assert_eq!((state, valid), (fresh.clone(), junk.len() - 40));
        // A real full page in a chunk is just a longer spelling.
        let spelled = [base, chunk(0, &msgs[..2])].concat();
        let (state, _) = replay(&spelled, JOB, fp, &fresh, None).unwrap();
        assert_eq!(state, state_after(&fresh, &msgs[..2]));
    }
}
