//! The destination's reconstruction state, shared with the source's
//! resume verifier, plus its snapshot (upgrade-format) codec.
//!
//! The apply logic lives here, not in `dest.rs`, so that the *source*
//! can run the exact same state machine over the prefix of its
//! regenerated stream during the resume handshake. The two sides then
//! compare [`SessionState::state_hash`] — equal hashes mean the
//! destination's landed prefix is exactly the first `applied` messages
//! of the deterministic stream, so the source can skip them.
//!
//! Layout: three dense per-page vectors — the current digest, the
//! landed flag, and the *anchor*, the digest a page carried the first
//! time it was written (what a `DedupRef` naming it means, even after
//! a later round rewrote the page). Applying a message is indexed
//! stores; hashing and encoding walk the vectors in page order, which
//! is the anchor section's ascending order on disk. The file format
//! and the state hash are those of the hash-map layout this replaced,
//! byte for byte.
//!
//! [`SessionState::encode`] / [`SessionState::decode`] are the
//! *snapshot* form of a state (`VECYPAR1`: the whole state, FNV-1a
//! trailer) — what the previous release's daemon rewrote at every
//! persistence boundary. The running daemon no longer writes it: the
//! `partial-job<id>-<fingerprint>.bin` file is now an append-only log
//! of the validated messages ([`crate::partial_log`]), and a snapshot
//! is read only as the *base* of such a log, so a file a previous
//! release (or a test, through [`save_partial`]) left behind still
//! resumes.

use std::io::Write;
use std::path::{Path, PathBuf};

use vecycle_checkpoint::{ChecksumIndex, PageLookup};
use vecycle_hash::{Fnv1a64, Hasher};
use vecycle_mem::DigestMemory;
use vecycle_net::WireMsg;
use vecycle_sim::ScenarioSpec;
use vecycle_types::PageDigest;

use crate::DaemonError;

/// Magic prefix of a state snapshot: vecycled partial, format 1.
pub const PARTIAL_MAGIC: &[u8; 8] = b"VECYPAR1";

/// A stable fingerprint of a scenario (FNV-1a 64 over its key-value
/// form) — partial files are keyed by `(job, fingerprint)` so a resume
/// for a different spec can never pick up the wrong state.
pub fn spec_fingerprint(spec: &ScenarioSpec) -> u64 {
    let mut fnv = Fnv1a64::new();
    fnv.update(spec.to_kv().as_bytes());
    u64::from_be_bytes(fnv.finalize())
}

/// Whether `page` is `digest` repeated end to end — the digest-level
/// stand-in for page bytes. Two block compares (the head is the digest,
/// and the page equals itself shifted by one digest) rather than one
/// per 16 bytes: a resume replays every logged full page through it.
fn is_filler(page: &[u8], digest: &PageDigest) -> bool {
    let d = digest.as_bytes();
    page.is_empty()
        || (page.len().is_multiple_of(d.len())
            && page.starts_with(d)
            && page[d.len()..] == page[..page.len() - d.len()])
}

/// The deterministic apply-state of one migration stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionState {
    pages: u64,
    mem: Vec<PageDigest>,
    landed: Vec<bool>,
    /// Per page, the digest it carried the *first* time it was written
    /// — what a `DedupRef` naming it resolves to. Dense, so applying a
    /// message is an indexed store and the persisted (ascending) anchor
    /// section is a plain walk.
    anchors: Vec<Option<PageDigest>>,
    applied: u64,
    expected_round: u64,
    finished: bool,
}

impl SessionState {
    /// The pre-stream state: the warm checkpoint image, or all-zero
    /// pages for a cold start.
    pub fn fresh(spec: &ScenarioSpec, initial: &DigestMemory) -> SessionState {
        let pages = spec.pages();
        let mem = if spec.warm {
            initial.snapshot().into_digests()
        } else {
            vec![PageDigest::ZERO_PAGE; pages as usize]
        };
        SessionState {
            pages,
            mem,
            landed: vec![false; pages as usize],
            anchors: vec![None; pages as usize],
            applied: 0,
            expected_round: 1,
            finished: false,
        }
    }

    /// Messages applied so far (pages, round delimiters, everything).
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// The next round delimiter this state expects.
    pub fn expected_round(&self) -> u64 {
        self.expected_round
    }

    /// Whether the stop-and-copy delimiter has been applied — the
    /// stream is complete and only the COMPLETE/DONE exchange remains.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// The reconstructed digests (content-hash input).
    pub fn mem(&self) -> &[PageDigest] {
        &self.mem
    }

    /// Distinct pages written so far — what a resume announces as landed.
    pub fn landed_pages(&self) -> u64 {
        self.landed.iter().filter(|&&l| l).count() as u64
    }

    fn write(&mut self, idx: u64, digest: PageDigest) -> Result<(), DaemonError> {
        if idx >= self.pages {
            return Err(DaemonError::Corrupt(format!(
                "page index {idx} beyond guest size {}",
                self.pages
            )));
        }
        self.mem[idx as usize] = digest;
        self.landed[idx as usize] = true;
        // First-wins per page index — mirrors the engine's
        // `sent.entry(digest).or_insert(idx)`: a back-reference means
        // "the content page `source` carried when it was first sent",
        // even if a later round rewrote that page.
        self.anchors[idx as usize].get_or_insert(digest);
        Ok(())
    }

    /// Applies one data-plane message. Identical on the destination
    /// (live stream) and the source (resume-prefix simulation).
    ///
    /// # Errors
    ///
    /// [`DaemonError::Corrupt`] on a payload that fails validation,
    /// [`DaemonError::Protocol`] on a message out of order.
    pub fn apply(
        &mut self,
        msg: &WireMsg,
        index: Option<&ChecksumIndex>,
    ) -> Result<(), DaemonError> {
        if self.finished {
            return Err(DaemonError::Protocol(
                "data message after the stop-and-copy delimiter".into(),
            ));
        }
        match msg {
            WireMsg::Full { idx, digest, page } => {
                if !is_filler(page, digest) {
                    return Err(DaemonError::Corrupt(format!(
                        "full page {idx} bytes do not match the digest filler"
                    )));
                }
                self.write(*idx, *digest)?;
            }
            WireMsg::Checksum { idx, digest } => {
                let ix = index.ok_or_else(|| {
                    DaemonError::Protocol("checksum message without a checkpoint".into())
                })?;
                if !ix.contains(*digest) {
                    return Err(DaemonError::Corrupt(format!(
                        "checksum for page {idx} references content this side lacks"
                    )));
                }
                self.write(*idx, *digest)?;
            }
            WireMsg::DedupRef { idx, source } => {
                let anchor = usize::try_from(*source)
                    .ok()
                    .and_then(|s| self.anchors.get(s).copied().flatten());
                let digest = anchor.ok_or_else(|| {
                    DaemonError::Corrupt(format!(
                        "dedup ref for page {idx} names unsent page {source}"
                    ))
                })?;
                self.write(*idx, digest)?;
            }
            WireMsg::Zero { idx } => self.write(*idx, PageDigest::ZERO_PAGE)?,
            WireMsg::RoundEnd { round } => {
                if *round != self.expected_round {
                    return Err(DaemonError::Protocol(format!(
                        "round delimiter {round} out of order, expected {}",
                        self.expected_round
                    )));
                }
                self.expected_round += 1;
            }
            WireMsg::StopEnd => {
                if self.expected_round < 2 {
                    return Err(DaemonError::Protocol(
                        "stop-and-copy delimiter before any pre-copy round".into(),
                    ));
                }
                self.finished = true;
            }
            WireMsg::BulkExchange { .. } => {
                return Err(DaemonError::Protocol(
                    "bulk exchange is destination-to-source only".into(),
                ));
            }
        }
        self.applied += 1;
        Ok(())
    }

    /// The dedup anchors as `(page, first digest)`, ascending by page.
    fn anchors(&self) -> impl Iterator<Item = (u64, PageDigest)> + '_ {
        self.anchors
            .iter()
            .enumerate()
            .filter_map(|(idx, a)| a.map(|digest| (idx as u64, digest)))
    }

    /// FNV-1a 64 over everything that determines future behavior: the
    /// counters, the memory image, the landed map and the (ascending)
    /// dedup anchors. Two states with equal hashes apply any suffix
    /// identically.
    pub fn state_hash(&self) -> [u8; 8] {
        let mut fnv = Fnv1a64::new();
        fnv.update(&self.applied.to_be_bytes());
        fnv.update(&self.expected_round.to_be_bytes());
        fnv.update(&[u8::from(self.finished)]);
        fnv.update(&self.pages.to_be_bytes());
        for (digest, landed) in self.mem.iter().zip(&self.landed) {
            fnv.update(digest.as_bytes());
            fnv.update(&[u8::from(*landed)]);
        }
        fnv.update(&(self.anchors().count() as u64).to_be_bytes());
        for (idx, digest) in self.anchors() {
            fnv.update(&idx.to_be_bytes());
            fnv.update(digest.as_bytes());
        }
        fnv.finalize()
    }

    /// Serializes the state (with its job/spec identity) into the
    /// partial-file format: magic, header, memory, landed map, anchors
    /// ascending by page, FNV-1a 64 trailer over everything before it.
    pub fn encode(&self, job: u64, fingerprint: u64) -> Vec<u8> {
        let anchor_count = self.anchors().count();
        let mut buf = Vec::with_capacity(64 + self.mem.len() * 17 + anchor_count * 24);
        buf.extend_from_slice(PARTIAL_MAGIC);
        buf.extend_from_slice(&job.to_be_bytes());
        buf.extend_from_slice(&fingerprint.to_be_bytes());
        buf.extend_from_slice(&self.applied.to_be_bytes());
        buf.extend_from_slice(&self.expected_round.to_be_bytes());
        buf.push(u8::from(self.finished));
        buf.extend_from_slice(&self.pages.to_be_bytes());
        for (digest, landed) in self.mem.iter().zip(&self.landed) {
            buf.extend_from_slice(digest.as_bytes());
            buf.push(u8::from(*landed));
        }
        buf.extend_from_slice(&(anchor_count as u64).to_be_bytes());
        for (idx, digest) in self.anchors() {
            buf.extend_from_slice(&idx.to_be_bytes());
            buf.extend_from_slice(digest.as_bytes());
        }
        let mut fnv = Fnv1a64::new();
        fnv.update(&buf);
        let trailer = fnv.finalize();
        buf.extend_from_slice(&trailer);
        buf
    }

    /// Decodes a snapshot, returning `(job, fingerprint, state)`.
    /// Every length is validated before use, and the trailer checksum
    /// must match — a torn or tampered file is a typed error, never a
    /// panic or over-allocation.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Corrupt`] on any structural or checksum failure,
    /// bytes after the trailer included.
    pub fn decode(bytes: &[u8]) -> Result<(u64, u64, SessionState), DaemonError> {
        let (job, fingerprint, state, used) = SessionState::decode_prefix(bytes)?;
        if used != bytes.len() {
            return Err(DaemonError::Corrupt(
                "partial state: bytes after the trailer".into(),
            ));
        }
        Ok((job, fingerprint, state))
    }

    /// Decodes the snapshot `bytes` *starts with*, returning its length
    /// as well — the snapshot declares its own size (page and anchor
    /// counts), which is what lets a partial log continue behind it.
    /// The declared size is checked against `bytes` and the trailer
    /// verified before anything is allocated.
    ///
    /// # Errors
    ///
    /// As [`SessionState::decode`], except that trailing bytes are the
    /// caller's.
    pub fn decode_prefix(bytes: &[u8]) -> Result<(u64, u64, SessionState, usize), DaemonError> {
        let fail = |what: &str| DaemonError::Corrupt(format!("partial state: {what}"));
        const MEM_OFF: usize = 8 + 8 + 8 + 8 + 8 + 1 + 8;
        if bytes.len() < MEM_OFF + 8 + 8 {
            return Err(fail("file too short"));
        }
        if &bytes[0..8] != PARTIAL_MAGIC {
            return Err(fail("bad magic"));
        }
        let u64_at = |off: usize| u64::from_be_bytes(bytes[off..off + 8].try_into().expect("8"));
        let section = |count: u64, each: usize, what: &str| {
            usize::try_from(count)
                .ok()
                .and_then(|n| n.checked_mul(each))
                .ok_or_else(|| fail(&format!("{what} count overflows")))
        };
        let pages = u64_at(41);
        let per_page = PageDigest::LEN + 1;
        let anchors_count_off = section(pages, per_page, "page")?
            .checked_add(MEM_OFF)
            .ok_or_else(|| fail("memory section overflows"))?;
        if bytes.len() - 8 < anchors_count_off {
            return Err(fail("memory section truncated"));
        }
        let anchor_count = u64_at(anchors_count_off);
        let anchors_off = anchors_count_off + 8;
        let body_len = section(anchor_count, 24, "anchor")?
            .checked_add(anchors_off)
            .ok_or_else(|| fail("anchor section overflows"))?;
        let Some(trailer) = bytes.get(body_len..).and_then(|t| t.first_chunk::<8>()) else {
            return Err(fail("anchor section truncated"));
        };
        let body = &bytes[..body_len];
        let mut fnv = Fnv1a64::new();
        fnv.update(body);
        if fnv.finalize() != *trailer {
            return Err(fail("trailer checksum mismatch"));
        }

        let flag = |byte: u8, what: &str| match byte {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(fail(&format!("{what} flag {b}"))),
        };
        let job = u64_at(8);
        let fingerprint = u64_at(16);
        let applied = u64_at(24);
        let expected_round = u64_at(32);
        let finished = flag(body[40], "finished")?;
        let mut mem = Vec::with_capacity(pages as usize);
        let mut landed = Vec::with_capacity(pages as usize);
        for page in body[MEM_OFF..anchors_count_off].chunks_exact(per_page) {
            let digest: [u8; 16] = page[..16].try_into().expect("16");
            mem.push(PageDigest::new(digest));
            landed.push(flag(page[16], "landed")?);
        }
        let mut anchors = vec![None; pages as usize];
        for anchor in body[anchors_off..].chunks_exact(24) {
            let idx = u64::from_be_bytes(anchor[..8].try_into().expect("8"));
            if idx >= pages {
                return Err(fail(&format!("anchor index {idx} beyond {pages} pages")));
            }
            let digest: [u8; 16] = anchor[8..].try_into().expect("16");
            anchors[idx as usize] = Some(PageDigest::new(digest));
        }
        Ok((
            job,
            fingerprint,
            SessionState {
                pages,
                mem,
                landed,
                anchors,
                applied,
                expected_round,
                finished,
            },
            body_len + 8,
        ))
    }
}

/// The partial file path for `(job, fingerprint)` under `dir`.
pub fn partial_path(dir: &Path, job: u64, fingerprint: u64) -> PathBuf {
    dir.join(format!("partial-job{job}-{fingerprint:016x}.bin"))
}

/// Writes `state` as a snapshot file via write-tmp→rename — the
/// previous release's persistence step, kept as the upgrade format's
/// writer: tests and the benchmark's staged replay hand-persist
/// partials with it, the running daemon appends to a
/// [`crate::partial_log`] instead. No fsync: a torn file is detected by
/// the trailer on load and simply falls back to a fresh transfer.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_partial(
    dir: &Path,
    job: u64,
    fingerprint: u64,
    state: &SessionState,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = partial_path(dir, job, fingerprint);
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&state.encode(job, fingerprint))?;
    }
    std::fs::rename(&tmp, &path)
}

/// Removes a partial file (job finished or state invalidated).
pub fn drop_partial(dir: &Path, job: u64, fingerprint: u64) {
    let _ = std::fs::remove_file(partial_path(dir, job, fingerprint));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

    fn state_with_traffic() -> (ScenarioSpec, SessionState) {
        let spec = ScenarioSpec::golden(0x5e55);
        let initial = scenario::initial_memory(&spec).unwrap();
        let mut st = SessionState::fresh(&spec, &initial);
        for i in 0..40u64 {
            st.apply(
                &WireMsg::full_filler(i, PageDigest::from_content_id(i)),
                None,
            )
            .unwrap();
        }
        st.apply(&WireMsg::DedupRef { idx: 40, source: 3 }, None)
            .unwrap();
        st.apply(&WireMsg::Zero { idx: 41 }, None).unwrap();
        st.apply(&WireMsg::RoundEnd { round: 1 }, None).unwrap();
        (spec, st)
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let (spec, st) = state_with_traffic();
        let fp = spec_fingerprint(&spec);
        let bytes = st.encode(9, fp);
        let (job, f, back) = SessionState::decode(&bytes).unwrap();
        assert_eq!((job, f), (9, fp));
        assert_eq!(back, st);
        assert_eq!(back.state_hash(), st.state_hash());
    }

    #[test]
    fn any_single_byte_flip_is_rejected() {
        let (spec, st) = state_with_traffic();
        let bytes = st.encode(1, spec_fingerprint(&spec));
        for pos in [0, 8, 24, 40, 49, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x5A;
            assert!(
                SessionState::decode(&bad).is_err(),
                "flip at {pos} must fail decode"
            );
        }
        for cut in [0, 10, bytes.len() - 1] {
            assert!(SessionState::decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn save_load_drop_partial_lifecycle() {
        use crate::partial_log::PartialLog;
        let dir = std::env::temp_dir().join(format!("vecycle-partial-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (spec, st) = state_with_traffic();
        let fp = spec_fingerprint(&spec);
        let fresh = SessionState::fresh(&spec, &scenario::initial_memory(&spec).unwrap());
        let load = |job, fp| PartialLog::load(&dir, job, fp, &fresh, None).map(|(st, _)| st);
        assert!(load(5, fp).is_none());
        save_partial(&dir, 5, fp, &st).unwrap();
        assert_eq!(load(5, fp).unwrap(), st);
        // Wrong identity never matches.
        assert!(load(6, fp).is_none());
        assert!(load(5, fp ^ 1).is_none());
        drop_partial(&dir, 5, fp);
        assert!(load(5, fp).is_none());
    }

    #[test]
    fn decode_prefix_reports_the_snapshot_length_and_ignores_what_follows() {
        let (spec, st) = state_with_traffic();
        let mut bytes = st.encode(3, spec_fingerprint(&spec));
        let len = bytes.len();
        bytes.extend_from_slice(b"a log continues here");
        let (job, _, back, used) = SessionState::decode_prefix(&bytes).unwrap();
        assert_eq!((job, used), (3, len));
        assert_eq!(back, st);
        assert!(SessionState::decode(&bytes).is_err(), "decode wants it all");
        // A forged count is checked against the bytes, not trusted.
        for off in [41, len - 8 - 42 * 24 - 8] {
            let mut forged = bytes.clone();
            forged[off..off + 8].copy_from_slice(&(u64::MAX / 2).to_be_bytes());
            assert!(
                SessionState::decode_prefix(&forged).is_err(),
                "count at {off}"
            );
        }
    }

    #[test]
    fn hash_covers_anchors_not_just_memory() {
        // Two states with identical memory but different first-wins
        // anchors must hash differently — they would apply a future
        // DedupRef differently.
        let spec = ScenarioSpec::golden(1);
        let initial = scenario::initial_memory(&spec).unwrap();
        let a_digest = PageDigest::from_content_id(7);
        let b_digest = PageDigest::from_content_id(8);
        let mut a = SessionState::fresh(&spec, &initial);
        a.apply(&WireMsg::full_filler(0, a_digest), None).unwrap();
        a.apply(&WireMsg::full_filler(0, b_digest), None).unwrap();
        let mut b = SessionState::fresh(&spec, &initial);
        b.apply(&WireMsg::full_filler(0, b_digest), None).unwrap();
        b.apply(&WireMsg::full_filler(0, b_digest), None).unwrap();
        assert_eq!(a.mem(), b.mem());
        assert_ne!(a.state_hash(), b.state_hash());
    }

    #[test]
    fn partial_checkpoint_counts_only_landed_pages() {
        let (_, st) = state_with_traffic();
        // 40 full + 1 dedup + 1 zero distinct page writes.
        assert_eq!(st.landed_pages(), 42);
    }

    #[test]
    fn spec_fingerprint_tracks_the_spec() {
        let a = ScenarioSpec::golden(1);
        let mut b = ScenarioSpec::golden(1);
        assert_eq!(spec_fingerprint(&a), spec_fingerprint(&b));
        b.ram_mib += 1;
        assert_ne!(spec_fingerprint(&a), spec_fingerprint(&b));
    }
}
