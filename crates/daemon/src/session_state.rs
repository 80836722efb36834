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
//! Layout: two dense per-page vectors — the current digest and the
//! *anchor*, the digest a page carried the first time it was written
//! (what a `DedupRef` naming it means, even after a later round rewrote
//! the page). A page has landed exactly when it has an anchor, so the
//! landed flags and page count the snapshot and the hash carry are
//! derived, not stored. Hashing and encoding walk the vectors in page
//! order — the anchor section's ascending order on disk — over the
//! same canonical bytes: the hash is FNV-1a 64 over what a snapshot
//! stores between its identity and its trailer.
//!
//! [`SessionState::encode`] / [`SessionState::decode`] are the
//! *snapshot* form of a state (`VECYPAR1`: the whole state, FNV-1a
//! trailer). The daemon only reads one, as the *base* of a partial log
//! ([`crate::partial_log`]), so a snapshot file an older daemon (or
//! [`save_partial`]) left behind still resumes.

use std::path::{Path, PathBuf};

use vecycle_checkpoint::{ChecksumIndex, PageLookup};
use vecycle_hash::{Fnv1a64, Hasher};
use vecycle_mem::DigestMemory;
use vecycle_net::wiremsg::is_filler;
use vecycle_net::WireMsg;
use vecycle_sim::ScenarioSpec;
use vecycle_types::PageDigest;

use crate::{proto, DaemonError};

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

/// Refuses a `Full` whose page bytes are not its digest's filler
/// ([`is_filler`]): the check every full page gets before it lands,
/// whether its bytes sit in the message or in the receiver's page buffer.
pub(crate) fn check_filler(idx: u64, page: &[u8], digest: &PageDigest) -> Result<(), DaemonError> {
    if is_filler(page, digest) {
        return Ok(());
    }
    Err(DaemonError::Corrupt(format!(
        "full page {idx} bytes do not match the digest filler"
    )))
}

/// The deterministic apply-state of one migration stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionState {
    mem: Vec<PageDigest>,
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
        let mem = if spec.warm {
            initial.snapshot().into_digests()
        } else {
            vec![PageDigest::ZERO_PAGE; spec.pages() as usize]
        };
        SessionState {
            anchors: vec![None; mem.len()],
            mem,
            applied: 0,
            expected_round: 1,
            finished: false,
        }
    }

    /// Messages applied so far (pages, round delimiters, everything).
    pub fn applied(&self) -> u64 {
        self.applied
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

    fn write(&mut self, idx: u64, digest: PageDigest) -> Result<(), DaemonError> {
        let pages = self.mem.len() as u64;
        if idx >= pages {
            return Err(DaemonError::Corrupt(format!(
                "page index {idx} beyond guest size {pages}"
            )));
        }
        self.mem[idx as usize] = digest;
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
                check_filler(*idx, page, digest)?;
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

    /// Hands `out` the state's canonical bytes: the counters, the page
    /// count, each page's digest and landed flag, then the dedup anchors
    /// ascending by page.
    fn canonical(&self, mut out: impl FnMut(&[u8])) {
        out(&self.applied.to_be_bytes());
        out(&self.expected_round.to_be_bytes());
        out(&[u8::from(self.finished)]);
        out(&(self.mem.len() as u64).to_be_bytes());
        for (digest, anchor) in self.mem.iter().zip(&self.anchors) {
            out(digest.as_bytes());
            out(&[u8::from(anchor.is_some())]);
        }
        out(&(self.anchors().count() as u64).to_be_bytes());
        for (idx, digest) in self.anchors() {
            out(&idx.to_be_bytes());
            out(digest.as_bytes());
        }
    }

    /// FNV-1a 64 over everything that determines future behavior: the
    /// canonical bytes — applied count, round cursor, finished flag,
    /// memory image, landed map and (ascending) dedup anchors. Two
    /// states with equal hashes apply any suffix identically.
    pub fn state_hash(&self) -> [u8; 8] {
        let mut fnv = Fnv1a64::new();
        self.canonical(|bytes| fnv.update(bytes));
        fnv.finalize()
    }

    /// Serializes the state (with its job/spec identity) into the
    /// partial-file format: magic, job, fingerprint, the canonical
    /// bytes, FNV-1a 64 trailer over everything before it.
    pub fn encode(&self, job: u64, fingerprint: u64) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.mem.len() * 17 + self.anchors.len() * 24);
        buf.extend_from_slice(PARTIAL_MAGIC);
        buf.extend_from_slice(&job.to_be_bytes());
        buf.extend_from_slice(&fingerprint.to_be_bytes());
        self.canonical(|bytes| buf.extend_from_slice(bytes));
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
        let u64_at = |off: usize| {
            let field = bytes.get(off..).and_then(|rest| rest.first_chunk::<8>());
            field.map(|field| u64::from_be_bytes(*field))
        };
        // Where `count` records of `each` bytes from `start` end.
        let end = |start: usize, count: u64, each: usize| {
            usize::try_from(count)
                .ok()?
                .checked_mul(each)?
                .checked_add(start)
        };
        let [job, fingerprint, applied, expected_round, pages] =
            [8, 16, 24, 32, 41].map(|off| u64_at(off).expect("within the checked length"));
        let per_page = PageDigest::LEN + 1;
        let anchors_count_off =
            end(MEM_OFF, pages, per_page).ok_or_else(|| fail("page count overflows"))?;
        let anchor_count =
            u64_at(anchors_count_off).ok_or_else(|| fail("memory section truncated"))?;
        let anchors_off = anchors_count_off + 8;
        let body_len =
            end(anchors_off, anchor_count, 24).ok_or_else(|| fail("anchor count overflows"))?;
        let trailer = u64_at(body_len).ok_or_else(|| fail("anchor section truncated"))?;
        let body = &bytes[..body_len];
        let mut fnv = Fnv1a64::new();
        fnv.update(body);
        if u64::from_be_bytes(fnv.finalize()) != trailer {
            return Err(fail("trailer checksum mismatch"));
        }

        let finished = proto::flag(body[40], "partial state: finished")?;
        let mut mem = Vec::with_capacity(pages as usize);
        for page in body[MEM_OFF..anchors_count_off].chunks_exact(per_page) {
            let digest: [u8; 16] = page[..16].try_into().expect("16");
            mem.push(PageDigest::new(digest));
            // Landed is derived from the anchors; the byte is still
            // checked, so the file accepts what it always did.
            proto::flag(page[16], "partial state: landed")?;
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
        let state = SessionState {
            mem,
            anchors,
            applied,
            expected_round,
            finished,
        };
        Ok((job, fingerprint, state, body_len + 8))
    }
}

/// The partial file path for `(job, fingerprint)` under `dir`.
pub fn partial_path(dir: &Path, job: u64, fingerprint: u64) -> PathBuf {
    dir.join(format!("partial-job{job}-{fingerprint:016x}.bin"))
}

/// Writes `state` as a snapshot file via write-tmp→rename; the running
/// daemon appends to a [`crate::partial_log`] instead. No fsync: a torn
/// file fails its trailer on load and the transfer starts fresh.
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
    std::fs::write(&tmp, state.encode(job, fingerprint))?;
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
    use vecycle_checkpoint::Checkpoint;
    use vecycle_types::{SimTime, VmId};

    /// A 1 MiB stream that rewrites page 3 in round 2, with references
    /// to it before and after the rewrite, over a cold or a warm base
    /// (the warm one also lands a checksum hit).
    fn rewritten(warm: bool) -> (ScenarioSpec, SessionState) {
        let mut spec = ScenarioSpec::golden(0x5e56);
        (spec.ram_mib, spec.warm) = (1, warm);
        let initial = scenario::initial_memory(&spec).unwrap();
        let index = Checkpoint::capture(VmId::new(spec.vm), SimTime::EPOCH, &initial).build_index();
        let d = PageDigest::from_content_id;
        let mut msgs: Vec<WireMsg> = (0..8).map(|i| WireMsg::full_filler(i, d(i))).collect();
        msgs.push(WireMsg::DedupRef { idx: 20, source: 3 });
        if warm {
            let digest = initial.snapshot().into_digests()[40];
            msgs.push(WireMsg::Checksum { idx: 9, digest });
        }
        msgs.extend([
            WireMsg::Zero { idx: 10 },
            WireMsg::RoundEnd { round: 1 },
            WireMsg::full_filler(3, d(300)),
            WireMsg::DedupRef { idx: 21, source: 3 },
            WireMsg::RoundEnd { round: 2 },
            WireMsg::full_filler(5, d(500)),
            WireMsg::StopEnd,
        ]);
        let mut st = SessionState::fresh(&spec, &initial);
        for msg in &msgs {
            st.apply(msg, Some(&index)).unwrap();
        }
        (spec, st)
    }

    /// The state hash and the snapshot bytes are a wire and disk
    /// contract: pinned as literals so a layout change cannot move them.
    #[test]
    fn state_hash_and_snapshot_bytes_are_pinned() {
        for (warm, hash, file) in [
            (false, 0xd925_fc5a_3b04_3665, 0x73cc_85ff_4f92_b143),
            (true, 0x6495_2124_b4a6_47e2, 0x2c5c_1fc5_6854_a161),
        ] {
            let (spec, st) = rewritten(warm);
            assert_eq!(st.mem()[21], PageDigest::from_content_id(3), "first wins");
            let mut fnv = Fnv1a64::new();
            fnv.update(&st.encode(7, spec_fingerprint(&spec)));
            let got = [st.state_hash(), fnv.finalize()].map(u64::from_be_bytes);
            assert_eq!(got, [hash, file], "warm={warm}: {got:#018x?}");
        }
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let (spec, st) = rewritten(true);
        let fp = spec_fingerprint(&spec);
        let bytes = st.encode(9, fp);
        let (job, f, back) = SessionState::decode(&bytes).unwrap();
        assert_eq!((job, f), (9, fp));
        assert_eq!(back, st);
        assert_eq!(back.state_hash(), st.state_hash());
    }

    #[test]
    fn any_single_byte_flip_is_rejected() {
        let (spec, st) = rewritten(false);
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
        let (spec, st) = rewritten(false);
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
        let (spec, st) = rewritten(false);
        let mut bytes = st.encode(3, spec_fingerprint(&spec));
        let len = bytes.len();
        bytes.extend_from_slice(b"a log continues here");
        let (job, _, back, used) = SessionState::decode_prefix(&bytes).unwrap();
        assert_eq!((job, used), (3, len));
        assert_eq!(back, st);
        assert!(SessionState::decode(&bytes).is_err(), "decode wants it all");
        // A forged count is checked against the bytes, not trusted: the
        // page count, and the count of the 11 anchors.
        for off in [41, len - 8 - 11 * 24 - 8] {
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
    fn spec_fingerprint_tracks_the_spec() {
        let a = ScenarioSpec::golden(1);
        let mut b = ScenarioSpec::golden(1);
        assert_eq!(spec_fingerprint(&a), spec_fingerprint(&b));
        b.ram_mib += 1;
        assert_ne!(spec_fingerprint(&a), spec_fingerprint(&b));
    }
}
