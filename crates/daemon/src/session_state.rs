//! The destination's reconstruction state.
//!
//! The apply logic lives here, not in `dest.rs`, so the tests, the fuzz
//! targets and the benchmark run the exact state machine a session
//! runs. Only the destination applies a stream; the source never
//! builds one of these. A `Full` reaches it already checked: the
//! decoder refuses a page that is not its digest's filler.
//!
//! Layout: two dense per-page vectors — the current digest and the
//! *anchor*, the digest a page carried the first time it was written
//! (what a `DedupRef` naming it means, even after a later round rewrote
//! the page). A page has landed exactly when it has an anchor, so the
//! landed flags and page count a snapshot carries are derived, not
//! stored, and [`SessionState::landed`] is what a retry recycles.
//!
//! A *snapshot* is the whole state in one file (`VECYPAR1`, FNV-1a
//! trailer), which older daemons wrote. Only the benchmark still writes
//! one ([`crate::compat`]), and nothing reads one: at a job's partial
//! path it is no file ([`crate::partial_log`]).

use std::path::{Path, PathBuf};

use vecycle_checkpoint::ChecksumIndex;
use vecycle_hash::{Fnv1a64, Hasher};
use vecycle_mem::DigestMemory;
use vecycle_net::WireMsg;
use vecycle_sim::ScenarioSpec;
use vecycle_types::PageDigest;

#[allow(deprecated)]
pub use crate::compat::save_partial;
use crate::DaemonError;

/// Magic prefix of a state snapshot: vecycled partial, format 1.
const PARTIAL_MAGIC: &[u8; 8] = b"VECYPAR1";

/// A stable fingerprint of a scenario (FNV-1a 64 over its key-value
/// form) — partial files are keyed by `(job, fingerprint)` so a resume
/// for a different spec can never pick up the wrong state.
pub fn spec_fingerprint(spec: &ScenarioSpec) -> u64 {
    let mut fnv = Fnv1a64::new();
    fnv.update(spec.to_kv().as_bytes());
    u64::from_be_bytes(fnv.finalize())
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

    /// Applies one data-plane message.
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
            WireMsg::Full { idx, digest } => self.write(*idx, *digest)?,
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

    /// The pages this stream wrote as `(page, digest it holds now)`,
    /// ascending by page: what the destination keeps for a retry.
    pub fn landed(&self) -> impl Iterator<Item = (u64, PageDigest)> + '_ {
        let pages = self.mem.iter().zip(&self.anchors).enumerate();
        pages.filter_map(|(idx, (digest, a))| a.map(|_| (idx as u64, *digest)))
    }

    /// The state (with its job/spec identity) as a snapshot: magic, job,
    /// fingerprint, the counters, the page count, each page's digest and
    /// landed flag, the dedup anchors ascending by page, then an FNV-1a
    /// 64 trailer over everything before it. Only the benchmark-only
    /// [`crate::compat`] writers call it.
    pub(crate) fn snapshot(&self, job: u64, fingerprint: u64) -> Vec<u8> {
        let (mem, anchors) = (&self.mem, &self.anchors);
        let mut buf = Vec::with_capacity(64 + mem.len() * 17 + anchors.len() * 24);
        buf.extend_from_slice(PARTIAL_MAGIC);
        for field in [job, fingerprint, self.applied, self.expected_round] {
            buf.extend_from_slice(&field.to_be_bytes());
        }
        buf.push(u8::from(self.finished));
        buf.extend_from_slice(&(mem.len() as u64).to_be_bytes());
        for (digest, anchor) in mem.iter().zip(anchors) {
            buf.extend_from_slice(digest.as_bytes());
            buf.push(u8::from(anchor.is_some()));
        }
        // The dedup anchors as `(page, first digest)`, ascending by page.
        let anchored = || {
            let pages = anchors.iter().enumerate();
            pages.filter_map(|(idx, a)| a.map(|digest| (idx as u64, digest)))
        };
        buf.extend_from_slice(&(anchored().count() as u64).to_be_bytes());
        for (idx, digest) in anchored() {
            buf.extend_from_slice(&idx.to_be_bytes());
            buf.extend_from_slice(digest.as_bytes());
        }
        let mut fnv = Fnv1a64::new();
        fnv.update(&buf);
        let trailer = fnv.finalize();
        buf.extend_from_slice(&trailer);
        buf
    }
}

/// The partial file path for `(job, fingerprint)` under `dir`.
pub fn partial_path(dir: &Path, job: u64, fingerprint: u64) -> PathBuf {
    dir.join(format!("partial-job{job}-{fingerprint:016x}.bin"))
}

/// Removes a partial file (job finished or state invalidated).
pub fn drop_partial(dir: &Path, job: u64, fingerprint: u64) {
    let _ = std::fs::remove_file(partial_path(dir, job, fingerprint));
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::scenario;
    use vecycle_checkpoint::Checkpoint;
    use vecycle_types::{SimTime, VmId};

    /// A 1 MiB stream that rewrites page 3 in round 2, with references
    /// to it before and after the rewrite, over a cold or a warm base
    /// (the warm one also lands a checksum hit).
    pub(crate) fn rewritten(warm: bool) -> (ScenarioSpec, SessionState) {
        let mut spec = ScenarioSpec::golden(0x5e56);
        (spec.ram_mib, spec.warm) = (1, warm);
        let initial = scenario::initial_memory(&spec).unwrap();
        let index = Checkpoint::capture(VmId::new(spec.vm), SimTime::EPOCH, &initial).build_index();
        let d = PageDigest::from_content_id;
        let full = |idx, digest| WireMsg::Full { idx, digest };
        let mut msgs: Vec<WireMsg> = (0..8).map(|i| full(i, d(i))).collect();
        msgs.push(WireMsg::DedupRef { idx: 20, source: 3 });
        if warm {
            let digest = initial.snapshot().into_digests()[40];
            msgs.push(WireMsg::Checksum { idx: 9, digest });
        }
        msgs.extend([
            WireMsg::Zero { idx: 10 },
            WireMsg::RoundEnd { round: 1 },
            full(3, d(300)),
            WireMsg::DedupRef { idx: 21, source: 3 },
            WireMsg::RoundEnd { round: 2 },
            full(5, d(500)),
            WireMsg::StopEnd,
        ]);
        let mut st = SessionState::fresh(&spec, &initial);
        for msg in &msgs {
            st.apply(msg, Some(&index)).unwrap();
        }
        (spec, st)
    }

    /// A page lands once the stream writes it, with what it holds last;
    /// the warm base's pages the stream never wrote do not land.
    #[test]
    fn landed_is_every_written_page_as_it_ends() {
        let (_, st) = rewritten(true);
        let d = PageDigest::from_content_id;
        let landed: Vec<(u64, PageDigest)> = st.landed().collect();
        let pages: Vec<u64> = landed.iter().map(|&(idx, _)| idx).collect();
        assert_eq!(pages, [0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 20, 21]);
        assert_eq!(landed[3], (3, d(300)), "the rewrite wins");
        assert_eq!(landed[5], (5, d(500)));
        assert_eq!(landed[9], (10, PageDigest::ZERO_PAGE));
        assert_eq!(landed[10..], [(20, d(3)), (21, d(3))]);
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
