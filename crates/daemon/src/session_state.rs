//! The destination's reconstruction state.
//!
//! The apply logic lives here, not in `dest.rs`, so the tests, the fuzz
//! targets and the benchmark run the exact state machine a session
//! runs. Only the destination applies a stream; the source never
//! builds one of these. A `Full` reaches it already checked: the
//! decoder refuses a page that is not its digest's filler.
//!
//! Layout: each page's current digest, one *landed* bit a page, and,
//! from the first rewrite on, each page's *anchor*: the digest it
//! carried when first written (what a `DedupRef` naming it means, even
//! after a later round rewrote it). Until a page is rewritten its anchor
//! is its digest. [`SessionState::landed`] is what a retry recycles.
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
#[derive(Debug, Clone)]
pub struct SessionState {
    mem: Vec<PageDigest>,
    /// One bit a page, set once the stream has written it.
    landed_bits: Vec<u64>,
    /// Each page's first digest, kept from the first rewrite on (a copy
    /// of `mem` then); a stream that rewrites nothing never allocates it.
    firsts: Option<Vec<PageDigest>>,
    applied: u64,
    expected_round: u64,
    finished: bool,
}

impl SessionState {
    /// The pre-stream state: the warm checkpoint image, or all-zero
    /// pages for a cold start.
    pub fn fresh(spec: &ScenarioSpec, initial: &DigestMemory) -> SessionState {
        SessionState::new(spec, spec.warm.then(|| initial.snapshot()))
    }

    /// The pre-stream state: a warm spec's checkpoint `image` moved in
    /// as the pages, or all-zero pages for a cold one, which drops it.
    pub fn new(spec: &ScenarioSpec, image: Option<DigestMemory>) -> SessionState {
        let mem = match image.filter(|_| spec.warm) {
            Some(image) => image.into_digests(),
            None => vec![PageDigest::ZERO_PAGE; spec.pages() as usize],
        };
        SessionState {
            landed_bits: vec![0; mem.len().div_ceil(64)],
            firsts: None,
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
        let at = idx as usize;
        let (word, bit) = (at / 64, 1 << (at % 64));
        // First-wins per page index — mirrors the engine's
        // `sent.entry(digest).or_insert(idx)`: a back-reference means
        // "the content page `source` carried when it was first sent",
        // even if a later round rewrote that page.
        if self.landed_bits[word] & bit == 0 {
            self.landed_bits[word] |= bit;
            if let Some(firsts) = &mut self.firsts {
                firsts[at] = digest;
            }
        } else if self.firsts.is_none() && self.mem[at] != digest {
            // The first rewrite: every page still holds its first digest.
            self.firsts = Some(self.mem.clone());
        }
        self.mem[at] = digest;
        Ok(())
    }

    /// Each page's first digest: `mem` itself until a page is rewritten.
    fn firsts(&self) -> &[PageDigest] {
        self.firsts.as_deref().unwrap_or(&self.mem)
    }

    fn is_landed(&self, idx: usize) -> bool {
        self.landed_bits[idx / 64] >> (idx % 64) & 1 == 1
    }

    /// The digest page `idx` carried when first written, if it landed.
    fn anchor(&self, idx: u64) -> Option<PageDigest> {
        let at = usize::try_from(idx)
            .ok()
            .filter(|&at| at < self.mem.len())?;
        self.is_landed(at).then(|| self.firsts()[at])
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
                let digest = self.anchor(*source).ok_or_else(|| {
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
        let pages = self.mem.iter().enumerate();
        pages.filter_map(|(idx, digest)| self.is_landed(idx).then_some((idx as u64, *digest)))
    }

    /// The state (with its job/spec identity) as a snapshot: magic, job,
    /// fingerprint, the counters, the page count, each page's digest and
    /// landed flag, the dedup anchors ascending by page, then an FNV-1a
    /// 64 trailer over everything before it. Only the benchmark-only
    /// [`crate::compat`] writers call it.
    pub(crate) fn snapshot(&self, job: u64, fingerprint: u64) -> Vec<u8> {
        let mem = &self.mem;
        let mut buf = Vec::with_capacity(64 + mem.len() * (17 + 24));
        buf.extend_from_slice(PARTIAL_MAGIC);
        for field in [job, fingerprint, self.applied, self.expected_round] {
            buf.extend_from_slice(&field.to_be_bytes());
        }
        buf.push(u8::from(self.finished));
        buf.extend_from_slice(&(mem.len() as u64).to_be_bytes());
        for (idx, digest) in mem.iter().enumerate() {
            buf.extend_from_slice(digest.as_bytes());
            buf.push(u8::from(self.is_landed(idx)));
        }
        // The dedup anchors as `(page, first digest)`, ascending by page.
        let anchored = || {
            let pages = 0..mem.len() as u64;
            pages.filter_map(|idx| self.anchor(idx).map(|digest| (idx, digest)))
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

/// Equal states hold the same pages, landed bits, anchors and counters,
/// whether or not a stream has allocated its table of first digests.
impl PartialEq for SessionState {
    fn eq(&self, other: &SessionState) -> bool {
        let counters = |st: &SessionState| (st.applied, st.expected_round, st.finished);
        (self.mem == other.mem && self.landed_bits == other.landed_bits)
            && (self.firsts() == other.firsts() && counters(self) == counters(other))
    }
}

impl Eq for SessionState {}

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

    /// An apply outcome as the property compares it: ok, or the variant.
    fn outcome(result: Result<(), DaemonError>) -> Result<(), &'static str> {
        result.map_err(|e| match e {
            DaemonError::Corrupt(_) => "corrupt",
            DaemonError::Protocol(_) => "protocol",
            _ => "other",
        })
    }

    /// The dense layout the state replaced, as the reference: every
    /// page's digest and first digest, and the counters.
    #[derive(Clone, PartialEq)]
    struct Model {
        mem: Vec<PageDigest>,
        anchors: Vec<Option<PageDigest>>,
        applied: u64,
        expected_round: u64,
        finished: bool,
    }

    impl Model {
        fn apply(&mut self, msg: &WireMsg, ix: Option<&ChecksumIndex>) -> Result<(), &'static str> {
            if self.finished {
                return Err("protocol");
            }
            let write = match *msg {
                WireMsg::Full { idx, digest } => Some((idx, digest)),
                WireMsg::Checksum { idx, digest } => match ix {
                    None => return Err("protocol"),
                    Some(ix) if !ix.contains(digest) => return Err("corrupt"),
                    Some(_) => Some((idx, digest)),
                },
                WireMsg::DedupRef { idx, source } => {
                    let at = usize::try_from(source).ok();
                    let anchor = at.and_then(|at| self.anchors.get(at).copied().flatten());
                    Some((idx, anchor.ok_or("corrupt")?))
                }
                WireMsg::Zero { idx } => Some((idx, PageDigest::ZERO_PAGE)),
                WireMsg::RoundEnd { round } if round == self.expected_round => None,
                WireMsg::StopEnd if self.expected_round >= 2 => None,
                _ => return Err("protocol"),
            };
            match (write, msg) {
                (Some((idx, digest)), _) => {
                    let at = usize::try_from(idx).ok().filter(|&at| at < self.mem.len());
                    let at = at.ok_or("corrupt")?;
                    self.mem[at] = digest;
                    self.anchors[at].get_or_insert(digest);
                }
                (None, WireMsg::StopEnd) => self.finished = true,
                (None, _) => self.expected_round += 1,
            }
            self.applied += 1;
            Ok(())
        }
    }

    /// Against the dense model, after every message of seeded 1–3 round
    /// streams — full pages, checksums (a warm index), zero markers and
    /// refs to rewritten, unlanded and out-of-range pages over a few hot
    /// pages, so rewrites and rewrites back to the first digest recur —
    /// the state gives the same outcome, `mem()`, `landed()` and anchors,
    /// and eight streams over one base compare `==` exactly when their
    /// models do.
    #[test]
    fn the_state_matches_a_dense_model_message_by_message() {
        use vecycle_types::rng::{split, Xorshift};
        let d = PageDigest::from_content_id;
        let alphabet = [d(1), d(2), d(3), PageDigest::ZERO_PAGE];
        let spec = ScenarioSpec::golden(0x5e56);
        for case in 0..256 {
            let mut rng = Xorshift::new(split(1, case));
            let pages = [2, 3, 5, 70, 130][rng.below(5) as usize];
            let warm = rng.below(2) == 1;
            let base: Vec<PageDigest> = (0..pages)
                .map(|_| {
                    if warm {
                        alphabet[rng.below(4) as usize]
                    } else {
                        alphabet[3]
                    }
                })
                .collect();
            let index = (rng.below(4) > 0)
                .then(|| ChecksumIndex::from_pages(&alphabet[..rng.below(4) as usize]));
            let hot: Vec<u64> = (0..2 + rng.below(3)).map(|_| rng.below(pages)).collect();
            // `None` is a page message; every stream shares the rest.
            let mut slots = Vec::new();
            for round in 1..=1 + rng.below(3) {
                slots.extend((0..rng.below(7)).map(|_| None));
                match rng.below(8) {
                    0 => slots.push(Some(WireMsg::RoundEnd { round: round + 1 })),
                    1 => slots.push(Some(WireMsg::StopEnd)),
                    2 => slots.push(Some(WireMsg::BulkExchange { digests: vec![] })),
                    _ => {}
                }
                slots.push(Some(WireMsg::RoundEnd { round }));
            }
            slots.extend([Some(WireMsg::StopEnd), None]);

            let model = Model {
                mem: base.clone(),
                anchors: vec![None; pages as usize],
                applied: 0,
                expected_round: 1,
                finished: false,
            };
            let image = DigestMemory::from_digests(base);
            let mut runs = vec![(SessionState::new(&spec, Some(image)), model); 8];
            for slot in &slots {
                for (st, model) in &mut runs {
                    let page = |rng: &mut Xorshift| match rng.below(8) {
                        0 => pages + rng.below(2),
                        1 => rng.below(pages),
                        _ => hot[rng.below(hot.len() as u64) as usize],
                    };
                    let idx = page(&mut rng);
                    let digest = alphabet[rng.below(4) as usize];
                    #[allow(
                        clippy::or_fun_call,
                        reason = "the draw advances `rng` whether or not `slot` holds a message"
                    )]
                    let msg = slot.clone().unwrap_or(match rng.below(4) {
                        0 => WireMsg::Full { idx, digest },
                        1 => WireMsg::Checksum { idx, digest },
                        2 if rng.below(8) == 0 => WireMsg::DedupRef {
                            idx,
                            source: u64::MAX,
                        },
                        2 => WireMsg::DedupRef {
                            idx,
                            source: page(&mut rng),
                        },
                        _ => WireMsg::Zero { idx },
                    });
                    let want = model.apply(&msg, index.as_ref());
                    assert_eq!(outcome(st.apply(&msg, index.as_ref())), want, "{msg:?}");
                    assert_eq!(st.mem(), model.mem, "case {case}: {msg:?}");
                    let landed = (model.mem.iter().zip(&model.anchors).enumerate())
                        .filter_map(|(idx, (digest, a))| a.map(|_| (idx as u64, *digest)));
                    assert!(st.landed().eq(landed), "case {case}: {msg:?}");
                    let anchors = (0..pages + 2).map(|idx| st.anchor(idx));
                    let model_anchors = model.anchors.iter().copied().chain([None, None]);
                    assert!(anchors.eq(model_anchors), "case {case}: {msg:?}");
                    assert_eq!(
                        (st.applied(), st.finished()),
                        (model.applied, model.finished)
                    );
                }
                for (i, (a, model_a)) in runs.iter().enumerate() {
                    for (b, model_b) in &runs[..i] {
                        assert_eq!(a == b, model_a == model_b, "case {case}");
                    }
                }
            }
        }
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
