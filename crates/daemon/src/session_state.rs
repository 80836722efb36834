//! The destination's reconstruction state, the exact state machine a
//! session, the tests, the fuzz targets and the benchmark run: it checks
//! the stream's framing (round order, the stop-and-copy delimiter, no
//! bulk exchange inward, no checksum without an offered index), counts,
//! and hands each page message to a digest [`Merge`]. What a retry
//! recycles is [`SessionState::landed`]. Only the benchmark still writes
//! the state's `VECYPAR1` snapshot (its `compat` module), which older
//! daemons wrote; nothing reads one.

use std::path::{Path, PathBuf};

use vecycle_checkpoint::ChecksumIndex;
use vecycle_core::Merge;
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
#[derive(Debug, Clone, PartialEq)]
pub struct SessionState {
    merge: Merge<PageDigest>,
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
            merge: Merge::new(mem),
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
        self.merge.cells()
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
        let refuse = |what: &str| Err::<(), _>(DaemonError::Protocol(what.into()));
        match *msg {
            _ if self.finished => refuse("data message after the stop-and-copy delimiter")?,
            WireMsg::Checksum { .. } if index.is_none() => {
                refuse("checksum message without a checkpoint")?
            }
            WireMsg::RoundEnd { round } if round != self.expected_round => {
                let expected = self.expected_round;
                refuse(&format!(
                    "round delimiter {round} out of order, expected {expected}"
                ))?
            }
            WireMsg::RoundEnd { .. } => self.expected_round += 1,
            WireMsg::StopEnd if self.expected_round < 2 => {
                refuse("stop-and-copy delimiter before any pre-copy round")?
            }
            WireMsg::StopEnd => self.finished = true,
            WireMsg::BulkExchange { .. } => refuse("bulk exchange is destination-to-source only")?,
            _ => (self.merge.push(msg, &mut { index })).map_err(DaemonError::Corrupt)?,
        }
        self.applied += 1;
        Ok(())
    }

    /// The pages this stream wrote as `(page, digest it holds now)`,
    /// ascending by page: what the destination keeps for a retry.
    pub fn landed(&self) -> impl Iterator<Item = (u64, PageDigest)> + '_ {
        let pages = self.mem().iter().enumerate();
        pages.filter_map(|(at, digest)| self.merge.is_landed(at).then_some((at as u64, *digest)))
    }

    /// The state (with its job/spec identity) as a snapshot: magic, job,
    /// fingerprint, the counters, the page count, each page's digest and
    /// landed flag, each landed page's first digest ascending by page,
    /// then an FNV-1a 64 trailer over everything before it. Only the
    /// benchmark-only [`crate::compat`] writers call it.
    pub(crate) fn snapshot(&self, job: u64, fingerprint: u64) -> Vec<u8> {
        let mem = self.mem();
        let mut buf = Vec::with_capacity(64 + mem.len() * (17 + 24));
        buf.extend_from_slice(PARTIAL_MAGIC);
        for field in [job, fingerprint, self.applied, self.expected_round] {
            buf.extend_from_slice(&field.to_be_bytes());
        }
        buf.push(u8::from(self.finished));
        buf.extend_from_slice(&(mem.len() as u64).to_be_bytes());
        for (at, digest) in mem.iter().enumerate() {
            buf.extend_from_slice(digest.as_bytes());
            buf.push(u8::from(self.merge.is_landed(at)));
        }
        // Each landed page's first digest as `(page, digest)`.
        let written = || {
            let pages = 0..mem.len() as u64;
            pages.filter_map(|idx| self.merge.first_written(idx).map(|digest| (idx, digest)))
        };
        buf.extend_from_slice(&(written().count() as u64).to_be_bytes());
        for (idx, digest) in written() {
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
        first: Vec<Option<PageDigest>>,
        applied: u64,
        expected_round: u64,
        finished: bool,
    }

    impl Model {
        fn apply(&mut self, msg: &WireMsg, ix: Option<&ChecksumIndex>) -> Result<(), &'static str> {
            if self.finished {
                return Err("protocol");
            }
            let hit = |idx: u64, digest| self.mem.get(idx as usize) == Some(&digest);
            let write = match *msg {
                WireMsg::Full { idx, digest } => Some((idx, digest)),
                // Listing 1: a hit in place, or else the checkpoint.
                WireMsg::Checksum { idx, digest } => match ix {
                    None => return Err("protocol"),
                    Some(ix) if !ix.contains(digest) && !hit(idx, digest) => return Err("corrupt"),
                    Some(_) => Some((idx, digest)),
                },
                WireMsg::DedupRef { idx, source } => {
                    let at = usize::try_from(source).ok();
                    let first = at.and_then(|at| self.first.get(at).copied().flatten());
                    Some((idx, first.ok_or("corrupt")?))
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
                    self.first[at].get_or_insert(digest);
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
    /// the state gives the same outcome, `mem()`, `landed()` and first digests,
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
                first: vec![None; pages as usize],
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
                    let landed = (model.mem.iter().zip(&model.first).enumerate())
                        .filter_map(|(idx, (digest, a))| a.map(|_| (idx as u64, *digest)));
                    assert!(st.landed().eq(landed), "case {case}: {msg:?}");
                    let first = (0..pages + 2).map(|idx| st.merge.first_written(idx));
                    let model_first = model.first.iter().copied().chain([None, None]);
                    assert!(first.eq(model_first), "case {case}: {msg:?}");
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
