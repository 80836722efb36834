//! Migration transcripts and the destination merge (Listing 1).

use vecycle_checkpoint::Checkpoint;
use vecycle_mem::{ByteMemory, PageBuf};
use vecycle_net::WireMsg;
use vecycle_types::{PageDigest, PageIndex};

use crate::merge::Bytes;

/// One message of the migration stream, as the destination receives it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageMsg {
    /// A full page: number, checksum, and (for byte-level sources) the
    /// page bytes. "Sending the checksum along with the full page saves
    /// the receiver from re-computing the checksum" (§3.2).
    Full {
        /// Guest page number.
        idx: PageIndex,
        /// Content checksum.
        digest: PageDigest,
        /// Page bytes; `None` when the source is digest-level. The
        /// buffer is the source guest's own (until the guest next writes
        /// that page), so neither sending nor cloning a message copies
        /// page bytes.
        bytes: Option<PageBuf>,
    },
    /// Only the checksum: the destination already holds this content.
    Checksum {
        /// Guest page number.
        idx: PageIndex,
        /// Content checksum.
        digest: PageDigest,
    },
    /// Back-reference to a page sent earlier in this migration.
    DedupRef {
        /// Guest page number.
        idx: PageIndex,
        /// The earlier page carrying identical content.
        source: PageIndex,
    },
    /// An all-zero page, suppressed to a marker.
    Zero {
        /// Guest page number.
        idx: PageIndex,
    },
}

impl PageMsg {
    /// The guest page this message is about.
    pub(crate) fn idx(&self) -> PageIndex {
        match self {
            PageMsg::Full { idx, .. }
            | PageMsg::Checksum { idx, .. }
            | PageMsg::DedupRef { idx, .. }
            | PageMsg::Zero { idx } => *idx,
        }
    }

    /// The message in its on-the-wire form. The wire protocol is
    /// digest-level: a full page crosses as its digest's filler (see
    /// [`WireMsg::Full`]) — full wire size, and content the receiver
    /// can verify — whether or not the source holds bytes.
    pub fn to_wire(&self) -> WireMsg {
        let idx = self.idx().as_u64();
        match *self {
            PageMsg::Full { digest, .. } => WireMsg::Full { idx, digest },
            PageMsg::Checksum { digest, .. } => WireMsg::Checksum { idx, digest },
            PageMsg::DedupRef { source, .. } => WireMsg::DedupRef {
                idx,
                source: source.as_u64(),
            },
            PageMsg::Zero { .. } => WireMsg::Zero { idx },
        }
    }
}

/// A `Full` message's payload; any other message carries none.
impl AsRef<[u8]> for PageMsg {
    fn as_ref(&self) -> &[u8] {
        match self {
            PageMsg::Full { bytes, .. } => bytes.as_deref().unwrap_or(&[]),
            _ => &[],
        }
    }
}

/// The ordered message stream of one migration.
pub type Transcript = Vec<PageMsg>;

/// The complete message stream of a *live* migration: one transcript per
/// pre-copy round plus the final stop-and-copy flush, in send order.
///
/// Produced by [`crate::MigrationEngine::migrate_live_with_transcript`]
/// — it is the recording [`crate::MsgSink`]; a destination replays it
/// message by message. Recording is a pure observer — the report of a
/// recorded run is bit-identical to the unrecorded one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LiveTranscript {
    /// Round 1..n message streams (round 1 is the full scan).
    pub rounds: Vec<Transcript>,
    /// The stop-and-copy flush over the residual dirty set.
    pub stop_copy: Transcript,
}

impl LiveTranscript {
    /// Total messages across all rounds and the final flush.
    pub fn message_count(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum::<usize>() + self.stop_copy.len()
    }
}

/// Applies a transcript at the destination, reconstructing guest memory:
/// Listing 1 through a byte [`Merge`](crate::Merge) ([`Bytes`]), which
/// reads only the checkpoint pages the result keeps and copies no page.
///
/// # Errors
///
/// As [`Bytes::merge`] and [`Bytes::finish`].
pub fn apply_transcript(
    checkpoint: &Checkpoint,
    transcript: &Transcript,
) -> vecycle_types::Result<ByteMemory> {
    let (bytes, merge) = Bytes::merge(checkpoint, transcript)?;
    bytes.finish(merge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecycle_mem::{MemoryImage, MutableMemory, PageContent};
    use vecycle_types::{Error, PageCount, SimTime, VmId};

    fn byte_mem(seed: u64) -> ByteMemory {
        ByteMemory::with_distinct_content(PageCount::new(8), seed)
    }

    fn cp_of(mem: &ByteMemory) -> Checkpoint {
        Checkpoint::capture_bytes(VmId::new(0), SimTime::EPOCH, mem)
    }

    #[test]
    fn checksum_only_transcript_restores_checkpoint_state() {
        let mem = byte_mem(1);
        let cp = cp_of(&mem);
        let transcript: Transcript = (0..8)
            .map(|i| PageMsg::Checksum {
                idx: PageIndex::new(i),
                digest: mem.page_digest(PageIndex::new(i)),
            })
            .collect();
        let rebuilt = apply_transcript(&cp, &transcript).unwrap();
        assert!(rebuilt.content_equals(&mem));
    }

    #[test]
    fn relocated_content_is_found_via_index() {
        let mut now = byte_mem(1);
        let cp = cp_of(&now);
        // Guest relocates page 2's content to page 5 after checkpoint.
        now.relocate_page(PageIndex::new(2), PageIndex::new(5));
        let transcript: Transcript = (0..8)
            .map(|i| PageMsg::Checksum {
                idx: PageIndex::new(i),
                digest: now.page_digest(PageIndex::new(i)),
            })
            .collect();
        let rebuilt = apply_transcript(&cp, &transcript).unwrap();
        assert!(rebuilt.content_equals(&now));
    }

    #[test]
    fn full_pages_overwrite() {
        let mut now = byte_mem(1);
        let cp = cp_of(&now);
        now.write_page(PageIndex::new(3), PageContent::Bytes(b"fresh data"));
        let mut transcript = Transcript::new();
        for i in 0..8u64 {
            let idx = PageIndex::new(i);
            if i == 3 {
                transcript.push(PageMsg::Full {
                    idx,
                    digest: now.page_digest(idx),
                    bytes: Some(now.read_page(idx).clone()),
                });
            } else {
                transcript.push(PageMsg::Checksum {
                    idx,
                    digest: now.page_digest(idx),
                });
            }
        }
        let rebuilt = apply_transcript(&cp, &transcript).unwrap();
        assert!(rebuilt.content_equals(&now));
    }

    #[test]
    fn dedup_refs_copy_earlier_pages() {
        let mut now = ByteMemory::zeroed(PageCount::new(4));
        now.write_page(PageIndex::new(0), PageContent::Bytes(b"dup"));
        now.write_page(PageIndex::new(2), PageContent::Bytes(b"dup"));
        let cp = cp_of(&ByteMemory::zeroed(PageCount::new(4)));
        let transcript = vec![
            PageMsg::Full {
                idx: PageIndex::new(0),
                digest: now.page_digest(PageIndex::new(0)),
                bytes: Some(now.read_page(PageIndex::new(0)).clone()),
            },
            PageMsg::DedupRef {
                idx: PageIndex::new(2),
                source: PageIndex::new(0),
            },
        ];
        let rebuilt = apply_transcript(&cp, &transcript).unwrap();
        assert!(rebuilt.content_equals(&now));
    }

    #[test]
    fn unknown_checksum_is_an_error() {
        let mem = byte_mem(1);
        let cp = cp_of(&mem);
        let transcript = vec![PageMsg::Checksum {
            idx: PageIndex::new(0),
            digest: PageDigest::from_content_id(0xdead_beef),
        }];
        let err = apply_transcript(&cp, &transcript).unwrap_err();
        assert!(matches!(err, Error::Corrupt { .. }));
    }

    #[test]
    fn corrupted_full_page_is_detected() {
        let mem = byte_mem(1);
        let cp = cp_of(&mem);
        let transcript = vec![PageMsg::Full {
            idx: PageIndex::new(0),
            digest: PageDigest::from_content_id(1), // wrong digest
            bytes: Some(vec![9u8; 4096].into()),
        }];
        assert!(apply_transcript(&cp, &transcript).is_err());
    }

    #[test]
    fn digest_only_checkpoint_is_rejected() {
        let mem = byte_mem(1);
        let cp = Checkpoint::capture(VmId::new(0), SimTime::EPOCH, &mem);
        let err = apply_transcript(&cp, &Transcript::new()).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { .. }));
    }

    #[test]
    fn zero_marker_zeroes_the_page() {
        let mem = byte_mem(1);
        let cp = cp_of(&mem);
        let transcript = vec![PageMsg::Zero {
            idx: PageIndex::new(2),
        }];
        let rebuilt = apply_transcript(&cp, &transcript).unwrap();
        assert!(rebuilt.page_digest(PageIndex::new(2)).is_zero_page());
        // Other pages keep the checkpoint content.
        assert_eq!(
            rebuilt.read_page(PageIndex::new(0)),
            mem.read_page(PageIndex::new(0))
        );
    }

    fn full(mem: &ByteMemory, i: u64) -> PageMsg {
        let idx = PageIndex::new(i);
        PageMsg::Full {
            idx,
            digest: mem.page_digest(idx),
            bytes: Some(mem.read_page(idx).clone()),
        }
    }

    /// A message for a page past the checkpoint's guest is corrupt, for
    /// every kind, and refused before it writes.
    #[test]
    fn a_page_past_the_guest_is_corrupt() {
        let mem = byte_mem(1);
        let cp = cp_of(&mem);
        let beyond = PageIndex::new(9);
        let page0 = mem.page_digest(PageIndex::new(0));
        for (kind, msg) in [
            (
                "full",
                PageMsg::Full {
                    idx: beyond,
                    digest: page0,
                    bytes: Some(mem.read_page(PageIndex::new(0)).clone()),
                },
            ),
            (
                "checksum",
                PageMsg::Checksum {
                    idx: beyond,
                    digest: page0,
                },
            ),
            ("zero", PageMsg::Zero { idx: beyond }),
            (
                "dedup-ref target",
                PageMsg::DedupRef {
                    idx: beyond,
                    source: PageIndex::new(0),
                },
            ),
        ] {
            match apply_transcript(&cp, &vec![msg]) {
                Err(Error::Corrupt { detail }) => {
                    assert_eq!(detail, "page index 9 beyond guest size 8", "{kind}")
                }
                other => panic!("{kind}: expected Corrupt, got {other:?}"),
            }
        }
    }

    /// A `Full` payload that differs from its attached checksum is
    /// rejected wherever it sits — first, last, or already copied on by
    /// a `DedupRef` — and no memory comes back.
    #[test]
    fn corrupted_full_payload_anywhere_is_corrupt() {
        let now = byte_mem(2);
        let cp = cp_of(&byte_mem(1));
        let clean: Transcript = vec![
            full(&now, 0),
            PageMsg::DedupRef {
                idx: PageIndex::new(5),
                source: PageIndex::new(0),
            },
            full(&now, 1),
            PageMsg::Zero {
                idx: PageIndex::new(6),
            },
            full(&now, 2),
        ];
        assert!(apply_transcript(&cp, &clean).is_ok());
        for (at, page) in [(0, 0), (2, 1), (4, 2)] {
            let mut transcript = clean.clone();
            let PageMsg::Full { bytes, .. } = &mut transcript[at] else {
                panic!("message {at} is a full page")
            };
            let mut rotten = bytes.as_deref().unwrap().to_vec();
            rotten[100] ^= 0x01;
            *bytes = Some(rotten.into());
            match apply_transcript(&cp, &transcript) {
                Err(Error::Corrupt { detail }) => {
                    assert!(detail.contains(&format!("page-{page} ")), "{detail}")
                }
                other => panic!("message {at}: expected Corrupt, got {other:?}"),
            }
        }
        // A payload that is not one whole page is as corrupt as a wrong one.
        let mut transcript = clean.clone();
        transcript[0] = PageMsg::Full {
            idx: PageIndex::new(0),
            digest: now.page_digest(PageIndex::new(0)),
            bytes: Some(PageBuf::copy_from(&now.read_page(PageIndex::new(0))[..100])),
        };
        assert!(matches!(
            apply_transcript(&cp, &transcript),
            Err(Error::Corrupt { .. })
        ));
    }

    /// A checksum hit on relocated content restores the bytes and the
    /// digest: the rebuilt memory answers digest reads from what the
    /// merge handed it, and that equals what the source hashed.
    #[test]
    fn rebuilt_memory_digests_match_its_bytes() {
        let mut now = byte_mem(1);
        let cp = cp_of(&now);
        now.relocate_page(PageIndex::new(2), PageIndex::new(5));
        now.write_page(PageIndex::new(3), PageContent::Bytes(b"fresh data"));
        now.write_page(PageIndex::new(7), PageContent::Zero);
        let transcript: Transcript = (0..8)
            .map(|i| match i {
                3 => full(&now, 3),
                7 => PageMsg::Zero {
                    idx: PageIndex::new(7),
                },
                _ => PageMsg::Checksum {
                    idx: PageIndex::new(i),
                    digest: now.page_digest(PageIndex::new(i)),
                },
            })
            .collect();
        let before = PageBuf::allocated();
        let rebuilt = apply_transcript(&cp, &transcript).unwrap();
        // The merge adopts buffers — the checkpoint's, the payload's, the
        // zero page — and allocates none.
        assert_eq!(PageBuf::allocated(), before);
        assert!(rebuilt.content_equals(&now));
        for i in 0..8 {
            let idx = PageIndex::new(i);
            assert_eq!(rebuilt.read_page(idx), now.read_page(idx), "page {i}");
            assert_eq!(rebuilt.page_digest(idx), now.page_digest(idx), "page {i}");
        }
        let shared = |i, with: &PageBuf| rebuilt.read_page(PageIndex::new(i)).shares_with(with);
        assert!(shared(3, now.read_page(PageIndex::new(3))));
        assert!(shared(5, &cp.read_page(PageIndex::new(2)).unwrap()));
        assert!(shared(0, &cp.read_page(PageIndex::new(0)).unwrap()));
        assert_eq!(
            rebuilt.page_digest(PageIndex::new(5)),
            cp.digest(PageIndex::new(2))
        );
    }

    #[test]
    fn live_recording_is_a_pure_observer() {
        use crate::{MigrationEngine, Strategy};
        use vecycle_mem::{workload::IdleWorkload, DigestMemory, Guest};
        use vecycle_net::LinkSpec;
        use vecycle_types::Bytes;

        let initial = DigestMemory::with_uniform_content(Bytes::from_mib(1), 0x7ec).unwrap();
        // A tiny downtime budget keeps the dirty residue above the
        // handover threshold, forcing iterative pre-copy rounds.
        let engine = MigrationEngine::new(LinkSpec::lan_gigabit())
            .with_max_downtime(vecycle_types::SimDuration::from_nanos(50_000));
        // Aggressive dirtying forces several resend rounds plus a
        // non-empty stop-and-copy flush, so every recording path runs.
        let run = |record: bool| {
            let mut guest = Guest::new(initial.snapshot());
            let mut workload = IdleWorkload::new(9, 40_000.0);
            let strategy = Strategy::full().with_dedup();
            if record {
                let (report, lt) = engine
                    .migrate_live_with_transcript(&mut guest, &mut workload, strategy)
                    .unwrap();
                (report, Some(lt))
            } else {
                let report = engine
                    .migrate_live(&mut guest, &mut workload, strategy)
                    .unwrap();
                (report, None)
            }
        };
        let (plain, _) = run(false);
        let (recorded, lt) = run(true);
        let lt = lt.unwrap();
        assert_eq!(plain, recorded, "recording must not perturb the report");
        assert_eq!(lt.rounds.len(), recorded.rounds().len());
        for (round, rep) in lt.rounds.iter().zip(recorded.rounds()) {
            let priced = rep.full_pages.as_u64()
                + rep.checksum_pages.as_u64()
                + rep.dedup_refs.as_u64()
                + rep.zero_pages.as_u64();
            assert_eq!(round.len() as u64, priced, "round {}", rep.round);
        }
        assert!(!lt.stop_copy.is_empty(), "want a non-trivial flush");
        assert!(lt.rounds.len() > 1, "want several pre-copy rounds");
    }

    #[test]
    fn out_of_range_dedup_ref_is_an_error() {
        let mem = byte_mem(1);
        let cp = cp_of(&mem);
        let transcript = vec![PageMsg::DedupRef {
            idx: PageIndex::new(0),
            source: PageIndex::new(99),
        }];
        assert!(apply_transcript(&cp, &transcript).is_err());
    }
}
