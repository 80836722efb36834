//! Migration transcripts and the destination merge (Listing 1).

use vecycle_checkpoint::{Checkpoint, PageLookup};
use vecycle_mem::{ByteMemory, MemoryImage, MutableMemory, PageBuf, PageContent};
use vecycle_net::WireMsg;
use vecycle_types::{Error, PageDigest, PageIndex};

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
        /// Page bytes; `None` when the source is digest-level. Backed by
        /// a scan arena, so cloning a message never copies page bytes.
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
    /// digest-level: a full page ships the digest filler
    /// ([`WireMsg::full_filler`]) — full wire size, and content the
    /// receiver can verify — whether or not the source holds bytes.
    pub fn to_wire(&self) -> WireMsg {
        match self {
            PageMsg::Full { idx, digest, .. } => WireMsg::full_filler(idx.as_u64(), *digest),
            PageMsg::Checksum { idx, digest } => WireMsg::Checksum {
                idx: idx.as_u64(),
                digest: *digest,
            },
            PageMsg::DedupRef { idx, source } => WireMsg::DedupRef {
                idx: idx.as_u64(),
                source: source.as_u64(),
            },
            PageMsg::Zero { idx } => WireMsg::Zero { idx: idx.as_u64() },
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

/// Applies a transcript at the destination, reconstructing guest memory.
///
/// This is Listing 1 of the paper: memory starts initialized from the
/// local `checkpoint`; each checksum message is verified against the
/// already-resident page and, on mismatch, resolved through the
/// checkpoint's checksum index (`lookup` + read at the found offset).
///
/// # Errors
///
/// Returns [`Error::Corrupt`] if a checksum message references content
/// that neither the resident page nor the checkpoint can supply, or if a
/// dedup reference points at a page not yet received — both indicate a
/// protocol violation or checkpoint corruption.
pub fn apply_transcript(
    checkpoint: &Checkpoint,
    transcript: &Transcript,
) -> vecycle_types::Result<ByteMemory> {
    let index = checkpoint.build_index();
    let mut mem = checkpoint
        .restore_byte_memory()
        .ok_or(Error::InvalidConfig {
            reason: "destination merge needs a full-byte checkpoint".into(),
        })?;

    for msg in transcript {
        match msg {
            PageMsg::Full { idx, digest, bytes } => {
                let bytes = bytes.as_deref().ok_or(Error::Corrupt {
                    detail: format!("full-page message for {idx} carries no bytes"),
                })?;
                mem.write_page(*idx, PageContent::Bytes(bytes));
                // The attached checksum lets the receiver verify without
                // re-hashing later; verify here to model that.
                if mem.page_digest(*idx) != *digest {
                    return Err(Error::Corrupt {
                        detail: format!("page {idx} bytes do not match attached checksum"),
                    });
                }
            }
            PageMsg::Checksum { idx, digest } => {
                // Listing 1: if the resident page (from the checkpoint
                // restore) already matches, nothing to do; otherwise look
                // the checksum up and copy from the checkpoint offset.
                if mem.page_digest(*idx) == *digest {
                    continue;
                }
                let offset = index.lookup(*digest).ok_or(Error::Corrupt {
                    detail: format!("checksum for {idx} not found in checkpoint index"),
                })?;
                let page = checkpoint.read_page(offset).ok_or(Error::Corrupt {
                    detail: format!("checkpoint page {offset} unreadable"),
                })?;
                mem.write_page(*idx, PageContent::Bytes(page));
                if mem.page_digest(*idx) != *digest {
                    return Err(Error::Corrupt {
                        detail: format!(
                            "checkpoint content at {offset} does not match checksum for {idx}"
                        ),
                    });
                }
            }
            PageMsg::DedupRef { idx, source } => {
                if source.as_u64() >= mem.page_count().as_u64() {
                    return Err(Error::Corrupt {
                        detail: format!("dedup reference {source} out of range"),
                    });
                }
                mem.relocate_page(*source, *idx);
            }
            PageMsg::Zero { idx } => {
                mem.write_page(*idx, PageContent::Zero);
            }
        }
    }
    Ok(mem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecycle_types::{PageCount, SimTime, VmId};

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
                    bytes: Some(PageBuf::copy_from(now.read_page(idx))),
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
                bytes: Some(PageBuf::copy_from(now.read_page(PageIndex::new(0)))),
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
