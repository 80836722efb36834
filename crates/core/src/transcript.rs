//! Migration transcripts and the destination merge (Listing 1).

use vecycle_checkpoint::Checkpoint;
use vecycle_mem::{ByteMemory, MemoryImage, MutableMemory, PageBuf, PageContent};
use vecycle_net::WireMsg;
use vecycle_types::{Error, PageDigest, PageIndex, PAGE_SIZE};

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
        match self {
            PageMsg::Full { idx, digest, .. } => WireMsg::Full {
                idx: idx.as_u64(),
                digest: *digest,
            },
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

/// Checks every `Full` payload of `transcript` against its attached
/// checksum, all pages in one multi-lane batch — the one time the
/// destination digests a received page.
fn verify_full_payloads(transcript: &Transcript) -> vecycle_types::Result<()> {
    let mut attached = Vec::new();
    let mut payloads: Vec<&[u8]> = Vec::new();
    for msg in transcript {
        if let PageMsg::Full { idx, digest, bytes } = msg {
            let bytes = bytes.as_deref().ok_or(Error::Corrupt {
                detail: format!("full-page message for {idx} carries no bytes"),
            })?;
            if bytes.len() as u64 != PAGE_SIZE {
                return Err(Error::Corrupt {
                    detail: format!(
                        "full-page message for {idx} carries {} bytes, not one page",
                        bytes.len()
                    ),
                });
            }
            attached.push((idx, digest));
            payloads.push(bytes);
        }
    }
    let computed = vecycle_hash::digest_pages(&payloads);
    match attached.iter().zip(&computed).find(|((_, d), c)| d != c) {
        Some(((idx, _), _)) => Err(Error::Corrupt {
            detail: format!("{idx} bytes do not match attached checksum"),
        }),
        None => Ok(()),
    }
}

/// Applies a transcript at the destination, reconstructing guest memory.
///
/// This is Listing 1 of the paper: memory starts initialized from the
/// local `checkpoint`; each checksum message is compared with the
/// already-resident page and, on mismatch, resolved through the
/// checkpoint's checksum index (`lookup` + read at the found offset).
///
/// Every byte is digested once and no page is copied. The checkpoint
/// hands its digest table to the index and, with its page buffers, to
/// the restored memory; each `Full` payload is verified against its
/// attached checksum ("sending the checksum along with the full page
/// saves the receiver from re-computing" it later, §3.2) before memory
/// is touched, and its buffer adopted under that digest; a checksum hit
/// adopts the buffer of the checkpoint page the index found, under the
/// digest that found it — the index was built from digests derived from
/// those very bytes. The returned memory shares pages with `checkpoint`
/// and `transcript`; a later write to it replaces only the page written.
///
/// # Errors
///
/// Returns [`Error::Corrupt`] if a full page does not match its attached
/// checksum, if a checksum message references content that neither the
/// resident page nor the checkpoint can supply, or if a dedup reference
/// points outside the guest — all indicate a protocol violation or
/// corruption.
pub fn apply_transcript(
    checkpoint: &Checkpoint,
    transcript: &Transcript,
) -> vecycle_types::Result<ByteMemory> {
    verify_full_payloads(transcript)?;
    let index = checkpoint.build_index();
    let mut mem = checkpoint
        .restore_byte_memory()
        .ok_or(Error::InvalidConfig {
            reason: "destination merge needs a full-byte checkpoint".into(),
        })?;

    for msg in transcript {
        match msg {
            PageMsg::Full { idx, digest, bytes } => {
                let bytes = bytes.clone().expect("verified above");
                mem.write_page_with_digest(*idx, bytes, *digest);
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
                mem.write_page_with_digest(*idx, page.clone(), *digest);
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
        assert!(shared(5, cp.read_page(PageIndex::new(2)).unwrap()));
        assert!(shared(0, cp.read_page(PageIndex::new(0)).unwrap()));
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
