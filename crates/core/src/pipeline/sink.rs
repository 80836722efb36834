//! [`MsgSink`]: where a transfer's page messages go.
//!
//! [`TransferLoop`](super::rounds::TransferLoop) pushes every page
//! message of every round through one emission step, and that step
//! hands the priced message to a sink. What a migration *does* with its
//! stream — nothing, keep it, lose it to a link cut, write it to a
//! socket — is therefore a choice of sink, never a second loop:
//!
//! | sink | per message | used by |
//! |------|-------------|---------|
//! | [`CountOnly`] | nothing (no page bytes are copied for it) | `migrate`, `migrate_gang`, `migrate_live`, post-copy |
//! | [`Transcript`] / [`LiveTranscript`] | keeps it for replay | `migrate_with_transcript`, `migrate_live_with_transcript` |
//! | [`CutSink`] | lands it until the armed byte limit is crossed | `migrate_live_faulted` |
//! | the daemon's `SocketSink` | encodes and writes it | `vecycled` source sessions |

use vecycle_types::{Bytes, PageCount, PageDigest};

use crate::{LiveTranscript, PageMsg, Transcript};

/// The consumer of a migration's message stream, called in send order:
/// the page messages of round 1, `round_end(1)`, the page messages of
/// round 2, `round_end(2)`, …, the stop-and-copy flush, `stop_end()`.
///
/// A sink is a pure observer of a transfer that completes: reports,
/// ledgers and metrics are bit-identical whichever sink is attached.
pub trait MsgSink {
    /// Whether the sink reads the messages it is handed. A sink that
    /// only needs totals sets this to `false`; every message still goes
    /// through [`MsgSink::page`], which costs such a sink nothing, but
    /// no round then puts page bytes into its full-page messages.
    const PER_MESSAGE: bool = true;

    /// Hint: up to `n` page messages follow before the next delimiter.
    fn reserve(&mut self, _n: usize) {}

    /// Takes one page message, the digest of the page content it
    /// stands for, and its priced wire size. Returns whether it landed;
    /// `false` means the link is dead and aborts the transfer.
    fn page(&mut self, msg: PageMsg, digest: PageDigest, size: Bytes) -> bool;

    /// Pre-copy round `round` (1-based) is complete.
    fn round_end(&mut self, _round: u32) {}

    /// The stop-and-copy flush is complete; nothing follows.
    fn stop_end(&mut self) {}

    /// Per guest page, the digest that reached the destination — asked
    /// for once, after [`MsgSink::page`] returned `false`.
    fn landed(&mut self) -> Vec<Option<PageDigest>> {
        Vec::new()
    }
}

/// Counts only: the transfer's own per-class totals are all anyone
/// wants, so every message is dropped unread.
pub(crate) struct CountOnly;

impl MsgSink for CountOnly {
    const PER_MESSAGE: bool = false;

    fn page(&mut self, _msg: PageMsg, _digest: PageDigest, _size: Bytes) -> bool {
        true
    }
}

/// Records a delimiter-free stream (a static migration's single round).
impl MsgSink for Transcript {
    fn reserve(&mut self, n: usize) {
        Vec::reserve(self, n);
    }

    fn page(&mut self, msg: PageMsg, _digest: PageDigest, _size: Bytes) -> bool {
        self.push(msg);
        true
    }
}

/// Records the full live stream. Messages accumulate in `stop_copy`
/// until a round delimiter moves them into `rounds`; whatever follows
/// the last delimiter is, by construction, the stop-and-copy flush.
impl MsgSink for LiveTranscript {
    fn reserve(&mut self, n: usize) {
        self.stop_copy.reserve(n);
    }

    fn page(&mut self, msg: PageMsg, _digest: PageDigest, _size: Bytes) -> bool {
        self.stop_copy.push(msg);
        true
    }

    fn round_end(&mut self, _round: u32) {
        self.rounds.push(std::mem::take(&mut self.stop_copy));
    }
}

/// The forward-path byte cursor of a doomed transfer: messages land
/// until the cumulative payload would cross the cut point, and each
/// landed message deposits its page's digest at the destination.
pub(crate) struct CutSink {
    limit: u64,
    sent: u64,
    landed: Vec<Option<PageDigest>>,
}

impl CutSink {
    pub(crate) fn new(limit: Bytes, pages: PageCount) -> Self {
        CutSink {
            limit: limit.as_u64(),
            sent: 0,
            landed: vec![None; pages.as_u64() as usize],
        }
    }
}

impl MsgSink for CutSink {
    fn page(&mut self, msg: PageMsg, digest: PageDigest, size: Bytes) -> bool {
        let next = self.sent + size.as_u64();
        if next > self.limit {
            return false;
        }
        self.sent = next;
        self.landed[msg.idx().as_usize()] = Some(digest);
        true
    }

    fn landed(&mut self) -> Vec<Option<PageDigest>> {
        std::mem::take(&mut self.landed)
    }
}
