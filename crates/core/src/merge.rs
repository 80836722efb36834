//! The destination merge (Listing 1), one page message at a time, over
//! a digest a page (the daemon's) or a buffer a page ([`Bytes`]). A
//! `DedupRef` to page *s* means what *s* held when the stream first wrote
//! it — the engine's `sent.entry(digest).or_insert(idx)`; a `Checksum`
//! the page holds changes nothing, any other names checkpoint content.
//! The earliest faulty message is the one reported.

use vecycle_checkpoint::{Checkpoint, ChecksumIndex};
use vecycle_mem::{ByteMemory, PageBuf};
use vecycle_net::WireMsg;
use vecycle_types::{Error, PageDigest, PageIndex, PAGE_SIZE};

use crate::transcript::PageMsg;

/// What gives a [`Merge`]'s cells their content: for digest cells the
/// offered index, for byte cells [`Bytes`].
pub trait Resolver {
    /// One page.
    type Cell: Copy + PartialEq;
    /// The digest `cell` holds.
    fn digest(&self, cell: Self::Cell) -> PageDigest;
    /// The cell message `seq` writes: a `Full`, a `Zero` or a missed checksum.
    fn write(&mut self, seq: u64, msg: &WireMsg) -> Result<Self::Cell, String>;
}

/// The merge: each page's cell, one landed bit a page and, from the
/// first rewrite on, each page's first cell.
#[derive(Debug, Clone)]
pub struct Merge<T> {
    cells: Vec<T>,
    landed: Vec<u64>,
    /// The cells as the first rewrite found them, kept first-wins.
    firsts: Option<Vec<T>>,
    seq: u64,
}

impl<T: Copy + PartialEq> Merge<T> {
    /// A merge starting from `cells`, nothing landed.
    pub fn new(cells: Vec<T>) -> Merge<T> {
        Merge {
            landed: vec![0; cells.len().div_ceil(64)],
            cells,
            firsts: None,
            seq: 0,
        }
    }

    /// Every page's cell.
    pub fn cells(&self) -> &[T] {
        &self.cells
    }

    /// Whether the stream has written page `at`.
    pub fn is_landed(&self, at: usize) -> bool {
        self.landed[at / 64] >> (at % 64) & 1 == 1
    }

    /// Each page's first cell: the cells themselves until a rewrite.
    fn firsts(&self) -> &[T] {
        self.firsts.as_deref().unwrap_or(&self.cells)
    }

    /// What `page` held when the stream first wrote it, if it has.
    pub fn first_written(&self, page: u64) -> Option<T> {
        let at = usize::try_from(page).ok()?;
        (at < self.cells.len() && self.is_landed(at)).then(|| self.firsts()[at])
    }

    /// Applies the next page message (`Full`, `Checksum`, `DedupRef` or
    /// `Zero`), resolved `with` what gives the cells their content.
    ///
    /// # Errors
    ///
    /// What is wrong with the message, which then changes no page.
    #[inline]
    pub fn push<R>(&mut self, msg: &WireMsg, with: &mut R) -> Result<(), String>
    where
        R: Resolver<Cell = T>,
    {
        let (seq, pages) = (self.seq, self.cells.len() as u64);
        self.seq += 1;
        let (WireMsg::Full { idx, .. }
        | WireMsg::Checksum { idx, .. }
        | WireMsg::DedupRef { idx, .. }
        | WireMsg::Zero { idx }) = *msg
        else {
            unreachable!("only page messages are merged")
        };
        let at = idx as usize;
        let cell = match *msg {
            _ if idx >= pages => Err(format!("page index {idx} beyond guest size {pages}")),
            WireMsg::DedupRef { source, .. } => match self.first_written(source) {
                Some(first) => Ok(first),
                None if source < pages => Err(format!("unwritten dedup source page-{source}")),
                None => Err(format!("dedup reference page-{source} out of range")),
            },
            WireMsg::Checksum { digest, .. } if with.digest(self.cells[at]) == digest => {
                Ok(self.cells[at])
            }
            _ => with.write(seq, msg),
        }?;
        if !self.is_landed(at) {
            self.landed[at / 64] |= 1 << (at % 64);
            if let Some(firsts) = &mut self.firsts {
                firsts[at] = cell;
            }
        } else if self.firsts.is_none() && self.cells[at] != cell {
            self.firsts = Some(self.cells.clone());
        }
        self.cells[at] = cell;
        Ok(())
    }
}

/// Equal merges hold the same cells, landed bits and first cells.
impl<T: Copy + PartialEq> PartialEq for Merge<T> {
    fn eq(&self, other: &Merge<T>) -> bool {
        (self.cells == other.cells && self.landed == other.landed)
            && self.firsts() == other.firsts()
    }
}

fn unresolved(idx: PageIndex) -> String {
    format!("checksum for {idx} not found in checkpoint index")
}

/// Digest cells resolve a checksum at once against the offered index; a
/// `Full` arrives already checked.
impl Resolver for Option<&ChecksumIndex> {
    type Cell = PageDigest;

    fn digest(&self, cell: PageDigest) -> PageDigest {
        cell
    }

    fn write(&mut self, _: u64, msg: &WireMsg) -> Result<PageDigest, String> {
        match *msg {
            WireMsg::Checksum { idx, digest } if !self.is_some_and(|ix| ix.contains(digest)) => {
                Err(unresolved(PageIndex::new(idx)))
            }
            WireMsg::Full { digest, .. } | WireMsg::Checksum { digest, .. } => Ok(digest),
            _ => Ok(PageDigest::ZERO_PAGE),
        }
    }
}

/// Where a byte page's content comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// A checkpoint page.
    Checkpoint(u32),
    /// The `Full` or `Zero` message at this transcript position, or the
    /// checksum there that missed its page (the first page carrying it).
    Message(u32),
}

/// Byte cells' resolver: each page's [`Origin`] is in the checkpoint or
/// in the transcript. The checksums that missed their page wait for the
/// end.
#[derive(Debug)]
pub struct Bytes<'t> {
    checkpoint: &'t Checkpoint,
    transcript: &'t [PageMsg],
    /// Positions of the checksums that missed their page, ascending.
    misses: Vec<u32>,
}

impl<'t> Bytes<'t> {
    /// The merge of `transcript` over `checkpoint` and the resolver that
    /// finishes it. The `Full` payloads are checked first, in one
    /// multi-lane batch over the transcript (any other message carries
    /// none, which hashes as the zero page unread), and the messages are
    /// pushed in order up to the first that fails.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] naming the earliest faulty message: as
    /// [`Merge::push`], a payload that is not its digest's page, or a
    /// checksum before the fault that no checkpoint page carries.
    pub fn merge(
        checkpoint: &'t Checkpoint,
        transcript: &'t [PageMsg],
    ) -> vecycle_types::Result<(Self, Merge<Origin>)> {
        let md5 = vecycle_hash::ChecksumAlgorithm::Md5;
        let bad = md5.first_mismatch(transcript, |k| match transcript[k] {
            PageMsg::Full { digest, .. } => digest,
            _ => PageDigest::ZERO_PAGE,
        });
        let pages = checkpoint.digest_table().len() as u32;
        let mut merge = Merge::new((0..pages).map(Origin::Checkpoint).collect());
        let misses = Vec::new();
        let mut bytes = Bytes {
            checkpoint,
            transcript,
            misses,
        };
        let pushed = (transcript[..bad.unwrap_or(transcript.len())].iter())
            .try_for_each(|msg| merge.push(&msg.to_wire(), &mut bytes));
        let own = match (pushed, bad) {
            (Err(own), _) => own,
            (Ok(()), Some(k)) => format!(
                "{} bytes do not match attached checksum",
                transcript[k].idx()
            ),
            (Ok(()), None) => return Ok((bytes, merge)),
        };
        // A miss before the fault that no checkpoint page carries came first.
        let detail = bytes.resolve().err().unwrap_or(own);
        Err(Error::Corrupt { detail })
    }

    /// Finds each missed digest's first checkpoint page, by rank, in one
    /// walk of the table; or the first miss no page carries.
    fn resolve(&self) -> Result<(ChecksumIndex, Vec<u32>), String> {
        let digest = |&k: &u32| self.digest(Origin::Message(k));
        let mut index = ChecksumIndex::default();
        index.refill(self.misses.iter().map(digest));
        let mut first = vec![u32::MAX; index.distinct()];
        let mut unfound = first.len();
        for (at, &d) in (0..).zip(self.checkpoint.digest_table()) {
            if unfound == 0 {
                break;
            }
            if let Some(rank) = index.rank(d).filter(|&r| first[r] == u32::MAX) {
                (first[rank], unfound) = (at, unfound - 1);
            }
        }
        let lost = |k: &&u32| first[index.rank(digest(k)).expect("indexed")] == u32::MAX;
        match self.misses.iter().filter(|_| unfound > 0).find(lost) {
            Some(&k) => Err(unresolved(self.transcript[k as usize].idx())),
            None => Ok((index, first)),
        }
    }

    /// The memory `merge` rebuilt: the checkpoint pages it keeps read in
    /// one ascending batch, each checked, and no page copied.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] for a checksum no checkpoint page carries, and
    /// as [`Checkpoint::read_pages`].
    pub fn finish(&self, merge: Merge<Origin>) -> vecycle_types::Result<ByteMemory> {
        let corrupt = |detail| Error::Corrupt { detail };
        let (index, first) = self.resolve().map_err(corrupt)?;
        // A checkpoint page, for a missed checksum the first carrying it,
        // or else the message.
        let source = |&origin: &Origin| match origin {
            Origin::Checkpoint(at) => Ok(PageIndex::new(at.into())),
            Origin::Message(k) => match &self.transcript[k as usize] {
                PageMsg::Checksum { digest, .. } => Ok(PageIndex::new(
                    first[index.rank(*digest).expect("indexed")].into(),
                )),
                msg => Err(msg),
            },
        };
        let origins = merge.cells;
        let mut needed = Vec::with_capacity(origins.iter().filter(|o| source(o).is_ok()).count());
        needed.extend(origins.iter().filter_map(|origin| source(origin).ok()));
        needed.sort_unstable();
        needed.dedup();
        let read = self.checkpoint.read_pages(&needed)?;
        let buffer = |origin: &Origin| match source(origin) {
            Ok(page) => read[needed.binary_search(&page).expect("read")].clone(),
            Err(PageMsg::Full { bytes, .. }) => bytes.clone().expect("checked on push"),
            Err(_) => PageBuf::zero_page(),
        };
        let digests = origins.iter().map(|&origin| self.digest(origin));
        let pages = origins.iter().map(buffer).collect();
        Ok(ByteMemory::from_pages_with_digests(pages, digests))
    }
}

impl Resolver for Bytes<'_> {
    type Cell = Origin;

    fn digest(&self, cell: Origin) -> PageDigest {
        match cell {
            Origin::Checkpoint(at) => self.checkpoint.digest_table()[at as usize],
            Origin::Message(k) => match self.transcript[k as usize] {
                PageMsg::Full { digest, .. } | PageMsg::Checksum { digest, .. } => digest,
                _ => PageDigest::ZERO_PAGE,
            },
        }
    }

    fn write(&mut self, seq: u64, msg: &WireMsg) -> Result<Origin, String> {
        let k = u32::try_from(seq).expect("a transcript of fewer than 2^32 messages");
        let len = self.transcript[k as usize].as_ref().len();
        match *msg {
            WireMsg::Full { idx, .. } if len as u64 != PAGE_SIZE => {
                let detail = format!("carries {len} bytes, not one page");
                return Err(format!("full-page message for page-{idx} {detail}"));
            }
            WireMsg::Checksum { .. } => self.misses.push(k),
            _ => {}
        }
        Ok(Origin::Message(k))
    }
}
