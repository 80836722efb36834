//! On-disk trace files: save a generated trace, reload it later.
//!
//! The original Memory Buddies traces are distributed as fingerprint
//! files; this module gives our synthetic traces the same property so
//! experiments can be re-run against a *fixed* trace artifact instead of
//! regenerating (useful for cross-machine reproducibility and for
//! sharing calibrated traces).
//!
//! Format: `VECYTRC1` magic, nominal RAM, fingerprint count, then per
//! fingerprint a timestamp, page count and raw digests; an FNV-1a 64
//! trailer detects truncation and corruption.

use vecycle_hash::{Fnv1a64, Hasher};
use vecycle_types::{Bytes, Error, PageDigest, SimDuration, SimTime};

use crate::{Fingerprint, Trace};

const MAGIC: &[u8; 8] = b"VECYTRC1";

impl Trace {
    /// Serializes the trace to `w`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_to<W: std::io::Write>(&self, mut w: W) -> vecycle_types::Result<()> {
        let mut buf: Vec<u8> = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&self.ram().as_u64().to_le_bytes());
        buf.extend_from_slice(&(self.fingerprints().len() as u64).to_le_bytes());
        for fp in self.fingerprints() {
            buf.extend_from_slice(&fp.taken_at().since_epoch().as_nanos().to_le_bytes());
            buf.extend_from_slice(&(fp.pages().len() as u64).to_le_bytes());
            for d in fp.pages() {
                buf.extend_from_slice(d.as_bytes());
            }
        }
        let mut fnv = Fnv1a64::new();
        fnv.update(&buf);
        let trailer = fnv.finalize();
        w.write_all(&buf)?;
        w.write_all(&trailer)?;
        Ok(())
    }

    /// Deserializes a trace written by [`Trace::write_to`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on bad magic, truncation or trailer
    /// mismatch, and [`Error::Io`] on read failures.
    pub fn read_from<R: std::io::Read>(mut r: R) -> vecycle_types::Result<Trace> {
        let mut raw = Vec::new();
        r.read_to_end(&mut raw)?;
        if raw.len() < MAGIC.len() + 8 + 8 + 8 {
            return Err(Error::Corrupt {
                detail: format!("trace file too short: {} bytes", raw.len()),
            });
        }
        let (body, trailer) = raw.split_at(raw.len() - 8);
        let mut fnv = Fnv1a64::new();
        fnv.update(body);
        if fnv.finalize() != <[u8; 8]>::try_from(trailer).expect("8 bytes") {
            return Err(Error::Corrupt {
                detail: "trace trailer checksum mismatch".into(),
            });
        }

        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> vecycle_types::Result<&[u8]> {
            let end = pos.checked_add(n).ok_or_else(|| Error::Corrupt {
                detail: "trace length overflow".into(),
            })?;
            let slice = body.get(*pos..end).ok_or_else(|| Error::Corrupt {
                detail: "trace truncated mid-record".into(),
            })?;
            *pos = end;
            Ok(slice)
        };
        let take_u64 = |pos: &mut usize| -> vecycle_types::Result<u64> {
            Ok(u64::from_le_bytes(
                take(pos, 8)?.try_into().expect("8 bytes"),
            ))
        };

        if take(&mut pos, 8)? != MAGIC {
            return Err(Error::Corrupt {
                detail: "bad trace magic".into(),
            });
        }
        let ram = Bytes::new(take_u64(&mut pos)?);
        let count = take_u64(&mut pos)?;
        // Every declared count is attacker-controlled until it has been
        // checked against the bytes actually present: each fingerprint
        // record is at least 16 bytes (timestamp + page count), so a
        // count beyond `remaining / 16` cannot possibly be satisfied.
        // Rejecting here caps the Vec pre-allocation by input length.
        let max_count = (body.len().saturating_sub(pos) / 16) as u64;
        if count > max_count {
            return Err(Error::Corrupt {
                detail: format!(
                    "declared fingerprint count {count} exceeds what {} remaining bytes can hold",
                    body.len() - pos
                ),
            });
        }
        let mut fingerprints = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let at = SimTime::from_epoch(SimDuration::from_nanos(take_u64(&mut pos)?));
            let pages = take_u64(&mut pos)?;
            // Checked multiply: a forged per-fingerprint page count must
            // not wrap into a small slice length (or panic in debug).
            let need = pages
                .checked_mul(16)
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| Error::Corrupt {
                    detail: format!("declared page count {pages} overflows digest payload size"),
                })?;
            let bytes = take(&mut pos, need)?;
            let digests: Vec<PageDigest> = bytes
                .chunks_exact(16)
                .map(|c| PageDigest::new(c.try_into().expect("16 bytes")))
                .collect();
            fingerprints.push(Fingerprint::new(at, digests));
        }
        if pos != body.len() {
            return Err(Error::Corrupt {
                detail: format!("{} trailing bytes after last fingerprint", body.len() - pos),
            });
        }
        Ok(Trace::from_parts(ram, fingerprints))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{catalog, TraceGenerator};

    fn small_trace() -> Trace {
        let mut profile = catalog()[0].profile.clone();
        profile.trace_duration = vecycle_types::SimDuration::from_hours(6);
        TraceGenerator::new(profile, 9)
            .scale_pages(128)
            .generate()
            .unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let trace = small_trace();
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        let back = Trace::read_from(&buf[..]).unwrap();
        assert_eq!(back.ram(), trace.ram());
        assert_eq!(back.fingerprints().len(), trace.fingerprints().len());
        for (a, b) in back.fingerprints().iter().zip(trace.fingerprints()) {
            assert_eq!(a.taken_at(), b.taken_at());
            assert_eq!(a.pages(), b.pages());
        }
    }

    #[test]
    fn truncation_is_detected() {
        let trace = small_trace();
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        for cut in [buf.len() - 1, buf.len() / 2, 5] {
            assert!(
                matches!(Trace::read_from(&buf[..cut]), Err(Error::Corrupt { .. })),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn bit_flip_is_detected() {
        let trace = small_trace();
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        buf[20] ^= 1;
        assert!(matches!(
            Trace::read_from(&buf[..]),
            Err(Error::Corrupt { .. })
        ));
    }

    #[test]
    fn empty_input_is_corrupt() {
        assert!(Trace::read_from(&[][..]).is_err());
    }

    /// Recomputes the FNV trailer so forged counts reach the record
    /// parser instead of dying at the integrity check.
    fn refix_trailer(buf: &mut [u8]) {
        let body_len = buf.len() - 8;
        let mut fnv = Fnv1a64::new();
        fnv.update(&buf[..body_len]);
        let t = fnv.finalize();
        buf[body_len..].copy_from_slice(&t);
    }

    #[test]
    fn forged_fingerprint_count_is_rejected_before_allocating() {
        let trace = small_trace();
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        // Fingerprint count lives at offset 16 (magic 8 + ram 8).
        for forged in [u64::MAX, 1 << 40, (buf.len() as u64 / 16) + 1] {
            let mut f = buf.clone();
            f[16..24].copy_from_slice(&forged.to_le_bytes());
            refix_trailer(&mut f);
            let err = Trace::read_from(&f[..]).unwrap_err();
            assert!(
                matches!(err, Error::Corrupt { .. }),
                "count={forged}: {err}"
            );
        }
    }

    #[test]
    fn forged_page_count_is_rejected_without_overflow() {
        let trace = small_trace();
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        // First fingerprint's page count lives at offset 32 (magic 8 +
        // ram 8 + count 8 + timestamp 8). Wrapping multipliers must fail
        // Corrupt, not panic or mis-slice.
        for forged in [u64::MAX, u64::MAX / 16 + 1, 1 << 61] {
            let mut f = buf.clone();
            f[32..40].copy_from_slice(&forged.to_le_bytes());
            refix_trailer(&mut f);
            let err = Trace::read_from(&f[..]).unwrap_err();
            assert!(
                matches!(err, Error::Corrupt { .. }),
                "pages={forged}: {err}"
            );
        }
    }
}
