//! Names the frozen benchmark still calls and live code no longer
//! needs, each a wrapper over the live path. ROADMAP item 2b deletes
//! this module with the benchmark's next re-base.
//!
//! Here that is the writer of the `VECYPAR1` state snapshot. The daemon
//! only reads a snapshot, as the base of a partial log
//! ([`SessionState::decode_prefix`]).

use std::path::Path;

use crate::session_state::{partial_path, SessionState};

impl SessionState {
    /// The state (with its job/spec identity) as a snapshot.
    #[deprecated(note = "benchmark-only; ROADMAP item 2b deletes it")]
    pub fn encode(&self, job: u64, fingerprint: u64) -> Vec<u8> {
        self.snapshot(job, fingerprint)
    }
}

/// Writes `state` as a snapshot file via write-tmp→rename. No fsync: a
/// torn file fails its trailer on load and the transfer starts fresh.
///
/// # Errors
///
/// Propagates filesystem errors.
#[deprecated(note = "benchmark-only; ROADMAP item 2b deletes it")]
pub fn save_partial(
    dir: &Path,
    job: u64,
    fingerprint: u64,
    state: &SessionState,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = partial_path(dir, job, fingerprint);
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, state.snapshot(job, fingerprint))?;
    std::fs::rename(&tmp, &path)
}

#[cfg(test)]
#[allow(deprecated)]
mod tests {
    use vecycle_hash::{Fnv1a64, Hasher};

    use super::*;
    use crate::partial_log::PartialLog;
    use crate::session_state::spec_fingerprint;
    use crate::session_state::tests::rewritten;

    /// `encode` writes the snapshot bytes older daemons left (a disk
    /// contract, pinned as literals), which `decode_prefix` reads back
    /// whole, and `save_partial` puts those bytes at the job's partial
    /// path.
    #[test]
    fn every_wrapper_is_the_live_path() {
        let dir = std::env::temp_dir().join(format!("vecycle-compat-{}", std::process::id()));
        for (warm, file) in [
            (false, 0x73cc_85ff_4f92_b143),
            (true, 0x2c5c_1fc5_6854_a161),
        ] {
            let (spec, st) = rewritten(warm);
            let fp = spec_fingerprint(&spec);
            let bytes = st.encode(7, fp);
            let mut fnv = Fnv1a64::new();
            fnv.update(&bytes);
            let got = u64::from_be_bytes(fnv.finalize());
            assert_eq!(got, file, "warm={warm}: {got:#018x}");

            let mut longer = bytes.clone();
            longer.push(0);
            let prefix = SessionState::decode_prefix(&longer).unwrap();
            assert_eq!(prefix, (7, fp, st.clone(), bytes.len()));

            save_partial(&dir, 7, fp, &st).unwrap();
            assert_eq!(std::fs::read(partial_path(&dir, 7, fp)).unwrap(), bytes);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A snapshot base is checked, not trusted: a flipped byte, a cut or
    /// a forged count fails it, and it loads as its landed pages for its
    /// own job and spec only.
    #[test]
    fn a_snapshot_base_is_checked_and_loads_as_its_landed_pages() {
        let (spec, st) = rewritten(false);
        let fp = spec_fingerprint(&spec);
        let bytes = st.encode(5, fp);
        let len = bytes.len();
        for pos in [0, 8, 24, 40, 49, len - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x5A;
            assert!(SessionState::decode_prefix(&bad).is_err(), "flip at {pos}");
        }
        for cut in [0, 10, len - 1] {
            assert!(
                SessionState::decode_prefix(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        // The page count, and the count of the 11 anchors.
        for off in [41, len - 8 - 11 * 24 - 8] {
            let mut forged = bytes.clone();
            forged[off..off + 8].copy_from_slice(&(u64::MAX / 2).to_be_bytes());
            assert!(
                SessionState::decode_prefix(&forged).is_err(),
                "count at {off}"
            );
        }

        let dir = std::env::temp_dir().join(format!("vecycle-partial-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let load = |job, fp| PartialLog::load(&dir, job, fp, spec.pages()).map(|(l, _)| l);
        save_partial(&dir, 5, fp, &st).unwrap();
        let landed = load(5, fp).unwrap().into_iter().enumerate();
        let landed: Vec<_> = landed
            .filter_map(|(i, d)| d.map(|d| (i as u64, d)))
            .collect();
        assert_eq!(landed, st.landed().collect::<Vec<_>>());
        assert!(load(6, fp).is_none() && load(5, fp ^ 1).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
