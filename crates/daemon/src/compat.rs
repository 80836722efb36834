//! Names the frozen benchmark still calls and live code no longer
//! needs, each a wrapper over the live path. ROADMAP item 2b deletes
//! this module with the benchmark's next re-base.
//!
//! Here that is the writer of the `VECYPAR1` state snapshot, pinned by
//! golden bytes. Nothing reads a snapshot: at a job's partial path it is
//! no file ([`crate::partial_log`]).

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

    /// `encode` writes the snapshot bytes older daemons left (pinned as
    /// literals), and `save_partial` puts those bytes at the job's
    /// partial path, where a destination finds no partial.
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

            save_partial(&dir, 7, fp, &st).unwrap();
            assert_eq!(std::fs::read(partial_path(&dir, 7, fp)).unwrap(), bytes);
            assert!(PartialLog::load(&dir, 7, fp, spec.pages()).is_none());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
