//! Names the frozen benchmark still calls and live code no longer
//! needs, each a wrapper over the live path. ROADMAP item 2b deletes
//! this module with the benchmark's next re-base.

use vecycle_types::PageDigest;

use crate::WireMsg;

impl WireMsg {
    /// Page `idx` in full: `WireMsg::Full { idx, digest }`.
    #[deprecated(note = "benchmark-only; ROADMAP item 2b deletes it")]
    pub fn full_filler(idx: u64, digest: PageDigest) -> WireMsg {
        WireMsg::Full { idx, digest }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(deprecated)]
    fn full_filler_is_the_full_variant() {
        let digest = PageDigest::from_content_id(7);
        assert_eq!(
            WireMsg::full_filler(3, digest),
            WireMsg::Full { idx: 3, digest }
        );
    }
}
