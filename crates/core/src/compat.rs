//! Names the frozen benchmark still calls and live code no longer
//! needs, each a wrapper over the live path. ROADMAP item 2b deletes
//! this module with the benchmark's next re-base.

use crate::MigrationEngine;

impl MigrationEngine {
    /// The engine unchanged: the first-round scan is one walk in page
    /// order, whatever the thread count.
    #[deprecated(note = "benchmark-only; ROADMAP item 2b deletes it")]
    #[must_use]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use vecycle_net::LinkSpec;

    use super::*;

    #[test]
    #[allow(deprecated)]
    fn with_threads_is_the_engine_unchanged() {
        let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
        let threaded = engine.clone().with_threads(4);
        assert_eq!(format!("{threaded:?}"), format!("{engine:?}"));
    }
}
