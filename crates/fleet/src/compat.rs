//! Names the frozen benchmark still calls and live code no longer
//! needs, each a wrapper over the live path. ROADMAP item 2b deletes
//! this module with the benchmark's next re-base.

use crate::FleetSpec;

impl FleetSpec {
    /// The spec unchanged: a fleet run is one thread.
    #[deprecated(note = "benchmark-only; ROADMAP item 2b deletes it")]
    #[must_use]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(deprecated)]
    fn with_threads_is_the_spec_unchanged() {
        let spec = FleetSpec::new(8, 32);
        let threaded = spec.clone().with_threads(4);
        assert_eq!(format!("{threaded:?}"), format!("{spec:?}"));
    }
}
