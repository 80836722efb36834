//! Fleet topology and policy configuration.

use vecycle_net::LinkSpec;
use vecycle_types::SimDuration;

use crate::placement::PlacementMode;
use crate::timing::TimingPolicy;

/// Everything that defines a fleet run: topology, per-VM schedule
/// shape, and the two policy axes (where to place, when to start).
///
/// The defaults model the paper's ping-pong regime: each VM moves among
/// a small affinity set (§2.2's "VMs revisit a small set of hosts"), so
/// a checkpoint-aware placer can steer legs back onto hosts that still
/// hold a warm checkpoint.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Number of hosts (homogeneous, benchmark-default CPU/disk).
    pub hosts: u32,
    /// Number of VMs.
    pub vms: u32,
    /// Pages per guest. Small on purpose: fleet runs execute tens of
    /// thousands of full engine migrations, and placement quality —
    /// not image size — is what is under test.
    pub pages_per_vm: u64,
    /// Affinity-set size per VM (the paper's "small host set").
    pub affinity: u32,
    /// Migration requests generated per VM.
    pub requests_per_vm: u64,
    /// Mean inter-request interval (jittered ±50 % per draw).
    pub mean_interval: SimDuration,
    /// Deadline slack granted to every request past its arrival.
    pub deadline_slack: SimDuration,
    /// Master seed; all per-VM streams derive from it via splitmix.
    pub seed: u64,
    /// Inter-host link.
    pub link: LinkSpec,
    /// Where to migrate: the placement policy.
    pub placement: PlacementMode,
    /// When to start: the timing policy.
    pub timing: TimingPolicy,
    /// Hosts per rack; rack pairs are the unit of link admission.
    pub hosts_per_rack: u32,
    /// Max concurrent migrations per rack-pair link.
    pub link_capacity: u32,
    /// Max concurrent migrations fleet-wide.
    pub max_inflight: u32,
    /// Pre-seed each VM's affinity hosts with a checkpoint of its
    /// initial state, modelling a fleet with migration history. With
    /// this off, warm placements only appear after a VM's first leg.
    pub preseed_checkpoints: bool,
}

impl FleetSpec {
    /// A spec with paper-shaped defaults for `hosts` hosts and `vms`
    /// VMs: 32-page guests, affinity 4, 3 requests per VM at a 10-min
    /// mean interval with 1-hour deadlines, gigabit LAN, aware
    /// placement, immediate timing, 16-host racks with 8 migrations
    /// per rack-pair link and 64 in flight fleet-wide.
    pub fn new(hosts: u32, vms: u32) -> Self {
        FleetSpec {
            hosts,
            vms,
            pages_per_vm: 32,
            affinity: 4,
            requests_per_vm: 3,
            mean_interval: SimDuration::from_mins(10),
            deadline_slack: SimDuration::from_hours(1),
            seed: 1,
            link: LinkSpec::lan_gigabit(),
            placement: PlacementMode::CheckpointAware,
            timing: TimingPolicy::Immediate,
            hosts_per_rack: 16,
            link_capacity: 8,
            max_inflight: 64,
            preseed_checkpoints: false,
        }
    }

    /// Overrides the placement policy.
    #[must_use]
    pub fn with_placement(mut self, placement: PlacementMode) -> Self {
        self.placement = placement;
        self
    }

    /// Overrides the timing policy.
    #[must_use]
    pub fn with_timing(mut self, timing: TimingPolicy) -> Self {
        self.timing = timing;
        self
    }

    /// Overrides the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    // Inert: the frozen `benchmark/` crate still calls it; goes with the
    // next `benchmark` PR (ROADMAP item 1e).
    #[doc(hidden)]
    #[must_use]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns [`vecycle_types::Error::InvalidConfig`] when the
    /// topology cannot host the policy: fewer hosts than the affinity
    /// set, an affinity set too small to leave a destination choice,
    /// zero-capacity admission (which would wedge the pending queue
    /// forever), or an empty fleet.
    pub fn validate(&self) -> vecycle_types::Result<()> {
        let reason = if self.vms == 0 || self.hosts == 0 {
            Some("fleet needs at least one host and one VM".to_string())
        } else if self.affinity < 2 {
            Some("affinity sets need >= 2 hosts (source + a destination)".to_string())
        } else if self.hosts < self.affinity {
            Some(format!(
                "{} hosts cannot carry affinity sets of {}",
                self.hosts, self.affinity
            ))
        } else if self.pages_per_vm == 0 {
            Some("guests need at least one page".to_string())
        } else if self.requests_per_vm == 0 {
            Some("need at least one request per VM".to_string())
        } else if self.hosts_per_rack == 0 {
            Some("racks need at least one host".to_string())
        } else if self.link_capacity == 0 || self.max_inflight == 0 {
            Some("admission caps must be positive or nothing ever starts".to_string())
        } else {
            None
        };
        match reason {
            Some(reason) => Err(vecycle_types::Error::InvalidConfig { reason }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(FleetSpec::new(16, 64).validate().is_ok());
    }

    #[test]
    fn rejects_affinity_wider_than_fleet() {
        let spec = FleetSpec::new(3, 8);
        assert!(spec.validate().is_err());
    }

    #[test]
    fn rejects_zero_capacity() {
        let mut spec = FleetSpec::new(16, 8);
        spec.link_capacity = 0;
        assert!(spec.validate().is_err());
    }
}
