//! Post-copy migration (extension; related work \[13\] in the paper).
//!
//! Pre-copy keeps the VM at the *source* until memory has crossed the
//! wire; post-copy moves execution *first* and pulls memory afterwards:
//! background prepaging streams pages while demand faults fetch what the
//! guest touches before prepaging reaches it. Downtime is minimal by
//! construction, but the guest runs degraded until its memory arrives.
//!
//! VeCycle composes naturally with post-copy: a recycled checkpoint
//! means most pages are *already at the destination*, shrinking both the
//! degradation window and the number of remote demand faults. This
//! module quantifies that composition.

use std::collections::HashSet;

use vecycle_faults::AttemptFaults;
use vecycle_mem::MemoryImage;
use vecycle_net::{wire, TrafficCategory, TrafficLedger};
use vecycle_types::{Bytes, PageCount, PageIndex, SimDuration};

use crate::pipeline::rounds::TransferLoop;
use crate::pipeline::sink::CountOnly;
use crate::{MigrationEngine, Strategy};

/// Outcome of a post-copy migration.
#[derive(Debug, Clone)]
pub struct PostCopyReport {
    /// The execution-handover pause (device state only).
    pub downtime: SimDuration,
    /// Time until every page is resident at the destination — the
    /// degradation window during which faults can stall the guest.
    pub completion_time: SimDuration,
    /// Working-set pages that faulted remotely (each stalls the guest
    /// for one WAN/LAN round trip plus a page transfer).
    pub demand_faults: u64,
    /// Total guest stall time from remote faults.
    pub stall_time: SimDuration,
    /// Pages served locally from the recycled checkpoint.
    pub pages_from_checkpoint: PageCount,
    /// Pages pulled over the network.
    pub pages_from_network: PageCount,
    /// Source → destination traffic.
    pub forward: TrafficLedger,
}

impl PostCopyReport {
    /// Source → destination bytes.
    pub fn source_traffic(&self) -> Bytes {
        self.forward.total()
    }
}

impl MigrationEngine {
    /// Runs a post-copy migration of `vm`.
    ///
    /// `working_set` lists the pages the guest touches early after
    /// resuming at the destination — these fault remotely if prepaging
    /// (or the checkpoint) has not supplied them yet. With a VeCycle
    /// [`Strategy`], pages whose content the destination checkpoint
    /// holds are never pulled at all: the source streams their checksums
    /// and the destination materializes them locally.
    ///
    /// # Errors
    ///
    /// Returns [`vecycle_types::Error::InvalidConfig`] if the image is
    /// empty.
    pub fn migrate_postcopy<M: MemoryImage>(
        &self,
        vm: &M,
        strategy: Strategy,
        working_set: &[PageIndex],
    ) -> vecycle_types::Result<PostCopyReport> {
        let n = vm.page_count().as_u64();
        if n == 0 {
            return Err(vecycle_types::Error::InvalidConfig {
                reason: "cannot migrate an empty memory image".into(),
            });
        }

        // Classify pages: resident-via-checkpoint vs network-pulled.
        let mut from_checkpoint = 0u64;
        let mut from_network = 0u64;
        let mut network_pages: HashSet<PageIndex> = HashSet::new();
        for i in 0..n {
            let idx = PageIndex::new(i);
            let digest = vm.page_digest(idx);
            let in_checkpoint = strategy
                .index()
                .map(|ix| ix.contains(digest))
                .unwrap_or(false);
            if in_checkpoint || (digest.is_zero_page()) {
                from_checkpoint += 1;
            } else {
                from_network += 1;
                network_pages.insert(idx);
            }
        }

        let faults = AttemptFaults::none();
        let mut sink = CountOnly;
        let mut tl = TransferLoop::start(
            self,
            "postcopy",
            &strategy,
            vm.ram_size(),
            &faults,
            &mut sink,
        );
        // Handover: vCPU + device state, a few MiB in practice.
        let device_state = Bytes::from_mib(4);
        tl.record_forward(TrafficCategory::Control, device_state);
        let downtime = self.link().transfer_time(device_state);

        // Checksum stream tells the destination which checkpoint pages
        // stand; network pages follow as full pages (prepaging).
        tl.record_forward_many(
            TrafficCategory::Checksums,
            from_checkpoint,
            wire::checksum_msg(),
        );
        tl.record_forward_many(
            TrafficCategory::FullPages,
            from_network,
            wire::full_page_msg(),
        );
        let completion_time =
            self.link()
                .transfer_time(tl.forward_total())
                .max(if strategy.computes_checksums() {
                    // Source hashes the whole image to produce the stream.
                    self.cpu.checksum_time(self.algorithm, vm.ram_size())
                } else {
                    SimDuration::ZERO
                });

        // Demand faults: working-set pages that must come from the
        // network fault before prepaging delivers them (worst case: all
        // of them; prepaging order is oblivious to the working set).
        let demand_faults = working_set
            .iter()
            .filter(|idx| network_pages.contains(idx))
            .count() as u64;
        let per_fault = self
            .link()
            .round_trip()
            .saturating_add(self.link().transfer_time(wire::full_page_msg()));
        let stall_time = SimDuration::from_secs_f64(per_fault.as_secs_f64() * demand_faults as f64);

        let forward = tl.finish_observed([from_checkpoint, from_network, demand_faults]);
        Ok(PostCopyReport {
            downtime,
            completion_time,
            demand_faults,
            stall_time,
            pages_from_checkpoint: PageCount::new(from_checkpoint),
            pages_from_network: PageCount::new(from_network),
            forward,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecycle_mem::{DigestMemory, MutableMemory, PageContent};
    use vecycle_net::LinkSpec;

    fn vm_with_divergence(frac_changed: f64) -> (DigestMemory, DigestMemory) {
        let base = DigestMemory::with_distinct_content(PageCount::new(4096), 3);
        let mut now = base.snapshot();
        let changed = (4096.0 * frac_changed) as u64;
        for i in 0..changed {
            now.write_page(PageIndex::new(i), PageContent::ContentId((1 << 52) | i));
        }
        (base, now)
    }

    #[test]
    fn postcopy_downtime_is_tiny_compared_to_precopy_time() {
        let (cp, vm) = vm_with_divergence(0.5);
        let engine = MigrationEngine::new(LinkSpec::wan_cloudnet());
        let post = engine
            .migrate_postcopy(&vm, Strategy::vecycle(&cp), &[])
            .unwrap();
        let pre = engine.migrate(&vm, Strategy::vecycle(&cp)).unwrap();
        assert!(post.downtime < pre.total_time());
        assert!(post.downtime.as_secs_f64() < 1.5);
    }

    #[test]
    fn checkpoint_shrinks_degradation_window_and_faults() {
        let (cp, vm) = vm_with_divergence(0.25);
        let engine = MigrationEngine::new(LinkSpec::wan_cloudnet());
        let ws: Vec<PageIndex> = (0..2048).map(PageIndex::new).collect();
        let with_cp = engine
            .migrate_postcopy(&vm, Strategy::vecycle(&cp), &ws)
            .unwrap();
        let without = engine.migrate_postcopy(&vm, Strategy::full(), &ws).unwrap();
        assert!(with_cp.completion_time < without.completion_time);
        assert!(with_cp.demand_faults < without.demand_faults);
        assert!(with_cp.stall_time < without.stall_time);
        // 25% of the working set diverged -> 25% of faults remain.
        assert_eq!(with_cp.demand_faults, 1024);
        assert_eq!(without.demand_faults, 2048);
    }

    #[test]
    fn page_accounting_is_conserved() {
        let (cp, vm) = vm_with_divergence(0.3);
        let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
        let r = engine
            .migrate_postcopy(&vm, Strategy::vecycle(&cp), &[])
            .unwrap();
        assert_eq!(
            r.pages_from_checkpoint + r.pages_from_network,
            vm.page_count()
        );
        assert_eq!(
            r.pages_from_network,
            PageCount::new((4096.0_f64 * 0.3) as u64)
        );
    }

    #[test]
    fn full_strategy_pulls_everything() {
        let (_, vm) = vm_with_divergence(0.1);
        let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
        let r = engine.migrate_postcopy(&vm, Strategy::full(), &[]).unwrap();
        assert_eq!(r.pages_from_checkpoint, PageCount::ZERO);
        assert_eq!(r.pages_from_network, vm.page_count());
    }

    #[test]
    fn empty_image_is_rejected() {
        let vm = DigestMemory::zeroed(PageCount::ZERO);
        let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
        assert!(engine.migrate_postcopy(&vm, Strategy::full(), &[]).is_err());
    }
}
