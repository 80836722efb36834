//! The chaos soak as a tier-1 test: a long seeded hostile schedule —
//! host crashes, disk pressure, checkpoint corruption, link drops and
//! netem loss all armed — must finish with zero invariant violations,
//! no `Failed` outcomes, and a bit-identical transcript on a repeat
//! run. See `vecycle_bench::soak` for what the invariants are.

use vecycle::checkpoint::EvictionPolicy;
use vecycle::sim::chaos::ChaosConfig;
use vecycle_bench::soak::{fresh_soak_dir, run_soak, SoakOptions};

/// Every fault class armed, hot enough that crashes, evictions, scrub
/// quarantines and retries all occur within the run.
fn hostile_config() -> ChaosConfig {
    ChaosConfig::parse(
        "seed=2022,legs=200,hosts=3,crash=0.12,pressure=0.25,corrupt=0.08,drop=0.15,loss=0.1",
    )
    .expect("spec is well-formed")
}

#[test]
fn soak_survives_200_hostile_legs_and_is_repeatable() {
    let mut baseline: Option<(String, Vec<String>, String)> = None;
    for run in 1..=2 {
        let mut opts = SoakOptions::new(hostile_config());
        opts.disk_root = fresh_soak_dir(&format!("test-run{run}"));
        let report = run_soak(&opts).expect("soak infrastructure");

        assert!(
            report.violations.is_empty(),
            "run {run}: invariants violated: {:#?}",
            report.violations
        );
        assert_eq!(
            report.outcomes.failed, 0,
            "run {run}: injected faults must always be survivable"
        );
        assert!(
            report.outcomes.migrations >= 100,
            "the walk must actually migrate"
        );
        assert!(report.restarts > 0, "crashes were armed but never struck");
        assert!(report.evictions > 0, "pressure was armed but never evicted");
        assert!(
            report.outcomes.retried + report.outcomes.fell_back > 0,
            "faults were armed but every leg completed first try"
        );

        let summary = report.summary();
        let key = (report.metrics_json, report.events, summary);
        match &baseline {
            None => baseline = Some(key),
            Some(base) => {
                assert_eq!(key.0, base.0, "metrics snapshot diverged on the rerun");
                assert_eq!(key.1, base.1, "incident transcript diverged on the rerun");
                assert_eq!(key.2, base.2, "summary diverged on the rerun");
            }
        }
    }
}

#[test]
fn soak_holds_under_every_eviction_policy() {
    let config = ChaosConfig::parse("seed=77,legs=60,hosts=3,crash=0.15,pressure=0.5,corrupt=0.1")
        .expect("spec is well-formed");
    for policy in [
        EvictionPolicy::OldestFirst,
        EvictionPolicy::LruByRecycle,
        EvictionPolicy::LargestFirst,
        EvictionPolicy::StalenessScore,
    ] {
        let mut opts = SoakOptions::new(config);
        opts.policy = policy;
        opts.disk_root = fresh_soak_dir(&format!("test-{policy}"));
        let report = run_soak(&opts).expect("soak infrastructure");
        assert!(
            report.violations.is_empty(),
            "{policy}: invariants violated: {:#?}",
            report.violations
        );
        assert_eq!(
            report.outcomes.failed, 0,
            "{policy}: unsurvivable injected fault"
        );
    }
}
