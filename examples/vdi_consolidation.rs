//! Virtual desktop consolidation (the §4.6 scenario, engine-driven).
//!
//! A 512 MiB virtual desktop commutes between the user's workstation
//! (9 am) and a consolidation server (5 pm) every weekday. Each host
//! keeps a checkpoint when the VM leaves; VeCycle recycles it on the
//! way back. Run:
//!
//! ```sh
//! cargo run --release --example vdi_consolidation
//! ```

use vecycle::core::session::{RecyclePolicy, VeCycleSession, VmInstance};
use vecycle::host::{Cluster, MigrationRequest};
use vecycle::mem::workload::IdleWorkload;
use vecycle::mem::{DigestMemory, Guest};
use vecycle::net::LinkSpec;
use vecycle::types::{Bytes, HostId, VmId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workstation = HostId::new(0);
    let server = HostId::new(1);
    let schedule = MigrationRequest::vdi(VmId::new(0), workstation, server, 19);
    println!(
        "VDI schedule: {} migrations over 13 weekdays\n",
        schedule.len()
    );

    let make_vm = || -> Result<VmInstance<DigestMemory>, Box<dyn std::error::Error>> {
        let mem = DigestMemory::with_uniform_content(Bytes::from_mib(512), 0xde5c)?;
        Ok(VmInstance::new(VmId::new(0), Guest::new(mem), server))
    };

    let mut totals = Vec::new();
    for (label, policy) in [
        ("baseline (full)", RecyclePolicy::Baseline),
        ("sender-side dedup", RecyclePolicy::DedupOnly),
        ("vecycle", RecyclePolicy::VeCycle),
    ] {
        let cluster = Cluster::homogeneous(2, LinkSpec::lan_gigabit());
        let session = VeCycleSession::new(cluster).with_policy(policy);
        let mut vm = make_vm()?;
        // Desktop activity: ~0.8 page writes per second around the clock
        // (~23k of the 131k pages touched in a typical 8 h stretch; the
        // engine also runs the workload during copy rounds).
        let mut workload = IdleWorkload::new(99, 0.8);
        let reports = session.run_schedule(&mut vm, &schedule, &mut workload)?;
        let total: f64 = reports.iter().map(|r| r.source_traffic().as_f64()).sum();
        println!(
            "{label:>18}: total traffic {:.2} GiB",
            total / (1 << 30) as f64
        );
        totals.push((label, total));
    }

    let baseline = totals[0].1;
    println!();
    for (label, total) in &totals[1..] {
        println!(
            "{label} moves {:.0}% of the baseline traffic",
            total / baseline * 100.0
        );
    }
    println!("\n(The paper's trace-derived version of this experiment is");
    println!(" `cargo run --release -p vecycle-bench --bin fig8`.)");
    Ok(())
}
