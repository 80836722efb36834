//! The differential oracle: every corpus entry that parses cleanly is
//! replayed through two independent implementations of the same
//! question, and any disagreement is a bug in one of them.
//!
//! **estimate ≡ pipeline**: `estimate.rs` prices a migration in closed
//! form from exact page-class counts; the real `TransferLoop` pipeline
//! prices the same migration message by message. Both draw prices from
//! the shared `WireCosts` table, so for an idle guest their *traffic*
//! must agree exactly, and their *time* within the estimator's
//! documented small-term slack (it ignores the checksum pre-exchange,
//! which the engine accounts).
//!
//! Fuzz-found checkpoints and traces make unusually good oracle
//! inputs: they carry digest patterns (duplicate runs, zero floods,
//! pathological counts) that the benchmark generators never produce.

use vecycle_checkpoint::{Checkpoint, ChecksumIndex};
use vecycle_core::{estimate, MigrationEngine, MigrationReport, Strategy};
use vecycle_host::CpuSpec;
use vecycle_mem::{DigestMemory, MemoryImage};
use vecycle_net::LinkSpec;
use vecycle_trace::Trace;
use vecycle_types::{PageDigest, Ratio};

use std::sync::Arc;

/// Replays above this many pages are skipped: corpus entries are tiny
/// by construction, and a clean-parsing giant would stall the bounded
/// CI job without exercising anything new.
const MAX_ORACLE_PAGES: usize = 1 << 16;

/// Relative tolerance for the time comparison. Traffic must match
/// exactly; time carries the estimator's documented slack (no checksum
/// pre-exchange, no per-round latency beyond the handshake).
const TIME_RTOL: f64 = 0.02;
/// Absolute time slack for sub-millisecond migrations, where the
/// ignored exchange latency dominates any relative bound.
const TIME_ATOL_SECS: f64 = 0.005;

/// What a replay did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleOutcome {
    /// The oracle ran and agreed.
    Checked,
    /// Input was empty or over the size cap; nothing to migrate.
    Skipped,
}

/// Exact page-class counts for the estimator, derived by replaying the
/// strategy's own classification rule over the image.
fn exact_fractions(vm: &DigestMemory, index: &ChecksumIndex) -> (Ratio, Ratio) {
    let digests = vm.as_slice();
    let n = digests.len() as f64;
    let zeros = digests.iter().filter(|d| d.is_zero_page()).count();
    let nonzero: Vec<&PageDigest> = digests.iter().filter(|d| !d.is_zero_page()).collect();
    let reused = nonzero.iter().filter(|d| index.contains(***d)).count();
    let zero_fraction = if n == 0.0 { 0.0 } else { zeros as f64 / n };
    let similarity = if nonzero.is_empty() {
        0.0
    } else {
        reused as f64 / nonzero.len() as f64
    };
    (Ratio::new(similarity), Ratio::new(zero_fraction))
}

/// Compares the closed-form estimate against one measured report.
fn check_estimate(
    what: &str,
    predicted: estimate::MigrationEstimate,
    actual: &MigrationReport,
) -> Result<(), String> {
    if predicted.traffic != actual.source_traffic() {
        return Err(format!(
            "{what}: estimate traffic {} != pipeline traffic {} ({} vs {} bytes)",
            predicted.traffic,
            actual.source_traffic(),
            predicted.traffic.as_u64(),
            actual.source_traffic().as_u64(),
        ));
    }
    let p = predicted.time.as_secs_f64();
    let a = actual.total_time().as_secs_f64();
    let err = (p - a).abs();
    if err > TIME_ATOL_SECS && err > TIME_RTOL * a.max(1e-12) {
        return Err(format!(
            "{what}: estimate time {p:.6}s vs pipeline time {a:.6}s (err {err:.6}s)"
        ));
    }
    Ok(())
}

/// Core replay shared by the checkpoint and trace oracles: migrate
/// `vm` against `index` under VeCycle and under the full baseline,
/// checking estimator agreement for both.
fn replay(vm: &DigestMemory, index: Arc<ChecksumIndex>) -> Result<OracleOutcome, String> {
    let pages = vm.page_count().as_usize();
    if pages == 0 || pages > MAX_ORACLE_PAGES {
        return Ok(OracleOutcome::Skipped);
    }
    let (similarity, zero_fraction) = exact_fractions(vm, &index);
    let cpu = CpuSpec::phenom_ii();
    let link = LinkSpec::lan_gigabit();
    let engine = MigrationEngine::new(link);
    let migrate = |strategy: Strategy| {
        engine
            .migrate(vm, strategy)
            .map_err(|e| format!("migrate failed: {e}"))
    };

    let predicted = estimate::estimate_vecycle(
        vm.ram_size(),
        similarity,
        zero_fraction,
        link,
        &cpu,
        vecycle_hash::ChecksumAlgorithm::Md5,
    );
    check_estimate(
        "vecycle",
        predicted,
        &migrate(Strategy::vecycle_with_index(index))?,
    )?;
    let predicted = estimate::estimate_full(vm.ram_size(), zero_fraction, link);
    check_estimate("full", predicted, &migrate(Strategy::full())?)?;
    Ok(OracleOutcome::Checked)
}

/// Differential replay of a parsed checkpoint.
///
/// The guest image is the checkpoint's own restore, deterministically
/// diverged: every third page is rewritten with novel content keyed by
/// its index, so the migration mixes checksum hits, novel sends and
/// (for zero pages) suppression — a fixed, reproducible workload shape
/// whatever bytes the fuzzer found.
pub fn checkpoint_oracle(cp: &Checkpoint) -> Result<OracleOutcome, String> {
    let mut digests = cp.digests();
    if digests.len() > MAX_ORACLE_PAGES {
        return Ok(OracleOutcome::Skipped);
    }
    let index = Arc::new(ChecksumIndex::from_pages(&digests));
    for (i, d) in digests.iter_mut().enumerate() {
        if i % 3 == 0 {
            *d = PageDigest::from_content_id(0x5eed_0000_0000_u64 | (i as u64 + 1));
        }
    }
    replay(&DigestMemory::from_digests(digests), index)
}

/// Differential replay of a parsed trace: the oldest fingerprint plays
/// the destination's checkpoint, the newest plays the live guest — the
/// paper's recycling shape, driven by fuzz-found digest patterns.
pub fn trace_oracle(trace: &Trace) -> Result<OracleOutcome, String> {
    let fps = trace.fingerprints();
    let (first, last) = match (fps.first(), fps.last()) {
        (Some(f), Some(l)) => (f, l),
        _ => return Ok(OracleOutcome::Skipped),
    };
    let index = Arc::new(ChecksumIndex::from_pages(first.pages()));
    replay(&DigestMemory::from_digests(last.pages().to_vec()), index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecycle_types::{PageCount, SimTime, VmId};

    #[test]
    fn checkpoint_oracle_agrees_on_valid_inputs() {
        let mem = DigestMemory::with_distinct_content(PageCount::new(64), 5);
        let cp = Checkpoint::capture(VmId::new(1), SimTime::EPOCH, &mem);
        assert_eq!(checkpoint_oracle(&cp), Ok(OracleOutcome::Checked));
    }

    #[test]
    fn empty_checkpoint_is_skipped() {
        let mem = DigestMemory::from_digests(Vec::new());
        let cp = Checkpoint::capture(VmId::new(1), SimTime::EPOCH, &mem);
        assert_eq!(checkpoint_oracle(&cp), Ok(OracleOutcome::Skipped));
    }

    #[test]
    fn all_zero_checkpoint_is_checked() {
        let cp = Checkpoint::capture(
            VmId::new(2),
            SimTime::EPOCH,
            &DigestMemory::zeroed(PageCount::new(32)),
        );
        assert_eq!(checkpoint_oracle(&cp), Ok(OracleOutcome::Checked));
    }

    #[test]
    fn trace_oracle_agrees_on_a_generated_trace() {
        use vecycle_trace::{Fingerprint, Trace};
        let a: Vec<PageDigest> = (0..40).map(PageDigest::from_content_id).collect();
        let b: Vec<PageDigest> = (0..40)
            .map(|i| PageDigest::from_content_id(if i % 4 == 0 { 1000 + i } else { i }))
            .collect();
        let trace = Trace::from_parts(
            vecycle_types::Bytes::from_pages(40),
            vec![
                Fingerprint::new(SimTime::EPOCH, a),
                Fingerprint::new(SimTime::EPOCH, b),
            ],
        );
        assert_eq!(trace_oracle(&trace), Ok(OracleOutcome::Checked));
    }
}
