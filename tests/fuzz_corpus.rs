//! The daemon-facing fuzz corpora replay clean: every committed entry
//! under `fuzz/corpus/` for a parser that reads a socket or the daemon's
//! disk goes through its target's harness and differential oracle
//! again, and none is a finding. The entry counts pin the corpora, so a
//! directory that empties or loses an entry fails here too.

use std::path::Path;

use vecycle_fuzz::replay_corpus;
use vecycle_fuzz::targets::find_target;

/// Each replayed target and the entries its corpus holds.
const CORPORA: [(&str, u64); 7] = [
    ("wire_msg", 13),
    ("handshake", 18),
    ("ctrl_frame", 4),
    ("partial_log", 8),
    ("partial_log_fix", 10),
    ("wal", 11),
    ("wal_fix", 12),
];

#[test]
fn daemon_facing_corpora_replay_without_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fuzz/corpus");
    for (name, entries) in CORPORA {
        let target = find_target(name).expect("a registered target");
        let report = replay_corpus(&target, &root).expect("the corpus reads");
        assert_eq!(report.entries, entries, "{name}: corpus entries");
        let findings: Vec<_> = report.findings.iter().map(|f| &f.detail).collect();
        assert!(findings.is_empty(), "{name}: {findings:?}");
    }
}
