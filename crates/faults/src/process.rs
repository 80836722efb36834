//! Process-level kill injection for crash-durability testing.
//!
//! The chaos harness needs a daemon to die *exactly* at a seeded point
//! — "after the 300th data message", not "roughly when a timer on the
//! other side of a pipe fires". So the kill is injected from inside:
//! the target process reads a [`KillSpec`] from `VECYCLE_KILL_AT` at
//! startup and [`KillSwitch`] aborts the process (no destructors, no
//! flushes, no atexit — the closest portable stand-in for `SIGKILL`)
//! when execution reaches the named point. The restarted process runs
//! without the variable and sails past the same point.
//!
//! Spec grammar: `<role>:<point>[:<after>]` —
//! `source:pre-claim`, `dest:mid-bulk:300`, `source:pre-commit`.
//! `mid-bulk` counts data-plane messages and kills when the counter
//! reaches `after` (default 256); the other points kill on first hit.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which side of a migration session the kill targets. Both daemons run
/// the same binary; the role selects the code path that may abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillRole {
    /// The daemon driving the job (connects, streams the transcript).
    Source,
    /// The daemon receiving the stream.
    Dest,
}

impl fmt::Display for KillRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            KillRole::Source => "source",
            KillRole::Dest => "dest",
        })
    }
}

/// Where in a session's lifecycle the process dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPoint {
    /// Source: before the scheduler takes the per-host claim.
    /// Dest: before the inbound session claims the destination host.
    PreClaim,
    /// Mid data-plane stream, after `after` messages (sent or applied).
    MidBulk,
    /// Source: after the peer confirmed completion but before the
    /// `done` journal record lands. Dest: after the COMPLETE frame but
    /// before the DONE verdict is sent.
    PreCommit,
}

impl fmt::Display for KillPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            KillPoint::PreClaim => "pre-claim",
            KillPoint::MidBulk => "mid-bulk",
            KillPoint::PreCommit => "pre-commit",
        })
    }
}

/// A parsed kill-injection spec: role, point, and (for counted points)
/// how many hits to let pass before aborting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// The session role whose code path aborts.
    pub role: KillRole,
    /// The lifecycle point that aborts.
    pub point: KillPoint,
    /// For [`KillPoint::MidBulk`]: abort when the counter reaches this
    /// value. Ignored (and normalized to 1) for point kills.
    pub after: u64,
}

impl KillSpec {
    /// Parses `<role>:<point>[:<after>]`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed part.
    pub fn parse(s: &str) -> Result<KillSpec, String> {
        let mut parts = s.split(':');
        let role = match parts.next() {
            Some("source") => KillRole::Source,
            Some("dest") => KillRole::Dest,
            other => return Err(format!("kill role {other:?}: want source|dest")),
        };
        let point = match parts.next() {
            Some("pre-claim") => KillPoint::PreClaim,
            Some("mid-bulk") => KillPoint::MidBulk,
            Some("pre-commit") => KillPoint::PreCommit,
            other => {
                return Err(format!(
                    "kill point {other:?}: want pre-claim|mid-bulk|pre-commit"
                ))
            }
        };
        let after = match (point, parts.next()) {
            (KillPoint::MidBulk, None) => 256,
            (KillPoint::MidBulk, Some(n)) => n
                .parse::<u64>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("kill count {n:?}: want a positive integer"))?,
            (_, None) => 1,
            (_, Some(extra)) => return Err(format!("unexpected kill spec part {extra:?}")),
        };
        if parts.next().is_some() {
            return Err(format!("trailing garbage in kill spec {s:?}"));
        }
        Ok(KillSpec { role, point, after })
    }

    /// Reads `VECYCLE_KILL_AT` from the environment; unset or empty
    /// means no injection. A malformed value panics — a chaos run with
    /// a typo'd kill spec must not silently become a clean run.
    pub fn from_env() -> Option<KillSpec> {
        let raw = std::env::var("VECYCLE_KILL_AT").ok()?;
        if raw.is_empty() {
            return None;
        }
        Some(KillSpec::parse(&raw).unwrap_or_else(|e| panic!("VECYCLE_KILL_AT: {e}")))
    }
}

impl fmt::Display for KillSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.point {
            KillPoint::MidBulk => write!(f, "{}:{}:{}", self.role, self.point, self.after),
            _ => write!(f, "{}:{}", self.role, self.point),
        }
    }
}

/// The armed (or inert) kill switch a process carries. Cheap to probe:
/// a `None` switch is two compares per hit site.
#[derive(Debug)]
pub struct KillSwitch {
    spec: Option<KillSpec>,
    count: AtomicU64,
}

impl KillSwitch {
    /// A switch armed with `spec` (or inert when `None`).
    pub fn new(spec: Option<KillSpec>) -> KillSwitch {
        KillSwitch {
            spec,
            count: AtomicU64::new(0),
        }
    }

    /// An inert switch: every probe is a no-op.
    pub fn inert() -> KillSwitch {
        KillSwitch::new(None)
    }

    /// The armed spec, if any.
    pub fn spec(&self) -> Option<KillSpec> {
        self.spec
    }

    /// Probes a kill site: counts a role+point match and aborts once the
    /// count reaches the spec's `after` — 1 for a point kill, so its
    /// first hit.
    pub fn hit(&self, role: KillRole, point: KillPoint) {
        let Some(spec) = self.spec else { return };
        if spec.role != role || spec.point != point {
            return;
        }
        let n = self.count.fetch_add(1, Ordering::SeqCst) + 1;
        if n >= spec.after {
            // SIGKILL semantics: immediate termination, no unwinding, no
            // buffered-writer flushes — whatever reached the kernel is
            // all that survives.
            eprintln!("vecycle-faults: kill switch fired at {spec}");
            std::process::abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parse_and_display_round_trip() {
        for s in ["source:pre-claim", "dest:mid-bulk:300", "source:pre-commit"] {
            assert_eq!(KillSpec::parse(s).unwrap().to_string(), s);
        }
        assert_eq!(KillSpec::parse("dest:mid-bulk").unwrap().after, 256);
        assert_eq!(KillSpec::parse("source:pre-claim").unwrap().after, 1);
    }

    #[test]
    fn malformed_specs_are_rejected_with_the_offending_part() {
        for (s, needle) in [
            ("", "kill role"),
            ("karl:pre-claim", "kill role"),
            ("source:lunch", "kill point"),
            ("source:mid-bulk:0", "kill count"),
            ("source:mid-bulk:x", "kill count"),
            ("source:pre-claim:1", "unexpected"),
            ("source:mid-bulk:1:2", "trailing"),
        ] {
            let err = KillSpec::parse(s).unwrap_err();
            assert!(err.contains(needle), "{s:?}: {err}");
        }
    }

    #[test]
    fn inert_switch_never_counts() {
        let sw = KillSwitch::inert();
        for _ in 0..1000 {
            sw.hit(KillRole::Source, KillPoint::MidBulk);
        }
        assert_eq!(sw.count.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn mismatched_role_or_point_does_not_arm_the_counter() {
        let sw = KillSwitch::new(Some(KillSpec::parse("dest:mid-bulk:5").unwrap()));
        // Same point, wrong role; same role, wrong point: both inert.
        for _ in 0..100 {
            sw.hit(KillRole::Source, KillPoint::MidBulk);
            sw.hit(KillRole::Dest, KillPoint::PreCommit);
        }
        assert_eq!(sw.count.load(Ordering::SeqCst), 0);
        // Matching probes below the threshold count but do not abort.
        for _ in 0..4 {
            sw.hit(KillRole::Dest, KillPoint::MidBulk);
        }
        assert_eq!(sw.count.load(Ordering::SeqCst), 4);
    }
}
