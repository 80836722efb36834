//! `vecycle-cli` as a library: the argument grammars and subcommand
//! dispatch behind the `vecycle` binary.
//!
//! The split exists so the grammars in [`args`] — `parse_size`,
//! `parse_link`, `parse_duration`, `parse_faults` — are reachable from
//! the adversarial-hardening harness (`vecycle-fuzz`): anything an
//! operator can type on a command line is a parser input surface, and
//! surfaces need fuzz targets.

pub mod args;
pub mod commands;
pub mod daemon_cmd;
mod fleet_cmd;
