//! [`ExperimentLog`]: machine-readable results for `EXPERIMENTS.md`.

use serde::{Deserialize, Serialize};

/// One named measurement of one experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// Which experiment this belongs to (e.g. `"fig6"`).
    pub experiment: String,
    /// A point label (e.g. `"lan/4096MiB/vecycle"`).
    pub label: String,
    /// Metric name (e.g. `"migration_time_s"`).
    pub metric: String,
    /// The measured value.
    pub value: f64,
}

/// An append-only log of experiment results, serializable to JSON.
///
/// # Examples
///
/// ```
/// use vecycle_analysis::ExperimentLog;
///
/// let mut log = ExperimentLog::new();
/// log.record("fig6", "lan/1024/vecycle", "time_s", 3.1);
/// let json = log.to_json().unwrap();
/// assert!(json.contains("fig6"));
/// let back = ExperimentLog::from_json(&json).unwrap();
/// assert_eq!(back.records().len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExperimentLog {
    records: Vec<ExperimentRecord>,
}

impl ExperimentLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        ExperimentLog::default()
    }

    /// Appends one record.
    pub fn record(
        &mut self,
        experiment: impl Into<String>,
        label: impl Into<String>,
        metric: impl Into<String>,
        value: f64,
    ) {
        self.records.push(ExperimentRecord {
            experiment: experiment.into(),
            label: label.into(),
            metric: metric.into(),
            value,
        });
    }

    /// All records, in insertion order.
    pub fn records(&self) -> &[ExperimentRecord] {
        &self.records
    }

    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates serialization failures (practically unreachable for
    /// this type).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a log back from JSON.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Renders the log as a Markdown section per experiment, one table
    /// each — the format `EXPERIMENTS.md` embeds.
    pub fn render_markdown(&self) -> String {
        use std::collections::BTreeMap;
        let mut by_exp: BTreeMap<&str, Vec<&ExperimentRecord>> = BTreeMap::new();
        for r in &self.records {
            by_exp.entry(&r.experiment).or_default().push(r);
        }
        let mut out = String::new();
        for (exp, records) in by_exp {
            out.push_str(&format!("## {exp}\n\n"));
            out.push_str("| label | metric | value |\n|---|---|---|\n");
            for r in records {
                out.push_str(&format!(
                    "| {} | {} | {:.4} |\n",
                    r.label, r.metric, r.value
                ));
            }
            out.push('\n');
        }
        out
    }

    /// Writes the log as JSON to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O and serialization failures.
    pub fn write_json_file(&self, path: &std::path::Path) -> vecycle_types::Result<()> {
        let json = self
            .to_json()
            .map_err(|e| vecycle_types::Error::InvalidConfig {
                reason: format!("serialization failed: {e}"),
            })?;
        std::fs::write(path, json)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut log = ExperimentLog::new();
        log.record("fig1", "server-a/24h", "avg_similarity", 0.31);
        log.record("fig6", "lan/1024/full", "time_s", 9.6);
        let json = log.to_json().unwrap();
        let back = ExperimentLog::from_json(&json).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn markdown_groups_by_experiment() {
        let mut log = ExperimentLog::new();
        log.record("fig6", "lan/1024/qemu", "time_s", 8.6);
        log.record("fig1", "server-a/24h", "avg", 0.34);
        log.record("fig6", "lan/1024/vecycle", "time_s", 2.9);
        let md = log.render_markdown();
        // Experiments sorted, each with its own section and rows.
        let fig1_pos = md.find("## fig1").unwrap();
        let fig6_pos = md.find("## fig6").unwrap();
        assert!(fig1_pos < fig6_pos);
        assert_eq!(md.matches("| lan/").count(), 2);
        assert!(md.contains("| server-a/24h | avg | 0.3400 |"));
    }

    #[test]
    fn file_round_trip() {
        let mut log = ExperimentLog::new();
        log.record("fig8", "migration-3", "traffic_pct", 24.0);
        let dir = std::env::temp_dir().join("vecycle-analysis-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.json");
        log.write_json_file(&path).unwrap();
        let back = ExperimentLog::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, log);
    }
}
