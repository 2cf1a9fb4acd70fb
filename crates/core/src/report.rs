//! Experiment output: everything the paper's figures are built from.

use serde::{Deserialize, Serialize};
use sphinx_data::SiteId;
use sphinx_telemetry::{TelemetrySnapshot, TraceAnalysis};

/// Per-site outcome line (Figure 6's site-wise distribution).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteOutcome {
    /// Which site.
    pub site: SiteId,
    /// Its catalog name.
    pub name: String,
    /// Jobs completed there (tracker-confirmed).
    pub completed: u64,
    /// Jobs cancelled there (held/killed/timed out).
    pub cancelled: u64,
    /// Average observed job completion time there, seconds.
    pub avg_completion_secs: Option<f64>,
}

/// The result of one experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Strategy label (e.g. `completion-time`).
    pub strategy: String,
    /// Whether feedback was enabled.
    pub feedback: bool,
    /// Whether policy constraints were enabled.
    pub policy: bool,
    /// Experiment seed.
    pub seed: u64,
    /// Whether every DAG finished before the horizon.
    pub finished: bool,
    /// Wall-clock (simulated) end time of the run, seconds.
    pub makespan_secs: f64,
    /// Number of DAGs submitted.
    pub dags: usize,
    /// Average DAG completion time, seconds (Figures 2–5, 7a).
    pub avg_dag_completion_secs: f64,
    /// Per-DAG completion times, seconds.
    pub dag_completion_secs: Vec<f64>,
    /// Jobs that ran to completion.
    pub jobs_completed: usize,
    /// Jobs eliminated by the DAG reducer.
    pub jobs_eliminated: usize,
    /// Average execution time per completed job, seconds (Figures 3b–5b,
    /// 7b, "Execution").
    pub avg_exec_secs: f64,
    /// Average batch-queue idle time per completed job, seconds
    /// (Figures 3b–5b, 7b, "Idle").
    pub avg_idle_secs: f64,
    /// Total plans issued.
    pub plans: u64,
    /// Reschedules caused by tracker timeouts (Figure 8).
    pub timeouts: u64,
    /// Reschedules caused by held/killed reports.
    pub holds: u64,
    /// DAGs with a QoS deadline that finished in time.
    #[serde(default)]
    pub deadlines_met: usize,
    /// DAGs with a QoS deadline that finished late (or not at all).
    #[serde(default)]
    pub deadlines_missed: usize,
    /// Per-site outcomes (Figure 6).
    pub sites: Vec<SiteOutcome>,
    /// Metrics gathered across the whole run (counters, dwell-time and
    /// latency histograms, per-site grid tallies).
    #[serde(default)]
    pub telemetry: TelemetrySnapshot,
    /// Span-graph analysis: per-DAG critical paths and the slowest jobs
    /// with per-state dwell blame.
    #[serde(default)]
    pub analysis: TraceAnalysis,
}

impl RunReport {
    /// Total reschedules (timeouts + holds).
    pub fn reschedules(&self) -> u64 {
        self.timeouts + self.holds
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{}{}{}: avg dag {:.0}s, exec {:.0}s, idle {:.0}s, {} jobs, {} timeouts, {} holds{}",
            self.strategy,
            if self.feedback { "" } else { " (no feedback)" },
            if self.policy { " (policy)" } else { "" },
            self.avg_dag_completion_secs,
            self.avg_exec_secs,
            self.avg_idle_secs,
            self.jobs_completed,
            self.timeouts,
            self.holds,
            if self.finished { "" } else { " [HORIZON HIT]" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            strategy: "round-robin".into(),
            feedback: false,
            policy: false,
            seed: 1,
            finished: true,
            makespan_secs: 5000.0,
            dags: 2,
            avg_dag_completion_secs: 4000.0,
            dag_completion_secs: vec![3500.0, 4500.0],
            jobs_completed: 200,
            jobs_eliminated: 0,
            avg_exec_secs: 60.0,
            avg_idle_secs: 120.0,
            plans: 230,
            timeouts: 20,
            holds: 10,
            deadlines_met: 0,
            deadlines_missed: 0,
            sites: vec![
                SiteOutcome {
                    site: SiteId(0),
                    name: "acdc".into(),
                    completed: 150,
                    cancelled: 5,
                    avg_completion_secs: Some(180.0),
                },
                SiteOutcome {
                    site: SiteId(1),
                    name: "atlas".into(),
                    completed: 50,
                    cancelled: 25,
                    avg_completion_secs: Some(400.0),
                },
            ],
            telemetry: TelemetrySnapshot::default(),
            analysis: TraceAnalysis::default(),
        }
    }

    #[test]
    fn derived_quantities() {
        let r = report();
        assert_eq!(r.reschedules(), 30);
    }

    #[test]
    fn summary_mentions_key_numbers() {
        let s = report().summary();
        assert!(s.contains("round-robin"));
        assert!(s.contains("no feedback"));
        assert!(s.contains("20 timeouts"));
    }

    #[test]
    fn serializes_to_json() {
        let r = report();
        let json = serde_json::to_string(&r).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
