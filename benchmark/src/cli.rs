//! What the two binaries share of the command line: the flags of one
//! run, its result object, and the rule for how many repeats fit.

use crate::workloads::Workload;
use crate::{metrics, object};
use serde_json::Value;
use sphinx_core::RunReport;
use std::path::PathBuf;
use std::time::Instant;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Measure exactly this many repeats instead of filling `seconds`.
    pub repeats: Option<usize>,
    /// Where `trace-<workload>.json` and suite results go.
    pub out: PathBuf,
    /// Suite result file (default `<out>/result-seed<N>.json`).
    pub result: Option<PathBuf>,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 1000,
            seconds: metrics::RUN_SECONDS as f64,
            trace: false,
            repeats: None,
            out: PathBuf::from("benchmark/out"),
            result: None,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} {value}: not {what}");
            match flag.as_str() {
                "--workload" => args.workload = Some(value.clone()),
                "--seed" => args.seed = value.parse().map_err(|_| bad("a seed"))?,
                "--seconds" => {
                    args.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| bad("a positive number of seconds"))?
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                "--repeats" => {
                    args.repeats = Some(
                        value
                            .parse()
                            .ok()
                            .filter(|r| *r >= 1)
                            .ok_or_else(|| bad("a count of at least 1"))?,
                    )
                }
                "--out" => args.out = PathBuf::from(value),
                "--result" => args.result = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(args)
    }

    /// Whether to measure once more: exactly `--repeats` when given, else
    /// `at_least` and then as many as fit in `--seconds`.
    pub fn another(&self, at_least: usize, done: usize, started: Instant) -> bool {
        match self.repeats {
            Some(r) => done < r,
            None => {
                let elapsed = started.elapsed().as_secs_f64();
                done < at_least || elapsed + elapsed / done as f64 <= self.seconds
            }
        }
    }
}

/// What one run reports.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl RunResult {
    fn to_json(&self) -> Value {
        let metrics = object(self.metrics.iter().map(|(name, value, unit)| {
            let entry = object([
                ("value", serde_json::json!(*value)),
                ("unit", Value::String((*unit).to_owned())),
            ]);
            (name.as_str(), entry)
        }));
        object([
            ("correct", Value::Bool(self.correct)),
            ("attempted", serde_json::json!(self.attempted)),
            ("failed", serde_json::json!(self.failed)),
            ("metrics", metrics),
        ])
    }

    /// Every metric by name with its unit, then the result object as the
    /// last line.
    pub fn print(&self, workload: &str, seed: u64) {
        println!("workload {workload} seed {seed}");
        println!("schedule_digest {:016x}", self.digest);
        println!(
            "ops_attempted {} ops_failed {} correct {}",
            self.attempted, self.failed, self.correct
        );
        for (name, value, unit) in &self.metrics {
            println!("{name} {value} {unit}");
        }
        println!("{}", self.to_json());
    }
}

/// The schedule a report describes must be one the inputs allow.
pub fn report_is_sane(w: &Workload, r: &RunReport) -> bool {
    let done = (r.jobs_completed + r.jobs_eliminated) as u64;
    r.dags == w.scenario.workload.dags as usize
        && done <= w.jobs
        && r.finished == (done == w.jobs)
        && r.dag_completion_secs.len() <= r.dags
        && r.dag_completion_secs.iter().all(|s| *s > 0.0)
        && r.avg_dag_completion_secs > 0.0
}

/// Jobs not `Finished` (or reduced away) at the horizon.
pub fn jobs_failed(w: &Workload, r: &RunReport) -> u64 {
    w.jobs
        .saturating_sub((r.jobs_completed + r.jobs_eliminated) as u64)
}
