//! The benchmark's contract: every metric's name, unit, direction and
//! (end to end) bound. `BENCHMARK.json` at the repository root is this
//! table printed by `run.sh contract`; a unit test keeps the two equal.

use crate::{object, workloads};
use serde_json::Value;
use std::collections::BTreeMap;

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// Relative worsening that counts as a regression (end to end only).
    pub bound: Option<f64>,
}

fn metric(name: impl Into<String>, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// Seconds one driver run measures for.
pub const RUN_SECONDS: u64 = 20;

pub fn end_to_end() -> Vec<Metric> {
    [
        ("wall_s", "s", "lower", 0.24),
        ("jobs_per_s", "jobs/s", "higher", 0.24),
        ("setup_s", "s", "lower", 0.25),
        ("recover_s", "s", "lower", 0.24),
        ("peak_rss_mb", "MiB", "lower", 0.05),
        ("sim_avg_dag_s", "sim_s", "lower", 0.16),
    ]
    .into_iter()
    .map(|(name, unit, better, bound)| Metric {
        bound: Some(bound),
        ..metric(name, unit, better)
    })
    .collect()
}

/// Every layer boundary a span is put around; each reports `.s` (busy
/// seconds) and `.n` (calls).
pub const BOUNDARIES: [&str; 29] = [
    "workloads.build",
    "core.server.submit_dag",
    "grid.step",
    "grid.poll",
    "grid.snapshots",
    "monitor.sample",
    "monitor.reports",
    "core.client.on_notification",
    "core.client.submit_plan",
    "core.client.scan_timeouts",
    "db.queue.inbox_push",
    "db.queue.inbox_drain",
    "db.queue.outbox_push",
    "db.queue.outbox_drain",
    "core.server.handle_report",
    "core.server.plan_cycle",
    "core.runtime.planner_tick",
    "db.wal.append",
    "db.wal.rewrite",
    "ops.tick",
    "ops.publish",
    // The last eight are timed on the untraced runtime's public calls.
    "core.runtime.drive",
    "core.runtime.build_report",
    "telemetry.snapshot",
    "telemetry.analyze",
    "db.recover",
    "core.server.recover",
    "core.shard.drive",
    "core.shard.build_report",
];

/// Boundaries whose per-call tail is reported.
pub const TAILS: [&str; 5] = [
    "core.server.handle_report",
    "core.server.plan_cycle",
    "core.runtime.planner_tick",
    "db.queue.inbox_drain",
    "grid.step",
];

/// Boundaries whose self time (span minus `db.wal.*` children) is
/// reported; `db.queue` is the four queue boundaries together.
pub const SELF_TIMES: [&str; 3] = [
    "core.server.handle_report",
    "core.server.plan_cycle",
    "db.queue",
];

pub fn per_layer() -> Vec<Metric> {
    let mut out = Vec::new();
    for b in BOUNDARIES {
        out.push(metric(format!("{b}.s"), "s", "lower"));
        out.push(metric(format!("{b}.n"), "count", "lower"));
    }
    for b in TAILS {
        for stat in ["p50_us", "p90_us", "p99_us", "max_us"] {
            out.push(metric(format!("{b}.{stat}"), "us", "lower"));
        }
        out.push(metric(format!("{b}.max_has_checkpoint"), "bool", "lower"));
    }
    for b in SELF_TIMES {
        out.push(metric(format!("{b}.self_s"), "s", "lower"));
    }
    for (name, unit, better) in [
        ("db.wal.bytes", "bytes", "lower"),
        ("db.wal.lines_final", "count", "lower"),
        ("db.rows_read", "count", "lower"),
        ("db.cache_hits", "count", "higher"),
        ("db.commits", "count", "lower"),
        ("db.recover.replayed", "count", "lower"),
        ("telemetry.trace_events", "count", "lower"),
        ("telemetry.trace_dropped", "count", "lower"),
        ("telemetry.spans_total", "count", "lower"),
        ("telemetry.spans_dropped", "count", "lower"),
        ("plan.score_cache_hits", "count", "higher"),
        ("plan.score_cache_misses", "count", "lower"),
        ("sim.events", "count", "lower"),
        ("core.plans", "count", "lower"),
        ("core.timeouts", "count", "lower"),
        ("core.holds", "count", "lower"),
        ("ops.alerts", "count", "lower"),
        ("shard.heartbeats", "count", "lower"),
        ("shard.adoptions", "count", "lower"),
        ("trace.valid", "bool", "higher"),
        ("trace.attributed_share", "ratio", "higher"),
        ("trace.overhead_share", "ratio", "lower"),
    ] {
        out.push(metric(name, unit, better));
    }
    out
}

/// Every contracted per-layer metric as `(name, value, unit)`: the value
/// measured, or 0 where it was not (or was withheld).
pub fn per_layer_values(measured: &BTreeMap<String, f64>) -> Vec<(String, f64, &'static str)> {
    per_layer()
        .into_iter()
        .map(|m| {
            let value = measured.get(&m.name).copied().unwrap_or(0.0);
            (m.name, value, m.unit)
        })
        .collect()
}

const WHY: [&str; 5] = [
    "120 healthy sites, 200 DAGs x 50 jobs: scheduler-bound reference size; track, db queues and telemetry analysis do the work",
    "15-site Grid3 with background load, 2 black holes, 3 flaky sites, ops plane on: timeouts, holds, replans, grid events carry weight",
    "steady plus per-site quotas and EDF deadlines: policy filtering, quota ledger, per-job candidate sets that defeat the score cache",
    "steady over an explicit WAL, server killed at sim t=1200 s and recovered: replay and decode of the log beside the appends",
    "steady on 4 shards with one torn-WAL shard crash: leases, inboxes, ledger and one adoption; guards the one-driver refactor",
];

/// The contents of `BENCHMARK.json`.
pub fn contract() -> Value {
    let strings = |items: &[&str]| {
        Value::Array(
            items
                .iter()
                .map(|s| Value::String((*s).to_owned()))
                .collect(),
        )
    };
    let describe = |m: &Metric| {
        let mut pairs = vec![
            ("name", Value::String(m.name.clone())),
            ("unit", Value::String(m.unit.to_owned())),
            ("better", Value::String(m.better.to_owned())),
        ];
        if let Some(bound) = m.bound {
            pairs.push(("bound", serde_json::json!(bound)));
        }
        object(pairs)
    };
    object(vec![
        ("command", strings(&["bash", "benchmark/run.sh"])),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", serde_json::json!(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                workloads::NAMES
                    .iter()
                    .zip(WHY)
                    .map(|(name, why)| {
                        object(vec![
                            ("name", Value::String((*name).to_owned())),
                            ("why", Value::String(why.to_owned())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(end_to_end().iter().map(describe).collect()),
        ),
        (
            "per_layer",
            Value::Array(per_layer().iter().map(describe).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let on_disk: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            contract(),
            "regenerate with `benchmark/run.sh contract`"
        );
    }

    #[test]
    fn contract_stays_inside_the_drivers_limits() {
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let mut names: Vec<String> = end_to_end()
            .into_iter()
            .chain(layers)
            .map(|m| m.name)
            .collect();
        names.extend(workloads::NAMES.iter().map(|n| (*n).to_owned()));
        let total = names.len();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(WHY.iter().all(|w| w.len() <= 200 && !w.contains('\n')));
        assert!(end_to_end()
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
    }
}
