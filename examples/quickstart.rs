//! Quickstart: schedule two small DAG workflows on a 4-site grid.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! This is the smallest end-to-end use of the public API: build a
//! scenario (grid + workload + SPHINX configuration), run it, inspect the
//! report and the telemetry counters, and write the run's JSONL trace.

use sphinx::core::strategy::StrategyKind;
use sphinx::workloads::{grid3, Scenario};

fn main() {
    let scenario = Scenario::builder()
        .seed(42)
        .sites(grid3::catalog_small())
        .dags(2, 20) // 2 DAGs × 20 jobs
        .strategy(StrategyKind::CompletionTime)
        .build();

    println!("Scheduling 2 DAGs × 20 jobs on a 4-site grid…\n");
    let mut rt = scenario.build_runtime();

    let report = rt.run();
    // Every trace event of the run (FSA transitions, plan cycles, grid
    // lifecycle, …), one JSON object a line.
    std::fs::write("quickstart_trace.jsonl", rt.telemetry().trace_jsonl())
        .expect("write trace file");

    println!("strategy:            {}", report.strategy);
    println!("finished:            {}", report.finished);
    println!("jobs completed:      {}", report.jobs_completed);
    println!(
        "avg DAG completion:  {:.0} s",
        report.avg_dag_completion_secs
    );
    println!("avg job exec time:   {:.1} s", report.avg_exec_secs);
    println!("avg job idle time:   {:.1} s", report.avg_idle_secs);
    println!(
        "timeouts/replans:    {}/{}",
        report.timeouts,
        report.reschedules()
    );

    println!("\nper-site distribution:");
    for site in &report.sites {
        println!(
            "  {:<8} {:>3} completed, {:>2} cancelled, avg completion {}",
            site.name,
            site.completed,
            site.cancelled,
            site.avg_completion_secs
                .map(|v| format!("{v:.0} s"))
                .unwrap_or_else(|| "-".into()),
        );
    }

    let t = &report.telemetry;
    println!("\ntelemetry ({} distinct metrics):", t.distinct_metrics());
    println!("  plan cycles:       {}", t.counter("plan.cycles"));
    println!("  grid submits:      {}", t.counter("grid.submits"));
    println!("  grid completions:  {}", t.counter("grid.completions"));
    println!("  WAL appends:       {}", t.counter("wal.appends"));
    println!(
        "  trace events:      {} (written to quickstart_trace.jsonl)",
        t.trace_recorded
    );

    assert!(report.finished, "quickstart should always finish");
}
