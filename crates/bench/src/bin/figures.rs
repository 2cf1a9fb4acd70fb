//! Regenerate every figure of the paper (plus the DESIGN.md ablations).
//!
//! ```text
//! cargo run --release -p sphinx-bench --bin figures -- all
//! cargo run --release -p sphinx-bench --bin figures -- fig2 fig8
//! cargo run --release -p sphinx-bench --bin figures -- --quick all
//! cargo run --release -p sphinx-bench --bin figures -- --trials 5 fig3
//! ```
//!
//! Results are printed as tables and written to `results/<id>.json`; the
//! gated sweeps (`scale`, `shard`, `ops`) write one artifact each,
//! `BENCH_<id>.json` at the repo root, and nothing under `results/`.

use sphinx_bench::sweep::{self, ShardBench, SweepPoint};
use sphinx_bench::{
    aggregate, jobs_vs_speed_correlation, render_site_table, render_svg_value_bars, render_table,
    run_trials, write_json, write_svg, Aggregate,
};
use sphinx_core::StrategyKind;
use sphinx_ops::OpsConfig;
use sphinx_policy::Requirement;
use sphinx_sim::Duration;
use sphinx_telemetry::{
    chrome_trace_json, prometheus_text, validate_prometheus, TraceEvent, TraceKind,
};
use sphinx_workloads::experiments::{
    ablate_burst, ablate_fault_density, ablate_staleness, fig2, fig345, fig6, fig7, fig8, qos,
    recovery, ExperimentParams, SeriesPoint,
};
use sphinx_workloads::{FaultPlan, Scenario};
use std::path::{Path, PathBuf};

struct Options {
    quick: bool,
    trials: usize,
    ids: Vec<String>,
    results_dir: PathBuf,
}

fn parse_args() -> Options {
    let mut quick = false;
    let mut trials = 3usize;
    let mut ids = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--trials" => {
                trials = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--trials N");
            }
            id => ids.push(id.to_owned()),
        }
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = vec![
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "ablate-staleness",
            "ablate-fault",
            "ablate-burst",
            "qos",
            "recovery",
            "telemetry",
            "ops",
        ]
        .into_iter()
        .map(str::to_owned)
        .collect();
    }
    Options {
        quick,
        trials,
        ids,
        results_dir: PathBuf::from("results"),
    }
}

fn params(opts: &Options, seed: u64) -> ExperimentParams {
    if opts.quick {
        ExperimentParams {
            jobs_per_dag: 10,
            seed,
            full_catalog: true,
        }
    } else {
        ExperimentParams::paper(seed)
    }
}

fn seeds(opts: &Options) -> Vec<u64> {
    (0..opts.trials as u64).map(|i| 1000 + 7 * i).collect()
}

/// A gated sweep's one artifact: `BENCH_<id>.json` at the repo root, where
/// CI diffs it against the committed baseline.
fn write_bench<T: serde::Serialize>(id: &str, value: &T) {
    write_json(Path::new("."), &format!("BENCH_{id}"), value).expect("write sweep artifact");
    println!("{id} sweep written to BENCH_{id}.json");
}

fn emit(opts: &Options, id: &str, title: &str, rows: &[Aggregate]) {
    print!("{}", render_table(title, rows));
    write_json(&opts.results_dir, id, &rows).expect("write results");
    write_svg(&opts.results_dir, id, title, rows).expect("write charts");
}

type TrialRunner = fn(ExperimentParams) -> Vec<SeriesPoint>;

/// The multi-trial figures: `(id, title, one seeded run of every
/// configuration)`. Each is run once per seed, aggregated per label and
/// emitted as a table, `results/<id>.json` and two bar charts.
const TRIAL_FIGURES: [(&str, &str, TrialRunner); 9] = [
    (
        "fig2",
        "Figure 2: effect of feedback (3 DAGs, faulty grid)",
        fig2,
    ),
    ("fig3", "Figure 3: strategy comparison (3 DAGs)", |p| {
        fig345(p, 3)
    }),
    ("fig4", "Figure 4: strategy comparison (6 DAGs)", |p| {
        fig345(p, 6)
    }),
    ("fig5", "Figure 5: strategy comparison (12 DAGs)", |p| {
        fig345(p, 12)
    }),
    (
        "fig7",
        "Figure 7: policy-constrained scheduling (12 DAGs, per-user quotas)",
        // Tight enough to actually steer placement: each site can host
        // roughly 130 of the 1200 jobs' CPU-seconds.
        |p| fig7(p, Requirement::new(8_000, 40_000)),
    ),
    (
        "fig8",
        "Figure 8: timeouts / reschedules per strategy (12 DAGs, faulty grid)",
        fig8,
    ),
    (
        "ablate-staleness",
        "Ablation: queue-length strategy vs monitoring staleness (6 DAGs)",
        ablate_staleness,
    ),
    (
        "ablate-fault",
        "Ablation: completion vs number of black-hole sites (3 DAGs)",
        |p| ablate_fault_density(p, 4),
    ),
    (
        "ablate-burst",
        "Ablation: strategies under bursty (campaign-wave) background load (6 DAGs)",
        ablate_burst,
    ),
];

/// Compare a fresh sweep with the committed `BENCH_<id>.json` it is about
/// to overwrite: for each of `labels`, `cost` is read off both, and a
/// fresh value more than 25 % above the committed one is a regression.
/// A label either side cannot price is skipped; so is a missing artifact.
fn regressions_vs_committed<B: serde::de::DeserializeOwned>(
    id: &str,
    fresh: &B,
    labels: &[&str],
    what: &str,
    cost: impl Fn(&B, &str) -> Option<f64>,
) -> Vec<String> {
    let path = format!("BENCH_{id}.json");
    let Ok(old) = std::fs::read_to_string(&path) else {
        return Vec::new(); // no committed baseline yet
    };
    let Ok(committed) = serde_json::from_str::<B>(&old) else {
        return vec![format!("{path} exists but does not parse")];
    };
    let mut out = Vec::new();
    for label in labels {
        let (Some(new), Some(old)) = (cost(fresh, label), cost(&committed, label)) else {
            continue;
        };
        if old > 0.0 && new > old * 1.25 {
            out.push(format!(
                "{label}: {what} {new:.2} vs {old:.2} committed (+{:.0}%, limit 25%)",
                (new / old - 1.0) * 100.0
            ));
        }
    }
    out
}

/// Print regressions and fail the run if there are any.
fn exit_on(regressions: &[String]) {
    for r in regressions {
        eprintln!("regression: {r}");
    }
    if !regressions.is_empty() {
        std::process::exit(1);
    }
}

/// The shard gate's cost. Absolute microsecond means are machine- and
/// load-dependent (the plan cycles here are well under a millisecond), so
/// the gate compares the machine-independent shape instead: a point's
/// per-shard plan-cycle mean *relative to the run's own single-shard
/// baseline*.
fn per_shard_cost_vs_single(bench: &ShardBench, label: &str) -> Option<f64> {
    let planes = || {
        bench
            .points
            .iter()
            .filter_map(|p| Some((p, p.plane.as_ref()?)))
    };
    let single = planes()
        .filter(|(_, m)| m.shards == 1)
        .map(|(_, m)| m.plan_cycle_mean_us_per_shard)
        .find(|&m| m > 0.0)?;
    let (_, point) = planes().find(|(p, _)| p.label == label)?;
    Some(point.plan_cycle_mean_us_per_shard / single)
}

/// Committed artifact of the `ops` arm: how far ahead of the post-hoc
/// reliability flag the online black-hole detector fired on the seeded
/// scenario. Every field is sim-time-derived, so the file is
/// machine-independent and byte-stable across reruns.
#[derive(serde::Serialize, serde::Deserialize)]
struct OpsBench {
    seed: u64,
    window_ms: u64,
    k_windows: u32,
    alerts_total: usize,
    first_alert_ms: u64,
    first_flag_ms: u64,
    head_start_ms: u64,
}

/// The seeded black-hole scenario shared by the `ops` and `ops-smoke`
/// arms (mirrors `tests/ops_plane.rs`): round-robin keeps feeding the
/// hole, feedback is on so the post-hoc flag eventually lands, and the
/// live aggregator watches every planner tick.
fn ops_scenario(fast_path: bool) -> Scenario {
    Scenario::builder()
        .sites(sphinx_workloads::grid3::catalog_small())
        .dags(2, 8)
        .seed(1905)
        .strategy(StrategyKind::RoundRobin)
        .feedback(true)
        .timeout(Duration::from_mins(10))
        .faults(FaultPlan {
            black_holes: 1,
            flaky: 0,
            ..FaultPlan::default()
        })
        .horizon(Duration::from_secs(24 * 3600))
        .ops(OpsConfig::default())
        .ops_fast_path(fast_path)
        .build()
}

/// Run a scenario, returning the serialised `OpsAlert` stream (one JSON
/// line per alert) and every trace line of the run.
fn run_ops_traced(scenario: &Scenario) -> (String, Vec<TraceEvent>) {
    let mut rt = scenario.build_runtime();
    let report = rt.run();
    assert!(report.finished, "{}", report.summary());
    let captured = rt.telemetry().trace_events();
    let stream: Vec<String> = captured
        .iter()
        .filter(|e| e.kind == TraceKind::OpsAlert)
        .map(TraceEvent::to_json_line)
        .collect();
    (stream.join("\n"), captured)
}

/// Compare a fresh ops run against the committed `BENCH_ops.json`: the
/// detector's head start over the post-hoc flag must not shrink (the
/// sim is deterministic, so any drift is a behaviour change).
fn ops_regressions(bench: &OpsBench) -> Vec<String> {
    let Ok(old) = std::fs::read_to_string("BENCH_ops.json") else {
        return Vec::new(); // no committed baseline yet
    };
    let Ok(baseline) = serde_json::from_str::<OpsBench>(&old) else {
        return vec!["BENCH_ops.json exists but does not parse".to_owned()];
    };
    let mut out = Vec::new();
    if bench.head_start_ms < baseline.head_start_ms {
        out.push(format!(
            "black-hole detection head start shrank: {}ms vs {}ms committed",
            bench.head_start_ms, baseline.head_start_ms
        ));
    }
    out
}

fn main() {
    let opts = parse_args();
    let t0 = std::time::Instant::now(); // sphinx-lint: allow(wall-clock)
    for id in opts.ids.clone() {
        if let Some((_, title, runner)) = TRIAL_FIGURES.iter().find(|(i, ..)| *i == id) {
            let rows = run_trials(&seeds(&opts), |s| runner(params(&opts, s)));
            emit(&opts, &id, title, &rows);
            continue;
        }
        match id.as_str() {
            "fig6" => {
                // Figure 6 is per-site structure: single representative
                // trial, plus the correlation statistic over all trials.
                let all: Vec<Vec<SeriesPoint>> = seeds(&opts)
                    .iter()
                    .map(|&s| fig6(params(&opts, s)))
                    .collect();
                let representative = &all[0];
                for point in representative {
                    print!(
                        "{}",
                        render_site_table(&format!("Figure 6 ({})", point.label), point)
                    );
                }
                for (i, point) in representative.iter().enumerate() {
                    let rs: Vec<f64> = all
                        .iter()
                        .filter_map(|trial| jobs_vs_speed_correlation(&trial[i]))
                        .collect();
                    let mean = rs.iter().sum::<f64>() / rs.len().max(1) as f64;
                    println!(
                        "jobs-vs-completion-time correlation [{}]: {:.2} (negative = jobs follow fast sites)",
                        point.label, mean
                    );
                }
                write_json(&opts.results_dir, "fig6", &representative).expect("write results");
            }
            "qos" => {
                let rows = run_trials(&seeds(&opts), |s| qos(params(&opts, s)));
                emit(
                    &opts,
                    "qos",
                    "QoS extension: EDF deadline scheduling vs FIFO (12 DAGs, 3 urgent)",
                    &rows,
                );
                // Urgent-DAG completion times: the metric EDF optimises.
                let pts = qos(params(&opts, seeds(&opts)[0]));
                for p in &pts {
                    let n = p.report.dag_completion_secs.len();
                    let urgent_mean =
                        p.report.dag_completion_secs[n - 3..].iter().sum::<f64>() / 3.0;
                    println!(
                        "{:24} urgent-dag mean completion {:.0}s, deadlines met {}/{}",
                        p.label,
                        urgent_mean,
                        p.report.deadlines_met,
                        p.report.deadlines_met + p.report.deadlines_missed
                    );
                }
            }
            "recovery" => {
                let outcome = recovery(params(&opts, 1000), Duration::from_mins(8));
                println!(
                    "\n== Recovery: server crash at t=8min (mid-workload), WAL replay, resume"
                );
                println!(
                    "jobs finished before crash: {}",
                    outcome.finished_before_crash
                );
                println!("WAL entries replayed:       {}", outcome.wal_entries);
                println!(
                    "post-recovery completion:   finished={} jobs={} (+{} eliminated)",
                    outcome.report.finished,
                    outcome.report.jobs_completed,
                    outcome.report.jobs_eliminated
                );
                println!("summary: {}", outcome.report.summary());
                write_json(&opts.results_dir, "recovery", &outcome).expect("write results");
            }
            "telemetry" => {
                // One representative faulty-grid run, its JSONL trace
                // written after it, plus the FSA dwell-time figure built
                // from the run report's TelemetrySnapshot.
                let p = params(&opts, seeds(&opts)[0]);
                let scenario = Scenario::builder()
                    .seed(p.seed)
                    .faults(FaultPlan::grid3_typical())
                    .dags(3, p.jobs_per_dag)
                    .build();
                let mut rt = scenario.build_runtime();
                let report = rt.run();
                std::fs::create_dir_all(&opts.results_dir).expect("results dir");
                let trace_path = opts.results_dir.join("telemetry_trace.jsonl");
                std::fs::write(&trace_path, rt.telemetry().trace_jsonl()).expect("trace file");
                let snap = &report.telemetry;
                println!("\n== Telemetry: faulty-grid trace (seed {})", p.seed);
                println!(
                    "trace events: {} recorded, {} dropped",
                    snap.trace_recorded, snap.trace_dropped
                );
                for (name, v) in &snap.counters {
                    println!("{name:<28} {v}");
                }
                let hits = snap
                    .counters
                    .get("plan.score_cache.hits")
                    .copied()
                    .unwrap_or(0);
                let misses = snap
                    .counters
                    .get("plan.score_cache.misses")
                    .copied()
                    .unwrap_or(0);
                if hits + misses > 0 {
                    println!(
                        "planner score cache: {:.1}% hit rate, scratch buffer reused {} cycles",
                        100.0 * hits as f64 / (hits + misses) as f64,
                        snap.counters
                            .get("plan.scratch.reused")
                            .copied()
                            .unwrap_or(0)
                    );
                }
                let dwell: Vec<(String, f64)> = snap
                    .histograms
                    .iter()
                    .filter(|(name, _)| name.starts_with("fsa.dwell_ms."))
                    .map(|(name, h)| (name["fsa.dwell_ms.".len()..].to_owned(), h.mean() / 1000.0))
                    .collect();
                let svg = render_svg_value_bars("Telemetry: mean FSA state dwell time (s)", &dwell);
                std::fs::write(opts.results_dir.join("telemetry_dwell.svg"), svg)
                    .expect("write chart");
                write_json(&opts.results_dir, "telemetry", snap).expect("write results");
                println!("trace written to {}", trace_path.display());

                // Standard exporters: a Perfetto-loadable Chrome trace of
                // the span forest and a Prometheus text exposition of the
                // snapshot (self-validated before it is written).
                // Dropped telemetry is lost evidence: the live ops plane
                // and the post-hoc analysis both read the event log, so a
                // smoke run that reports a drop fails instead of warning.
                if snap.trace_dropped > 0 {
                    eprintln!(
                        "regression: {} trace events dropped (the event log keeps every record)",
                        snap.trace_dropped
                    );
                    std::process::exit(1);
                }
                if snap.spans_dropped > 0 {
                    eprintln!(
                        "regression: {} spans dropped (the event log keeps every record)",
                        snap.spans_dropped
                    );
                    std::process::exit(1);
                }
                let chrome = chrome_trace_json(&rt.telemetry().spans());
                let chrome_path = opts.results_dir.join("trace_chrome.json");
                std::fs::write(&chrome_path, chrome).expect("write chrome trace");
                println!(
                    "chrome trace written to {} (open in ui.perfetto.dev)",
                    chrome_path.display()
                );
                let prom = prometheus_text(snap);
                if let Err(e) = validate_prometheus(&prom) {
                    eprintln!("warning: prometheus exposition failed validation: {e}");
                }
                let prom_path = opts.results_dir.join("metrics.prom");
                std::fs::write(&prom_path, prom).expect("write prometheus text");
                println!("prometheus metrics written to {}", prom_path.display());

                // Critical-path report: why each DAG finished when it did.
                let analysis = &report.analysis;
                println!(
                    "spans: {} total, {} live at exit, {} dropped",
                    analysis.spans_total, analysis.spans_live, analysis.spans_dropped
                );
                for path in &analysis.critical_paths {
                    println!(
                        "dag {}: makespan {:.0}s, critical path {:.0}s across {} jobs: {:?}",
                        path.dag,
                        path.makespan_ms as f64 / 1000.0,
                        path.path_ms as f64 / 1000.0,
                        path.jobs.len(),
                        path.jobs
                    );
                }
                for blame in analysis.slowest_jobs.iter().take(5) {
                    println!(
                        "slow job {} (dag {}): {:.0}s over {} attempt(s), blame {}",
                        blame.job,
                        blame.dag,
                        blame.total_ms as f64 / 1000.0,
                        blame.attempts,
                        blame.blame
                    );
                }
            }
            "scale" => {
                // One scheduler, 15→120 sites: planner-cycle latency with
                // the storage, score-cache and WAL counters of the same
                // runs. Fails if a size's plan-cycle mean regresses >25%
                // against the committed artifact.
                let sizes: &[sweep::SizeSpec] = if opts.quick {
                    &sweep::SCALE_SIZES[..1]
                } else {
                    &sweep::SCALE_SIZES
                };
                let points = sweep::run_sweep("scale", sizes, seeds(&opts)[0]);
                print!(
                    "{}",
                    sweep::render_sweep_table("scale — one scheduler, 15→120 sites", &points)
                );
                let labels: Vec<&str> = sizes.iter().map(|s| s.label).collect();
                let regressions = regressions_vs_committed(
                    "scale",
                    &points,
                    &labels,
                    "plan_cycle_mean_us",
                    |points, label| {
                        let point = points.iter().find(|p| p.label == label)?;
                        Some(point.plan_cycle_mean_us)
                    },
                );
                write_bench("scale", &points);
                exit_on(&regressions);
            }
            "shard" => {
                // Sharded-runtime sweep: planner-cycle cost as the DAG
                // count grows 10× across 1→8 shards on a fixed grid.
                let sizes: &[sweep::SizeSpec] = if opts.quick {
                    &[sweep::SHARD_SIZES[0], sweep::SHARD_SIZES[2]]
                } else {
                    &sweep::SHARD_SIZES
                };
                let points = sweep::run_sweep("shard", sizes, seeds(&opts)[0]);
                let bench = ShardBench {
                    mean_spread: sweep::mean_spread(&points),
                    points,
                };
                print!(
                    "{}",
                    sweep::render_sweep_table(
                        "shard — planner cycle vs shard count (15 sites, 25 jobs/DAG)",
                        &bench.points
                    )
                );
                println!(
                    "per-shard plan-cycle mean vs single-shard baseline: {:.2}x worst growth (budget 2x)",
                    bench.mean_spread
                );
                let four_shard: Vec<&str> = sizes
                    .iter()
                    .filter(|s| s.shards == Some(4))
                    .map(|s| s.label)
                    .collect();
                let mut regressions = regressions_vs_committed(
                    "shard",
                    &bench,
                    &four_shard,
                    "per-shard cost as a multiple of single-shard",
                    per_shard_cost_vs_single,
                );
                write_bench("shard", &bench);
                if bench.mean_spread > 2.0 {
                    regressions.push(format!(
                        "per-shard plan-cycle mean spread {:.2}x exceeds the 2x flat-scaling budget",
                        bench.mean_spread
                    ));
                }
                let diverged =
                    |p: &SweepPoint| p.plane.as_ref().is_some_and(|m| !m.matches_unsharded);
                if bench.points.iter().any(diverged) {
                    regressions
                        .push("sharded schedule diverged from the unsharded runtime".to_owned());
                }
                exit_on(&regressions);
            }
            "ops" => {
                // Live ops plane: the online black-hole detector vs the
                // post-hoc reliability flag on a seeded black-hole run,
                // executed twice to prove the alert stream is
                // byte-identical (the aggregator lives inside the sim
                // loop, so any nondeterminism would show up here first).
                let mut regressions = Vec::new();
                let (stream_a, events) = run_ops_traced(&ops_scenario(false));
                let (stream_b, _) = run_ops_traced(&ops_scenario(false));
                println!("\n== Live ops plane: black-hole detection lead time (seed 1905)");
                if stream_a.is_empty() {
                    regressions.push("no OpsAlert events on the black-hole scenario".to_owned());
                }
                if stream_a.as_bytes() != stream_b.as_bytes() {
                    regressions.push("OpsAlert stream differs between identical reruns".to_owned());
                }
                let first_alert = events
                    .iter()
                    .find(|e| e.kind == TraceKind::OpsAlert && e.detail.starts_with("black_hole"));
                let first_flag = first_alert.and_then(|alert| {
                    events
                        .iter()
                        .find(|e| e.kind == TraceKind::SiteFlagged && e.site == alert.site)
                });
                match (first_alert, first_flag) {
                    (Some(alert), Some(flag)) => {
                        let head_start = flag.sim_time.since(alert.sim_time);
                        println!(
                            "online alert at {}, post-hoc flag at {}: head start {}",
                            alert.sim_time, flag.sim_time, head_start
                        );
                        if head_start.as_millis() == 0 {
                            regressions
                                .push("online alert did not beat the post-hoc flag".to_owned());
                        }
                        let alerts_total = stream_a.lines().count();
                        let bench = OpsBench {
                            seed: 1905,
                            window_ms: sphinx_ops::WINDOW.as_millis(),
                            k_windows: sphinx_ops::K_WINDOWS,
                            alerts_total,
                            first_alert_ms: alert.sim_time.as_millis(),
                            first_flag_ms: flag.sim_time.as_millis(),
                            head_start_ms: head_start.as_millis(),
                        };
                        regressions.extend(ops_regressions(&bench));
                        write_bench("ops", &bench);
                        std::fs::create_dir_all(&opts.results_dir).expect("results dir");
                        std::fs::write(opts.results_dir.join("ops_alerts.jsonl"), &stream_a)
                            .expect("write alert stream");
                        println!("{alerts_total} alerts in results/ops_alerts.jsonl");
                    }
                    (Some(_), None) => regressions
                        .push("no post-hoc SiteFlagged event for the alerted site".to_owned()),
                    (None, _) => regressions
                        .push("no black_hole OpsAlert on the black-hole scenario".to_owned()),
                }
                exit_on(&regressions);
            }
            "ops-smoke" => {
                // End-to-end check of the HTTP ops endpoint: run the
                // seeded scenario with the server bound to an ephemeral
                // localhost port, then fetch the three routes exactly as
                // an operator's dashboard would and persist /metrics for
                // the CI `validate-prom` step.
                use std::io::{Read, Write};
                let scenario = ops_scenario(false);
                let mut rt = scenario.build_runtime();
                let shared = rt.ops_snapshot_handle().expect("ops plane enabled");
                let telemetry = std::sync::Arc::clone(rt.telemetry());
                let mut server =
                    sphinx_ops::http::OpsServer::serve("127.0.0.1:0", shared, telemetry)
                        .expect("bind ops endpoint");
                let addr = server.addr();
                let report = rt.run();
                println!("\n== Ops endpoint smoke: serving on http://{addr}");
                println!("run finished: {}", report.summary());
                let exchange = |request: &[u8]| -> std::io::Result<(String, String)> {
                    let mut stream = std::net::TcpStream::connect(addr)?;
                    stream.write_all(request)?;
                    stream.shutdown(std::net::Shutdown::Write)?;
                    let mut raw = Vec::new();
                    stream.read_to_end(&mut raw)?;
                    let text = String::from_utf8_lossy(&raw);
                    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((&text, ""));
                    let status = head.lines().next().unwrap_or("").to_owned();
                    Ok((status, body.to_owned()))
                };
                let fetch = |path: &str| {
                    let get = format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n");
                    exchange(get.as_bytes())
                };
                let mut failures = Vec::new();
                // Requests no route takes get a status, not a dropped
                // connection.
                let pad = "x".repeat(17 * 1024);
                let refused = [
                    (
                        "POST /snapshot",
                        "POST /snapshot HTTP/1.1\r\n\r\n".to_owned(),
                        "405",
                    ),
                    (
                        "17 KiB head",
                        format!("GET / HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n"),
                        "431",
                    ),
                ];
                for (what, request, want) in refused {
                    match exchange(request.as_bytes()) {
                        Ok((status, _)) if status.split_whitespace().nth(1) == Some(want) => {
                            println!("{what:<14} {status}");
                        }
                        Ok((status, _)) => {
                            failures.push(format!("{what} returned `{status}`, not {want}"));
                        }
                        Err(e) => failures.push(format!("{what} failed: {e}")),
                    }
                }
                match fetch("/health") {
                    Ok((status, body)) if status.contains("200") && body == "ok\n" => {
                        println!("/health   {status}");
                    }
                    Ok((status, body)) => {
                        failures.push(format!("/health returned `{status}` body {body:?}"));
                    }
                    Err(e) => failures.push(format!("/health fetch failed: {e}")),
                }
                match fetch("/snapshot") {
                    Ok((status, body)) if status.contains("200") => {
                        match serde_json::from_str::<serde_json::Value>(&body) {
                            Ok(snap) => {
                                let sites = snap
                                    .get("sites")
                                    .and_then(serde_json::Value::as_array)
                                    .map(Vec::len)
                                    .unwrap_or(0);
                                let alerts = snap
                                    .get("alerts_total")
                                    .and_then(serde_json::Value::as_u64)
                                    .unwrap_or(0);
                                println!("/snapshot {status} ({sites} sites, {alerts} alerts)");
                                if sites == 0 {
                                    failures
                                        .push("/snapshot has no per-site health rows".to_owned());
                                }
                            }
                            Err(e) => failures.push(format!("/snapshot is not JSON: {e}")),
                        }
                    }
                    Ok((status, _)) => failures.push(format!("/snapshot returned `{status}`")),
                    Err(e) => failures.push(format!("/snapshot fetch failed: {e}")),
                }
                match fetch("/metrics") {
                    Ok((status, body)) if status.contains("200") => {
                        if let Err(e) = validate_prometheus(&body) {
                            failures.push(format!("/metrics failed validation: {e}"));
                        }
                        std::fs::create_dir_all(&opts.results_dir).expect("results dir");
                        let prom_path = opts.results_dir.join("metrics_ops.prom");
                        std::fs::write(&prom_path, &body).expect("write ops metrics");
                        println!(
                            "/metrics  {status} ({} lines, written to {})",
                            body.lines().count(),
                            prom_path.display()
                        );
                    }
                    Ok((status, _)) => failures.push(format!("/metrics returned `{status}`")),
                    Err(e) => failures.push(format!("/metrics fetch failed: {e}")),
                }
                server.stop();
                exit_on(&failures);
            }
            other => eprintln!("unknown experiment id `{other}` (skipped)"),
        }
    }
    // Keep the aggregate helper exercised even when ids filter everything.
    let _ = aggregate(&[]);
    eprintln!("\n[done in {:.1}s]", t0.elapsed().as_secs_f64());
}
