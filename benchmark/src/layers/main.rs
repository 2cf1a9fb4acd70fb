//! `sphinx-benchmark-layers`: the per-layer metrics of one run
//! (`--trace 1`). `sphinx-benchmark` hands such runs here.
//!
//! Each pass is an untraced reference run — its public calls timed, its
//! telemetry captured before `build_report` — beside one run of the
//! traced driver, which must reproduce the reference's telemetry trace
//! and counters byte for byte. Passes repeat while `--seconds` lasts;
//! times are medians over the passes, counts repeat exactly.

mod spans;
mod traced;

use spans::{Recorder, Span};
use sphinx_benchmark::cli::{jobs_failed, report_is_sane, Args, RunResult};
use sphinx_benchmark::endtoend::{self, timed, CrashLog, Runtime, Stage};
use sphinx_benchmark::workloads::{Deployment, Workload};
use sphinx_benchmark::{median, metrics, workloads};
use sphinx_core::SphinxServer;
use sphinx_db::Database;
use sphinx_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

type Row = BTreeMap<String, f64>;

/// A telemetry hub as it stood before `build_report` touched it: what
/// the traced driver must reproduce.
struct HubProbe {
    trace_jsonl: String,
    counters: BTreeMap<String, u64>,
}

/// What the observer collects from an untraced run: one hub per server
/// lifetime (two on `crash-recover`), probed before the report.
#[derive(Default)]
struct Observed {
    hubs: Vec<Arc<Telemetry>>,
    probes: Vec<HubProbe>,
    /// The single scheduler's database.
    db: Option<Arc<Database>>,
    /// The sharded coordination hub.
    coord: Option<Arc<Telemetry>>,
    /// `telemetry.snapshot` and `telemetry.analyze` timed on their own
    /// (`build_report` calls both again).
    snapshot_s: f64,
    analyze_s: f64,
}

impl Observed {
    fn observe(&mut self, stage: Stage, runtime: Runtime<'_>) {
        let hub = match runtime {
            Runtime::Single(rt) => {
                self.db = Some(Arc::clone(rt.server().database()));
                Arc::clone(rt.telemetry())
            }
            Runtime::Sharded(rt) => {
                self.coord = Some(Arc::clone(rt.coord_telemetry()));
                Arc::clone(rt.telemetry())
            }
        };
        let (snapshot, snapshot_s) = timed(|| hub.snapshot());
        if stage == Stage::Driven {
            let (analysis, analyze_s) = timed(|| hub.analyze(10));
            std::hint::black_box(analysis);
            (self.snapshot_s, self.analyze_s) = (snapshot_s, analyze_s);
        }
        self.probes.push(HubProbe {
            trace_jsonl: hub.trace_jsonl(),
            counters: snapshot.counters,
        });
        self.hubs.push(hub);
    }
}

/// The two layers of a recovery timed apart on the crash-time log:
/// `(db.recover seconds, core.server.recover seconds, lines replayed)`.
fn recover_layers(log: &CrashLog) -> (f64, f64, u64) {
    let wal = log.fresh_wal();
    let catalog = traced::catalog(&log.sites);
    let (db, db_s) = timed(|| Database::recover(Box::new(wal)).expect("log replays"));
    let replayed = db.replayed();
    let (server, server_s) = timed(|| {
        SphinxServer::recover(Arc::new(db), catalog, traced::server_config(&log.config))
            .expect("server recovers")
    });
    std::hint::black_box::<SphinxServer>(server);
    (db_s, server_s, replayed)
}

/// The layer view an untraced run gives beyond its public calls: the
/// exact counts its telemetry and database keep.
fn untraced_row(seen: &Observed, recovery: (f64, f64, u64)) -> Row {
    let mut row = Row::new();
    let mut put = |name: &str, value: f64| {
        row.insert(name.to_owned(), value);
    };
    put("telemetry.snapshot.s", seen.snapshot_s);
    put("telemetry.snapshot.n", 1.0);
    put("telemetry.analyze.s", seen.analyze_s);
    put("telemetry.analyze.n", 1.0);
    let (db_s, server_s, replayed) = recovery;
    put("db.recover.s", db_s);
    put("db.recover.n", 1.0);
    put("core.server.recover.s", server_s);
    put("core.server.recover.n", 1.0);
    put("db.recover.replayed", replayed as f64);

    let counter = |name: &str| seen.hubs.iter().map(|h| h.counter(name)).sum::<u64>() as f64;
    put("db.rows_read", counter("db.rows.read"));
    put("db.cache_hits", counter("db.cache.hits"));
    put("db.commits", counter("wal.appends"));
    put("plan.score_cache_hits", counter("plan.score_cache.hits"));
    put(
        "plan.score_cache_misses",
        counter("plan.score_cache.misses"),
    );
    put("ops.alerts", counter("ops.alerts"));
    let snapshots: Vec<_> = seen.hubs.iter().map(|h| h.snapshot()).collect();
    let total = |f: fn(&sphinx_telemetry::TelemetrySnapshot) -> u64| {
        snapshots.iter().map(f).sum::<u64>() as f64
    };
    put("telemetry.trace_events", total(|s| s.trace_recorded));
    put("telemetry.trace_dropped", total(|s| s.trace_dropped));
    put("telemetry.spans_total", total(|s| s.spans_total));
    put("telemetry.spans_dropped", total(|s| s.spans_dropped));
    if let Some(db) = &seen.db {
        put("db.wal.lines_final", db.log_lines() as f64);
    }
    if let Some(coord) = &seen.coord {
        put("shard.heartbeats", coord.counter("shard.heartbeats") as f64);
        put("shard.adoptions", coord.counter("shard.adoptions") as f64);
    }
    row
}

/// The layer view the traced driver's spans give.
fn traced_row(spans: &[Span], run: &traced::Traced) -> Row {
    let mut row = Row::new();
    let mut put = |name: String, value: f64| {
        row.insert(name, value);
    };
    for (name, b) in spans::busy_by_name(spans) {
        if name != traced::DRIVE {
            put(format!("{name}.s"), b.secs);
            put(format!("{name}.n"), b.calls as f64);
        }
    }
    for name in metrics::TAILS {
        let t = spans::tail(spans, name);
        put(format!("{name}.p50_us"), t.p50_us);
        put(format!("{name}.p90_us"), t.p90_us);
        put(format!("{name}.p99_us"), t.p99_us);
        put(format!("{name}.max_us"), t.max_us);
        put(
            format!("{name}.max_has_checkpoint"),
            f64::from(u8::from(t.max_has_checkpoint)),
        );
    }
    for name in metrics::SELF_TIMES {
        let own = spans::self_secs(spans, |n| {
            n == name || (name == "db.queue" && n.starts_with("db.queue."))
        });
        put(format!("{name}.self_s"), own);
    }
    put("db.wal.bytes".to_owned(), run.wal_bytes as f64);
    put("sim.events".to_owned(), run.events as f64);
    put(
        "trace.attributed_share".to_owned(),
        spans::attributed_share(spans, traced::DRIVE, &[traced::PLANNER_TICK]),
    );
    row
}

/// The traced driver reproduced the real runtime: same trace bytes and
/// same counters, hub for hub.
fn faithful(seen: &Observed, run: &traced::Traced) -> bool {
    seen.probes.len() == run.hubs.len()
        && seen.probes.iter().zip(&run.hubs).all(|(probe, hub)| {
            probe.counters == hub.snapshot().counters && probe.trace_jsonl == hub.trace_jsonl()
        })
}

/// Per-key low median over the passes: always a value some pass
/// measured, so a flag stays 0 or 1. Counts are the same in every pass.
fn fold(rows: &[Row], into: &mut Row) {
    for key in rows.first().into_iter().flat_map(Row::keys) {
        let mut values: Vec<f64> = rows.iter().filter_map(|r| r.get(key).copied()).collect();
        values.sort_by(f64::total_cmp);
        into.insert(key.clone(), values[(values.len() - 1) / 2]);
    }
}

fn measure_layers(args: &Args, w: &Workload) -> Result<RunResult, String> {
    let recovery = recover_layers(&endtoend::crash_log(w));
    let has_driver = !matches!(w.deployment, Deployment::Sharded(_));

    let started = Instant::now();
    let (mut untraced, mut traced): (Vec<Row>, Vec<Row>) = (Vec::new(), Vec::new());
    let (mut untraced_drive, mut traced_drive) = (Vec::new(), Vec::new());
    let mut valid = has_driver;
    let mut correct = true;
    let mut last = None;
    while args.another(1, untraced.len(), started) {
        let mut seen = Observed::default();
        let (report, times) = endtoend::run(endtoend::set_up(w), &mut |stage, rt| {
            seen.observe(stage, rt)
        });
        correct &= report_is_sane(w, &report);
        let mut row = untraced_row(&seen, recovery);
        row.extend(endtoend::public_call_view(w, &report, &times));
        untraced.push(row);
        untraced_drive.push(times.drive_s);
        let mut spans = Vec::new();
        if has_driver {
            let rec = Arc::new(Recorder::new());
            let run = traced::run(w, &rec);
            spans = rec.take();
            valid &= faithful(&seen, &run) && run.finished == report.finished;
            traced_drive.push(spans::busy_by_name(&spans)[traced::DRIVE].secs);
            traced.push(traced_row(&spans, &run));
        }
        last = Some((report, spans));
    }
    let (report, spans) = last.expect("at least one pass");

    let mut merged = Row::new();
    fold(&untraced, &mut merged);
    if valid {
        fold(&traced, &mut merged);
        let overhead = median(&mut traced_drive) / median(&mut untraced_drive) - 1.0;
        merged.insert("trace.overhead_share".into(), overhead);
        std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
        let path = args.out.join(format!("trace-{}.json", w.name));
        std::fs::write(&path, spans::to_json(&spans, w.name, args.seed))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    } else if has_driver {
        eprintln!(
            "{}: the traced driver no longer reproduces SphinxRuntime; span numbers withheld (trace.valid = 0)",
            w.name
        );
    }
    merged.insert("trace.valid".into(), f64::from(u8::from(valid)));
    Ok(RunResult {
        correct,
        attempted: w.jobs,
        failed: jobs_failed(w, &report),
        digest: endtoend::schedule_digest(&report),
        metrics: metrics::per_layer_values(&merged),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = Args::parse(&argv).and_then(|args| {
        let name = args.workload.as_deref().ok_or("--workload is required")?;
        let w = workloads::build(name, args.seed)?;
        measure_layers(&args, &w).map(|r| r.print(w.name, args.seed))
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("sphinx-benchmark-layers: {message}");
            ExitCode::FAILURE
        }
    }
}
