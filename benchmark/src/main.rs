//! `sphinx-benchmark`: the end-to-end metrics, the suite, and the
//! comparison of two suite results.
//!
//! ```text
//! sphinx-benchmark --workload W --seed N --seconds S --trace 0|1   one run
//! sphinx-benchmark [--seed N] [--repeats R] [--result FILE]        the suite
//! sphinx-benchmark compare A.json B.json [--digests-differ]
//! sphinx-benchmark contract                                        BENCHMARK.json
//! ```
//!
//! One run is one process measuring one workload, single-threaded. With
//! `--trace 0` it is measured here: a discarded warm-up, then untraced
//! repeats through the public API, medians reported. With `--trace 1` the
//! run is handed to `sphinx-benchmark-layers`, built beside this binary;
//! where that did not build, this binary still reports what the public
//! calls give and marks the rest withheld (`trace.valid = 0`). The last
//! line of standard output is the result object.

mod suite;

use sphinx_benchmark::cli::{jobs_failed, report_is_sane, Args, RunResult};
use sphinx_benchmark::{endtoend, median, metrics, workloads};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// `--trace 0`: the end-to-end metrics.
fn measure_end_to_end(args: &Args, name: &str) -> Result<RunResult, String> {
    let w = workloads::build(name, args.seed)?;
    // Cutting the crash-time log runs the scenario's first 1200 simulated
    // seconds: it doubles as the discarded warm-up (allocator, page cache
    // and clocks settle), which leaves the time budget to measured repeats.
    let log = endtoend::crash_log(&w);

    let started = Instant::now();
    let (mut setup, mut wall, mut recover) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = None;
    let mut correct = true;
    while args.another(3, wall.len(), started) {
        let t = Instant::now();
        let w = workloads::build(name, args.seed)?;
        let live = endtoend::set_up(&w);
        setup.push(t.elapsed().as_secs_f64());
        let (report, times) = endtoend::run(live, &mut |_, _| {});
        wall.push(times.wall_s());
        // Recoveries are spread over the run, two after every repeat, so
        // that a noisy spell on the host reaches only some of them.
        recover.extend([log.recover_s(), log.recover_s()]);
        eprintln!(
            "{name}: repeat {}: setup_s {:.4} wall_s {:.4} recover_s {:.4?}",
            wall.len(),
            setup[setup.len() - 1],
            wall[wall.len() - 1],
            &recover[recover.len() - 2..]
        );
        correct &= report_is_sane(&w, &report);
        let digest = endtoend::schedule_digest(&report);
        match &first {
            Some((d, _)) if *d != digest => {
                return Err(format!(
                    "{name}: repeats disagree on the schedule digest ({d:016x} vs {digest:016x})"
                ))
            }
            Some(_) => {}
            None => first = Some((digest, report)),
        }
    }
    let (digest, report) = first.expect("at least one repeat");
    let wall_s = median(&mut wall);
    Ok(RunResult {
        correct,
        attempted: w.jobs,
        failed: jobs_failed(&w, &report),
        digest,
        metrics: vec![
            ("wall_s".into(), wall_s, "s"),
            (
                "jobs_per_s".into(),
                report.jobs_completed as f64 / wall_s,
                "jobs/s",
            ),
            ("setup_s".into(), median(&mut setup), "s"),
            ("recover_s".into(), median(&mut recover), "s"),
            ("peak_rss_mb".into(), peak_rss_mb()?, "MiB"),
            (
                "sim_avg_dag_s".into(),
                report.avg_dag_completion_secs,
                "sim_s",
            ),
        ],
    })
}

/// `--trace 1` without the layers binary: one untraced run gives the
/// public calls' share of the ledger; every span number is withheld.
fn layers_withheld(args: &Args, name: &str) -> Result<RunResult, String> {
    let w = workloads::build(name, args.seed)?;
    let (report, times) = endtoend::run(endtoend::set_up(&w), &mut |_, _| {});
    let view = endtoend::public_call_view(&w, &report, &times);
    Ok(RunResult {
        correct: report_is_sane(&w, &report),
        attempted: w.jobs,
        failed: jobs_failed(&w, &report),
        digest: endtoend::schedule_digest(&report),
        metrics: metrics::per_layer_values(&view),
    })
}

/// The per-layer binary, when it was built beside this one.
fn layers_binary() -> Option<PathBuf> {
    let path = std::env::current_exe()
        .ok()?
        .with_file_name("sphinx-benchmark-layers");
    path.is_file().then_some(path)
}

fn one_run(args: &Args, name: &str, argv: &[String]) -> Result<(), String> {
    if !args.trace {
        return measure_end_to_end(args, name).map(|r| r.print(name, args.seed));
    }
    match layers_binary() {
        Some(layers) => {
            let status = Command::new(layers)
                .args(argv)
                .status()
                .map_err(|e| e.to_string())?;
            status
                .success()
                .then_some(())
                .ok_or(format!("sphinx-benchmark-layers: {status}"))
        }
        None => {
            eprintln!("{name}: sphinx-benchmark-layers is not built; span numbers withheld (trace.valid = 0)");
            layers_withheld(args, name).map(|r| r.print(name, args.seed))
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("contract") => {
            println!(
                "{}",
                serde_json::to_string_pretty(&metrics::contract()).expect("contract prints")
            );
            Ok(())
        }
        Some("compare") => suite::compare(&argv[1..]),
        _ => Args::parse(&argv).and_then(|args| match args.workload.clone() {
            Some(name) => one_run(&args, &name, &argv),
            None => suite::run(&args),
        }),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("sphinx-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
