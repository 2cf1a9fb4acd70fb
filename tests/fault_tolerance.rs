//! Fault-tolerance integration: site failures, middleware crashes, and
//! the write-ahead-log recovery path, exercised through the whole stack.

use sphinx::core::runtime::SphinxRuntime;
use sphinx::core::state::DagRow;
use sphinx::core::strategy::StrategyKind;
use sphinx::db::{CheckpointPolicy, Database, MemWal, Wal};
use sphinx::sim::{Duration, SimTime};
use sphinx::workloads::experiments::{recovery, ExperimentParams};
use sphinx::workloads::{grid3, FaultPlan, Scenario};
use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn faulty() -> sphinx::workloads::ScenarioBuilder {
    Scenario::builder()
        .sites(grid3::catalog_small())
        .dags(2, 10)
        .seed(21)
        .timeout(Duration::from_mins(10))
        .horizon(Duration::from_secs(24 * 3600))
}

/// Checkpoints as often as the policy allows, so a short run's log holds
/// snapshot lines.
const AGGRESSIVE: CheckpointPolicy = CheckpointPolicy {
    enabled: true,
    ratio: 2,
    min_log_lines: 8,
};

/// The seeded run with a black hole (timeouts, replans) whose log
/// `seeded_run_writes_the_pinned_log` pins, and its checkpoint policy.
fn black_hole() -> (Scenario, CheckpointPolicy) {
    let scenario = faulty()
        .strategy(StrategyKind::CompletionTime)
        .faults(FaultPlan {
            black_holes: 1,
            flaky: 0,
            ..FaultPlan::default()
        })
        .build();
    let policy = CheckpointPolicy {
        enabled: true,
        ratio: 4,
        min_log_lines: 64,
    };
    (scenario, policy)
}

/// The crash experiment every recovery test runs: a seeded scenario on a
/// database over an in-memory WAL, whose server is killed mid-run while
/// the grid survives with its attempts in flight, and recovered from a log.
struct WalRun {
    rt: SphinxRuntime,
    wal: MemWal,
    policy: CheckpointPolicy,
}

impl WalRun {
    /// `scenario` over a fresh log checkpointed under `policy`.
    fn start(scenario: &Scenario, policy: CheckpointPolicy) -> Self {
        let wal = MemWal::shared();
        let db = Database::with_wal_and_config(Box::new(wal.clone()), policy);
        let rt = scenario.build_runtime_with_db(Arc::new(db));
        WalRun { rt, wal, policy }
    }

    /// Drive the run to `mins` minutes of simulated time.
    fn until(mut self, mins: u64) -> Self {
        self.rt.run_until(SimTime::ZERO + Duration::from_mins(mins));
        self
    }

    /// Kill the server and recover one from `log` onto the surviving grid.
    fn crash_onto(self, log: MemWal) -> Self {
        let config = self.rt.config().clone();
        let grid = self.rt.into_grid();
        let db =
            Database::recover_with_config(Box::new(log.clone()), self.policy).expect("log replays");
        let rt = SphinxRuntime::with_recovered_database(grid, config, Arc::new(db))
            .expect("server recovers");
        WalRun {
            rt,
            wal: log,
            policy: self.policy,
        }
    }

    /// Kill the server and recover one from the log it wrote.
    fn crash(self) -> Self {
        let log = self.wal.clone();
        self.crash_onto(log)
    }
}

#[test]
fn black_hole_survived_by_every_strategy() {
    for strategy in StrategyKind::ALL {
        let report = faulty()
            .strategy(strategy)
            .faults(FaultPlan {
                black_holes: 1,
                flaky: 0,
                ..FaultPlan::default()
            })
            .build()
            .run();
        assert!(report.finished, "{strategy}: {}", report.summary());
        assert_eq!(report.jobs_completed, 20, "{strategy}");
    }
}

#[test]
fn crash_prone_sites_cause_holds_not_losses() {
    let report = faulty()
        .strategy(StrategyKind::CompletionTime)
        .faults(FaultPlan {
            black_holes: 0,
            flaky: 2,
            mtbf: Duration::from_mins(20),
            mttr: Duration::from_mins(10),
            kill_prob: 0.1,
        })
        .build()
        .run();
    assert!(report.finished, "{}", report.summary());
    assert_eq!(report.jobs_completed, 20);
}

#[test]
fn recovery_experiment_completes_after_mid_run_crash() {
    let outcome = recovery(ExperimentParams::quick(5), Duration::from_mins(5));
    assert!(outcome.report.finished, "{}", outcome.report.summary());
    assert_eq!(
        outcome.report.jobs_completed + outcome.report.jobs_eliminated,
        16
    );
    assert!(outcome.wal_entries > 0, "the WAL must have content");
}

#[test]
fn recovery_with_torn_final_wal_line_still_completes() {
    // Crash while a commit was being written: the torn line is dropped,
    // losing at most that one transaction — which the conservative
    // replanning then redoes.
    let scenario = faulty().strategy(StrategyKind::NumCpus).build();
    let run = WalRun::start(&scenario, CheckpointPolicy::default()).until(4);
    run.wal.tear_last_line();
    let report = run.crash().rt.run();
    assert!(report.finished, "{}", report.summary());
    assert_eq!(report.jobs_completed + report.jobs_eliminated, 20);
}

#[test]
fn double_crash_recovery_still_completes() {
    // Crash, recover, crash again, recover again.
    let scenario = faulty().strategy(StrategyKind::CompletionTime).build();
    let run = WalRun::start(&scenario, CheckpointPolicy::default()).until(3);
    let report = run.crash().until(6).crash().rt.run();
    assert!(report.finished, "{}", report.summary());
    assert_eq!(report.jobs_completed + report.jobs_eliminated, 20);
}

#[test]
fn checkpoint_compaction_preserves_recoverability() {
    let scenario = faulty().build();
    let run = WalRun::start(&scenario, CheckpointPolicy::default()).until(4);
    // Compact the log mid-run, keep going a little, then crash.
    let db = Arc::clone(run.rt.server().database());
    db.checkpoint().expect("checkpoint succeeds");
    let entries_after_checkpoint = run.wal.len();
    assert_eq!(entries_after_checkpoint, 1, "compacted to one snapshot");
    let report = run.until(6).crash().rt.run();
    assert!(report.finished, "{}", report.summary());
}

#[test]
fn auto_checkpoint_interleaves_with_crash_recovery() {
    // The same seeded workload, crashed mid-run and recovered, must end in
    // the same place whether the log was never compacted or compacted
    // automatically many times along the way — and the automatic policy
    // must keep the recovery replay bounded by its ratio.
    let run = |checkpoint: CheckpointPolicy| {
        let scenario = faulty().strategy(StrategyKind::CompletionTime).build();
        let mut recovered = WalRun::start(&scenario, checkpoint).until(4).crash();
        // Recovery only updates rows, so the live-row count is the one
        // the replay left.
        let db = recovered.rt.server().database();
        let (replayed, live) = (db.replayed(), db.live_rows());
        let mut report = recovered.rt.run();
        // WAL/cache counter values legitimately differ between the two
        // configurations (auto-checkpointing emits extra `wal:*` spans);
        // the *outcome* — including critical paths and blame — must not.
        report.telemetry = sphinx::telemetry::TelemetrySnapshot::default();
        report.analysis.spans_total = 0;
        report.analysis.spans_live = 0;
        report.analysis.spans_dropped = 0;
        (report, replayed, live)
    };

    let (base_report, base_replayed, _) = run(CheckpointPolicy::disabled());
    let (auto_report, auto_replayed, auto_live) = run(AGGRESSIVE);

    assert!(auto_report.finished, "{}", auto_report.summary());
    assert_eq!(
        auto_report, base_report,
        "auto-checkpointing must not change the scheduling outcome"
    );
    // Post-commit invariant of the policy: the log was either still below
    // min_log_lines or within ratio × live rows when the crash hit.
    let bound = (AGGRESSIVE.ratio * auto_live).max(AGGRESSIVE.min_log_lines);
    assert!(
        auto_replayed <= bound,
        "replay {auto_replayed} exceeds policy bound {bound}"
    );
    assert!(
        auto_replayed < base_replayed,
        "auto-checkpointing must shrink replay ({auto_replayed} vs {base_replayed})"
    );
}

#[test]
fn reliability_counts_survive_recovery() {
    // A site flagged before the crash stays known-bad after recovery via
    // the persisted site-stats table.
    let scenario = faulty()
        .strategy(StrategyKind::RoundRobin)
        .faults(FaultPlan {
            black_holes: 1,
            flaky: 0,
            ..FaultPlan::default()
        })
        .timeout(Duration::from_mins(5))
        .build();
    // Run long enough for timeouts on the black hole to be recorded.
    let run = WalRun::start(&scenario, CheckpointPolicy::default()).until(20);
    let cancelled_before = run.rt.server().reliability().total_cancelled();
    let recovered = run.crash();
    assert_eq!(
        recovered.rt.server().reliability().total_cancelled(),
        cancelled_before,
        "lifetime cancellation counts must survive the crash"
    );
}

#[test]
fn every_line_boundary_of_a_crash_log_recovers() {
    // A crash can stop the log after any committed line, including
    // between the several commits one tracker report makes: a child's
    // Unready -> Ready update, or a DAG's finish, can be lost while the
    // completion that caused it survives. Recovery must finish the run
    // from every such cut with every job of the DAGs the cut holds done.
    // Debug builds arm the FSA guard, so an unrepaired torn row panics.
    // With checkpoints off the crash-time log has 237 lines; with them on,
    // 11, snapshot lines among them.
    for policy in [CheckpointPolicy::disabled(), AGGRESSIVE] {
        let scenario = faulty().strategy(StrategyKind::CompletionTime).build();
        // `GridSim` is not `Clone`: every cut re-runs the crash.
        let crashed = || WalRun::start(&scenario, policy).until(12);
        let lines = crashed().wal.read_all().unwrap();
        let failed: Vec<String> = (1..=lines.len())
            .filter_map(|k| {
                let mut cut = MemWal::shared();
                for line in &lines[..k] {
                    cut.append(line).unwrap();
                }
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                    let mut run = crashed().crash_onto(cut);
                    let dags = run.rt.server().database().scan::<DagRow>().unwrap();
                    let jobs: usize = dags.iter().map(|d| d.dag.len()).sum();
                    (run.rt.run(), jobs)
                }));
                match outcome {
                    Ok((r, jobs)) if r.finished && r.jobs_completed + r.jobs_eliminated == jobs => {
                        None
                    }
                    Ok((r, jobs)) => Some(format!("cut {k}: {jobs} jobs; {}", r.summary())),
                    Err(_) => Some(format!("cut {k}: panicked")),
                }
            })
            .collect();
        assert!(
            failed.is_empty(),
            "{policy:?}: {} of {} cuts fail to recover:\n{}",
            failed.len(),
            lines.len(),
            failed.join("\n")
        );
    }
}

/// FNV-1a's offset basis: the hash of no bytes.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `lines`, newline-terminated, continuing from `hash`.
fn fnv1a(hash: u64, lines: &[String]) -> u64 {
    let bytes = lines.iter().flat_map(|l| l.bytes().chain([b'\n']));
    bytes.fold(hash, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn seeded_run_writes_the_pinned_log() {
    // The log format is a contract: a log written by an earlier version
    // must replay, and a run's log must be reproducible to the byte. One
    // seeded run with a black hole (timeouts, replans), automatic
    // checkpoints (snapshot lines) and a torn-tail crash in the middle;
    // the digest covers every line of the log as the crash left it and as
    // the recovered run ended it. The constant was recorded from the last
    // commit that stored rows as JSON values (PR 16): whatever the store
    // holds in memory, it writes these bytes. The log as the crash left
    // it is `tests/golden/logs/era1/black_hole_torn.log` of the corpus.
    let (scenario, policy) = black_hole();
    let run = WalRun::start(&scenario, policy).until(12);
    run.wal.tear_last_line(); // crash, mid-append
    let at_crash = run.wal.read_all().unwrap();
    assert!(at_crash
        .iter()
        .any(|l| l.starts_with(r#"{"kind":"snapshot""#)));
    assert!(at_crash.iter().any(|l| l.starts_with(r#"{"kind":"txn""#)));
    let mut recovered = run.crash();
    let report = recovered.rt.run();
    assert!(report.finished, "{}", report.summary());
    assert!(report.timeouts > 0, "the black hole must have cost replans");

    let digest = fnv1a(
        fnv1a(FNV_BASIS, &at_crash),
        &recovered.wal.read_all().unwrap(),
    );
    assert_eq!(digest, 0x4e1b_00d9_1004_bf75, "log digest {digest:#018x}");
}

#[test]
fn every_logged_line_replays_through_the_byte_match() {
    // Recovery matches each line against the bytes the store prints and
    // refuses any other shape. A printer that drifted from that shape
    // would write a log that does not replay: a seeded run with a black
    // hole and automatic checkpoints, crashed and recovered, then run to
    // its end, must write no line the byte match does not read.
    let policy = CheckpointPolicy {
        enabled: true,
        ratio: 4,
        min_log_lines: 64,
    };
    let scenario = faulty()
        .faults(FaultPlan {
            black_holes: 1,
            flaky: 0,
            ..FaultPlan::default()
        })
        .build();
    let mut recovered = WalRun::start(&scenario, policy).until(12).crash();
    assert!(recovered.rt.run().finished);
    let lines = recovered.wal.read_all().unwrap();
    assert!(lines.iter().any(|l| l.starts_with(r#"{"kind":"snapshot""#)));
    let db = Database::recover(Box::new(recovered.wal)).unwrap();
    assert_eq!(db.replayed(), lines.len() as u64);
}

/// The log corpus: one directory per era of the log format, each holding
/// the crash-time logs of [`corpus_runs`] as one binary wrote them, a
/// `digests` file pinning the tables each recovers to and a `reports` file
/// pinning the run a server recovered from each finishes
/// ([`corpus_digests`]). The logs and `digests` are never rewritten: every
/// later reader must recover them alike. `reports` also depends on the
/// scheduler that finishes the run, so a change that moves schedules on
/// purpose re-pins it.
fn corpus() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/logs")
}

/// The simulated minute at which every corpus run's server is killed.
const CORPUS_CRASH_MINS: u64 = 12;

/// The runs whose crash-time logs make up an era: the file's name, the
/// scenario, its checkpoint policy, and whether the crash tore the final
/// line. Without checkpoints the log has 237 lines; with them 11, snapshot
/// lines among them; the black-hole log has 91, the last one torn.
fn corpus_runs() -> Vec<(&'static str, Scenario, CheckpointPolicy, bool)> {
    let completion = || faulty().strategy(StrategyKind::CompletionTime).build();
    let (black_hole, policy) = black_hole();
    let off = CheckpointPolicy::disabled();
    vec![
        ("completion_time.log", completion(), off, false),
        ("completion_time_ckpt.log", completion(), AGGRESSIVE, false),
        ("black_hole_torn.log", black_hole, policy, true),
    ]
}

/// What a corpus log recovers to: the FNV-1a of the snapshot line a
/// checkpoint prints right after `Database::recover` of the log (every
/// table's rows, canonically), as `digests` stores it, and of the JSON
/// `RunReport` of the run re-driven to the crash and finished by a server
/// recovered from the log, as `reports` stores it. Both in hex.
fn corpus_digests(
    lines: &[String],
    scenario: &Scenario,
    policy: CheckpointPolicy,
) -> (String, String) {
    let log = wal_of(lines);
    let db = Database::recover(Box::new(log.clone())).expect("a corpus log replays");
    // A torn tail is cut out of the log, and nothing else is.
    let replayed = db.replayed() as usize;
    assert_eq!(log.read_all().unwrap(), lines[..replayed]);
    db.checkpoint().unwrap();
    let snapshot = fnv1a(FNV_BASIS, &log.read_all().unwrap());
    let run = WalRun::start(scenario, policy).until(CORPUS_CRASH_MINS);
    let report = run.crash_onto(wal_of(lines)).rt.run();
    assert!(report.finished, "{}", report.summary());
    let report = fnv1a(FNV_BASIS, &[serde_json::to_string(&report).unwrap()]);
    (format!("{snapshot:#018x}"), format!("{report:#018x}"))
}

/// A log holding `lines`.
fn wal_of(lines: &[String]) -> MemWal {
    let mut wal = MemWal::shared();
    for line in lines {
        wal.append(line).unwrap();
    }
    wal
}

/// The digest a `digests` or `reports` file pins for `file`.
fn pinned<'a>(pins: &'a str, file: &str) -> &'a str {
    let mut pin = pins.lines().filter_map(|pin| pin.split_once(' '));
    let pin = pin
        .find(|(name, _)| *name == file)
        .map(|(_, digest)| digest);
    pin.unwrap_or_else(|| panic!("no pin for {file}"))
}

#[test]
fn every_corpus_log_recovers_to_its_pinned_digests() {
    let runs = corpus_runs();
    let mut checked = 0;
    for era in fs::read_dir(corpus()).unwrap() {
        let era = era.unwrap().path();
        let digests = fs::read_to_string(era.join("digests")).unwrap();
        let reports = fs::read_to_string(era.join("reports")).unwrap();
        for entry in digests.lines() {
            let (file, tables) = entry.split_once(' ').unwrap();
            let (_, scenario, policy, _) = runs.iter().find(|run| run.0 == file).unwrap();
            let path = era.join(file);
            let text = fs::read_to_string(&path).unwrap();
            let lines: Vec<String> = text.lines().map(str::to_owned).collect();
            let (got_tables, got_report) = corpus_digests(&lines, scenario, *policy);
            assert_eq!(
                got_tables,
                tables,
                "{} recovers other tables",
                path.display()
            );
            assert_eq!(
                got_report,
                pinned(&reports, file),
                "{} finishes another run: if schedules moved on purpose, \
                 re-pin `{file} {got_report}` in {}",
                path.display(),
                era.join("reports").display(),
            );
            checked += 1;
        }
    }
    assert!(checked >= runs.len(), "{checked} corpus logs");
}

/// Writes the next era of the corpus (`eraN`, one past the eras there
/// are) from this binary's crash-time logs, digests included. Run it with
/// `cargo test --test fault_tolerance -- --ignored` after changing the log
/// format on purpose; it refuses to write into an era that exists.
#[test]
#[ignore]
fn write_a_new_corpus_era() {
    fs::create_dir_all(corpus()).unwrap();
    let eras = fs::read_dir(corpus()).unwrap().count();
    let era = corpus().join(format!("era{}", eras + 1));
    fs::create_dir(&era).expect("a new era directory");
    let (mut digests, mut reports) = (String::new(), String::new());
    for (file, scenario, policy, torn) in corpus_runs() {
        let run = WalRun::start(&scenario, policy).until(CORPUS_CRASH_MINS);
        if torn {
            run.wal.tear_last_line();
        }
        let lines = run.wal.read_all().unwrap();
        let text: String = lines.iter().map(|line| format!("{line}\n")).collect();
        fs::write(era.join(file), text).unwrap();
        let (tables, report) = corpus_digests(&lines, &scenario, policy);
        digests.push_str(&format!("{file} {tables}\n"));
        reports.push_str(&format!("{file} {report}\n"));
    }
    fs::write(era.join("digests"), digests).unwrap();
    fs::write(era.join("reports"), reports).unwrap();
}
