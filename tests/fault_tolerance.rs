//! Fault-tolerance integration: site failures, middleware crashes, and
//! the write-ahead-log recovery path, exercised through the whole stack.

use sphinx::core::runtime::SphinxRuntime;
use sphinx::core::state::DagRow;
use sphinx::core::strategy::StrategyKind;
use sphinx::db::{CheckpointPolicy, Database, MemWal, Wal};
use sphinx::sim::{Duration, SimTime};
use sphinx::workloads::experiments::{recovery, ExperimentParams};
use sphinx::workloads::{grid3, FaultPlan, Scenario};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

fn faulty() -> sphinx::workloads::ScenarioBuilder {
    Scenario::builder()
        .sites(grid3::catalog_small())
        .dags(2, 10)
        .seed(21)
        .timeout(Duration::from_mins(10))
        .horizon(Duration::from_secs(24 * 3600))
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
    let aggressive = CheckpointPolicy {
        enabled: true,
        ratio: 2,
        min_log_lines: 8,
    };
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
    let (auto_report, auto_replayed, auto_live) = run(aggressive);

    assert!(auto_report.finished, "{}", auto_report.summary());
    assert_eq!(
        auto_report, base_report,
        "auto-checkpointing must not change the scheduling outcome"
    );
    // Post-commit invariant of the policy: the log was either still below
    // min_log_lines or within ratio × live rows when the crash hit.
    let bound = (aggressive.ratio * auto_live).max(aggressive.min_log_lines);
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
    let aggressive = CheckpointPolicy {
        enabled: true,
        ratio: 2,
        min_log_lines: 8,
    };
    for policy in [CheckpointPolicy::disabled(), aggressive] {
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
    // holds in memory, it writes these bytes.
    let policy = CheckpointPolicy {
        enabled: true,
        ratio: 4,
        min_log_lines: 64,
    };
    let scenario = faulty()
        .strategy(StrategyKind::CompletionTime)
        .faults(FaultPlan {
            black_holes: 1,
            flaky: 0,
            ..FaultPlan::default()
        })
        .build();
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
        fnv1a(0xcbf2_9ce4_8422_2325, &at_crash),
        &recovered.wal.read_all().unwrap(),
    );
    assert_eq!(digest, 0x4e1b_00d9_1004_bf75, "log digest {digest:#018x}");
}

#[test]
fn every_logged_line_replays_through_the_byte_match() {
    // Recovery matches each line against the bytes the store prints and
    // leaves any other shape to its general member loop. A printer that
    // drifted from that shape would still recover, every line through the
    // loop and slowly: a seeded run with a black hole and automatic
    // checkpoints, crashed and recovered, then run to its end, must write
    // no line the byte match does not read.
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
    assert_eq!(db.replay_fallbacks(), 0);
}
