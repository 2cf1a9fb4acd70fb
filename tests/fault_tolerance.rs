//! Fault-tolerance integration: site failures, middleware crashes, and
//! the write-ahead-log recovery path, exercised through the whole stack.

use sphinx::core::runtime::SphinxRuntime;
use sphinx::core::state::DagRow;
use sphinx::core::strategy::StrategyKind;
use sphinx::db::{CheckpointPolicy, Database, DbError, MemWal, Wal};
use sphinx::sim::{Duration, SimTime};
use sphinx::workloads::experiments::{recovery, ExperimentParams};
use sphinx::workloads::{grid3, FaultPlan, Scenario};
use std::collections::BTreeMap;
use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

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
    ratio: 1,
    min_log_bytes: 1024,
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
        ratio: 2,
        min_log_bytes: 16 << 10,
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
        let crashed = WalRun::start(&scenario, checkpoint).until(4);
        // The log the crash left: the bytes after its snapshot line, and
        // the bytes of the state it rebuilds.
        let lines = crashed.wal.read_all().unwrap();
        let logged = logged_since_snapshot(&lines);
        let state = state_bytes(&lines);
        let mut recovered = crashed.crash();
        let replayed = recovered.rt.server().database().replayed();
        let mut report = recovered.rt.run();
        // WAL/cache counter values legitimately differ between the two
        // configurations (auto-checkpointing emits extra `wal:*` spans);
        // the *outcome* — including critical paths and blame — must not.
        report.telemetry = sphinx::telemetry::TelemetrySnapshot::default();
        report.analysis.spans_total = 0;
        report.analysis.spans_live = 0;
        report.analysis.spans_dropped = 0;
        (report, replayed, logged, state)
    };

    let (base_report, base_replayed, ..) = run(CheckpointPolicy::disabled());
    let (auto_report, auto_replayed, auto_logged, auto_state) = run(AGGRESSIVE);

    assert!(auto_report.finished, "{}", auto_report.summary());
    assert_eq!(
        auto_report, base_report,
        "auto-checkpointing must not change the scheduling outcome"
    );
    // Post-commit invariant of the policy: the bytes logged since the
    // snapshot were either still below min_log_bytes or within ratio × the
    // state's bytes when the crash hit.
    let bound = (AGGRESSIVE.ratio * auto_state).max(AGGRESSIVE.min_log_bytes);
    assert!(
        auto_logged <= bound,
        "{auto_logged} bytes after the snapshot exceed the policy bound {bound}"
    );
    assert!(
        auto_replayed < base_replayed,
        "auto-checkpointing must shrink replay ({auto_replayed} vs {base_replayed})"
    );
}

/// The bytes of `lines` after the last snapshot line among them.
fn logged_since_snapshot(lines: &[String]) -> u64 {
    let snapshot = lines
        .iter()
        .rposition(|l| l.starts_with(r#"{"kind":"snapshot""#));
    let after = snapshot.map_or(0, |at| at + 1);
    lines[after..].iter().map(|l| l.len() as u64).sum()
}

/// The bytes the rows of the state `lines` rebuild print to: the rows of
/// the snapshot line a checkpoint of it writes.
fn state_bytes(lines: &[String]) -> u64 {
    let log = wal_of(lines);
    let db = Database::recover(Box::new(log.clone())).unwrap();
    db.checkpoint().unwrap();
    let snapshot: serde_json::Value = serde_json::from_str(&log.read_all().unwrap()[0]).unwrap();
    let mut bytes = 0;
    for table in list(&snapshot, "tables") {
        for pair in list(table, "rows") {
            let row = &pair.as_array().unwrap()[1];
            bytes += serde_json::to_string(row).unwrap().len() as u64;
        }
    }
    bytes
}

/// The list `value` holds as its member `name`.
fn list<'v>(value: &'v serde_json::Value, name: &str) -> &'v [serde_json::Value] {
    value.get(name).and_then(|list| list.as_array()).unwrap()
}

/// What happened to a [`Taped`] log, in order.
enum Entry {
    Append(String),
    Checkpoint,
}

/// A log that keeps a history of every line appended to it and every
/// checkpoint, across every database that writes it.
#[derive(Clone, Default)]
struct Taped {
    log: MemWal,
    history: Arc<Mutex<Vec<Entry>>>,
}

impl Taped {
    fn note(&self, entry: Entry) {
        self.history.lock().unwrap().push(entry);
    }

    /// The lines appended, and after how many of them each checkpoint
    /// came.
    fn history(&self) -> (Vec<String>, Vec<usize>) {
        let (mut lines, mut checkpoints) = (Vec::new(), Vec::new());
        for entry in self.history.lock().unwrap().iter() {
            match entry {
                Entry::Append(line) => lines.push(line.clone()),
                Entry::Checkpoint => checkpoints.push(lines.len()),
            }
        }
        (lines, checkpoints)
    }
}

impl Wal for Taped {
    fn append(&mut self, line: &str) -> Result<(), DbError> {
        self.note(Entry::Append(line.to_owned()));
        self.log.append(line)
    }

    fn read_all(&self) -> Result<Vec<String>, DbError> {
        self.log.read_all()
    }

    fn rewrite(&mut self, lines: &[String]) -> Result<(), DbError> {
        self.note(Entry::Checkpoint);
        self.log.rewrite(lines)
    }

    fn appended(&self) -> u64 {
        self.log.appended()
    }

    fn rewrites(&self) -> u64 {
        self.log.rewrites()
    }

    fn truncate(&mut self, n: usize) -> Result<(), DbError> {
        self.log.truncate(n)
    }
}

/// After which of `lines` a database that commits them all, and never
/// crashes, checkpoints under `policy`: a model of the byte trigger that
/// reads each row's printed length from the line.
fn checkpoints_over(lines: &[String], policy: CheckpointPolicy) -> Vec<usize> {
    let mut rows = BTreeMap::<(String, u64), u64>::new();
    let (mut logged, mut state, mut checkpoints) = (0, 0, Vec::new());
    for (n, line) in lines.iter().enumerate() {
        let entry: serde_json::Value = serde_json::from_str(line).unwrap();
        for op in list(&entry, "ops") {
            let field = |name| op.get(name).unwrap();
            let key = (
                field("table").as_str().unwrap().to_owned(),
                field("key").as_u64().unwrap(),
            );
            state -= rows.remove(&key).unwrap_or(0);
            if let Some(row) = op.get("row") {
                let len = serde_json::to_string(row).unwrap().len() as u64;
                state += len;
                rows.insert(key, len);
            }
        }
        logged += line.len() as u64;
        if policy.enabled && logged > policy.min_log_bytes.max(policy.ratio * state) {
            checkpoints.push(n + 1);
            logged = 0;
        }
    }
    checkpoints
}

#[test]
fn a_recovered_run_checkpoints_where_a_run_that_never_crashed_would() {
    // The trigger weighs the bytes logged since the snapshot against the
    // bytes of the live rows, and recovery rebuilds both exactly, so a
    // recovered database compacts its log at the same commits as one that
    // saw the same commits without a crash. Crash a seeded run at several
    // points and finish it; its commits, read back from the history of
    // the log, must checkpoint where the model says, and the log at the
    // end must be that database's: the snapshot of the state at the last
    // checkpoint, then every line after it.
    let scenario = faulty().strategy(StrategyKind::CompletionTime).build();
    for crash_mins in [1, 3, 5] {
        let taped = Taped::default();
        let db = Database::with_wal_and_config(Box::new(taped.clone()), AGGRESSIVE);
        let mut rt = scenario.build_runtime_with_db(Arc::new(db));
        rt.run_until(SimTime::ZERO + Duration::from_mins(crash_mins));
        let crashed_at = taped.history().0.len();
        let config = rt.config().clone();
        let db = Database::recover_with_config(Box::new(taped.clone()), AGGRESSIVE).unwrap();
        let mut rt = SphinxRuntime::with_recovered_database(rt.into_grid(), config, Arc::new(db))
            .expect("server recovers");
        assert!(rt.run().finished);

        let (lines, checkpoints) = taped.history();
        assert_eq!(
            checkpoints,
            checkpoints_over(&lines, AGGRESSIVE),
            "crash at {crash_mins} min"
        );
        assert!(
            checkpoints.iter().any(|&n| n > crashed_at),
            "crash at {crash_mins} min: no checkpoint after it"
        );
        let last = *checkpoints.last().unwrap();
        let reference = wal_of(&lines[..last]);
        Database::recover(Box::new(reference.clone()))
            .unwrap()
            .checkpoint()
            .unwrap();
        let mut at_end = reference.read_all().unwrap();
        at_end.extend_from_slice(&lines[last..]);
        assert_eq!(
            taped.log.read_all().unwrap(),
            at_end,
            "crash at {crash_mins} min"
        );
    }
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
    // 18, a snapshot line first.
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
    // the recovered run ended it. Its txn lines are the ones the store
    // has printed since it stopped storing rows as JSON values: whatever
    // it holds in memory, it writes these bytes. The constant moved only
    // when the checkpoint trigger began to weigh bytes, not lines, which
    // moved the snapshot lines. The log as the crash left it is
    // `tests/golden/logs/era2/black_hole_torn.log` of the corpus.
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
    assert_eq!(digest, 0xa56b_5be6_0bd6_5ea9, "log digest {digest:#018x}");
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
        ratio: 2,
        min_log_bytes: 16 << 10,
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
/// line. Without checkpoints the log has 237 lines; with them 18, a
/// snapshot line first; the black-hole log has 17, the last one torn.
/// (Era 1 was written while the trigger counted lines: 11 and 91 lines.)
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
