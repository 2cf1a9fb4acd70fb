//! Storage hot-path scaling: "the jobs of one DAG" out of a large job
//! table, answered as a primary-key range (`scan_range` — a job's key
//! leads with its DAG id) and by filtering a full-table scan
//! (`scan_filter`) of the same database.
//!
//! This is the micro-benchmark twin of `figures -- scale` (which sweeps
//! whole simulated runs): here only the storage layer is on the bench.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use serde::{Deserialize, Serialize};
use sphinx_db::{CheckpointPolicy, Database, MemWal, Record};

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Job {
    id: u64,
    state: String,
    site: Option<u32>,
    attempts: u32,
}

impl Record for Job {
    const TABLE: &'static str = "scale_jobs";
    fn key(&self) -> u64 {
        self.id
    }
}

const STATES: [&str; 5] = ["Unsubmitted", "Ready", "Planned", "Running", "Finished"];

/// Rows per owner: `id / JOBS_PER_DAG` plays the DAG id.
const JOBS_PER_DAG: u64 = 50;

fn populate(db: &Database, rows: u64) {
    let mut txn = db.txn();
    for i in 0..rows {
        txn.put(&Job {
            id: i,
            state: STATES[(i % STATES.len() as u64) as usize].to_owned(),
            site: (i % 7 != 0).then_some((i % 15) as u32),
            attempts: (i % 3) as u32,
        })
        .unwrap();
    }
    txn.commit().unwrap();
}

fn bench_jobs_of_one_dag(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale_jobs_of_one_dag");
    group.sample_size(20);
    for &rows in &[1_000u64, 10_000] {
        group.throughput(Throughput::Elements(rows));

        let db = Database::in_memory();
        populate(&db, rows);
        // The middle owner's rows.
        let lo = rows / 2 / JOBS_PER_DAG * JOBS_PER_DAG;
        let keys = lo..lo + JOBS_PER_DAG;
        group.bench_with_input(BenchmarkId::new("full_scan_filter", rows), &db, |b, db| {
            b.iter(|| {
                let rows = db.scan_filter::<Job>(|j| keys.contains(&j.id)).unwrap();
                assert_eq!(rows.len() as u64, JOBS_PER_DAG);
            });
        });
        group.bench_with_input(BenchmarkId::new("key_range", rows), &db, |b, db| {
            b.iter(|| {
                let rows = db.scan_range::<Job>(keys.clone()).unwrap();
                assert_eq!(rows.len() as u64, JOBS_PER_DAG);
            });
        });
    }
    group.finish();
}

fn bench_recovery_with_auto_checkpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale_recovery");
    group.sample_size(10);
    for (label, config) in [
        ("unbounded_log", CheckpointPolicy::disabled()),
        ("auto_checkpointed", CheckpointPolicy::default()),
    ] {
        // Churn: every row rewritten through the five states, so the raw
        // log is ~5× the live set unless auto-checkpointing compacts it.
        let wal = MemWal::shared();
        {
            let db = Database::with_wal_and_config(Box::new(wal.clone()), config);
            for state in STATES {
                let mut txn = db.txn();
                for i in 0..2_000u64 {
                    txn.put(&Job {
                        id: i,
                        state: state.to_owned(),
                        site: Some((i % 15) as u32),
                        attempts: 1,
                    })
                    .unwrap();
                }
                txn.commit().unwrap();
            }
        }
        group.bench_with_input(BenchmarkId::new("replay", label), &wal, |b, wal| {
            b.iter(|| {
                let db = Database::recover_with_config(Box::new(wal.clone()), config).unwrap();
                db.replayed()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_jobs_of_one_dag,
    bench_recovery_with_auto_checkpoint
);
criterion_main!(benches);
