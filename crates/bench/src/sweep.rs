//! The in-tree size sweep: one seeded scenario per size, run once on the
//! system as it ships, with everything the `scale` and `shard` artifacts
//! record read off that one run.
//!
//! A [`SizeSpec`] without a shard count runs the single scheduler over an
//! explicit [`MemWal`] so the log it leaves can be measured and replayed;
//! one with a shard count runs a [`sphinx_core::ShardedRuntime`] and then
//! the unsharded runtime on the identical scenario for the equivalence
//! column. Either way a [`SweepPoint`] carries planner-cycle latency (the
//! `wall.plan_cycle_us` histogram), the storage read counters, the
//! score-cache counters and the checkpoint count.
//!
//! There is no "before" configuration here: a regression is a comparison
//! with the committed `BENCH_<id>.json`, and the end-to-end performance
//! contract is `benchmark/`, not this sweep.

use serde::{Deserialize, Serialize};
use sphinx_core::shard::ShardConfig;
use sphinx_core::{Driver, RunReport};
use sphinx_db::{Database, MemWal, Wal};
use sphinx_grid::SiteSpec;
use sphinx_workloads::{grid3, Scenario};
use std::sync::Arc;

/// One grid/workload size of a sweep.
#[derive(Debug, Clone, Copy)]
pub struct SizeSpec {
    /// Label used in tables and JSON.
    pub label: &'static str,
    /// Site count (the Grid3 catalog pattern, cycled).
    pub sites: u32,
    /// Number of DAGs submitted.
    pub dags: u32,
    /// Jobs per DAG.
    pub jobs_per_dag: u32,
    /// Scheduler shards; `None` is the single-scheduler deployment.
    pub shards: Option<usize>,
}

impl SizeSpec {
    const fn single(label: &'static str, sites: u32, dags: u32) -> Self {
        SizeSpec {
            label,
            sites,
            dags,
            jobs_per_dag: 50,
            shards: None,
        }
    }

    /// A shard-sweep point: the Grid3 pattern at paper scale (15 sites),
    /// 25 jobs per DAG.
    const fn sharded(label: &'static str, shards: usize, dags: u32) -> Self {
        SizeSpec {
            label,
            sites: 15,
            dags,
            jobs_per_dag: 25,
            shards: Some(shards),
        }
    }

    /// Total job count of this size.
    pub fn jobs(&self) -> u32 {
        self.dags * self.jobs_per_dag
    }
}

/// The scale sweep: 15 → 120 sites, 1k → 10k jobs, one scheduler.
pub const SCALE_SIZES: [SizeSpec; 4] = [
    SizeSpec::single("15-sites-1k-jobs", 15, 20),
    SizeSpec::single("30-sites-2.5k-jobs", 30, 50),
    SizeSpec::single("60-sites-5k-jobs", 60, 100),
    SizeSpec::single("120-sites-10k-jobs", 120, 200),
];

/// The shard sweep: DAG count grows 10× from the single-shard baseline
/// while the per-shard share stays roughly constant.
pub const SHARD_SIZES: [SizeSpec; 4] = [
    SizeSpec::sharded("1-shard-4-dags", 1, 4),
    SizeSpec::sharded("2-shards-10-dags", 2, 10),
    SizeSpec::sharded("4-shards-20-dags", 4, 20),
    SizeSpec::sharded("8-shards-40-dags", 8, 40),
];

/// A catalog of `n` healthy sites: the Grid3 pattern cycled with fresh
/// ids (and background load off, so the sweep measures the scheduler, not
/// contention noise).
pub fn scaled_catalog(n: u32) -> Vec<SiteSpec> {
    let pattern = grid3::catalog_with_background(false);
    (0..n)
        .map(|i| {
            let proto = &pattern[i as usize % pattern.len()];
            let mut site = proto.clone();
            site.id = sphinx_data::SiteId(i);
            if i as usize >= pattern.len() {
                site.name = format!("{}-{}", proto.name, i as usize / pattern.len());
            }
            site
        })
        .collect()
}

/// Single-scheduler points only: the log the run left, and its replay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogMetrics {
    /// Log lines at end of run.
    pub wal_lines: u64,
    /// Log bytes at end of run (lines + newlines).
    pub wal_bytes: u64,
    /// Entries replayed when recovering from the final log.
    pub recovery_replayed: u64,
    /// Wall-clock microseconds to replay the final log.
    pub recovery_us: u64,
}

/// Sharded points only: the coordination plane's traffic and the
/// determinism contract at bench scale.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlaneMetrics {
    /// Scheduler shards.
    pub shards: usize,
    /// `plan_cycle_mean_us / shards`. The simulation executes every
    /// shard's planning serially inside one global cycle; a real
    /// deployment runs shards concurrently, so this share is the latency
    /// one scheduler pays.
    pub plan_cycle_mean_us_per_shard: f64,
    /// Lease heartbeats written to the coordination tables.
    pub heartbeats: u64,
    /// Leases granted at startup (== shards).
    pub leases_granted: u64,
    /// Adoptions (0 in this crash-free sweep).
    pub adoptions: u64,
    /// The sharded schedule equals the unsharded runtime's on the same
    /// scenario (the whole report minus host-clock telemetry).
    pub matches_unsharded: bool,
}

/// Everything recorded for one size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Size label.
    pub label: String,
    /// Site count.
    pub sites: u32,
    /// DAGs submitted.
    pub dags: u32,
    /// Total jobs submitted.
    pub jobs: u32,
    /// Whether every DAG finished before the horizon.
    pub finished: bool,
    /// Jobs the scheduler(s) completed.
    pub jobs_completed: u64,
    /// Wall-clock seconds for the whole simulated run.
    pub run_secs: f64,
    /// Planner cycles observed by the latency histogram.
    pub plan_cycles: u64,
    /// Mean planner-cycle latency, microseconds.
    pub plan_cycle_mean_us: f64,
    /// Worst planner-cycle latency, microseconds.
    pub plan_cycle_max_us: f64,
    /// Rows cloned out of the tables by `get`/`update`/`scan*`.
    pub rows_read: u64,
    /// Placements served by the per-cycle score cache.
    pub score_cache_hits: u64,
    /// Cache rebuilds (first placement of a (cycle, candidate-set) class).
    pub score_cache_misses: u64,
    /// Placements that reused the candidate scratch buffer.
    pub scratch_reused: u64,
    /// Checkpoint compactions over the run.
    pub wal_rewrites: u64,
    /// Present on single-scheduler points.
    pub log: Option<LogMetrics>,
    /// Present on sharded points.
    pub plane: Option<PlaneMetrics>,
}

/// The shard sweep's artifact (`BENCH_shard.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardBench {
    /// One entry per sweep size.
    pub points: Vec<SweepPoint>,
    /// Worst `plan_cycle_mean_us_per_shard` across the sweep divided by
    /// the single-shard baseline's — the flat-scaling headline (must
    /// stay ≤ 2: per-scheduler cost may not double while the DAG count
    /// grows 10×; shrinking below the baseline is the point of
    /// sharding, not a regression).
    pub mean_spread: f64,
}

/// Strip the host-clock-dependent parts of a report so two runs of the
/// same schedule compare equal (`wall.*` histograms differ per run).
pub fn schedule_view(report: &RunReport) -> RunReport {
    let mut r = report.clone();
    r.telemetry = Default::default();
    r.analysis = Default::default();
    r
}

/// Drive one deployment to the end and read off what both kinds share.
fn measure(size: &SizeSpec, driver: &mut Driver) -> (SweepPoint, RunReport) {
    let t0 = std::time::Instant::now(); // sphinx-lint: allow(wall-clock)
    let report = driver.try_run().expect("sweep run");
    let run_secs = t0.elapsed().as_secs_f64();
    let snapshot = driver.telemetry().snapshot();
    let plan_hist = snapshot.histograms.get("wall.plan_cycle_us");
    // Storage and WAL counters land on the plane's hub when there is one
    // (the run's own hub otherwise).
    let store = driver.coord_telemetry();
    let point = SweepPoint {
        label: size.label.to_owned(),
        sites: size.sites,
        dags: size.dags,
        jobs: size.jobs(),
        finished: report.finished,
        jobs_completed: report.jobs_completed as u64,
        run_secs,
        plan_cycles: plan_hist.map_or(0, |h| h.count),
        plan_cycle_mean_us: plan_hist.map_or(0.0, |h| h.mean()),
        plan_cycle_max_us: plan_hist.map_or(0.0, |h| h.max),
        rows_read: store.counter("db.rows.read"),
        score_cache_hits: snapshot.counter("plan.score_cache.hits"),
        score_cache_misses: snapshot.counter("plan.score_cache.misses"),
        scratch_reused: snapshot.counter("plan.scratch.reused"),
        wal_rewrites: store.counter("wal.rewrites"),
        log: None,
        plane: None,
    };
    (point, report)
}

/// Run one size on the deployment its spec names.
pub fn run_case(size: &SizeSpec, seed: u64) -> SweepPoint {
    let scenario = Scenario::builder()
        .sites(scaled_catalog(size.sites))
        .dags(size.dags, size.jobs_per_dag)
        .seed(seed)
        .wall_clock_telemetry(true)
        .build();
    match size.shards {
        None => {
            let wal = MemWal::shared();
            let db = Arc::new(Database::with_wal(Box::new(wal.clone())));
            let (mut point, _) = measure(size, &mut scenario.build_runtime_with_db(db));
            let lines = wal.read_all().expect("in-memory log reads");
            let t0 = std::time::Instant::now(); // sphinx-lint: allow(wall-clock)
            let recovered = Database::recover(Box::new(wal)).expect("log replays");
            let recovery_us = t0.elapsed().as_micros() as u64;
            point.log = Some(LogMetrics {
                wal_lines: lines.len() as u64,
                wal_bytes: lines.iter().map(|l| l.len() as u64 + 1).sum(),
                recovery_replayed: recovered.replayed(),
                recovery_us,
            });
            point
        }
        Some(shards) => {
            let mut rt = scenario.build_sharded_runtime(ShardConfig {
                shards,
                ..ShardConfig::default()
            });
            let (mut point, report) = measure(size, &mut rt);
            let coord = rt.coord_telemetry();
            point.plane = Some(PlaneMetrics {
                shards,
                plan_cycle_mean_us_per_shard: point.plan_cycle_mean_us / shards.max(1) as f64,
                heartbeats: coord.counter("shard.heartbeats"),
                leases_granted: coord.counter("shard.leases.granted"),
                adoptions: coord.counter("shard.adoptions"),
                matches_unsharded: schedule_view(&report) == schedule_view(&scenario.run()),
            });
            point
        }
    }
}

/// Run a whole sweep, announcing each size on stderr.
pub fn run_sweep(id: &str, sizes: &[SizeSpec], seed: u64) -> Vec<SweepPoint> {
    sizes
        .iter()
        .map(|size| {
            eprintln!("[{id}] running {} ...", size.label);
            run_case(size, seed)
        })
        .collect()
}

/// Worst per-shard plan-cycle mean across sharded `points` relative to
/// the point with the fewest shards (0 when nothing was measured).
pub fn mean_spread(points: &[SweepPoint]) -> f64 {
    let measured: Vec<&PlaneMetrics> = points
        .iter()
        .filter_map(|p| p.plane.as_ref())
        .filter(|m| m.plan_cycle_mean_us_per_shard > 0.0)
        .collect();
    let Some(base) = measured.iter().min_by_key(|m| m.shards) else {
        return 0.0;
    };
    let worst = measured
        .iter()
        .map(|m| m.plan_cycle_mean_us_per_shard)
        .fold(0.0f64, f64::max);
    worst / base.plan_cycle_mean_us_per_shard
}

/// Render a sweep as one table; a column a point's deployment does not
/// have prints `-`.
pub fn render_sweep_table(title: &str, points: &[SweepPoint]) -> String {
    fn cell<T: ToString>(value: Option<T>) -> String {
        value.map_or_else(|| "-".to_owned(), |v| v.to_string())
    }
    let mut out = format!("\n== {title}\n");
    out.push_str(&format!(
        "{:<22} {:>6} {:>6} {:>11} {:>11} {:>12} {:>10} {:>8} {:>8} {:>9} {:>11} {:>10} {:>5}\n",
        "size",
        "shards",
        "cycles",
        "cycle (us)",
        "max (us)",
        "/shard (us)",
        "rows read",
        "sc hits",
        "sc miss",
        "wal lines",
        "replay (us)",
        "heartbeats",
        "same"
    ));
    for p in points {
        let (log, plane) = (p.log.as_ref(), p.plane.as_ref());
        out.push_str(&format!(
            "{:<22} {:>6} {:>6} {:>11.1} {:>11.0} {:>12} {:>10} {:>8} {:>8} {:>9} {:>11} {:>10} {:>5}\n",
            p.label,
            cell(plane.map(|m| m.shards)),
            p.plan_cycles,
            p.plan_cycle_mean_us,
            p.plan_cycle_max_us,
            cell(plane.map(|m| format!("{:.1}", m.plan_cycle_mean_us_per_shard))),
            p.rows_read,
            p.score_cache_hits,
            p.score_cache_misses,
            cell(log.map(|l| l.wal_lines)),
            cell(log.map(|l| l.recovery_us)),
            cell(plane.map(|m| m.heartbeats)),
            cell(plane.map(|m| if m.matches_unsharded { "yes" } else { "NO" })),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel_map;

    fn tiny(shards: Option<usize>) -> SizeSpec {
        SizeSpec {
            label: "tiny",
            sites: 4,
            dags: 2,
            jobs_per_dag: 8,
            shards,
        }
    }

    #[test]
    fn scaled_catalog_has_unique_ids_and_pattern_shapes() {
        let sites = scaled_catalog(37);
        assert_eq!(sites.len(), 37);
        let pattern = grid3::catalog_with_background(false);
        for (i, site) in sites.iter().enumerate() {
            assert_eq!(site.id.0 as usize, i);
            let proto = &pattern[i % pattern.len()];
            assert_eq!(site.cpus, proto.cpus);
            assert_eq!(site.cpu_speed, proto.cpu_speed);
        }
        let mut names: Vec<&str> = sites.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 37, "names must stay unique");
    }

    #[test]
    fn tiny_single_scheduler_point_records_every_layer() {
        let size = tiny(None);
        let point = run_case(&size, 3);
        assert!(point.finished);
        assert_eq!(point.jobs_completed, u64::from(size.jobs()));
        assert!(point.plan_cycles > 0, "wall-clock histogram must populate");
        assert!(point.rows_read > 0);
        assert!(point.score_cache_hits > 0 && point.score_cache_misses > 0);
        assert!(point.scratch_reused > 0, "scratch must be reused");
        let log = point.log.as_ref().expect("single scheduler keeps its log");
        assert!(log.wal_lines > 0 && log.wal_bytes > log.wal_lines);
        assert_eq!(log.recovery_replayed, log.wal_lines);
        assert!(point.plane.is_none());
        let table = render_sweep_table("demo", &[point]);
        assert!(table.contains("tiny"));
    }

    #[test]
    fn tiny_sharded_point_matches_the_unsharded_schedule() {
        let size = tiny(Some(2));
        let point = run_case(&size, 3);
        assert!(point.finished);
        assert_eq!(point.jobs_completed, u64::from(size.jobs()));
        assert!(point.plan_cycles > 0, "wall-clock histogram must populate");
        assert!(
            point.rows_read > 0,
            "shard stores report to the plane's hub"
        );
        let plane = point.plane.as_ref().expect("sharded point");
        assert!(
            plane.matches_unsharded,
            "sharding must not change the schedule"
        );
        assert_eq!(plane.leases_granted, 2);
        assert_eq!(plane.adoptions, 0);
        assert!(point.log.is_none());
    }

    #[test]
    fn mean_spread_is_relative_to_the_fewest_shards() {
        let sizes = [
            SizeSpec {
                dags: 1,
                jobs_per_dag: 6,
                ..tiny(Some(1))
            },
            SizeSpec {
                jobs_per_dag: 6,
                ..tiny(Some(2))
            },
        ];
        let points = run_sweep("test", &sizes, 5);
        assert_eq!(points.len(), 2);
        assert!(mean_spread(&points) >= 1.0);
        assert_eq!(mean_spread(&[]), 0.0);
    }

    #[test]
    fn parallel_sweep_of_real_scenarios_merges_identically() {
        // Wall-clock telemetry stays off so each run is bit-reproducible
        // and the serial/parallel results can be compared as bytes.
        let run_one = |&seed: &u64| -> RunReport {
            Scenario::builder()
                .sites(scaled_catalog(3))
                .dags(1, 6)
                .seed(seed)
                .build()
                .run()
        };
        let seeds = [5u64, 6, 7, 8];
        let serial: Vec<RunReport> = seeds.iter().map(run_one).collect();
        let parallel = parallel_map(&seeds, run_one);
        assert_eq!(
            serde_json::to_string(&serial).expect("report serialize"),
            serde_json::to_string(&parallel).expect("report serialize"),
            "parallel sweep must merge byte-identically"
        );
    }
}
