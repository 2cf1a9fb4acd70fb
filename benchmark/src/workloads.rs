//! The five seeded scenarios.
//!
//! Everything a workload needs derives from `--seed` through
//! [`Scenario`]: DAG shapes and runtimes, replica placement, which sites
//! are faulty, background load and crash schedules. The program under
//! test receives only the assembled scenario.

use sphinx_core::shard::{CrashPoint, ShardConfig, ShardCrash};
use sphinx_grid::SiteSpec;
use sphinx_ops::OpsConfig;
use sphinx_policy::Requirement;
use sphinx_sim::{Duration, SimTime};
use sphinx_workloads::{grid3, FaultPlan, Scenario, ScenarioBuilder};

/// Workload names, in suite order.
pub const NAMES: [&str; 5] = [
    "steady-120x10k",
    "grid3-faulty-8k",
    "policy-edf-120x10k",
    "crash-recover-120x10k",
    "sharded4-failover-120x10k",
];

/// Simulated time at which the server is killed on `crash-recover`, and
/// at which every workload's crash-time log is cut for `recover_s`.
pub const CRASH_AT: SimTime = SimTime::from_secs(1200);

/// How the scenario is deployed.
pub enum Deployment {
    /// One `SphinxRuntime`, start to finish.
    Single,
    /// One `SphinxRuntime` killed at [`CRASH_AT`]; database and server
    /// recovered from the log against the surviving grid.
    CrashRecover,
    /// A `ShardedRuntime`.
    Sharded(ShardConfig),
}

pub struct Workload {
    pub name: &'static str,
    pub scenario: Scenario,
    pub deployment: Deployment,
    /// Jobs submitted (`dags × jobs_per_dag`): the operations attempted.
    pub jobs: u64,
}

/// A catalog of `n` healthy sites: the Grid3 pattern cycled with fresh
/// ids, background load off. (Same construction as `sphinx-bench`'s, kept
/// here so the benchmark does not depend on that crate.)
fn scaled_catalog(n: u32) -> Vec<SiteSpec> {
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

/// 120 healthy sites, 200 DAGs × 50 jobs: the roadmap's reference size.
fn steady(seed: u64) -> ScenarioBuilder {
    Scenario::builder()
        .sites(scaled_catalog(120))
        .dags(200, 50)
        .seed(seed)
}

/// Build workload `name` for `seed`.
pub fn build(name: &str, seed: u64) -> Result<Workload, String> {
    let (name, scenario, deployment, jobs) = match name {
        "steady-120x10k" => (NAMES[0], steady(seed).build(), Deployment::Single, 10_000),
        "grid3-faulty-8k" => (
            NAMES[1],
            Scenario::builder()
                .faults(FaultPlan::grid3_typical())
                .dags(160, 50)
                .horizon(Duration::from_secs(24 * 3600))
                .ops(OpsConfig::default())
                .seed(seed)
                .build(),
            Deployment::Single,
            8_000,
        ),
        "policy-edf-120x10k" => (
            NAMES[2],
            steady(seed)
                .quota(Requirement::new(8_000, 400_000))
                .deadline_last(50, Duration::from_secs(48 * 3600))
                .build(),
            Deployment::Single,
            10_000,
        ),
        "crash-recover-120x10k" => (
            NAMES[3],
            steady(seed).build(),
            Deployment::CrashRecover,
            10_000,
        ),
        "sharded4-failover-120x10k" => (
            NAMES[4],
            steady(seed).build(),
            Deployment::Sharded(ShardConfig {
                shards: 4,
                crashes: vec![ShardCrash {
                    shard: 2,
                    at_cycle: 60,
                    point: CrashPoint::TornWal,
                }],
                ..ShardConfig::default()
            }),
            10_000,
        ),
        _ => return Err(format!("unknown workload {name}")),
    };
    Ok(Workload {
        name,
        scenario,
        deployment,
        jobs,
    })
}
