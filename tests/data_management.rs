//! Data-management integration: replica registration, DAG reduction and
//! staging across the whole stack.

use sphinx::core::runtime::{RuntimeConfig, SphinxRuntime};
use sphinx::core::strategy::StrategyKind;
use sphinx::dag::{generate, WorkloadSpec};
use sphinx::data::{SiteId, TransferModel};
use sphinx::grid::GridSim;
use sphinx::policy::UserId;
use sphinx::sim::{Duration, SimRng};
use sphinx::workloads::grid3;

fn runtime_with(dag_seed: u64) -> (SphinxRuntime, Vec<sphinx::dag::Dag>) {
    let mut grid = GridSim::new(grid3::catalog_small(), TransferModel::default(), 3);
    let dags = WorkloadSpec::small(1, 10).generate(&SimRng::new(dag_seed), 0);
    for dag in &dags {
        for file in dag.external_inputs() {
            grid.rls_mut().register(file, SiteId(1));
        }
    }
    let rt = SphinxRuntime::new(
        grid,
        RuntimeConfig {
            strategy: StrategyKind::QueueLength,
            horizon: Duration::from_secs(24 * 3600),
            ..RuntimeConfig::default()
        },
    );
    (rt, dags)
}

#[test]
fn outputs_are_registered_as_replicas() {
    let (mut rt, dags) = runtime_with(1);
    rt.submit_dag(&dags[0], UserId(1));
    let report = rt.run();
    assert!(report.finished);
    // Every job's output must now have at least one replica.
    for job in &dags[0].jobs {
        let sites = rt.grid_mut().rls_mut().locate(&job.output.file);
        assert!(!sites.is_empty(), "output {} unregistered", job.output.file);
    }
}

#[test]
fn resubmitted_dag_is_fully_eliminated_by_the_reducer() {
    let (mut rt, dags) = runtime_with(2);
    rt.submit_dag(&dags[0], UserId(1));
    let first = rt.run();
    assert!(first.finished);
    assert_eq!(first.jobs_completed, 10);
    assert_eq!(first.jobs_eliminated, 0);

    // Same logical workflow again (fresh DAG id, same output names): the
    // reducer finds every output in the catalog and runs nothing.
    let mut again = dags[0].clone();
    let new_id = sphinx::dag::DagId(100);
    again.id = new_id;
    for (i, job) in again.jobs.iter_mut().enumerate() {
        job.id = sphinx::dag::JobId::new(new_id, i as u32);
    }
    rt.submit_dag(&again, UserId(1));
    let second = rt.run();
    assert!(second.finished);
    assert_eq!(
        second.jobs_completed, 10,
        "no new executions for the repeat"
    );
    assert_eq!(second.jobs_eliminated, 10, "the whole repeat is virtual");
}

#[test]
fn partial_prior_results_reduce_partially() {
    let (mut rt, dags) = runtime_with(3);
    // Pre-register the outputs of the DAG's first three jobs, as if an
    // earlier campaign produced them.
    for job in dags[0].jobs.iter().take(3) {
        rt.grid_mut()
            .rls_mut()
            .register(job.output.file.clone(), SiteId(0));
    }
    rt.submit_dag(&dags[0], UserId(1));
    let report = rt.run();
    assert!(report.finished);
    assert_eq!(report.jobs_eliminated, 3);
    assert_eq!(report.jobs_completed, 7);
}

#[test]
fn cross_site_staging_happens_when_inputs_are_remote() {
    // All external inputs live at site 1 only; jobs running elsewhere
    // must stage them, which registers cached replicas at the execution
    // sites.
    let (mut rt, dags) = runtime_with(4);
    rt.submit_dag(&dags[0], UserId(1));
    let report = rt.run();
    assert!(report.finished);
    let externals: Vec<_> = dags[0].external_inputs().into_iter().collect();
    let mut cached_somewhere_else = 0;
    for file in &externals {
        let sites = rt.grid_mut().rls_mut().locate(file);
        if sites.iter().any(|&s| s != SiteId(1)) {
            cached_somewhere_else += 1;
        }
    }
    assert!(
        cached_somewhere_else > 0,
        "staging should cache at least one external input at an execution site"
    );
}

#[test]
fn sink_outputs_are_archived_to_persistent_storage() {
    use sphinx::workloads::{grid3, Scenario};
    let scenario = Scenario::builder()
        .sites(grid3::catalog_small())
        .dags(1, 8)
        .seed(13)
        .archive_site(SiteId(3))
        .horizon(Duration::from_secs(24 * 3600))
        .build();
    let dag = scenario.dags().remove(0);
    let mut rt = scenario.build_runtime();
    let report = rt.run();
    assert!(report.finished);
    // Every sink output (nothing consumes it) must have a replica at the
    // archive site; at least one job is a sink in any DAG.
    let children = dag.children();
    let mut sinks = 0;
    for job in &dag.jobs {
        if children[job.id.index as usize].is_empty() {
            sinks += 1;
            let sites = rt.grid_mut().rls_mut().locate(&job.output.file);
            assert!(
                sites.contains(&SiteId(3)),
                "sink output {} not archived (replicas {sites:?})",
                job.output.file
            );
        }
    }
    assert!(sinks > 0);
}

#[test]
fn generated_file_names_are_unique_across_dags() {
    let spec = WorkloadSpec::paper(3);
    let dags = spec.generate(&SimRng::new(9), 0);
    let mut all_outputs = std::collections::BTreeSet::new();
    for dag in &dags {
        for job in &dag.jobs {
            assert!(
                all_outputs.insert(job.output.file.clone()),
                "duplicate output {} across dags",
                job.output.file
            );
        }
    }
    // Internal file naming helpers agree with the generator.
    let f = generate::internal_file(dags[0].id, 0);
    assert_eq!(f, dags[0].jobs[0].output.file);
}

#[test]
fn seeded_run_keeps_the_pinned_rls_accounting() {
    use sphinx::data::RlsStats;
    use sphinx::workloads::{grid3, Scenario};
    // §3.4's clubbed calls: one round-trip per reduced DAG and per
    // placement, one lookup per file asked about. Recorded on the
    // name-keyed catalog; interning names as ids must not move it.
    let scenario = Scenario::builder()
        .sites(grid3::catalog_small())
        .dags(4, 12)
        .seed(21)
        .archive_site(SiteId(3))
        .horizon(Duration::from_secs(24 * 3600))
        .build();
    let mut rt = scenario.build_runtime();
    let report = rt.run();
    assert!(report.finished);
    assert_eq!(
        rt.grid_mut().rls().stats(),
        RlsStats {
            lookups: 160,
            round_trips: 52,
            replicas: 234,
        }
    );
}
