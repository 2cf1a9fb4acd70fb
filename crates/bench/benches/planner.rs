//! Planner decision latency: strategy choice over the 15-site catalog,
//! and the full server plan cycle over a batch of ready jobs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sphinx_core::prediction::Prediction;
use sphinx_core::server::{ServerConfig, SphinxServer};
use sphinx_core::strategy::{PlanningView, SiteInfo, StrategyKind, StrategyState};
use sphinx_dag::WorkloadSpec;
use sphinx_data::{ReplicaService, SiteId, TransferModel};
use sphinx_db::Database;
use sphinx_policy::UserId;
use sphinx_sim::{Duration, SimRng, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

fn catalog() -> Vec<SiteInfo> {
    sphinx_workloads::grid3::catalog()
        .into_iter()
        .map(|s| SiteInfo {
            id: s.id,
            name: s.name,
            cpus: s.cpus,
        })
        .collect()
}

fn bench_strategy_choice(c: &mut Criterion) {
    let catalog = catalog();
    let candidates: Vec<SiteId> = catalog.iter().map(|s| s.id).collect();
    let mut outstanding = BTreeMap::new();
    let mut prediction = Prediction::new();
    let mut rng = SimRng::new(5);
    for &site in &candidates {
        outstanding.insert(site, rng.range_u64(0, 50));
        for _ in 0..5 {
            prediction.record(site, rng.jittered(Duration::from_secs(150), 0.5));
        }
    }
    let reports = BTreeMap::new();
    let view = PlanningView {
        catalog: &catalog,
        candidates: &candidates,
        outstanding: &outstanding,
        reports: &reports,
        prediction: &prediction,
    };
    let mut group = c.benchmark_group("strategy_choice");
    group.throughput(Throughput::Elements(1));
    for strategy in StrategyKind::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(strategy.label()),
            &strategy,
            |b, &strategy| {
                let mut state = StrategyState::new();
                b.iter(|| strategy.choose(&view, &mut state));
            },
        );
    }
    group.finish();
}

fn bench_plan_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_cycle");
    group.sample_size(20);
    for &jobs in &[50u32, 200] {
        group.throughput(Throughput::Elements(jobs as u64));
        group.bench_with_input(BenchmarkId::new("ready_jobs", jobs), &jobs, |b, &jobs| {
            b.iter_with_setup(
                || {
                    // A fresh server with one wide DAG whose roots are
                    // all ready.
                    let mut server = SphinxServer::new(
                        Arc::new(Database::in_memory()),
                        catalog(),
                        ServerConfig::default(),
                    );
                    let dag = WorkloadSpec {
                        shape: sphinx_dag::DagShape::FanOutFanIn { width: jobs - 2 },
                        ..WorkloadSpec::small(1, jobs)
                    }
                    .generate(&SimRng::new(3), 0)
                    .remove(0);
                    let mut rls = ReplicaService::new();
                    for f in dag.external_inputs() {
                        rls.register(f, SiteId(0));
                    }
                    server.submit_dag(&dag, UserId(1), SimTime::ZERO).unwrap();
                    (server, rls)
                },
                |(mut server, mut rls)| {
                    server.plan_cycle(
                        SimTime::ZERO,
                        &mut rls,
                        &BTreeMap::new(),
                        &TransferModel::default(),
                    )
                },
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_strategy_choice, bench_plan_cycle);
criterion_main!(benches);
