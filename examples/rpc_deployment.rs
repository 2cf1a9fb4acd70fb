//! The client/server process split (paper Figure 1): the SPHINX server in
//! its own thread behind an RPC boundary, the scheduling client on this
//! side driving the grid.
//!
//! ```text
//! cargo run --release --example rpc_deployment
//! ```
//!
//! In the original deployment the two halves were separate processes
//! speaking GSI-enabled XML-RPC through Clarens. Here the boundary is a
//! pair of typed channels — same shape: the client never touches the
//! server's database, it only submits DAGs, forwards tracker reports and
//! asks for plans.

use sphinx::core::client::{ClientConfig, SphinxClient};
use sphinx::core::rpc::ServerHandle;
use sphinx::core::server::ServerConfig;
use sphinx::core::strategy::SiteInfo;
use sphinx::dag::WorkloadSpec;
use sphinx::data::{SiteId, TransferModel};
use sphinx::db::Database;
use sphinx::grid::GridSim;
use sphinx::policy::UserId;
use sphinx::sim::{Duration, SimRng, SimTime};
use sphinx::workloads::grid3;
use std::collections::BTreeMap;
use std::sync::Arc;

fn main() {
    // Grid + client live here; the server lives in its own thread.
    let sites = grid3::catalog_small();
    let catalog: Vec<SiteInfo> = sites
        .iter()
        .map(|s| SiteInfo {
            id: s.id,
            name: s.name.clone(),
            cpus: s.cpus,
        })
        .collect();
    let mut grid = GridSim::new(sites, TransferModel::default(), 9);
    let mut client = SphinxClient::new(ClientConfig::default());

    let server = ServerHandle::spawn(
        Arc::new(Database::in_memory()),
        catalog,
        ServerConfig::default(),
    );
    println!("server thread booted; submitting a 30-job DAG over RPC…");

    let dag = WorkloadSpec::small(1, 30)
        .generate(&SimRng::new(9), 0)
        .remove(0);
    for f in dag.external_inputs() {
        grid.rls_mut().register(f, SiteId(0));
    }
    server.submit_dag(&dag, UserId(1), grid.now(), None);

    // The client's event loop: step the grid, forward notifications as
    // tracker reports, ask the remote server for plans periodically.
    const PLANNER_TOKEN: u64 = 1;
    grid.schedule_wakeup(grid.now() + Duration::from_secs(15), PLANNER_TOKEN);
    let horizon = SimTime::from_secs(24 * 3600);
    while !server.all_finished() && grid.now() < horizon {
        if !grid.step() {
            break;
        }
        let now = grid.now();
        for n in grid.poll() {
            match n {
                sphinx::grid::Notification::Wakeup {
                    token: PLANNER_TOKEN,
                } => {
                    // Lend the replica catalog to the server for the call.
                    let rls = std::mem::take(grid.rls_mut());
                    let (plans, rls_back) =
                        server.plan_cycle(now, rls, BTreeMap::new(), grid.transfer_model());
                    *grid.rls_mut() = rls_back;
                    for plan in &plans {
                        client.submit_plan(&mut grid, plan, now);
                    }
                    grid.schedule_wakeup(now + Duration::from_secs(15), PLANNER_TOKEN);
                }
                other => {
                    if let Some(report) = client.on_notification(&other, now) {
                        server.report(report, now);
                    }
                }
            }
        }
    }

    let stats = server.stats();
    println!(
        "done at t={:.0}s: {} plans issued, {} reschedules",
        grid.now().as_secs_f64(),
        stats.plans,
        stats.reschedules_total()
    );
    assert!(server.all_finished(), "workload must complete over RPC");
    server.shutdown();
    println!("server thread joined cleanly");
}
