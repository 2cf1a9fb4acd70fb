//! SPHINX: the scheduling middleware itself.
//!
//! The architecture follows §3 of the paper:
//!
//! * [`server`] — the SPHINX server: a control process that moves DAGs and
//!   jobs through a finite-state automaton whose state lives in database
//!   tables ([`sphinx_db`]), with modules for message handling, DAG
//!   reduction, prediction and planning. Because all state is
//!   WAL-backed, the server is recoverable from crashes (§3.1).
//! * [`client`] — the lightweight scheduling agent: submits planned jobs
//!   to the grid resource management layer and hosts the **job tracker**,
//!   which feeds completion times and failure reports back to the server
//!   (§3.3).
//! * [`strategy`] — the four §4.1 scheduling algorithms (round-robin,
//!   number-of-CPUs, queue-length, completion-time hybrid), each usable
//!   with or without tracker feedback and with or without policy
//!   constraints.
//! * [`prediction`] — per-site average job completion times (eq. 3's
//!   `Avg_comp`).
//! * [`reliability`] — the feedback ledger: sites with more cancelled
//!   than completed jobs are flagged unreliable (§4, *Importance of
//!   feedback information*).
//! * [`driver`] — the one event loop driving a whole experiment: grid
//!   simulator + monitor + servers + client, with planner/monitor/timeout
//!   cycles, producing the [`report::RunReport`] every figure is built
//!   from. [`runtime`] names its single-scheduler deployment; [`shard`] is
//!   the coordination plane (leases, epochs, ledger, adoption) that turns
//!   it into N schedulers over a partitioned DAG space.

pub mod client;
pub mod driver;
pub mod error;
pub mod messages;
pub mod prediction;
pub mod reliability;
pub mod report;
pub mod rpc;
pub mod runtime;
pub mod server;
pub mod shard;
pub mod state;
pub mod strategy;

pub use client::SphinxClient;
pub use driver::Driver;
pub use error::{CoreError, CoreResult};
pub use report::RunReport;
pub use rpc::ServerHandle;
pub use runtime::{RuntimeConfig, SphinxRuntime};
pub use server::{ServerConfig, SphinxServer};
pub use shard::{
    AdoptionRecord, CrashPoint, ShardConfig, ShardCrash, ShardedRuntime, SiteLeaseRow,
};
pub use strategy::StrategyKind;
