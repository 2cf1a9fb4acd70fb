//! Transactional table store with write-ahead logging.
//!
//! The SPHINX server of the paper "adopts database infrastructure to manage
//! \[the\] scheduling procedure": every scheduling module reads entity state
//! from database tables, edits it, and writes it back; the database also
//! makes the server "easily recoverable from internal component failures"
//! (§3.1, *Robust and recoverable system*). The original used an external
//! SQL server; this crate provides the same two properties — table-mediated
//! module communication and crash recovery — as an embeddable store:
//!
//! * **Typed tables.** Any `Serialize + DeserializeOwned` type with a `u64`
//!   primary key is a [`Record`]; one table per record type, holding its
//!   rows as that type (JSON exists only in the log).
//! * **Atomic transactions.** A [`Txn`] batches writes across tables and
//!   commits them as one write-ahead-log entry; a crash between commits
//!   never exposes half a transaction.
//! * **Write-ahead log.** Every commit appends one JSON line to a [`Wal`]
//!   ([`MemWal`] for simulations and tests, [`FileWal`] for durability).
//!   [`Database::recover`] replays the log — including the interrupted-line
//!   case — to rebuild the exact committed state.
//! * **Checkpoints.** [`Database::checkpoint`] compacts the log to a single
//!   snapshot entry so recovery stays O(live data), not O(history).
//!
//! ```
//! use serde::{Deserialize, Serialize};
//! use sphinx_db::{Database, MemWal, Record};
//!
//! #[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
//! struct JobRow { id: u64, state: String }
//! impl Record for JobRow {
//!     const TABLE: &'static str = "jobs";
//!     fn key(&self) -> u64 { self.id }
//! }
//!
//! let wal = MemWal::shared();
//! let db = Database::with_wal(Box::new(wal.clone()));
//! db.insert(&JobRow { id: 1, state: "planned".into() }).unwrap();
//!
//! // Simulated crash: recover a fresh database from the same log.
//! let recovered = Database::recover(Box::new(wal)).unwrap();
//! assert_eq!(recovered.get::<JobRow>(1).unwrap().state, "planned");
//! ```

mod database;
mod error;
mod queue;
mod scan;
mod table;
mod txn;
mod wal;

pub use database::{CheckpointPolicy, Database, Ns, Record, TableStats};
pub use error::DbError;
pub use queue::{Queue, QueueName};
pub use txn::Txn;
pub use wal::{FileWal, FsyncPolicy, MemWal, Wal};
