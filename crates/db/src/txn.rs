//! Transactions and log entries.

use crate::database::{Database, Primed, Record, Tables};
use crate::error::DbError;
use serde::{Deserialize, Serialize};

/// One mutation inside a committed transaction.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "op", rename_all = "snake_case")]
pub(crate) enum Op {
    /// Insert or overwrite `row` at `key`.
    Put {
        table: String,
        key: u64,
        row: serde_json::Value,
    },
    /// Delete `key`.
    Del { table: String, key: u64 },
}

impl Op {
    pub(crate) fn apply(self, tables: &mut Tables) {
        match self {
            Op::Put { table, key, row } => {
                tables.entry(table).or_default().insert(key, row);
            }
            Op::Del { table, key } => {
                if let Some(t) = tables.get_mut(&table) {
                    t.remove(&key);
                }
            }
        }
    }
}

/// One table inside a snapshot. Rows are stored as explicit `(key, row)`
/// pairs because JSON maps cannot carry integer keys.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct SnapshotTable {
    pub(crate) name: String,
    pub(crate) rows: Vec<(u64, serde_json::Value)>,
}

/// One line of the write-ahead log.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub(crate) enum LogEntry {
    /// A committed transaction.
    Txn { ops: Vec<Op> },
    /// A checkpoint: the full table state at compaction time.
    Snapshot { tables: Vec<SnapshotTable> },
}

impl LogEntry {
    pub(crate) fn snapshot_of(tables: &Tables) -> Self {
        LogEntry::Snapshot {
            tables: tables
                .iter()
                .map(|(name, t)| SnapshotTable {
                    name: name.clone(),
                    rows: t.iter().map(|(&k, v)| (k, v.clone())).collect(),
                })
                .collect(),
        }
    }

    pub(crate) fn apply(self, tables: &mut Tables) {
        match self {
            LogEntry::Txn { ops } => {
                for op in ops {
                    op.apply(tables);
                }
            }
            LogEntry::Snapshot { tables: snap } => {
                tables.clear();
                for t in snap {
                    tables.insert(t.name, t.rows.into_iter().collect());
                }
            }
        }
    }
}

/// A pending multi-table transaction. Writes are buffered and take effect
/// atomically at [`Txn::commit`]; dropping the transaction discards them.
///
/// Reads performed through the parent [`Database`] while a transaction is
/// open do **not** see its buffered writes — the server's modules each
/// commit their own small transactions, so read-your-own-writes inside one
/// transaction is intentionally unsupported (and its absence keeps commit
/// atomicity trivially correct).
#[must_use = "a transaction does nothing until committed"]
pub struct Txn<'a> {
    db: &'a Database,
    ops: Vec<Op>,
    /// Decoded copies of the put rows, used to prime the row cache at
    /// commit so the freshly-written rows never need re-decoding.
    primed: Vec<Primed>,
}

impl<'a> Txn<'a> {
    pub(crate) fn new(db: &'a Database) -> Self {
        Txn {
            db,
            ops: Vec::new(),
            primed: Vec::new(),
        }
    }

    /// Buffer an upsert.
    pub fn put<R: Record>(&mut self, row: &R) -> Result<&mut Self, DbError> {
        let value = serde_json::to_value(row).map_err(|e| DbError::Codec {
            table: R::TABLE.to_owned(),
            message: e.to_string(),
        })?;
        self.ops.push(Op::Put {
            table: R::TABLE.to_owned(),
            key: row.key(),
            row: value,
        });
        self.primed.push(Primed {
            table: R::TABLE.to_owned(),
            key: row.key(),
            row: Box::new(row.clone()),
        });
        Ok(self)
    }

    /// Buffer a delete.
    pub fn delete<R: Record>(&mut self, key: u64) -> &mut Self {
        self.ops.push(Op::Del {
            table: R::TABLE.to_owned(),
            key,
        });
        self
    }

    /// Number of buffered operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if nothing has been buffered.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Atomically apply all buffered operations (one WAL line).
    pub fn commit(self) -> Result<(), DbError> {
        self.db.commit_ops_primed(self.ops, self.primed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::MemWal;
    use crate::Database;
    use serde::Deserialize;

    #[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
    struct A {
        id: u64,
        v: i32,
    }
    impl Record for A {
        const TABLE: &'static str = "a";
        fn key(&self) -> u64 {
            self.id
        }
    }

    #[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
    struct B {
        id: u64,
        v: i32,
    }
    impl Record for B {
        const TABLE: &'static str = "b";
        fn key(&self) -> u64 {
            self.id
        }
    }

    #[test]
    fn txn_commits_across_tables_atomically() {
        let wal = MemWal::shared();
        let db = Database::with_wal(Box::new(wal.clone()));
        let mut txn = db.txn();
        txn.put(&A { id: 1, v: 10 }).unwrap();
        txn.put(&B { id: 1, v: 20 }).unwrap();
        assert_eq!(txn.len(), 2);
        txn.commit().unwrap();
        assert_eq!(db.get::<A>(1).unwrap().v, 10);
        assert_eq!(db.get::<B>(1).unwrap().v, 20);
        // Exactly one WAL line for the whole transaction.
        assert_eq!(wal.len(), 1);
    }

    #[test]
    fn dropped_txn_has_no_effect() {
        let db = Database::in_memory();
        {
            let mut txn = db.txn();
            txn.put(&A { id: 9, v: 9 }).unwrap();
            // dropped without commit
        }
        assert!(db.get::<A>(9).is_none());
    }

    #[test]
    fn txn_put_then_delete_nets_out() {
        let db = Database::in_memory();
        let mut txn = db.txn();
        txn.put(&A { id: 1, v: 1 }).unwrap();
        txn.delete::<A>(1);
        txn.commit().unwrap();
        assert!(db.get::<A>(1).is_none());
    }

    #[test]
    fn empty_txn_commits_without_logging() {
        let wal = MemWal::shared();
        let db = Database::with_wal(Box::new(wal.clone()));
        let txn = db.txn();
        assert!(txn.is_empty());
        txn.commit().unwrap();
        assert_eq!(wal.len(), 0);
    }

    #[test]
    fn torn_multi_op_txn_is_all_or_nothing_on_recovery() {
        let wal = MemWal::shared();
        {
            let db = Database::with_wal(Box::new(wal.clone()));
            db.insert(&A { id: 1, v: 1 }).unwrap();
            let mut txn = db.txn();
            txn.put(&A { id: 2, v: 2 }).unwrap();
            txn.put(&B { id: 2, v: 2 }).unwrap();
            txn.commit().unwrap();
        }
        wal.tear_last_line();
        let db = Database::recover(Box::new(wal)).unwrap();
        // The torn transaction disappears entirely — neither table has id 2.
        assert!(db.get::<A>(2).is_none());
        assert!(db.get::<B>(2).is_none());
        assert!(db.get::<A>(1).is_some());
    }
}
