//! Transactions and log entries.
//!
//! The log is the one place rows exist as JSON. Each put row prints itself
//! once, straight into a hand-framed line ([`TxnLine`], [`snapshot_line`]);
//! recovery parses lines back through the derived [`LogEntry`] decoder,
//! which moves each row out of the parsed line (a snapshot's rows are the
//! whole store: a copy of them was recovery's peak). The bytes are what
//! serializing a `LogEntry` gives (the test module holds that derive as
//! the oracle), so logs written before rows were typed replay and any JSON
//! tool can audit the log.

use crate::database::{Database, Record};
use crate::error::DbError;
use crate::table::Store;
use serde::{Deserialize, Serialize};
use std::ops::ControlFlow;

/// One mutation inside a committed transaction, as replayed.
#[derive(Debug, Clone, Deserialize)]
#[cfg_attr(test, derive(Serialize))]
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

/// One table inside a snapshot. Rows are stored as explicit `(key, row)`
/// pairs because JSON maps cannot carry integer keys.
#[derive(Debug, Clone, Deserialize)]
#[cfg_attr(test, derive(Serialize))]
pub(crate) struct SnapshotTable {
    pub(crate) name: String,
    pub(crate) rows: Vec<(u64, serde_json::Value)>,
}

/// One line of the write-ahead log, as replayed.
#[derive(Debug, Clone, Deserialize)]
#[cfg_attr(test, derive(Serialize))]
#[serde(tag = "kind", rename_all = "snake_case")]
pub(crate) enum LogEntry {
    /// A committed transaction.
    Txn { ops: Vec<Op> },
    /// A checkpoint: the full table state at compaction time.
    Snapshot { tables: Vec<SnapshotTable> },
}

/// A `txn` log line under construction:
/// `{"kind":"txn","ops":[{"key":K,"op":"put","row":…,"table":"T"},{"key":K,"op":"del","table":"T"}]}`
/// (members in key order, as the canonical encoder prints them).
pub(crate) struct TxnLine(String);

impl TxnLine {
    /// A line framed in `buf`, a buffer earlier lines have grown to fit.
    pub(crate) fn reusing(mut buf: String) -> Self {
        buf.clear();
        buf.push_str(r#"{"kind":"txn","ops":["#);
        TxnLine(buf)
    }

    /// Add `{"key":K,<op>,"table":"T"}`, a put's row printed after its op.
    fn op(&mut self, table: &str, key: u64, op: &str, row: Option<&dyn Serialize>) {
        let out = &mut self.0;
        out.push_str(if out.ends_with('[') { "" } else { "," });
        out.push_str(r#"{"key":"#);
        key.write_json(out);
        out.push_str(op);
        if let Some(row) = row {
            row.write_json(out);
        }
        out.push_str(r#","table":"#);
        table.write_json(out);
        out.push('}');
    }

    /// Add a put: where a committed row is turned into JSON.
    pub(crate) fn put<T: Serialize>(&mut self, table: &str, key: u64, row: &T) {
        self.op(table, key, r#","op":"put","row":"#, Some(row));
    }

    /// Add a delete.
    pub(crate) fn del(&mut self, table: &str, key: u64) {
        self.op(table, key, r#","op":"del""#, None);
    }

    /// The finished line.
    pub(crate) fn finish(mut self) -> String {
        self.0.push_str("]}");
        self.0
    }
}

/// The `snapshot` line describing `store`, printed table by table:
/// `{"kind":"snapshot","tables":[{"name":"T","rows":[[K,…],…]},…]}`.
pub(crate) fn snapshot_line(store: &Store) -> String {
    let mut out = String::from(r#"{"kind":"snapshot","tables":["#);
    for (name, table) in store.tables() {
        out.push_str(if out.ends_with('[') { "" } else { "," });
        out.push_str(r#"{"name":"#);
        name.write_json(&mut out);
        out.push_str(r#","rows":["#);
        table.write_rows(&mut out);
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// A buffered operation, erased so one transaction can span row types.
trait Pending: Send {
    /// Frame the operation, first opening the table of a put as its row
    /// type so that `apply` cannot fail once the line is in the log.
    fn prepare(&self, store: &mut Store, line: &mut TxnLine) -> Result<(), DbError>;
    fn apply(self: Box<Self>, store: &mut Store) -> Result<(), DbError>;
}

/// A put: the row itself is the pending operation.
impl<R: Record> Pending for R {
    fn prepare(&self, store: &mut Store, line: &mut TxnLine) -> Result<(), DbError> {
        store.typed::<R>(R::TABLE)?;
        line.put(R::TABLE, self.key(), self);
        Ok(())
    }

    fn apply(self: Box<Self>, store: &mut Store) -> Result<(), DbError> {
        store.apply_put(R::TABLE, self.key(), *self)
    }
}

/// A delete of `key` from `table`.
struct Del(&'static str, u64);

impl Pending for Del {
    fn prepare(&self, _: &mut Store, line: &mut TxnLine) -> Result<(), DbError> {
        line.del(self.0, self.1);
        Ok(())
    }

    fn apply(self: Box<Self>, store: &mut Store) -> Result<(), DbError> {
        store.apply_del(self.0, self.1);
        Ok(())
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
    ops: Vec<Box<dyn Pending>>,
}

impl<'a> Txn<'a> {
    pub(crate) fn new(db: &'a Database) -> Self {
        Txn {
            db,
            ops: Vec::new(),
        }
    }

    /// Buffer an upsert.
    pub fn put<R: Record>(&mut self, row: &R) -> Result<&mut Self, DbError> {
        self.ops.push(Box::new(row.clone()));
        Ok(self)
    }

    /// Buffer a delete.
    pub fn delete<R: Record>(&mut self, key: u64) -> &mut Self {
        self.ops.push(Box::new(Del(R::TABLE, key)));
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
        if self.ops.is_empty() {
            return Ok(());
        }
        let Txn { db, ops } = self;
        db.commit(
            |store, line| {
                ops.iter().try_for_each(|op| op.prepare(store, line))?;
                Ok(ControlFlow::Continue(ops))
            },
            |store, ops| ops.into_iter().try_for_each(|op| op.apply(store)),
        )
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

    // ---- the format pin: hand-framed lines == the derived encoder ----
    //
    // `LogEntry`'s `Serialize` derive (compiled for tests only) is how
    // every log line was written before rows were typed. The lines the
    // commit path frames by hand must be those bytes exactly.

    use crate::wal::Wal;
    use proptest::prelude::*;
    use serde_json::Value;
    use std::collections::BTreeMap;

    impl TxnLine {
        fn new() -> Self {
            TxnLine::reusing(String::new())
        }
    }

    #[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
    struct Inner {
        flag: bool,
        ratio: Option<f64>,
        delta: i64,
    }

    /// A row with everything a real one has: nesting, floats, `Option`s,
    /// a list, and strings that need escaping.
    #[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
    struct Nested {
        id: u64,
        name: String,
        score: f64,
        note: Option<String>,
        inner: Inner,
        path: Vec<u32>,
    }
    impl Record for Nested {
        const TABLE: &'static str = "nested";
        fn key(&self) -> u64 {
            self.id
        }
    }

    const STRINGS: [&str; 8] = [
        "",
        "plain",
        "quo\"te",
        "back\\slash",
        "line\nbreak\ttab",
        "ctl\u{1}\u{1f}",
        "unicode \u{e9}\u{2713}\u{1f600}",
        "{\"looks\":[\"like\",\"json\"]}",
    ];
    const TABLES: [&str; 4] = ["t", "shard0/jobs", "inbox.seq", "odd \"name\"\\"];

    fn nested() -> impl Strategy<Value = Nested> {
        (0u64..1 << 40, 0usize..8, -4000i64..4000, 0usize..16).prop_map(|(id, s, n, bits)| Nested {
            id,
            name: STRINGS[s].to_owned(),
            // Integral, fractional, negative, tiny and huge floats.
            score: [n as f64, n as f64 / 8.0, n as f64 * 1e-9, n as f64 * 1e17][bits % 4],
            note: (bits & 4 != 0).then(|| STRINGS[(s + bits) % 8].to_owned()),
            inner: Inner {
                flag: bits & 8 != 0,
                ratio: (bits & 1 != 0).then_some(n as f64 / 3.0),
                delta: n,
            },
            path: (0..bits as u32 % 4).collect(),
        })
    }

    /// `(is_put, table, key, row)`.
    fn op() -> impl Strategy<Value = (bool, usize, u64, Nested)> {
        (0u64..4, 0usize..4, 0u64..u64::MAX, nested())
            .prop_map(|(kind, table, key, row)| (kind != 0, table, key, row))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64 })]

        #[test]
        fn txn_lines_are_framed_as_the_derive_encodes_them(
            ops in proptest::collection::vec(op(), 1..12)
        ) {
            let mut line = TxnLine::new();
            let mut oracle = Vec::new();
            for (is_put, table, key, row) in &ops {
                let table = TABLES[*table];
                if *is_put {
                    line.put(table, *key, row);
                    oracle.push(Op::Put {
                        table: table.to_owned(),
                        key: *key,
                        row: serde_json::to_value(row).unwrap(),
                    });
                } else {
                    line.del(table, *key);
                    oracle.push(Op::Del { table: table.to_owned(), key: *key });
                }
            }
            let line = line.finish();
            let entry = LogEntry::Txn { ops: oracle };
            prop_assert_eq!(&line, &serde_json::to_string(&entry).unwrap());
            // And what replays from it is what was framed, whether the
            // decoder moves the rows out of the parsed line (as recovery
            // does) or copies them.
            let back: LogEntry = serde_json::from_str(&line).unwrap();
            prop_assert_eq!(&serde_json::to_string(&back).unwrap(), &line);
            let parsed: Value = serde_json::from_str(&line).unwrap();
            let copied = LogEntry::from_value(&parsed).unwrap();
            prop_assert_eq!(serde_json::to_string(&copied).unwrap(), line);
        }

        /// Snapshots, over every mix the store can hold: typed tables,
        /// tables still raw after a recovery, a hydrated table with an
        /// undecodable row left in it, and tables emptied by deletes.
        #[test]
        fn snapshot_lines_are_framed_as_the_derive_encodes_them(
            rows in proptest::collection::vec(nested(), 0..12),
            hydrate in any::<bool>(),
        ) {
            let wal = MemWal::shared();
            let db = Database::with_wal(Box::new(wal.clone()));
            let mut model: BTreeMap<String, BTreeMap<u64, Value>> = BTreeMap::new();
            for row in &rows {
                db.put(row).unwrap();
                let value = serde_json::to_value(row).unwrap();
                model.entry("nested".to_owned()).or_default().insert(row.id, value);
            }
            // A table emptied by deletes is still listed.
            db.put(&A { id: 1, v: 1 }).unwrap();
            db.delete::<A>(1).unwrap();
            model.insert("a".to_owned(), BTreeMap::new());
            // A row this version cannot decode, between the others.
            let odd = r#"{"id":"not a number","v":[1.5,null]}"#;
            wal.clone()
                .append(&format!(
                    r#"{{"kind":"txn","ops":[{{"key":7,"op":"put","row":{odd},"table":"b"}}]}}"#
                ))
                .unwrap();
            model.entry("b".to_owned()).or_default().insert(7, serde_json::from_str(odd).unwrap());
            let db = Database::recover(Box::new(wal.clone())).unwrap();
            for id in [3u64, 9] {
                db.put(&B { id, v: -1 }).unwrap();
                let value = serde_json::to_value(B { id, v: -1 }).unwrap();
                model.entry("b".to_owned()).or_default().insert(id, value);
            }
            if hydrate {
                db.scan::<Nested>().unwrap();
            }

            db.checkpoint().unwrap();
            let entry = LogEntry::Snapshot {
                tables: model
                    .into_iter()
                    .map(|(name, rows)| SnapshotTable { name, rows: rows.into_iter().collect() })
                    .collect(),
            };
            let lines = wal.read_all().unwrap();
            prop_assert_eq!(lines, vec![serde_json::to_string(&entry).unwrap()]);
        }
    }
}
