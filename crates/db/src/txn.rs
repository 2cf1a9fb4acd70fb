//! Transactions and log entries.
//!
//! The log is the one place rows exist as JSON. Each put row prints itself
//! once, straight into a hand-framed line ([`TxnLine`], [`write_snapshot`]),
//! and recovery reads lines back by hand as well ([`read_printed`]): it
//! matches every byte of the line against the shape printed here, builds
//! no tree, and hands each put row on as its own text, for the table to
//! decode when a typed access first needs it. A line in any other shape is
//! refused. The bytes are what serializing a `LogEntry` gives, and what
//! replays is what the derived `LogEntry` decoder reads (the test build
//! holds both derives as the oracles), so logs written before rows were
//! typed replay and any JSON tool can audit the log.

use crate::database::{Database, Record};
use crate::error::DbError;
use crate::scan::Printed;
use crate::table::{Store, Table};
use serde::de::Error;
use serde::Serialize;
use std::collections::BTreeMap;
use std::ops::ControlFlow;

#[cfg(test)]
use serde::Deserialize;

/// One mutation inside a committed transaction, as the oracle decodes it.
#[cfg(test)]
#[derive(Debug, Clone, Deserialize, Serialize)]
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
#[cfg(test)]
#[derive(Debug, Clone, Deserialize, Serialize)]
pub(crate) struct SnapshotTable {
    pub(crate) name: String,
    pub(crate) rows: Vec<(u64, serde_json::Value)>,
}

/// One line of the write-ahead log, as the oracle decodes it.
#[cfg(test)]
#[derive(Debug, Clone, Deserialize, Serialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub(crate) enum LogEntry {
    /// A committed transaction.
    Txn { ops: Vec<Op> },
    /// A checkpoint: the full table state at compaction time.
    Snapshot { tables: Vec<SnapshotTable> },
}

// ---------------------------------------------------------------------------
// Reading a line back
// ---------------------------------------------------------------------------

/// One op of a replayed `txn` line, its text left in the line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OpAt {
    pub(crate) key: u64,
    /// Where the table name starts and ends, quotes excluded.
    pub(crate) table: (usize, usize),
    /// Where a put's row starts and ends; `None` for a delete.
    pub(crate) row: Option<(usize, usize)>,
}

/// What one line of the log holds, read whole.
pub(crate) enum Replayed {
    /// A `txn` line, its ops in the list the reader was given.
    Txn,
    /// A `snapshot` line: every table, each row as its text.
    Snapshot(BTreeMap<String, Table>),
}

/// Read one log line as [`TxnLine`] and [`write_snapshot`] print it, byte
/// for byte, each row stepped over by the scanner
/// ([`crate::scan::value_end`]), or refuse it at the first byte that
/// differs. `ops` is cleared and refilled.
pub(crate) fn read_printed(line: &str, ops: &mut Vec<OpAt>) -> Result<Replayed, Error> {
    let mut p = Printed::new(line);
    let read = if p.eat(r#"{"kind":"txn","ops":["#) {
        ops.clear();
        let mut more = !p.eat("]");
        while more {
            p.step(r#"{"key":"#)?;
            let key = p.key()?;
            let row = match p.eat(r#","op":"put","row":"#) {
                true => Some(p.row()?),
                false => p.step(r#","op":"del""#).map(|()| None)?,
            };
            p.step(r#","table":"#)?;
            let table = p.name()?;
            p.step("}")?;
            ops.push(OpAt { key, table, row });
            more = p.more()?;
        }
        Replayed::Txn
    } else {
        p.step(r#"{"kind":"snapshot","tables":["#)?;
        let mut tables = BTreeMap::new();
        let mut more = !p.eat("]");
        while more {
            p.step(r#"{"name":"#)?;
            let (from, to) = p.name()?;
            p.step(r#","rows":["#)?;
            let mut rows = BTreeMap::new();
            let mut more_rows = !p.eat("]");
            while more_rows {
                p.step("[")?;
                let key = p.key()?;
                p.step(",")?;
                let (from, to) = p.row()?;
                p.step("]")?;
                rows.insert(key, Box::from(line.get(from..to).unwrap_or_default()));
                more_rows = p.more()?;
            }
            p.step("}")?;
            // Recovery runs once, at start-up.
            let name = line.get(from..to).unwrap_or_default().to_owned(); // sphinx-lint: allow(hot-alloc)
            tables.insert(name, Table::replayed(rows));
            more = p.more()?;
        }
        Replayed::Snapshot(tables)
    };
    p.step("}")?;
    p.end()?;
    Ok(read)
}

/// A `txn` log line under construction:
/// `{"kind":"txn","ops":[{"key":K,"op":"put","row":…,"table":"T"},{"key":K,"op":"del","table":"T"}]}`
/// (members in key order, as the canonical encoder prints them).
pub(crate) struct TxnLine {
    out: String,
    /// The first table name printed with an escape, which [`read_printed`]
    /// refuses: a line holding one is never appended ([`TxnLine::check`]).
    escaped: Option<String>,
}

impl TxnLine {
    /// A line framed in `buf`, a buffer earlier lines have grown to fit.
    pub(crate) fn reusing(mut buf: String) -> Self {
        buf.clear();
        buf.push_str(r#"{"kind":"txn","ops":["#);
        TxnLine {
            out: buf,
            escaped: None,
        }
    }

    /// Add `{"key":K,<op>,"table":"T"}`, a put's row printed after its op;
    /// the bytes the row printed to.
    fn op(&mut self, table: &str, key: u64, op: &str, row: Option<&dyn Serialize>) -> usize {
        let out = &mut self.out;
        out.push_str(if out.ends_with('[') { "" } else { "," });
        out.push_str(r#"{"key":"#);
        key.write_json(out);
        out.push_str(op);
        let start = out.len();
        if let Some(row) = row {
            row.write_json(out);
        }
        let printed = out.len() - start;
        out.push_str(r#","table":"#);
        let name = out.len();
        table.write_json(out);
        let escaped = out
            .get(name..)
            .is_some_and(|printed| printed.contains('\\'));
        if escaped && self.escaped.is_none() {
            // Only a name the log could not be recovered past.
            self.escaped = Some(table.to_owned()); // sphinx-lint: allow(hot-alloc)
        }
        out.push('}');
        printed
    }

    /// Refuse the line if a table name in it needs an escape: the reader
    /// would refuse it too, and lose every commit from it on.
    pub(crate) fn check(&mut self) -> Result<(), DbError> {
        match self.escaped.take() {
            Some(table) => Err(DbError::TableName { table }),
            None => Ok(()),
        }
    }

    /// Add a put: where a committed row is turned into JSON. Returns the
    /// bytes the row printed to, which the store keeps beside the row.
    pub(crate) fn put<T: Serialize>(&mut self, table: &str, key: u64, row: &T) -> usize {
        self.op(table, key, r#","op":"put","row":"#, Some(row))
    }

    /// Add a delete.
    pub(crate) fn del(&mut self, table: &str, key: u64) {
        self.op(table, key, r#","op":"del""#, None);
    }

    /// The finished line.
    pub(crate) fn finish(mut self) -> String {
        self.out.push_str("]}");
        self.out
    }
}

/// Print the `snapshot` line describing `store` onto `out`, table by
/// table: `{"kind":"snapshot","tables":[{"name":"T","rows":[[K,…],…]},…]}`,
/// into room reserved for the whole line at once, so a snapshot of
/// megabytes is not copied as it grows.
pub(crate) fn write_snapshot(store: &Store, out: &mut String) {
    out.reserve_exact(store.snapshot_bound());
    out.push_str(r#"{"kind":"snapshot","tables":["#);
    for (name, table) in store.tables() {
        out.push_str(if out.ends_with('[') { "" } else { "," });
        out.push_str(r#"{"name":"#);
        name.write_json(out);
        out.push_str(r#","rows":["#);
        table.write_rows(out);
        out.push_str("]}");
    }
    out.push_str("]}");
}

/// The `snapshot` line describing `store`.
#[cfg(test)]
pub(crate) fn snapshot_line(store: &Store) -> String {
    let mut out = String::new();
    write_snapshot(store, &mut out);
    out
}

/// A buffered operation, erased so one transaction can span row types.
trait Pending: Send {
    /// Frame the operation, first opening the table of a put as its row
    /// type so that `apply` cannot fail once the line is in the log; the
    /// bytes a put's row printed to.
    fn prepare(&self, store: &mut Store, line: &mut TxnLine) -> Result<usize, DbError>;
    /// Apply the operation; `len` is what `prepare` returned.
    fn apply(self: Box<Self>, store: &mut Store, len: usize) -> Result<(), DbError>;
}

/// A put: the row itself is the pending operation.
impl<R: Record> Pending for R {
    fn prepare(&self, store: &mut Store, line: &mut TxnLine) -> Result<usize, DbError> {
        store.typed::<R>(R::TABLE)?;
        Ok(line.put(R::TABLE, self.key(), self))
    }

    fn apply(self: Box<Self>, store: &mut Store, len: usize) -> Result<(), DbError> {
        store.apply_put(R::TABLE, self.key(), *self, len)
    }
}

/// A delete of `key` from `table`.
struct Del(&'static str, u64);

impl Pending for Del {
    fn prepare(&self, _: &mut Store, line: &mut TxnLine) -> Result<usize, DbError> {
        line.del(self.0, self.1);
        Ok(0)
    }

    fn apply(self: Box<Self>, store: &mut Store, _: usize) -> Result<(), DbError> {
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
    /// Each buffered operation, and the bytes its row printed to once
    /// the line is framed.
    ops: Vec<(Box<dyn Pending>, usize)>,
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
        self.ops.push((Box::new(row.clone()), 0));
        Ok(self)
    }

    /// Buffer a delete.
    pub fn delete<R: Record>(&mut self, key: u64) -> &mut Self {
        self.ops.push((Box::new(Del(R::TABLE, key)), 0));
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
        let Txn { db, mut ops } = self;
        db.commit(
            |store, line| {
                for (op, len) in &mut ops {
                    *len = op.prepare(store, line)?;
                }
                Ok(ControlFlow::Continue(ops))
            },
            |store, ops| {
                ops.into_iter()
                    .try_for_each(|(op, len)| op.apply(store, len))
            },
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
            let refused = line.check().is_err();
            let line = line.finish();
            let entry = LogEntry::Txn { ops: oracle };
            prop_assert_eq!(&line, &serde_json::to_string(&entry).unwrap());
            // And what replays from it is what was framed: through the
            // reader recovery uses, which refuses a table name that needs
            // an escape (so the commit path refuses to log it), and
            // through the oracle decoder.
            let mut read = Vec::new();
            let escaped = ops.iter().any(|op| TABLES[op.1].contains(['"', '\\']));
            prop_assert_eq!(refused, escaped);
            let replayed = read_printed(&line, &mut read);
            prop_assert_eq!(matches!(replayed, Ok(Replayed::Txn)), !escaped, "{}", line);
            if !escaped {
                prop_assert_eq!(read.len(), ops.len());
            }
            for (at, (is_put, table, key, row)) in read.iter().zip(&ops) {
                let name = &line[at.table.0..at.table.1];
                prop_assert_eq!((at.key, name), (*key, TABLES[*table]));
                let text = at.row.map(|(from, to)| &line[from..to]);
                let printed = is_put.then(|| serde_json::to_string(row).unwrap());
                prop_assert_eq!(text, printed.as_deref());
            }
            let back: LogEntry = serde_json::from_str(&line).unwrap();
            prop_assert_eq!(serde_json::to_string(&back).unwrap(), line);
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

#[cfg(test)]
pub(crate) use replay_oracle::{oracle, verdict, wal_of, Model, Verdict};

/// The replay oracle. Recovery reads each line by hand ([`read_printed`]);
/// before it did, it decoded the line with the derived `LogEntry` decoder
/// (an internally tagged enum, which finds its `kind` by reading ahead),
/// and that decoder (compiled for tests only) is what it is held to, line
/// by line ([`verdict`]), over logs that use every freedom JSON allows:
/// members in any order, whitespace between tokens, repeated members (the
/// last one wins), unknown members, escapes and surrogate pairs, damaged
/// lines and a torn tail. Recovery is held to it on both of its read
/// paths: a backend that reads in place, and a `Wal` that implements only
/// the required methods and is read through the copy-out defaults.
#[cfg(test)]
mod replay_oracle {
    use super::{read_printed, LogEntry, Op, Replayed, SnapshotTable};
    use crate::wal::{lines_oracle, temp_path, FileWal, FsyncPolicy, MemWal, Wal};
    use crate::{Database, DbError};
    use proptest::prelude::*;
    use serde_json::Value;
    use std::collections::BTreeMap;

    /// The tables as the oracle keeps them: each row as a `Value`.
    pub(crate) type Model = BTreeMap<String, BTreeMap<u64, Value>>;

    /// Recover `lines` through the derived decoder: the tables and the
    /// lines replayed, or the number of the corrupt line. A line that does
    /// not decode, or that `refused` names, is corrupt, unless it is the
    /// final line: then it is an interrupted commit, and dropped.
    pub(crate) fn oracle(
        lines: &[String],
        refused: impl Fn(&str) -> bool,
    ) -> Result<(Model, u64), usize> {
        let mut model = Model::new();
        for (i, line) in lines.iter().enumerate() {
            let refused = refused(line);
            match serde_json::from_str::<LogEntry>(line)
                .ok()
                .filter(|_| !refused)
            {
                Some(LogEntry::Txn { ops }) => {
                    for op in ops {
                        match op {
                            Op::Put { table, key, row } => {
                                model.entry(table).or_default().insert(key, row);
                            }
                            Op::Del { table, key } => {
                                if let Some(rows) = model.get_mut(&table) {
                                    rows.remove(&key);
                                }
                            }
                        }
                    }
                }
                Some(LogEntry::Snapshot { tables }) => model = tables_of(tables),
                None if i + 1 == lines.len() => return Ok((model, i as u64)),
                None => return Err(i + 1),
            }
        }
        Ok((model, lines.len() as u64))
    }

    /// A snapshot's tables; a repeated name or key replaces the last.
    fn tables_of(tables: Vec<SnapshotTable>) -> Model {
        let table = |t: SnapshotTable| (t.name, t.rows.into_iter().collect());
        tables.into_iter().map(table).collect()
    }

    /// How replay's verdict on one line compares with the decoder's.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(crate) enum Verdict {
        /// Both refuse the line, or both read the same ops or tables.
        Same,
        /// The decoder reads the line and replay refuses it: the line is
        /// not in the shape the store prints.
        Stricter,
    }

    /// What one line holds, rows as `Value`s.
    #[derive(Debug, PartialEq)]
    enum Read {
        Txn(Vec<(String, u64, Option<Value>)>),
        Snapshot(Model),
    }

    impl Read {
        fn decoded(entry: LogEntry) -> Self {
            match entry {
                LogEntry::Txn { ops } => Read::Txn(
                    ops.into_iter()
                        .map(|op| match op {
                            Op::Put { table, key, row } => (table, key, Some(row)),
                            Op::Del { table, key } => (table, key, None),
                        })
                        .collect(),
                ),
                LogEntry::Snapshot { tables } => Read::Snapshot(tables_of(tables)),
            }
        }

        /// What replay read from `line`, each row's text decoded.
        fn replayed(replayed: Replayed, ops: &[super::OpAt], line: &str) -> Self {
            let value = |text: &str| serde_json::from_str::<Value>(text).unwrap();
            match replayed {
                Replayed::Txn => Read::Txn(
                    ops.iter()
                        .map(|op| {
                            let name = line[op.table.0..op.table.1].to_owned();
                            (
                                name,
                                op.key,
                                op.row.map(|(from, to)| value(&line[from..to])),
                            )
                        })
                        .collect(),
                ),
                Replayed::Snapshot(tables) => Read::Snapshot(
                    tables
                        .into_iter()
                        .map(|(name, t)| {
                            let rows = t.raw().iter().map(|(&k, text)| (k, value(text)));
                            (name, rows.collect())
                        })
                        .collect(),
                ),
            }
        }
    }

    /// True if `line` is what the store prints for `entry`: the canonical
    /// encoding, every table name free of escapes.
    fn printed(entry: &LogEntry, line: &str) -> bool {
        let names: Vec<&str> = match entry {
            LogEntry::Txn { ops } => ops
                .iter()
                .map(|op| match op {
                    Op::Put { table, .. } | Op::Del { table, .. } => table.as_str(),
                })
                .collect(),
            LogEntry::Snapshot { tables } => tables.iter().map(|t| t.name.as_str()).collect(),
        };
        let plain = |name: &&str| serde_json::to_string(name).unwrap() == format!("\"{name}\"");
        names.iter().all(plain) && serde_json::to_string(entry).unwrap() == line
    }

    /// Replay's verdict on `line`, held to the decoder's: replay never
    /// reads a line the decoder refuses, reads a line the store printed as
    /// the decoder does, and reads any other line as the decoder does,
    /// rows compared as values, or refuses it. Panics on any other outcome.
    pub(crate) fn verdict(line: &str) -> Verdict {
        let mut ops = Vec::new();
        match (
            serde_json::from_str::<LogEntry>(line),
            read_printed(line, &mut ops),
        ) {
            (Err(_), Err(_)) => Verdict::Same,
            (Err(e), Ok(_)) => panic!("replay reads a line the decoder refuses ({e}): {line}"),
            (Ok(entry), Err(e)) => {
                assert!(
                    !printed(&entry, line),
                    "replay refuses a printed line ({e}): {line}"
                );
                Verdict::Stricter
            }
            (Ok(entry), Ok(read)) => {
                let replayed = Read::replayed(read, &ops, line);
                assert_eq!(replayed, Read::decoded(entry), "{line}");
                Verdict::Same
            }
        }
    }

    /// The snapshot line of a store holding `model`, as the derive prints it.
    pub(crate) fn snapshot_of(model: &Model) -> String {
        let tables = model.iter().map(|(name, rows)| SnapshotTable {
            name: name.clone(),
            rows: rows.iter().map(|(&k, v)| (k, v.clone())).collect(),
        });
        let entry = LogEntry::Snapshot {
            tables: tables.collect(),
        };
        serde_json::to_string(&entry).unwrap()
    }

    /// A log holding `lines`.
    pub(crate) fn wal_of(lines: &[String]) -> MemWal {
        let mut wal = MemWal::shared();
        for line in lines {
            wal.append(line).unwrap();
        }
        wal
    }

    /// A `Wal` that implements only the required methods, as a wrapper
    /// outside this crate does: recovery reads it through the provided
    /// `for_each_line` and `truncate`, a copy of the log from `read_all`.
    struct CopyOut(MemWal);

    impl Wal for CopyOut {
        fn append(&mut self, line: &str) -> Result<(), DbError> {
            self.0.append(line)
        }

        fn read_all(&self) -> Result<Vec<String>, DbError> {
            self.0.read_all()
        }

        fn rewrite(&mut self, lines: &[String]) -> Result<(), DbError> {
            self.0.rewrite(lines)
        }

        fn appended(&self) -> u64 {
            self.0.appended()
        }

        fn rewrites(&self) -> u64 {
            self.0.rewrites()
        }
    }

    /// What recovering `wal` gives: the lines replayed, the live rows and
    /// the snapshot line before any typed access (rows never typed print
    /// canonically), or the corrupt line.
    fn recovered(wal: Box<dyn Wal>) -> Result<(u64, u64, String), usize> {
        match Database::recover(wal) {
            Ok(db) => {
                let rows = db.stats().iter().map(|t| t.rows as u64).sum();
                Ok((db.replayed(), rows, db.snapshot_line()))
            }
            Err(DbError::Corrupt { line, .. }) => Err(line),
            Err(other) => panic!("recovery failed with {other}"),
        }
    }

    /// What the oracle says recovering `lines` gives, as [`recovered`],
    /// each line held to [`verdict`] and the ones replay refuses refused.
    fn expected(lines: &[String]) -> Result<(u64, u64, String), usize> {
        let refused = |line: &str| verdict(line) == Verdict::Stricter;
        oracle(lines, refused).map(|(model, replayed)| {
            let rows: usize = model.values().map(BTreeMap::len).sum();
            (replayed, rows as u64, snapshot_of(&model))
        })
    }

    /// A seeded generator of noisy log text.
    pub(super) struct Gen(pub(super) u64);

    const TABLES: [&str; 4] = ["t", "shard0/jobs", "inbox.seq", "é✓"];
    const NAMES: [&str; 6] = ["a", "b", "id", "x\"y", "é", "😀"];
    const TEXTS: [&str; 6] = [
        "",
        "plain",
        "quo\"te \\ sl/ash",
        "ctl\u{0}\u{8}\u{c}\u{1f}\n\r\t\u{7f}",
        "naïve ✓ 😀",
        "{\"looks\":[\"like\",\"json\"]}",
    ];
    const NUMBERS: [&str; 16] = [
        "0",
        "-0",
        "7",
        "-7",
        "007",
        "18446744073709551615",
        "18446744073709551616",
        "-9223372036854775808",
        "-9223372036854775809",
        "1.5",
        "-2.25",
        "3.0",
        "1e2",
        "1E-3",
        "-0.0",
        "0.1",
    ];

    impl Gen {
        fn next(&mut self) -> u64 {
            // splitmix64
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn one_in(&mut self, n: usize) -> bool {
            self.below(n) == 0
        }

        fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
            xs[self.below(xs.len())]
        }

        /// A table name; now and then one that needs escapes, which the
        /// store refuses to log and replay refuses to read.
        fn table(&mut self) -> &'static str {
            match self.one_in(64) {
                true => "odd \"name\"\\",
                false => self.pick(&TABLES),
            }
        }

        /// Whitespace, now and then.
        fn ws(&mut self) -> &'static str {
            if self.one_in(4) {
                [" ", "\t", "\n", "\r\n ", "  "][self.below(5)]
            } else {
                ""
            }
        }

        /// `s` as a string literal, each character escaped one of the
        /// ways JSON allows (or not at all, where it may stand raw).
        fn string(&mut self, s: &str) -> String {
            let mut out = String::from('"');
            for c in s.chars() {
                let raw = c.to_string();
                let short = match c {
                    '"' => "\\\"",
                    '\\' => "\\\\",
                    '/' => "\\/",
                    '\n' => "\\n",
                    '\r' => "\\r",
                    '\t' => "\\t",
                    '\u{8}' => "\\b",
                    '\u{c}' => "\\f",
                    _ => "",
                };
                let mut units = [0u16; 2];
                let hex: String = c
                    .encode_utf16(&mut units)
                    .iter()
                    .map(|u| match self.one_in(2) {
                        true => format!("\\u{u:04x}"),
                        false => format!("\\u{u:04X}"),
                    })
                    .collect();
                let may_stand_raw = c != '"' && c != '\\';
                out += &match self.below(8) {
                    0 if !short.is_empty() => short.to_owned(),
                    0 | 1 => hex,
                    _ if may_stand_raw => raw,
                    _ if !short.is_empty() && self.one_in(2) => short.to_owned(),
                    _ => hex,
                };
            }
            out.push('"');
            out
        }

        /// Any JSON value.
        fn value(&mut self, depth: usize) -> String {
            match self.below(if depth > 2 { 4 } else { 6 }) {
                0 => "null".to_owned(),
                1 => ["true", "false"][self.below(2)].to_owned(),
                2 => self.pick(&NUMBERS).to_owned(),
                3 => {
                    let text = self.pick(&TEXTS);
                    self.string(text)
                }
                4 => {
                    let items = (0..self.below(4)).map(|_| self.value(depth + 1)).collect();
                    self.array(items)
                }
                _ => {
                    let members = (0..self.below(4))
                        .map(|_| (self.pick(&NAMES).to_owned(), self.value(depth + 1)))
                        .collect();
                    self.object(members, &[])
                }
            }
        }

        fn array(&mut self, items: Vec<String>) -> String {
            let mut out = format!("[{}", self.ws());
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out += &format!("{},{}", self.ws(), self.ws());
                }
                out += item;
            }
            out + self.ws() + "]"
        }

        /// An object of `members` in a shuffled order, some of them after
        /// a decoy of the same name (which the real one replaces) and with
        /// unknown members among them. `decoys` are values of the wrong
        /// type for the members.
        fn object(&mut self, members: Vec<(String, String)>, decoys: &[&str]) -> String {
            let mut items = Vec::new();
            for (name, value) in members {
                if self.one_in(5) {
                    let decoy = match decoys.is_empty() {
                        true => self.value(3),
                        false => self.pick(decoys).to_owned(),
                    };
                    items.push((name.clone(), decoy));
                }
                items.push((name, value));
            }
            if self.one_in(4) {
                let value = self.value(1);
                items.push(("unknown".to_owned(), value));
            }
            // Shuffle, then put each name's occurrences back in their
            // order, so the real member still comes last.
            let mut order: Vec<usize> = (0..items.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, self.below(i + 1));
            }
            let mut shuffled: Vec<Option<(String, String)>> = vec![None; items.len()];
            let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
            for (slot, &from) in order.iter().enumerate() {
                by_name.entry(&items[from].0).or_default().push(slot);
            }
            let mut taken: BTreeMap<&str, usize> = BTreeMap::new();
            for item in &items {
                let n = taken.entry(&item.0).or_default();
                shuffled[by_name[item.0.as_str()][*n]] = Some(item.clone());
                *n += 1;
            }
            let mut out = format!("{{{}", self.ws());
            for (i, (name, value)) in shuffled.into_iter().flatten().enumerate() {
                if i > 0 {
                    out += &format!("{},{}", self.ws(), self.ws());
                }
                let name = self.string(&name);
                out += &format!("{name}{}:{}{value}", self.ws(), self.ws());
            }
            out + self.ws() + "}"
        }

        fn key(&mut self) -> String {
            match self.one_in(8) {
                true => u64::MAX.to_string(),
                false => self.below(6).to_string(),
            }
        }

        fn op(&mut self) -> String {
            let table = self.table();
            let mut members = vec![
                ("table".to_owned(), self.string(table)),
                ("key".to_owned(), self.key()),
            ];
            let put = !self.one_in(4);
            members.push((
                "op".to_owned(),
                self.string(["del", "put"][usize::from(put)]),
            ));
            if put || self.one_in(4) {
                members.push(("row".to_owned(), self.value(0)));
            }
            self.object(members, &["\"7\"", "-1", "1.0", "null", "\"upd\"", "[]"])
        }

        fn snapshot_table(&mut self) -> String {
            let rows = (0..self.below(4))
                .map(|_| {
                    let pair = vec![self.key(), self.value(0)];
                    self.array(pair)
                })
                .collect();
            let name = self.table();
            let members = vec![
                ("name".to_owned(), self.string(name)),
                ("rows".to_owned(), self.array(rows)),
            ];
            self.object(members, &["7", "{}", "[[1]]", "[[\"k\",1]]"])
        }

        pub(super) fn line(&mut self) -> String {
            let snapshot = self.one_in(5);
            let (kind, body, items) = match snapshot {
                true => {
                    let tables = (0..self.below(4)).map(|_| self.snapshot_table()).collect();
                    ("snapshot", "tables", self.array(tables))
                }
                false => {
                    let ops = (0..self.below(5)).map(|_| self.op()).collect();
                    ("txn", "ops", self.array(ops))
                }
            };
            let mut members = vec![
                ("kind".to_owned(), self.string(kind)),
                (body.to_owned(), items),
            ];
            // The other kind's body, which this kind ignores.
            if self.one_in(6) {
                let other = ["tables", "ops"][usize::from(snapshot)];
                members.push((other.to_owned(), self.value(1)));
            }
            let line = self.object(members, &["\"txm\"", "5", "{}", "[7]"]);
            format!("{}{line}{}", self.ws(), self.ws())
        }

        /// `line` with one character cut, added or replaced, or cut short.
        fn damage(&mut self, line: &str) -> String {
            let cuts: Vec<usize> = (0..=line.len())
                .filter(|&i| line.is_char_boundary(i))
                .collect();
            let at = cuts[self.below(cuts.len())];
            let next = cuts.iter().find(|&&i| i > at).copied().unwrap_or(at);
            let junk = [
                "\"", "{", "}", "[", "]", ",", ":", "0", "-", "e", "\\", "x", " ",
            ];
            let junk = self.pick(&junk);
            match self.below(4) {
                0 => line[..at].to_owned(),
                1 => format!("{}{}", &line[..at], &line[next..]),
                2 => format!("{}{junk}{}", &line[..at], &line[at..]),
                _ => format!("{}{junk}{}", &line[..at], &line[next..]),
            }
        }

        /// Lines, most of them printed again as the store prints what the
        /// decoder reads of them, a few damaged, the last one torn half
        /// the time.
        fn log(&mut self) -> Vec<String> {
            let mut lines: Vec<String> = (0..1 + self.below(12)).map(|_| self.line()).collect();
            for line in &mut lines {
                if !self.one_in(32) {
                    if let Ok(entry) = serde_json::from_str::<LogEntry>(line) {
                        *line = serde_json::to_string(&entry).unwrap();
                    }
                }
                if self.one_in(25) {
                    *line = self.damage(line);
                }
            }
            if self.one_in(2) {
                if let Some(last) = lines.pop() {
                    let cuts: Vec<usize> = (0..last.len())
                        .filter(|&i| last.is_char_boundary(i))
                        .collect();
                    lines.push(last[..cuts[self.below(cuts.len())]].to_owned());
                }
            }
            lines
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512 })]

        #[test]
        fn replay_agrees_with_the_derived_decoder(seed in any::<u64>()) {
            let lines = Gen(seed).log();
            let (in_place, copied) = (wal_of(&lines), wal_of(&lines));
            let paths: [(&MemWal, Box<dyn Wal>); 2] = [
                (&in_place, Box::new(in_place.clone())),
                (&copied, Box::new(CopyOut(copied.clone()))),
            ];
            for (log, wal) in paths {
                let got = recovered(wal);
                prop_assert_eq!(&got, &expected(&lines), "{:#?}", lines);
                if let Ok((replayed, ..)) = got {
                    // A torn tail is cut out of the log.
                    prop_assert_eq!(log.len() as u64, replayed);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128 })]

        /// The same generated logs on disk, with and without a final line
        /// end: streamed from the file, a log recovers as the lines the
        /// whole-file reader cuts from it do.
        #[test]
        fn a_file_log_replays_as_its_lines_do(seed in any::<u64>(), ended in any::<bool>()) {
            let mut text = Gen(seed).log().join("\n");
            if ended {
                text.push('\n');
            }
            let path = temp_path("replay-oracle");
            std::fs::write(&path, &text).unwrap();
            let lines = lines_oracle(&path).unwrap();
            let file = FileWal::open_with(&path, FsyncPolicy::Never).unwrap();
            let got = recovered(Box::new(file));
            prop_assert_eq!(&got, &expected(&lines));
            if let Ok((replayed, ..)) = got {
                let after = lines_oracle(&path).unwrap();
                prop_assert_eq!(&after[..], &lines[..replayed as usize]);
                if after.len() < lines.len() {
                    let bytes = std::fs::read(&path).unwrap();
                    prop_assert!(bytes.is_empty() || bytes.ends_with(b"\n"));
                }
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    /// The generator reaches every outcome of recovery often enough to
    /// matter.
    #[test]
    fn generated_logs_cover_every_outcome() {
        let (mut clean, mut torn, mut corrupt) = (0, 0, 0);
        for seed in 0..400 {
            let lines = Gen(seed).log();
            match oracle(&lines, |line| verdict(line) == Verdict::Stricter) {
                Ok((_, replayed)) if replayed == lines.len() as u64 => clean += 1,
                Ok(_) => torn += 1,
                Err(_) => corrupt += 1,
            }
        }
        assert!(
            clean > 100 && torn > 50 && corrupt > 20,
            "{clean} {torn} {corrupt}"
        );
    }
}

/// The byte match held to the derived decoder line by line ([`verdict`]):
/// every printed line reads as the decoder reads it, and any other line
/// reads alike or is refused. Before the byte match was the only reader, a
/// member loop behind it read every line the decoder reads; the lines
/// refused now are counted, by edit.
#[cfg(test)]
mod byte_match {
    use super::replay_oracle::Gen;
    use super::*;
    use crate::scan::tests::Values;
    use proptest::prelude::*;
    use serde_json::Value;

    const TABLES: [&str; 3] = ["t", "shard0/jobs", "inbox.seq"];

    /// A row the generator drew that is JSON, as a tree to print.
    fn row(g: &mut Values) -> Value {
        loop {
            if let Ok(row) = serde_json::from_str(&g.value()) {
                return row;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256 })]

        /// Every line the commit path and a checkpoint print takes the
        /// byte match, rows with escapes, exponents or deep nesting too.
        #[test]
        fn printed_lines_take_the_byte_match(seed in any::<u64>()) {
            let mut g = Values::new(seed);
            let mut store = Store::default();
            for _ in 0..1 + g.below(6) {
                let mut line = TxnLine::reusing(String::new());
                for _ in 0..1 + g.below(4) {
                    let (table, key) = (TABLES[g.below(3)], g.below(4) as u64 * 0x1_0000_0001);
                    match g.below(4) {
                        0 => line.del(table, key),
                        _ => {
                            line.put(table, key, &row(&mut g));
                        }
                    }
                }
                let line = line.finish();
                assert_eq!(verdict(&line), Verdict::Same, "{line}");
                store.replay(&line).unwrap();
            }
            let snapshot = snapshot_line(&store);
            assert_eq!(verdict(&snapshot), Verdict::Same, "{snapshot}");
            store.replay(&snapshot).unwrap();
        }

        /// Lines in every shape the derived decoder takes: members
        /// shuffled and repeated, whitespace, escapes, exponents, damage.
        #[test]
        fn lines_in_other_shapes_are_read_as_the_decoder_reads_them_or_refused(
            seed in any::<u64>()
        ) {
            verdict(&Gen(seed).line());
        }
    }

    #[test]
    fn a_perturbed_line_is_read_as_the_decoder_reads_it_or_refused() {
        let txn = concat!(
            r#"{"kind":"txn","ops":[{"key":7,"op":"put","row":{"a":[1,-2.5,null],"b":"x","#,
            r#""c":{"d":true}},"table":"jobs"},{"key":18,"op":"del","table":"t"}]}"#
        );
        let snapshot = concat!(
            r#"{"kind":"snapshot","tables":[{"name":"jobs","rows":[[7,{"a":[1,-2.5,null]}],"#,
            r#"[9,"x"]]},{"name":"t","rows":[]}]}"#
        );
        let junk = [
            "\"", "\\", "[", "]", "{", "}", ",", ":", "0", "e", "-", ".", " ", "x",
        ];
        // The edits the decoder reads and replay refuses, by edit and line.
        let mut stricter = BTreeMap::<(&str, &str), usize>::new();
        for (name, line) in [("txn", txn), ("snapshot", snapshot)] {
            assert!(read_printed(line, &mut Vec::new()).is_ok());
            let mut edit = |edit, edited: &str| {
                if verdict(edited) == Verdict::Stricter {
                    *stricter.entry((name, edit)).or_default() += 1;
                }
            };
            for at in 0..=line.len() {
                let (head, tail) = line.split_at(at);
                edit("torn", head);
                edit("space added", &format!("{head} {tail}"));
                edit("CR LF added", &format!("{head}\r\n{tail}"));
                let Some(rest) = tail.get(1..) else {
                    continue;
                };
                edit("byte cut", &format!("{head}{rest}"));
                for with in junk {
                    edit("byte replaced", &format!("{head}{with}{rest}"));
                }
            }
        }
        // Whitespace between two tokens of the frame, or around the line;
        // a key's digit replaced by a space (`"key":1 ` read as key 1); a
        // table name's byte replaced by `\` (`"j\bs"`, an escape).
        let stricter: Vec<_> = stricter.into_iter().collect();
        assert_eq!(
            stricter,
            [
                (("snapshot", "CR LF added"), 43),
                (("snapshot", "byte replaced"), 1),
                (("snapshot", "space added"), 43),
                (("txn", "CR LF added"), 42),
                (("txn", "byte replaced"), 3),
                (("txn", "space added"), 42),
            ]
        );
        let deep = |n: usize| {
            let row = "[".repeat(n) + &"]".repeat(n);
            format!(r#"{{"kind":"txn","ops":[{{"key":1,"op":"put","row":{row},"table":"t"}}]}}"#)
        };
        // Each line, whether replay reads it, and how that compares.
        for (line, reads, verdict_is) in [
            // Members in another order.
            (
                r#"{"ops":[],"kind":"txn"}"#.to_owned(),
                false,
                Verdict::Stricter,
            ),
            (
                r#"{"kind":"txn","ops":[{"op":"del","key":1,"table":"t"}]}"#.to_owned(),
                false,
                Verdict::Stricter,
            ),
            (
                r#"{"tables":[],"kind":"snapshot"}"#.to_owned(),
                false,
                Verdict::Stricter,
            ),
            // An escaped table name.
            (
                r#"{"kind":"txn","ops":[{"key":1,"op":"del","table":"\u0074"}]}"#.to_owned(),
                false,
                Verdict::Stricter,
            ),
            (
                r#"{"kind":"snapshot","tables":[{"name":"\"t","rows":[]}]}"#.to_owned(),
                false,
                Verdict::Stricter,
            ),
            // Exponents: in a row the reader steps over them; a key with
            // one is no `u64` to the decoder either.
            (
                r#"{"kind":"txn","ops":[{"key":1,"op":"put","row":[1e2],"table":"t"}]}"#.to_owned(),
                true,
                Verdict::Same,
            ),
            (
                r#"{"kind":"txn","ops":[{"key":1,"op":"put","row":1e999,"table":"t"}]}"#.to_owned(),
                false,
                Verdict::Same,
            ),
            (
                r#"{"kind":"txn","ops":[{"key":1e0,"op":"del","table":"t"}]}"#.to_owned(),
                false,
                Verdict::Same,
            ),
            // Nested past the scanner's stack, and past the reader's limit.
            (deep(65), true, Verdict::Same),
            (
                deep(serde::read::NESTING as usize + 1),
                false,
                Verdict::Same,
            ),
        ] {
            let read = read_printed(&line, &mut Vec::new()).is_ok();
            assert_eq!((read, verdict(&line)), (reads, verdict_is), "{line}");
        }
    }
}
