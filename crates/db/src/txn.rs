//! Transactions and log entries.
//!
//! The log is the one place rows exist as JSON. Each put row prints itself
//! once, straight into a hand-framed line ([`TxnLine`], [`snapshot_line`]),
//! and recovery reads lines back by hand as well ([`read_line`]): it checks
//! every byte of the line but builds no tree, and hands each put row on as
//! its own text, for the table to decode when a typed access first needs
//! it. The bytes are what serializing a `LogEntry` gives, and what replays
//! is what the derived `LogEntry` decoder gives (the test build holds both
//! derives as the oracles), so logs written before rows were typed replay
//! and any JSON tool can audit the log.

use crate::database::{Database, Record};
use crate::error::DbError;
use crate::table::{Store, Table};
use serde::de::Error;
use serde::read::Reader;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::ControlFlow;

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
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpAt {
    pub(crate) key: u64,
    /// Where the table name's string literal starts.
    pub(crate) table: usize,
    /// Where a put's row starts and ends; `None` for a delete.
    pub(crate) row: Option<(usize, usize)>,
}

/// What one line of the log holds, read whole.
pub(crate) enum Replayed {
    /// A `txn` line, its ops in the list [`read_line`] was given.
    Txn,
    /// A `snapshot` line: every table, each row as its text.
    Snapshot(BTreeMap<String, Table>),
}

/// The line kinds a `kind` member names.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Txn,
    Snapshot,
}

/// Read one log line: the mirror image of [`TxnLine`] and
/// [`snapshot_line`], accepting exactly what the derived `LogEntry`
/// decoder accepts of it. That decoder reads a tree, where members come
/// in any order, a repeated one replaces the last, and unknown ones are
/// ignored, so this reader allows all of that too. A line printed here
/// names its kind first, and then its `ops` (or `tables`) are read as they
/// come; otherwise they are checked as they come and read once the kind is
/// known. `ops` is cleared and refilled.
pub(crate) fn read_line(line: &str, ops: &mut Vec<OpAt>) -> Result<Replayed, Error> {
    let mut r = Reader::new(line);
    let mut kind = None;
    // Where the last `ops` / `tables` member starts, and what it read as
    // when the kind was already known and matched.
    let mut ops_at = None;
    let mut tables_at = None;
    let mut members = r.object()?;
    while let Some(name) = members.next(&mut r)? {
        let at = r.pos();
        let known = match &kind {
            Some(Ok(kind)) => Some(*kind),
            _ => None,
        };
        match &*name {
            "kind" => kind = Some(r.member(read_kind)?),
            "ops" if known == Some(Kind::Txn) => {
                let read = r.member(|r| read_ops(r, ops))?;
                ops_at = Some((at, read.is_ok()));
            }
            "tables" if known == Some(Kind::Snapshot) => {
                tables_at = Some((at, r.member(read_tables)?.ok()));
            }
            "ops" => {
                r.skip()?;
                ops_at = Some((at, false));
            }
            "tables" => {
                r.skip()?;
                tables_at = Some((at, None));
            }
            _ => {
                r.skip()?;
            }
        }
    }
    r.finish()?;
    match kind.ok_or_else(|| Error::custom("missing tag `kind`"))?? {
        Kind::Txn => {
            let (at, read) = ops_at.ok_or_else(|| Error::custom("missing field `ops`"))?;
            if !read {
                read_ops(&mut Reader::at(line, at), ops)?;
            }
            Ok(Replayed::Txn)
        }
        Kind::Snapshot => {
            let (at, read) = tables_at.ok_or_else(|| Error::custom("missing field `tables`"))?;
            match read {
                Some(tables) => Ok(Replayed::Snapshot(tables)),
                None => read_tables(&mut Reader::at(line, at)).map(Replayed::Snapshot),
            }
        }
    }
}

fn read_kind(r: &mut Reader<'_>) -> Result<Kind, Error> {
    match &*r.string()? {
        "txn" => Ok(Kind::Txn),
        "snapshot" => Ok(Kind::Snapshot),
        other => Err(Error::custom(format!("unrecognized LogEntry tag: {other}"))),
    }
}

/// `[{"key":K,"op":"put","row":…,"table":"T"},{"key":K,"op":"del","table":"T"}]`.
fn read_ops(r: &mut Reader<'_>, ops: &mut Vec<OpAt>) -> Result<(), Error> {
    ops.clear();
    let mut items = r.array()?;
    while items.next(r)? {
        ops.push(read_op(r)?);
    }
    Ok(())
}

fn read_op(r: &mut Reader<'_>) -> Result<OpAt, Error> {
    let (mut put, mut key, mut table, mut row) = (None, None, None, None);
    let mut members = r.object()?;
    while let Some(name) = members.next(r)? {
        let at = r.pos();
        match &*name {
            "op" => put = Some(r.member(read_op_tag)?),
            "key" => key = Some(r.member(u64::read_json)?),
            "table" => table = Some(r.member(Reader::string)?.map(|_| at)),
            "row" => row = Some((at, at + r.skip()?.len())),
            _ => {
                r.skip()?;
            }
        }
    }
    let put = put.ok_or_else(|| Error::custom("missing tag `op`"))??;
    let table = table.ok_or_else(|| Error::custom("missing field `table`"))??;
    let key = key.ok_or_else(|| Error::custom("missing field `key`"))??;
    let row = if put {
        Some(row.ok_or_else(|| Error::custom("missing field `row`"))?)
    } else {
        None
    };
    Ok(OpAt { key, table, row })
}

/// True for a put, false for a delete.
fn read_op_tag(r: &mut Reader<'_>) -> Result<bool, Error> {
    match &*r.string()? {
        "put" => Ok(true),
        "del" => Ok(false),
        other => Err(Error::custom(format!("unrecognized Op tag: {other}"))),
    }
}

/// `[{"name":"T","rows":[[K,…],…]},…]`; a repeated name replaces the table.
fn read_tables(r: &mut Reader<'_>) -> Result<BTreeMap<String, Table>, Error> {
    let mut tables = BTreeMap::new();
    let mut items = r.array()?;
    while items.next(r)? {
        let (mut name, mut rows) = (None, None);
        let mut members = r.object()?;
        while let Some(member) = members.next(r)? {
            match &*member {
                "name" => name = Some(r.member(String::read_json)?),
                "rows" => rows = Some(r.member(read_rows)?),
                _ => {
                    r.skip()?;
                }
            }
        }
        let name = name.ok_or_else(|| Error::custom("missing field `name`"))??;
        let rows = rows.ok_or_else(|| Error::custom("missing field `rows`"))??;
        tables.insert(name, Table::replayed(rows));
    }
    Ok(tables)
}

/// `[[K,row],…]`, each row kept as its text; a repeated key replaces it.
fn read_rows(r: &mut Reader<'_>) -> Result<BTreeMap<u64, Box<str>>, Error> {
    let short = || Error::custom("expected 2-element array");
    let mut rows = BTreeMap::new();
    let mut items = r.array()?;
    while items.next(r)? {
        let mut pair = r.array()?;
        if !pair.next(r)? {
            return Err(short());
        }
        let key = u64::read_json(r)?;
        if !pair.next(r)? {
            return Err(short());
        }
        let text = r.skip()?;
        if pair.next(r)? {
            return Err(short());
        }
        rows.insert(key, Box::from(text));
    }
    Ok(rows)
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
            // And what replays from it is what was framed: through the
            // hand reader recovery uses, and through the oracle decoder,
            // from the text and from a parsed tree.
            let mut read = Vec::new();
            prop_assert!(matches!(read_line(&line, &mut read), Ok(Replayed::Txn)));
            prop_assert_eq!(read.len(), ops.len());
            for (at, (is_put, table, key, row)) in read.iter().zip(&ops) {
                let name = Reader::at(&line, at.table).string().unwrap();
                prop_assert_eq!((at.key, &*name), (*key, TABLES[*table]));
                let text = at.row.map(|(from, to)| &line[from..to]);
                let printed = is_put.then(|| serde_json::to_string(row).unwrap());
                prop_assert_eq!(text, printed.as_deref());
            }
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

#[cfg(test)]
pub(crate) use replay_oracle::{oracle, wal_of, Model};

/// The replay oracle. Recovery reads each line by hand ([`read_line`]);
/// before it did, it parsed the line into a tree and decoded that with the
/// derived `LogEntry` decoder, and that decoder (compiled for tests only)
/// is what it is held to, over logs that use every freedom JSON allows:
/// members in any order, whitespace between tokens, repeated members (the
/// last one wins), unknown members, escapes and surrogate pairs, damaged
/// lines and a torn tail.
#[cfg(test)]
mod replay_oracle {
    use super::{LogEntry, Op, SnapshotTable};
    use crate::wal::{MemWal, Wal};
    use crate::{Database, DbError};
    use proptest::prelude::*;
    use serde_json::Value;
    use std::collections::BTreeMap;

    /// The tables as the oracle keeps them: each row as its tree.
    pub(crate) type Model = BTreeMap<String, BTreeMap<u64, Value>>;

    /// Recover `lines` through the derived decoder: the tables and the
    /// lines replayed, or the number of the corrupt line. A final line
    /// that does not decode is an interrupted commit, and dropped.
    pub(crate) fn oracle(lines: &[String]) -> Result<(Model, u64), usize> {
        let mut model = Model::new();
        for (i, line) in lines.iter().enumerate() {
            match serde_json::from_str::<LogEntry>(line) {
                Ok(LogEntry::Txn { ops }) => {
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
                Ok(LogEntry::Snapshot { tables }) => {
                    let table = |t: SnapshotTable| (t.name, t.rows.into_iter().collect());
                    model = tables.into_iter().map(table).collect();
                }
                Err(_) if i + 1 == lines.len() => return Ok((model, i as u64)),
                Err(_) => return Err(i + 1),
            }
        }
        Ok((model, lines.len() as u64))
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

    /// A seeded generator of noisy log text.
    struct Gen(u64);

    const TABLES: [&str; 5] = ["t", "shard0/jobs", "inbox.seq", "odd \"name\"\\", "é✓"];
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
            let table = self.pick(&TABLES);
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
            let name = self.pick(&TABLES);
            let members = vec![
                ("name".to_owned(), self.string(name)),
                ("rows".to_owned(), self.array(rows)),
            ];
            self.object(members, &["7", "{}", "[[1]]", "[[\"k\",1]]"])
        }

        fn line(&mut self) -> String {
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

        fn log(&mut self) -> Vec<String> {
            let mut lines: Vec<String> = (0..1 + self.below(12)).map(|_| self.line()).collect();
            for line in &mut lines {
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
            let wal = wal_of(&lines);
            match (Database::recover(Box::new(wal.clone())), oracle(&lines)) {
                (Ok(db), Ok((model, replayed))) => {
                    prop_assert_eq!(db.replayed(), replayed);
                    // A torn tail is cut out of the log.
                    prop_assert_eq!(wal.len() as u64, replayed);
                    let rows: usize = model.values().map(BTreeMap::len).sum();
                    prop_assert_eq!(db.live_rows(), rows as u64);
                    // Rows never typed print canonically.
                    prop_assert_eq!(db.snapshot_line(), snapshot_of(&model));
                }
                (Err(DbError::Corrupt { line, .. }), Err(expected)) => {
                    prop_assert_eq!(line, expected);
                }
                (got, expected) => {
                    panic!("{lines:#?}\nrecovered {got:?}, the oracle says {expected:?}")
                }
            }
        }
    }

    /// The generator reaches every outcome often enough to matter.
    #[test]
    fn generated_logs_cover_every_outcome() {
        let (mut clean, mut torn, mut corrupt) = (0, 0, 0);
        for seed in 0..400 {
            let lines = Gen(seed).log();
            match oracle(&lines) {
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
