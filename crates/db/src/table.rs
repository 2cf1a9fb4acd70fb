//! Tables: typed rows, type-erased at the table map.
//!
//! [`crate::Database::recover`] cannot know a schema, so replay keeps each
//! put row as its JSON text, checked but not decoded ([`Store::replay`]):
//! a row that a later line replaces or deletes is never decoded at all.
//! The first typed access to a table names the row type and decodes the
//! text of every row that decodes, straight into a `BTreeMap` of
//! `(row, len)`; from then on reads clone typed rows out, writes move them
//! in, and JSON exists only in the log line a commit prints.
//!
//! Each live row keeps its printed length beside it (a raw row's is its
//! text's), so the store knows the row bytes a snapshot would print
//! without printing one ([`Store::live_bytes`]): the checkpoint policy
//! reads it on every commit.

use crate::error::DbError;
use crate::txn::{read_printed, OpAt, Replayed};
use serde::de::DeserializeOwned;
use serde::read::{write_canonical, Reader};
use serde::Serialize;
use std::any::Any;
use std::collections::BTreeMap;
use std::ops::RangeBounds;

/// Anything a typed table can hold.
pub(crate) trait Row: Serialize + DeserializeOwned + Clone + Send + 'static {}
impl<T: Serialize + DeserializeOwned + Clone + Send + 'static> Row for T {}

/// What the store asks of a typed table without knowing its row type.
trait Rows: Any + Send {
    fn len(&self) -> usize;
    fn contains(&self, key: u64) -> bool;
    /// Remove the row at `key`; its printed length, if there was one.
    fn remove(&mut self, key: u64) -> Option<usize>;
    fn max_key(&self) -> Option<u64>;
    /// Print the snapshot's `[key,row]` pairs of these rows and the table's
    /// `raw` ones, in key order across both (their key sets are disjoint).
    fn write_rows(&self, raw: &BTreeMap<u64, Box<str>>, out: &mut String);
}

/// Print one `[key,row]` pair of a snapshot.
fn pair(out: &mut String, key: u64, row: impl FnOnce(&mut String)) {
    out.push_str(if out.ends_with('[') { "[" } else { ",[" });
    key.write_json(out);
    out.push(',');
    row(out);
    out.push(']');
}

/// A typed row and the length it printed to.
pub(crate) type Kept<T> = (T, usize);

impl<T: Row> Rows for BTreeMap<u64, Kept<T>> {
    fn len(&self) -> usize {
        BTreeMap::len(self)
    }

    fn contains(&self, key: u64) -> bool {
        self.contains_key(&key)
    }

    fn remove(&mut self, key: u64) -> Option<usize> {
        BTreeMap::remove(self, &key).map(|(_, len)| len)
    }

    fn max_key(&self) -> Option<u64> {
        self.keys().next_back().copied()
    }

    fn write_rows(&self, raw: &BTreeMap<u64, Box<str>>, out: &mut String) {
        // A row never typed prints canonically.
        let mut raw = raw.iter().peekable();
        for (&key, (row, _)) in self {
            while let Some((&k, text)) = raw.next_if(|(&k, _)| k < key) {
                pair(out, k, |out| write_canonical(text, out));
            }
            pair(out, key, |out| row.write_json(out));
        }
        for (&k, text) in raw {
            pair(out, k, |out| write_canonical(text, out));
        }
    }
}

/// One table of the store.
#[derive(Default)]
pub(crate) struct Table {
    /// Rows as replayed, as their JSON text, until the first typed access
    /// decodes each one that decodes into `typed`. A row that does not (a
    /// log written by another version) stays here: it fails the scans
    /// that cover it, and a checkpoint re-emits it (canonically).
    raw: BTreeMap<u64, Box<str>>,
    /// The typed rows, once a typed access has named the row type.
    typed: Option<Box<dyn Rows>>,
}

impl Table {
    /// A table of rows as replayed, each as its text.
    pub(crate) fn replayed(raw: BTreeMap<u64, Box<str>>) -> Self {
        Table { raw, typed: None }
    }

    /// The rows still kept as their text.
    #[cfg(test)]
    pub(crate) fn raw(&self) -> &BTreeMap<u64, Box<str>> {
        &self.raw
    }

    pub(crate) fn len(&self) -> usize {
        self.raw.len() + self.typed.as_ref().map_or(0, |t| t.len())
    }

    pub(crate) fn contains(&self, key: u64) -> bool {
        self.raw.contains_key(&key) || self.typed.as_ref().is_some_and(|t| t.contains(key))
    }

    pub(crate) fn max_key(&self) -> Option<u64> {
        let raw = self.raw.keys().next_back().copied();
        raw.max(self.typed.as_ref().and_then(|t| t.max_key()))
    }

    /// Remove the row at `key`; its printed length, if there was one.
    fn remove(&mut self, key: u64) -> Option<usize> {
        match self.raw.remove(&key) {
            Some(text) => Some(text.len()),
            None => self.typed.as_mut().and_then(|t| t.remove(key)),
        }
    }

    /// The snapshot form of this table's rows (see [`Rows::write_rows`]).
    pub(crate) fn write_rows(&self, out: &mut String) {
        match &self.typed {
            Some(rows) => rows.write_rows(&self.raw, out),
            None => {
                for (&key, text) in &self.raw {
                    pair(out, key, |out| write_canonical(text, out));
                }
            }
        }
    }

    /// The rows as `T`, hydrating them on first use. A table already
    /// opened as another type is an error, never a panic.
    fn open<T: Row>(&mut self, name: &str) -> Result<Typed<'_, T>, DbError> {
        let typed = self.typed.get_or_insert_with(|| {
            let mut rows = BTreeMap::<u64, Kept<T>>::new();
            self.raw
                .retain(|&key, text| match T::read_json(&mut Reader::new(text)) {
                    Ok(row) => {
                        rows.insert(key, (row, text.len()));
                        false
                    }
                    Err(_) => true,
                });
            Box::new(rows) // sphinx-lint: allow(hot-alloc)
        });
        let any: &mut dyn Any = &mut **typed;
        match any.downcast_mut::<BTreeMap<u64, Kept<T>>>() {
            Some(rows) => Ok(Typed {
                rows,
                undecodable: &mut self.raw,
            }),
            None => Err(DbError::TableType {
                table: name.to_owned(), // sphinx-lint: allow(hot-alloc)
            }),
        }
    }
}

/// One table opened as its row type, for the length of a critical section.
pub(crate) struct Typed<'s, T> {
    rows: &'s mut BTreeMap<u64, Kept<T>>,
    /// What hydration could not decode as `T`.
    undecodable: &'s mut BTreeMap<u64, Box<str>>,
}

impl<T: Row> Typed<'_, T> {
    pub(crate) fn rows(&self) -> &BTreeMap<u64, Kept<T>> {
        self.rows
    }

    /// `Err(Codec)` if a row in `range` did not decode: a scan that
    /// skipped it would lose a row without saying so.
    pub(crate) fn check_decodable(
        &self,
        table: &str,
        range: impl RangeBounds<u64>,
    ) -> Result<(), DbError> {
        let Some((_, text)) = self.undecodable.range(range).next() else {
            return Ok(());
        };
        T::read_json(&mut Reader::new(text))
            .map(drop)
            .map_err(|e| DbError::Codec {
                table: table.to_owned(), // sphinx-lint: allow(hot-alloc)
                message: e.to_string(),
            })
    }
}

/// Everything behind the database's one `tables` mutex.
#[derive(Default)]
pub(crate) struct Store {
    tables: BTreeMap<String, Table>,
    /// The printed lengths of every live row, summed, kept current by each
    /// apply and each replayed line.
    live_bytes: u64,
    /// Bytes of the lines logged since the last snapshot line (or since
    /// the log began), the snapshot's own not counted.
    pub(crate) logged: u64,
    /// The last commit's line, its buffer kept for the next one's.
    pub(crate) line: String,
    /// The ops of the line being replayed, kept for the next line's.
    replay_ops: Vec<OpAt>,
}

impl Store {
    /// Replay one log line (nothing is typed yet), keeping each put row as
    /// its text. The line is matched byte for byte against the shape the
    /// store prints ([`read_printed`]), which gives every verdict. The
    /// whole line is read before the store changes, so a line that does
    /// not read (`Err`) leaves the store as it was.
    pub(crate) fn replay(&mut self, line: &str) -> Result<(), serde::de::Error> {
        match read_printed(line, &mut self.replay_ops)? {
            Replayed::Txn => {
                let ops = std::mem::take(&mut self.replay_ops);
                for op in &ops {
                    self.replay_op(line, op);
                }
                self.replay_ops = ops;
                self.logged += line.len() as u64;
            }
            Replayed::Snapshot(tables) => {
                let rows = tables.values().flat_map(|t| t.raw.values());
                self.live_bytes = rows.map(|text| text.len() as u64).sum();
                self.tables = tables;
                self.logged = 0;
            }
        }
        Ok(())
    }

    /// Apply one op of a `txn` line that has been read whole.
    fn replay_op(&mut self, line: &str, op: &OpAt) {
        let (from, to) = op.table;
        let name = line.get(from..to).unwrap_or_default();
        let Some((from, to)) = op.row else {
            self.apply_del(name, op.key);
            return;
        };
        let text: Box<str> = Box::from(line.get(from..to).unwrap_or_default());
        self.live_bytes += text.len() as u64;
        match self.tables.get_mut(name) {
            Some(table) => {
                if let Some(old) = table.raw.insert(op.key, text) {
                    self.live_bytes -= old.len() as u64;
                }
            }
            None => {
                let table = Table::replayed(BTreeMap::from([(op.key, text)]));
                // Recovery runs once, at start-up; a table is named once.
                self.tables.insert(name.to_owned(), table); // sphinx-lint: allow(hot-alloc)
            }
        }
    }

    /// The bytes every live row prints to: what the row members of a
    /// snapshot line printed now would hold. (A row replayed from a log
    /// that another version wrote counts as the text it was logged as,
    /// which a snapshot reprints canonically, so it may differ there.)
    pub(crate) fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// At least the length of the snapshot line printed now: the rows'
    /// bytes, and the most their frame can take (a key prints to at most
    /// 20 digits, so a `[K,row]` pair and its comma to 24 bytes more).
    pub(crate) fn snapshot_bound(&self) -> usize {
        let frame = |(name, table): (&String, &Table)| name.len() + 22 + 24 * table.len();
        31 + self.live_bytes as usize + self.tables.iter().map(frame).sum::<usize>()
    }

    pub(crate) fn tables(&self) -> &BTreeMap<String, Table> {
        &self.tables
    }

    /// `name` opened as `T`; `None` if nothing was ever put there (a read
    /// must not create the table: a snapshot lists every table there is).
    pub(crate) fn typed<T: Row>(&mut self, name: &str) -> Result<Option<Typed<'_, T>>, DbError> {
        self.tables.get_mut(name).map(|t| t.open(name)).transpose()
    }

    /// Apply a logged put of a row that printed to `len` bytes.
    pub(crate) fn apply_put<T: Row>(
        &mut self,
        name: &str,
        key: u64,
        row: T,
        len: usize,
    ) -> Result<(), DbError> {
        let Some(table) = self.tables.get_mut(name) else {
            let table = Table {
                raw: BTreeMap::new(),
                typed: Some(Box::new(BTreeMap::from([(key, (row, len))]))),
            };
            self.tables.insert(name.to_owned(), table);
            self.live_bytes += len as u64;
            return Ok(());
        };
        let table = table.open::<T>(name)?;
        let displaced = match table.rows.insert(key, (row, len)) {
            Some((_, old)) => old,
            None => table.undecodable.remove(&key).map_or(0, |text| text.len()),
        };
        self.live_bytes += len as u64;
        self.live_bytes -= displaced as u64;
        Ok(())
    }

    /// Apply a logged delete.
    pub(crate) fn apply_del(&mut self, name: &str, key: u64) {
        if let Some(len) = self.tables.get_mut(name).and_then(|t| t.remove(key)) {
            self.live_bytes -= len as u64;
        }
    }

    /// Apply a logged delete of every typed row, moving them out in order.
    pub(crate) fn take_rows<T: Row>(&mut self, name: &str) -> Result<Vec<T>, DbError> {
        let Some(table) = self.typed::<T>(name)? else {
            return Ok(Vec::new());
        };
        let mut freed = 0;
        let rows: Vec<T> = std::mem::take(table.rows)
            .into_values()
            .map(|(row, len)| {
                freed += len as u64;
                row
            })
            .collect();
        self.live_bytes -= freed;
        Ok(rows)
    }
}
