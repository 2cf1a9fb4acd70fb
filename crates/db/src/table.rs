//! Tables: typed rows, type-erased at the table map.
//!
//! [`crate::Database::recover`] cannot know a schema, so replay keeps each
//! put row as its JSON text, checked but not decoded ([`Store::replay`]):
//! a row that a later line replaces or deletes is never decoded at all.
//! The first typed access to a table names the row type and decodes the
//! text of every row that decodes, straight into a `BTreeMap<u64, T>`;
//! from then on reads clone typed rows out, writes move them in, and JSON
//! exists only in the log line a commit prints.

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
    fn remove(&mut self, key: u64) -> bool;
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

impl<T: Row> Rows for BTreeMap<u64, T> {
    fn len(&self) -> usize {
        BTreeMap::len(self)
    }

    fn contains(&self, key: u64) -> bool {
        self.contains_key(&key)
    }

    fn remove(&mut self, key: u64) -> bool {
        BTreeMap::remove(self, &key).is_some()
    }

    fn max_key(&self) -> Option<u64> {
        self.keys().next_back().copied()
    }

    fn write_rows(&self, raw: &BTreeMap<u64, Box<str>>, out: &mut String) {
        // A row never typed prints canonically.
        let mut raw = raw.iter().peekable();
        for (&key, row) in self {
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

    fn remove(&mut self, key: u64) -> bool {
        self.raw.remove(&key).is_some() || self.typed.as_mut().is_some_and(|t| t.remove(key))
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
            let mut rows = BTreeMap::<u64, T>::new();
            self.raw
                .retain(|&key, text| match T::read_json(&mut Reader::new(text)) {
                    Ok(row) => {
                        rows.insert(key, row);
                        false
                    }
                    Err(_) => true,
                });
            Box::new(rows) // sphinx-lint: allow(hot-alloc)
        });
        let any: &mut dyn Any = &mut **typed;
        match any.downcast_mut::<BTreeMap<u64, T>>() {
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
    rows: &'s mut BTreeMap<u64, T>,
    /// What hydration could not decode as `T`.
    undecodable: &'s mut BTreeMap<u64, Box<str>>,
}

impl<T: Row> Typed<'_, T> {
    pub(crate) fn rows(&self) -> &BTreeMap<u64, T> {
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
    /// Live rows across every table, kept current by each apply: the
    /// checkpoint policy reads it on every commit.
    live_rows: u64,
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
            }
            Replayed::Snapshot(tables) => {
                self.live_rows = tables.values().map(|t| t.len() as u64).sum();
                self.tables = tables;
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
        let text = Box::from(line.get(from..to).unwrap_or_default());
        let fresh = match self.tables.get_mut(name) {
            Some(table) => table.raw.insert(op.key, text).is_none(),
            None => {
                let table = Table::replayed(BTreeMap::from([(op.key, text)]));
                // Recovery runs once, at start-up; a table is named once.
                self.tables.insert(name.to_owned(), table); // sphinx-lint: allow(hot-alloc)
                true
            }
        };
        self.live_rows += u64::from(fresh);
    }

    pub(crate) fn row_count(&self) -> u64 {
        self.live_rows
    }

    pub(crate) fn tables(&self) -> &BTreeMap<String, Table> {
        &self.tables
    }

    /// `name` opened as `T`; `None` if nothing was ever put there (a read
    /// must not create the table: a snapshot lists every table there is).
    pub(crate) fn typed<T: Row>(&mut self, name: &str) -> Result<Option<Typed<'_, T>>, DbError> {
        self.tables.get_mut(name).map(|t| t.open(name)).transpose()
    }

    /// Apply a logged put.
    pub(crate) fn apply_put<T: Row>(
        &mut self,
        name: &str,
        key: u64,
        row: T,
    ) -> Result<(), DbError> {
        let Some(table) = self.tables.get_mut(name) else {
            let table = Table {
                raw: BTreeMap::new(),
                typed: Some(Box::new(BTreeMap::from([(key, row)]))),
            };
            self.tables.insert(name.to_owned(), table);
            self.live_rows += 1;
            return Ok(());
        };
        let table = table.open::<T>(name)?;
        let displaced =
            table.rows.insert(key, row).is_some() || table.undecodable.remove(&key).is_some();
        self.live_rows += u64::from(!displaced);
        Ok(())
    }

    /// Apply a logged delete.
    pub(crate) fn apply_del(&mut self, name: &str, key: u64) {
        if self.tables.get_mut(name).is_some_and(|t| t.remove(key)) {
            self.live_rows -= 1;
        }
    }

    /// Apply a logged delete of every typed row, moving them out in order.
    pub(crate) fn take_rows<T: Row>(&mut self, name: &str) -> Result<Vec<T>, DbError> {
        let Some(table) = self.typed::<T>(name)? else {
            return Ok(Vec::new());
        };
        let rows: Vec<T> = std::mem::take(table.rows).into_values().collect();
        self.live_rows -= rows.len() as u64;
        Ok(rows)
    }
}
