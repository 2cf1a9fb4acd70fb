//! Tables: typed rows, type-erased at the table map.
//!
//! [`crate::Database::recover`] cannot know a schema, so it replays JSON
//! values. The first typed access to a table names the row type and moves
//! every row that decodes into a `BTreeMap<u64, T>`; from then on reads
//! clone typed rows out, writes move them in, and JSON exists only in the
//! log line a commit prints.

use crate::error::DbError;
use crate::txn::{LogEntry, Op, SnapshotTable};
use serde::de::DeserializeOwned;
use serde::Serialize;
use serde_json::Value;
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
    fn write_rows(&self, raw: &BTreeMap<u64, Value>, out: &mut String);
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

    fn write_rows(&self, raw: &BTreeMap<u64, Value>, out: &mut String) {
        let mut pair = |key: u64, row: &dyn Serialize| {
            out.push_str(if out.ends_with('[') { "" } else { "," });
            (key, row).write_json(out);
        };
        let mut raw = raw.iter().peekable();
        for (&key, row) in self {
            while let Some((&k, v)) = raw.next_if(|(&k, _)| k < key) {
                pair(k, v);
            }
            pair(key, row);
        }
        for (&k, v) in raw {
            pair(k, v);
        }
    }
}

/// One table of the store.
#[derive(Default)]
pub(crate) struct Table {
    /// Rows as replayed, until the first typed access moves each one that
    /// decodes into `typed`. A row that does not (a log written by another
    /// version) stays here verbatim: it fails the scans that cover it, and
    /// a checkpoint re-emits it.
    raw: BTreeMap<u64, Value>,
    /// The typed rows, once a typed access has named the row type.
    typed: Option<Box<dyn Rows>>,
}

impl Table {
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
        let untyped = BTreeMap::<u64, Value>::new();
        let rows: &dyn Rows = self.typed.as_deref().unwrap_or(&untyped);
        rows.write_rows(&self.raw, out);
    }

    /// The rows as `T`, hydrating them on first use. A table already
    /// opened as another type is an error, never a panic.
    fn open<T: Row>(&mut self, name: &str) -> Result<Typed<'_, T>, DbError> {
        let typed = self.typed.get_or_insert_with(|| {
            let mut rows = BTreeMap::<u64, T>::new();
            self.raw.retain(|&key, value| match T::from_value(value) {
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
    undecodable: &'s mut BTreeMap<u64, Value>,
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
        let Some((_, value)) = self.undecodable.range(range).next() else {
            return Ok(());
        };
        T::from_value(value).map(drop).map_err(|e| DbError::Codec {
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
}

impl Store {
    /// Replay one log line, moving its rows in (nothing is typed yet).
    pub(crate) fn replay(&mut self, entry: LogEntry) {
        match entry {
            LogEntry::Txn { ops } => {
                for op in ops {
                    match op {
                        Op::Put { table, key, row } => {
                            let fresh = self.tables.entry(table).or_default().raw.insert(key, row);
                            self.live_rows += u64::from(fresh.is_none());
                        }
                        Op::Del { table, key } => self.apply_del(&table, key),
                    }
                }
            }
            LogEntry::Snapshot { tables } => {
                let table = |SnapshotTable { name, rows }| {
                    let raw = rows.into_iter().collect();
                    (name, Table { raw, typed: None })
                };
                self.tables = tables.into_iter().map(table).collect();
                self.live_rows = self.tables.values().map(|t| t.len() as u64).sum();
            }
        }
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
