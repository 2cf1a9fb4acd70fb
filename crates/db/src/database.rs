//! The table store proper.

use crate::error::DbError;
use crate::table::{Row, Store, Table};
use crate::txn::{snapshot_line, Txn, TxnLine};
use crate::wal::Wal;
use parking_lot::Mutex;
use serde::de::DeserializeOwned;
use serde::Serialize;
use sphinx_telemetry::{Event, Telemetry};
use std::borrow::Cow;
use std::cell::RefCell;
use std::ops::{ControlFlow, RangeBounds};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A row type bound to a named table with a `u64` primary key.
pub trait Record: Serialize + DeserializeOwned + Clone + Send + 'static {
    /// Name of the table holding this record type.
    const TABLE: &'static str;
    /// Primary key of this row.
    fn key(&self) -> u64;
}

/// Per-table statistics (for instrumentation and tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableStats {
    /// Table name.
    pub name: String,
    /// Live rows.
    pub rows: usize,
}

/// When the commit path compacts the log automatically.
///
/// The trigger is purely a function of committed state — log length vs.
/// live rows — never the wall clock, so two runs with the same seed
/// checkpoint at exactly the same commits and recovery traces stay
/// byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Master switch; `false` restores explicit-only checkpointing.
    pub enabled: bool,
    /// Compact once `log_lines > ratio × live_rows` (live rows floored at
    /// 1 so a fully-deleted database still compacts).
    pub ratio: u64,
    /// Never compact before the log has this many lines — keeps tiny
    /// databases from churning through rewrites.
    pub min_log_lines: u64,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            enabled: true,
            ratio: 4,
            min_log_lines: 1024,
        }
    }
}

impl CheckpointPolicy {
    /// Explicit-only checkpointing (the pre-policy behaviour).
    pub fn disabled() -> Self {
        CheckpointPolicy {
            enabled: false,
            ..CheckpointPolicy::default()
        }
    }
}

/// A database: named tables + write-ahead log.
///
/// All mutation goes through the WAL before touching the tables, so any
/// state observable after a crash is replayable from the log. Every
/// operation is one critical section under `tables`; closures handed to
/// [`Database::update`] and friends run inside it and must not call back
/// into the database.
pub struct Database {
    tables: Mutex<Store>,
    wal: Mutex<Box<dyn Wal>>,
    checkpoint: CheckpointPolicy,
    commits: AtomicU64,
    /// Lines currently in the log (replayed + appended − compacted away).
    log_lines: AtomicU64,
    /// Log lines replayed by `recover` (0 for a fresh database).
    replayed: u64,
    /// Rows that failed to decode on the `Option`-returning read path
    /// (`get`); scans surface the same failures as [`DbError::Codec`].
    decode_failures: AtomicU64,
    telemetry: Mutex<Option<Arc<Telemetry>>>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.tables.lock().tables().len())
            .field("commits", &self.commits.load(Ordering::Relaxed))
            .finish()
    }
}

/// `f` as an [`Database::update_if`] closure that always commits.
fn always<R>(f: impl FnOnce(&mut R)) -> impl FnOnce(&mut R) -> Option<()> {
    |row| {
        f(row);
        Some(())
    }
}

impl Database {
    /// A database backed by the given (possibly pre-existing, here empty)
    /// write-ahead log, with the default [`CheckpointPolicy`].
    pub fn with_wal(wal: Box<dyn Wal>) -> Self {
        Self::with_wal_and_config(wal, CheckpointPolicy::default())
    }

    /// A database over an empty log with an explicit checkpoint policy.
    pub fn with_wal_and_config(wal: Box<dyn Wal>, checkpoint: CheckpointPolicy) -> Self {
        Self::over(Store::default(), wal, checkpoint, 0)
    }

    fn over(store: Store, wal: Box<dyn Wal>, checkpoint: CheckpointPolicy, replayed: u64) -> Self {
        Database {
            tables: Mutex::new(store),
            wal: Mutex::new(wal),
            checkpoint,
            commits: AtomicU64::new(0),
            log_lines: AtomicU64::new(replayed),
            replayed,
            decode_failures: AtomicU64::new(0),
            telemetry: Mutex::new(None),
        }
    }

    /// Purely in-memory database (WAL kept in memory; useful when the
    /// recovery property is not under test).
    pub fn in_memory() -> Self {
        Database::with_wal(Box::new(crate::wal::MemWal::shared()))
    }

    /// Rebuild the committed state from an existing log, with the default
    /// [`CheckpointPolicy`].
    ///
    /// Each line is read whole and checked byte by byte, but no row is
    /// decoded and no JSON tree is built: each put row is kept as its
    /// text until the first typed access to its table decodes it. A torn
    /// *final* line is treated as an interrupted commit: it is dropped
    /// AND truncated out of the log (otherwise the next append would
    /// merge with the torn bytes and corrupt a later recovery). A
    /// malformed line anywhere else is corruption and fails recovery as
    /// [`DbError::Corrupt`] naming it. A row that is JSON but not its
    /// table's row type fails, as [`DbError::Codec`], the typed reads
    /// that cover it.
    pub fn recover(wal: Box<dyn Wal>) -> Result<Self, DbError> {
        Self::recover_with_config(wal, CheckpointPolicy::default())
    }

    /// [`Database::recover`] with an explicit checkpoint policy.
    pub fn recover_with_config(
        mut wal: Box<dyn Wal>,
        checkpoint: CheckpointPolicy,
    ) -> Result<Self, DbError> {
        let mut lines = wal.read_all()?;
        let mut store = Store::default();
        let last = lines.len().saturating_sub(1);
        let mut valid = 0usize;
        for (i, line) in lines.iter().enumerate() {
            match store.replay(line) {
                Ok(()) => valid = i + 1,
                // Interrupted final commit: discard, recovery succeeds.
                Err(_) if i == last => break,
                Err(err) => {
                    return Err(DbError::Corrupt {
                        line: i + 1,
                        message: err.to_string(),
                    })
                }
            }
        }
        if valid < lines.len() {
            lines.truncate(valid);
            wal.rewrite(&lines)?;
        }
        Ok(Self::over(store, wal, checkpoint, valid as u64))
    }

    /// The snapshot line a checkpoint would write now.
    #[cfg(test)]
    pub(crate) fn snapshot_line(&self) -> String {
        snapshot_line(&self.tables.lock())
    }

    /// Log lines replayed when this database was built by [`Database::recover`].
    pub fn replayed(&self) -> u64 {
        self.replayed
    }

    /// Lines currently in the write-ahead log.
    pub fn log_lines(&self) -> u64 {
        self.log_lines.load(Ordering::Relaxed)
    }

    /// Live rows across every table.
    pub fn live_rows(&self) -> u64 {
        self.tables.lock().row_count()
    }

    /// Rows that failed to decode on the `Option`-returning read path.
    pub fn decode_failures(&self) -> u64 {
        self.decode_failures.load(Ordering::Relaxed)
    }

    /// Attach a telemetry hub. Replay work already done by `recover` is
    /// credited immediately (recovery runs before any hub exists); every
    /// later commit, checkpoint and read is counted. The log keeps no sim
    /// clock: the hub stamps its events with the latest time it has seen.
    pub fn attach_telemetry(&self, telemetry: Arc<Telemetry>) {
        if self.replayed > 0 {
            let lines = self.replayed;
            telemetry.record(Default::default(), Event::WalReplay { lines });
        }
        *self.telemetry.lock() = Some(telemetry);
    }

    /// Run `f` on the attached telemetry hub, if there is one.
    fn with_hub(&self, f: impl FnOnce(&Telemetry)) {
        if let Some(t) = self.telemetry.lock().as_ref() {
            f(t);
        }
    }

    /// Credit rows cloned out by `get` / `update` / `scan*` to the hub's
    /// `db.rows.read` (once per call, not per row).
    fn note_reads(&self, rows: u64) {
        if rows > 0 {
            self.with_hub(|t| t.counter_add("db.rows.read", rows));
        }
    }

    /// Begin a multi-table atomic transaction.
    pub fn txn(&self) -> Txn<'_> {
        Txn::new(self)
    }

    /// The one commit path: one critical section under `tables`, from the
    /// commit's first read to its apply. `prepare` reads what it needs,
    /// opens every table it will put to as its row type (so the apply
    /// cannot fail on a type) and frames the line — or breaks with an
    /// answer, and nothing is committed. The line goes to the WAL first
    /// (the log is the source of truth), then `apply` touches the tables,
    /// then the checkpoint policy runs: two committers can never log in
    /// one order and apply in the other.
    // sphinx-hot
    pub(crate) fn commit<P, T>(
        &self,
        prepare: impl FnOnce(&mut Store, &mut TxnLine) -> Result<ControlFlow<T, P>, DbError>,
        apply: impl FnOnce(&mut Store, P) -> Result<T, DbError>,
    ) -> Result<T, DbError> {
        let mut store = self.tables.lock();
        let mut line = TxnLine::reusing(std::mem::take(&mut store.line));
        let flow = prepare(&mut store, &mut line);
        store.line = line.finish();
        let prepared = match flow? {
            ControlFlow::Continue(prepared) => prepared,
            ControlFlow::Break(answer) => return Ok(answer),
        };
        self.wal.lock().append(&store.line)?;
        self.log_lines.fetch_add(1, Ordering::Relaxed);
        self.with_hub(|t| t.counter_add("wal.appends", 1));
        let out = apply(&mut store, prepared)?;
        self.commits.fetch_add(1, Ordering::Relaxed);
        // Deterministic: the decision depends only on log length and
        // live-row count.
        let policy = self.checkpoint;
        let log = self.log_lines.load(Ordering::Relaxed);
        if policy.enabled
            && log >= policy.min_log_lines
            && log > policy.ratio.saturating_mul(store.row_count().max(1))
        {
            self.checkpoint_locked(&store)?;
        }
        Ok(out)
    }

    /// A look at `table` that needs no row type. `None` if it does not exist.
    fn peek<O>(&self, table: &str, f: impl FnOnce(&Table) -> O) -> Option<O> {
        self.tables.lock().tables().get(table).map(f)
    }

    /// Insert a new row; fails on duplicate key.
    pub fn insert<R: Record>(&self, row: &R) -> Result<(), DbError> {
        self.put_at(R::TABLE, row, true)
    }

    /// Insert or overwrite a row.
    pub fn put<R: Record>(&self, row: &R) -> Result<(), DbError> {
        self.put_at(R::TABLE, row, false)
    }

    fn put_at<R: Record>(&self, table: &str, row: &R, fresh_only: bool) -> Result<(), DbError> {
        let key = row.key();
        self.commit(
            |store, line| {
                store.typed::<R>(table)?;
                // (A row that does not decode still owns its key.)
                if fresh_only && store.tables().get(table).is_some_and(|t| t.contains(key)) {
                    return Err(DbError::DuplicateKey {
                        table: table.to_owned(),
                        key,
                    });
                }
                line.put(table, key, row);
                Ok(ControlFlow::Continue(()))
            },
            |store, ()| store.apply_put(table, key, row.clone()),
        )
    }

    /// Fetch a row by key. A row that exists but fails to decode reads as
    /// `None` and bumps [`Database::decode_failures`] — use the
    /// `Result`-returning scans where corruption must be surfaced.
    pub fn get<R: Record>(&self, key: u64) -> Option<R> {
        self.get_at(R::TABLE, key)
    }

    pub(crate) fn get_at<R: Record>(&self, table: &str, key: u64) -> Option<R> {
        match self.scan_at(table, key..=key, |_| true) {
            Ok(mut rows) => rows.pop(),
            // There is something at `key`, but not an `R`.
            Err(_) => {
                self.decode_failures.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// True if the key exists.
    pub fn contains<R: Record>(&self, key: u64) -> bool {
        self.contains_at(R::TABLE, key)
    }

    pub(crate) fn contains_at(&self, table: &str, key: u64) -> bool {
        self.peek(table, |t| t.contains(key)).unwrap_or(false)
    }

    /// Delete a row; returns whether it existed.
    pub fn delete<R: Record>(&self, key: u64) -> Result<bool, DbError> {
        self.delete_at(R::TABLE, key)
    }

    pub(crate) fn delete_at(&self, table: &str, key: u64) -> Result<bool, DbError> {
        self.commit(
            |store, line| {
                if !store.tables().get(table).is_some_and(|t| t.contains(key)) {
                    return Ok(ControlFlow::Break(false));
                }
                line.del(table, key);
                Ok(ControlFlow::Continue(()))
            },
            |store, ()| {
                store.apply_del(table, key);
                Ok(true)
            },
        )
    }

    /// Read-modify-write one row under a single commit. Returns `false` if
    /// the row does not exist.
    pub fn update<R: Record>(&self, key: u64, f: impl FnOnce(&mut R)) -> Result<bool, DbError> {
        Ok(self.update_if(key, always(f))?.is_some())
    }

    /// [`Database::update`] for a caller that needs to look before it
    /// writes: `f` sees the row once, and either declines (`None`: nothing
    /// is committed) or returns what the caller wants to keep of the row
    /// (`Some`: the row as `f` left it is committed). `None` is also the
    /// answer when the row does not exist.
    pub fn update_if<R: Record, T>(
        &self,
        key: u64,
        f: impl FnOnce(&mut R) -> Option<T>,
    ) -> Result<Option<T>, DbError> {
        self.update_if_at(R::TABLE, key, f)
    }

    fn update_if_at<R: Record, T>(
        &self,
        table: &str,
        key: u64,
        f: impl FnOnce(&mut R) -> Option<T>,
    ) -> Result<Option<T>, DbError> {
        self.commit(
            |store, line| {
                let Some(t) = store.typed::<R>(table)? else {
                    return Ok(ControlFlow::Break(None));
                };
                let Some(mut row) = t.rows().get(&key).cloned() else {
                    if t.check_decodable(table, key..=key).is_err() {
                        self.decode_failures.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(ControlFlow::Break(None));
                };
                self.note_reads(1);
                // On a clone: the table changes only after the log has.
                let Some(out) = f(&mut row) else {
                    return Ok(ControlFlow::Break(None));
                };
                debug_assert_eq!(row.key(), key, "update must not change the key");
                line.put(table, key, &row);
                Ok(ControlFlow::Continue((row, out)))
            },
            |store, (row, out)| {
                store.apply_put(table, key, row)?;
                Ok(Some(out))
            },
        )
    }

    /// The rows of `table` within `range` that `keep` accepts, in key
    /// order; only those are cloned. A row in `range` that does not
    /// decode aborts with [`DbError::Codec`] — silent row loss is exactly
    /// what the fallible scans exist to prevent.
    pub(crate) fn scan_at<T: Row>(
        &self,
        table: &str,
        range: impl RangeBounds<u64> + Clone,
        mut keep: impl FnMut(&T) -> bool,
    ) -> Result<Vec<T>, DbError> {
        let rows: Vec<T> = {
            let mut store = self.tables.lock();
            let Some(t) = store.typed::<T>(table)? else {
                return Ok(Vec::new());
            };
            t.check_decodable(table, range.clone())?;
            let rows = t.rows().range(range).filter(|(_, row)| keep(row));
            rows.map(|(_, row)| row.clone()).collect()
        };
        self.note_reads(rows.len() as u64);
        Ok(rows)
    }

    /// All rows of a table, in key order.
    pub fn scan<R: Record>(&self) -> Result<Vec<R>, DbError> {
        self.scan_at(R::TABLE, .., |_| true)
    }

    /// Rows matching a predicate, in key order.
    pub fn scan_filter<R: Record>(&self, pred: impl FnMut(&R) -> bool) -> Result<Vec<R>, DbError> {
        self.scan_at(R::TABLE, .., pred)
    }

    /// Rows whose key lies in `range`, in key order. Where a key leads with
    /// its owner (a job's with its DAG id) this is "all rows of that owner".
    pub fn scan_range<R: Record>(
        &self,
        range: impl RangeBounds<u64> + Clone,
    ) -> Result<Vec<R>, DbError> {
        self.scan_at(R::TABLE, range, |_| true)
    }

    /// Number of rows in a table.
    pub fn count<R: Record>(&self) -> usize {
        self.count_at(R::TABLE)
    }

    pub(crate) fn count_at(&self, table: &str) -> usize {
        self.peek(table, Table::len).unwrap_or(0)
    }

    /// Largest key present in the table, if any.
    pub fn max_key<R: Record>(&self) -> Option<u64> {
        self.peek(R::TABLE, Table::max_key).flatten()
    }

    /// Statistics for every table.
    pub fn stats(&self) -> Vec<TableStats> {
        self.tables
            .lock()
            .tables()
            .iter()
            .map(|(name, t)| TableStats {
                name: name.clone(),
                rows: t.len(),
            })
            .collect()
    }

    /// Number of committed transactions on this handle.
    pub fn commit_count(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }

    /// Compact the log to one snapshot entry describing the current state.
    pub fn checkpoint(&self) -> Result<(), DbError> {
        self.checkpoint_locked(&self.tables.lock())
    }

    /// Snapshot and rewrite as one critical section: the caller's `tables`
    /// guard keeps every committer out until the log holds the snapshot,
    /// so no line can land between the two and be erased by the rewrite.
    fn checkpoint_locked(&self, store: &Store) -> Result<(), DbError> {
        self.wal.lock().rewrite(&[snapshot_line(store)])?;
        self.log_lines.store(1, Ordering::Relaxed);
        self.with_hub(|t| t.record(Default::default(), Event::WalCheckpoint));
        Ok(())
    }

    /// A handle addressing every table through the prefix `"{ns}/"`.
    ///
    /// Two namespaces on one shared database are fully isolated: rows and
    /// [`crate::Queue`] sequence counters all live under the composed
    /// table name, so shard A can never read shard B's rows through the
    /// un-prefixed `R::TABLE` name.
    pub fn namespace(&self, ns: impl Into<String>) -> Ns<'_> {
        Ns {
            db: self,
            prefix: Cow::Owned(ns.into()),
            name: RefCell::default(),
        }
    }

    /// [`Database::namespace`] without taking ownership of the prefix —
    /// for hot paths that address a precomputed namespace every cycle.
    pub fn namespace_ref<'a>(&'a self, ns: &'a str) -> Ns<'a> {
        Ns {
            db: self,
            prefix: Cow::Borrowed(ns),
            name: RefCell::default(),
        }
    }
}

/// A namespaced view over a shared [`Database`] (see [`Database::namespace`]).
///
/// Typed operations behave exactly like their `Database` counterparts but
/// address table `"{ns}/{R::TABLE}"` instead of `R::TABLE`.
pub struct Ns<'a> {
    db: &'a Database,
    prefix: Cow<'a, str>,
    /// The composed table name of the operation in progress, built in
    /// place so a handle allocates once, not once per operation.
    name: RefCell<String>,
}

impl<'a> Ns<'a> {
    /// The namespace prefix this handle addresses.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// The full table name used for record type `R`.
    pub fn table_of<R: Record>(&self) -> String {
        self.at::<R, _>(|_, table| table.to_owned())
    }

    /// Run `f` against the database and `R`'s table name in this namespace.
    fn at<R: Record, T>(&self, f: impl FnOnce(&Database, &str) -> T) -> T {
        let mut name = self.name.borrow_mut();
        name.clear();
        name.push_str(&self.prefix);
        name.push('/');
        name.push_str(R::TABLE);
        f(self.db, &name)
    }

    /// Namespaced [`Database::insert`].
    pub fn insert<R: Record>(&self, row: &R) -> Result<(), DbError> {
        self.at::<R, _>(|db, table| db.put_at(table, row, true))
    }

    /// Namespaced [`Database::put`].
    pub fn put<R: Record>(&self, row: &R) -> Result<(), DbError> {
        self.at::<R, _>(|db, table| db.put_at(table, row, false))
    }

    /// Namespaced [`Database::get`].
    pub fn get<R: Record>(&self, key: u64) -> Option<R> {
        self.at::<R, _>(|db, table| db.get_at(table, key))
    }

    /// Namespaced [`Database::contains`].
    pub fn contains<R: Record>(&self, key: u64) -> bool {
        self.at::<R, _>(|db, table| db.contains_at(table, key))
    }

    /// Namespaced [`Database::delete`].
    pub fn delete<R: Record>(&self, key: u64) -> Result<bool, DbError> {
        self.at::<R, _>(|db, table| db.delete_at(table, key))
    }

    /// Namespaced [`Database::update`].
    pub fn update<R: Record>(&self, key: u64, f: impl FnOnce(&mut R)) -> Result<bool, DbError> {
        let updated = self.at::<R, _>(|db, table| db.update_if_at(table, key, always(f)))?;
        Ok(updated.is_some())
    }

    /// Namespaced [`Database::scan`].
    pub fn scan<R: Record>(&self) -> Result<Vec<R>, DbError> {
        self.at::<R, _>(|db, table| db.scan_at(table, .., |_| true))
    }

    /// Namespaced [`Database::count`].
    pub fn count<R: Record>(&self) -> usize {
        self.at::<R, _>(|db, table| db.count_at(table))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::MemWal;
    use serde::Deserialize;

    #[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
    struct Item {
        id: u64,
        label: String,
        weight: u32,
    }
    impl Record for Item {
        const TABLE: &'static str = "items";
        fn key(&self) -> u64 {
            self.id
        }
    }

    fn item(id: u64, label: &str, weight: u32) -> Item {
        Item {
            id,
            label: label.into(),
            weight,
        }
    }

    #[test]
    fn crud_round_trip() {
        let db = Database::in_memory();
        db.insert(&item(1, "a", 10)).unwrap();
        db.insert(&item(2, "b", 20)).unwrap();
        assert_eq!(db.get::<Item>(1).unwrap().label, "a");
        assert_eq!(db.count::<Item>(), 2);
        assert!(db.contains::<Item>(2));
        assert!(db.delete::<Item>(1).unwrap());
        assert!(!db.delete::<Item>(1).unwrap());
        assert_eq!(db.count::<Item>(), 1);
    }

    #[test]
    fn insert_rejects_duplicates_but_put_overwrites() {
        let db = Database::in_memory();
        db.insert(&item(1, "a", 1)).unwrap();
        assert!(matches!(
            db.insert(&item(1, "again", 2)),
            Err(DbError::DuplicateKey { key: 1, .. })
        ));
        db.put(&item(1, "updated", 3)).unwrap();
        assert_eq!(db.get::<Item>(1).unwrap().label, "updated");
    }

    #[test]
    fn update_in_place() {
        let db = Database::in_memory();
        db.insert(&item(5, "x", 1)).unwrap();
        let hit = db.update::<Item>(5, |r| r.weight += 100).unwrap();
        assert!(hit);
        assert_eq!(db.get::<Item>(5).unwrap().weight, 101);
        assert!(!db.update::<Item>(99, |_| {}).unwrap());
    }

    #[test]
    fn scan_in_key_order_with_filter() {
        let db = Database::in_memory();
        for id in [3u64, 1, 2] {
            db.insert(&item(id, "r", id as u32 * 10)).unwrap();
        }
        let all = db.scan::<Item>().unwrap();
        assert_eq!(all.iter().map(|r| r.id).collect::<Vec<_>>(), vec![1, 2, 3]);
        let heavy = db.scan_filter::<Item>(|r| r.weight >= 20).unwrap();
        assert_eq!(heavy.len(), 2);
        assert_eq!(db.max_key::<Item>(), Some(3));
    }

    /// A log holding `items` row 1 (well-formed) and row 2 with a shape
    /// that does not decode as `Item` — what a buggy or newer version of
    /// the program would have left behind. The bad row can only arrive
    /// this way: there is no untyped put.
    const BAD_ROW: &str = r#"{"label":"x","wrong":"shape"}"#;

    fn log_with_undecodable_row() -> MemWal {
        let mut wal = MemWal::shared();
        {
            let db = Database::with_wal(Box::new(wal.clone()));
            db.insert(&item(1, "fine", 1)).unwrap();
        }
        wal.append(&format!(
            r#"{{"kind":"txn","ops":[{{"key":2,"op":"put","row":{BAD_ROW},"table":"items"}}]}}"#
        ))
        .unwrap();
        wal
    }

    #[test]
    fn scan_surfaces_undecodable_rows_as_codec_errors() {
        let wal = log_with_undecodable_row();
        let db = Database::recover(Box::new(wal.clone())).unwrap();
        // The row must not silently vanish from scans.
        let err = db.scan::<Item>().unwrap_err();
        assert!(matches!(err, DbError::Codec { .. }), "{err}");
        let err = db.scan_filter::<Item>(|r| r.weight > 0).unwrap_err();
        assert!(
            matches!(err, DbError::Codec { .. }),
            "filtered scan surfaces too: {err}"
        );
        // The Option-returning read maps to None but counts the failure.
        assert!(db.get::<Item>(2).is_none());
        assert_eq!(db.decode_failures(), 1);
        assert_eq!(db.get::<Item>(1).unwrap().label, "fine");
        // It still counts as a row, and its key is taken.
        assert_eq!(db.count::<Item>(), 2);
        assert!(db.contains::<Item>(2));
        assert!(matches!(
            db.insert(&item(2, "clash", 0)),
            Err(DbError::DuplicateKey { key: 2, .. })
        ));
        assert!(!db.update::<Item>(2, |r| r.weight = 9).unwrap());

        // A checkpoint taken after hydration re-emits the row verbatim:
        // it is never dropped, whatever this version can make of it.
        db.put(&item(3, "later", 3)).unwrap();
        db.checkpoint().unwrap();
        let snapshot = wal.read_all().unwrap().remove(0);
        assert!(snapshot.contains(&format!("[2,{BAD_ROW}]")), "{snapshot}");
        let again = Database::recover(Box::new(wal)).unwrap();
        assert!(matches!(
            again.scan::<Item>().unwrap_err(),
            DbError::Codec { .. }
        ));
        assert_eq!(again.get::<Item>(3).unwrap().label, "later");
        // Overwriting or deleting the row is how an operator repairs it.
        again.put(&item(2, "repaired", 2)).unwrap();
        assert_eq!(again.scan::<Item>().unwrap().len(), 3);
        assert_eq!(again.live_rows(), 3);
    }

    #[test]
    fn scan_range_surfaces_undecodable_rows_it_covers() {
        let db = Database::recover(Box::new(log_with_undecodable_row())).unwrap();
        let err = db.scan_range::<Item>(2..=2).unwrap_err();
        assert!(matches!(err, DbError::Codec { .. }), "{err}");
        let err = db.scan_range::<Item>(0..10).unwrap_err();
        assert!(matches!(err, DbError::Codec { .. }), "{err}");
        // A range that does not cover the bad row is answered.
        let rows = db.scan_range::<Item>(0..2).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].label, "fine");
        assert!(db.delete::<Item>(2).unwrap());
        assert_eq!(db.scan_range::<Item>(0..10).unwrap().len(), 1);
    }

    #[test]
    fn scan_range_is_a_key_range_in_key_order() {
        let db = Database::in_memory();
        for id in [40u64, 7, 19, 20, 3] {
            db.insert(&item(id, "r", id as u32)).unwrap();
        }
        let ids = |rows: Vec<Item>| rows.iter().map(|r| r.id).collect::<Vec<_>>();
        assert_eq!(ids(db.scan_range::<Item>(7..20).unwrap()), vec![7, 19]);
        assert_eq!(ids(db.scan_range::<Item>(7..=20).unwrap()), vec![7, 19, 20]);
        assert_eq!(ids(db.scan_range::<Item>(41..).unwrap()), Vec::<u64>::new());
    }

    #[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
    struct Other {
        id: u64,
    }
    impl Record for Other {
        const TABLE: &'static str = "items";
        fn key(&self) -> u64 {
            self.id
        }
    }

    #[test]
    fn a_table_opened_as_a_second_type_is_a_typed_error() {
        let wal = MemWal::shared();
        let db = Database::with_wal(Box::new(wal.clone()));
        db.insert(&item(1, "a", 1)).unwrap();
        let lines = wal.len();
        for err in [
            db.put(&Other { id: 2 }).unwrap_err(),
            db.scan::<Other>().unwrap_err(),
            db.update::<Other>(1, |_| {}).unwrap_err(),
        ] {
            assert!(matches!(err, DbError::TableType { .. }), "{err}");
        }
        let mut txn = db.txn();
        txn.put(&item(3, "c", 3)).unwrap();
        txn.put(&Other { id: 4 }).unwrap();
        assert!(matches!(
            txn.commit().unwrap_err(),
            DbError::TableType { .. }
        ));
        assert!(db.get::<Other>(1).is_none());
        assert_eq!(db.decode_failures(), 1);
        // Nothing of the refused writes reached the log or the table.
        assert_eq!(wal.len(), lines);
        assert_eq!(db.scan::<Item>().unwrap(), vec![item(1, "a", 1)]);
    }

    #[test]
    fn update_if_commits_only_when_the_closure_says_so() {
        let wal = MemWal::shared();
        let db = Database::with_wal(Box::new(wal.clone()));
        let tel = Telemetry::shared();
        db.attach_telemetry(Arc::clone(&tel));
        db.insert(&item(1, "a", 10)).unwrap();
        // Declined: the row, the log and the commit count stay put.
        let out = db
            .update_if::<Item, u32>(1, |r| {
                r.weight = 99;
                None
            })
            .unwrap();
        assert_eq!(out, None);
        assert_eq!((wal.len(), db.commit_count()), (1, 1));
        assert_eq!(db.get::<Item>(1).unwrap().weight, 10);
        // Accepted: the closure's value comes back, the row is committed.
        let prior = db
            .update_if::<Item, u32>(1, |r| {
                let prior = r.weight;
                r.weight += 1;
                Some(prior)
            })
            .unwrap();
        assert_eq!(prior, Some(10));
        assert_eq!(wal.len(), 2);
        assert_eq!(db.get::<Item>(1).unwrap().weight, 11);
        // A missing row is `None` as well, and the closure never runs.
        let missing = db.update_if::<Item, ()>(9, |_| unreachable!("no such row"));
        assert_eq!(missing.unwrap(), None);
        // One read per `update_if` that found its row, one per `get`.
        assert_eq!(tel.counter("db.rows.read"), 4);
    }

    #[test]
    fn reads_do_not_create_tables() {
        let wal = MemWal::shared();
        let db = Database::with_wal(Box::new(wal.clone()));
        assert!(db.get::<Item>(1).is_none());
        assert!(db.scan::<Item>().unwrap().is_empty());
        assert!(!db.delete::<Item>(1).unwrap());
        assert!(db.stats().is_empty());
        // A table emptied by deletes still exists, and a snapshot says so.
        db.insert(&item(1, "a", 1)).unwrap();
        db.delete::<Item>(1).unwrap();
        db.checkpoint().unwrap();
        assert_eq!(
            wal.read_all().unwrap(),
            vec![r#"{"kind":"snapshot","tables":[{"name":"items","rows":[]}]}"#]
        );
        assert_eq!(db.live_rows(), 0);
    }

    #[test]
    fn telemetry_counts_rows_read() {
        let db = Database::in_memory();
        let tel = Telemetry::shared();
        db.attach_telemetry(Arc::clone(&tel));
        db.insert(&item(1, "a", 1)).unwrap();
        db.insert(&item(2, "b", 2)).unwrap();
        db.get::<Item>(1).unwrap();
        assert!(db.get::<Item>(9).is_none());
        db.scan::<Item>().unwrap();
        db.scan_filter::<Item>(|r| r.weight == 2).unwrap();
        assert_eq!(tel.counter("db.rows.read"), 4);
    }

    #[test]
    fn namespaces_do_not_share_rows() {
        let db = Database::in_memory();
        let a = db.namespace("shard0");
        let b = db.namespace("shard1");
        a.put(&item(1, "from-a", 10)).unwrap();
        b.put(&item(1, "from-b", 20)).unwrap();
        // Same record type, same key — reads stay per-namespace.
        assert_eq!(a.get::<Item>(1).unwrap().label, "from-a");
        assert_eq!(b.get::<Item>(1).unwrap().label, "from-b");
        // Mutating one namespace leaves the other alone.
        a.update::<Item>(1, |r| r.label = "a2".into()).unwrap();
        assert_eq!(a.get::<Item>(1).unwrap().label, "a2");
        assert_eq!(b.get::<Item>(1).unwrap().label, "from-b");
        // The un-prefixed table is a third, independent space.
        assert!(db.get::<Item>(1).is_none());
        assert_eq!(a.count::<Item>(), 1);
        assert_eq!(b.count::<Item>(), 1);
        assert_eq!(db.count::<Item>(), 0);
        // Deletes are namespace-local too.
        assert!(a.delete::<Item>(1).unwrap());
        assert!(a.get::<Item>(1).is_none());
        assert_eq!(b.get::<Item>(1).unwrap().label, "from-b");
    }

    #[test]
    fn recovery_replays_committed_state() {
        let wal = MemWal::shared();
        {
            let db = Database::with_wal(Box::new(wal.clone()));
            db.insert(&item(1, "keep", 1)).unwrap();
            db.insert(&item(2, "drop", 2)).unwrap();
            db.delete::<Item>(2).unwrap();
            db.update::<Item>(1, |r| r.label = "kept".into()).unwrap();
        } // server "crashes"
        let db = Database::recover(Box::new(wal)).unwrap();
        assert_eq!(db.count::<Item>(), 1);
        assert_eq!(db.get::<Item>(1).unwrap().label, "kept");
    }

    /// A snapshot line holds every row's text, user-supplied names among
    /// them, so reading a string back must stay linear in its length: no
    /// multi-byte character may cost a pass over the rest of the line.
    #[test]
    fn a_mebibyte_of_mixed_text_recovers_from_txn_and_snapshot_lines() {
        let piece = "é naïve \"quoted\" back\\slash \u{1}\u{1f}\n\t✓ 😀 ";
        let label = piece.repeat((1 << 20) / piece.len() + 1);
        assert!(label.len() >= 1 << 20);
        let wal = MemWal::shared();
        let db = Database::with_wal(Box::new(wal.clone()));
        db.insert(&item(1, &label, 1)).unwrap();
        let from_txn = Database::recover(Box::new(wal.clone())).unwrap();
        assert_eq!(from_txn.get::<Item>(1).unwrap().label, label);
        db.checkpoint().unwrap();
        let from_snapshot = Database::recover(Box::new(wal)).unwrap();
        assert_eq!(from_snapshot.get::<Item>(1).unwrap().label, label);
    }

    #[test]
    fn recovery_drops_torn_final_commit() {
        let wal = MemWal::shared();
        {
            let db = Database::with_wal(Box::new(wal.clone()));
            db.insert(&item(1, "committed", 1)).unwrap();
            db.insert(&item(2, "torn", 2)).unwrap();
        }
        wal.tear_last_line();
        let db = Database::recover(Box::new(wal)).unwrap();
        assert_eq!(db.count::<Item>(), 1);
        assert!(db.get::<Item>(2).is_none());
    }

    #[test]
    fn recovery_rejects_mid_log_corruption() {
        let mut wal = MemWal::shared();
        wal.append("not json at all").unwrap();
        {
            let db = Database::recover(Box::new(wal.clone()));
            // Single-line log: the bad line is final, so it's dropped —
            // and truncated out of the log so later appends stay clean.
            assert!(db.is_ok());
            assert!(wal.is_empty(), "torn tail truncated at recovery");
        }
        // A bad line that is NOT final is real corruption.
        wal.append("not json at all").unwrap();
        wal.append("{\"kind\":\"txn\",\"ops\":[]}").unwrap();
        let err = Database::recover(Box::new(wal)).unwrap_err();
        assert!(matches!(err, DbError::Corrupt { line: 1, .. }), "{err}");
    }

    #[test]
    fn checkpoint_compacts_and_preserves_state() {
        let wal = MemWal::shared();
        let db = Database::with_wal(Box::new(wal.clone()));
        for i in 0..50 {
            db.put(&item(i, "v", i as u32)).unwrap();
        }
        for i in 0..25 {
            db.delete::<Item>(i).unwrap();
        }
        assert!(wal.len() > 50);
        db.checkpoint().unwrap();
        assert_eq!(wal.len(), 1);
        assert_eq!(db.log_lines(), 1);
        let recovered = Database::recover(Box::new(wal)).unwrap();
        assert_eq!(recovered.count::<Item>(), 25);
        assert_eq!(recovered.get::<Item>(30).unwrap().weight, 30);
    }

    #[test]
    fn writes_after_checkpoint_survive_recovery() {
        let wal = MemWal::shared();
        let db = Database::with_wal(Box::new(wal.clone()));
        db.insert(&item(1, "pre", 0)).unwrap();
        db.checkpoint().unwrap();
        db.insert(&item(2, "post", 0)).unwrap();
        let recovered = Database::recover(Box::new(wal)).unwrap();
        assert_eq!(recovered.count::<Item>(), 2);
    }

    #[test]
    fn auto_checkpoint_fires_on_log_to_live_ratio() {
        let wal = MemWal::shared();
        let policy = CheckpointPolicy {
            enabled: true,
            ratio: 4,
            min_log_lines: 16,
        };
        let db = Database::with_wal_and_config(Box::new(wal.clone()), policy);
        // One live row rewritten repeatedly: the log grows while live
        // rows stay at 1, so the ratio trigger must fire.
        for i in 0..64u32 {
            db.put(&item(1, "v", i)).unwrap();
        }
        assert!(
            wal.len() < 32,
            "auto-checkpoint kept the log bounded, got {} lines",
            wal.len()
        );
        // The compacted log still recovers the latest state.
        let recovered = Database::recover(Box::new(wal.clone())).unwrap();
        assert_eq!(recovered.get::<Item>(1).unwrap().weight, 63);
        // Bound: ratio (4) × one live row, plus the snapshot line itself.
        assert!(
            recovered.replayed() <= 5,
            "replay bounded by policy, got {}",
            recovered.replayed()
        );
    }

    #[test]
    fn auto_checkpoint_respects_min_log_lines() {
        let wal = MemWal::shared();
        let db = Database::with_wal_and_config(
            Box::new(wal.clone()),
            CheckpointPolicy {
                enabled: true,
                ratio: 1,
                min_log_lines: 1000,
            },
        );
        for i in 0..50u32 {
            db.put(&item(1, "v", i)).unwrap();
        }
        assert_eq!(wal.len(), 50, "below min_log_lines nothing compacts");
    }

    #[test]
    fn auto_checkpoint_is_deterministic_across_runs() {
        let run = || {
            let wal = MemWal::shared();
            let db = Database::with_wal_and_config(
                Box::new(wal.clone()),
                CheckpointPolicy {
                    enabled: true,
                    ratio: 2,
                    min_log_lines: 8,
                },
            );
            for i in 0..40u64 {
                db.put(&item(i % 5, "v", i as u32)).unwrap();
                if i % 3 == 0 {
                    let _ = db.delete::<Item>(i % 5).unwrap();
                }
            }
            wal.read_all().unwrap()
        };
        assert_eq!(run(), run(), "same commits, same compaction points");
    }

    #[test]
    fn telemetry_counts_appends_rewrites_and_replays() {
        let wal = MemWal::shared();
        {
            let db = Database::with_wal(Box::new(wal.clone()));
            let tel = Telemetry::shared();
            db.attach_telemetry(Arc::clone(&tel));
            db.insert(&item(1, "a", 1)).unwrap();
            db.insert(&item(2, "b", 2)).unwrap();
            db.checkpoint().unwrap();
            db.insert(&item(3, "c", 3)).unwrap();
            assert_eq!(tel.counter("wal.appends"), 3);
            assert_eq!(tel.counter("wal.rewrites"), 1);
            assert_eq!(tel.counter("wal.replays"), 0);
        }
        let db = Database::recover(Box::new(wal)).unwrap();
        assert_eq!(
            db.replayed(),
            2,
            "one snapshot line + one post-checkpoint txn"
        );
        let tel = Telemetry::shared();
        db.attach_telemetry(Arc::clone(&tel));
        assert_eq!(tel.counter("wal.replays"), 2);
    }

    #[test]
    fn namespaced_rows_survive_recovery() {
        let wal = MemWal::shared();
        {
            let db = Database::with_wal(Box::new(wal.clone()));
            db.namespace("s0").insert(&item(1, "zero", 0)).unwrap();
            db.namespace("s1").insert(&item(1, "one", 1)).unwrap();
        }
        let db = Database::recover(Box::new(wal)).unwrap();
        assert_eq!(db.namespace("s0").get::<Item>(1).unwrap().label, "zero");
        assert_eq!(db.namespace("s1").get::<Item>(1).unwrap().label, "one");
        let ns = db.namespace("s0");
        let rows = ns.scan::<Item>().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(ns.table_of::<Item>(), "s0/items");
    }

    #[test]
    fn namespace_insert_rejects_duplicates_per_namespace() {
        let db = Database::in_memory();
        let a = db.namespace("s0");
        a.insert(&item(1, "x", 1)).unwrap();
        assert!(matches!(
            a.insert(&item(1, "x2", 2)),
            Err(DbError::DuplicateKey { key: 1, .. })
        ));
        // The same key is fresh in another namespace.
        db.namespace("s1").insert(&item(1, "y", 1)).unwrap();
        assert!(a.contains::<Item>(1));
        assert!(db.namespace("s1").contains::<Item>(1));
    }

    #[test]
    fn stats_and_commit_count() {
        let db = Database::in_memory();
        db.insert(&item(1, "a", 1)).unwrap();
        db.insert(&item(2, "b", 2)).unwrap();
        let stats = db.stats();
        assert_eq!(
            stats,
            vec![TableStats {
                name: "items".into(),
                rows: 2
            }]
        );
        assert_eq!(db.commit_count(), 2);
    }
}

/// Crash anywhere in the bytes of the log. A fault-injecting [`Wal`] reads
/// a seeded log back with one line cut at a byte offset, or with one byte
/// flipped, and recovery is held to the rule DESIGN.md states: a torn
/// final line is dropped and cut out of the log; damage anywhere else is
/// `Corrupt` naming its line, or, where the line still reads as a log
/// line, rows that fail the first typed read of them as `Codec`. Never a
/// panic, and always what the derived `LogEntry` decoder says.
#[cfg(test)]
mod byte_offsets {
    use super::*;
    use crate::txn::{oracle, wal_of, Model};
    use crate::wal::MemWal;
    use serde::Deserialize;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Item {
        id: u64,
        label: String,
        weight: u32,
        ratio: Option<f64>,
    }
    impl Record for Item {
        const TABLE: &'static str = "items";
        fn key(&self) -> u64 {
            self.id
        }
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum Phase {
        Idle,
        Busy { since: u64, note: String },
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Task {
        id: u64,
        phase: Phase,
        tags: Vec<String>,
    }
    impl Record for Task {
        const TABLE: &'static str = "tasks";
        fn key(&self) -> u64 {
            self.id
        }
    }

    const LABELS: [&str; 5] = ["plain", "quo\"te", "naïve ✓", "emoji 😀", "line\nbreak"];

    /// Twelve commits, a checkpoint, then twenty more: puts, updates and
    /// deletes over a few keys of two tables, picked by a fixed LCG.
    fn seeded_log() -> Vec<String> {
        let wal = MemWal::shared();
        let db = Database::with_wal_and_config(Box::new(wal.clone()), CheckpointPolicy::disabled());
        let mut state = 0x5eed_u64;
        let mut roll = |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) % n
        };
        for commit in 0..32 {
            if commit == 12 {
                db.checkpoint().unwrap();
            }
            let id = roll(6);
            let label = LABELS[roll(5) as usize];
            match roll(5) {
                0 => drop(db.delete::<Item>(id).unwrap()),
                1 => drop(db.delete::<Task>(id).unwrap()),
                2 | 3 => {
                    let ratio = (roll(2) == 0).then_some(roll(100) as f64 / 8.0);
                    let weight = roll(1000) as u32;
                    db.put(&Item {
                        id,
                        label: label.into(),
                        weight,
                        ratio,
                    })
                    .unwrap();
                }
                _ => {
                    let phase = match roll(2) {
                        0 => Phase::Idle,
                        _ => Phase::Busy {
                            since: roll(1 << 40),
                            note: label.into(),
                        },
                    };
                    let tags = (0..roll(3))
                        .map(|i| LABELS[i as usize].to_owned())
                        .collect();
                    db.put(&Task { id, phase, tags }).unwrap();
                }
            }
        }
        wal.read_all().unwrap()
    }

    /// What reads back through `log` with one fault in it; everything
    /// else goes to the log underneath.
    struct Faulty {
        log: MemWal,
        fault: Fault,
    }

    #[derive(Debug, Clone, Copy)]
    enum Fault {
        /// Line `line` (0-based) ends after `at` bytes.
        Cut { line: usize, at: usize },
        /// Byte `at` of line `line` is xor-ed with `mask`.
        Flip { line: usize, at: usize, mask: u8 },
    }

    impl Wal for Faulty {
        fn append(&mut self, line: &str) -> Result<(), DbError> {
            self.log.append(line)
        }

        fn read_all(&self) -> Result<Vec<String>, DbError> {
            let mut lines = self.log.read_all()?;
            match self.fault {
                Fault::Cut { line, at } => lines[line].truncate(at),
                Fault::Flip { line, at, mask } => {
                    let mut bytes = std::mem::take(&mut lines[line]).into_bytes();
                    bytes[at] ^= mask;
                    lines[line] = String::from_utf8(bytes).map_err(std::io::Error::other)?;
                }
            }
            Ok(lines)
        }

        fn rewrite(&mut self, lines: &[String]) -> Result<(), DbError> {
            self.log.rewrite(lines)
        }

        fn appended(&self) -> u64 {
            self.log.appended()
        }

        fn rewrites(&self) -> u64 {
            self.log.rewrites()
        }
    }

    /// A recovery's outcome, up to its first typed read of each table.
    #[derive(Debug, PartialEq)]
    enum Outcome {
        Corrupt(usize),
        Read {
            items: Result<Vec<Item>, ()>,
            tasks: Result<Vec<Task>, ()>,
        },
    }

    fn recovered(wal: Box<dyn Wal>) -> Outcome {
        fn typed<R>(rows: Result<Vec<R>, DbError>) -> Result<Vec<R>, ()> {
            match rows {
                Ok(rows) => Ok(rows),
                Err(DbError::Codec { .. }) => Err(()),
                Err(other) => panic!("a typed read failed with {other}"),
            }
        }
        match Database::recover(wal) {
            Err(DbError::Corrupt { line, .. }) => Outcome::Corrupt(line),
            Err(other) => panic!("recovery failed with {other}"),
            Ok(db) => Outcome::Read {
                items: typed(db.scan::<Item>()),
                tasks: typed(db.scan::<Task>()),
            },
        }
    }

    /// The outcome the derived decoder gives: rows decoded from its trees.
    fn expected(lines: &[String]) -> Outcome {
        fn rows<R: Record>(model: &Model) -> Result<Vec<R>, ()> {
            let Some(rows) = model.get(R::TABLE) else {
                return Ok(Vec::new());
            };
            rows.values()
                .map(|v| R::from_value(v).map_err(drop))
                .collect()
        }
        match oracle(lines) {
            Err(line) => Outcome::Corrupt(line),
            Ok((model, _)) => Outcome::Read {
                items: rows(&model),
                tasks: rows(&model),
            },
        }
    }

    #[test]
    fn the_seeded_log_has_a_checkpoint_escapes_and_both_tables() {
        let lines = seeded_log();
        assert!(
            lines[0].starts_with(r#"{"kind":"snapshot""#),
            "{}",
            lines[0]
        );
        assert!(lines.len() > 15, "{} lines", lines.len());
        let text = lines.concat();
        assert!(text.contains(r#"\""#) && text.contains(r#"\n"#) && text.contains("😀"));
        assert!(matches!(
            recovered(Box::new(wal_of(&lines))),
            Outcome::Read { items: Ok(items), tasks: Ok(tasks) } if !items.is_empty() && !tasks.is_empty()
        ));
    }

    #[test]
    fn every_byte_prefix_of_the_final_line_recovers_without_it() {
        let lines = seeded_log();
        let (last, kept) = lines.split_last().unwrap();
        let without = Database::recover(Box::new(wal_of(kept)))
            .unwrap()
            .snapshot_line();
        for at in (0..last.len()).filter(|&at| last.is_char_boundary(at)) {
            let log = wal_of(&lines);
            let fault = Fault::Cut {
                line: kept.len(),
                at,
            };
            let db = Database::recover(Box::new(Faulty {
                log: log.clone(),
                fault,
            }))
            .unwrap();
            assert_eq!(db.replayed(), kept.len() as u64, "cut at {at}");
            assert_eq!(db.snapshot_line(), without, "cut at {at}");
            assert_eq!(
                log.read_all().unwrap(),
                kept,
                "cut at {at}: the torn line is truncated out of the log"
            );
        }
    }

    #[test]
    fn a_flipped_byte_anywhere_in_a_line_gives_the_oracles_outcome() {
        let lines = seeded_log();
        // The snapshot, and a txn line from the middle of the log.
        for line in [0, lines.len() / 2] {
            let (mut corrupt, mut codec) = (0, 0);
            for at in 0..lines[line].len() {
                let mask = 1 << (at % 7);
                let fault = Fault::Flip { line, at, mask };
                let faulty = Faulty {
                    log: wal_of(&lines),
                    fault,
                };
                let Ok(flipped) = faulty.read_all() else {
                    // Not UTF-8: the log does not read at all.
                    continue;
                };
                let got = recovered(Box::new(faulty));
                assert_eq!(got, expected(&flipped), "line {line}, byte {at}");
                match got {
                    Outcome::Corrupt(n) => {
                        assert_eq!(n, line + 1, "byte {at} names its line");
                        corrupt += 1;
                    }
                    Outcome::Read { items, tasks } => {
                        codec += usize::from(items.is_err() || tasks.is_err())
                    }
                }
            }
            assert!(
                corrupt > 0 && codec > 0,
                "line {line}: {corrupt} corrupt, {codec} codec"
            );
        }
    }
}
