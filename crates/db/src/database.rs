//! The table store proper.

use crate::error::DbError;
use crate::index::Indexes;
use crate::txn::{LogEntry, Op, Txn};
use crate::wal::Wal;
use parking_lot::Mutex;
use serde::de::DeserializeOwned;
use serde::Serialize;
use sphinx_telemetry::Telemetry;
use std::any::Any;
use std::borrow::Cow;
use std::collections::BTreeMap;
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

/// Read-path counters (see also `db.*` telemetry counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Rows materialized by `get`/`scan*` calls.
    pub rows_read: u64,
    /// Rows that required a serde decode (cache misses).
    pub rows_decoded: u64,
    /// Reads served from the decoded-row cache.
    pub cache_hits: u64,
    /// Reads that populated the cache.
    pub cache_misses: u64,
}

pub(crate) type Tables = BTreeMap<String, BTreeMap<u64, serde_json::Value>>;

/// Decoded rows, keyed by table then primary key. Entries are erased to
/// `Any`; the typed read path downcasts back to `R`. Keyed by the full
/// (possibly namespaced) table name, never by `R::TABLE` alone — two
/// namespaces sharing one database must not serve each other's decodes.
type RowCache = BTreeMap<String, BTreeMap<u64, Box<dyn Any + Send>>>;

/// A decoded row handed to the commit path so the cache can be primed
/// without ever re-deserializing what the caller just serialized.
pub(crate) struct Primed {
    pub(crate) table: String,
    pub(crate) key: u64,
    pub(crate) row: Box<dyn Any + Send>,
}

/// A database: named tables + write-ahead log.
///
/// All mutation goes through the WAL before touching the tables, so any
/// state observable after a crash is replayable from the log.
pub struct Database {
    pub(crate) tables: Mutex<Tables>,
    pub(crate) wal: Mutex<Box<dyn Wal>>,
    indexes: Mutex<Indexes>,
    cache: Mutex<RowCache>,
    checkpoint: CheckpointPolicy,
    commits: AtomicU64,
    /// Lines currently in the log (replayed + appended − compacted away).
    log_lines: AtomicU64,
    /// Log lines replayed by `recover` (0 for a fresh database).
    replayed: u64,
    /// Rows that failed to decode on the `Option`-returning read path
    /// (`get`); scans surface the same failures as [`DbError::Codec`].
    decode_failures: AtomicU64,
    rows_read: AtomicU64,
    rows_decoded: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    telemetry: Mutex<Option<Arc<Telemetry>>>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.tables.lock().len())
            .field("commits", &self.commits.load(Ordering::Relaxed))
            .finish()
    }
}

fn encode<R: Record>(table: &str, row: &R) -> Result<serde_json::Value, DbError> {
    serde_json::to_value(row).map_err(|e| DbError::Codec {
        table: table.to_owned(),
        message: e.to_string(),
    })
}

fn decode<R: Record>(table: &str, value: &serde_json::Value) -> Result<R, DbError> {
    serde_json::from_value(value.clone()).map_err(|e| DbError::Codec {
        table: table.to_owned(),
        message: e.to_string(),
    })
}

/// The decoded rows of `table`, with an empty entry made on first use so
/// the steady state allocates no table name.
fn table_cache<'c>(
    cache: &'c mut RowCache,
    table: &str,
) -> Option<&'c mut BTreeMap<u64, Box<dyn Any + Send>>> {
    if !cache.contains_key(table) {
        cache.insert(table.to_owned(), BTreeMap::new());
    }
    cache.get_mut(table)
}

fn live_rows_of(tables: &Tables) -> u64 {
    tables.values().map(|t| t.len() as u64).sum()
}

/// The full table name for record type `R` inside namespace `ns`.
fn ns_table<R: Record>(ns: &str) -> String {
    format!("{ns}/{}", R::TABLE)
}

fn encode_entry(entry: &LogEntry) -> Result<String, DbError> {
    serde_json::to_string(entry).map_err(|e| DbError::Codec {
        table: "<wal>".to_owned(),
        message: e.to_string(),
    })
}

impl Database {
    /// A database backed by the given (possibly pre-existing, here empty)
    /// write-ahead log, with the default [`CheckpointPolicy`].
    pub fn with_wal(wal: Box<dyn Wal>) -> Self {
        Self::with_wal_and_config(wal, CheckpointPolicy::default())
    }

    /// A database over an empty log with an explicit checkpoint policy.
    pub fn with_wal_and_config(wal: Box<dyn Wal>, checkpoint: CheckpointPolicy) -> Self {
        Database {
            tables: Mutex::new(BTreeMap::new()),
            wal: Mutex::new(wal),
            indexes: Mutex::new(Indexes::default()),
            cache: Mutex::new(BTreeMap::new()),
            checkpoint,
            commits: AtomicU64::new(0),
            log_lines: AtomicU64::new(0),
            replayed: 0,
            decode_failures: AtomicU64::new(0),
            rows_read: AtomicU64::new(0),
            rows_decoded: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
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
    /// A torn *final* line is treated as an interrupted commit: it is
    /// dropped AND truncated out of the log (otherwise the next append
    /// would merge with the torn bytes and corrupt a later recovery). A
    /// malformed line anywhere else is corruption and fails recovery.
    pub fn recover(wal: Box<dyn Wal>) -> Result<Self, DbError> {
        Self::recover_with_config(wal, CheckpointPolicy::default())
    }

    /// [`Database::recover`] with an explicit checkpoint policy.
    pub fn recover_with_config(
        mut wal: Box<dyn Wal>,
        checkpoint: CheckpointPolicy,
    ) -> Result<Self, DbError> {
        let lines = wal.read_all()?;
        let mut tables: Tables = BTreeMap::new();
        let last = lines.len().saturating_sub(1);
        let mut valid = 0usize;
        for (i, line) in lines.iter().enumerate() {
            let entry: LogEntry = match serde_json::from_str(line) {
                Ok(e) => e,
                Err(err) if i == last => {
                    // Interrupted final commit: discard, recovery succeeds.
                    let _ = err;
                    break;
                }
                Err(err) => {
                    return Err(DbError::Corrupt {
                        line: i + 1,
                        message: err.to_string(),
                    })
                }
            };
            entry.apply(&mut tables);
            valid = i + 1;
        }
        if valid < lines.len() {
            wal.rewrite(&lines[..valid])?;
        }
        Ok(Database {
            tables: Mutex::new(tables),
            wal: Mutex::new(wal),
            indexes: Mutex::new(Indexes::default()),
            cache: Mutex::new(BTreeMap::new()),
            checkpoint,
            commits: AtomicU64::new(0),
            log_lines: AtomicU64::new(valid as u64),
            replayed: valid as u64,
            decode_failures: AtomicU64::new(0),
            rows_read: AtomicU64::new(0),
            rows_decoded: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            telemetry: Mutex::new(None),
        })
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
        live_rows_of(&self.tables.lock())
    }

    /// Rows that failed to decode on the `Option`-returning read path.
    pub fn decode_failures(&self) -> u64 {
        self.decode_failures.load(Ordering::Relaxed)
    }

    /// Read-path counters accumulated since construction.
    pub fn read_stats(&self) -> ReadStats {
        ReadStats {
            rows_read: self.rows_read.load(Ordering::Relaxed),
            rows_decoded: self.rows_decoded.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
        }
    }

    /// Attach a telemetry hub. Replay work already done by `recover` is
    /// credited immediately (recovery runs before any hub exists); every
    /// later commit and checkpoint bumps `wal.appends` / `wal.rewrites`,
    /// and every read bumps the `db.*` counters.
    pub fn attach_telemetry(&self, telemetry: Arc<Telemetry>) {
        if self.replayed > 0 {
            telemetry.counter_add("wal.replays", self.replayed);
            telemetry.span_instant("wal:replay", format!("{} lines replayed", self.replayed));
        }
        *self.telemetry.lock() = Some(telemetry);
    }

    /// Credit one batch of reads to the local counters and the telemetry
    /// hub (one lock per call, not per row).
    fn note_reads(&self, hits: u64, decoded: u64) {
        if hits == 0 && decoded == 0 {
            return;
        }
        self.rows_read.fetch_add(hits + decoded, Ordering::Relaxed);
        self.rows_decoded.fetch_add(decoded, Ordering::Relaxed);
        self.cache_hits.fetch_add(hits, Ordering::Relaxed);
        self.cache_misses.fetch_add(decoded, Ordering::Relaxed);
        if let Some(t) = self.telemetry.lock().as_ref() {
            t.counter_add("db.rows.read", hits + decoded);
            t.counter_add("db.rows.decoded", decoded);
            t.counter_add("db.cache.hits", hits);
            t.counter_add("db.cache.misses", decoded);
        }
    }

    /// Begin a multi-table atomic transaction.
    pub fn txn(&self) -> Txn<'_> {
        Txn::new(self)
    }

    pub(crate) fn commit_ops(&self, ops: Vec<Op>) -> Result<(), DbError> {
        self.commit_ops_primed(ops, Vec::new())
    }

    /// Commit `ops` as one WAL line; `primed` carries already-decoded rows
    /// for the touched keys so the cache can be refreshed for free.
    ///
    /// Append, apply and the policy's checkpoint are one critical section
    /// under `tables`: `Database` is `Sync`, and two committers that
    /// logged in one order and applied in the other would leave live
    /// tables that differ from what [`Database::recover`] rebuilds.
    // sphinx-hot
    pub(crate) fn commit_ops_primed(
        &self,
        ops: Vec<Op>,
        primed: Vec<Primed>,
    ) -> Result<(), DbError> {
        if ops.is_empty() {
            return Ok(());
        }
        let entry = LogEntry::Txn { ops };
        let line = encode_entry(&entry)?;
        let mut tables = self.tables.lock();
        // WAL first, then tables: the log is the source of truth.
        self.wal.lock().append(&line)?;
        self.log_lines.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = self.telemetry.lock().as_ref() {
            t.counter_add("wal.appends", 1);
        }
        {
            let mut indexes = self.indexes.lock();
            let mut cache = self.cache.lock();
            if let LogEntry::Txn { ops } = entry {
                for op in ops {
                    match op {
                        Op::Put { table, key, row } => {
                            let t = tables.entry(table.clone()).or_default();
                            // Insert first so the displaced old row moves
                            // out instead of being cloned for the index
                            // delta; the new row is read back by key.
                            let old = t.insert(key, row);
                            if let Some(new) = t.get(&key) {
                                indexes.on_put(&table, key, old.as_ref(), new);
                            }
                            // The cached decode (if any) is now stale.
                            if let Some(tc) = cache.get_mut(table.as_str()) {
                                tc.remove(&key);
                            }
                        }
                        Op::Del { table, key } => {
                            if let Some(t) = tables.get_mut(&table) {
                                let old = t.remove(&key);
                                indexes.on_delete(&table, key, old.as_ref());
                            }
                            if let Some(tc) = cache.get_mut(table.as_str()) {
                                tc.remove(&key);
                            }
                        }
                    }
                }
            }
            for p in primed {
                cache.entry(p.table).or_default().insert(p.key, p.row);
            }
        }
        self.commits.fetch_add(1, Ordering::Relaxed);
        self.maybe_checkpoint(&tables)
    }

    /// Apply the [`CheckpointPolicy`] after a commit, inside that commit's
    /// critical section. Deterministic: the decision depends only on log
    /// length and live-row count.
    fn maybe_checkpoint(&self, tables: &Tables) -> Result<(), DbError> {
        let policy = self.checkpoint;
        if !policy.enabled {
            return Ok(());
        }
        let log = self.log_lines.load(Ordering::Relaxed);
        if log < policy.min_log_lines {
            return Ok(());
        }
        if log > policy.ratio.saturating_mul(live_rows_of(tables).max(1)) {
            self.checkpoint_locked(tables)?;
        }
        Ok(())
    }

    /// Insert a new row; fails on duplicate key.
    pub fn insert<R: Record>(&self, row: &R) -> Result<(), DbError> {
        self.insert_at(R::TABLE, row)
    }

    pub(crate) fn insert_at<R: Record>(&self, table: &str, row: &R) -> Result<(), DbError> {
        if self.contains_at(table, row.key()) {
            return Err(DbError::DuplicateKey {
                table: table.to_owned(),
                key: row.key(),
            });
        }
        self.put_at(table, row)
    }

    /// Insert or overwrite a row.
    pub fn put<R: Record>(&self, row: &R) -> Result<(), DbError> {
        self.put_at(R::TABLE, row)
    }

    pub(crate) fn put_at<R: Record>(&self, table: &str, row: &R) -> Result<(), DbError> {
        let value = encode(table, row)?;
        let op = Op::Put {
            table: table.to_owned(),
            key: row.key(),
            row: value,
        };
        let primed = Primed {
            table: table.to_owned(),
            key: row.key(),
            row: Box::new(row.clone()),
        };
        self.commit_ops_primed(vec![op], vec![primed])
    }

    /// Fetch a row by key. A row that exists but fails to decode reads as
    /// `None` and bumps [`Database::decode_failures`] — use the
    /// `Result`-returning scans where corruption must be surfaced.
    pub fn get<R: Record>(&self, key: u64) -> Option<R> {
        self.get_at(R::TABLE, key)
    }

    pub(crate) fn get_at<R: Record>(&self, table: &str, key: u64) -> Option<R> {
        let tables = self.tables.lock();
        let value = tables.get(table)?.get(&key)?;
        let mut cache = self.cache.lock();
        let tc = table_cache(&mut cache, table)?;
        if let Some(row) = tc.get(&key).and_then(|b| b.downcast_ref::<R>()) {
            let row = row.clone();
            drop(cache);
            self.note_reads(1, 0);
            return Some(row);
        }
        match decode::<R>(table, value) {
            Ok(row) => {
                tc.insert(key, Box::new(row.clone()));
                drop(cache);
                self.note_reads(0, 1);
                Some(row)
            }
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
        self.tables
            .lock()
            .get(table)
            .is_some_and(|t| t.contains_key(&key))
    }

    /// Delete a row; returns whether it existed.
    pub fn delete<R: Record>(&self, key: u64) -> Result<bool, DbError> {
        self.delete_at(R::TABLE, key)
    }

    pub(crate) fn delete_at(&self, table: &str, key: u64) -> Result<bool, DbError> {
        let existed = self.contains_at(table, key);
        if existed {
            self.commit_ops(vec![Op::Del {
                table: table.to_owned(),
                key,
            }])?;
        }
        Ok(existed)
    }

    /// Read-modify-write one row under a single commit. Returns `false` if
    /// the row does not exist.
    pub fn update<R: Record>(&self, key: u64, f: impl FnOnce(&mut R)) -> Result<bool, DbError> {
        self.update_at(R::TABLE, key, f)
    }

    pub(crate) fn update_at<R: Record>(
        &self,
        table: &str,
        key: u64,
        f: impl FnOnce(&mut R),
    ) -> Result<bool, DbError> {
        let Some(mut row) = self.get_at::<R>(table, key) else {
            return Ok(false);
        };
        f(&mut row);
        debug_assert_eq!(row.key(), key, "update must not change the key");
        self.put_at(table, &row)?;
        Ok(true)
    }

    /// Decode every `(key, value)` pair, in order, through the row cache.
    /// The first undecodable row aborts with [`DbError::Codec`] — silent
    /// row loss is exactly what the fallible scans exist to prevent.
    fn materialize<'v, R: Record>(
        &self,
        table: &str,
        rows: impl Iterator<Item = (u64, &'v serde_json::Value)>,
    ) -> Result<Vec<R>, DbError> {
        let mut out = Vec::new();
        let mut hits = 0u64;
        let mut decoded = 0u64;
        let result = (|| {
            let mut cache = self.cache.lock();
            let Some(tc) = table_cache(&mut cache, table) else {
                for (_, value) in rows {
                    out.push(decode(table, value)?);
                    decoded += 1;
                }
                return Ok(());
            };
            for (key, value) in rows {
                if let Some(row) = tc.get(&key).and_then(|b| b.downcast_ref::<R>()) {
                    hits += 1;
                    out.push(row.clone());
                    continue;
                }
                let row: R = decode(table, value)?;
                decoded += 1;
                tc.insert(key, Box::new(row.clone()));
                out.push(row);
            }
            Ok(())
        })();
        self.note_reads(hits, decoded);
        result.map(|()| out)
    }

    /// All rows of a table, in key order.
    pub fn scan<R: Record>(&self) -> Result<Vec<R>, DbError> {
        self.scan_at(R::TABLE)
    }

    pub(crate) fn scan_at<R: Record>(&self, table: &str) -> Result<Vec<R>, DbError> {
        let tables = self.tables.lock();
        let Some(t) = tables.get(table) else {
            return Ok(Vec::new());
        };
        self.materialize(table, t.iter().map(|(&k, v)| (k, v)))
    }

    /// Rows matching a predicate, in key order.
    pub fn scan_filter<R: Record>(
        &self,
        mut pred: impl FnMut(&R) -> bool,
    ) -> Result<Vec<R>, DbError> {
        let mut rows = self.scan::<R>()?;
        rows.retain(|r| pred(r));
        Ok(rows)
    }

    /// Number of rows in a table.
    pub fn count<R: Record>(&self) -> usize {
        self.count_at(R::TABLE)
    }

    pub(crate) fn count_at(&self, table: &str) -> usize {
        self.tables.lock().get(table).map_or(0, |t| t.len())
    }

    /// Largest key present in the table, if any.
    pub fn max_key<R: Record>(&self) -> Option<u64> {
        self.tables
            .lock()
            .get(R::TABLE)
            .and_then(|t| t.keys().next_back().copied())
    }

    /// Statistics for every non-empty table.
    pub fn stats(&self) -> Vec<TableStats> {
        self.tables
            .lock()
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

    /// Register a secondary index over `pointer` (a JSON pointer, e.g.
    /// `"/state"`) into `R`'s table, built from the current contents and
    /// maintained on every subsequent commit.
    pub fn create_index<R: Record>(&self, pointer: &str) {
        let tables = self.tables.lock();
        self.indexes.lock().create(R::TABLE, pointer, &tables);
    }

    /// Rows whose value at `pointer` equals `value`. Uses the secondary
    /// index when one is registered; otherwise falls back to a filtered
    /// table scan (same result, O(table) instead of O(result)).
    // sphinx-hot
    pub fn scan_where<R: Record>(
        &self,
        pointer: &str,
        value: &serde_json::Value,
    ) -> Result<Vec<R>, DbError> {
        let tables = self.tables.lock();
        let indexes = self.indexes.lock();
        if indexes.exists(R::TABLE, pointer) {
            let keys = indexes.lookup(R::TABLE, pointer, value).unwrap_or_default();
            let Some(t) = tables.get(R::TABLE) else {
                return Ok(Vec::new());
            };
            return self.materialize(
                R::TABLE,
                keys.into_iter().filter_map(|k| t.get(&k).map(|v| (k, v))),
            );
        }
        let Some(t) = tables.get(R::TABLE) else {
            return Ok(Vec::new());
        };
        self.materialize(
            R::TABLE,
            t.iter()
                .filter(|(_, v)| v.pointer(pointer).unwrap_or(&serde_json::Value::Null) == value)
                .map(|(&k, v)| (k, v)),
        )
    }

    /// Compact the log to one snapshot entry describing the current state.
    pub fn checkpoint(&self) -> Result<(), DbError> {
        self.checkpoint_locked(&self.tables.lock())
    }

    /// Snapshot and rewrite as one critical section: the caller's `tables`
    /// guard keeps every committer out until the log holds the snapshot,
    /// so no line can land between the two and be erased by the rewrite.
    fn checkpoint_locked(&self, tables: &Tables) -> Result<(), DbError> {
        let entry = LogEntry::snapshot_of(tables);
        let line = encode_entry(&entry)?;
        self.wal.lock().rewrite(&[line])?;
        self.log_lines.store(1, Ordering::Relaxed);
        if let Some(t) = self.telemetry.lock().as_ref() {
            t.counter_add("wal.rewrites", 1);
            t.span_instant("wal:checkpoint", "log compacted to snapshot".to_owned());
        }
        Ok(())
    }

    // ---- raw (string-table) access, used by `Queue` ----

    /// Commit several raw puts atomically (one WAL line).
    pub(crate) fn raw_put_many(
        &self,
        puts: Vec<(String, u64, serde_json::Value)>,
    ) -> Result<(), DbError> {
        let ops = puts
            .into_iter()
            .map(|(table, key, row)| Op::Put { table, key, row })
            .collect();
        self.commit_ops(ops)
    }

    pub(crate) fn raw_get(&self, table: &str, key: u64) -> Option<serde_json::Value> {
        self.tables.lock().get(table)?.get(&key).cloned()
    }

    pub(crate) fn raw_min_entry(&self, table: &str) -> Option<(u64, serde_json::Value)> {
        let tables = self.tables.lock();
        let t = tables.get(table)?;
        let (&k, v) = t.iter().next()?;
        Some((k, v.clone()))
    }

    pub(crate) fn raw_all(&self, table: &str) -> Vec<(u64, serde_json::Value)> {
        let tables = self.tables.lock();
        tables
            .get(table)
            .map(|t| t.iter().map(|(&k, v)| (k, v.clone())).collect())
            .unwrap_or_default()
    }

    pub(crate) fn raw_delete_many(&self, table: &str, keys: &[u64]) -> Result<(), DbError> {
        let ops: Vec<Op> = keys
            .iter()
            .map(|&key| Op::Del {
                table: table.to_owned(),
                key,
            })
            .collect();
        self.commit_ops(ops)
    }

    pub(crate) fn raw_len(&self, table: &str) -> usize {
        self.tables.lock().get(table).map_or(0, |t| t.len())
    }

    pub(crate) fn raw_max_key(&self, table: &str) -> Option<u64> {
        self.tables
            .lock()
            .get(table)
            .and_then(|t| t.keys().next_back().copied())
    }

    /// A handle addressing every table through the prefix `"{ns}/"`.
    ///
    /// Two namespaces on one shared database are fully isolated: rows,
    /// decoded-row cache entries, and [`crate::Queue`] sequence counters
    /// all live under the composed table name, so shard A can never read
    /// shard B's rows (or, worse, B's stale cached decodes) through the
    /// un-prefixed `R::TABLE` name.
    pub fn namespace(&self, ns: impl Into<String>) -> Ns<'_> {
        Ns {
            db: self,
            prefix: Cow::Owned(ns.into()),
        }
    }

    /// [`Database::namespace`] without taking ownership of the prefix —
    /// for hot paths that address a precomputed namespace every cycle.
    pub fn namespace_ref<'a>(&'a self, ns: &'a str) -> Ns<'a> {
        Ns {
            db: self,
            prefix: Cow::Borrowed(ns),
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
}

impl<'a> Ns<'a> {
    /// The namespace prefix this handle addresses.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// The full table name used for record type `R`.
    pub fn table_of<R: Record>(&self) -> String {
        ns_table::<R>(&self.prefix)
    }

    /// Namespaced [`Database::insert`].
    pub fn insert<R: Record>(&self, row: &R) -> Result<(), DbError> {
        self.db.insert_at(&self.table_of::<R>(), row)
    }

    /// Namespaced [`Database::put`].
    pub fn put<R: Record>(&self, row: &R) -> Result<(), DbError> {
        self.db.put_at(&self.table_of::<R>(), row)
    }

    /// Namespaced [`Database::get`].
    pub fn get<R: Record>(&self, key: u64) -> Option<R> {
        self.db.get_at(&self.table_of::<R>(), key)
    }

    /// Namespaced [`Database::contains`].
    pub fn contains<R: Record>(&self, key: u64) -> bool {
        self.db.contains_at(&self.table_of::<R>(), key)
    }

    /// Namespaced [`Database::delete`].
    pub fn delete<R: Record>(&self, key: u64) -> Result<bool, DbError> {
        self.db.delete_at(&self.table_of::<R>(), key)
    }

    /// Namespaced [`Database::update`].
    pub fn update<R: Record>(&self, key: u64, f: impl FnOnce(&mut R)) -> Result<bool, DbError> {
        self.db.update_at(&self.table_of::<R>(), key, f)
    }

    /// Namespaced [`Database::scan`].
    pub fn scan<R: Record>(&self) -> Result<Vec<R>, DbError> {
        self.db.scan_at(&self.table_of::<R>())
    }

    /// Namespaced [`Database::count`].
    pub fn count<R: Record>(&self) -> usize {
        self.db.count_at(&self.table_of::<R>())
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

    #[test]
    fn cache_serves_repeat_reads_without_decoding() {
        let db = Database::in_memory();
        db.insert(&item(1, "hot", 1)).unwrap();
        // The put primed the cache: every read below is a hit.
        for _ in 0..3 {
            assert_eq!(db.get::<Item>(1).unwrap().label, "hot");
        }
        let stats = db.read_stats();
        assert_eq!(stats.cache_hits, 3);
        assert_eq!(stats.rows_decoded, 0, "put-primed row never re-decoded");
        // A mutation invalidates, and the new value is primed in turn.
        db.update::<Item>(1, |r| r.label = "hotter".into()).unwrap();
        assert_eq!(db.get::<Item>(1).unwrap().label, "hotter");
        assert_eq!(db.read_stats().rows_decoded, 0);
    }

    #[test]
    fn cache_miss_decodes_once_then_hits() {
        let wal = MemWal::shared();
        {
            let db = Database::with_wal(Box::new(wal.clone()));
            db.insert(&item(7, "persisted", 1)).unwrap();
        }
        // A recovered database has a cold cache: first read decodes,
        // second is served from the cache.
        let db = Database::recover(Box::new(wal)).unwrap();
        assert!(db.get::<Item>(7).is_some());
        assert!(db.get::<Item>(7).is_some());
        let stats = db.read_stats();
        assert_eq!(stats.rows_decoded, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.rows_read, 2);
    }

    #[test]
    fn scan_surfaces_undecodable_rows_as_codec_errors() {
        let db = Database::in_memory();
        db.insert(&item(1, "fine", 1)).unwrap();
        // A row whose shape does not match `Item` (e.g. written by a
        // buggy or newer version) must not silently vanish from scans.
        db.raw_put_many(vec![(
            "items".to_owned(),
            2,
            serde_json::from_str(r#"{"wrong":"shape"}"#).unwrap(),
        )])
        .unwrap();
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
    }

    #[test]
    fn indexed_scan_where_surfaces_undecodable_rows() {
        let db = Database::in_memory();
        db.create_index::<Item>("/label");
        db.insert(&item(1, "x", 1)).unwrap();
        db.raw_put_many(vec![(
            "items".to_owned(),
            2,
            serde_json::from_str(r#"{"label":"x"}"#).unwrap(),
        )])
        .unwrap();
        let err = db
            .scan_where::<Item>("/label", &serde_json::json!("x"))
            .unwrap_err();
        assert!(matches!(err, DbError::Codec { .. }), "{err}");
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
    fn telemetry_counts_cache_hits_and_misses() {
        let wal = MemWal::shared();
        {
            let db = Database::with_wal(Box::new(wal.clone()));
            db.insert(&item(1, "a", 1)).unwrap();
        }
        let db = Database::recover(Box::new(wal)).unwrap();
        let tel = Telemetry::shared();
        db.attach_telemetry(Arc::clone(&tel));
        db.get::<Item>(1).unwrap(); // cold: decode + fill
        db.get::<Item>(1).unwrap(); // hot: cache hit
        assert_eq!(tel.counter("db.cache.misses"), 1);
        assert_eq!(tel.counter("db.cache.hits"), 1);
        assert_eq!(tel.counter("db.rows.read"), 2);
        assert_eq!(tel.counter("db.rows.decoded"), 1);
    }

    #[test]
    fn namespaces_do_not_share_rows_or_cached_decodes() {
        // Regression test for the sharding latent bug: the decoded-row
        // cache used to be keyed by `R::TABLE` alone, so two namespaces
        // sharing one database could serve each other's stale decodes.
        let db = Database::in_memory();
        let a = db.namespace("shard0");
        let b = db.namespace("shard1");
        a.put(&item(1, "from-a", 10)).unwrap();
        b.put(&item(1, "from-b", 20)).unwrap();
        // Same record type, same key — reads must stay per-namespace even
        // though both rows are primed in the cache.
        assert_eq!(a.get::<Item>(1).unwrap().label, "from-a");
        assert_eq!(b.get::<Item>(1).unwrap().label, "from-b");
        assert_eq!(db.read_stats().rows_decoded, 0, "served from cache");
        // Mutating one namespace invalidates only that namespace.
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
