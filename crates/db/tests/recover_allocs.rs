//! Allocations per replayed line and per hydrated row: counts that do not
//! depend on the machine.
//!
//! Recovery reads each log line without building a tree and keeps each put
//! row as its text, so a warm one-put `txn` line allocates for that text
//! and for the table's map growing, and for nothing per member name, per
//! table name or per JSON node. The first typed read decodes that text
//! straight into the row, so it allocates for the rows' owned members (a
//! `String`, say) and for the typed map, and for nothing else.

use serde::{Deserialize, Serialize};
use sphinx_db::{CheckpointPolicy, Database, MemWal, Record, Wal};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

/// Counts the allocations (and reallocations) of the thread making them,
/// so tests running side by side do not see each other's.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local `Cell`, which neither
// allocates nor runs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this allocator, and
        // the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations(op: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    op();
    ALLOCATIONS.with(Cell::get) - before
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct JobId {
    dag: u64,
    index: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum State {
    Ready,
    Running,
}

/// Shaped like the server's job row: nine fields, a nested id, `Option`s
/// and floats, and nothing the row owns on the heap.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Job {
    id: JobId,
    state: State,
    site: Option<u32>,
    handle: Option<u64>,
    reservation: Option<u64>,
    attempts: u32,
    submitted_at: Option<u64>,
    exec_secs: Option<f64>,
    idle_secs: Option<f64>,
}

impl Record for Job {
    const TABLE: &'static str = "jobs";
    fn key(&self) -> u64 {
        self.id.dag << 24 | u64::from(self.id.index)
    }
}

fn job(index: u32) -> Job {
    Job {
        id: JobId { dag: 17, index },
        state: [State::Ready, State::Running][index as usize % 2],
        site: Some(42),
        handle: Some(90_210),
        reservation: None,
        attempts: index,
        submitted_at: Some(1_234_567),
        exec_secs: Some(61.25),
        idle_secs: None,
    }
}

/// A row owning one `String`, shaped like a DAG's job spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Named {
    id: u64,
    name: String,
    compute: u64,
}

impl Record for Named {
    const TABLE: &'static str = "named";
    fn key(&self) -> u64 {
        self.id
    }
}

/// The log of one put per row, each its own `txn` line.
fn log_of<R: Record>(rows: impl IntoIterator<Item = R>) -> Vec<String> {
    let wal = MemWal::shared();
    let db = Database::with_wal_and_config(Box::new(wal.clone()), CheckpointPolicy::disabled());
    for row in rows {
        db.put(&row).unwrap();
    }
    wal.read_all().unwrap()
}

fn wal_of(lines: &[String]) -> MemWal {
    let mut wal = MemWal::shared();
    for line in lines {
        wal.append(line).unwrap();
    }
    wal
}

/// What recovering `lines` allocates, less the log's copy of them that
/// `Wal::read_all` hands over.
fn recovery(lines: &[String]) -> usize {
    let wal = wal_of(lines);
    let copy = allocations(|| drop(wal.read_all().unwrap()));
    allocations(|| drop(Database::recover(Box::new(wal)).unwrap())) - copy
}

/// The most that replaying one more line allocated, over the lines after
/// the first eight.
fn most_per_line(lines: &[String]) -> usize {
    (8..lines.len())
        .map(|n| recovery(&lines[..=n]) - recovery(&lines[..n]))
        .max()
        .unwrap()
}

#[test]
fn replaying_a_put_of_a_fresh_key_allocates_its_text_and_map_growth() {
    let lines = log_of((0..64).map(job));
    let most = most_per_line(&lines);
    // The row's text, and at most a new leaf and a new root for its key.
    assert!(most <= 3, "a one-put line allocated {most} times");
}

#[test]
fn replaying_a_put_over_a_live_row_allocates_only_its_text() {
    let lines = log_of((0..64).map(|i| Job {
        attempts: i,
        ..job(0)
    }));
    let most = most_per_line(&lines);
    assert!(most <= 1, "a one-put line allocated {most} times");
}

/// What inserting `rows` into a map one by one allocates: the typed
/// table's own growth.
fn map_growth<R: Record>(rows: &[R]) -> usize {
    let keys: Vec<u64> = rows.iter().map(R::key).collect();
    allocations(|| {
        let mut map = BTreeMap::new();
        for key in keys {
            map.insert(key, ());
        }
        drop(map);
    })
}

/// What the first typed read of a recovered table allocates beyond the
/// typed map: the table's box and the one row `get` hands back.
fn hydration<R: Record + PartialEq + std::fmt::Debug>(rows: &[R]) -> usize {
    let lines = log_of(rows.iter().cloned());
    let db = Database::recover(Box::new(wal_of(&lines))).unwrap();
    let first = rows.first().unwrap();
    let mut got = None;
    let n = allocations(|| got = db.get::<R>(first.key()));
    assert_eq!(got.as_ref(), Some(first));
    assert_eq!(db.scan::<R>().unwrap(), rows);
    n - map_growth(rows)
}

#[test]
fn hydrating_job_rows_allocates_nothing_per_row() {
    let rows: Vec<Job> = (0..256).map(job).collect();
    let beyond = hydration(&rows);
    assert!(
        beyond <= 4,
        "hydrating 256 job rows allocated {beyond} times beyond the map"
    );
}

#[test]
fn hydrating_rows_allocates_only_for_their_owned_members() {
    let rows: Vec<Named> = (0..256)
        .map(|id| Named {
            id,
            name: format!("job-{id}"),
            compute: id * 60,
        })
        .collect();
    let beyond = hydration(&rows);
    assert!(
        beyond <= rows.len() + 4,
        "hydrating 256 rows of one string allocated {beyond} times beyond the map"
    );
}
