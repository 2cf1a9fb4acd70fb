//! Allocations per commit: a count that does not depend on the machine.
//!
//! Once warm, a commit that puts one row allocates for the log and nothing
//! else: the row prints itself into a line buffer kept from the last
//! commit, and `MemWal` copies the finished line into its list. So each
//! commit below may allocate at most twice.

use serde::{Deserialize, Serialize};
use sphinx_db::{CheckpointPolicy, Database, MemWal, Queue, Record};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// The most that one `commit` allocated, over its runs after a warm-up
/// that found room in the log. `MemWal` keeps its lines in a `Vec`, which
/// grows when its length reaches a power of two: a cost amortised over
/// the lines, not one of the commit. `between` runs uncounted after each.
fn most_per_commit(wal: &MemWal, mut commit: impl FnMut(), mut between: impl FnMut()) -> usize {
    let mut most = 0;
    for run in 0..40 {
        let room = !wal.len().is_power_of_two();
        let n = allocations(&mut commit);
        between();
        if run >= 8 && room {
            most = most.max(n);
        }
    }
    most
}

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct JobId {
    dag: u64,
    index: u32,
}

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
enum State {
    Ready,
    Running,
}

/// Shaped like the server's job row: nine fields, a nested id, `Option`s
/// and floats.
#[derive(Debug, Clone, Serialize, Deserialize)]
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

fn job() -> Job {
    Job {
        id: JobId { dag: 17, index: 3 },
        state: State::Ready,
        site: Some(42),
        handle: Some(90_210),
        reservation: None,
        attempts: 1,
        submitted_at: Some(1_234_567),
        exec_secs: Some(61.25),
        idle_secs: None,
    }
}

/// Shaped like the server's per-site statistics row.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct SiteStats {
    site: u32,
    completed: u64,
    cancelled: u64,
    completion_secs_sum: f64,
    completion_samples: u64,
}

impl Record for SiteStats {
    const TABLE: &'static str = "site_stats";
    fn key(&self) -> u64 {
        u64::from(self.site)
    }
}

/// Shaped like a tracker report on the server's inbox.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Report {
    Completed {
        job: JobId,
        site: u32,
        total: u64,
        exec: u64,
        idle: u64,
    },
}

fn database() -> (Database, MemWal) {
    let wal = MemWal::shared();
    let db = Database::with_wal_and_config(Box::new(wal.clone()), CheckpointPolicy::disabled());
    (db, wal)
}

#[test]
fn putting_a_job_row_allocates_only_for_the_log() {
    let (db, wal) = database();
    let mut row = job();
    let most = most_per_commit(
        &wal,
        || {
            row.attempts += 1;
            row.state = [State::Ready, State::Running][row.attempts as usize % 2];
            db.put(&row).unwrap();
        },
        || {},
    );
    assert!(most <= 2, "a put allocated {most} times");
}

#[test]
fn updating_a_job_row_allocates_only_for_the_log() {
    let (db, wal) = database();
    db.insert(&job()).unwrap();
    let key = job().key();
    let most = most_per_commit(
        &wal,
        || {
            let bump = |row: &mut Job| {
                row.attempts += 1;
                row.idle_secs = Some(f64::from(row.attempts) / 8.0);
            };
            assert!(db.update::<Job>(key, bump).unwrap());
        },
        || {},
    );
    assert!(most <= 2, "an update allocated {most} times");
}

#[test]
fn updating_site_stats_allocates_only_for_the_log() {
    let (db, wal) = database();
    db.insert(&SiteStats {
        site: 9,
        ..SiteStats::default()
    })
    .unwrap();
    let most = most_per_commit(
        &wal,
        || {
            let credit = |row: &mut SiteStats| {
                row.completed += 1;
                row.completion_secs_sum += 180.5;
                row.completion_samples += 1;
            };
            assert!(db.update::<SiteStats>(9, credit).unwrap());
        },
        || {},
    );
    assert!(most <= 2, "an update allocated {most} times");
}

/// The server drains its inbox every tick, so a push usually lands in a
/// table just emptied (and allocates its first node, the second of the
/// two).
#[test]
fn a_queue_push_allocates_only_for_the_log_and_its_table() {
    let (db, wal) = database();
    let inbox: Queue<Report> = Queue::new(&db, "messages_in");
    let report = Report::Completed {
        job: job().id,
        site: 42,
        total: 300_000,
        exec: 120_000,
        idle: 170_000,
    };
    let most = most_per_commit(
        &wal,
        || {
            inbox.push(&report).unwrap();
        },
        || {
            inbox.drain().unwrap();
        },
    );
    assert!(most <= 2, "a push allocated {most} times");
}
