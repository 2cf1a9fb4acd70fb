//! Allocations per recorded fact: a count that does not depend on the
//! machine.
//!
//! `Telemetry::record` appends one fixed-size record to a log that grows a
//! chunk at a time, and does nothing else: no span, no trace line, no
//! metric is built when a fact arrives. So `n` recorded facts may allocate
//! once per chunk they open, plus the few times the list of chunks grows.

use sphinx_data::SiteId;
use sphinx_sim::{Duration, SimTime};
use sphinx_telemetry::analysis::job_key;
use sphinx_telemetry::{Event, GridStep, JobStep, Telemetry};
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

/// Records per chunk of the hub's log.
const CHUNK: usize = 2048;

/// The `i`-th fact of a job's life on a grid: job and grid steps in turn,
/// over 50 jobs of 4 DAGs.
fn fact(i: usize) -> Event {
    let job = job_key((i % 4) as u64, (i % 50) as u64);
    let site = SiteId((i % 7) as u32);
    let total = Duration::from_secs(i as u64);
    match i % 8 {
        0 => Event::Job {
            job,
            step: JobStep::Ready { cause: None },
        },
        1 => Event::Job {
            job,
            step: JobStep::Submitted { site },
        },
        2 => Event::Grid {
            site,
            job,
            step: GridStep::Submit,
        },
        3 => Event::Grid {
            site,
            job,
            step: GridStep::Queued,
        },
        4 => Event::Job {
            job,
            step: JobStep::Queued { site },
        },
        5 => Event::Grid {
            site,
            job,
            step: GridStep::Start,
        },
        6 => Event::Job {
            job,
            step: JobStep::Running { site },
        },
        _ => Event::Job {
            job,
            step: JobStep::Completed { site, total },
        },
    }
}

#[test]
fn recording_a_fact_allocates_only_for_the_log_chunks() {
    let tel = Telemetry::new();
    let at = |i: usize| SimTime::from_millis(i as u64);
    // Warm: the first chunk is open and the hub has been read once.
    for i in 0..100 {
        tel.record(at(i), fact(i));
    }
    assert!(tel.snapshot().spans_total > 0);
    let n = 20 * CHUNK;
    let made = allocations(|| {
        for i in 100..100 + n {
            tel.record(at(i), fact(i));
        }
    });
    // One chunk per `CHUNK` records, and the list of chunks growing by
    // doubling: at most 5 times up to 32 chunks.
    let bound = n.div_ceil(CHUNK) + 5;
    assert!(
        made <= bound,
        "{made} allocations for {n} facts (bound {bound})"
    );
    // Everything recorded is still there to read.
    let snap = tel.snapshot();
    let submits = (0..100 + n).filter(|i| i % 8 == 2).count();
    assert_eq!(snap.counter("grid.submits"), submits as u64);
}
