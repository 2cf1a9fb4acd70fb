//! What analysing a run costs: the most bytes `Telemetry::analyze` holds
//! at once, per job of the recorded run. A count that does not depend on
//! the machine.
//!
//! The analysis folds the job and DAG events into a few words per job and
//! keeps the state steps of only the jobs it reports on. The span-machine
//! replay it replaced held 688.6 bytes per job at its peak on this log;
//! the bound is a quarter of that.

use sphinx_data::SiteId;
use sphinx_sim::{Duration, SimTime};
use sphinx_telemetry::analysis::job_key;
use sphinx_telemetry::{Event, GridStep, JobStep, Telemetry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes the thread making the allocations holds, and the most
/// it has held, so tests running side by side do not see each other's.
struct Counting;

thread_local! {
    /// Bytes this thread allocated less those it freed, and the most that
    /// has been since the last [`peak_bytes`] started.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn hold(bytes: isize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are const-initialised thread-local `Cell`s, which neither
// allocate nor run a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        hold(layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        hold(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from `System` through this allocator, and
        // the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most bytes this thread held at once during `op`, beyond what it
/// held when `op` began.
fn peak_bytes(op: impl FnOnce()) -> usize {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    op();
    (PEAK.with(Cell::get) - before) as usize
}

const DAGS: u64 = 200;
const JOBS: u64 = 50;

/// Job `job` takes `step` at `at` sim ms.
fn job(tel: &Telemetry, at: u64, job: u64, step: JobStep) {
    tel.record(SimTime::from_millis(at), Event::Job { job, step });
}

/// Site `site` moves job `job`'s batch slot at `at` sim ms.
fn grid(tel: &Telemetry, at: u64, site: SiteId, job: u64, step: GridStep) {
    tel.record(SimTime::from_millis(at), Event::Grid { site, job, step });
}

/// One job's life from `at` (sim ms): readied by `cause` (unless it is
/// back in `Ready` already), placed at `site`, queued, run and completed,
/// with the grid's slot steps between. When it completed.
fn run_job(tel: &Telemetry, at: u64, key: u64, cause: Option<Option<u64>>, site: SiteId) -> u64 {
    if let Some(cause) = cause {
        job(tel, at, key, JobStep::Ready { cause });
    }
    job(tel, at + 100, key, JobStep::Submitted { site });
    grid(tel, at + 100, site, key, GridStep::Submit);
    grid(tel, at + 200, site, key, GridStep::Queued);
    job(tel, at + 200, key, JobStep::Queued { site });
    grid(tel, at + 300, site, key, GridStep::Start);
    job(tel, at + 300, key, JobStep::Running { site });
    let run = 600 + key % 97 * 7;
    grid(tel, at + 300 + run, site, key, GridStep::Complete);
    let total = Duration::from_millis(200 + run);
    job(tel, at + 300 + run, key, JobStep::Completed { site, total });
    at + 300 + run
}

/// 200 DAGs of 50 jobs, each DAG a tree of fan-out 3 that runs level by
/// level, about ten records per job; one job is held and replanned, one is
/// reset by a recovery and placed again.
fn record_run(tel: &Telemetry) {
    for dag in 0..DAGS {
        let t0 = dag * 120_000;
        let jobs = JOBS as usize;
        tel.record(SimTime::from_millis(t0), Event::DagSubmitted { dag, jobs });
        let mut done = vec![t0; jobs];
        for index in 0..JOBS {
            let key = job_key(dag, index);
            let parent = index.checked_sub(1).map(|i| i / 3);
            let ready = parent.map_or(t0, |p| done[p as usize]);
            let cause = parent.map(|p| job_key(dag, p));
            let site = SiteId(((dag * 7 + index) % 120) as u32);
            let at = match (dag, index) {
                (7, 3) => {
                    // Held at its first site, then replanned elsewhere.
                    job(tel, ready, key, JobStep::Ready { cause });
                    job(tel, ready + 50, key, JobStep::Submitted { site });
                    job(tel, ready + 70, key, JobStep::Queued { site });
                    job(tel, ready + 400, key, JobStep::Held { site });
                    ready + 400
                }
                (11, 5) => {
                    // A recovered server resets the row; it is placed again.
                    job(tel, ready, key, JobStep::Ready { cause });
                    job(tel, ready + 50, key, JobStep::Submitted { site });
                    job(tel, ready + 60, key, JobStep::Reset);
                    ready + 60
                }
                _ => ready,
            };
            let cause = (at == ready).then_some(cause);
            done[index as usize] = run_job(tel, at, key, cause, site);
        }
        let end = done.iter().copied().max().unwrap_or(t0);
        tel.record(SimTime::from_millis(end), Event::DagFinished { dag });
    }
}

#[test]
fn analysing_a_run_holds_at_most_172_bytes_per_job() {
    let tel = Telemetry::new();
    record_run(&tel);
    // The report takes its snapshot first, which catches the metric fold
    // up with the log; what `analyze` holds beyond that is its own.
    let snapshot = tel.snapshot();
    assert_eq!(snapshot.counter("plan.reschedules_held"), 1);
    let mut analysis = None;
    let peak = peak_bytes(|| analysis = Some(tel.analyze(10)));
    let analysis = analysis.unwrap_or_default();
    assert_eq!(analysis.critical_paths.len(), DAGS as usize);
    assert_eq!(analysis.slowest_jobs.len(), 10);
    assert_eq!(analysis.spans_total, snapshot.spans_total);
    assert!(analysis
        .critical_paths
        .iter()
        .all(|p| p.path_ms == p.makespan_ms));
    let jobs = (DAGS * JOBS) as usize;
    let per_job = peak as f64 / jobs as f64;
    eprintln!("analyze(10) over {jobs} jobs: peak {peak} bytes, {per_job:.1} per job");
    assert!(per_job <= 172.0, "{per_job:.1} bytes per job");
}
