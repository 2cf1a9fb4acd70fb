//! What a replica costs: the bytes the replica catalog and the site stores
//! hold per registered replica, and the allocations a repeated
//! registration makes. Counts, so they do not depend on the machine.
//!
//! Each logical name is kept once, in the catalog's name table; replicas
//! and stored files are keyed by its [`FileId`]. The name-keyed catalog
//! this replaced held about 111 bytes per replica beyond the name.

use sphinx_data::{FileId, LogicalFile, ReplicaService, SiteId, SiteStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations (and reallocations) of the thread making them,
/// and the bytes it holds, so tests running side by side do not see each
/// other's.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread allocated less those it freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn hold(bytes: isize) {
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are const-initialised thread-local `Cell`s, which neither
// allocate nor run a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
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
        count();
        hold(new_size as isize - layout.size() as isize);
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

fn live() -> isize {
    LIVE.with(Cell::get)
}

const SITES: u32 = 120;
const DAGS: u32 = 400;
const FILES_PER_DAG: u32 = 50;
const REPLICAS: u32 = 3;

/// The workload generator's names: each DAG's job outputs, and the
/// external inputs its first jobs read.
fn names() -> Vec<LogicalFile> {
    let mut names = Vec::new();
    for dag in 0..DAGS {
        for j in 0..FILES_PER_DAG {
            names.push(match j % 5 {
                4 => LogicalFile::new(format!("dag{dag}.ext{j}-{}", j % 3)),
                _ => LogicalFile::new(format!("dag{dag}.out{j}")),
            });
        }
    }
    names
}

/// The `r`-th of `file`'s three replica sites: distinct, spread over the
/// grid.
fn site(file: usize, r: u32) -> SiteId {
    SiteId((file as u32 * 7 + r * 41) % SITES)
}

/// Register every replica the way the grid does (intern the name, put the
/// file in the site's store, register the id).
fn populate(names: &[LogicalFile], rls: &mut ReplicaService, stores: &mut [SiteStore]) {
    for r in 0..REPLICAS {
        for (i, file) in names.iter().enumerate() {
            let id = rls.intern(file);
            let at = site(i, r);
            stores[at.0 as usize]
                .put(id, 10 + (i as u64 % 90))
                .expect("the stores are large enough");
            rls.register_id(id, at);
        }
    }
}

#[test]
fn a_replica_costs_at_most_48_bytes_beyond_its_name() {
    let names = names();
    let name_bytes: usize = names.iter().map(|n| n.name().len()).sum();
    let mut rls = ReplicaService::new();
    let mut stores: Vec<SiteStore> = (0..SITES).map(|_| SiteStore::new(u64::MAX / 2)).collect();
    let before = live();
    populate(&names, &mut rls, &mut stores);
    let held = (live() - before) as usize;
    let replicas = (names.len() as u32 * REPLICAS) as usize;
    assert_eq!(rls.stats().replicas, replicas as u64);
    assert_eq!(stores.iter().map(SiteStore::len).sum::<usize>(), replicas);
    // The catalog keeps one copy of each name: exactly its bytes, since a
    // cloned `String` allocates its length.
    let per_replica = (held - name_bytes) as f64 / replicas as f64;
    eprintln!(
        "{} names, {replicas} replicas: {held} bytes held, {per_replica:.1} per replica \
         beyond {name_bytes} bytes of names",
        names.len()
    );
    assert!(
        per_replica <= 48.0,
        "{per_replica:.1} bytes per replica beyond the names"
    );
}

#[test]
fn re_registering_a_replica_allocates_nothing() {
    let names = names();
    let mut rls = ReplicaService::new();
    let mut stores: Vec<SiteStore> = (0..SITES).map(|_| SiteStore::new(u64::MAX / 2)).collect();
    populate(&names, &mut rls, &mut stores);
    let replicas = rls.stats();
    // The name-level call takes an owned name; make those copies first.
    let again: Vec<(LogicalFile, SiteId)> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.clone(), site(i, 1)))
        .collect();
    let ids: Vec<FileId> = names.iter().map(|n| rls.intern(n)).collect();
    let n = allocations(|| {
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(rls.intern(&names[i]), id);
            rls.register_id(id, site(i, 0));
            stores[site(i, 2).0 as usize]
                .put(id, 10 + (i as u64 % 90))
                .expect("an overwrite of the same size fits");
        }
        for (file, at) in again {
            rls.register(file, at);
        }
    });
    assert_eq!(n, 0, "re-registration allocated");
    assert_eq!(rls.stats().replicas, replicas.replicas);
}
