//! Replica Location Service.
//!
//! Modelled on Globus RLS/Giggle: a Replica Location Index (RLI) maps
//! every logical file to the set of sites holding a replica. SPHINX
//! performs **batched** lookups — "SPHINX makes efficient use of the RLS by
//! clubbing all its requests in a single call to the RLS server" (§3.4) —
//! so the service counts round-trips separately from individual lookups,
//! letting the benchmarks quantify the batching win.
//!
//! The service also owns the run's one name table: each logical name is
//! stored once and interned as a dense [`FileId`], and the index is a
//! vector of site sets indexed by id. Sites' storage elements
//! ([`crate::SiteStore`]) key their files by the same ids.

use crate::file::{FileId, LogicalFile, SiteId};
use serde::{Deserialize, Serialize};
use sphinx_sim::Chunks;

/// Round-trip and lookup counters (instrumentation for the RLS bench).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RlsStats {
    /// Individual file resolutions performed.
    pub lookups: u64,
    /// Service round-trips (a batched call is one round-trip).
    pub round_trips: u64,
    /// Replicas currently registered.
    pub replicas: u64,
}

/// The name table: every interned name once, indexed by its id, and an
/// open-addressing index over them, probed linearly from the FNV-1a hash
/// of the name. Nothing iterates the index.
#[derive(Debug, Clone, Default)]
struct Names {
    /// `names[id]` is file `id`'s name.
    names: Chunks<Box<str>>,
    /// `id + 1` of the name hashed near each slot, or 0 for an empty slot.
    /// A power of two long and at most three quarters full, so a probe
    /// always meets an empty slot.
    slots: Vec<u32>,
}

impl Names {
    /// The id of `name`, or the empty slot where it would go.
    fn find(&self, name: &str) -> Result<FileId, usize> {
        let hash = name.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        let mask = self.slots.len().wrapping_sub(1);
        let mut at = (hash ^ hash >> 32) as usize & mask;
        while let Some(&slot) = self.slots.get(at).filter(|&&slot| slot > 0) {
            let id = FileId(slot - 1);
            if self.names.get(id.0 as usize).is_some_and(|n| **n == *name) {
                return Ok(id);
            }
            at = (at + 1) & mask;
        }
        Err(at)
    }

    fn get(&self, name: &str) -> Option<FileId> {
        self.find(name).ok()
    }

    /// Give `name` the next id; the caller has checked it is new.
    fn insert(&mut self, name: Box<str>) -> FileId {
        let id = self.names.push(name) as u32;
        if 4 * self.names.len() > 3 * self.slots.len() {
            // Amortised: the index doubles, so a name is re-placed O(1)
            // times on average.
            // sphinx-lint: allow(hot-alloc)
            self.slots = vec![0; (2 * self.slots.len()).max(16)];
            (0..id).for_each(|old| self.place(old));
        }
        self.place(id);
        FileId(id)
    }

    /// Index name `id` at the first empty slot of its probe.
    fn place(&mut self, id: u32) {
        let at = self.names.get(id as usize).and_then(|n| self.find(n).err());
        if let Some(slot) = at.and_then(|at| self.slots.get_mut(at)) {
            *slot = id + 1;
        }
    }
}

/// The replica location service: a name table plus the RLI.
#[derive(Debug, Clone, Default)]
pub struct ReplicaService {
    /// Name → id, holding the one owned copy of every interned name.
    ids: Names,
    /// RLI: `sites[id]` holds the sites storing file `id`, ascending.
    sites: Vec<Vec<SiteId>>,
    stats: RlsStats,
}

impl ReplicaService {
    /// An empty service.
    pub fn new() -> Self {
        ReplicaService::default()
    }

    /// The id of `file`, interning it (one copy of the name) if it is new.
    pub fn intern(&mut self, file: &LogicalFile) -> FileId {
        match self.ids.get(file.name()) {
            Some(id) => id,
            None => self.insert_name(file.name().into()),
        }
    }

    /// Give `name` the next id; the caller has checked it is new.
    fn insert_name(&mut self, name: Box<str>) -> FileId {
        self.sites.push(Vec::new());
        self.ids.insert(name)
    }

    /// Register a replica of `file` at `site`. Idempotent.
    pub fn register(&mut self, file: LogicalFile, site: SiteId) {
        let id = match self.ids.get(file.name()) {
            Some(id) => id,
            None => self.insert_name(file.0.into_boxed_str()),
        };
        self.register_id(id, site);
    }

    /// Register a replica of the interned file `id` at `site`. Idempotent;
    /// re-registering an existing replica allocates nothing.
    pub fn register_id(&mut self, id: FileId, site: SiteId) {
        let Some(sites) = self.sites.get_mut(id.0 as usize) else {
            return; // not an id of this service
        };
        if let Err(at) = sites.binary_search(&site) {
            sites.insert(at, site);
            self.stats.replicas += 1;
        }
    }

    /// The sites holding `file`, ascending; empty when it has no replica.
    fn sites_of(&self, file: &LogicalFile) -> &[SiteId] {
        sites_in(&self.ids, &self.sites, file)
    }

    /// Locate every replica of one file (one round-trip).
    pub fn locate(&mut self, file: &LogicalFile) -> Vec<SiteId> {
        self.stats.lookups += 1;
        self.stats.round_trips += 1;
        self.sites_of(file).to_vec()
    }

    /// Resolve many files in **one** round-trip (the "clubbed" call): the
    /// sites of each, in the order asked.
    pub fn locate_batch<'f>(
        &mut self,
        files: impl IntoIterator<Item = &'f LogicalFile>,
    ) -> Vec<&[SiteId]> {
        let located: Vec<&[SiteId]> = files
            .into_iter()
            .map(|f| sites_in(&self.ids, &self.sites, f))
            .collect();
        self.stats.lookups += located.len() as u64;
        self.stats.round_trips += 1;
        located
    }

    /// Batched existence check (one round-trip); used by the DAG reducer.
    pub fn exists_batch<'f>(
        &mut self,
        files: impl IntoIterator<Item = &'f LogicalFile>,
    ) -> Vec<bool> {
        let found: Vec<bool> = files
            .into_iter()
            .map(|f| !self.sites_of(f).is_empty())
            .collect();
        self.stats.lookups += found.len() as u64;
        self.stats.round_trips += 1;
        found
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> RlsStats {
        self.stats
    }
}

/// The sites holding `file` in the index `sites`, by way of `ids`.
fn sites_in<'s>(ids: &Names, sites: &'s [Vec<SiteId>], file: &LogicalFile) -> &'s [SiteId] {
    ids.get(file.name())
        .and_then(|id| sites.get(id.0 as usize))
        .map_or(&[], Vec::as_slice)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(name: &str) -> LogicalFile {
        LogicalFile::from(name)
    }

    #[test]
    fn register_locate_round_trip() {
        let mut rls = ReplicaService::new();
        rls.register(f("a"), SiteId(2));
        rls.register(f("a"), SiteId(1));
        rls.register(f("b"), SiteId(1));
        assert_eq!(rls.locate(&f("a")), vec![SiteId(1), SiteId(2)]);
        assert_eq!(rls.locate(&f("missing")), Vec::<SiteId>::new());
        assert_eq!(rls.exists_batch([&f("b")]), vec![true]);
    }

    #[test]
    fn register_is_idempotent() {
        let mut rls = ReplicaService::new();
        rls.register(f("a"), SiteId(1));
        rls.register(f("a"), SiteId(1));
        assert_eq!(rls.stats().replicas, 1);
        assert_eq!(rls.locate(&f("a")).len(), 1);
    }

    #[test]
    fn an_interned_name_without_a_replica_does_not_exist() {
        let mut rls = ReplicaService::new();
        let id = rls.intern(&f("out"));
        assert_eq!(rls.intern(&f("out")), id);
        assert_eq!(rls.exists_batch([&f("out")]), vec![false]);
        assert_eq!(rls.stats().replicas, 0);
        rls.register_id(id, SiteId(4));
        assert_eq!(rls.locate(&f("out")), vec![SiteId(4)]);
        // An id this service never handed out registers nothing.
        rls.register_id(FileId(7), SiteId(4));
        assert_eq!(rls.stats().replicas, 1);
    }

    #[test]
    fn batched_lookup_is_one_round_trip() {
        let mut rls = ReplicaService::new();
        for i in 0..10 {
            rls.register(f(&format!("f{i}")), SiteId(i));
        }
        let files: Vec<LogicalFile> = (0..10).map(|i| f(&format!("f{i}"))).collect();
        let results = rls.locate_batch(&files);
        assert_eq!(results.len(), 10);
        assert_eq!(results[3], &[SiteId(3)]);
        assert_eq!(rls.stats().round_trips, 1);
        assert_eq!(rls.stats().lookups, 10);
        // The unbatched equivalent costs ten round-trips.
        let mut rls2 = ReplicaService::new();
        for file in &files {
            rls2.locate(file);
        }
        assert_eq!(rls2.stats().round_trips, 10);
    }

    #[test]
    fn exists_batch_answers_each_file_in_order() {
        let mut rls = ReplicaService::new();
        rls.register(f("x"), SiteId(0));
        let probe = vec![f("x"), f("y")];
        assert_eq!(rls.exists_batch(&probe), vec![true, false]);
    }
}
