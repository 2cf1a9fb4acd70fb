//! Data management substrate for SPHINX.
//!
//! The paper's SPHINX delegates data management to two Globus services it
//! does not implement itself: the Replica Location Service for replica
//! existence/location queries, and GridFTP for wide-area file movement
//! (§3.4, *Data replication service*). Neither exists in this environment,
//! so this crate provides behaviour-equivalent substitutes:
//!
//! * [`ReplicaService`] — an RLS in the Giggle mould: a replica location
//!   index from each file to the sites holding it, with **batched** lookups
//!   (SPHINX "clubs all its requests in a single call to the RLS server").
//!   It interns each logical name once per run as a dense [`FileId`] and
//!   indexes replicas by id, so a replica costs a site id, not a name.
//! * [`SiteStore`] — per-site storage with a capacity, enforcing the disk
//!   side of the paper's usage-quota discussion; keyed by [`FileId`].
//! * [`TransferModel`] — a GridFTP-equivalent cost model: per-site
//!   bandwidth, wide-area latency and contention between concurrent
//!   transfers determine how long staging a file takes.
//!
//! It also owns the base identifiers shared by every layer above it:
//! [`LogicalFile`], [`FileSpec`] and [`SiteId`].

pub mod file;
pub mod rls;
pub mod store;
pub mod transfer;

pub use file::{FileId, FileSpec, LogicalFile, SiteId};
pub use rls::{ReplicaService, RlsStats};
pub use store::{SiteStore, StoreError};
pub use transfer::{TransferModel, TransferTracker};

/// The name-keyed replica catalog and storage element that [`FileId`] keys
/// replaced, kept as the oracle the id-keyed ones are held to: the same
/// operations must give the same sites in the same order, the same
/// existence answers, the same counters and the same store verdicts.
#[cfg(test)]
mod oracle {
    use crate::file::{FileId, FileSpec, LogicalFile, SiteId};
    use crate::rls::{ReplicaService, RlsStats};
    use crate::store::{SiteStore, StoreError};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// The replica index keyed by name: file → sites storing it.
    #[derive(Default)]
    struct NameRls {
        by_file: BTreeMap<LogicalFile, BTreeSet<SiteId>>,
        stats: RlsStats,
    }

    impl NameRls {
        fn register(&mut self, file: LogicalFile, site: SiteId) {
            if self.by_file.entry(file).or_default().insert(site) {
                self.stats.replicas += 1;
            }
        }

        fn locate_silent(&self, file: &LogicalFile) -> Vec<SiteId> {
            self.by_file
                .get(file)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default()
        }

        fn locate(&mut self, file: &LogicalFile) -> Vec<SiteId> {
            self.stats.lookups += 1;
            self.stats.round_trips += 1;
            self.locate_silent(file)
        }

        fn locate_batch(&mut self, files: &[LogicalFile]) -> Vec<(LogicalFile, Vec<SiteId>)> {
            self.stats.lookups += files.len() as u64;
            self.stats.round_trips += 1;
            files
                .iter()
                .map(|f| (f.clone(), self.locate_silent(f)))
                .collect()
        }

        fn exists_batch(&mut self, files: &[LogicalFile]) -> Vec<bool> {
            self.stats.lookups += files.len() as u64;
            self.stats.round_trips += 1;
            files.iter().map(|f| self.by_file.contains_key(f)).collect()
        }
    }

    /// One site's storage keyed by name.
    struct NameStore {
        capacity_mb: u64,
        files: BTreeMap<LogicalFile, u64>,
        used_mb: u64,
    }

    impl NameStore {
        fn new(capacity_mb: u64) -> Self {
            NameStore {
                capacity_mb,
                files: BTreeMap::new(),
                used_mb: 0,
            }
        }

        /// `Err((need_mb, free_mb))` when the file does not fit.
        fn put(&mut self, spec: &FileSpec) -> Result<(), (u64, u64)> {
            let released = self.files.get(&spec.file).copied().unwrap_or(0);
            let free = self.capacity_mb - self.used_mb + released;
            if spec.size_mb > free {
                return Err((spec.size_mb, free));
            }
            self.used_mb = self.used_mb - released + spec.size_mb;
            self.files.insert(spec.file.clone(), spec.size_mb);
            Ok(())
        }
    }

    fn name(i: u32) -> LogicalFile {
        LogicalFile::new(format!("dag{}.out{}", i % 3, i))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128 })]

        /// Random register / locate / locate_batch / exists_batch / put
        /// sequences give the id-keyed catalog and stores the answers of
        /// the name-keyed ones.
        #[test]
        fn ids_agree_with_names(
            ops in proptest::collection::vec((0u8..8, 0u32..12, 0u32..5, 1u64..60), 0..160),
        ) {
            let (mut rls, mut oracle) = (ReplicaService::new(), NameRls::default());
            let mut stores: Vec<SiteStore> = (0..3).map(|_| SiteStore::new(150)).collect();
            let mut oracle_stores: Vec<NameStore> = (0..3).map(|_| NameStore::new(150)).collect();
            for (op, file_i, site_i, mb) in ops {
                let (file, site) = (name(file_i), SiteId(site_i));
                match op {
                    // The name-level registration seeding external datasets.
                    0 => {
                        rls.register(file.clone(), site);
                        oracle.register(file, site);
                    }
                    // The grid's: intern once, then register the id.
                    1 => {
                        let id = rls.intern(&file);
                        rls.register_id(id, site);
                        oracle.register(file, site);
                    }
                    2 => prop_assert_eq!(rls.locate(&file), oracle.locate(&file)),
                    3 => prop_assert_eq!(
                        rls.exists_batch([&file]),
                        oracle.exists_batch(std::slice::from_ref(&file))
                    ),
                    4 | 5 => {
                        // A batch of up to four names, repeats allowed.
                        let batch: Vec<LogicalFile> =
                            (0..site_i).map(|k| name((file_i + k * mb as u32) % 14)).collect();
                        if op == 4 {
                            let expect = oracle.locate_batch(&batch);
                            let got = rls.locate_batch(&batch);
                            prop_assert_eq!(got.len(), expect.len());
                            for (sites, (_, want)) in got.iter().zip(&expect) {
                                prop_assert_eq!(*sites, want.as_slice());
                            }
                        } else {
                            prop_assert_eq!(rls.exists_batch(&batch), oracle.exists_batch(&batch));
                        }
                    }
                    _ => {
                        let k = (site_i % 3) as usize;
                        let got = stores[k].put(rls.intern(&file), mb);
                        let want = oracle_stores[k].put(&FileSpec { file, size_mb: mb });
                        let got = got.map_err(|StoreError::Full { need_mb, free_mb }| (need_mb, free_mb));
                        prop_assert_eq!(got, want);
                        prop_assert_eq!(stores[k].used_mb(), oracle_stores[k].used_mb);
                        prop_assert_eq!(stores[k].len(), oracle_stores[k].files.len());
                        prop_assert!(stores[k].used_mb() <= 150);
                    }
                }
                prop_assert_eq!(rls.stats(), oracle.stats);
            }
        }
    }

    #[test]
    fn interning_order_is_not_name_order() {
        // Ids follow first sight; answers follow names and sites.
        let mut rls = ReplicaService::new();
        let (b, a) = (LogicalFile::from("b"), LogicalFile::from("a"));
        assert_eq!(rls.intern(&b), FileId(0));
        assert_eq!(rls.intern(&a), FileId(1));
        rls.register(a.clone(), SiteId(9));
        rls.register(a.clone(), SiteId(2));
        assert_eq!(rls.locate(&a), vec![SiteId(2), SiteId(9)]);
        assert_eq!(rls.exists_batch([&b, &a]), vec![false, true]);
    }
}
