//! Per-site storage elements.
//!
//! Grid3 sites exported a storage element with a finite disk allocation per
//! VO; the paper's policy discussion (§2, §4.4) includes "hard disk quota"
//! among the constraints a scheduler must respect. [`SiteStore`] models one
//! site's storage: files with sizes, a capacity, and failure on overflow.
//! Files are keyed by the [`FileId`] the replica service interned their
//! names as, so a stored file costs its id and size, not a copy of its name.

use crate::file::FileId;
use std::collections::BTreeMap;
use std::fmt;

/// Why a store operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Writing a file of `need_mb` would exceed the remaining `free_mb`.
    Full {
        /// The file's size.
        need_mb: u64,
        /// Space actually available.
        free_mb: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Full { need_mb, free_mb } => {
                write!(f, "store full: needs {need_mb} MB, only {free_mb} MB free")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// One site's storage element.
#[derive(Debug, Clone)]
pub struct SiteStore {
    capacity_mb: u64,
    files: BTreeMap<FileId, u64>,
    used_mb: u64,
}

impl SiteStore {
    /// An empty store with the given capacity.
    pub fn new(capacity_mb: u64) -> Self {
        SiteStore {
            capacity_mb,
            files: BTreeMap::new(),
            used_mb: 0,
        }
    }

    /// MB currently used.
    pub fn used_mb(&self) -> u64 {
        self.used_mb
    }

    /// Number of stored files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Write `size_mb` of file `file`. Overwriting an existing replica of
    /// the same file first releases its old space.
    pub fn put(&mut self, file: FileId, size_mb: u64) -> Result<(), StoreError> {
        let released = self.files.get(&file).copied().unwrap_or(0);
        let free = self.capacity_mb - self.used_mb + released;
        if size_mb > free {
            return Err(StoreError::Full {
                need_mb: size_mb,
                free_mb: free,
            });
        }
        self.used_mb = self.used_mb - released + size_mb;
        self.files.insert(file, size_mb);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_and_accounting() {
        let mut s = SiteStore::new(1000);
        s.put(FileId(0), 300).unwrap();
        s.put(FileId(1), 200).unwrap();
        assert_eq!(s.used_mb(), 500);
        assert_eq!(s.len(), 2);
        // 500 MB are left, not 501.
        assert!(s.put(FileId(2), 501).is_err());
        s.put(FileId(2), 500).unwrap();
    }

    #[test]
    fn overflow_is_rejected_without_side_effects() {
        let mut s = SiteStore::new(100);
        s.put(FileId(0), 80).unwrap();
        let err = s.put(FileId(1), 50).unwrap_err();
        assert_eq!(
            err,
            StoreError::Full {
                need_mb: 50,
                free_mb: 20,
            }
        );
        assert_eq!(err.to_string(), "store full: needs 50 MB, only 20 MB free");
        assert_eq!(s.used_mb(), 80);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn overwrite_releases_old_space_first() {
        let mut s = SiteStore::new(100);
        s.put(FileId(0), 90).unwrap();
        // Replacing the 90 MB version with a 95 MB version fits because the
        // old copy's space is reclaimed.
        s.put(FileId(0), 95).unwrap();
        assert_eq!(s.used_mb(), 95);
        assert_eq!(s.len(), 1);
    }
}
