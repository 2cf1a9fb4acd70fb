//! Base identifiers: logical files and sites.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a grid site (compute + storage element).
///
/// Defined here, at the bottom of the crate stack, because replica
/// locations, transfers, batch queues, monitoring snapshots and scheduling
/// decisions all name sites.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SiteId(pub u32);

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site{}", self.0)
    }
}

/// A logical file name — location-independent, resolved to physical
/// replicas by the replica location service.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LogicalFile(pub String);

impl LogicalFile {
    /// Construct from anything string-like.
    pub fn new(name: impl Into<String>) -> Self {
        LogicalFile(name.into())
    }

    /// The logical name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for LogicalFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for LogicalFile {
    fn from(s: &str) -> Self {
        LogicalFile(s.to_owned())
    }
}

impl From<String> for LogicalFile {
    fn from(s: String) -> Self {
        LogicalFile(s)
    }
}

/// A logical file name interned by a [`ReplicaService`](crate::ReplicaService):
/// a dense index into its name table, so the data plane keys replicas and
/// stored files by four bytes instead of by a copy of the name.
///
/// Ids are handed out in first-seen order, which depends on the order of
/// requests; nothing may observe that order (listings sort by name or by
/// site).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u32);

/// A logical file plus the size it will have once materialised.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileSpec {
    /// Logical name.
    pub file: LogicalFile,
    /// Size in megabytes (the unit Grid3-era storage systems reported).
    pub size_mb: u64,
}

impl FileSpec {
    /// A file spec.
    pub fn new(file: impl Into<LogicalFile>, size_mb: u64) -> Self {
        FileSpec {
            file: file.into(),
            size_mb,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        assert_eq!(format!("{}", SiteId(4)), "site4");
        assert_eq!(LogicalFile::from("a.dat").name(), "a.dat");
        assert_eq!(LogicalFile::from(String::from("b")).0, "b");
        let spec = FileSpec::new("out.root", 250);
        assert_eq!(spec.file, LogicalFile::from("out.root"));
        assert_eq!(spec.size_mb, 250);
    }

    #[test]
    fn ordering_for_map_keys() {
        let mut v = [LogicalFile::from("b"), LogicalFile::from("a")];
        v.sort();
        assert_eq!(v[0].name(), "a");
    }
}
