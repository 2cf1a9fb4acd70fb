//! Write-ahead log backends.
//!
//! The log is a sequence of UTF-8 lines, one committed transaction (or
//! snapshot) per line. Line-granularity commits give atomicity: a crash can
//! only ever tear the *final* line, which recovery discards as an
//! uncommitted transaction.

use crate::error::DbError;
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A write-ahead log backend.
pub trait Wal: Send {
    /// Append one committed entry (no trailing newline).
    fn append(&mut self, line: &str) -> Result<(), DbError>;

    /// Read every line currently in the log, in append order. The final
    /// line may be torn (interrupted commit); callers must tolerate it.
    fn read_all(&self) -> Result<Vec<String>, DbError>;

    /// Atomically replace the whole log with the given lines (checkpoint
    /// compaction).
    fn rewrite(&mut self, lines: &[String]) -> Result<(), DbError>;

    /// Number of entries appended since this handle was created (for
    /// instrumentation).
    fn appended(&self) -> u64;

    /// Number of checkpoint compactions (`rewrite` calls) since this handle
    /// was created (for instrumentation).
    fn rewrites(&self) -> u64;
}

/// In-memory WAL. Cloning shares the underlying buffer, so a "crashed"
/// database's log can be handed to a recovering database — which is exactly
/// how the fault-tolerance experiments simulate server restarts.
#[derive(Debug, Clone, Default)]
pub struct MemWal {
    lines: Arc<Mutex<Vec<String>>>,
    appended: u64,
    rewrites: u64,
}

impl MemWal {
    /// A fresh, empty shared log.
    pub fn shared() -> Self {
        MemWal::default()
    }

    /// Simulate a torn final line: truncate the last entry mid-way, as an
    /// OS crash during a write would. No-op on an empty log.
    pub fn tear_last_line(&self) {
        let mut lines = self.lines.lock();
        if let Some(last) = lines.last_mut() {
            let keep = last.len() / 2;
            last.truncate(keep);
            last.push_str("...TORN");
        }
    }

    /// Number of entries currently in the log.
    pub fn len(&self) -> usize {
        self.lines.lock().len()
    }

    /// True if the log is empty.
    pub fn is_empty(&self) -> bool {
        self.lines.lock().is_empty()
    }
}

impl Wal for MemWal {
    // sphinx-hot
    fn append(&mut self, line: &str) -> Result<(), DbError> {
        self.lines.lock().push(line.to_owned());
        self.appended += 1;
        Ok(())
    }

    fn read_all(&self) -> Result<Vec<String>, DbError> {
        Ok(self.lines.lock().clone())
    }

    fn rewrite(&mut self, lines: &[String]) -> Result<(), DbError> {
        // Free the old log first: the copy can take its place in the heap.
        let mut log = self.lines.lock();
        log.clear();
        log.extend_from_slice(lines);
        self.rewrites += 1;
        Ok(())
    }

    fn appended(&self) -> u64 {
        self.appended
    }

    fn rewrites(&self) -> u64 {
        self.rewrites
    }
}

/// When the file-backed log forces bytes to stable storage.
///
/// A `BufWriter::flush` only hands bytes to the OS; a power loss can still
/// drop them. Only `fsync` (`File::sync_all`) makes a commit durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` after every append and before every checkpoint rename (the
    /// default): after a power loss the log holds every acknowledged
    /// commit, with at most a torn final line.
    #[default]
    Always,
    /// Flush to the OS only. Survives process crashes but not power loss;
    /// acceptable for tests and throwaway simulation runs.
    Never,
}

/// File-backed WAL, one JSON line per committed transaction.
#[derive(Debug)]
pub struct FileWal {
    path: PathBuf,
    writer: BufWriter<File>,
    fsync: FsyncPolicy,
    appended: u64,
    rewrites: u64,
}

impl FileWal {
    /// Open (creating if absent) the log at `path` for appending, with
    /// full durability ([`FsyncPolicy::Always`]).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, DbError> {
        Self::open_with(path, FsyncPolicy::Always)
    }

    /// [`FileWal::open`] with an explicit durability policy.
    pub fn open_with(path: impl AsRef<Path>, fsync: FsyncPolicy) -> Result<Self, DbError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(FileWal {
            path,
            writer: BufWriter::new(file),
            fsync,
            appended: 0,
            rewrites: 0,
        })
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The durability policy this log was opened with.
    pub fn fsync_policy(&self) -> FsyncPolicy {
        self.fsync
    }

    /// Fsync the directory holding the log so a just-renamed file's
    /// directory entry is durable too (rename is only atomic *and*
    /// persistent once the parent directory has been synced).
    fn sync_parent_dir(&self) -> Result<(), DbError> {
        let Some(parent) = self.path.parent() else {
            return Ok(());
        };
        let parent = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        // Opening the directory is the only portable way to fsync it; this
        // is durability plumbing, not a data read.
        File::open(parent)?.sync_all()?; // sphinx-lint: allow(fs-read)
        Ok(())
    }
}

impl Wal for FileWal {
    // sphinx-hot
    fn append(&mut self, line: &str) -> Result<(), DbError> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        // Flush per commit: commit durability is the whole point of a WAL.
        self.writer.flush()?;
        if self.fsync == FsyncPolicy::Always {
            self.writer.get_ref().sync_all()?;
        }
        self.appended += 1;
        Ok(())
    }

    fn read_all(&self) -> Result<Vec<String>, DbError> {
        let mut content = String::new();
        // The WAL *is* the durability layer, so this is the one sanctioned
        // filesystem read in a sim-facing crate.
        File::open(&self.path)?.read_to_string(&mut content)?; // sphinx-lint: allow(fs-read)
        Ok(content.lines().map(str::to_owned).collect())
    }

    fn rewrite(&mut self, lines: &[String]) -> Result<(), DbError> {
        // Write-then-rename keeps the old log intact if we crash mid-rewrite.
        // The tmp file is fsynced *before* the rename: renaming a file whose
        // contents are still in the page cache can leave an empty log after
        // a power loss — the one failure mode worse than an oversized log.
        let tmp = self.path.with_extension("wal.tmp");
        {
            let mut w = BufWriter::new(File::create(&tmp)?);
            for line in lines {
                w.write_all(line.as_bytes())?;
                w.write_all(b"\n")?;
            }
            w.flush()?;
            if self.fsync == FsyncPolicy::Always {
                w.get_ref().sync_all()?;
            }
        }
        std::fs::rename(&tmp, &self.path)?;
        if self.fsync == FsyncPolicy::Always {
            self.sync_parent_dir()?;
        }
        let file = OpenOptions::new().append(true).open(&self.path)?;
        self.writer = BufWriter::new(file);
        self.rewrites += 1;
        Ok(())
    }

    fn appended(&self) -> u64 {
        self.appended
    }

    fn rewrites(&self) -> u64 {
        self.rewrites
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "sphinx-db-test-{}-{}.wal",
            name,
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn memwal_append_and_read() {
        let mut w = MemWal::shared();
        w.append("a").unwrap();
        w.append("b").unwrap();
        assert_eq!(w.read_all().unwrap(), vec!["a", "b"]);
        assert_eq!(w.appended(), 2);
    }

    #[test]
    fn memwal_clone_shares_buffer() {
        let mut w = MemWal::shared();
        let view = w.clone();
        w.append("x").unwrap();
        assert_eq!(view.read_all().unwrap(), vec!["x"]);
        assert_eq!(view.len(), 1);
        assert!(!view.is_empty());
    }

    #[test]
    fn memwal_tear_corrupts_only_last() {
        let mut w = MemWal::shared();
        w.append("{\"first\":1}").unwrap();
        w.append("{\"second\":2}").unwrap();
        w.tear_last_line();
        let lines = w.read_all().unwrap();
        assert_eq!(lines[0], "{\"first\":1}");
        assert!(lines[1].ends_with("...TORN"));
    }

    #[test]
    fn memwal_rewrite_replaces() {
        let mut w = MemWal::shared();
        w.append("a").unwrap();
        w.rewrite(&["z".to_owned()]).unwrap();
        assert_eq!(w.read_all().unwrap(), vec!["z"]);
        assert_eq!(w.rewrites(), 1);
    }

    #[test]
    fn rewrite_counts_accumulate_per_handle() {
        let mut w = MemWal::shared();
        assert_eq!(w.rewrites(), 0);
        w.rewrite(&[]).unwrap();
        w.rewrite(&["a".to_owned()]).unwrap();
        assert_eq!(w.rewrites(), 2);
        // A clone shares the buffer but tracks its own instrumentation.
        let view = w.clone();
        assert_eq!(view.rewrites(), 2);
    }

    #[test]
    fn filewal_round_trip() {
        let path = temp_path("roundtrip");
        {
            let mut w = FileWal::open(&path).unwrap();
            w.append("one").unwrap();
            w.append("two").unwrap();
            assert_eq!(w.appended(), 2);
        }
        let w = FileWal::open(&path).unwrap();
        assert_eq!(w.read_all().unwrap(), vec!["one", "two"]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn filewal_rewrite_compacts() {
        let path = temp_path("rewrite");
        let mut w = FileWal::open(&path).unwrap();
        w.append("a").unwrap();
        w.append("b").unwrap();
        w.rewrite(&["snapshot".to_owned()]).unwrap();
        w.append("c").unwrap();
        assert_eq!(w.read_all().unwrap(), vec!["snapshot", "c"]);
        assert_eq!(w.rewrites(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn filewal_end_to_end_database_recovery_with_torn_tail() {
        use crate::{Database, Record};
        use serde::{Deserialize, Serialize};

        #[derive(Debug, Clone, Serialize, Deserialize)]
        struct R {
            id: u64,
            v: u32,
        }
        impl Record for R {
            const TABLE: &'static str = "file_rows";
            fn key(&self) -> u64 {
                self.id
            }
        }

        let path = temp_path("dbrecover");
        {
            let wal = FileWal::open(&path).unwrap();
            let db = Database::with_wal(Box::new(wal));
            db.insert(&R { id: 1, v: 10 }).unwrap();
            db.insert(&R { id: 2, v: 20 }).unwrap();
        }
        // Tear the final line on disk, as an OS crash mid-write would.
        let content = std::fs::read_to_string(&path).unwrap();
        let keep = content.len() - 7;
        std::fs::write(&path, &content[..keep]).unwrap();

        let wal = FileWal::open(&path).unwrap();
        let db = Database::recover(Box::new(wal)).unwrap();
        assert_eq!(db.get::<R>(1).unwrap().v, 10);
        assert!(db.get::<R>(2).is_none(), "torn commit dropped");
        // The recovered database keeps appending to the same file.
        db.insert(&R { id: 3, v: 30 }).unwrap();
        let wal2 = FileWal::open(&path).unwrap();
        let db2 = Database::recover(Box::new(wal2)).unwrap();
        assert_eq!(db2.get::<R>(3).unwrap().v, 30);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn filewal_fsync_never_round_trips() {
        let path = temp_path("nofsync");
        {
            let mut w = FileWal::open_with(&path, FsyncPolicy::Never).unwrap();
            assert_eq!(w.fsync_policy(), FsyncPolicy::Never);
            w.append("a").unwrap();
            w.rewrite(&["snap".to_owned()]).unwrap();
            w.append("b").unwrap();
        }
        let w = FileWal::open(&path).unwrap();
        assert_eq!(w.read_all().unwrap(), vec!["snap", "b"]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn filewal_reopen_appends() {
        let path = temp_path("reopen");
        {
            let mut w = FileWal::open(&path).unwrap();
            w.append("a").unwrap();
        }
        {
            let mut w = FileWal::open(&path).unwrap();
            w.append("b").unwrap();
        }
        let w = FileWal::open(&path).unwrap();
        assert_eq!(w.read_all().unwrap(), vec!["a", "b"]);
        std::fs::remove_file(&path).unwrap();
    }
}
