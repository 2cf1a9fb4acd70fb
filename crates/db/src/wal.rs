//! Write-ahead log backends.
//!
//! The log is a sequence of UTF-8 lines, one committed transaction (or
//! snapshot) per line. Line-granularity commits give atomicity: a crash can
//! only ever tear the *final* line — at any byte, so inside a character
//! too — which recovery discards as an uncommitted transaction.

use crate::error::DbError;
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A write-ahead log backend.
///
/// Recovery reads the log through [`Wal::for_each_line`] and cuts a torn
/// tail with [`Wal::truncate`]; a checkpoint compacts it through
/// [`Wal::rewrite_printed`]. All three are provided on top of the required
/// methods (a copy of the log from `read_all`; `read_all` then `rewrite`;
/// print, then `rewrite`), so a wrapper that implements only those — a
/// timing or fault-injecting `Wal` around a backend — behaves as it always
/// did. The backends here override the first two to read the log where it
/// lies and cut it in place, and `MemWal` the third to drop its old log
/// before the new line is printed.
pub trait Wal: Send {
    /// Append one committed entry (no trailing newline).
    fn append(&mut self, line: &str) -> Result<(), DbError>;

    /// A copy of every line currently in the log, in append order. The
    /// final line may be torn (interrupted commit); callers must tolerate
    /// it. Fails if a line is not UTF-8.
    fn read_all(&self) -> Result<Vec<String>, DbError>;

    /// Atomically replace the whole log with the given lines (checkpoint
    /// compaction).
    fn rewrite(&mut self, lines: &[String]) -> Result<(), DbError>;

    /// Atomically replace the whole log with the one line `print` writes
    /// into an empty `String` (checkpoint compaction). The default prints
    /// the line, then hands it to [`Wal::rewrite`]; [`MemWal`] frees the
    /// old log before it prints.
    fn rewrite_printed(&mut self, print: &mut dyn FnMut(&mut String)) -> Result<(), DbError> {
        let mut line = String::new();
        print(&mut line);
        self.rewrite(std::slice::from_ref(&line))
    }

    /// Number of entries appended since this handle was created (for
    /// instrumentation).
    fn appended(&self) -> u64;

    /// Number of checkpoint compactions (`rewrite` calls) since this handle
    /// was created (for instrumentation).
    fn rewrites(&self) -> u64;

    /// Hand each line's bytes (without its line end) to `f`, in append
    /// order, until `f` returns `false`. The bytes are the log's: the
    /// final line may be torn, inside a character too, so they need not
    /// be UTF-8.
    fn for_each_line(&self, f: &mut dyn FnMut(&[u8]) -> bool) -> Result<(), DbError> {
        for line in self.read_all()? {
            if !f(line.as_bytes()) {
                break;
            }
        }
        Ok(())
    }

    /// Keep the first `n` lines and cut the rest (recovery dropping a
    /// torn tail).
    fn truncate(&mut self, n: usize) -> Result<(), DbError> {
        let mut lines = self.read_all()?;
        lines.truncate(n);
        self.rewrite(&lines)
    }
}

/// Bytes of text a fresh [`MemWal`] block holds; a longer line gets a
/// block of its own length.
const BLOCK: usize = 1 << 18;

/// Line slots the index gains when a block opens and it is short of them.
const SPANS: usize = BLOCK / 128;

/// In-memory WAL. Cloning shares the underlying buffer, so a "crashed"
/// database's log can be handed to a recovering database — which is exactly
/// how the fault-tolerance experiments simulate server restarts.
#[derive(Debug, Clone, Default)]
pub struct MemWal {
    lines: Arc<Mutex<Packed>>,
    appended: u64,
    rewrites: u64,
}

/// The in-memory log's bytes, each held once: lines are packed end to end
/// into large text blocks, a line never spanning two, and `spans` holds
/// each line's `(block, start, end)`. A line lands in the last block while
/// that block and `spans` both have room for it, and opens a block
/// otherwise, so only a line that opens a block allocates.
#[derive(Debug, Default)]
struct Packed {
    blocks: Vec<String>,
    spans: Vec<(u32, u32, u32)>,
}

/// `n` as a span field (a block number or a byte offset in a block); a
/// value past `u32::MAX`, a line of 4 GiB or more, is refused.
fn offset(n: usize) -> Result<u32, DbError> {
    u32::try_from(n)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "log line past 4 GiB").into())
}

impl Packed {
    fn push(&mut self, line: &str) -> Result<(), DbError> {
        let room = |block: &String| block.capacity() - block.len() >= line.len();
        if self.spans.len() == self.spans.capacity() || !self.blocks.last().is_some_and(room) {
            self.blocks
                .push(String::with_capacity(line.len().max(BLOCK)));
            self.spans.reserve(SPANS);
        }
        let block = offset(self.blocks.len() - 1)?;
        let Some(text) = self.blocks.last_mut() else {
            return Ok(());
        };
        let span = (block, offset(text.len())?, offset(text.len() + line.len())?);
        text.push_str(line);
        self.spans.push(span);
        Ok(())
    }

    /// Line `span`'s bytes. Every span lies inside its block, on
    /// character boundaries, so the bytes are sliced without `str`'s
    /// boundary checks: those read two bytes of text per line before the
    /// reader does, which cost recovery about 1 ms on a 41 k-line log.
    fn line(&self, &(block, start, end): &(u32, u32, u32)) -> &[u8] {
        let block = self
            .blocks
            .get(block as usize)
            .map_or(&b""[..], |b| b.as_bytes());
        block.get(start as usize..end as usize).unwrap_or_default()
    }

    /// Keep the first `n` lines, and only the blocks holding them.
    fn truncate(&mut self, n: usize) {
        self.spans.truncate(n);
        let Some(&(block, _, end)) = self.spans.last() else {
            self.blocks.clear();
            return;
        };
        self.blocks.truncate(block as usize + 1);
        if let Some(text) = self.blocks.last_mut() {
            text.truncate(end as usize);
        }
    }
}

impl MemWal {
    /// A fresh, empty shared log.
    pub fn shared() -> Self {
        MemWal::default()
    }

    /// Simulate a torn final line: truncate the last entry mid-way (at the
    /// last character boundary at or before its middle byte), as an OS
    /// crash during a write would. No-op on an empty log.
    pub fn tear_last_line(&self) {
        let mut log = self.lines.lock();
        let log = &mut *log;
        let Some((block, start, end)) = log.spans.last_mut() else {
            return;
        };
        let Some(text) = log.blocks.get_mut(*block as usize) else {
            return;
        };
        let (from, to) = (*start as usize, *end as usize);
        let keep = (from..=from + (to - from) / 2)
            .rev()
            .find(|&at| text.is_char_boundary(at))
            .unwrap_or(from);
        text.truncate(keep);
        text.push_str("...TORN");
        *end = offset(text.len()).unwrap_or(*end);
    }

    /// Number of entries currently in the log.
    pub fn len(&self) -> usize {
        self.lines.lock().spans.len()
    }

    /// True if the log is empty.
    pub fn is_empty(&self) -> bool {
        self.lines.lock().spans.is_empty()
    }

    /// Number of text blocks holding the log (for instrumentation: an
    /// append allocates only when it opens one).
    pub fn blocks(&self) -> usize {
        self.lines.lock().blocks.len()
    }
}

impl Wal for MemWal {
    // sphinx-hot
    fn append(&mut self, line: &str) -> Result<(), DbError> {
        self.lines.lock().push(line)?;
        self.appended += 1;
        Ok(())
    }

    fn read_all(&self) -> Result<Vec<String>, DbError> {
        let log = self.lines.lock();
        Ok(log
            .spans
            .iter()
            .map(|span| String::from_utf8_lossy(log.line(span)).into_owned())
            .collect())
    }

    fn rewrite(&mut self, lines: &[String]) -> Result<(), DbError> {
        // Free the old blocks first, then pack the new lines as appends do.
        let mut log = self.lines.lock();
        log.truncate(0);
        for line in lines {
            log.push(line)?;
        }
        self.rewrites += 1;
        Ok(())
    }

    /// Free the old blocks, then print the line into a block of its own:
    /// the old log and the new line are never held at once.
    fn rewrite_printed(&mut self, print: &mut dyn FnMut(&mut String)) -> Result<(), DbError> {
        let mut log = self.lines.lock();
        log.truncate(0);
        let mut line = String::new();
        print(&mut line);
        log.spans.push((0, 0, offset(line.len())?));
        log.blocks.push(line);
        self.rewrites += 1;
        Ok(())
    }

    fn appended(&self) -> u64 {
        self.appended
    }

    fn rewrites(&self) -> u64 {
        self.rewrites
    }

    fn for_each_line(&self, f: &mut dyn FnMut(&[u8]) -> bool) -> Result<(), DbError> {
        let log = self.lines.lock();
        for span in &log.spans {
            if !f(log.line(span)) {
                break;
            }
        }
        Ok(())
    }

    fn truncate(&mut self, n: usize) -> Result<(), DbError> {
        self.lines.lock().truncate(n);
        Ok(())
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
    /// The file ends inside a line: a crash kept a whole final line but
    /// not its `\n`. The next append ends that line first.
    open_line: bool,
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
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        let mut last = [b'\n'];
        if file.seek(SeekFrom::End(0))? > 0 {
            file.seek(SeekFrom::End(-1))?;
            file.read_exact(&mut last)?;
        }
        Ok(FileWal {
            path,
            writer: BufWriter::new(file),
            fsync,
            open_line: last != [b'\n'],
            appended: 0,
            rewrites: 0,
        })
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
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

    /// Stream the log through one reused buffer: `f` gets each line's
    /// bytes, as `str::lines` would cut them (without the `\n`, and the
    /// `\r` before it), and the file offset just past the line, until it
    /// returns `false`.
    fn scan(&self, f: &mut dyn FnMut(&[u8], u64) -> bool) -> Result<(), DbError> {
        // The WAL *is* the durability layer, so this is the one sanctioned
        // filesystem read in a sim-facing crate.
        let mut file = BufReader::new(File::open(&self.path)?); // sphinx-lint: allow(fs-read)
        let mut buf = Vec::new();
        let mut end = 0;
        loop {
            buf.clear();
            let n = file.read_until(b'\n', &mut buf)?;
            if n == 0 {
                return Ok(());
            }
            end += n as u64;
            let line = match buf.strip_suffix(b"\n") {
                Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
                None => &buf,
            };
            if !f(line, end) {
                return Ok(());
            }
        }
    }
}

impl Wal for FileWal {
    // sphinx-hot
    fn append(&mut self, line: &str) -> Result<(), DbError> {
        if std::mem::take(&mut self.open_line) {
            self.writer.write_all(b"\n")?;
        }
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

    /// Every line [`Wal::for_each_line`] yields, copied out as text.
    fn read_all(&self) -> Result<Vec<String>, DbError> {
        let mut lines = Vec::new();
        let mut text = true;
        self.for_each_line(&mut |line| match std::str::from_utf8(line) {
            Ok(line) => {
                lines.push(line.to_owned());
                true
            }
            Err(_) => {
                text = false;
                false
            }
        })?;
        match text {
            true => Ok(lines),
            // Worded as `read_to_string` words it.
            false => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
            .into()),
        }
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
        self.open_line = false;
        self.rewrites += 1;
        Ok(())
    }

    fn appended(&self) -> u64 {
        self.appended
    }

    fn rewrites(&self) -> u64 {
        self.rewrites
    }

    fn for_each_line(&self, f: &mut dyn FnMut(&[u8]) -> bool) -> Result<(), DbError> {
        self.scan(&mut |line, _| f(line))
    }

    /// Cut the file after its `n`-th line ending, in place: nothing before
    /// the cut is rewritten, and the appends that follow land after it.
    fn truncate(&mut self, n: usize) -> Result<(), DbError> {
        let (mut keep, mut left) = (0, n);
        if left > 0 {
            self.scan(&mut |_, end| {
                keep = end;
                left -= 1;
                left > 0
            })?;
        }
        self.writer.flush()?;
        let file = self.writer.get_ref();
        if file.metadata()?.len() > keep {
            file.set_len(keep)?;
            if self.fsync == FsyncPolicy::Always {
                file.sync_all()?;
            }
            // The file now ends with a line end, or is empty.
            self.open_line = false;
        }
        Ok(())
    }
}

/// A fresh path in the temp directory for a test's log.
#[cfg(test)]
pub(crate) fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "sphinx-db-test-{}-{}.wal",
        name,
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// The reader `FileWal::read_all` was before the log was streamed: the
/// whole file read into one `String`, cut by `str::lines`. The oracle the
/// streaming reader is held to.
#[cfg(test)]
pub(crate) fn lines_oracle(path: &Path) -> io::Result<Vec<String>> {
    let content = std::fs::read_to_string(path)?;
    Ok(content.lines().map(str::to_owned).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::Rng;

    /// The in-memory log before its lines were packed: one `String` per
    /// line. The model [`MemWal`] is held to.
    #[derive(Debug, Clone, Default)]
    struct Listed {
        lines: Arc<Mutex<Vec<String>>>,
        appended: u64,
        rewrites: u64,
    }

    impl Listed {
        fn tear_last_line(&self) {
            let mut lines = self.lines.lock();
            if let Some(last) = lines.last_mut() {
                let keep = (0..=last.len() / 2)
                    .rev()
                    .find(|&at| last.is_char_boundary(at))
                    .unwrap_or(0);
                last.truncate(keep);
                last.push_str("...TORN");
            }
        }

        fn len(&self) -> usize {
            self.lines.lock().len()
        }
    }

    impl Wal for Listed {
        fn append(&mut self, line: &str) -> Result<(), DbError> {
            self.lines.lock().push(line.to_owned());
            self.appended += 1;
            Ok(())
        }

        fn read_all(&self) -> Result<Vec<String>, DbError> {
            Ok(self.lines.lock().clone())
        }

        fn rewrite(&mut self, lines: &[String]) -> Result<(), DbError> {
            *self.lines.lock() = lines.to_vec();
            self.rewrites += 1;
            Ok(())
        }

        fn appended(&self) -> u64 {
            self.appended
        }

        fn rewrites(&self) -> u64 {
            self.rewrites
        }

        fn for_each_line(&self, f: &mut dyn FnMut(&[u8]) -> bool) -> Result<(), DbError> {
            for line in self.lines.lock().iter() {
                if !f(line.as_bytes()) {
                    break;
                }
            }
            Ok(())
        }

        fn truncate(&mut self, n: usize) -> Result<(), DbError> {
            self.lines.lock().truncate(n);
            Ok(())
        }
    }

    /// A line of `g`'s choosing: empty, short, a good part of a block,
    /// or longer than a block, in characters of one to four bytes.
    fn line(g: &mut Rng) -> String {
        const CHARS: [&str; 6] = ["a", "{", "\"", "é", "✓", "😀"];
        let short: String = (0..1 + g.below(12))
            .map(|_| CHARS[g.below(6) as usize])
            .collect();
        match g.below(16) {
            0..=1 => String::new(),
            2..=10 => short,
            11..=14 => short.repeat(g.below(BLOCK as u64 / 2) as usize / short.len()),
            _ => short.repeat((BLOCK + g.below(BLOCK as u64) as usize) / short.len() + 1),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64 })]

        /// Two handles on one packed log (the second a clone sharing the
        /// buffer) and two on one model log take the same random steps:
        /// appends (empty lines, bursts of short ones that fill the line
        /// index, lines longer than a block), both rewrites, truncates and
        /// tears, and read the same lines, counts and copies back.
        #[test]
        fn the_packed_log_reads_as_the_line_list_it_replaced(seed in any::<u64>()) {
            let mut g = Rng::from_seed(seed);
            let packed = MemWal::shared();
            let mut packed = [packed.clone(), packed];
            let model = Listed::default();
            let mut model = [model.clone(), model];
            for _ in 0..48 {
                let h = g.below(2) as usize;
                let (wal, list) = (&mut packed[h], &mut model[h]);
                match g.below(12) {
                    0..=3 => {
                        let line = line(&mut g);
                        wal.append(&line).unwrap();
                        list.append(&line).unwrap();
                    }
                    4 => {
                        let line = ["", "a", "é"][g.below(3) as usize];
                        for _ in 0..g.below(2 * SPANS as u64) {
                            wal.append(line).unwrap();
                            list.append(line).unwrap();
                        }
                    }
                    5 => {
                        let lines: Vec<String> = (0..g.below(3)).map(|_| line(&mut g)).collect();
                        wal.rewrite(&lines).unwrap();
                        list.rewrite(&lines).unwrap();
                    }
                    6 => {
                        let line = line(&mut g);
                        wal.rewrite_printed(&mut |out| out.push_str(&line)).unwrap();
                        list.rewrite_printed(&mut |out| out.push_str(&line)).unwrap();
                    }
                    7 => {
                        let n = g.below(list.len() as u64 + 2) as usize;
                        wal.truncate(n).unwrap();
                        list.truncate(n).unwrap();
                    }
                    8 => {
                        wal.tear_last_line();
                        list.tear_last_line();
                    }
                    9 => {
                        let stop = g.below(list.len() as u64 + 1) as usize;
                        let mut got = Vec::new();
                        let mut want = Vec::new();
                        wal.for_each_line(&mut |l| {
                            got.push(l.to_vec());
                            got.len() < stop
                        })
                        .unwrap();
                        list.for_each_line(&mut |l| {
                            want.push(l.to_vec());
                            want.len() < stop
                        })
                        .unwrap();
                        prop_assert_eq!(got, want);
                    }
                    10 => prop_assert_eq!(wal.read_all().unwrap(), list.read_all().unwrap()),
                    _ => {
                        prop_assert_eq!(wal.len(), list.len());
                        prop_assert_eq!(wal.is_empty(), list.len() == 0);
                    }
                }
                prop_assert_eq!(wal.appended(), list.appended());
                prop_assert_eq!(wal.rewrites(), list.rewrites());
            }
            prop_assert_eq!(yielded(&packed[0]), yielded(&model[0]));
            prop_assert_eq!(packed[1].read_all().unwrap(), model[1].read_all().unwrap());
        }
    }

    /// Every line `wal.for_each_line` yields, as bytes.
    fn yielded(wal: &dyn Wal) -> Vec<Vec<u8>> {
        let mut lines = Vec::new();
        wal.for_each_line(&mut |line| {
            lines.push(line.to_vec());
            true
        })
        .unwrap();
        lines
    }

    /// Logs on disk of every shape a crash or an editor can leave.
    const SHAPES: [&[u8]; 13] = [
        b"",
        b"a\nb\n",
        b"a\nb",
        b"\n\n",
        b"a\r\nb\r\n",
        b"a\r\nb\r",
        b"a\rb\n\r\n",
        b"{\"k\":1}\n{\"k\"",
        b"Z\xc3\xbcrich \xe2\x9c\x93\n\xf0\x9f\x98\x80\n",
        b"a\nZ\xc3",
        b"a\nZ\xc3\n",
        b"a\n\xff\nb\n",
        b"\xc3\xa9\xc3",
    ];

    #[test]
    fn both_readers_agree_on_every_shape() {
        let path = temp_path("shapes");
        for shape in SHAPES {
            std::fs::write(&path, shape).unwrap();
            let file = FileWal::open_with(&path, FsyncPolicy::Never).unwrap();
            let got = yielded(&file);
            match lines_oracle(&path) {
                Ok(lines) => {
                    let want: Vec<&[u8]> = lines.iter().map(|l| l.as_bytes()).collect();
                    assert_eq!(got, want, "{shape:?}");
                    assert_eq!(file.read_all().unwrap(), lines, "{shape:?}");
                    // The same log held in memory reads the same way.
                    let mut mem = MemWal::shared();
                    for line in &lines {
                        mem.append(line).unwrap();
                    }
                    assert_eq!(yielded(&mem), got, "{shape:?}");
                    assert_eq!(mem.read_all().unwrap(), lines, "{shape:?}");
                }
                Err(oracle) => {
                    let Err(DbError::Wal(read)) = file.read_all() else {
                        panic!("{shape:?}: read_all reads a log the oracle refuses");
                    };
                    assert_eq!(read.kind(), oracle.kind(), "{shape:?}");
                    assert_eq!(read.to_string(), oracle.to_string(), "{shape:?}");
                    assert!(got.iter().any(|l| std::str::from_utf8(l).is_err()));
                }
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncate_keeps_the_first_lines_in_place() {
        let path = temp_path("truncate");
        for shape in SHAPES {
            std::fs::write(&path, shape).unwrap();
            let all = yielded(&FileWal::open(&path).unwrap());
            for n in 0..=all.len() + 1 {
                std::fs::write(&path, shape).unwrap();
                let mut file = FileWal::open(&path).unwrap();
                file.truncate(n).unwrap();
                let kept = all.len().min(n);
                assert_eq!(yielded(&file), all[..kept], "{shape:?} to {n}");
                let bytes = std::fs::read(&path).unwrap();
                assert!(shape.starts_with(&bytes), "{shape:?} to {n}");
                if kept < all.len() {
                    assert!(bytes.is_empty() || bytes.ends_with(b"\n"));
                }
                // The next append starts a line of its own, also after a
                // kept final line that lost its `\n`.
                file.append("next").unwrap();
                let mut want = bytes;
                if !want.is_empty() && !want.ends_with(b"\n") {
                    want.push(b'\n');
                }
                want.extend_from_slice(b"next\n");
                assert_eq!(std::fs::read(&path).unwrap(), want, "{shape:?} to {n}");
            }
            let lines: Vec<String> = all
                .iter()
                .map(|l| String::from_utf8_lossy(l).into())
                .collect();
            for n in 0..=lines.len() {
                let mut mem = MemWal::shared();
                for line in &lines {
                    mem.append(line).unwrap();
                }
                mem.truncate(n).unwrap();
                assert_eq!(mem.read_all().unwrap(), lines[..n]);
                assert_eq!(mem.rewrites(), 0, "cut in place, not rewritten");
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_byte_prefix_of_a_non_ascii_final_line_on_disk_recovers() {
        use crate::{Database, Record};
        use serde::{Deserialize, Serialize};

        #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
        struct City {
            id: u64,
            name: String,
        }
        impl Record for City {
            const TABLE: &'static str = "cities";
            fn key(&self) -> u64 {
                self.id
            }
        }
        let city = |id: u64, name: &str| City {
            id,
            name: name.to_owned(),
        };

        let path = temp_path("torn-char");
        {
            let db = Database::with_wal(Box::new(FileWal::open(&path).unwrap()));
            db.put(&city(1, "Genève")).unwrap();
            db.put(&city(2, "Zürich ✓ 😀")).unwrap();
        }
        let log = std::fs::read(&path).unwrap();
        let body = log.strip_suffix(b"\n").unwrap();
        let first = body.iter().position(|&b| b == b'\n').unwrap() + 1;
        let last = &body[first..];
        assert!(std::str::from_utf8(last).unwrap().contains("Zürich"));
        let mut mid_char = 0;
        // Every cut of the final line, and the whole line without its `\n`
        // (a commit that is all there, and kept).
        for at in 0..=last.len() {
            mid_char += usize::from(std::str::from_utf8(&last[..at]).is_err());
            std::fs::write(&path, &log[..first + at]).unwrap();
            let db = Database::recover(Box::new(FileWal::open(&path).unwrap())).unwrap();
            let mut want = vec![city(1, "Genève")];
            if at == last.len() {
                want.push(city(2, "Zürich ✓ 😀"));
            } else {
                assert_eq!(std::fs::read(&path).unwrap(), &log[..first], "cut at {at}");
            }
            assert_eq!(db.replayed(), want.len() as u64, "cut at {at}");
            assert_eq!(db.scan::<City>().unwrap(), want, "cut at {at}");
            // The next commit lands on a line of its own.
            db.put(&city(3, "Köln")).unwrap();
            drop(db);
            let db = Database::recover(Box::new(FileWal::open(&path).unwrap())).unwrap();
            want.push(city(3, "Köln"));
            assert_eq!(db.replayed(), want.len() as u64, "cut at {at}");
            assert_eq!(db.scan::<City>().unwrap(), want, "cut at {at}");
        }
        assert!(mid_char > 0, "some cut lands inside a character");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_non_utf8_line_before_the_last_is_corrupt() {
        let path = temp_path("non-utf8");
        std::fs::write(&path, b"{\"kind\":\"txn\",\"ops\":[]}\n\xff\n{}\n").unwrap();
        let wal = FileWal::open(&path).unwrap();
        let Err(DbError::Corrupt { line, .. }) = crate::Database::recover(Box::new(wal)) else {
            panic!("a line that is not UTF-8 before the last is corruption");
        };
        assert_eq!(line, 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recovery_drops_a_torn_non_ascii_last_line() {
        use crate::{Database, Record};
        use serde::{Deserialize, Serialize};

        #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
        struct Note {
            id: u64,
            text: String,
        }
        impl Record for Note {
            const TABLE: &'static str = "notes";
            fn key(&self) -> u64 {
                self.id
            }
        }

        let mut mid_char = 0;
        for n in 1..8 {
            let wal = MemWal::shared();
            let db = Database::with_wal(Box::new(wal.clone()));
            let kept = Note {
                id: 1,
                text: "plain".to_owned(),
            };
            db.put(&kept).unwrap();
            db.put(&Note {
                id: 2,
                text: "é".repeat(20 * n),
            })
            .unwrap();
            let last = wal.read_all().unwrap().pop().unwrap();
            mid_char += usize::from(!last.is_char_boundary(last.len() / 2));
            wal.tear_last_line();
            let db = Database::recover(Box::new(wal.clone())).unwrap();
            assert_eq!(db.replayed(), 1);
            assert_eq!(db.scan::<Note>().unwrap(), vec![kept]);
            assert_eq!(wal.len(), 1, "the torn line is cut out of the log");
        }
        assert!(mid_char > 0, "some tear falls inside a character");
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
        // The middle of "éa" falls inside the "é": the cut is before it.
        w.append("éa").unwrap();
        w.tear_last_line();
        assert_eq!(w.read_all().unwrap()[2], "...TORN");
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
