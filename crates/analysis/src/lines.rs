//! `sphinx-lint lines`: each crate's non-test line count.
//!
//! A line counts if it holds code, a token or part of a literal, outside
//! `#[cfg(test)]` items ([`lexer::code_lines`]). Only the `.rs` files
//! under a crate's `src/` count, so `tests/`, `benches/` and examples stay
//! out.

use crate::lexer;
use std::fs;
use std::io;
use std::path::Path;

/// Every crate of the repository, as a path relative to `root`: the root
/// package (`.`), each directory holding a `Cargo.toml` under `crates/`
/// and `crates/vendor/`, and `benchmark/`.
pub fn crate_dirs(root: &Path) -> io::Result<Vec<String>> {
    let mut dirs = vec![".".to_owned()];
    for parent in ["crates", "crates/vendor"] {
        let Ok(entries) = fs::read_dir(root.join(parent)) else {
            continue;
        };
        let mut found: Vec<String> = entries
            .filter_map(|e| e.ok())
            .filter(|e| e.path().join("Cargo.toml").is_file())
            .map(|e| format!("{parent}/{}", e.file_name().to_string_lossy()))
            .collect();
        found.sort();
        dirs.extend(found);
    }
    if root.join("benchmark/Cargo.toml").is_file() {
        dirs.push("benchmark".to_owned());
    }
    Ok(dirs)
}

/// The non-test lines of the crate at `root/dir`.
pub fn count_crate(root: &Path, dir: &str) -> io::Result<u64> {
    let mut total = 0;
    for path in crate::rust_files(&root.join(dir).join("src"))? {
        total += lexer::code_lines(&fs::read_to_string(path)?) as u64;
    }
    Ok(total)
}

/// The report `sphinx-lint lines` prints: one crate a line, then the
/// total.
pub fn report(root: &Path) -> io::Result<String> {
    let mut out = String::new();
    let mut total = 0;
    for dir in crate_dirs(root)? {
        let count = count_crate(root, &dir)?;
        total += count;
        out.push_str(&format!("{count:>7}  {dir}\n"));
    }
    out.push_str(&format!("{total:>7}  total\n"));
    Ok(out)
}
