//! `sphinx-lint unused`: the `pub fn`s that no non-test code calls.
//!
//! A `pub fn` of a workspace crate counts as used when its name is spelled
//! as an identifier, anywhere but in a `fn` definition, in the non-test
//! code of `crates/`, `src/`, `examples/` or `benchmark/src`. The lexer
//! strips `#[cfg(test)]` items, and no `tests/` directory is read. Calls
//! are matched by name alone, so a function that shares its name with one
//! in use reads as used: the list errs towards "used". `check` gates each
//! crate's count as the `[unused-pub]` ratchet.

use crate::lexer::{SourceFile, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;

/// Where calls are searched for, relative to the workspace root.
const SEARCH: &[&str] = &["crates", "src", "examples", "benchmark/src"];

/// One unused `pub fn`: the file and line defining it, and its name.
pub type Unused = (String, u32, String);

/// The text of the token `k` before `tokens[i]`, or "" before the start.
fn back(tokens: &[Token], i: usize, k: usize) -> &str {
    i.checked_sub(k).map_or("", |j| tokens[j].text.as_str())
}

/// The `pub fn`s of `defs` (crate dir, file) whose names no file of `uses`
/// spells, by crate dir. Every crate of `defs` has an entry.
pub fn unused_in(
    defs: &[(String, SourceFile)],
    uses: &[SourceFile],
) -> BTreeMap<String, Vec<Unused>> {
    let mut used = BTreeSet::new();
    for tokens in uses.iter().map(|f| &f.tokens) {
        for (i, t) in tokens.iter().enumerate() {
            if t.kind == TokenKind::Ident && back(tokens, i, 1) != "fn" {
                used.insert(t.text.as_str());
            }
        }
    }
    let mut out: BTreeMap<String, Vec<Unused>> = BTreeMap::new();
    for (crate_dir, file) in defs {
        let found = out.entry(crate_dir.clone()).or_default();
        for (i, name) in file.tokens.iter().enumerate() {
            // `pub fn`, `pub const fn` and the like; not `pub(crate) fn`.
            let qualified = matches!(back(&file.tokens, i, 2), "const" | "unsafe" | "async");
            let is_pub = back(&file.tokens, i, 2 + usize::from(qualified)) == "pub";
            if back(&file.tokens, i, 1) == "fn" && is_pub && !used.contains(name.text.as_str()) {
                found.push((file.path.clone(), name.line, name.text.clone()));
            }
        }
    }
    out
}

/// [`unused_in`] over the workspace at `root`: the definitions of every
/// crate but the vendored ones and `benchmark/`, the calls of [`SEARCH`].
pub fn find(root: &Path) -> io::Result<BTreeMap<String, Vec<Unused>>> {
    let mut defs = Vec::new();
    for dir in crate::lines::crate_dirs(root)? {
        if !dir.starts_with("crates/vendor/") && dir != "benchmark" {
            for file in crate::lex_crate(root, &dir)? {
                defs.push((dir.clone(), file));
            }
        }
    }
    let mut uses = Vec::new();
    for dir in SEARCH.iter().map(|d| root.join(d)).filter(|d| d.is_dir()) {
        for path in crate::rust_files(&dir)? {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            if !rel.components().any(|c| c.as_os_str() == "tests") {
                uses.push(SourceFile::lex("", &fs::read_to_string(&path)?));
            }
        }
    }
    Ok(unused_in(&defs, &uses))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pub_fn_is_used_only_by_a_call_outside_its_definition() {
        let src = "pub fn called() {}\npub const fn idle() {}\npub(crate) fn private() {}\n\
                   fn helper() { called(); }\n#[cfg(test)]\nmod tests { fn t() { super::idle(); } }\n";
        let defs = vec![("crates/x".to_owned(), SourceFile::lex("x.rs", src))];
        let found = unused_in(&defs, &[SourceFile::lex("", src)]);
        assert_eq!(
            found["crates/x"],
            vec![("x.rs".to_owned(), 2, "idle".to_owned())]
        );
    }
}
