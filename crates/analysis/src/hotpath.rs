//! Hot-path allocation lint.
//!
//! The planner's per-cycle budget (ROADMAP: "single-digit milliseconds
//! at a million jobs") dies by a thousand hidden `clone()`s. Functions
//! reachable from a `// sphinx-hot` root (see [`crate::callgraph`]) are
//! scanned for allocation-shaped constructs:
//!
//! - `.clone()`, `.to_vec()`, `.to_owned()`, `.into_owned()`, `.collect(...)`
//! - `format!(...)`, `String::from(...)`, `Box::new(...)`
//! - `Vec::new()` inside a loop body
//!
//! Every finding is a *warning* gated by the `hot-alloc` budget in
//! `ratchets.toml`: grandfathered sites are tolerated but counted, and
//! the count may only go down. A deliberate allocation (cold error
//! path, amortized growth) carries `// sphinx-lint: allow(hot-alloc)`
//! and is excluded from the budget.

use crate::callgraph::CallGraph;
use crate::lexer::{SourceFile, Token, TokenKind};
use crate::{Finding, Severity};
use std::collections::BTreeMap;

/// Rule id.
pub const HOT_ALLOC: &str = "hot-alloc";

/// Methods whose call allocates (or clones) the receiver's contents.
const ALLOC_METHODS: &[&str] = &[
    "clone",
    "cloned",
    "to_vec",
    "to_owned",
    "into_owned",
    "collect",
];

/// The hot-path scan result: findings plus per-crate budget counts.
pub struct HotReport {
    pub findings: Vec<Finding>,
    /// Unallowed allocation sites per crate dir, for the ratchet.
    pub counts: BTreeMap<String, u64>,
}

/// Scan every hot-reachable function for allocation-shaped constructs.
pub fn check(files: &[(String, SourceFile)], graph: &CallGraph) -> HotReport {
    let mut findings = Vec::new();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for id in graph.hot_set() {
        let def = &graph.fns[id];
        let (crate_dir, file) = &files[def.file_idx];
        let allows = file.allows();
        let toks = &file.tokens;
        let mut depth = 0u32;
        let mut loop_depths: Vec<u32> = Vec::new();
        let mut pending_loop = false;
        for j in graph.body_indices(id) {
            let t = &toks[j];
            if t.is_punct("{") {
                depth += 1;
                if pending_loop {
                    loop_depths.push(depth);
                    pending_loop = false;
                }
                continue;
            }
            if t.is_punct("}") {
                if loop_depths.last() == Some(&depth) {
                    loop_depths.pop();
                }
                depth = depth.saturating_sub(1);
                continue;
            }
            if t.kind == TokenKind::Ident && matches!(t.text.as_str(), "for" | "while" | "loop") {
                pending_loop = true;
                continue;
            }
            let Some(what) = alloc_at(toks, j, !loop_depths.is_empty()) else {
                continue;
            };
            if allows.get(&t.line).is_some_and(|r| r.contains(HOT_ALLOC)) {
                continue;
            }
            *counts.entry(crate_dir.clone()).or_insert(0) += 1;
            findings.push(Finding {
                file: file.path.clone(),
                line: t.line,
                rule: HOT_ALLOC,
                severity: Severity::Warning,
                message: format!(
                    "{what} in hot-path function `{}`; hoist it, reuse a buffer, or \
                     annotate `// sphinx-lint: allow(hot-alloc)`",
                    def.qualified_name()
                ),
            });
        }
    }
    HotReport { findings, counts }
}

/// Is the token at `j` the head of an allocation-shaped construct?
fn alloc_at(toks: &[Token], j: usize, in_loop: bool) -> Option<String> {
    let t = &toks[j];
    if t.kind != TokenKind::Ident {
        return None;
    }
    let prev_is = |s: &str| j > 0 && toks[j - 1].is_punct(s);
    let next_is = |s: &str| toks.get(j + 1).is_some_and(|n| n.is_punct(s));
    let name = t.text.as_str();

    // `.clone()` / `.to_vec()` / `.to_owned()` / `.collect(…)`, with or
    // without a turbofish.
    if prev_is(".") && ALLOC_METHODS.contains(&name) && (next_is("(") || next_is("::")) {
        return Some(format!("`.{name}()` allocates"));
    }
    // `format!(…)`.
    if name == "format" && next_is("!") {
        return Some("`format!` allocates a String".to_owned());
    }
    // `String::from(…)` / `Box::new(…)` / `Vec::new()`-in-loop.
    if next_is("::")
        && toks.get(j + 2).is_some_and(|n| n.kind == TokenKind::Ident)
        && toks.get(j + 3).is_some_and(|n| n.is_punct("("))
        && !prev_is("::")
    {
        let method = toks[j + 2].text.as_str();
        match (name, method) {
            ("String", "from") => return Some("`String::from` allocates".to_owned()),
            ("Box", "new") => return Some("`Box::new` allocates".to_owned()),
            ("Vec", "new") if in_loop => {
                return Some("`Vec::new` inside a loop allocates per iteration".to_owned())
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(src: &str) -> HotReport {
        let files = vec![("crates/x".to_owned(), SourceFile::lex("x.rs", src))];
        let graph = CallGraph::build(&files);
        check(&files, &graph)
    }

    #[test]
    fn cold_code_is_not_scanned() {
        let r = report("fn cold(v: &[u8]) { let _ = v.to_vec(); }");
        assert!(r.findings.is_empty());
    }

    #[test]
    fn hot_roots_and_callees_are_scanned() {
        let src = "// sphinx-hot\nfn hot() { helper(); }\nfn helper(v: &[u8]) { v.to_vec(); }\n";
        let r = report(src);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].line, 3);
        assert_eq!(r.counts["crates/x"], 1);
    }

    #[test]
    fn cow_into_owned_is_an_allocation() {
        let src = "// sphinx-hot\nfn hot(name: Cow<str>) {\n    let _ = name.into_owned();\n}\n";
        let r = report(src);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, HOT_ALLOC);
        assert_eq!(r.findings[0].line, 3);
        assert_eq!(r.counts["crates/x"], 1);
    }

    #[test]
    fn vec_new_only_counts_inside_loops() {
        let src = "// sphinx-hot\nfn hot() {\n    let a = Vec::new();\n    for _ in 0..3 {\n        let b = Vec::new();\n    }\n}\n";
        let r = report(src);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].line, 5);
    }

    #[test]
    fn allow_comment_suppresses_and_uncounts() {
        let src = "// sphinx-hot\nfn hot(v: &[u8]) {\n    // sphinx-lint: allow(hot-alloc)\n    let _ = v.to_vec();\n}\n";
        let r = report(src);
        assert!(r.findings.is_empty());
        assert!(r.counts.is_empty());
    }
}
