//! Lock-discipline lint: canonical acquisition order and re-entry.
//!
//! `parking_lot` mutexes do not detect recursion or ordering cycles —
//! a `Database` method that re-locks `tables`, or two paths that nest
//! `wal` and `tables` in opposite orders, deadlocks the server at
//! runtime with no diagnostics. This pass knows the workspace's named
//! lock fields ([`default_spec`]), finds every `self.<field>.lock()` /
//! `.read()` / `.write()` acquisition, models the guard's scope from
//! the statement shape, and propagates "locks this function may take"
//! along call edges ([`crate::callgraph`]). It rejects:
//!
//! - `lock-order`: acquiring a lock (directly or via a call) while
//!   holding one of *higher* rank than it — an inversion of the
//!   canonical order declared in the spec.
//! - `lock-reentry`: acquiring (directly or via a call) a lock already
//!   held.
//!
//! Guard scopes are inferred from the statement head: a `let` binds a
//! block-scoped guard (releasable early by `drop(name)`); an `if` /
//! `while` / `match` / `for` scrutinee holds through the following
//! block (Rust temporary-lifetime rules); any other chained temporary
//! (`self.wal.lock().append(..)?;`) is released at the statement's `;`.

use crate::callgraph::CallGraph;
use crate::lexer::{SourceFile, TokenKind};
use crate::{Finding, Severity};
use std::collections::{BTreeMap, BTreeSet};

/// Rule ids.
pub const LOCK_ORDER: &str = "lock-order";
pub const LOCK_REENTRY: &str = "lock-reentry";

/// One named lock in the canonical order (lower rank acquired first).
#[derive(Debug, Clone)]
pub struct LockClass {
    /// Canonical label, e.g. `db.tables`.
    pub name: &'static str,
    /// Position in the canonical order; nesting must be rank-increasing.
    pub rank: u32,
    /// The impl type whose `self.<field>` owns the lock.
    pub owner: &'static str,
    /// The field holding the `Mutex`/`RwLock`.
    pub field: &'static str,
}

/// The workspace's declared locks.
#[derive(Debug, Clone, Default)]
pub struct LockSpec {
    pub classes: Vec<LockClass>,
}

/// The canonical lock order for this workspace (see DESIGN.md). The
/// shard runtime's lease table is rows in the coordination `Database`,
/// so it is covered transitively by the `db.*` classes.
pub fn default_spec() -> LockSpec {
    LockSpec {
        classes: vec![
            LockClass {
                name: "db.tables",
                rank: 10,
                owner: "Database",
                field: "tables",
            },
            LockClass {
                name: "db.wal",
                rank: 40,
                owner: "Database",
                field: "wal",
            },
            LockClass {
                name: "wal.lines",
                rank: 50,
                owner: "MemWal",
                field: "lines",
            },
            LockClass {
                name: "db.telemetry",
                rank: 60,
                owner: "Database",
                field: "telemetry",
            },
            LockClass {
                name: "telemetry.inner",
                rank: 70,
                owner: "Telemetry",
                field: "inner",
            },
        ],
    }
}

/// The lock scan result: findings plus per-crate hot-acquisition counts.
pub struct LockReport {
    pub findings: Vec<Finding>,
    /// Direct acquisition sites in hot-reachable functions, per crate,
    /// for the `hot-lock-acquisitions` ratchet budget.
    pub hot_counts: BTreeMap<String, u64>,
}

/// How long an acquired guard stays held.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Scope {
    /// `let g = …lock();` — until the enclosing block (at this depth)
    /// closes, or an explicit `drop(g)`.
    Block(u32),
    /// `if let … = …lock()` / `match …lock()` / `for … in …lock()…` —
    /// not yet entered; becomes `Block` at the next `{`.
    PendingBlock,
    /// A plain chained temporary — until the statement's `;`.
    Statement,
}

#[derive(Debug, Clone)]
struct Held {
    class: usize,
    scope: Scope,
    bind: Option<String>,
    line: u32,
}

/// Run the lock-discipline analysis over every function in the graph.
pub fn check(files: &[(String, SourceFile)], graph: &CallGraph, spec: &LockSpec) -> LockReport {
    // Locks each function may acquire, transitively (fixpoint over the
    // call graph; edges are a static over-approximation so a simple
    // iterate-until-stable loop converges).
    let direct: Vec<BTreeSet<usize>> = (0..graph.fns.len())
        .map(|id| {
            direct_acquisitions(files, graph, spec, id)
                .into_iter()
                .map(|(c, _, _)| c)
                .collect()
        })
        .collect();
    let mut trans = direct.clone();
    loop {
        let mut changed = false;
        for id in 0..graph.fns.len() {
            for callee in graph.edges[id].clone() {
                let add: Vec<usize> = trans[callee].difference(&trans[id]).copied().collect();
                if !add.is_empty() {
                    trans[id].extend(add);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    let hot = graph.hot_set();
    let mut findings = Vec::new();
    let mut hot_counts: BTreeMap<String, u64> = BTreeMap::new();
    for id in 0..graph.fns.len() {
        let def = &graph.fns[id];
        let (crate_dir, file) = &files[def.file_idx];
        let allows = file.allows();
        let acquisitions = direct_acquisitions(files, graph, spec, id);
        if acquisitions.is_empty() && graph.call_sites[id].is_empty() {
            continue;
        }
        if hot.contains(&id) {
            *hot_counts.entry(crate_dir.clone()).or_insert(0) += acquisitions.len() as u64;
        }

        // Walk the body once, maintaining the held set, and check each
        // acquisition and call event against it.
        let toks = &file.tokens;
        let acq_by_idx: BTreeMap<usize, usize> =
            acquisitions.iter().map(|&(c, idx, _)| (idx, c)).collect();
        let call_by_idx: BTreeMap<usize, &[usize]> = graph.call_sites[id]
            .iter()
            .map(|cs| (cs.token_idx, cs.callees.as_slice()))
            .collect();
        let mut held: Vec<Held> = Vec::new();
        let mut depth = 0u32;
        let body = graph.body_indices(id);
        for (pos, &j) in body.iter().enumerate() {
            let t = &toks[j];
            if t.is_punct("{") {
                depth += 1;
                for h in &mut held {
                    if h.scope == Scope::PendingBlock {
                        h.scope = Scope::Block(depth);
                    }
                }
                continue;
            }
            if t.is_punct("}") {
                held.retain(|h| h.scope != Scope::Block(depth));
                depth = depth.saturating_sub(1);
                continue;
            }
            if t.is_punct(";") {
                held.retain(|h| !matches!(h.scope, Scope::Statement | Scope::PendingBlock));
                continue;
            }
            // `drop(name)` releases a named guard early.
            if t.is_ident("drop")
                && toks.get(j + 1).is_some_and(|n| n.is_punct("("))
                && toks.get(j + 2).is_some_and(|n| n.kind == TokenKind::Ident)
            {
                let name = &toks[j + 2].text;
                held.retain(|h| h.bind.as_ref() != Some(name));
                continue;
            }
            if let Some(&class) = acq_by_idx.get(&j) {
                let line = t.line;
                check_event(
                    spec,
                    &held,
                    class,
                    line,
                    def,
                    None,
                    &allows,
                    file,
                    &mut findings,
                );
                held.push(Held {
                    class,
                    scope: statement_scope(toks, &body, pos, depth),
                    bind: statement_binding(toks, &body, pos),
                    line,
                });
                continue;
            }
            if let Some(callees) = call_by_idx.get(&j) {
                if held.is_empty() {
                    continue;
                }
                for &callee in *callees {
                    for &class in &trans[callee] {
                        check_event(
                            spec,
                            &held,
                            class,
                            t.line,
                            def,
                            Some(&graph.fns[callee].qualified_name()),
                            &allows,
                            file,
                            &mut findings,
                        );
                    }
                }
            }
        }
    }
    LockReport {
        findings,
        hot_counts,
    }
}

/// Check one acquisition (direct or via `callee`) against the held set.
#[allow(clippy::too_many_arguments)]
fn check_event(
    spec: &LockSpec,
    held: &[Held],
    class: usize,
    line: u32,
    def: &crate::callgraph::FnDef,
    via: Option<&str>,
    allows: &BTreeMap<u32, BTreeSet<&str>>,
    file: &SourceFile,
    findings: &mut Vec<Finding>,
) {
    for h in held {
        let (rule, detail) = if h.class == class {
            (
                LOCK_REENTRY,
                format!(
                    "re-enters `{}` already locked at line {}",
                    spec.classes[class].name, h.line
                ),
            )
        } else if spec.classes[h.class].rank > spec.classes[class].rank {
            (
                LOCK_ORDER,
                format!(
                    "acquires `{}` while holding `{}` (locked at line {}), inverting the \
                     canonical order",
                    spec.classes[class].name, spec.classes[h.class].name, h.line
                ),
            )
        } else {
            continue;
        };
        if allows.get(&line).is_some_and(|r| r.contains(rule)) {
            continue;
        }
        let via_note = via
            .map(|f| format!(" via call to `{f}`"))
            .unwrap_or_default();
        findings.push(Finding {
            file: file.path.clone(),
            line,
            rule,
            severity: Severity::Error,
            message: format!("`{}`{via_note} {detail}", def.qualified_name()),
        });
    }
}

/// Direct lock acquisitions in `id`'s body: `(class, token index of the
/// field ident, line)` for every `self.<field>.lock()`-shaped site.
fn direct_acquisitions(
    files: &[(String, SourceFile)],
    graph: &CallGraph,
    spec: &LockSpec,
    id: usize,
) -> Vec<(usize, usize, u32)> {
    let def = &graph.fns[id];
    let Some(impl_type) = def.impl_type.as_deref() else {
        return Vec::new();
    };
    let toks = &files[def.file_idx].1.tokens;
    let mut out = Vec::new();
    for j in graph.body_indices(id) {
        let t = &toks[j];
        if !t.is_ident("self") {
            continue;
        }
        // self . <field> . lock|read|write (
        let field_ok = toks.get(j + 1).is_some_and(|n| n.is_punct("."))
            && toks.get(j + 2).is_some_and(|n| n.kind == TokenKind::Ident)
            && toks.get(j + 3).is_some_and(|n| n.is_punct("."))
            && toks
                .get(j + 4)
                .is_some_and(|n| matches!(n.text.as_str(), "lock" | "read" | "write"))
            && toks.get(j + 5).is_some_and(|n| n.is_punct("("));
        if !field_ok {
            continue;
        }
        let field = toks[j + 2].text.as_str();
        if let Some(class) = spec
            .classes
            .iter()
            .position(|c| c.owner == impl_type && c.field == field)
        {
            out.push((class, j + 2, toks[j + 2].line));
        }
    }
    out
}

/// Infer the guard scope from the head of the statement containing the
/// acquisition at `body[pos]`; `depth` is the brace depth there.
fn statement_scope(toks: &[crate::lexer::Token], body: &[usize], pos: usize, depth: u32) -> Scope {
    match statement_head(toks, body, pos) {
        Some("let") => Scope::Block(depth),
        Some("if" | "while" | "match" | "for" | "else") => Scope::PendingBlock,
        _ => Scope::Statement,
    }
}

/// The bound name of a `let <name> = …lock();` guard, for `drop(name)`.
fn statement_binding(toks: &[crate::lexer::Token], body: &[usize], pos: usize) -> Option<String> {
    let head = statement_head_idx(toks, body, pos)?;
    if !toks[body[head]].is_ident("let") {
        return None;
    }
    let mut k = head + 1;
    while k < body.len() && toks[body[k]].is_ident("mut") {
        k += 1;
    }
    let t = &toks[*body.get(k)?];
    (t.kind == TokenKind::Ident).then(|| t.text.clone())
}

fn statement_head<'a>(
    toks: &'a [crate::lexer::Token],
    body: &[usize],
    pos: usize,
) -> Option<&'a str> {
    let head = statement_head_idx(toks, body, pos)?;
    let t = &toks[body[head]];
    (t.kind == TokenKind::Ident).then_some(t.text.as_str())
}

/// Index (into `body`) of the first token of the statement containing
/// `body[pos]`: the token after the nearest preceding `;`, `{` or `}`.
fn statement_head_idx(toks: &[crate::lexer::Token], body: &[usize], pos: usize) -> Option<usize> {
    let mut k = pos;
    while k > 0 {
        let t = &toks[body[k - 1]];
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            break;
        }
        k -= 1;
    }
    (k < body.len()).then_some(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> LockSpec {
        LockSpec {
            classes: vec![
                LockClass {
                    name: "s.a",
                    rank: 10,
                    owner: "S",
                    field: "a",
                },
                LockClass {
                    name: "s.b",
                    rank: 20,
                    owner: "S",
                    field: "b",
                },
            ],
        }
    }

    fn run(src: &str) -> Vec<Finding> {
        let files = vec![("crates/x".to_owned(), SourceFile::lex("x.rs", src))];
        let graph = CallGraph::build(&files);
        check(&files, &graph, &spec()).findings
    }

    #[test]
    fn ordered_nesting_is_clean() {
        let src =
            "impl S { fn f(&self) {\n    let a = self.a.lock();\n    let b = self.b.lock();\n} }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn inverted_nesting_is_an_error() {
        let src =
            "impl S { fn f(&self) {\n    let b = self.b.lock();\n    let a = self.a.lock();\n} }";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, LOCK_ORDER);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn reentry_is_an_error() {
        let src =
            "impl S { fn f(&self) {\n    let a = self.a.lock();\n    let a2 = self.a.lock();\n} }";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, LOCK_REENTRY);
    }

    #[test]
    fn statement_temporary_releases_at_semicolon() {
        let src =
            "impl S { fn f(&self) {\n    self.b.lock().push(1);\n    let a = self.a.lock();\n} }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn drop_releases_a_named_guard() {
        let src = "impl S { fn f(&self) {\n    let b = self.b.lock();\n    drop(b);\n    let a = self.a.lock();\n} }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn if_let_scrutinee_holds_through_the_block() {
        let src = "impl S { fn f(&self) {\n    if let Some(v) = self.b.lock().get() {\n        let a = self.a.lock();\n    }\n    let a2 = self.a.lock();\n} }";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, LOCK_ORDER);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn inversion_through_a_call_is_detected() {
        let src = "impl S {\n    fn low(&self) { let a = self.a.lock(); }\n    fn f(&self) {\n        let b = self.b.lock();\n        self.low();\n    }\n}";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, LOCK_ORDER);
        assert_eq!(f[0].line, 5);
        assert!(f[0].message.contains("via call to `S::low`"));
    }

    #[test]
    fn allow_comment_suppresses() {
        let src = "impl S { fn f(&self) {\n    let b = self.b.lock();\n    // sphinx-lint: allow(lock-order)\n    let a = self.a.lock();\n} }";
        assert!(run(src).is_empty());
    }
}
