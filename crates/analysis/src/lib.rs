//! `sphinx-analysis`: the workspace's own static-analysis pass.
//!
//! Five analyzers run over the sim-facing crates, built on a
//! hand-rolled lexer ([`lexer`]) because the build environment has no
//! crates.io access for `syn`:
//!
//! 1. [`determinism`] — forbids wall clocks, hash-order iteration,
//!    unseeded randomness and ambient filesystem/env reads in crates
//!    that must produce replayable runs.
//! 2. [`fsa`] — verifies every state-assignment site in `sphinx-core`
//!    against the declared FSA transition table (§3.2), which lives in
//!    `sphinx_core::state::can_transition_to` and is linked in directly.
//! 3. [`panics`] — counts panic-capable constructs in the server crates.
//! 4. [`hotpath`] — flags allocation-shaped constructs in functions
//!    reachable from a `// sphinx-hot` root, via the [`callgraph`].
//! 5. [`locks`] — enforces the canonical lock-acquisition order and
//!    rejects re-entry, interprocedurally.
//!
//! Panic, hot-alloc and hot-lock counts feed the one-way budget file
//! `ratchets.toml` enforced by [`ratchet`], and so do the non-test line
//! counts ([`lines`]) of the vendored stand-ins and each crate's count of
//! `pub fn`s no non-test code calls ([`unused`]).
//!
//! Run it as `cargo run -p sphinx-analysis -- check` (CI does).

pub mod callgraph;
pub mod determinism;
pub mod fsa;
pub mod hotpath;
pub mod lexer;
pub mod lines;
pub mod locks;
pub mod panics;
pub mod ratchet;
pub mod unused;

use lexer::SourceFile;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// How bad a finding is: errors fail the build, warnings are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

/// One analyzer finding, reported as `path:line: [rule] message`.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line; 0 when the finding is about a whole file.
    pub line: u32,
    /// Stable rule id, e.g. `wall-clock` or `fsa-illegal-edge`.
    pub rule: &'static str,
    pub severity: Severity,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        if self.line == 0 {
            write!(f, "{}: {tag}[{}] {}", self.file, self.rule, self.message)
        } else {
            write!(
                f,
                "{}:{}: {tag}[{}] {}",
                self.file, self.line, self.rule, self.message
            )
        }
    }
}

/// Crates that must stay deterministic: the whole simulation pipeline,
/// from the clock to the WAL.
pub const SIM_CRATES: &[&str] = &[
    "core",
    "grid",
    "sim",
    "dag",
    "policy",
    "monitor",
    "db",
    "data",
    "telemetry",
    "workloads",
    "ops",
];

/// The bench harness measures real elapsed time on purpose, so it only
/// gets the wall-clock rule (each read must carry an explicit allow).
pub const WALL_CLOCK_ONLY_CRATES: &[&str] = &["bench"];

/// Crates under the panic-path ratchet (the server, its durability
/// layer, and the telemetry hub every hot path calls into — the places
/// a panic loses scheduling state).
pub const PANIC_CRATES: &[&str] = &["crates/core", "crates/db", "crates/ops", "crates/telemetry"];

/// Where the analysis budgets live, relative to the workspace root.
pub const RATCHET_PATH: &str = "crates/analysis/ratchets.toml";

/// Walk upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(content) = fs::read_to_string(&manifest) {
            if content.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// All `.rs` files under `dir`, recursively, in sorted (deterministic)
/// order.
pub(crate) fn rust_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&d)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

fn lex_crate(root: &Path, crate_dir: &str) -> io::Result<Vec<SourceFile>> {
    let src_dir = root.join(crate_dir).join("src");
    let mut out = Vec::new();
    for path in rust_files(&src_dir)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let content = fs::read_to_string(&path)?;
        out.push(SourceFile::lex(&rel, &content));
    }
    Ok(out)
}

/// Run the full analysis pass over the workspace at `root`.
///
/// With `update_ratchet`, the budget baseline is rewritten to the
/// observed counts instead of being enforced.
pub fn run_check(root: &Path, update_ratchet: bool) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();

    // Lex every sim-facing crate exactly once; all analyzers share the
    // token streams.
    let mut files: Vec<(String, SourceFile)> = Vec::new();
    for crate_name in SIM_CRATES {
        let crate_dir = format!("crates/{crate_name}");
        for file in lex_crate(root, &crate_dir)? {
            files.push((crate_dir.clone(), file));
        }
    }

    // 1. Determinism lints.
    for (_, file) in &files {
        findings.extend(determinism::check(file));
    }
    for crate_name in WALL_CLOCK_ONLY_CRATES {
        for file in lex_crate(root, &format!("crates/{crate_name}"))? {
            findings.extend(determinism::scan(&file, &[determinism::WALL_CLOCK]));
        }
    }

    // 2. FSA transition-table verification over the core crate.
    let specs = [fsa::job_spec(), fsa::dag_spec()];
    for (crate_dir, file) in &files {
        if crate_dir != "crates/core" {
            continue;
        }
        if file.path.ends_with("state.rs") {
            for spec in &specs {
                findings.extend(fsa::verify_enum_decl(file, spec));
            }
        }
        findings.extend(fsa::check(file, &specs));
    }

    // 3–4. Interprocedural passes: the call graph feeds the hot-path
    // allocation lint and the lock-discipline lint.
    let graph = callgraph::CallGraph::build(&files);
    let hot = hotpath::check(&files, &graph);
    findings.extend(hot.findings);
    let lock_report = locks::check(&files, &graph, &locks::default_spec());
    findings.extend(lock_report.findings);

    // 5. The unified ratchet: panics, hot-alloc, hot-lock-acquisitions,
    // the size of the vendored stand-ins and the unused `pub fn`s.
    // Every sim crate is recorded (zeros included) so the committed file
    // never churns on key presence.
    let mut observed = ratchet::Budgets::default();
    {
        let mut panic_totals: std::collections::BTreeMap<String, u64> =
            PANIC_CRATES.iter().map(|c| ((*c).to_owned(), 0)).collect();
        for (crate_dir, file) in &files {
            if PANIC_CRATES.contains(&crate_dir.as_str()) {
                *panic_totals.entry(crate_dir.clone()).or_insert(0) += panics::count_file(file);
            }
        }
        for (crate_dir, count) in &panic_totals {
            observed.set("panics", crate_dir, *count);
        }
    }
    for crate_name in SIM_CRATES {
        let crate_dir = format!("crates/{crate_name}");
        observed.set(
            "hot-alloc",
            &crate_dir,
            hot.counts.get(&crate_dir).copied().unwrap_or(0),
        );
        observed.set(
            "hot-lock-acquisitions",
            &crate_dir,
            lock_report.hot_counts.get(&crate_dir).copied().unwrap_or(0),
        );
    }
    for dir in lines::crate_dirs(root)? {
        if dir.starts_with("crates/vendor/") {
            observed.set("lines", &dir, lines::count_crate(root, &dir)?);
        }
    }
    for (crate_dir, found) in unused::find(root)? {
        observed.set("unused-pub", &crate_dir, found.len() as u64);
    }
    let ratchet_file = root.join(RATCHET_PATH);
    if update_ratchet {
        fs::write(&ratchet_file, ratchet::render(&observed))?;
    } else {
        let baseline = fs::read_to_string(&ratchet_file)
            .map(|c| ratchet::parse(&c))
            .unwrap_or_default();
        findings.extend(ratchet::check(&observed, &baseline, RATCHET_PATH));
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
}

/// True when any finding should fail the build.
pub fn has_errors(findings: &[Finding]) -> bool {
    findings.iter().any(|f| f.severity == Severity::Error)
}
