//! Fixture-driven self-tests for the analyzers, plus the workspace
//! self-check: the real repo must come out clean.
//!
//! The fixtures live in `tests/fixtures/` (not compiled by cargo; they
//! exist only to be lexed) and each one encodes the exact rule ids and
//! line numbers it must produce.

use sphinx_analysis::callgraph::CallGraph;
use sphinx_analysis::lexer::SourceFile;
use sphinx_analysis::{determinism, fsa, has_errors, hotpath, locks, panics, run_check, Finding};
use std::path::Path;

fn fixture(name: &str) -> SourceFile {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).unwrap();
    SourceFile::lex(name, &src)
}

/// (rule, line) pairs, sorted, for compact assertions.
fn tags(findings: &[Finding]) -> Vec<(&'static str, u32)> {
    let mut t: Vec<(&'static str, u32)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    t.sort();
    t
}

#[test]
fn clean_fixture_passes_every_analyzer() {
    let f = fixture("clean.rs");
    assert!(determinism::check(&f).is_empty());
    assert!(fsa::check(&f, &[fsa::job_spec(), fsa::dag_spec()]).is_empty());
    assert_eq!(panics::count_file(&f), 0);
}

#[test]
fn wall_clock_fixture_flags_only_the_unallowed_read() {
    let findings = determinism::check(&fixture("wall_clock.rs"));
    assert_eq!(tags(&findings), vec![(determinism::WALL_CLOCK, 4)]);
}

#[test]
fn map_iter_fixture_flags_import_and_signature() {
    let findings = determinism::check(&fixture("map_iter.rs"));
    assert_eq!(
        tags(&findings),
        vec![(determinism::MAP_ITER, 3), (determinism::MAP_ITER, 5)]
    );
}

#[test]
fn unseeded_rng_fixture_flags_thread_rng() {
    let findings = determinism::check(&fixture("unseeded_rng.rs"));
    assert_eq!(tags(&findings), vec![(determinism::UNSEEDED_RNG, 4)]);
}

#[test]
fn fs_read_fixture_flags_open_read_and_shorthand() {
    let findings = determinism::check(&fixture("fs_read.rs"));
    assert_eq!(
        tags(&findings),
        vec![
            (determinism::FS_READ, 8),
            (determinism::FS_READ, 8),
            (determinism::FS_READ, 13)
        ]
    );
}

#[test]
fn env_read_fixture_flags_var() {
    let findings = determinism::check(&fixture("env_read.rs"));
    assert_eq!(tags(&findings), vec![(determinism::ENV_READ, 4)]);
}

#[test]
fn shard_wal_read_fixture_flags_only_the_unallowed_read() {
    let findings = determinism::check(&fixture("shard_wal_read.rs"));
    assert_eq!(tags(&findings), vec![(determinism::SHARD_WAL_READ, 3)]);
}

#[test]
fn fsa_rejects_the_undeclared_finished_to_running_edge() {
    let specs = [fsa::job_spec(), fsa::dag_spec()];
    let findings = fsa::check(&fixture("fsa_illegal_edge.rs"), &specs);
    assert_eq!(tags(&findings), vec![(fsa::ILLEGAL_EDGE, 6)]);
    assert!(findings[0].message.contains("Finished -> Running"));
}

#[test]
fn fsa_rejects_unannotated_and_raw_sites() {
    let specs = [fsa::job_spec(), fsa::dag_spec()];
    let findings = fsa::check(&fixture("fsa_unannotated.rs"), &specs);
    assert_eq!(
        tags(&findings),
        vec![
            (fsa::RAW_ASSIGNMENT, 9),
            (fsa::UNANNOTATED, 5),
            (fsa::UNANNOTATED, 14)
        ]
    );
}

#[test]
fn panic_heavy_fixture_counts_non_test_sites() {
    assert_eq!(panics::count_file(&fixture("panic_heavy.rs")), 7);
}

/// Lex a fixture as a one-file workspace for the interprocedural passes.
fn fixture_files(name: &str) -> Vec<(String, SourceFile)> {
    vec![("crates/fixture".to_owned(), fixture(name))]
}

#[test]
fn hot_alloc_fixture_flags_root_callee_and_loop_but_not_allowed_or_cold() {
    let files = fixture_files("hot_alloc.rs");
    let graph = CallGraph::build(&files);
    let r = hotpath::check(&files, &graph);
    assert_eq!(
        tags(&r.findings),
        vec![
            (hotpath::HOT_ALLOC, 6),  // `.to_vec()` in the hot root
            (hotpath::HOT_ALLOC, 9),  // `Vec::new()` inside the loop
            (hotpath::HOT_ALLOC, 16), // undeclared `.clone()` in the callee
        ]
    );
    assert_eq!(r.counts["crates/fixture"], 3);
}

#[test]
fn lock_fixture_flags_inversion_reentry_and_inversion_via_call() {
    let files = fixture_files("lock_order.rs");
    let graph = CallGraph::build(&files);
    let spec = locks::LockSpec {
        classes: vec![
            locks::LockClass {
                name: "engine.a",
                rank: 10,
                owner: "Engine",
                field: "a",
            },
            locks::LockClass {
                name: "engine.b",
                rank: 20,
                owner: "Engine",
                field: "b",
            },
        ],
    };
    let r = locks::check(&files, &graph, &spec);
    assert_eq!(
        tags(&r.findings),
        vec![
            (locks::LOCK_ORDER, 10),   // `a` acquired under `b` directly
            (locks::LOCK_ORDER, 22),   // same inversion through `takes_a`
            (locks::LOCK_REENTRY, 16), // `a` re-locked while held
        ]
    );
    assert!(
        r.findings
            .iter()
            .any(|f| f.message.contains("via call to `Engine::takes_a`")),
        "the call-mediated inversion names its callee"
    );
}

#[test]
fn workspace_self_check_is_clean() {
    // The analysis crate sits at <root>/crates/analysis.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf();
    let findings = run_check(&root, false).unwrap();
    assert!(
        !has_errors(&findings),
        "workspace must pass its own lint:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn lines_lists_every_crate_and_their_sum() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf();
    let report = sphinx_analysis::lines::report(&root).unwrap();
    let rows: Vec<(u64, &str)> = report
        .lines()
        .map(|row| {
            let (count, name) = row.trim_start().split_once("  ").unwrap();
            (count.parse().unwrap(), name)
        })
        .collect();
    let (total, crates) = rows.split_last().unwrap();
    assert_eq!(total.1, "total");
    assert_eq!(total.0, crates.iter().map(|(count, _)| count).sum::<u64>());
    for name in [".", "crates/core", "crates/vendor/serde", "benchmark"] {
        assert!(
            crates.iter().any(|(count, n)| *n == name && *count > 0),
            "{name}"
        );
    }
}
