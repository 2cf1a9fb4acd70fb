//! Determinism lints for sim-facing crates.
//!
//! SPHINX's fault-tolerance story depends on replayable runs: the
//! telemetry test suite asserts byte-identical traces across replays,
//! and the bench harness compares strategies on identical seeds. Any
//! wall-clock read, hash-order iteration or ambient-state access inside
//! the simulation pipeline silently breaks that. These rules forbid the
//! usual suspects at the token level; the escape hatch is an explicit
//! `// sphinx-lint: allow(<rule>)` on or above the offending line, which
//! turns every exception into a reviewed, documented decision.

use crate::lexer::SourceFile;
use crate::{Finding, Severity};

/// Rule: wall-clock reads (`Instant`, `SystemTime`).
pub const WALL_CLOCK: &str = "wall-clock";
/// Rule: hash-order iteration hazards (`HashMap`, `HashSet`).
pub const MAP_ITER: &str = "map-iter";
/// Rule: unseeded randomness (`thread_rng`, `from_entropy`, `OsRng`).
pub const UNSEEDED_RNG: &str = "unseeded-rng";
/// Rule: ambient filesystem reads.
pub const FS_READ: &str = "fs-read";
/// Rule: environment-variable reads.
pub const ENV_READ: &str = "env-read";
/// Rule: OS-thread spawning (`thread::spawn`, `thread::scope`,
/// `thread::Builder`). Thread interleaving is nondeterministic; only the
/// bench harness may fan out (its `parallel_map` merges results in input
/// order), so the sim crates get this rule and the bench crate does not.
pub const THREAD: &str = "thread-spawn";
/// Rule: cross-shard WAL reads (`segment_of`). A shard owns its WAL
/// namespace exclusively; the only legitimate reader of *another* shard's
/// segment is the crash-adoption path, and every such site must carry an
/// explicit allow so the isolation boundary stays reviewable.
pub const SHARD_WAL_READ: &str = "shard-wal-read";

/// Every determinism rule, for `--help` and the fixture tests.
pub const ALL_RULES: &[&str] = &[
    WALL_CLOCK,
    MAP_ITER,
    UNSEEDED_RNG,
    FS_READ,
    ENV_READ,
    THREAD,
    SHARD_WAL_READ,
];

/// Scan one file with the full rule set.
pub fn check(file: &SourceFile) -> Vec<Finding> {
    scan(file, ALL_RULES)
}

/// Scan one file with a subset of rules (the bench crate measures real
/// elapsed time on purpose everywhere except its figure harness, so it
/// only gets the wall-clock rule).
pub fn scan(file: &SourceFile, rules: &[&str]) -> Vec<Finding> {
    let allows = file.allows();
    let mut findings = Vec::new();
    let toks = &file.tokens;

    let mut emit = |rule: &'static str, line: u32, message: String| {
        let allowed = allows.get(&line).is_some_and(|set| set.contains(rule));
        if !allowed && rules.contains(&rule) {
            findings.push(Finding {
                file: file.path.clone(),
                line,
                rule,
                severity: Severity::Error,
                message,
            });
        }
    };

    for (i, t) in toks.iter().enumerate() {
        if t.kind != crate::lexer::TokenKind::Ident {
            continue;
        }
        let next_is = |j: usize, s: &str| toks.get(i + j).is_some_and(|t| t.is_punct(s));
        let ident_at = |j: usize| toks.get(i + j).map(|t| t.text.as_str());
        match t.text.as_str() {
            "Instant" | "SystemTime" => emit(
                WALL_CLOCK,
                t.line,
                format!(
                    "`{}` reads the wall clock; sim-facing code must take time from `SimTime`",
                    t.text
                ),
            ),
            "HashMap" | "HashSet" => emit(
                MAP_ITER,
                t.line,
                format!(
                    "`{}` iterates in hash order; use `BTreeMap`/`BTreeSet` for replayable runs",
                    t.text
                ),
            ),
            "thread_rng" | "from_entropy" | "OsRng" => emit(
                UNSEEDED_RNG,
                t.line,
                format!(
                    "`{}` is unseeded randomness; derive a `SimRng` from the run seed",
                    t.text
                ),
            ),
            // `File::open` / `fs::read*` / bare `read_to_string`.
            "File" if next_is(1, "::") && ident_at(2) == Some("open") => emit(
                FS_READ,
                t.line,
                "`File::open` is an ambient filesystem read inside a sim-facing crate".to_owned(),
            ),
            "fs" if next_is(1, "::")
                && matches!(
                    ident_at(2),
                    Some("read" | "read_to_string" | "read_dir" | "metadata")
                ) =>
            {
                emit(
                    FS_READ,
                    t.line,
                    format!(
                        "`fs::{}` is an ambient filesystem read inside a sim-facing crate",
                        ident_at(2).unwrap_or_default()
                    ),
                )
            }
            // Method-call form only; the path form was flagged at `fs::`.
            "read_to_string" if i > 0 && toks[i - 1].is_punct(".") => emit(
                FS_READ,
                t.line,
                "`read_to_string` is an ambient filesystem read inside a sim-facing crate"
                    .to_owned(),
            ),
            "thread"
                if next_is(1, "::")
                    && matches!(ident_at(2), Some("spawn" | "scope" | "Builder")) =>
            {
                emit(
                    THREAD,
                    t.line,
                    format!(
                        "`thread::{}` introduces nondeterministic interleaving; fan out only in the bench harness",
                        ident_at(2).unwrap_or_default()
                    ),
                )
            }
            "segment_of" => emit(
                SHARD_WAL_READ,
                t.line,
                "`segment_of` crosses the per-shard WAL boundary; only the adoption path may, \
                 with an explicit `allow(shard-wal-read)`"
                    .to_owned(),
            ),
            "env" if next_is(1, "::") && matches!(ident_at(2), Some("var" | "var_os" | "vars")) => {
                emit(
                    ENV_READ,
                    t.line,
                    format!(
                        "`env::{}` makes behaviour depend on the environment",
                        ident_at(2).unwrap_or_default()
                    ),
                )
            }
            _ => {}
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(src: &str) -> SourceFile {
        SourceFile::lex("mem.rs", src)
    }

    #[test]
    fn clean_code_has_no_findings() {
        let f = lex("use std::collections::BTreeMap;\nfn t(now: u64) -> u64 { now + 1 }\n");
        assert!(check(&f).is_empty());
    }

    #[test]
    fn each_rule_fires_on_its_token() {
        let cases = [
            ("let t = Instant::now();", WALL_CLOCK),
            ("let t = SystemTime::now();", WALL_CLOCK),
            ("let m: HashMap<u32, u32> = HashMap::new();", MAP_ITER),
            ("let r = thread_rng();", UNSEEDED_RNG),
            ("let s = File::open(p)?;", FS_READ),
            ("let s = std::fs::read_to_string(p)?;", FS_READ),
            ("let v = std::env::var(\"X\");", ENV_READ),
            ("let h = thread::spawn(f);", THREAD),
            ("std::thread::scope(|s| run(s));", THREAD),
            ("let t = std::thread::Builder::new().spawn(f);", THREAD),
            ("let w = wals.segment_of(peer);", SHARD_WAL_READ),
        ];
        for (src, rule) in cases {
            let findings = check(&lex(src));
            assert!(
                findings.iter().any(|f| f.rule == rule),
                "{src:?} should trip {rule}"
            );
        }
    }

    #[test]
    fn allow_suppresses_same_and_next_line() {
        let trailing = "let t = Instant::now(); // sphinx-lint: allow(wall-clock)\n";
        assert!(check(&lex(trailing)).is_empty());
        let standalone = "// sphinx-lint: allow(wall-clock)\nlet t = Instant::now();\n";
        assert!(check(&lex(standalone)).is_empty());
        let too_far = "// sphinx-lint: allow(wall-clock)\n\nlet t = Instant::now();\n";
        assert_eq!(check(&lex(too_far)).len(), 1);
    }

    #[test]
    fn allow_is_rule_specific() {
        let src = "let t = Instant::now(); // sphinx-lint: allow(map-iter)\n";
        assert_eq!(check(&lex(src)).len(), 1);
    }

    #[test]
    fn rule_subset_limits_scan() {
        let src = "let m = HashMap::new();\nlet t = Instant::now();\n";
        let findings = scan(&lex(src), &[WALL_CLOCK]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, WALL_CLOCK);
    }
}
