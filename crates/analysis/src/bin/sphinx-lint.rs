//! Command-line front end: `cargo run -p sphinx-analysis -- check`,
//! `-- lines` for each crate's non-test line count, or `-- unused` for the
//! `pub fn`s no non-test code calls.
//!
//! Exit status 0 means no errors (warnings are printed but tolerated);
//! 1 means at least one error; 2 means the tool itself could not run.

use sphinx_analysis::{find_workspace_root, has_errors, run_check, Finding, Severity};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: sphinx-lint check [--update-ratchet] [--json]");
    eprintln!("       sphinx-lint lines");
    eprintln!("       sphinx-lint unused");
    eprintln!("       sphinx-lint validate-prom <file>");
    eprintln!();
    eprintln!("Runs the workspace static-analysis pass:");
    eprintln!("  - determinism lints over the sim-facing crates");
    eprintln!(
        "    (rules: {})",
        sphinx_analysis::determinism::ALL_RULES.join(", ")
    );
    eprintln!("  - FSA transition-table verification over crates/core");
    eprintln!("  - call-graph hot-path allocation lint (// sphinx-hot roots)");
    eprintln!("  - interprocedural lock-order / lock-reentry lint");
    eprintln!("  - the ratchets.toml budgets (panics, hot-alloc, hot-lock-acquisitions, and the");
    eprintln!("    non-test lines of the vendored stand-ins, unused pub fns)");
    eprintln!();
    eprintln!("  --update-ratchet   re-record all budgets at the observed counts");
    eprintln!("  --json             emit a machine-readable report on stdout");
    eprintln!();
    eprintln!("`lines` prints each crate's non-test line count: lines of code under its");
    eprintln!("src/, outside #[cfg(test)] items, comments and blank lines excluded.");
    eprintln!();
    eprintln!("`unused` lists the pub fns whose names no non-test code spells (by name).");
    eprintln!();
    eprintln!("`validate-prom` parses a Prometheus text-exposition file with the");
    eprintln!("telemetry exporter's own validator (CI runs it on results/metrics.prom).");
    ExitCode::from(2)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render the findings as a JSON report (this crate has no serde).
fn render_json(findings: &[Finding]) -> String {
    let errors = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count();
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"errors\": {errors},\n"));
    out.push_str(&format!("  \"warnings\": {},\n", findings.len() - errors));
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        let sev = match f.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \
             \"severity\": \"{sev}\", \"message\": \"{}\"}}",
            json_escape(&f.file),
            f.line,
            json_escape(f.rule),
            json_escape(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

fn validate_prom(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("sphinx-lint: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match sphinx_telemetry::validate_prometheus(&text) {
        Ok(()) => {
            let samples = text
                .lines()
                .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
                .count();
            println!("sphinx-lint: {path} is valid Prometheus text exposition ({samples} samples)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sphinx-lint: {path}: {e}");
            ExitCode::from(1)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("validate-prom") {
        let [_, path] = args.as_slice() else {
            eprintln!("sphinx-lint: validate-prom takes exactly one file");
            return usage();
        };
        return validate_prom(path);
    }
    let mut update_ratchet = false;
    let mut json = false;
    let mut command = None;
    for arg in &args {
        match arg.as_str() {
            "check" | "lines" | "unused" if command.is_none() => command = Some(arg.as_str()),
            "--update-ratchet" => update_ratchet = true,
            "--json" => json = true,
            "--help" | "-h" => return usage(),
            other => {
                eprintln!("sphinx-lint: unknown argument `{other}`");
                return usage();
            }
        }
    }
    let Some(command) = command else {
        return usage();
    };
    if command != "check" && (update_ratchet || json) {
        eprintln!("sphinx-lint: {command} takes no flags");
        return usage();
    }

    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("sphinx-lint: cannot read current directory: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(root) = find_workspace_root(&cwd) else {
        eprintln!("sphinx-lint: no workspace root (Cargo.toml with [workspace]) above {cwd:?}");
        return ExitCode::from(2);
    };

    if command == "lines" {
        return match sphinx_analysis::lines::report(&root) {
            Ok(report) => {
                print!("{report}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("sphinx-lint: cannot count lines: {e}");
                ExitCode::from(2)
            }
        };
    }

    if command == "unused" {
        let found = match sphinx_analysis::unused::find(&root) {
            Ok(found) => found.into_values().flatten().collect::<Vec<_>>(),
            Err(e) => {
                eprintln!("sphinx-lint: cannot scan for unused pub fns: {e}");
                return ExitCode::from(2);
            }
        };
        for (file, line, name) in &found {
            println!("{file}:{line}: pub fn {name}");
        }
        println!("sphinx-lint: {} unused pub fn(s)", found.len());
        return ExitCode::SUCCESS;
    }

    let findings = match run_check(&root, update_ratchet) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("sphinx-lint: analysis failed: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        print!("{}", render_json(&findings));
        return if has_errors(&findings) {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        };
    }
    for finding in &findings {
        println!("{finding}");
    }
    let errors = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count();
    let warnings = findings.len() - errors;
    if update_ratchet {
        println!("sphinx-lint: ratchets re-recorded");
    }
    if findings.is_empty() {
        println!("sphinx-lint: clean");
    } else {
        println!("sphinx-lint: {errors} error(s), {warnings} warning(s)");
    }
    if has_errors(&findings) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
