//! The generalized one-way ratchet: multi-budget `ratchets.toml`.
//!
//! Every count the analyzers produce — panic-capable sites, hot-path
//! allocations, lock acquisitions on hot paths, the vendored stand-ins'
//! non-test lines — is
//! compared per crate against a committed baseline that may only go
//! DOWN. Raising a count fails the build; lowering one produces a
//! reminder to re-record with `sphinx-lint check --update-ratchet`.
//!
//! The file is a minimal TOML subset, parsed by hand (this crate has no
//! serde): `[section]` headers and `"crates/<name>" = <count>` pairs.

use crate::{Finding, Severity};
use std::collections::BTreeMap;

/// Rule id for all budget violations.
pub const RATCHET: &str = "ratchet";

/// `section -> crate dir -> count`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Budgets {
    pub sections: BTreeMap<String, BTreeMap<String, u64>>,
}

impl Budgets {
    /// Record one observed count.
    pub fn set(&mut self, section: &str, crate_dir: &str, count: u64) {
        self.sections
            .entry(section.to_owned())
            .or_default()
            .insert(crate_dir.to_owned(), count);
    }
}

/// Parse a `ratchets.toml`: `[section]` headers, `"key" = value` pairs,
/// `#`-comments and blank lines ignored. Unquoted keys are accepted too.
pub fn parse(content: &str) -> Budgets {
    let mut budgets = Budgets::default();
    let mut section = String::new();
    for line in content.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = name.trim().to_owned();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        let Ok(count) = value.trim().parse::<u64>() else {
            continue;
        };
        if !section.is_empty() && !key.is_empty() {
            budgets.set(&section, key, count);
        }
    }
    budgets
}

/// Render the file for `--update-ratchet`.
pub fn render(budgets: &Budgets) -> String {
    let mut out = String::from(
        "# Static-analysis budgets, enforced by `sphinx-lint check`.\n\
         # Each count may only go DOWN; after burning findings down, re-record\n\
         # with `cargo run -p sphinx-analysis -- check --update-ratchet`.\n\
         #\n\
         # [panics]                panic-capable sites (unwrap/expect/panic!/indexing)\n\
         # [hot-alloc]             allocation sites reachable from a `// sphinx-hot` root\n\
         # [hot-lock-acquisitions] lock acquisitions reachable from a hot root\n\
         # [lines]                 non-test lines of a vendored stand-in (`sphinx-lint lines`)\n",
    );
    for (section, counts) in &budgets.sections {
        out.push_str(&format!("\n[{section}]\n"));
        for (key, count) in counts {
            out.push_str(&format!("\"{key}\" = {count}\n"));
        }
    }
    out
}

/// Compare observed counts to the committed baseline.
pub fn check(observed: &Budgets, baseline: &Budgets, ratchet_path: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let empty = BTreeMap::new();
    for (section, counts) in &observed.sections {
        let base = baseline.sections.get(section).unwrap_or(&empty);
        for (key, &count) in counts {
            match base.get(key) {
                None if count > 0 => findings.push(finding(
                    ratchet_path,
                    Severity::Error,
                    format!(
                        "no `{section}` budget recorded for `{key}` (found {count}); \
                         run `sphinx-lint check --update-ratchet`"
                    ),
                )),
                None => {}
                Some(&budget) if count > budget => findings.push(finding(
                    ratchet_path,
                    Severity::Error,
                    format!(
                        "`{key}` has {count} `{section}` findings, budget is {budget}; \
                         fix the new sites instead of raising the budget"
                    ),
                )),
                Some(&budget) if count < budget => findings.push(finding(
                    ratchet_path,
                    Severity::Warning,
                    format!(
                        "`{key}` is below its `{section}` budget ({count} < {budget}); \
                         lock in the progress with `sphinx-lint check --update-ratchet`"
                    ),
                )),
                Some(_) => {}
            }
        }
    }
    findings
}

fn finding(path: &str, severity: Severity, message: String) -> Finding {
    Finding {
        file: path.to_owned(),
        line: 0,
        rule: RATCHET,
        severity,
        message,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let mut b = Budgets::default();
        b.set("panics", "crates/core", 24);
        b.set("hot-alloc", "crates/db", 3);
        b.set("hot-alloc", "crates/core", 0);
        assert_eq!(parse(&render(&b)), b);
    }

    #[test]
    fn regressions_fail_and_progress_warns() {
        let mut base = Budgets::default();
        base.set("hot-alloc", "crates/core", 5);
        let mut obs = base.clone();
        assert!(check(&obs, &base, "r.toml").is_empty());

        obs.set("hot-alloc", "crates/core", 6);
        let up = check(&obs, &base, "r.toml");
        assert_eq!(up.len(), 1);
        assert_eq!(up[0].severity, Severity::Error);

        obs.set("hot-alloc", "crates/core", 4);
        let down = check(&obs, &base, "r.toml");
        assert_eq!(down.len(), 1);
        assert_eq!(down[0].severity, Severity::Warning);
    }

    #[test]
    fn unrecorded_sections_only_fail_when_nonzero() {
        let base = Budgets::default();
        let mut obs = Budgets::default();
        obs.set("panics", "crates/core", 0);
        assert!(check(&obs, &base, "r.toml").is_empty());
        obs.set("panics", "crates/core", 2);
        let f = check(&obs, &base, "r.toml");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].severity, Severity::Error);
    }
}
