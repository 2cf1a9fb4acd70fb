//! Standard exporters: Chrome trace-event JSON and Prometheus text.
//!
//! Both are hand-rendered (no serializer round-trip, no fallible paths)
//! and deterministic: the same span list / snapshot always produces the
//! same bytes, which the determinism suite compares across same-seed
//! runs.
//!
//! * [`chrome_trace_json`] emits the Trace Event Format consumed by
//!   Perfetto and `chrome://tracing`: complete (`"ph":"X"`) events in
//!   sim-time **microseconds**, one process per layer (scheduler, grid
//!   sites, DAGs) and one thread track per FSA phase / site / DAG.
//! * [`prometheus_text`] renders a [`TelemetrySnapshot`] in text
//!   exposition format v0.0.4 — counters, gauges, cumulative
//!   `_bucket`/`_sum`/`_count` histograms and per-site labelled series —
//!   and [`validate_prometheus`] is the in-repo line-format checker the
//!   golden tests (and CI) run against it.

use crate::span::Span;
use crate::TelemetrySnapshot;
use serde::value::write_escaped;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Process ids used in the Chrome trace (thread ids are per-process).
const PID_SCHEDULER: u64 = 1;
const PID_SITES: u64 = 2;
const PID_DAGS: u64 = 3;

fn is_scheduler_span(span: &Span) -> bool {
    span.name.starts_with("phase:") || span.name.starts_with("wal:")
}

/// Render finished spans as a Chrome trace-event JSON document
/// (Perfetto-loadable). Live spans are skipped — a run that completed
/// cleanly has ended every phase and DAG span it wants plotted.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    // Track layout. Scheduler phases get stable tids in sorted-name
    // order; sites and DAGs use their own ids.
    let mut phase_tids: BTreeMap<&'static str, u64> = BTreeMap::new();
    for span in spans.iter().filter(|s| is_scheduler_span(s)) {
        let next = phase_tids.len() as u64;
        phase_tids.entry(span.name).or_insert(next);
    }
    let mut site_tids: Vec<u32> = spans
        .iter()
        .filter(|s| !is_scheduler_span(s))
        .filter_map(|s| s.site)
        .collect();
    site_tids.sort_unstable();
    site_tids.dedup();
    let mut dag_tids: Vec<u64> = spans
        .iter()
        .filter(|s| !is_scheduler_span(s) && s.site.is_none())
        .map(|s| s.dag.unwrap_or(0))
        .collect();
    dag_tids.sort_unstable();
    dag_tids.dedup();

    let mut events: Vec<String> = Vec::new();
    let mut meta = |pid: u64, tid: u64, kind: &str, name: &str| {
        let mut line = format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{kind}\",\"args\":{{\"name\":"
        );
        let _ = write_escaped(&mut line, name);
        line.push_str("}}");
        events.push(line);
    };
    if !phase_tids.is_empty() {
        meta(PID_SCHEDULER, 0, "process_name", "scheduler");
        for (name, tid) in &phase_tids {
            meta(PID_SCHEDULER, *tid, "thread_name", name);
        }
    }
    if !site_tids.is_empty() {
        meta(PID_SITES, 0, "process_name", "grid sites");
        for site in site_tids.iter().map(|&s| u64::from(s)) {
            meta(PID_SITES, site, "thread_name", &format!("site {site}"));
        }
    }
    if !dag_tids.is_empty() {
        meta(PID_DAGS, 0, "process_name", "dags");
        for dag in &dag_tids {
            meta(PID_DAGS, *dag, "thread_name", &format!("dag {dag}"));
        }
    }

    // One complete event per finished span, in deterministic
    // (start, id) order.
    let mut finished: Vec<&Span> = spans.iter().filter(|s| s.end.is_some()).collect();
    finished.sort_by_key(|s| (s.start, s.id));
    for span in finished {
        let (pid, tid) = if is_scheduler_span(span) {
            (
                PID_SCHEDULER,
                phase_tids.get(span.name).copied().unwrap_or(0),
            )
        } else if let Some(site) = span.site {
            (PID_SITES, u64::from(site))
        } else {
            (PID_DAGS, span.dag.unwrap_or(0))
        };
        let ts_us = span.start.as_millis() * 1_000;
        let dur_us = span.duration_ms() * 1_000;
        let mut line = String::with_capacity(128);
        line.push_str("{\"ph\":\"X\",\"name\":");
        let _ = write_escaped(&mut line, span.name);
        let _ = write!(
            line,
            ",\"ts\":{ts_us},\"dur\":{dur_us},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"span\":{}",
            span.id.0
        );
        let ids = [
            ("parent", span.parent.map(|p| p.0)),
            ("job", span.job),
            ("dag", span.dag),
            ("site", span.site.map(u64::from)),
            ("attempt", span.attempt),
            ("link", span.link.map(|l| l.0)),
        ];
        for (key, id) in ids {
            if let Some(id) = id {
                let _ = write!(line, ",\"{key}\":{id}");
            }
        }
        if !span.detail.is_empty() {
            line.push_str(",\"detail\":");
            let _ = write_escaped(&mut line, &span.detail);
        }
        line.push_str("}}");
        events.push(line);
    }

    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

/// Sanitize a metric name into the Prometheus charset with the `sphinx_`
/// namespace prefix (`fsa.dwell_ms.ready` → `sphinx_fsa_dwell_ms_ready`).
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("sphinx_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Format a sample value the way Prometheus expects (integral floats
/// print bare, `10` not `10.0`).
fn prom_value(v: f64) -> String {
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Render a snapshot in Prometheus text exposition format v0.0.4.
pub fn prometheus_text(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, value) in &snap.gauges {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {}", prom_value(*value));
    }
    for (name, hist) in &snap.histograms {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} histogram");
        let mut cumulative = 0u64;
        for (i, bound) in hist.bounds.iter().enumerate() {
            cumulative += hist.counts.get(i).copied().unwrap_or(0);
            let _ = writeln!(
                out,
                "{n}_bucket{{le=\"{}\"}} {cumulative}",
                prom_value(*bound)
            );
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", hist.count);
        let _ = writeln!(out, "{n}_sum {}", prom_value(hist.sum));
        let _ = writeln!(out, "{n}_count {}", hist.count);
    }
    // Per-site gauge families (monitor staleness / queue depth).
    for (name, per_site) in &snap.site_gauges {
        if per_site.is_empty() {
            continue;
        }
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        for (site, value) in per_site {
            let _ = writeln!(out, "{n}{{site=\"{site}\"}} {}", prom_value(*value));
        }
    }
    // Per-site tallies as labelled counter families.
    type TallyColumn = (&'static str, fn(&crate::SiteTally) -> u64);
    let columns: [TallyColumn; 5] = [
        ("sphinx_site_submits", |t| t.submits),
        ("sphinx_site_starts", |t| t.starts),
        ("sphinx_site_completions", |t| t.completions),
        ("sphinx_site_holds", |t| t.holds),
        ("sphinx_site_cancels", |t| t.cancels),
    ];
    for (family, get) in columns {
        if snap.sites.is_empty() {
            continue;
        }
        let _ = writeln!(out, "# TYPE {family} counter");
        for (site, tally) in &snap.sites {
            let _ = writeln!(out, "{family}{{site=\"{site}\"}} {}", get(tally));
        }
    }
    out
}

/// Whether `s` is a metric name (`colon`) or a label name.
fn valid_name(s: &str, colon: bool) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || c == '_' || (colon && c == ':');
    s.chars().next().is_some_and(|c| !c.is_ascii_digit()) && s.chars().all(ok)
}

/// Split `s`, which starts just past an opening quote, at its closing
/// quote, honouring `\` escapes: the quoted value and what follows it.
fn quoted(s: &str) -> Option<(&str, &str)> {
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' => escaped = true,
            '"' => return Some((s.get(..i)?, s.get(i + 1..)?)),
            _ => {}
        }
    }
    None
}

/// A parsed sample line: its name, its `(label, value)` pairs and its
/// value.
type Sample<'a> = (&'a str, Vec<(&'a str, &'a str)>, f64);

/// Parse one sample line, `name{labels} value [timestamp]`.
fn parse_sample(line: &str) -> Result<Sample<'_>, String> {
    let name_end = line.find(|c: char| c == '{' || c.is_whitespace());
    let (name, mut rest) = line.split_at(name_end.unwrap_or(line.len()));
    if !valid_name(name, true) {
        return Err(format!("invalid metric name `{name}`"));
    }
    let mut labels = Vec::new();
    if let Some(body) = rest.strip_prefix('{') {
        rest = body.trim_start();
        // Scan past each quoted value, so a `}` inside one is text.
        while let Some((label, after)) = rest.split_once('=').filter(|_| !rest.starts_with('}')) {
            let label = label.trim();
            if !valid_name(label, false) {
                return Err(format!("invalid label name `{label}` in `{line}`"));
            }
            let after = after.trim_start().strip_prefix('"');
            let after = after.ok_or_else(|| format!("unquoted label value in `{line}`"))?;
            let (value, after) =
                quoted(after).ok_or_else(|| format!("unterminated label value in `{line}`"))?;
            labels.push((label, value));
            let after = after.trim_start();
            rest = after.strip_prefix(',').unwrap_or(after).trim_start();
        }
        rest = rest
            .strip_prefix('}')
            .ok_or_else(|| format!("unclosed label braces in `{line}`"))?;
    }
    let mut fields = rest.split_whitespace();
    let value = fields
        .next()
        .ok_or_else(|| format!("sample without value: `{line}`"))?;
    if let Some(ts) = fields.next().filter(|ts| ts.parse::<i64>().is_err()) {
        return Err(format!("invalid timestamp `{ts}`"));
    }
    if fields.next().is_some() {
        return Err(format!("trailing fields on `{line}`"));
    }
    Ok((name, labels, parse_sample_value(value)?))
}

fn parse_sample_value(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        other => other
            .parse::<f64>()
            .map_err(|_| format!("invalid sample value `{other}`")),
    }
}

/// Base family name for a sample (strips histogram suffixes).
fn family_of(name: &str) -> &str {
    ["_bucket", "_sum", "_count"]
        .iter()
        .find_map(|suffix| name.strip_suffix(suffix))
        .unwrap_or(name)
}

/// Validate a Prometheus text-exposition v0.0.4 document: line syntax,
/// metric/label name charsets, float-parsable values, `# TYPE` declared
/// at most once and before its samples, and for every histogram family a
/// `+Inf` bucket with non-decreasing cumulative bucket counts.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    let mut types: BTreeMap<&str, &str> = BTreeMap::new();
    let mut sampled: BTreeSet<&str> = BTreeSet::new();
    // Histogram family → its (le, count) buckets in order, and its count.
    let mut hist_buckets: BTreeMap<&str, Vec<(f64, f64)>> = BTreeMap::new();
    let mut hist_counts: BTreeMap<&str, f64> = BTreeMap::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        let fail = |msg: String| Err(format!("line {}: {msg}", lineno + 1));
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (Some(name), Some(ty)) = (parts.next(), parts.next()) else {
                return fail("malformed TYPE line".to_owned());
            };
            if !valid_name(name, true) {
                return fail(format!("invalid metric name `{name}` in TYPE"));
            }
            if !matches!(
                ty,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return fail(format!("unknown metric type `{ty}`"));
            }
            if types.insert(name, ty).is_some() {
                return fail(format!("duplicate TYPE for `{name}`"));
            }
            if sampled.contains(name) {
                return fail(format!("TYPE for `{name}` after its samples"));
            }
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue; // HELP or comment
        }
        let (name, labels, value) = match parse_sample(line) {
            Ok(sample) => sample,
            Err(e) => return fail(e),
        };
        let family = family_of(name);
        sampled.extend([family, name]);
        if types.get(family) != Some(&"histogram") {
            continue;
        }
        if name.ends_with("_bucket") {
            let Some(&(_, le)) = labels.iter().find(|(l, _)| *l == "le") else {
                return fail(format!("histogram bucket `{name}` without le label"));
            };
            let le = match parse_sample_value(le) {
                Ok(v) => v,
                Err(e) => return fail(e),
            };
            hist_buckets.entry(family).or_default().push((le, value));
        } else if name.ends_with("_count") {
            hist_counts.insert(family, value);
        }
    }

    for (family, _) in types.iter().filter(|(_, ty)| **ty == "histogram") {
        let Some(buckets) = hist_buckets.get(family) else {
            return Err(format!("histogram `{family}` has no buckets"));
        };
        let Some(&(_, inf_count)) = buckets.iter().find(|(le, _)| le.is_infinite()) else {
            return Err(format!("histogram `{family}` lacks a +Inf bucket"));
        };
        let mut prev = (f64::NEG_INFINITY, 0.0f64);
        for &(le, count) in buckets {
            if le < prev.0 || count < prev.1 {
                return Err(format!(
                    "histogram `{family}` buckets not cumulative at le={le}"
                ));
            }
            prev = (le, count);
        }
        if let Some(total) = hist_counts.get(family).filter(|t| **t != inf_count) {
            return Err(format!(
                "histogram `{family}` +Inf bucket {inf_count} != count {total}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanStore;
    use crate::{Event, GridStep, JobStep, Telemetry, TraceKind};
    use sphinx_data::SiteId;
    use sphinx_sim::{Duration, SimTime};

    fn job(tel: &Telemetry, at: SimTime, job: u64, step: JobStep) {
        tel.record(at, Event::Job { job, step });
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn sample_spans() -> Vec<crate::Span> {
        let mut store = SpanStore::default();
        let phase = store.start("phase:plan", t(1), Span::default());
        store.end(phase, t(1));
        let dag = store.start(
            "dag",
            t(0),
            Span {
                dag: Some(2),
                ..Span::default()
            },
        );
        let slot = store.start(
            "slot:run",
            t(3),
            Span {
                job: Some(9),
                site: Some(4),
                attempt: Some(1),
                ..Span::default()
            },
        );
        store.end(slot, t(8));
        store.end(dag, t(9));
        store.into_spans()
    }

    #[test]
    fn chrome_trace_has_metadata_and_complete_events() {
        let json = chrome_trace_json(&sample_spans());
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"name\":\"scheduler\""));
        assert!(json.contains("\"name\":\"site 4\""));
        assert!(json.contains("\"name\":\"dag 2\""));
        // slot:run — 3s start → 3_000_000 µs, 5s → 5_000_000 µs.
        assert!(json.contains("\"ts\":3000000,\"dur\":5000000,\"pid\":2,\"tid\":4"));
        // Valid JSON for the vendored parser too.
        let value: serde::Value = serde_json::from_str(&json).unwrap();
        let events = value.get("traceEvents").unwrap().as_array().unwrap();
        assert!(events.len() >= 6);
        for e in events {
            assert!(e.get("ph").is_some());
            assert!(e.get("pid").is_some());
            assert!(e.get("tid").is_some());
        }
    }

    #[test]
    fn chrome_trace_is_deterministic() {
        let a = chrome_trace_json(&sample_spans());
        let b = chrome_trace_json(&sample_spans());
        assert_eq!(a, b);
    }

    #[test]
    fn prometheus_text_round_trips_validator() {
        let tel = Telemetry::new();
        tel.counter_add("plan.cycles", 3);
        tel.gauge_set("monitor.visible_sites", 4.0);
        // Two stays in `ready`: 2 s, then 200 s after a hold.
        let site = SiteId(1);
        job(&tel, t(0), 7, JobStep::Ready { cause: None });
        job(&tel, t(2), 7, JobStep::Submitted { site });
        job(&tel, t(10), 7, JobStep::Held { site });
        job(&tel, t(210), 7, JobStep::Submitted { site });
        let step = GridStep::Submit;
        tel.record(t(210), Event::Grid { site, job: 7, step });
        tel.trace(TraceKind::PlanCycle, t(211), None, None, String::new());
        let text = prometheus_text(&tel.snapshot());
        assert!(text.contains("# TYPE sphinx_plan_cycles counter\nsphinx_plan_cycles 3\n"));
        assert!(text.contains("# TYPE sphinx_fsa_dwell_ms_ready histogram"));
        assert!(text.contains("sphinx_fsa_dwell_ms_ready_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("sphinx_fsa_dwell_ms_ready_count 2"));
        assert!(text.contains("sphinx_site_submits{site=\"1\"} 1"));
        validate_prometheus(&text).expect("own output validates");
    }

    #[test]
    fn prometheus_renders_site_gauge_families() {
        let tel = Telemetry::new();
        for (site, age, queued) in [(0, 120_000, 0), (3, 1_500, 12)] {
            let (site, age) = (SiteId(site), Duration::from_millis(age));
            tel.record(t(0), Event::SiteReport { site, age, queued });
        }
        tel.gauge_set("monitor.visible_share", 0.5);
        let text = prometheus_text(&tel.snapshot());
        assert!(text.contains("sphinx_monitor_visible_share 0.5\n"));
        assert!(text.contains("# TYPE sphinx_monitor_staleness gauge"));
        assert!(text.contains("sphinx_monitor_staleness{site=\"0\"} 120000"));
        assert!(text.contains("sphinx_monitor_staleness{site=\"3\"} 1500"));
        assert!(text.contains("sphinx_monitor_queue_depth{site=\"3\"} 12"));
        validate_prometheus(&text).expect("own output validates");
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let tel = Telemetry::new();
        // One <=10 ms completion, two <=100 ms.
        for (key, ms) in [(1, 5), (2, 50), (3, 60)] {
            let total = Duration::from_millis(ms);
            job(
                &tel,
                t(1),
                key,
                JobStep::Completed {
                    site: SiteId(0),
                    total,
                },
            );
        }
        let text = prometheus_text(&tel.snapshot());
        assert!(text.contains("sphinx_job_completion_ms_bucket{le=\"10\"} 1"));
        assert!(text.contains("sphinx_job_completion_ms_bucket{le=\"100\"} 3"));
        assert!(text.contains("sphinx_job_completion_ms_sum 115"));
        validate_prometheus(&text).unwrap();
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_prometheus("9metric 1\n").is_err());
        assert!(validate_prometheus("ok 1\nok nope\n").is_err());
        assert!(validate_prometheus("m{le=\"x} 1\n").is_err());
        assert!(validate_prometheus("m 1 2 3\n").is_err());
        assert!(validate_prometheus("m{l=bare} 1\n").is_err());
        assert!(validate_prometheus("m{l=\"a\" 1\n").is_err());
        assert!(validate_prometheus("m{l=\"a\"}x 1\n").is_err());
        assert!(
            validate_prometheus("# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n")
                .is_err(),
            "histogram without +Inf bucket must fail"
        );
        assert!(validate_prometheus(
            "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n"
        )
        .is_err());
        assert!(validate_prometheus("x 1\n# TYPE x counter\n").is_err());
    }

    #[test]
    fn validator_accepts_value_forms() {
        // A `}` or an escaped quote inside a label value is text.
        let doc = "a 1\nb 1.5\nc +Inf\nd NaN\ne 3 1700000000\nf{path=\"/a}b\"} 1\n\
                   g{a=\"x\\\"}\",b=\"{\"} 2 1700000000\n";
        validate_prometheus(doc).unwrap();
    }
}
