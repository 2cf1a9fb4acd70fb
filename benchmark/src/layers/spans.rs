//! In-memory host-clock spans around the calls into each layer, and the
//! statistics the per-layer ledger is built from.
//!
//! A span is `(name, start, end, parent)`; the parent is whichever span
//! was open when this one started, so a `db.wal.append` caused by a
//! `core.server.handle_report` commit is that call's child. Spans are
//! kept in memory and written out once, when the traced run ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call into a layer. Times are nanoseconds since the
/// recorder was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Inner {
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// The span store. Shared between the traced driver and the WAL wrapper
/// (which lives inside the database, behind `Box<dyn Wal + Send>`), hence
/// the mutex; it is never contended — the benchmark is single-threaded.
pub struct Recorder {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            inner: Mutex::new(Inner {
                spans: Vec::with_capacity(1 << 19),
                open: Vec::new(),
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as one span named `name`, child of the innermost open
    /// span. The clock is read after the bookkeeping on entry and before
    /// it on exit, so the recorder's own cost lands in the parent's self
    /// time, not in the span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut inner = self.inner.lock().expect("span recorder lock");
            let id = inner.spans.len() as u32;
            let parent = inner.open.last().copied().unwrap_or(NO_PARENT);
            inner.open.push(id);
            inner.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
            });
            let start = self.now_ns();
            inner.spans[id as usize].start_ns = start;
            id
        };
        let out = f();
        let end = self.now_ns();
        let mut inner = self.inner.lock().expect("span recorder lock");
        inner.spans[id as usize].end_ns = end;
        let closed = inner.open.pop();
        debug_assert_eq!(closed, Some(id), "spans close innermost-first");
        out
    }

    /// Take every span recorded so far (all must be closed).
    pub fn take(&self) -> Vec<Span> {
        let mut inner = self.inner.lock().expect("span recorder lock");
        assert!(inner.open.is_empty(), "take() with a span still open");
        std::mem::take(&mut inner.spans)
    }
}

/// Busy seconds and call count of one boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Busy {
    pub secs: f64,
    pub calls: u64,
}

/// Busy time and calls per span name.
pub fn busy_by_name(spans: &[Span]) -> BTreeMap<&'static str, Busy> {
    let mut out: BTreeMap<&'static str, Busy> = BTreeMap::new();
    for s in spans {
        let b = out.entry(s.name).or_default();
        b.secs += s.duration_ns() as f64 * 1e-9;
        b.calls += 1;
    }
    out
}

/// Self time of every span: its duration minus the part its direct
/// children cover (children of one span never overlap: one thread).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Summed self seconds of the spans whose name satisfies `pick`.
pub fn self_secs(spans: &[Span], pick: impl Fn(&str) -> bool) -> f64 {
    let own = self_ns(spans);
    spans
        .iter()
        .zip(own)
        .filter(|(s, _)| pick(s.name))
        .map(|(_, ns)| ns as f64 * 1e-9)
        .sum()
}

/// Nearest-rank percentile of an ascending sample, reported only when at
/// least ten samples lie beyond it (the highest percentile a sample of
/// this size supports); `None` withholds a number the sample cannot carry.
pub fn percentile(sorted: &[u64], pct: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((pct / 100.0) * n as f64).ceil().max(1.0) as usize;
    (rank <= n && n - rank >= 10).then(|| sorted[rank - 1])
}

/// Tail statistics of one boundary, microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tail {
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    pub max_us: f64,
    /// The slowest call contained a `db.wal.rewrite` (auto-checkpoint).
    pub max_has_checkpoint: bool,
}

/// Tail of the spans named `name`; withheld percentiles read 0.
pub fn tail(spans: &[Span], name: &str) -> Tail {
    let mut durations: Vec<u64> = Vec::new();
    let mut slowest: Option<usize> = None;
    for (i, s) in spans.iter().enumerate() {
        if s.name == name {
            durations.push(s.duration_ns());
            if slowest.is_none_or(|j| s.duration_ns() > spans[j].duration_ns()) {
                slowest = Some(i);
            }
        }
    }
    let Some(slowest) = slowest else {
        return Tail::default();
    };
    durations.sort_unstable();
    let us = |ns: Option<u64>| ns.map_or(0.0, |ns| ns as f64 * 1e-3);
    Tail {
        p50_us: us(percentile(&durations, 50.0)),
        p90_us: us(percentile(&durations, 90.0)),
        p99_us: us(percentile(&durations, 99.0)),
        max_us: us(durations.last().copied()),
        max_has_checkpoint: has_descendant(spans, slowest, "db.wal.rewrite"),
    }
}

/// Whether span `root` has a descendant named `name`. Spans are stored in
/// start order, so descendants follow their ancestor and start before it
/// ends.
fn has_descendant(spans: &[Span], root: usize, name: &str) -> bool {
    let end = spans[root].end_ns;
    spans[root + 1..]
        .iter()
        .take_while(|s| s.start_ns <= end)
        .any(|s| {
            s.name == name && {
                let mut p = s.parent;
                while p != NO_PARENT && p as usize != root {
                    p = spans[p as usize].parent;
                }
                p as usize == root
            }
        })
}

/// Share of the `root`-named spans' time spent inside a layer: the summed
/// duration of every span whose parent is a container (a span named
/// `root` or a name in `containers`) and which is not one itself, over
/// the summed duration of the `root` spans.
pub fn attributed_share(spans: &[Span], root: &str, containers: &[&str]) -> f64 {
    let is_container = |s: &Span| s.name == root || containers.contains(&s.name);
    let total: u64 = spans
        .iter()
        .filter(|s| s.name == root)
        .map(Span::duration_ns)
        .sum();
    if total == 0 {
        return 0.0;
    }
    let covered: u64 = spans
        .iter()
        .filter(|s| {
            s.parent != NO_PARENT && is_container(&spans[s.parent as usize]) && !is_container(s)
        })
        .map(Span::duration_ns)
        .sum();
    covered as f64 / total as f64
}

/// The trace file: span names once, then one `[name, start_ns, end_ns,
/// parent]` row per span (`parent` is a row index, `-1` for a root).
pub fn to_json(spans: &[Span], workload: &str, seed: u64) -> String {
    use std::fmt::Write;
    let mut names: Vec<&'static str> = Vec::new();
    let mut index: BTreeMap<&'static str, usize> = BTreeMap::new();
    for s in spans {
        index.entry(s.name).or_insert_with(|| {
            names.push(s.name);
            names.len() - 1
        });
    }
    let mut out = String::with_capacity(spans.len() * 32 + 256);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"time_unit\":\"ns\",\
         \"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\"],\"names\":["
    );
    for (i, n) in names.iter().enumerate() {
        let _ = write!(out, "{}\"{n}\"", if i > 0 { "," } else { "" });
    }
    out.push_str("],\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        let _ = writeln!(
            out,
            "[{},{},{},{}]{}",
            index[s.name],
            s.start_ns,
            s.end_ns,
            parent,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    /// drive[0,1000] ─ handle[100,400] ─ append[150,200], rewrite[200,350]
    ///               └ handle[500,600] ─ append[510,530]
    ///               └ plan[700,900]
    fn tree() -> Vec<Span> {
        vec![
            span("drive", 0, 1000, NO_PARENT),
            span("handle", 100, 400, 0),
            span("db.wal.append", 150, 200, 1),
            span("db.wal.rewrite", 200, 350, 1),
            span("handle", 500, 600, 0),
            span("db.wal.append", 510, 530, 4),
            span("plan", 700, 900, 0),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = tree();
        let own = self_ns(&spans);
        // drive: 1000 − (300 + 100 + 200); grandchildren are not its own.
        assert_eq!(own[0], 400);
        assert_eq!(own[1], 300 - 50 - 150);
        assert_eq!(own[4], 100 - 20);
        assert_eq!(own[6], 200);
        let handle = self_secs(&spans, |n| n == "handle");
        assert!((handle - 180e-9).abs() < 1e-15);
    }

    #[test]
    fn busy_sums_inclusive_time_and_counts_calls() {
        let busy = busy_by_name(&tree());
        assert_eq!(busy["handle"].calls, 2);
        assert!((busy["handle"].secs - 400e-9).abs() < 1e-15);
        assert_eq!(busy["db.wal.append"].calls, 2);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let sample: Vec<u64> = (1..=100).collect();
        // p90 of 100: rank 90, ten beyond — the highest this sample carries.
        assert_eq!(percentile(&sample, 90.0), Some(90));
        assert_eq!(percentile(&sample, 50.0), Some(50));
        assert_eq!(percentile(&sample, 99.0), None);
        let big: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&big, 99.0), Some(990));
        assert_eq!(percentile(&big, 99.9), None);
        // p50 needs n ≥ 20.
        assert_eq!(percentile(&(1..=19).collect::<Vec<u64>>(), 50.0), None);
        assert_eq!(percentile(&(1..=20).collect::<Vec<u64>>(), 50.0), Some(10));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_pins_the_slowest_call_on_its_checkpoint() {
        let spans = tree();
        let handle = tail(&spans, "handle");
        assert_eq!(handle.max_us, 0.3);
        assert!(handle.max_has_checkpoint);
        assert_eq!(handle.p50_us, 0.0, "two samples carry no percentile");
        let plan = tail(&spans, "plan");
        assert!(!plan.max_has_checkpoint);
        assert_eq!(tail(&spans, "absent"), Tail::default());
    }

    #[test]
    fn attributed_share_counts_leaves_once() {
        let spans = tree();
        // handle + handle + plan = 600 of 1000; WAL children are inside.
        assert!((attributed_share(&spans, "drive", &[]) - 0.6).abs() < 1e-12);
        // With `handle` a container its children count instead.
        let share = attributed_share(&spans, "drive", &["handle"]);
        assert!((share - (50.0 + 150.0 + 20.0 + 200.0) / 1000.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_serializes() {
        let rec = Recorder::new();
        let v = rec.span("outer", || rec.span("inner", || 7));
        assert_eq!(v, 7);
        let spans = rec.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json: serde_json::Value = serde_json::from_str(&to_json(&spans, "w", 3)).unwrap();
        assert_eq!(json.pointer("/spans/1/3").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(
            json.pointer("/names/1").and_then(|v| v.as_str()),
            Some("inner")
        );
    }
}
