//! Causal spans: sim-time intervals with parent/child and cause links.
//!
//! A [`Span`] is an interval of simulation time attributed to one
//! entity (a DAG, a job, a planner phase, a batch slot, the WAL). Spans
//! form a forest: every job span is rooted at its DAG span, every
//! dwell-state span at its job (or attempt) span, so a whole workflow's
//! history is one connected tree that the `analysis` module can walk.
//!
//! Ids are assigned monotonically under the hub lock, so two same-seed
//! runs produce identical span graphs — the determinism suite compares
//! the Chrome-trace rendering byte-for-byte.
//!
//! The store is capacity-bounded like the trace ring: live spans are
//! never evicted (they are what future `end` calls resolve against),
//! finished spans beyond [`capacity`](SpanStore) are dropped oldest-first
//! and counted in `dropped`.

use sphinx_sim::SimTime;
use std::collections::{BTreeMap, VecDeque};

/// Identifier of one span, unique within a [`super::Telemetry`] hub and
/// monotonically increasing in creation order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// One causal span: a named sim-time interval with optional structural
/// parent, entity attributes, and a `link` to a causally-related span in
/// another subtree (ready-cause, previous attempt).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Monotonic id (creation order).
    pub id: SpanId,
    /// Structural parent (containment); `None` for roots (DAG spans,
    /// planner phases, WAL spans).
    pub parent: Option<SpanId>,
    /// Span name from the fixed taxonomy (`dag`, `job`, `attempt`,
    /// `state:*`, `slot:*`, `phase:*`, `wal:*`).
    pub name: &'static str,
    /// Start of the interval.
    pub start: SimTime,
    /// End of the interval; `None` while live.
    pub end: Option<SimTime>,
    /// Dense job key if the span concerns one job.
    pub job: Option<u64>,
    /// DAG id if the span concerns one DAG.
    pub dag: Option<u64>,
    /// Site id if the span is tied to a grid site.
    pub site: Option<u32>,
    /// Planning attempt number (1-based; 0 on `state:ready` spans that
    /// precede the first attempt).
    pub attempt: Option<u64>,
    /// Causal cross-link: on a `state:ready` span, the job span whose
    /// completion made this job ready; on an `attempt` span, the
    /// previous (failed) attempt it replaces.
    pub link: Option<SpanId>,
    /// Free-form detail (counts, cause labels); empty on hot-path spans.
    pub detail: String,
}

impl Span {
    /// Interval length in whole sim-milliseconds (0 while live).
    pub fn duration_ms(&self) -> u64 {
        match self.end {
            Some(end) => end.as_millis().saturating_sub(self.start.as_millis()),
            None => 0,
        }
    }
}

/// Optional attributes for a new span. `Default` gives a bare root span.
#[derive(Debug, Clone, Default)]
pub struct SpanAttrs {
    /// Structural parent.
    pub parent: Option<SpanId>,
    /// Job key.
    pub job: Option<u64>,
    /// DAG id.
    pub dag: Option<u64>,
    /// Site id.
    pub site: Option<u32>,
    /// Attempt number.
    pub attempt: Option<u64>,
    /// Causal cross-link.
    pub link: Option<SpanId>,
    /// Free-form detail.
    pub detail: String,
}

/// Finished spans per block of the store: a block is a small allocation,
/// one of many of the same size.
const BLOCK: usize = 512;

/// Capacity-bounded span storage: live spans keyed by id, finished spans
/// in end order, self-accounting `total`/`dropped` counters.
#[derive(Debug, Default)]
pub struct SpanStore {
    capacity: usize,
    next_id: u64,
    live: BTreeMap<SpanId, Span>,
    /// In end order, in blocks of [`BLOCK`]. The store grows by one block
    /// at a time and never moves what it holds: one deque growing by
    /// reallocation leaves a trail of ever larger holes behind it (tens
    /// of MB at 10^5 spans) that nothing else in the process fits, and
    /// they land on the run's peak RSS.
    finished: VecDeque<VecDeque<Span>>,
    finished_len: usize,
    total: u64,
    dropped: u64,
}

impl SpanStore {
    /// Empty store keeping at most `capacity` finished spans.
    pub fn new(capacity: usize) -> Self {
        SpanStore {
            capacity,
            next_id: 0,
            live: BTreeMap::new(),
            finished: VecDeque::new(),
            finished_len: 0,
            total: 0,
            dropped: 0,
        }
    }

    /// Open a new live span at `start`.
    pub fn start(&mut self, name: &'static str, start: SimTime, attrs: SpanAttrs) -> SpanId {
        let id = SpanId(self.next_id);
        self.next_id += 1;
        self.total += 1;
        self.live.insert(
            id,
            Span {
                id,
                parent: attrs.parent,
                name,
                start,
                end: None,
                job: attrs.job,
                dag: attrs.dag,
                site: attrs.site,
                attempt: attrs.attempt,
                link: attrs.link,
                detail: attrs.detail,
            },
        );
        id
    }

    /// Close a live span at `end`, moving it to the finished store; its
    /// length in sim-ms, or `None` (a no-op) for an unknown or closed id.
    pub fn end(&mut self, id: SpanId, end: SimTime) -> Option<u64> {
        let mut span = self.live.remove(&id)?;
        span.end = Some(end.max(span.start));
        let duration_ms = span.duration_ms();
        match self.finished.back_mut() {
            Some(block) if block.len() < BLOCK => block.push_back(span),
            _ => {
                let mut block = VecDeque::with_capacity(BLOCK);
                block.push_back(span);
                self.finished.push_back(block);
            }
        }
        self.finished_len += 1;
        if self.finished_len > self.capacity {
            if let Some(oldest) = self.finished.front_mut() {
                oldest.pop_front();
                if oldest.is_empty() {
                    self.finished.pop_front();
                }
            }
            self.finished_len -= 1;
            self.dropped += 1;
        }
        Some(duration_ms)
    }

    /// Every span: finished spans in end order, then live spans by id.
    /// The order is deterministic for a deterministic event sequence.
    pub fn iter(&self) -> impl Iterator<Item = &Span> {
        self.finished.iter().flatten().chain(self.live.values())
    }

    /// [`Self::iter`], cloned out.
    pub fn spans(&self) -> Vec<Span> {
        self.iter().cloned().collect()
    }

    /// Spans ever started.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Spans currently live (started, not yet ended).
    pub fn live(&self) -> u64 {
        self.live.len() as u64
    }

    /// Finished spans evicted past capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn ids_are_monotonic_and_spans_round_trip() {
        let mut store = SpanStore::new(16);
        let a = store.start("dag", t(0), SpanAttrs::default());
        let b = store.start(
            "job",
            t(1),
            SpanAttrs {
                parent: Some(a),
                job: Some(7),
                dag: Some(0),
                ..SpanAttrs::default()
            },
        );
        assert!(b > a);
        assert_eq!(store.live(), 2);
        store.end(b, t(5));
        store.end(a, t(6));
        let spans = store.spans();
        assert_eq!(spans.len(), 2);
        // Finished in end order: b first.
        assert_eq!(spans[0].id, b);
        assert_eq!(spans[0].duration_ms(), 4_000);
        assert_eq!(spans[0].parent, Some(a));
        assert_eq!(store.live(), 0);
        assert_eq!(store.total(), 2);
    }

    #[test]
    fn ending_unknown_or_closed_span_is_a_noop() {
        let mut store = SpanStore::new(4);
        let a = store.start("job", t(0), SpanAttrs::default());
        store.end(a, t(1));
        store.end(a, t(2));
        store.end(SpanId(99), t(3));
        assert_eq!(store.spans().len(), 1);
        assert_eq!(store.spans()[0].end, Some(t(1)));
    }

    #[test]
    fn end_clamps_to_start() {
        let mut store = SpanStore::new(4);
        let a = store.start("job", t(5), SpanAttrs::default());
        store.end(a, t(1));
        assert_eq!(store.spans()[0].end, Some(t(5)));
    }

    #[test]
    fn finished_store_is_bounded_and_counts_drops() {
        let mut store = SpanStore::new(2);
        for i in 0..5u64 {
            let id = store.start("phase:plan", t(i), SpanAttrs::default());
            store.end(id, t(i));
        }
        assert_eq!(store.spans().len(), 2);
        assert_eq!(store.dropped(), 3);
        assert_eq!(store.total(), 5);
        // Oldest were evicted; the survivors are the two most recent.
        assert_eq!(store.spans()[0].start, t(3));
    }

    #[test]
    fn eviction_and_order_hold_across_block_boundaries() {
        let capacity = BLOCK + 3;
        let mut store = SpanStore::new(capacity);
        let n = 3 * BLOCK as u64 + 7;
        for i in 0..n {
            let id = store.start("phase:plan", t(i), SpanAttrs::default());
            store.end(id, t(i));
            let kept = store.spans();
            assert_eq!(kept.len(), capacity.min(i as usize + 1));
            assert_eq!(kept.last().map(|s| s.start), Some(t(i)));
        }
        assert_eq!(store.dropped(), n - capacity as u64);
        let starts: Vec<SimTime> = store.spans().iter().map(|s| s.start).collect();
        let expected: Vec<SimTime> = (n - capacity as u64..n).map(t).collect();
        assert_eq!(starts, expected);
    }

    #[test]
    fn capacity_zero_retains_nothing_and_counts_every_drop() {
        let mut store = SpanStore::new(0);
        for i in 0..3u64 {
            let id = store.start("phase:plan", t(i), SpanAttrs::default());
            store.end(id, t(i + 1));
        }
        assert!(store.spans().is_empty());
        assert_eq!(store.dropped(), 3);
        // Started = retained (finished or live) + dropped.
        assert_eq!(store.total(), store.spans().len() as u64 + store.dropped());
    }

    #[test]
    fn live_spans_are_never_evicted() {
        let mut store = SpanStore::new(1);
        let keep = store.start("dag", t(0), SpanAttrs::default());
        for i in 0..3u64 {
            let id = store.start("job", t(i), SpanAttrs::default());
            store.end(id, t(i + 1));
        }
        assert_eq!(store.live(), 1);
        store.end(keep, t(10));
        assert_eq!(store.spans().last().map(|s| s.id), Some(keep));
    }
}
