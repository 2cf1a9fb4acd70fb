//! Causal spans: sim-time intervals with parent/child and cause links.
//!
//! A [`Span`] is an interval of simulation time attributed to one
//! entity (a DAG, a job, a planner phase, a batch slot, the WAL). Spans
//! form a forest: every job span is rooted at its DAG span, every
//! dwell-state span at its job (or attempt) span, so a whole workflow's
//! history is one connected tree that the `analysis` module can walk.
//!
//! The hub stores no spans. They are what its event log means, replayed
//! when read: the span machine in [`crate::replay`] turns the log into
//! opens and closes, and a [`SpanStore`] collects them for
//! `Telemetry::spans`. Ids are assigned in replay order, so two same-seed
//! runs produce identical span graphs — the determinism suite compares
//! the Chrome-trace rendering byte-for-byte.

use crate::replay::Sink;
use sphinx_sim::SimTime;
use std::collections::BTreeMap;

/// Identifier of one span, unique within a [`super::Telemetry`] hub and
/// monotonically increasing in creation order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// One causal span: a named sim-time interval with optional structural
/// parent, entity attributes, and a `link` to a causally-related span in
/// another subtree (ready-cause, previous attempt).
#[derive(Debug, Clone, PartialEq, Default)]
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

/// Span storage: live spans keyed by id, finished spans in end order.
#[derive(Debug, Default)]
pub struct SpanStore {
    live: BTreeMap<SpanId, Span>,
    finished: Vec<Span>,
}

impl Sink for SpanStore {
    fn open(&mut self, span: Span) {
        self.live.insert(span.id, span);
    }

    /// Close a live span at `end` (clamped to its start), moving it to
    /// the finished list; a no-op for an unknown or closed id.
    fn close(&mut self, id: SpanId, end: SimTime) {
        if let Some(mut span) = self.live.remove(&id) {
            span.end = Some(end.max(span.start));
            self.finished.push(span);
        }
    }
}

impl SpanStore {
    /// Every span: finished spans in end order, then live spans by id.
    /// The order is deterministic for a deterministic event sequence.
    pub fn into_spans(self) -> Vec<Span> {
        let mut out = self.finished;
        out.extend(self.live.into_values());
        out
    }
}

/// Hand-built span lists for tests.
#[cfg(test)]
impl SpanStore {
    /// Open `span` as `name` at `start`, under the next id.
    pub fn start(&mut self, name: &'static str, start: SimTime, span: Span) -> SpanId {
        let id = SpanId(self.live.len() as u64 + self.finished.len() as u64);
        let end = None;
        self.open(Span {
            id,
            name,
            start,
            end,
            ..span
        });
        id
    }

    /// [`Sink::close`], returning the span's length in sim-ms (`None` for
    /// an unknown or closed id).
    pub fn end(&mut self, id: SpanId, end: SimTime) -> Option<u64> {
        let start = self.live.get(&id)?.start;
        self.close(id, end);
        Some(end.max(start).as_millis() - start.as_millis())
    }

    pub fn iter(&self) -> impl Iterator<Item = &Span> {
        self.finished.iter().chain(self.live.values())
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
        let mut store = SpanStore::default();
        let a = store.start("dag", t(0), Span::default());
        let b = store.start(
            "job",
            t(1),
            Span {
                parent: Some(a),
                job: Some(7),
                dag: Some(0),
                ..Span::default()
            },
        );
        assert!(b > a);
        store.end(b, t(5));
        store.end(a, t(6));
        let spans = store.into_spans();
        assert_eq!(spans.len(), 2);
        // Finished in end order: b first.
        assert_eq!(spans[0].id, b);
        assert_eq!(spans[0].duration_ms(), 4_000);
        assert_eq!(spans[0].parent, Some(a));
    }

    #[test]
    fn ending_unknown_or_closed_span_is_a_noop() {
        let mut store = SpanStore::default();
        let a = store.start("job", t(0), Span::default());
        store.end(a, t(1));
        store.end(a, t(2));
        store.end(SpanId(99), t(3));
        let spans = store.into_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].end, Some(t(1)));
    }

    #[test]
    fn end_clamps_to_start_and_live_spans_follow_finished_ones() {
        let mut store = SpanStore::default();
        let keep = store.start("dag", t(0), Span::default());
        let a = store.start("job", t(5), Span::default());
        store.end(a, t(1));
        let spans = store.into_spans();
        assert_eq!(spans[0].end, Some(t(5)));
        assert_eq!(spans.last().map(|s| s.id), Some(keep));
    }
}
