//! The hub's stored form and the span machine that reads it.
//!
//! [`Telemetry::record`](crate::Telemetry::record) appends one [`Record`]
//! to a [`Log`] and does nothing else. Everything the hub reports is a
//! projection of that log, computed when it is read: a [`Machine`]
//! replays records in order, opens and closes the spans each one implies,
//! and hands every record, open, close and state dwell to a [`Sink`]. The
//! hub's metric fold, `Telemetry::spans` and `Telemetry::analyze` are
//! three sinks over the same machine, so they agree on every span id.

use crate::span::{Span, SpanId};
use crate::{analysis, Event, GridStep, JobStep, TraceKind, TraceLine};
use sphinx_data::SiteId;
use sphinx_sim::{Chunks, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// What one record holds: a layer's fact, or one of the hub's own entries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Fact {
    Event(Event),
    /// A free-text trace line, by its index in [`Log::notes`].
    Note(u32),
    /// A phase span opened; its handle is its ordinal among the opens.
    Open(&'static str),
    /// The phase span with this handle closed.
    Close(u32),
}

/// One stored fact, stamped with its sim time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Record {
    pub at: SimTime,
    pub fact: Fact,
}

// Every fact costs one fixed-size record; the largest event sets it.
const _: () = assert!(std::mem::size_of::<Record>() <= 40);

/// A free-text trace line: its kind, job, site and text.
pub(crate) type Note = (TraceKind, Option<u64>, Option<u32>, String);

/// The append-only event log.
#[derive(Debug, Default)]
pub(crate) struct Log {
    pub records: Chunks<Record>,
    /// Every free-text trace line, in record order.
    pub notes: Vec<Note>,
    /// Phase spans opened so far: the next handle.
    pub phases: u32,
}

impl Log {
    /// The trace lines of the records from `from` on.
    pub fn lines(&self, from: usize) -> impl Iterator<Item = Line<'_>> {
        self.records.since(from).filter_map(|r| r.line(&self.notes))
    }
}

/// The free text of a trace line, rendered only when exported.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Detail<'a> {
    Text(&'a str),
    /// `dag=… jobs=…`.
    Dag(u64, usize),
    /// `dag=…`.
    DagDone(u64),
    /// `reports=…`.
    Reports(usize),
}

impl fmt::Display for Detail<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Detail::Text(text) => f.write_str(text),
            Detail::Dag(dag, jobs) => write!(f, "dag={dag} jobs={jobs}"),
            Detail::DagDone(dag) => write!(f, "dag={dag}"),
            Detail::Reports(reports) => write!(f, "reports={reports}"),
        }
    }
}

/// A trace line with its detail.
pub(crate) type Line<'a> = (TraceLine, Detail<'a>);

impl Record {
    /// The trace line this record shows as, if any.
    pub fn line<'a>(&self, notes: &'a [Note]) -> Option<Line<'a>> {
        self.show(notes).0
    }

    /// How the record shows in the exports: its trace line, if any, and
    /// the counter it adds one to, if any.
    pub fn show<'a>(&self, notes: &'a [Note]) -> (Option<Line<'a>>, Option<&'static str>) {
        use TraceKind as K;
        let empty = Detail::Text("");
        let event = match self.fact {
            Fact::Event(event) => event,
            Fact::Note(index) => {
                let line = notes.get(index as usize).map(|(kind, job, site, text)| {
                    self.as_line(*kind, *job, *site, Detail::Text(text))
                });
                return (line, None);
            }
            Fact::Open(_) | Fact::Close(_) => return (None, None),
        };
        let (kind, job, site, detail, counter) = match event {
            Event::DagSubmitted { dag, jobs } => {
                let detail = Detail::Dag(dag, jobs);
                (K::DagSubmitted, None, None, detail, "dag.submitted")
            }
            Event::DagFinished { dag } => {
                let detail = Detail::DagDone(dag);
                (K::DagFinished, None, None, detail, "dag.finished")
            }
            Event::SiteFlag { site, flagged } => {
                let (kind, counter) = if flagged {
                    (K::SiteFlagged, "reliability.flagged")
                } else {
                    (K::SiteUnflagged, "reliability.unflagged")
                };
                (kind, None, Some(site), empty, counter)
            }
            Event::PlanCycle { reports, .. } => {
                let detail = Detail::Reports(reports);
                (K::PlanCycle, None, None, detail, "plan.cycles")
            }
            Event::Job { job, step } => {
                let (kind, site, counter, cause) = match step {
                    JobStep::Ready { .. } => (K::JobReady, None, "", ""),
                    JobStep::Eliminated => (K::JobEliminated, None, "job.eliminated", ""),
                    JobStep::Submitted { site } => {
                        (K::JobSubmitted, Some(site), "plan.jobs_submitted", "")
                    }
                    JobStep::Queued { site } => (K::JobQueued, Some(site), "", ""),
                    JobStep::Running { site } => (K::JobRunning, Some(site), "", ""),
                    JobStep::Completed { site, .. } => (K::JobCompleted, Some(site), "", ""),
                    JobStep::Held { site } => {
                        (K::JobCancelled, Some(site), "plan.reschedules_held", "held")
                    }
                    JobStep::TimedOut { site } => {
                        let counter = "plan.reschedules_timeout";
                        (K::JobCancelled, Some(site), counter, "timeout")
                    }
                    JobStep::Reset | JobStep::Resumed { .. } => return (None, None),
                };
                (kind, Some(job), site, Detail::Text(cause), counter)
            }
            Event::Grid { site, job, step } => {
                let (kind, counter) = match step {
                    GridStep::Queued => return (None, Some("grid.queues")),
                    GridStep::Submit => (K::GridSubmit, "grid.submits"),
                    GridStep::Start => (K::GridStart, "grid.starts"),
                    GridStep::Complete => (K::GridComplete, "grid.completions"),
                    GridStep::Hold => (K::GridHold, "grid.holds"),
                    GridStep::Cancel => (K::GridCancel, "grid.cancels"),
                };
                (kind, Some(job), Some(site), empty, counter)
            }
            Event::WalCheckpoint => return (None, Some("wal.rewrites")),
            _ => return (None, None),
        };
        // Job steps without a counter name none.
        let counter = Some(counter).filter(|c| !c.is_empty());
        (
            Some(self.as_line(kind, job, site.map(|s| s.0), detail)),
            counter,
        )
    }

    fn as_line<'a>(
        &self,
        kind: TraceKind,
        job: Option<u64>,
        site: Option<u32>,
        detail: Detail<'a>,
    ) -> Line<'a> {
        let sim_time = self.at;
        (
            TraceLine {
                sim_time,
                kind,
                job,
                site,
            },
            detail,
        )
    }
}

/// What a projection does with the replay. Every method defaults to
/// ignoring its input.
pub(crate) trait Sink {
    /// Every record, before the machine moves any span for it.
    fn fact(&mut self, _record: &Record, _notes: &[Note]) {}
    /// A span opened (ids ascend).
    fn open(&mut self, _span: Span) {}
    /// The live span `id` closed at `end`.
    fn close(&mut self, _id: SpanId, _end: SimTime) {}
    /// A job left a stage after `ms`: `histogram` is that stage's dwell.
    fn dwell(&mut self, _histogram: &'static str, _ms: u64) {}
}

/// A job's live automaton state, with what entering it knows: the site
/// of a placed job, the upstream job whose completion made it ready.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    Unready,
    Ready(Option<u64>),
    Submitted(SiteId),
    Queued(SiteId),
    Running(SiteId),
}

impl Stage {
    /// The stage `step` moves its job into; `None` when the job finishes.
    pub fn of(step: JobStep) -> Option<Stage> {
        Some(match step {
            JobStep::Ready { cause } => Stage::Ready(cause),
            JobStep::Eliminated | JobStep::Completed { .. } => return None,
            JobStep::Submitted { site } | JobStep::Resumed { site } => Stage::Submitted(site),
            JobStep::Queued { site } => Stage::Queued(site),
            JobStep::Running { site } => Stage::Running(site),
            JobStep::Held { .. } | JobStep::TimedOut { .. } | JobStep::Reset => Stage::Ready(None),
        })
    }

    /// The site of a placed job.
    pub fn site(self) -> Option<SiteId> {
        match self {
            Stage::Submitted(site) | Stage::Queued(site) | Stage::Running(site) => Some(site),
            Stage::Unready | Stage::Ready(_) => None,
        }
    }

    /// The `state:*` span a job holds open in this stage, and the
    /// histogram that span's length feeds when it closes.
    pub fn names(self) -> (&'static str, &'static str) {
        match self {
            Stage::Unready => ("state:unready", "fsa.dwell_ms.unready"),
            Stage::Ready(_) => ("state:ready", "fsa.dwell_ms.ready"),
            Stage::Submitted(_) => ("state:submitted", "fsa.dwell_ms.submitted"),
            Stage::Queued(_) => ("state:queued", "fsa.dwell_ms.queued"),
            Stage::Running(_) => ("state:running", "fsa.dwell_ms.running"),
        }
    }
}

/// What the machine knows about one job key. Entries stay after the job
/// finishes: a later ready-cause still links to its job span.
#[derive(Default)]
struct JobEntry {
    /// The key's latest job span.
    job_span: Option<SpanId>,
    /// Span bookkeeping while the job is in flight (boxed: most entries
    /// outlive their job).
    live: Option<Box<JobTrack>>,
    /// Its open `slot:queued`/`slot:run` span (grid substrate).
    slot: Option<SpanId>,
}

/// Live span bookkeeping for one in-flight job.
#[derive(Default)]
struct JobTrack {
    /// The job's whole-lifetime span.
    job_span: SpanId,
    /// Its stage, open `state:*` span and when it entered the stage.
    state: Option<(Stage, SpanId, SimTime)>,
    /// The currently open `attempt` span (submit → finish/replanned).
    attempt_span: Option<SpanId>,
    /// The most recent closed attempt (linked from the next one).
    last_attempt: Option<SpanId>,
    /// Planning attempts so far (1-based after the first submit).
    attempts: u64,
}

/// Id assignment and the live count, in front of a sink.
#[derive(Default)]
pub(crate) struct Spans<S> {
    pub sink: S,
    /// Spans ever opened: the next id.
    pub next_id: u64,
    /// Spans open now.
    pub live: u64,
}

impl<S: Sink> Spans<S> {
    fn open(&mut self, name: &'static str, start: SimTime, span: Span) -> SpanId {
        let id = SpanId(self.next_id);
        self.next_id += 1;
        self.live += 1;
        self.sink.open(Span {
            id,
            name,
            start,
            ..span
        });
        id
    }

    fn close(&mut self, id: SpanId, end: SimTime) {
        self.live -= 1;
        self.sink.close(id, end);
    }
}

/// Close `track`'s open `state:*` span and report the stage's dwell.
fn close_state<S: Sink>(spans: &mut Spans<S>, track: &mut JobTrack, now: SimTime) {
    if let Some((stage, id, since)) = track.state.take() {
        spans.close(id, now);
        let ms = now.as_millis().saturating_sub(since.as_millis());
        spans.sink.dwell(stage.names().1, ms);
    }
}

/// The free-text detail of a DAG or WAL span: one per DAG or WAL event,
/// never per job transition, so it stays off the per-job path.
fn detail(args: fmt::Arguments<'_>) -> String {
    // sphinx-lint: allow(hot-alloc)
    format!("{args}")
}

/// The span machine: replays records in order and keeps what the next
/// one needs to know about the spans the earlier ones opened.
#[derive(Default)]
pub(crate) struct Machine<S> {
    pub spans: Spans<S>,
    /// Records replayed: the position of the next one in the log.
    pub cursor: usize,
    /// Latest sim time of any record: what the clockless WAL is stamped
    /// with.
    last_sim: SimTime,
    /// Open root span per DAG id.
    dags: BTreeMap<u64, SpanId>,
    /// Per job key (or grid tag).
    jobs: BTreeMap<u64, JobEntry>,
    /// Phase spans by handle, while open.
    phases: Vec<Option<SpanId>>,
}

impl<S: Sink> Machine<S> {
    /// Replay every record of `log` not yet seen.
    pub fn advance(&mut self, log: &Log) {
        for record in log.records.since(self.cursor) {
            self.apply(record, &log.notes);
        }
        self.cursor = log.records.len();
    }

    fn apply(&mut self, record: &Record, notes: &[Note]) {
        let at = record.at;
        self.last_sim = self.last_sim.max(at);
        self.spans.sink.fact(record, notes);
        match record.fact {
            Fact::Event(event) => self.event(at, event),
            Fact::Note(_) => {}
            Fact::Open(name) => {
                let id = self.spans.open(name, at, Span::default());
                self.phases.push(Some(id));
            }
            Fact::Close(handle) => {
                if let Some(id) = self.phases.get_mut(handle as usize).and_then(Option::take) {
                    self.spans.close(id, at);
                }
            }
        }
    }

    fn event(&mut self, at: SimTime, event: Event) {
        match event {
            Event::DagSubmitted { dag, jobs } => {
                self.open_dag(dag, jobs, at);
                for index in 0..jobs as u64 {
                    self.enter(analysis::job_key(dag, index), Stage::Unready, at);
                }
            }
            Event::DagRestored { dag, jobs } => self.open_dag(dag, jobs, at),
            Event::DagFinished { dag } => {
                if let Some(id) = self.dags.remove(&dag) {
                    self.spans.close(id, at);
                }
            }
            Event::Job { job, step } => match Stage::of(step) {
                Some(stage) => self.enter(job, stage, at),
                None => self.finish(job, at),
            },
            Event::Grid { site, job, step } => match step {
                GridStep::Submit => {}
                GridStep::Queued => self.move_slot(job, Some(("slot:queued", site)), at),
                GridStep::Start => self.move_slot(job, Some(("slot:run", site)), at),
                // Leaving the batch system closes the slot.
                GridStep::Complete | GridStep::Hold | GridStep::Cancel => {
                    self.move_slot(job, None, at)
                }
            },
            Event::WalReplay { lines } => {
                self.instant("wal:replay", detail(format_args!("{lines} lines replayed")))
            }
            Event::WalCheckpoint => {
                let text = detail(format_args!("log compacted to snapshot"));
                self.instant("wal:checkpoint", text);
            }
            Event::SiteFlag { .. } | Event::SiteReport { .. } => {}
            Event::PlanCycle { .. } | Event::PlanCycleDone { .. } => {}
        }
    }

    /// The span machine of the job lifecycle. The first stage opens the
    /// job span (under its DAG root); every stage closes the previous
    /// `state:*` span (its length is that stage's dwell) and opens its
    /// own; `Submitted` opens an `attempt` span linked to the previous
    /// failed attempt; a `Ready` caused by an upstream completion links to
    /// the cause's job span (the edge critical-path extraction walks).
    fn enter(&mut self, job: u64, stage: Stage, now: SimTime) {
        let dag = analysis::job_key_dag(job);
        let cause = match stage {
            Stage::Ready(Some(cause)) if cause != job => Some(cause),
            _ => None,
        };
        let cause_span = cause.and_then(|c| self.jobs.get(&c)?.job_span);
        let (spans, entry) = (&mut self.spans, self.jobs.entry(job).or_default());
        let track = match &mut entry.live {
            Some(track) => track,
            live @ None => {
                let attrs = Span {
                    parent: self.dags.get(&dag).copied(),
                    job: Some(job),
                    dag: Some(dag),
                    ..Span::default()
                };
                let job_span = spans.open("job", now, attrs);
                entry.job_span = Some(job_span);
                live.insert(Box::new(JobTrack {
                    job_span,
                    ..JobTrack::default()
                }))
            }
        };
        close_state(spans, track, now);
        // The job's other spans also carry its site; they differ in
        // parent, attempt number and causal link.
        let site = stage.site().map(|s| s.0);
        let attrs = |parent, attempt, link| Span {
            parent: Some(parent),
            job: Some(job),
            dag: Some(dag),
            site,
            attempt,
            link,
            ..Span::default()
        };
        let attrs = match stage {
            Stage::Unready => attrs(track.job_span, None, None),
            Stage::Ready(own) => {
                // A live attempt span here means the attempt failed and
                // the job came back for replanning.
                if let Some(a) = track.attempt_span.take() {
                    spans.close(a, now);
                    track.last_attempt = Some(a);
                }
                // A job readied by itself links to its own job span.
                let link = if own == Some(job) {
                    entry.job_span
                } else {
                    cause_span
                };
                attrs(track.job_span, Some(track.attempts), link)
            }
            Stage::Submitted(_) => {
                track.attempts += 1;
                let attempt = Some(track.attempts);
                let opened = attrs(track.job_span, attempt, track.last_attempt);
                let id = spans.open("attempt", now, opened);
                track.attempt_span = Some(id);
                attrs(id, attempt, None)
            }
            Stage::Queued(_) | Stage::Running(_) => {
                let parent = track.attempt_span.unwrap_or(track.job_span);
                attrs(parent, Some(track.attempts), None)
            }
        };
        track.state = Some((stage, spans.open(stage.names().0, now, attrs), now));
    }

    /// The job finished or was eliminated: close every span it holds.
    fn finish(&mut self, job: u64, now: SimTime) {
        let Some(entry) = self.jobs.get_mut(&job) else {
            return;
        };
        if let Some(mut track) = entry.live.take() {
            close_state(&mut self.spans, &mut track, now);
            for id in track.attempt_span.into_iter().chain([track.job_span]) {
                self.spans.close(id, now);
            }
        }
        if let Some(id) = entry.slot.take() {
            self.spans.close(id, now);
        }
    }

    /// Close `job`'s open batch-slot span, if any, and open `next` (a slot
    /// name and its site) in its place, under the job's live attempt span
    /// when it has one (a tag the server never planned — grid unit tests
    /// feed those — gets a root slot span).
    fn move_slot(&mut self, job: u64, next: Option<(&'static str, SiteId)>, now: SimTime) {
        let entry = self.jobs.entry(job).or_default();
        if let Some(id) = entry.slot.take() {
            self.spans.close(id, now);
        }
        let Some((name, site)) = next else { return };
        let track = entry.live.as_deref();
        let attrs = Span {
            parent: track.map(|t| t.attempt_span.unwrap_or(t.job_span)),
            job: Some(job),
            dag: track.map(|_| analysis::job_key_dag(job)),
            site: Some(site.0),
            attempt: track.map(|t| t.attempts),
            ..Span::default()
        };
        entry.slot = Some(self.spans.open(name, now, attrs));
    }

    /// Open DAG `dag`'s root span, unless one is live already: a hub that
    /// survived a crash (the sharded adopter's) keeps its original.
    fn open_dag(&mut self, dag: u64, jobs: usize, now: SimTime) {
        if !self.dags.contains_key(&dag) {
            let attrs = Span {
                dag: Some(dag),
                detail: detail(format_args!("jobs={jobs}")),
                ..Span::default()
            };
            let id = self.spans.open("dag", now, attrs);
            self.dags.insert(dag, id);
        }
    }

    /// A zero-duration root span at the latest sim time the hub has seen,
    /// for the WAL, which keeps no sim clock.
    fn instant(&mut self, name: &'static str, detail: String) {
        let now = self.last_sim;
        let attrs = Span {
            detail,
            ..Span::default()
        };
        let id = self.spans.open(name, now, attrs);
        self.spans.close(id, now);
    }
}
