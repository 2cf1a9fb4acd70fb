//! The grid event loop.
//!
//! [`GridSim`] plays the role the Grid3 fabric played for the real SPHINX:
//! the client submits an execution plan to a site and thereafter only
//! receives asynchronous status notifications (queued → running →
//! completed, or held/killed), exactly the visibility Condor-G/DAGMan gave
//! the original (§3.3, *Job Tracker*). Everything else — input staging,
//! FCFS dispatch, background load, crashes, black holes — happens inside
//! the simulation, invisible to the scheduler except through its effects.

use crate::batch::{BatchQueue, JobOwner};
use crate::request::{JobHandle, JobRequest};
use crate::site::SiteSpec;
use serde::{Deserialize, Serialize};
use sphinx_data::{FileId, ReplicaService, SiteId, SiteStore, TransferModel, TransferTracker};
use sphinx_sim::{Duration, EventQueue, SimRng, SimTime};
use sphinx_telemetry::{GridStep, Telemetry};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Why a job was held/killed at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HoldReason {
    /// The site crashed while the job was staged, queued or running.
    SiteCrashed,
    /// The local batch system killed the running job (preemption, lost
    /// worker node, …).
    KilledBySite,
}

/// Asynchronous status information delivered to the SPHINX client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Notification {
    /// The job finished staging and entered the site's batch queue.
    JobQueued {
        /// Submission handle.
        handle: JobHandle,
        /// Client tag from the request.
        tag: u64,
        /// Execution site.
        site: SiteId,
    },
    /// The local scheduler dispatched the job onto a CPU.
    JobRunning {
        /// Submission handle.
        handle: JobHandle,
        /// Client tag from the request.
        tag: u64,
        /// Execution site.
        site: SiteId,
    },
    /// The job completed and its output was registered.
    JobCompleted {
        /// Submission handle.
        handle: JobHandle,
        /// Client tag from the request.
        tag: u64,
        /// Execution site.
        site: SiteId,
        /// Time spent waiting in the batch queue (the paper's "idle time").
        queued_for: Duration,
        /// Time spent executing.
        ran_for: Duration,
    },
    /// The job was held or killed at the site.
    JobHeld {
        /// Submission handle.
        handle: JobHandle,
        /// Client tag from the request.
        tag: u64,
        /// Execution site.
        site: SiteId,
        /// Why.
        reason: HoldReason,
    },
    /// A wakeup the client scheduled via [`GridSim::schedule_wakeup`].
    Wakeup {
        /// Opaque token passed at scheduling time.
        token: u64,
    },
}

/// Ground-truth view of one site at one instant (what a perfect monitoring
/// system would report; `sphinx-monitor` adds the staleness).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteSnapshot {
    /// Which site.
    pub site: SiteId,
    /// Worker CPUs.
    pub cpus: u32,
    /// Jobs waiting in the batch queue.
    pub queued: usize,
    /// Jobs running on CPUs.
    pub running: usize,
    /// Whether the site is up. Real Grid3 monitoring reported unreachable
    /// sites as stale entries; the monitor crate decides what to expose.
    pub up: bool,
}

/// Per-site lifetime counters (ground truth, for experiment reporting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteCounters {
    /// SPHINX jobs completed here.
    pub sphinx_completed: u64,
    /// SPHINX jobs held/killed here.
    pub sphinx_held: u64,
    /// SPHINX submissions silently lost (site down at arrival).
    pub submissions_lost: u64,
    /// Background jobs completed here.
    pub background_completed: u64,
    /// Number of crash events.
    pub crashes: u64,
}

/// Report `step` of job `job`'s batch slot at `site`, if a hub is attached.
fn note_slot(hub: &Option<Arc<Telemetry>>, site: SiteId, job: u64, step: GridStep, at: SimTime) {
    if let Some(t) = hub {
        t.record(at, sphinx_telemetry::Event::Grid { site, job, step });
    }
}

#[derive(Debug)]
enum Event {
    /// A submission reaches the site gatekeeper.
    Arrive { site: usize, handle: JobHandle },
    /// One staged input finished transferring.
    StageDone {
        site: usize,
        handle: JobHandle,
        src: SiteId,
    },
    /// A dispatched batch job finished.
    Finish { site: usize, batch_id: u64 },
    /// Probabilistic mid-run kill of a batch job.
    Kill { site: usize, batch_id: u64 },
    /// A background job arrives.
    BgArrive { site: usize },
    /// The site's background burst phase flips (ON ↔ OFF).
    BurstFlip { site: usize },
    /// The site crashes.
    Crash { site: usize },
    /// The site comes back up.
    Repair { site: usize },
    /// An archival copy to persistent storage finished.
    ArchiveDone {
        src: SiteId,
        dst: SiteId,
        file: FileId,
        size_mb: u64,
    },
    /// Client-scheduled wakeup.
    Wakeup { token: u64 },
}

#[derive(Debug)]
struct Staging {
    request: JobRequest,
    remaining: usize,
}

#[derive(Debug)]
struct SiteRuntime {
    spec: SiteSpec,
    up: bool,
    batch: BatchQueue,
    store: SiteStore,
    /// Jobs staging inputs, by handle.
    staging: BTreeMap<JobHandle, Staging>,
    /// Archive destination per handle (planner step 4).
    archive: BTreeMap<JobHandle, SiteId>,
    /// Sphinx jobs in the batch system: handle → (batch id, request tag,
    /// enqueue time).
    in_batch: BTreeMap<JobHandle, (u64, u64, SimTime)>,
    /// Reverse map: batch id → handle.
    by_batch: BTreeMap<u64, JobHandle>,
    /// Outputs (file, MB) of sphinx jobs currently in the batch system.
    outputs: BTreeMap<JobHandle, (FileId, u64)>,
    /// Dispatch time of running batch jobs.
    started_at: BTreeMap<u64, SimTime>,
    counters: SiteCounters,
    /// Burst modulation phase (true = ON). Meaningless without a burst
    /// config.
    burst_on: bool,
    exec_rng: SimRng,
    bg_rng: SimRng,
    fault_rng: SimRng,
}

/// The simulated grid.
pub struct GridSim {
    events: EventQueue<Event>,
    sites: Vec<SiteRuntime>,
    site_index: BTreeMap<SiteId, usize>,
    rls: ReplicaService,
    transfer_model: TransferModel,
    transfers: TransferTracker,
    out: Vec<Notification>,
    next_handle: u64,
    submit_rng: SimRng,
    telemetry: Option<Arc<Telemetry>>,
}

impl GridSim {
    /// Build a grid over the given sites, seeded deterministically.
    pub fn new(sites: Vec<SiteSpec>, transfer_model: TransferModel, seed: u64) -> Self {
        let root = SimRng::new(seed);
        let mut events = EventQueue::new();
        let mut runtimes = Vec::with_capacity(sites.len());
        let mut site_index = BTreeMap::new();
        for (i, spec) in sites.into_iter().enumerate() {
            site_index.insert(spec.id, i);
            let mut batch = BatchQueue::new(spec.cpus);
            batch.set_frozen(spec.faults.black_hole);
            let mut rt = SiteRuntime {
                up: true,
                batch,
                store: SiteStore::new(spec.storage_mb),
                staging: BTreeMap::new(),
                archive: BTreeMap::new(),
                in_batch: BTreeMap::new(),
                by_batch: BTreeMap::new(),
                outputs: BTreeMap::new(),
                started_at: BTreeMap::new(),
                counters: SiteCounters::default(),
                burst_on: true,
                exec_rng: root.derive_indexed("site-exec", i as u64),
                bg_rng: root.derive_indexed("site-bg", i as u64),
                fault_rng: root.derive_indexed("site-fault", i as u64),
                spec,
            };
            // Warm-start the site at its background steady state (Little's
            // law: jobs in system = runtime / inter-arrival). Without this
            // every run would begin on an unrealistically empty grid and
            // spend its whole duration ramping up.
            if let Some(mean) = rt.spec.background.arrival_mean {
                let occupancy =
                    rt.spec.background.runtime_mean.as_secs_f64() / mean.as_secs_f64().max(1e-9);
                // Cap the initial backlog at one CPU-round beyond capacity;
                // oversaturated sites keep growing from there naturally.
                let initial = occupancy.round() as u32;
                let initial = initial.min(rt.spec.cpus * 2);
                for _ in 0..initial {
                    // Residual runtimes are exponential too (memorylessness).
                    let runtime = rt.bg_rng.exp_duration(rt.spec.background.runtime_mean);
                    rt.batch.enqueue(JobOwner::Background, runtime);
                }
                for job in rt.batch.dispatch() {
                    events.push(
                        SimTime::ZERO + job.runtime,
                        Event::Finish {
                            site: i,
                            batch_id: job.id,
                        },
                    );
                }
                let at = SimTime::ZERO + rt.bg_rng.exp_duration(mean);
                events.push(at, Event::BgArrive { site: i });
                if let Some(burst) = &rt.spec.background.burst {
                    let flip = SimTime::ZERO + rt.bg_rng.exp_duration(burst.on_mean);
                    events.push(flip, Event::BurstFlip { site: i });
                }
            }
            if let Some(mtbf) = rt.spec.faults.mtbf {
                let at = SimTime::ZERO + rt.fault_rng.exp_duration(mtbf);
                events.push(at, Event::Crash { site: i });
            }
            runtimes.push(rt);
        }
        GridSim {
            events,
            sites: runtimes,
            site_index,
            rls: ReplicaService::new(),
            transfer_model,
            transfers: TransferTracker::new(),
            out: Vec::new(),
            next_handle: 0,
            submit_rng: root.derive("submit"),
            telemetry: None,
        }
    }

    /// Attach a telemetry hub; every sphinx-job submit/start/complete/
    /// hold/cancel is traced with the request tag as the job key.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.telemetry = Some(telemetry);
    }

    /// The simulation clock.
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// Site specifications, in id order of construction.
    pub fn site_specs(&self) -> Vec<&SiteSpec> {
        self.sites.iter().map(|s| &s.spec).collect()
    }

    /// The replica service (e.g. for pre-seeding external datasets).
    pub fn rls_mut(&mut self) -> &mut ReplicaService {
        &mut self.rls
    }

    /// The transfer-cost model (the planner consults it to pick transfer
    /// sources).
    pub fn transfer_model(&self) -> &TransferModel {
        &self.transfer_model
    }

    /// Immutable replica service access.
    pub fn rls(&self) -> &ReplicaService {
        &self.rls
    }

    /// Ground-truth snapshot of one site.
    pub fn snapshot(&self, site: SiteId) -> Option<SiteSnapshot> {
        let &i = self.site_index.get(&site)?;
        let rt = &self.sites[i];
        Some(SiteSnapshot {
            site,
            cpus: rt.spec.cpus,
            queued: rt.batch.queued_count(),
            running: rt.batch.running_count(),
            up: rt.up,
        })
    }

    /// Ground-truth snapshots of every site.
    pub fn snapshots(&self) -> Vec<SiteSnapshot> {
        self.sites
            .iter()
            .map(|rt| SiteSnapshot {
                site: rt.spec.id,
                cpus: rt.spec.cpus,
                queued: rt.batch.queued_count(),
                running: rt.batch.running_count(),
                up: rt.up,
            })
            .collect()
    }

    /// Lifetime counters of one site.
    pub fn counters(&self, site: SiteId) -> Option<SiteCounters> {
        self.site_index.get(&site).map(|&i| self.sites[i].counters)
    }

    /// Submit an execution plan to a site. Returns the submission handle;
    /// all further information arrives as [`Notification`]s.
    pub fn submit(&mut self, site: SiteId, request: JobRequest) -> JobHandle {
        let handle = JobHandle(self.next_handle);
        self.next_handle += 1;
        let i = self.site_index[&site];
        let latency = self
            .submit_rng
            .jittered(self.sites[i].spec.faults.submit_latency, 0.5);
        let now = self.now();
        let at = now + latency;
        note_slot(&self.telemetry, site, request.tag, GridStep::Submit, now);
        self.sites[i].staging.insert(
            handle,
            Staging {
                request,
                remaining: usize::MAX, // set properly on arrival
            },
        );
        self.events.push(at, Event::Arrive { site: i, handle });
        handle
    }

    /// Cancel a submission (client-side kill after a timeout). Returns
    /// whether any trace of the job was found at the site.
    pub fn cancel(&mut self, site: SiteId, handle: JobHandle) -> bool {
        let Some(&i) = self.site_index.get(&site) else {
            return false;
        };
        let now = self.now();
        let rt = &mut self.sites[i];
        if let Some(staging) = rt.staging.remove(&handle) {
            // Abort outstanding transfers' contention accounting.
            for input in &staging.request.inputs {
                if let Some(src) = input.source {
                    self.transfers.end(src, rt.spec.id);
                }
            }
            let tag = staging.request.tag;
            note_slot(&self.telemetry, site, tag, GridStep::Cancel, now);
            return true;
        }
        if let Some((batch_id, tag, _)) = rt.in_batch.remove(&handle) {
            rt.by_batch.remove(&batch_id);
            rt.outputs.remove(&handle);
            rt.archive.remove(&handle);
            rt.started_at.remove(&batch_id);
            let found = rt.batch.cancel(batch_id).is_some();
            let started = rt.batch.dispatch();
            note_slot(&self.telemetry, site, tag, GridStep::Cancel, now);
            let site_idx = i;
            self.after_dispatch(site_idx, started);
            return found;
        }
        false
    }

    /// Schedule a wakeup notification at absolute time `at`.
    pub fn schedule_wakeup(&mut self, at: SimTime, token: u64) {
        self.events.push(at, Event::Wakeup { token });
    }

    /// Process the next event. Returns `false` when no events remain.
    // sphinx-hot
    pub fn step(&mut self) -> bool {
        let Some((_, event)) = self.events.pop() else {
            return false;
        };
        self.handle(event);
        true
    }

    /// Drain pending notifications.
    pub fn poll(&mut self) -> Vec<Notification> {
        std::mem::take(&mut self.out)
    }

    /// Fire time of the next pending event.
    ///
    /// Recurring processes (background load, crash/repair cycles) keep the
    /// event queue non-empty forever, so drivers must loop on a horizon or
    /// an external completion condition, not on queue emptiness.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Step every event up to and including time `until`. Notifications
    /// accumulate and remain pollable.
    pub fn run_until(&mut self, until: SimTime) {
        while self.events.peek_time().is_some_and(|t| t <= until) {
            self.step();
        }
    }

    // ---- internals ----

    fn handle(&mut self, event: Event) {
        match event {
            Event::Arrive { site, handle } => self.on_arrive(site, handle),
            Event::StageDone { site, handle, src } => self.on_stage_done(site, handle, src),
            Event::Finish { site, batch_id } => self.on_finish(site, batch_id),
            Event::Kill { site, batch_id } => self.on_kill(site, batch_id),
            Event::BgArrive { site } => self.on_bg_arrive(site),
            Event::BurstFlip { site } => self.on_burst_flip(site),
            Event::Crash { site } => self.on_crash(site),
            Event::Repair { site } => self.on_repair(site),
            Event::ArchiveDone {
                src,
                dst,
                file,
                size_mb,
            } => self.on_archive_done(src, dst, file, size_mb),
            Event::Wakeup { token } => self.out.push(Notification::Wakeup { token }),
        }
    }

    fn on_arrive(&mut self, i: usize, handle: JobHandle) {
        let now = self.now();
        let rt = &mut self.sites[i];
        let Some(staging) = rt.staging.get_mut(&handle) else {
            return; // cancelled before arrival
        };
        if !rt.up {
            // Site down: the gatekeeper never answers. The client learns
            // only through its own timeout (paper: "a job planned on a
            // site may never complete").
            rt.staging.remove(&handle);
            rt.counters.submissions_lost += 1;
            return;
        }
        // Start the input transfers the plan calls for.
        let dst = rt.spec.id;
        staging.remaining = 0;
        for inp in &staging.request.inputs {
            let Some(src) = inp.source else {
                continue;
            };
            staging.remaining += 1;
            let d = self
                .transfers
                .begin(&self.transfer_model, src, dst, inp.size_mb);
            self.events.push(
                now + d,
                Event::StageDone {
                    site: i,
                    handle,
                    src,
                },
            );
        }
        if staging.remaining == 0 {
            self.enqueue_ready(i, handle, now);
        }
    }

    fn on_stage_done(&mut self, i: usize, handle: JobHandle, src: SiteId) {
        let now = self.now();
        let dst = self.sites[i].spec.id;
        self.transfers.end(src, dst);
        let rt = &mut self.sites[i];
        let Some(staging) = rt.staging.get_mut(&handle) else {
            return; // cancelled or site crashed meanwhile
        };
        staging.remaining -= 1;
        if staging.remaining == 0 {
            self.enqueue_ready(i, handle, now);
        }
    }

    /// All inputs present: cache them locally, enter the batch queue.
    fn enqueue_ready(&mut self, i: usize, handle: JobHandle, now: SimTime) {
        let rt = &mut self.sites[i];
        let Some(staging) = rt.staging.remove(&handle) else {
            return;
        };
        let req = staging.request;
        let site = rt.spec.id;
        // Intern the request's file names, once. Cache staged inputs at
        // the site (best effort: a full storage element just doesn't
        // cache; the job still ran with its data).
        for inp in req.inputs.iter().filter(|inp| inp.source.is_some()) {
            let file = self.rls.intern(&inp.file);
            if rt.store.put(file, inp.size_mb).is_ok() {
                self.rls.register_id(file, site);
            }
        }
        if let Some(dst) = req.archive_to {
            rt.archive.insert(handle, dst);
        }
        let runtime_nominal = req.compute.mul_f64(1.0 / rt.spec.cpu_speed.max(0.01));
        let runtime = rt.exec_rng.jittered(runtime_nominal, 0.05);
        let batch_id = rt
            .batch
            .enqueue(JobOwner::Sphinx { handle: handle.0 }, runtime);
        rt.in_batch.insert(handle, (batch_id, req.tag, now));
        rt.by_batch.insert(batch_id, handle);
        let output = self.rls.intern(&req.output.file);
        rt.outputs.insert(handle, (output, req.output.size_mb));
        note_slot(&self.telemetry, site, req.tag, GridStep::Queued, now);
        self.out.push(Notification::JobQueued {
            handle,
            tag: req.tag,
            site,
        });
        let started = rt.batch.dispatch();
        self.after_dispatch(i, started);
    }

    /// Schedule finish (and maybe kill) events for newly started jobs and
    /// emit running notifications.
    fn after_dispatch(&mut self, i: usize, started: Vec<crate::batch::BatchJob>) {
        let now = self.now();
        for job in started {
            self.sites[i].started_at.insert(job.id, now);
            self.events.push(
                now + job.runtime,
                Event::Finish {
                    site: i,
                    batch_id: job.id,
                },
            );
            if let JobOwner::Sphinx { handle } = job.owner {
                let handle = JobHandle(handle);
                let rt = &mut self.sites[i];
                if let Some(&(_, tag, _)) = rt.in_batch.get(&handle) {
                    let site = rt.spec.id;
                    note_slot(&self.telemetry, site, tag, GridStep::Start, now);
                    self.out
                        .push(Notification::JobRunning { handle, tag, site });
                }
                // Mid-run kill lottery.
                let p = self.sites[i].spec.faults.kill_prob;
                if p > 0.0 && self.sites[i].exec_rng.chance(p) {
                    let frac = self.sites[i].exec_rng.range_f64(0.1, 0.9);
                    let at = now + job.runtime.mul_f64(frac);
                    self.events.push(
                        at,
                        Event::Kill {
                            site: i,
                            batch_id: job.id,
                        },
                    );
                }
            }
        }
    }

    fn on_finish(&mut self, i: usize, batch_id: u64) {
        let now = self.now();
        let rt = &mut self.sites[i];
        let Some(job) = rt.batch.finish(batch_id) else {
            return; // cancelled/killed/crashed meanwhile
        };
        let started = rt.started_at.remove(&batch_id).unwrap_or(now);
        match job.owner {
            JobOwner::Background => {
                rt.counters.background_completed += 1;
            }
            JobOwner::Sphinx { handle } => {
                let handle = JobHandle(handle);
                rt.by_batch.remove(&batch_id);
                if let Some((_, tag, enqueued)) = rt.in_batch.remove(&handle) {
                    let site = rt.spec.id;
                    // Materialise and register the output; kick off the
                    // archival copy if the plan asked for one (step 4).
                    let archive_to = rt.archive.remove(&handle);
                    if let Some((file, size_mb)) = rt.outputs.remove(&handle) {
                        if rt.store.put(file, size_mb).is_ok() {
                            self.rls.register_id(file, site);
                        }
                        if let Some(dst) = archive_to.filter(|&d| d != site) {
                            let d = self
                                .transfers
                                .begin(&self.transfer_model, site, dst, size_mb);
                            self.events.push(
                                now + d,
                                Event::ArchiveDone {
                                    src: site,
                                    dst,
                                    file,
                                    size_mb,
                                },
                            );
                        }
                    }
                    rt.counters.sphinx_completed += 1;
                    note_slot(&self.telemetry, site, tag, GridStep::Complete, now);
                    self.out.push(Notification::JobCompleted {
                        handle,
                        tag,
                        site,
                        queued_for: started.since(enqueued),
                        ran_for: now.since(started),
                    });
                }
            }
        }
        let started_jobs = self.sites[i].batch.dispatch();
        self.after_dispatch(i, started_jobs);
    }

    fn on_kill(&mut self, i: usize, batch_id: u64) {
        let rt = &mut self.sites[i];
        if !rt.batch.is_running(batch_id) {
            return; // already finished or cancelled
        }
        let Some(&handle) = rt.by_batch.get(&batch_id) else {
            return;
        };
        rt.batch.cancel(batch_id);
        rt.by_batch.remove(&batch_id);
        rt.started_at.remove(&batch_id);
        rt.outputs.remove(&handle);
        let site = rt.spec.id;
        if let Some((_, tag, _)) = rt.in_batch.remove(&handle) {
            rt.counters.sphinx_held += 1;
            let now = self.events.now();
            note_slot(&self.telemetry, site, tag, GridStep::Hold, now);
            self.out.push(Notification::JobHeld {
                handle,
                tag,
                site,
                reason: HoldReason::KilledBySite,
            });
        }
        let started_jobs = self.sites[i].batch.dispatch();
        self.after_dispatch(i, started_jobs);
    }

    fn on_archive_done(&mut self, src: SiteId, dst: SiteId, file: FileId, size_mb: u64) {
        self.transfers.end(src, dst);
        if let Some(&i) = self.site_index.get(&dst) {
            if self.sites[i].store.put(file, size_mb).is_ok() {
                self.rls.register_id(file, dst);
            }
        }
    }

    fn on_bg_arrive(&mut self, i: usize) {
        let now = self.now();
        let rt = &mut self.sites[i];
        // Always schedule the next arrival first so load continues across
        // downtime. During an OFF burst phase the arrival rate drops by
        // the configured factor (inter-arrival stretches accordingly).
        if let Some(mean) = rt.spec.background.arrival_mean {
            let effective = match (&rt.spec.background.burst, rt.burst_on) {
                (Some(burst), false) => mean.mul_f64(1.0 / burst.off_factor.clamp(0.01, 1.0)),
                _ => mean,
            };
            let next = now + rt.bg_rng.exp_duration(effective);
            self.events.push(next, Event::BgArrive { site: i });
        }
        if !rt.up {
            return;
        }
        let runtime = rt.bg_rng.exp_duration(rt.spec.background.runtime_mean);
        rt.batch.enqueue(JobOwner::Background, runtime);
        let started = rt.batch.dispatch();
        self.after_dispatch(i, started);
    }

    fn on_burst_flip(&mut self, i: usize) {
        let now = self.now();
        let rt = &mut self.sites[i];
        let Some(burst) = &rt.spec.background.burst else {
            return;
        };
        rt.burst_on = !rt.burst_on;
        let phase_mean = if rt.burst_on {
            burst.on_mean
        } else {
            burst.off_mean
        };
        let next = now + rt.bg_rng.exp_duration(phase_mean);
        self.events.push(next, Event::BurstFlip { site: i });
    }

    fn on_crash(&mut self, i: usize) {
        let now = self.now();
        let rt = &mut self.sites[i];
        if rt.up {
            rt.up = false;
            rt.counters.crashes += 1;
            let site = rt.spec.id;
            // Everything in the batch system dies; sphinx jobs surface as
            // held (the tracker "reports the status change to the server").
            let (queued, running) = rt.batch.kill_all();
            for job in queued.into_iter().chain(running) {
                rt.started_at.remove(&job.id);
                if let JobOwner::Sphinx { handle } = job.owner {
                    let handle = JobHandle(handle);
                    rt.by_batch.remove(&job.id);
                    rt.outputs.remove(&handle);
                    if let Some((_, tag, _)) = rt.in_batch.remove(&handle) {
                        rt.counters.sphinx_held += 1;
                        note_slot(&self.telemetry, site, tag, GridStep::Hold, now);
                        self.out.push(Notification::JobHeld {
                            handle,
                            tag,
                            site,
                            reason: HoldReason::SiteCrashed,
                        });
                    }
                }
            }
            // Staging jobs are lost silently (their gatekeeper session
            // died); release transfer slots.
            let staging = std::mem::take(&mut rt.staging);
            rt.counters.submissions_lost += staging.len() as u64;
            for staging in staging.values() {
                for inp in &staging.request.inputs {
                    if let Some(src) = inp.source {
                        self.transfers.end(src, site);
                    }
                }
            }
            let rt = &mut self.sites[i];
            // Schedule the repair.
            let mttr = rt.spec.faults.mttr;
            let at = now + rt.fault_rng.exp_duration(mttr);
            self.events.push(at, Event::Repair { site: i });
        }
    }

    fn on_repair(&mut self, i: usize) {
        let now = self.now();
        let rt = &mut self.sites[i];
        rt.up = true;
        // Schedule the next crash.
        if let Some(mtbf) = rt.spec.faults.mtbf {
            let at = now + rt.fault_rng.exp_duration(mtbf);
            self.events.push(at, Event::Crash { site: i });
        }
    }
}

impl std::fmt::Debug for GridSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GridSim")
            .field("sites", &self.sites.len())
            .field("now", &self.now())
            .field("pending_events", &self.events.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::StagedInput;
    use crate::site::{BackgroundLoad, FaultProfile};
    use sphinx_data::{FileSpec, LogicalFile};

    fn one_site_grid(cpus: u32) -> GridSim {
        let site = SiteSpec::new(SiteId(0), "solo", cpus);
        GridSim::new(vec![site], TransferModel::default(), 42)
    }

    fn run_to_idle(grid: &mut GridSim) -> Vec<Notification> {
        let mut all = Vec::new();
        while grid.step() {
            all.extend(grid.poll());
        }
        all
    }

    fn req(tag: u64, mins: u64) -> JobRequest {
        JobRequest::compute_only(
            tag,
            Duration::from_mins(mins),
            FileSpec::new(format!("out{tag}"), 10),
        )
    }

    #[test]
    fn job_lifecycle_produces_ordered_notifications() {
        let mut grid = one_site_grid(4);
        grid.submit(SiteId(0), req(7, 1));
        let notes = run_to_idle(&mut grid);
        let kinds: Vec<&str> = notes
            .iter()
            .map(|n| match n {
                Notification::JobQueued { .. } => "queued",
                Notification::JobRunning { .. } => "running",
                Notification::JobCompleted { .. } => "completed",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, vec!["queued", "running", "completed"]);
        if let Notification::JobCompleted {
            tag,
            queued_for,
            ran_for,
            ..
        } = &notes[2]
        {
            assert_eq!(*tag, 7);
            assert_eq!(*queued_for, Duration::ZERO);
            let secs = ran_for.as_secs_f64();
            assert!((55.0..=65.0).contains(&secs), "ran for {secs}");
        } else {
            panic!("expected completion");
        }
    }

    #[test]
    fn output_is_registered_in_rls() {
        let mut grid = one_site_grid(1);
        grid.submit(SiteId(0), req(1, 1));
        run_to_idle(&mut grid);
        assert_eq!(
            grid.rls_mut().locate(&LogicalFile::from("out1")),
            vec![SiteId(0)]
        );
        assert_eq!(grid.counters(SiteId(0)).unwrap().sphinx_completed, 1);
    }

    #[test]
    fn fcfs_queueing_on_saturated_site() {
        let mut grid = one_site_grid(1);
        grid.submit(SiteId(0), req(1, 10));
        grid.submit(SiteId(0), req(2, 1));
        let notes = run_to_idle(&mut grid);
        let completions: Vec<u64> = notes
            .iter()
            .filter_map(|n| match n {
                Notification::JobCompleted { tag, .. } => Some(*tag),
                _ => None,
            })
            .collect();
        assert_eq!(completions, vec![1, 2], "FCFS: first submitted first done");
        // The second job should have accumulated queue (idle) time.
        let queued_for = notes
            .iter()
            .find_map(|n| match n {
                Notification::JobCompleted {
                    tag: 2, queued_for, ..
                } => Some(*queued_for),
                _ => None,
            })
            .unwrap();
        assert!(queued_for >= Duration::from_mins(9), "idle {queued_for}");
    }

    #[test]
    fn staging_delays_enqueue() {
        let site0 = SiteSpec::new(SiteId(0), "exec", 4);
        let site1 = SiteSpec::new(SiteId(1), "storage", 4);
        let model = TransferModel::uniform(10.0, Duration::from_secs(5));
        let mut grid = GridSim::new(vec![site0, site1], model, 1);
        grid.rls_mut().register(LogicalFile::from("in"), SiteId(1));
        let request = JobRequest {
            tag: 3,
            compute: Duration::from_mins(1),
            inputs: vec![StagedInput {
                file: "in".into(),
                size_mb: 100,
                source: Some(SiteId(1)),
            }],
            output: FileSpec::new("out", 10),
            archive_to: None,
        };
        grid.submit(SiteId(0), request);
        let notes = run_to_idle(&mut grid);
        // ~10s submit + 15s transfer + 60s run.
        assert!(grid.now() >= SimTime::from_secs(75));
        // The staged input is now cached and registered at the exec site.
        assert!(grid
            .rls_mut()
            .locate(&LogicalFile::from("in"))
            .contains(&SiteId(0)));
        assert!(notes
            .iter()
            .any(|n| matches!(n, Notification::JobCompleted { tag: 3, .. })));
    }

    #[test]
    fn black_hole_site_queues_forever() {
        let site = SiteSpec::new(SiteId(0), "hole", 8).with_faults(FaultProfile::black_hole());
        let mut grid = GridSim::new(vec![site], TransferModel::default(), 3);
        grid.submit(SiteId(0), req(1, 1));
        let notes = run_to_idle(&mut grid);
        assert!(notes
            .iter()
            .any(|n| matches!(n, Notification::JobQueued { .. })));
        assert!(!notes
            .iter()
            .any(|n| matches!(n, Notification::JobRunning { .. })));
        let snap = grid.snapshot(SiteId(0)).unwrap();
        assert_eq!(snap.queued, 1);
        assert_eq!(snap.running, 0);
    }

    #[test]
    fn cancel_removes_queued_job() {
        let mut grid = one_site_grid(1);
        grid.submit(SiteId(0), req(1, 10));
        let h2 = grid.submit(SiteId(0), req(2, 10));
        // Step until the second job is queued.
        while grid.snapshot(SiteId(0)).unwrap().queued < 1 {
            assert!(grid.step());
        }
        assert!(grid.cancel(SiteId(0), h2));
        let notes = run_to_idle(&mut grid);
        assert!(!notes
            .iter()
            .any(|n| matches!(n, Notification::JobCompleted { tag: 2, .. })));
    }

    #[test]
    fn cancel_unknown_handle_is_false() {
        let mut grid = one_site_grid(1);
        assert!(!grid.cancel(SiteId(0), JobHandle(999)));
        assert!(!grid.cancel(SiteId(42), JobHandle(0)));
    }

    #[test]
    fn crash_holds_jobs_and_repairs_later() {
        let site = SiteSpec::new(SiteId(0), "flaky", 2).with_faults(FaultProfile {
            mtbf: Some(Duration::from_secs(40)),
            mttr: Duration::from_secs(10),
            ..FaultProfile::default()
        });
        let mut grid = GridSim::new(vec![site], TransferModel::default(), 5);
        // Long job that will be caught by a crash eventually.
        grid.submit(SiteId(0), req(1, 60));
        let mut held = false;
        let mut deadline = 0;
        while grid.step() && deadline < 100_000 {
            deadline += 1;
            for n in grid.poll() {
                if let Notification::JobHeld { tag: 1, reason, .. } = n {
                    assert_eq!(reason, HoldReason::SiteCrashed);
                    held = true;
                }
            }
            if held {
                break;
            }
        }
        assert!(held, "job should be held by a crash");
        assert!(grid.counters(SiteId(0)).unwrap().crashes >= 1);
    }

    #[test]
    fn submission_to_down_site_is_silently_lost() {
        let site = SiteSpec::new(SiteId(0), "down", 2).with_faults(FaultProfile {
            mtbf: Some(Duration::from_millis(1)), // crash immediately
            mttr: Duration::from_secs(100_000),
            ..FaultProfile::default()
        });
        let mut grid = GridSim::new(vec![site], TransferModel::default(), 5);
        // Let the crash event fire first.
        grid.schedule_wakeup(SimTime::from_secs(5), 0);
        while grid.step() {
            if grid
                .poll()
                .iter()
                .any(|n| matches!(n, Notification::Wakeup { token: 0 }))
            {
                break;
            }
        }
        grid.submit(SiteId(0), req(1, 1));
        grid.run_until(SimTime::from_secs(3600));
        let notes = grid.poll();
        assert!(
            notes
                .iter()
                .all(|n| !matches!(n, Notification::JobQueued { .. })),
            "no queue notification from a dead site"
        );
        assert_eq!(grid.counters(SiteId(0)).unwrap().submissions_lost, 1);
    }

    #[test]
    fn kill_prob_one_always_kills() {
        let site = SiteSpec::new(SiteId(0), "killer", 2).with_faults(FaultProfile {
            kill_prob: 1.0,
            ..FaultProfile::default()
        });
        let mut grid = GridSim::new(vec![site], TransferModel::default(), 9);
        grid.submit(SiteId(0), req(1, 5));
        let notes = run_to_idle(&mut grid);
        assert!(notes.iter().any(|n| matches!(
            n,
            Notification::JobHeld {
                reason: HoldReason::KilledBySite,
                ..
            }
        )));
        assert!(!notes
            .iter()
            .any(|n| matches!(n, Notification::JobCompleted { .. })));
    }

    #[test]
    fn background_load_occupies_cpus() {
        let site = SiteSpec::new(SiteId(0), "busy", 4)
            .with_background(BackgroundLoad::utilization(4, 0.9, Duration::from_mins(10)));
        let mut grid = GridSim::new(vec![site], TransferModel::default(), 11);
        grid.schedule_wakeup(SimTime::from_secs(3600), 0);
        let mut seen_running = 0usize;
        while grid.step() {
            let done = grid
                .poll()
                .iter()
                .any(|n| matches!(n, Notification::Wakeup { token: 0 }));
            seen_running = seen_running.max(grid.snapshot(SiteId(0)).unwrap().running);
            if done {
                break;
            }
        }
        assert!(seen_running > 0, "background jobs should run");
        assert!(grid.counters(SiteId(0)).unwrap().background_completed > 0);
    }

    #[test]
    fn archival_copies_output_to_persistent_storage() {
        let sites = vec![
            SiteSpec::new(SiteId(0), "exec", 2),
            SiteSpec::new(SiteId(1), "tape", 2),
        ];
        let mut grid = GridSim::new(sites, TransferModel::default(), 8);
        let mut request = req(1, 1);
        request.archive_to = Some(SiteId(1));
        grid.submit(SiteId(0), request);
        run_to_idle(&mut grid);
        let replicas = grid.rls_mut().locate(&LogicalFile::from("out1"));
        assert!(replicas.contains(&SiteId(0)), "original at exec site");
        assert!(replicas.contains(&SiteId(1)), "archival copy at tape site");
    }

    #[test]
    fn burst_modulation_reduces_off_phase_arrivals() {
        use crate::site::Burst;
        let run = |burst: Option<Burst>| {
            let mut bg = BackgroundLoad::utilization(8, 0.8, Duration::from_mins(5));
            if let Some(b) = burst {
                bg = bg.with_burst(b);
            }
            let site = SiteSpec::new(SiteId(0), "s", 8).with_background(bg);
            let mut grid = GridSim::new(vec![site], TransferModel::default(), 21);
            grid.run_until(SimTime::from_secs(4 * 3600));
            grid.counters(SiteId(0)).unwrap().background_completed
        };
        let steady = run(None);
        let bursty = run(Some(Burst {
            on_mean: Duration::from_mins(30),
            off_mean: Duration::from_mins(30),
            off_factor: 0.05,
        }));
        assert!(bursty > 0, "bursty load still produces jobs");
        assert!(
            bursty < steady,
            "half-time OFF phases must reduce throughput: {bursty} vs {steady}"
        );
    }

    #[test]
    fn wakeups_fire_in_order() {
        let mut grid = one_site_grid(1);
        grid.schedule_wakeup(SimTime::from_secs(10), 1);
        grid.schedule_wakeup(SimTime::from_secs(5), 2);
        let notes = run_to_idle(&mut grid);
        let tokens: Vec<u64> = notes
            .iter()
            .filter_map(|n| match n {
                Notification::Wakeup { token } => Some(*token),
                _ => None,
            })
            .collect();
        assert_eq!(tokens, vec![2, 1]);
    }

    #[test]
    fn snapshots_reflect_state() {
        let mut grid = one_site_grid(2);
        for t in 0..5 {
            grid.submit(SiteId(0), req(t, 10));
        }
        // Run until all five are in the batch system.
        for _ in 0..50 {
            if !grid.step() {
                break;
            }
            let s = grid.snapshot(SiteId(0)).unwrap();
            if s.queued + s.running == 5 {
                break;
            }
        }
        let s = grid.snapshot(SiteId(0)).unwrap();
        assert_eq!(s.running, 2);
        assert_eq!(s.queued, 3);
        assert!(s.up);
        assert_eq!(grid.snapshots().len(), 1);
        assert!(grid.snapshot(SiteId(9)).is_none());
    }

    #[test]
    fn snapshot_reflects_downtime() {
        let site = SiteSpec::new(SiteId(0), "s", 2).with_faults(FaultProfile {
            mtbf: Some(Duration::from_millis(1)),
            mttr: Duration::from_secs(100_000),
            ..FaultProfile::default()
        });
        let mut grid = GridSim::new(vec![site], TransferModel::default(), 2);
        grid.run_until(SimTime::from_secs(60));
        assert!(!grid.snapshot(SiteId(0)).unwrap().up);
    }

    #[test]
    fn tiny_storage_still_completes_jobs() {
        // A site whose storage element cannot hold the output: the job
        // still runs (best-effort caching), the output just is not
        // registered there.
        let site = SiteSpec::new(SiteId(0), "tiny", 2).with_storage_mb(1);
        let mut grid = GridSim::new(vec![site], TransferModel::default(), 4);
        grid.submit(SiteId(0), req(1, 1));
        let notes = run_to_idle(&mut grid);
        assert!(notes
            .iter()
            .any(|n| matches!(n, Notification::JobCompleted { tag: 1, .. })));
        // Output too large for the 1 MB store: no replica registered.
        assert!(grid.rls_mut().locate(&LogicalFile::from("out1")).is_empty());
    }

    #[test]
    fn concurrent_staging_to_one_site_contends() {
        // Two exec sites pull from the same storage site; the second
        // transfer shares the source link and finishes later than a lone
        // transfer would.
        let sites = vec![
            SiteSpec::new(SiteId(0), "exec-a", 4),
            SiteSpec::new(SiteId(1), "exec-b", 4),
            SiteSpec::new(SiteId(2), "storage", 4),
        ];
        let model = TransferModel::uniform(10.0, Duration::ZERO);
        let mut grid = GridSim::new(sites, model, 6);
        grid.rls_mut().register(LogicalFile::from("big"), SiteId(2));
        for (tag, dst) in [(1u64, SiteId(0)), (2, SiteId(1))] {
            grid.submit(
                dst,
                JobRequest {
                    tag,
                    compute: Duration::from_secs(1),
                    inputs: vec![StagedInput {
                        file: "big".into(),
                        size_mb: 600,
                        source: Some(SiteId(2)),
                    }],
                    output: FileSpec::new(format!("o{tag}"), 1),
                    archive_to: None,
                },
            );
        }
        run_to_idle(&mut grid);
        // Lone transfer: 600/10 = 60 s. Shared source: the later-started
        // transfer sees halved bandwidth, so the run must take longer
        // than submit-latency + 60 s + compute.
        assert!(
            grid.now() > SimTime::from_secs(90),
            "contention should stretch staging: ended at {}",
            grid.now()
        );
    }

    #[test]
    fn telemetry_traces_submit_start_complete() {
        let tel = Telemetry::shared();
        let mut grid = one_site_grid(2);
        grid.set_telemetry(Arc::clone(&tel));
        grid.submit(SiteId(0), req(7, 1));
        run_to_idle(&mut grid);
        assert_eq!(tel.counter("grid.submits"), 1);
        assert_eq!(tel.counter("grid.starts"), 1);
        assert_eq!(tel.counter("grid.completions"), 1);
        assert_eq!(tel.counter("grid.holds"), 0);
        let snap = tel.snapshot();
        let tally = snap.sites.get(&0).copied().unwrap_or_default();
        assert_eq!(tally.submits, 1);
        assert_eq!(tally.completions, 1);
    }

    #[test]
    fn telemetry_traces_cancel_and_hold() {
        let tel = Telemetry::shared();
        let mut grid = one_site_grid(1);
        grid.set_telemetry(Arc::clone(&tel));
        grid.submit(SiteId(0), req(1, 10));
        let h2 = grid.submit(SiteId(0), req(2, 10));
        while grid.snapshot(SiteId(0)).unwrap().queued < 1 {
            assert!(grid.step());
        }
        assert!(grid.cancel(SiteId(0), h2));
        assert_eq!(tel.counter("grid.cancels"), 1);

        let killer = SiteSpec::new(SiteId(0), "killer", 2).with_faults(FaultProfile {
            kill_prob: 1.0,
            ..FaultProfile::default()
        });
        let tel2 = Telemetry::shared();
        let mut grid2 = GridSim::new(vec![killer], TransferModel::default(), 9);
        grid2.set_telemetry(Arc::clone(&tel2));
        grid2.submit(SiteId(0), req(1, 5));
        run_to_idle(&mut grid2);
        assert_eq!(tel2.counter("grid.holds"), 1);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let build = |seed| {
            let site = SiteSpec::new(SiteId(0), "s", 2)
                .with_background(BackgroundLoad::utilization(2, 0.5, Duration::from_mins(5)));
            let mut grid = GridSim::new(vec![site], TransferModel::default(), seed);
            for t in 0..10 {
                grid.submit(SiteId(0), req(t, 2));
            }
            grid.run_until(SimTime::from_secs(7200));
            let notes = grid.poll();
            (grid.now(), notes.len())
        };
        assert_eq!(build(77), build(77));
        assert_ne!(build(77), build(78));
    }
}
