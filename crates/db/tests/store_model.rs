//! Model test: the store against plain `BTreeMap`s.
//!
//! Random sequences of every way in — `put` / `insert` / `update` /
//! `update_if` / `delete`, multi-table `Txn`s, `Queue` push / pop / drain,
//! explicit and automatic checkpoints, and crashes (some tearing the
//! final log line) followed by `recover` — with every way out (`scan`,
//! `scan_range`, `scan_filter`, `get`, `count`, `max_key`, queue order and
//! sequence numbers) compared with the model after every step and after
//! every recovery. A recovered database holds its tables as replayed
//! JSON until something touches them, so the first access after each
//! recovery alternates between a `get`, a scan and a write: every way a
//! table can be hydrated is exercised.

use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use sphinx_db::{CheckpointPolicy, Database, DbError, MemWal, Queue, Record};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
struct Task {
    id: u64,
    state: String,
    weight: u32,
    cost: Option<f64>,
}

impl Record for Task {
    const TABLE: &'static str = "tasks";
    fn key(&self) -> u64 {
        self.id
    }
}

#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
struct Site {
    site: u64,
    jobs: u64,
}

impl Record for Site {
    const TABLE: &'static str = "sites";
    fn key(&self) -> u64 {
        self.site
    }
}

const STATES: [&str; 3] = ["ready", "running", "do\"ne\n"];
const KEYS: u64 = 24;

fn task(key: u64, weight: u32) -> Task {
    Task {
        id: key,
        state: STATES[weight as usize % 3].to_owned(),
        weight,
        cost: weight.is_multiple_of(2).then_some(f64::from(weight) / 8.0),
    }
}

#[derive(Debug, Clone)]
enum Step {
    Put(u64, u32),
    Insert(u64, u32),
    /// `update`: add to the weight, unconditionally.
    Update(u64, u32),
    /// `update_if`: add to the weight only if it is even.
    UpdateIfEven(u64, u32),
    Delete(u64),
    /// One transaction: a `Task` put, a `Site` put, and a `Task` delete.
    Txn(u64, u32, u64),
    Push(u32),
    Pop,
    Drain,
    Checkpoint,
    /// Drop the database and recover it from its log, first tearing the
    /// final line if `tear`.
    Crash {
        tear: bool,
    },
}

fn step() -> impl Strategy<Value = Step> {
    let key = || 0u64..KEYS;
    let weight = || 0u32..100;
    prop_oneof![
        4 => (key(), weight()).prop_map(|(k, w)| Step::Put(k, w)),
        2 => (key(), weight()).prop_map(|(k, w)| Step::Insert(k, w)),
        3 => (key(), weight()).prop_map(|(k, w)| Step::Update(k, w)),
        2 => (key(), weight()).prop_map(|(k, w)| Step::UpdateIfEven(k, w)),
        2 => key().prop_map(Step::Delete),
        2 => (key(), weight(), key()).prop_map(|(k, w, d)| Step::Txn(k, w, d)),
        4 => weight().prop_map(Step::Push),
        2 => Just(Step::Pop),
        1 => Just(Step::Drain),
        1 => Just(Step::Checkpoint),
        2 => any::<bool>().prop_map(|tear| Step::Crash { tear }),
    ]
}

/// What the store should hold.
#[derive(Debug, Clone, Default, PartialEq)]
struct Model {
    tasks: BTreeMap<u64, Task>,
    sites: BTreeMap<u64, Site>,
    queue: BTreeMap<u64, u32>,
    next_seq: u64,
}

/// Small enough that the commit path compacts the log by itself every
/// few steps, between the explicit checkpoints.
const POLICY: CheckpointPolicy = CheckpointPolicy {
    enabled: true,
    ratio: 2,
    min_log_lines: 8,
};

fn inbox(db: &Database) -> Queue<'_, u32> {
    Queue::new(db, "inbox")
}

/// Apply `step` to both sides, checking what the operation itself returns.
fn apply(db: &Database, model: &mut Model, step: &Step) {
    match *step {
        Step::Put(k, w) => {
            db.put(&task(k, w)).unwrap();
            model.tasks.insert(k, task(k, w));
        }
        Step::Insert(k, w) => match db.insert(&task(k, w)) {
            Ok(()) => assert!(model.tasks.insert(k, task(k, w)).is_none()),
            Err(DbError::DuplicateKey { key, .. }) => {
                assert!(key == k && model.tasks.contains_key(&k));
            }
            Err(e) => panic!("{e}"),
        },
        Step::Update(k, w) => {
            let hit = db.update::<Task>(k, |t| t.weight += w).unwrap();
            assert_eq!(hit, model.tasks.contains_key(&k));
            if let Some(t) = model.tasks.get_mut(&k) {
                t.weight += w;
            }
        }
        Step::UpdateIfEven(k, w) => {
            let prior = db
                .update_if::<Task, u32>(k, |t| {
                    let prior = t.weight;
                    t.weight += w;
                    prior.is_multiple_of(2).then_some(prior)
                })
                .unwrap();
            let expected = model
                .tasks
                .get(&k)
                .map(|t| t.weight)
                .filter(|w| w.is_multiple_of(2));
            assert_eq!(prior, expected);
            if prior.is_some() {
                model.tasks.get_mut(&k).unwrap().weight += w;
            }
        }
        Step::Delete(k) => {
            assert_eq!(
                db.delete::<Task>(k).unwrap(),
                model.tasks.remove(&k).is_some()
            );
        }
        Step::Txn(k, w, d) => {
            let site = Site {
                site: k % 5,
                jobs: u64::from(w),
            };
            let mut txn = db.txn();
            txn.put(&task(k, w)).unwrap();
            txn.put(&site).unwrap();
            txn.delete::<Task>(d);
            txn.commit().unwrap();
            model.tasks.insert(k, task(k, w));
            model.sites.insert(site.site, site);
            model.tasks.remove(&d);
        }
        Step::Push(m) => {
            assert_eq!(inbox(db).push(&m).unwrap(), model.next_seq);
            model.queue.insert(model.next_seq, m);
            model.next_seq += 1;
        }
        Step::Pop => {
            let expected = model.queue.pop_first().map(|(_, m)| m);
            assert_eq!(inbox(db).pop().unwrap(), expected);
        }
        Step::Drain => {
            let expected: Vec<u32> = std::mem::take(&mut model.queue).into_values().collect();
            assert_eq!(inbox(db).drain().unwrap(), expected);
        }
        Step::Checkpoint => db.checkpoint().unwrap(),
        Step::Crash { .. } => unreachable!("handled by the driver"),
    }
}

/// Every way out of the store agrees with the model.
fn check(db: &Database, model: &Model, probe: u64) {
    let tasks: Vec<Task> = model.tasks.values().cloned().collect();
    assert_eq!(db.scan::<Task>().unwrap(), tasks);
    let sites: Vec<Site> = model.sites.values().cloned().collect();
    assert_eq!(db.scan::<Site>().unwrap(), sites);
    assert_eq!(db.count::<Task>(), tasks.len());
    assert_eq!(
        db.max_key::<Task>(),
        model.tasks.keys().next_back().copied()
    );
    assert_eq!(db.get::<Task>(probe), model.tasks.get(&probe).cloned());
    assert_eq!(db.contains::<Task>(probe), model.tasks.contains_key(&probe));
    let (lo, hi) = (probe / 2, probe / 2 + KEYS / 3);
    let ranged: Vec<Task> = model.tasks.range(lo..hi).map(|(_, t)| t.clone()).collect();
    assert_eq!(db.scan_range::<Task>(lo..hi).unwrap(), ranged);
    let state = STATES[probe as usize % 3];
    let filtered: Vec<Task> = tasks.iter().filter(|t| t.state == state).cloned().collect();
    assert_eq!(
        db.scan_filter::<Task>(|t| t.state == state).unwrap(),
        filtered
    );
    let queued: Vec<u32> = model.queue.values().copied().collect();
    assert_eq!(inbox(db).peek_all().unwrap(), queued);
    assert_eq!(inbox(db).len(), queued.len());
    let live = model.tasks.len() + model.sites.len() + model.queue.len();
    // The queue's counter row exists once anything was ever pushed.
    let counter = db.stats().iter().any(|t| t.name == "inbox.seq") as usize;
    assert_eq!(db.live_rows() as usize, live + counter);
}

/// [`apply`] a step, and keep `after_line` — the model as it stood after
/// each line now in the log was written — in step with the log.
fn run(db: &Database, wal: &MemWal, model: &mut Model, after_line: &mut Vec<Model>, step: &Step) {
    apply(db, model, step);
    if wal.len() == after_line.len() + 1 {
        after_line.push(model.clone());
    } else if wal.len() != after_line.len() {
        // A checkpoint (the step itself, or the policy inside the step's
        // commit) compacted the log to one snapshot line.
        assert_eq!((wal.len(), db.log_lines()), (1, 1));
        *after_line = vec![model.clone()];
    } else {
        // No line written: the step changed nothing.
        assert_eq!(*model, after_line.last().cloned().unwrap_or_default());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96 })]

    #[test]
    fn store_matches_the_model_through_commits_checkpoints_and_crashes(
        steps in proptest::collection::vec(step(), 1..80)
    ) {
        let wal = MemWal::shared();
        let mut db = Database::with_wal_and_config(Box::new(wal.clone()), POLICY);
        let mut model = Model::default();
        // What tearing the final line falls back to.
        let mut after_line: Vec<Model> = Vec::new();
        let mut crashes = 0u64;
        for (i, step) in steps.iter().enumerate() {
            let probe = i as u64 % KEYS;
            let Step::Crash { tear } = *step else {
                run(&db, &wal, &mut model, &mut after_line, step);
                check(&db, &model, probe);
                continue;
            };
            drop(db);
            if tear {
                wal.tear_last_line();
                after_line.pop();
                model = after_line.last().cloned().unwrap_or_default();
            }
            db = Database::recover_with_config(Box::new(wal.clone()), POLICY).unwrap();
            prop_assert_eq!(wal.len(), after_line.len(), "a torn tail is truncated away");
            prop_assert_eq!(db.replayed() as usize, after_line.len());
            // First touch of the recovered (still raw) tables: a point
            // read, a scan, or a write, in turn.
            match crashes % 3 {
                0 => prop_assert_eq!(db.get::<Task>(probe), model.tasks.get(&probe).cloned()),
                1 => {
                    let state = STATES[crashes as usize % 3];
                    let n = model.tasks.values().filter(|t| t.state == state).count();
                    prop_assert_eq!(db.scan_filter::<Task>(|t| t.state == state).unwrap().len(), n);
                }
                _ => {
                    let txn = Step::Txn(probe, 7, (probe + 1) % KEYS);
                    run(&db, &wal, &mut model, &mut after_line, &txn);
                    run(&db, &wal, &mut model, &mut after_line, &Step::Push(7));
                }
            }
            crashes += 1;
            check(&db, &model, probe);
        }
        // And once more from the log alone.
        drop(db);
        let db = Database::recover_with_config(Box::new(wal), POLICY).unwrap();
        check(&db, &model, 0);
    }
}
