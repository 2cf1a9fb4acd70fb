//! `Database` is `Sync`, so a caller may hand an `Arc<Database>` to a
//! second thread, and then commits and checkpoints race. Whatever the
//! interleaving, the log must rebuild exactly the live tables: a commit's
//! append and apply are one step (else two committers can apply in the
//! opposite order to the one they logged), and a checkpoint's snapshot
//! and rewrite are one step (else a line committed in between is erased).
//! And a read-modify-write — `update`, `insert`, `Queue::push` — is one
//! step from its read to its apply, else two of them read the same state
//! and one overwrites the other.

use serde::{Deserialize, Serialize};
use sphinx_db::{Database, DbError, MemWal, Queue, Record};
use std::collections::BTreeSet;
use std::sync::{Arc, Barrier};

#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
struct Cell {
    id: u64,
    writer: u64,
    seq: u64,
}

impl Record for Cell {
    const TABLE: &'static str = "cells";
    fn key(&self) -> u64 {
        self.id
    }
}

const WRITERS: u64 = 4;
const OPS_PER_WRITER: u64 = 2_000;
const SHARED_KEYS: u64 = 16;
const CHECKPOINT_EVERY: u64 = 500;
/// Witness keys live above the contended range: written once, never
/// overwritten, so a line lost to a checkpoint stays lost at recovery
/// instead of being papered over by a later put to the same key.
const WITNESS_BASE: u64 = 1_000;

/// One round loses the race on most runs of the unsynchronised store
/// but not all; a few rounds make a miss unlikely.
#[test]
fn recovery_equals_live_state_under_racing_commits_and_checkpoints() {
    for _ in 0..4 {
        racing_round();
    }
}

fn racing_round() {
    let wal = MemWal::shared();
    // The default policy also compacts from inside the commit path (the
    // log outgrows 4x the ~180 live rows every ~1k lines), so both the
    // explicit and the automatic checkpoint race the other writers.
    let db = Arc::new(Database::with_wal(Box::new(wal.clone())));
    let start = Barrier::new(WRITERS as usize);
    std::thread::scope(|scope| {
        for writer in 0..WRITERS {
            let (db, start) = (Arc::clone(&db), &start);
            scope.spawn(move || {
                start.wait();
                for seq in 0..OPS_PER_WRITER {
                    // Every writer walks all 16 keys at its own stride, so
                    // any two of them keep colliding on the same rows.
                    let id = (seq * (writer + 1) + writer) % SHARED_KEYS;
                    if seq % 5 == 4 {
                        db.delete::<Cell>(id).unwrap();
                    } else {
                        db.put(&Cell { id, writer, seq }).unwrap();
                    }
                    if seq % 50 == 0 {
                        let id = WITNESS_BASE + writer * OPS_PER_WRITER + seq;
                        db.put(&Cell { id, writer, seq }).unwrap();
                    }
                    // Staggered, so some writer compacts the log about
                    // every 500 commits while the other three keep going.
                    if seq % CHECKPOINT_EVERY == writer * (CHECKPOINT_EVERY / WRITERS) {
                        db.checkpoint().unwrap();
                    }
                }
            });
        }
    });

    let live = db.scan::<Cell>().unwrap();
    let witnesses = live.iter().filter(|c| c.id >= WITNESS_BASE).count() as u64;
    assert_eq!(witnesses, WRITERS * OPS_PER_WRITER / 50);
    let recovered = Database::recover(Box::new(wal)).unwrap();
    assert_eq!(
        recovered.scan::<Cell>().unwrap(),
        live,
        "the log must replay to the live tables"
    );
}

/// Run `work(writer)` on [`WRITERS`] threads released together.
fn race<T: Send>(work: impl Fn(u64) -> T + Sync) -> Vec<T> {
    let start = Barrier::new(WRITERS as usize);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WRITERS)
            .map(|writer| {
                let (work, start) = (&work, &start);
                scope.spawn(move || {
                    start.wait();
                    work(writer)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn racing_updates_and_inserts_lose_nothing() {
    let wal = MemWal::shared();
    let db = Database::with_wal(Box::new(wal.clone()));
    let counter = |seq| Cell {
        id: 0,
        writer: 0,
        seq,
    };
    db.insert(&counter(0)).unwrap();
    let wins = race(|writer| {
        let mut wins = 0;
        for seq in 0..OPS_PER_WRITER {
            // Read-modify-write of one shared row: every increment lands.
            assert!(db.update::<Cell>(0, |c| c.seq += 1).unwrap());
            // Check-then-write of a contended key: exactly one insert wins.
            let id = WITNESS_BASE + seq % 100;
            match db.insert(&Cell { id, writer, seq }) {
                Ok(()) => wins += 1,
                Err(DbError::DuplicateKey { .. }) => {}
                Err(e) => panic!("{e}"),
            }
        }
        wins
    });
    assert_eq!(db.get::<Cell>(0), Some(counter(WRITERS * OPS_PER_WRITER)));
    assert_eq!(
        wins.iter().sum::<u64>(),
        100,
        "one winner per contended key"
    );
    let live = db.scan::<Cell>().unwrap();
    assert_eq!(live.len(), 101);
    let recovered = Database::recover(Box::new(wal)).unwrap();
    assert_eq!(recovered.scan::<Cell>().unwrap(), live);
}

#[test]
fn racing_pushes_get_distinct_sequence_numbers() {
    let wal = MemWal::shared();
    let db = Database::with_wal(Box::new(wal.clone()));
    let seqs = race(|writer| {
        let q: Queue<(u64, u64)> = Queue::new(&db, "inbox");
        let seqs: Vec<u64> = (0..OPS_PER_WRITER)
            .map(|i| q.push(&(writer, i)).unwrap())
            .collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "monotonic per pusher");
        seqs
    });
    let total = WRITERS * OPS_PER_WRITER;
    let distinct: BTreeSet<u64> = seqs.into_iter().flatten().collect();
    assert_eq!(distinct.len() as u64, total, "no two pushes share a number");
    assert_eq!(distinct.last(), Some(&(total - 1)), "and none was skipped");

    let q: Queue<(u64, u64)> = Queue::new(&db, "inbox");
    let live = q.peek_all().unwrap();
    assert_eq!(live.len() as u64, total, "no message overwrote another");
    // FIFO per pusher: each writer's messages come out in its own order.
    for writer in 0..WRITERS {
        let mine = live.iter().filter(|m| m.0 == writer).map(|m| m.1);
        assert!(mine.eq(0..OPS_PER_WRITER));
    }
    let recovered = Database::recover(Box::new(wal)).unwrap();
    let rq: Queue<(u64, u64)> = Queue::new(&recovered, "inbox");
    assert_eq!(rq.peek_all().unwrap(), live);
    assert_eq!(
        rq.push(&(9, 9)).unwrap(),
        total,
        "the counter recovered too"
    );
    assert_eq!(q.drain().unwrap(), live);
}
