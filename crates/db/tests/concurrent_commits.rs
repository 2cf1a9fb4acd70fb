//! `Database` is `Sync` and the RPC deployment hands an `Arc<Database>` to
//! a second thread, so commits and checkpoints race. Whatever the
//! interleaving, the log must rebuild exactly the live tables: a commit's
//! append and apply are one step (else two committers can apply in the
//! opposite order to the one they logged), and a checkpoint's snapshot
//! and rewrite are one step (else a line committed in between is erased).

use serde::{Deserialize, Serialize};
use sphinx_db::{Database, MemWal, Record};
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
