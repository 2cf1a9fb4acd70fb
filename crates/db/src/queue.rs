//! Durable FIFO message queues on top of the table store.
//!
//! The paper's server "maintains database tables for storing incoming and
//! outgoing messages" (§3.2, *Message Handling Module*); client → server
//! scheduling requests and server → client planning decisions all travel
//! through such tables. [`Queue`] is that pattern: a table whose keys are a
//! monotonically increasing sequence, giving FIFO order that survives
//! crash-recovery.

use crate::database::Database;
use crate::error::DbError;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::marker::PhantomData;
use std::ops::{Bound, ControlFlow};

/// A durable FIFO queue of messages of type `M`, stored in its own table.
///
/// Sequence numbers come from a persistent per-queue counter row (table
/// `"<name>.seq"`), not from the largest key still present — so a fully
/// drained queue never reuses a sequence number, and ordering claims that
/// span a drain/refill (or a crash) stay meaningful.
pub struct Queue<'a, M> {
    db: &'a Database,
    table: String,
    seq_table: String,
    _marker: PhantomData<M>,
}

impl<'a, M: Serialize + DeserializeOwned + Clone + Send + 'static> Queue<'a, M> {
    /// Attach to (or create) the queue stored in table `name`.
    pub fn new(db: &'a Database, name: impl Into<String>) -> Self {
        let table = name.into();
        let seq_table = format!("{table}.seq");
        Queue {
            db,
            table,
            seq_table,
            _marker: PhantomData,
        }
    }

    /// Attach to (or create) the queue `name` inside namespace `ns`.
    ///
    /// Both the message table and the sequence-counter table live under
    /// `"{ns}/"`, so two shards sharing one database each get their own
    /// FIFO and their own monotonic sequence space — pushes in one
    /// namespace never advance (or read) the other's counter.
    pub fn namespaced(db: &'a Database, ns: &str, name: &str) -> Self {
        Queue::new(db, format!("{ns}/{name}"))
    }

    /// Append a message; returns its sequence number. Reading the counter
    /// and committing message and bump (one WAL line) are one critical
    /// section, so concurrent pushes never share a sequence number.
    pub fn push(&self, msg: &M) -> Result<u64, DbError> {
        self.db.commit(
            |store, line| {
                let counter = store.typed::<u64>(&self.seq_table)?;
                let counter = counter.and_then(|t| t.rows().get(&0).copied());
                store.typed::<M>(&self.table)?;
                let seq = match counter {
                    Some(n) => n,
                    // Logs written before the counter existed: resume after
                    // the highest sequence still in the table (best effort
                    // — the old scheme could not do better either).
                    None => {
                        let messages = store.tables().get(&self.table);
                        messages.and_then(|t| t.max_key()).map_or(0, |k| k + 1)
                    }
                };
                line.put(&self.table, seq, msg);
                line.put(&self.seq_table, 0, &(seq + 1));
                Ok(ControlFlow::Continue(seq))
            },
            |store, seq| {
                store.apply_put(&self.table, seq, msg.clone())?;
                store.apply_put(&self.seq_table, 0, seq + 1)?;
                Ok(seq)
            },
        )
    }

    /// Remove and return the oldest message, if any.
    pub fn pop(&self) -> Result<Option<M>, DbError> {
        self.db.commit(
            |store, line| {
                let Some(t) = store.typed::<M>(&self.table)? else {
                    return Ok(ControlFlow::Break(None));
                };
                let head = t.rows().iter().next();
                // An older message that does not decode blocks the queue
                // rather than being skipped.
                let older = head.map_or(Bound::Unbounded, |(&key, _)| Bound::Excluded(key));
                t.check_decodable(&self.table, (Bound::Unbounded, older))?;
                let Some((&key, msg)) = head else {
                    return Ok(ControlFlow::Break(None));
                };
                line.del(&self.table, key);
                Ok(ControlFlow::Continue((key, msg.clone())))
            },
            |store, (key, msg)| {
                store.apply_del(&self.table, key);
                Ok(Some(msg))
            },
        )
    }

    /// Remove and return every pending message, oldest first, in one
    /// transaction.
    pub fn drain(&self) -> Result<Vec<M>, DbError> {
        self.db.commit(
            |store, line| {
                let Some(t) = store.typed::<M>(&self.table)? else {
                    return Ok(ControlFlow::Break(Vec::new()));
                };
                t.check_decodable(&self.table, ..)?;
                if t.rows().is_empty() {
                    return Ok(ControlFlow::Break(Vec::new()));
                }
                for &key in t.rows().keys() {
                    line.del(&self.table, key);
                }
                Ok(ControlFlow::Continue(()))
            },
            |store, ()| store.take_rows(&self.table),
        )
    }

    /// Read every pending message without removing them, oldest first.
    pub fn peek_all(&self) -> Result<Vec<M>, DbError> {
        self.db.scan_at(&self.table, .., |_| true)
    }

    /// Number of pending messages.
    pub fn len(&self) -> usize {
        self.db.count_at(&self.table)
    }

    /// True if no messages are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::MemWal;
    use serde::Deserialize;

    #[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
    struct Msg {
        body: String,
    }

    fn m(s: &str) -> Msg {
        Msg { body: s.into() }
    }

    #[test]
    fn fifo_order() {
        let db = Database::in_memory();
        let q: Queue<Msg> = Queue::new(&db, "inbox");
        q.push(&m("first")).unwrap();
        q.push(&m("second")).unwrap();
        q.push(&m("third")).unwrap();
        assert_eq!(q.pop().unwrap().unwrap().body, "first");
        assert_eq!(q.pop().unwrap().unwrap().body, "second");
        assert_eq!(q.pop().unwrap().unwrap().body, "third");
        assert!(q.pop().unwrap().is_none());
    }

    #[test]
    fn drain_empties_in_order() {
        let db = Database::in_memory();
        let q: Queue<Msg> = Queue::new(&db, "inbox");
        for i in 0..5 {
            q.push(&m(&format!("m{i}"))).unwrap();
        }
        let all = q.drain().unwrap();
        assert_eq!(all.len(), 5);
        assert_eq!(all[0].body, "m0");
        assert_eq!(all[4].body, "m4");
        assert!(q.is_empty());
        assert!(q.drain().unwrap().is_empty());
    }

    #[test]
    fn peek_does_not_consume() {
        let db = Database::in_memory();
        let q: Queue<Msg> = Queue::new(&db, "inbox");
        q.push(&m("x")).unwrap();
        assert_eq!(q.peek_all().unwrap().len(), 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn sequence_survives_pop_of_head() {
        let db = Database::in_memory();
        let q: Queue<Msg> = Queue::new(&db, "inbox");
        let s0 = q.push(&m("a")).unwrap();
        q.pop().unwrap();
        let s1 = q.push(&m("b")).unwrap();
        // The persistent counter never reuses sequence space, even after
        // the queue was emptied.
        assert_eq!(s1, s0 + 1);
    }

    #[test]
    fn drained_queue_does_not_reuse_sequence_numbers() {
        let db = Database::in_memory();
        let q: Queue<Msg> = Queue::new(&db, "inbox");
        let mut seqs = Vec::new();
        for round in 0..3 {
            for i in 0..4 {
                seqs.push(q.push(&m(&format!("r{round}m{i}"))).unwrap());
            }
            let drained = q.drain().unwrap();
            assert_eq!(drained.len(), 4);
            assert_eq!(drained[0].body, format!("r{round}m0"), "FIFO per round");
        }
        let expected: Vec<u64> = (0..12).collect();
        assert_eq!(seqs, expected, "strictly monotonic across drains");
    }

    #[test]
    fn separate_queues_are_isolated() {
        let db = Database::in_memory();
        let qa: Queue<Msg> = Queue::new(&db, "in");
        let qb: Queue<Msg> = Queue::new(&db, "out");
        qa.push(&m("to-a")).unwrap();
        assert!(qb.is_empty());
        assert_eq!(qa.len(), 1);
    }

    #[test]
    fn namespaced_queues_keep_independent_sequences() {
        // Regression test for the sharding latent bug: two shards sharing
        // one grid database must not interleave their queue sequence
        // counters through the shared logical queue name.
        let db = Database::in_memory();
        let qa: Queue<Msg> = Queue::namespaced(&db, "shard0", "inbox");
        let qb: Queue<Msg> = Queue::namespaced(&db, "shard1", "inbox");
        assert_eq!(qa.push(&m("a0")).unwrap(), 0);
        assert_eq!(qa.push(&m("a1")).unwrap(), 1);
        // Shard 1's counter starts from zero; shard 0's pushes are invisible.
        assert_eq!(qb.push(&m("b0")).unwrap(), 0);
        assert_eq!(qa.push(&m("a2")).unwrap(), 2);
        assert_eq!(qb.push(&m("b1")).unwrap(), 1);
        assert_eq!(qa.len(), 3);
        assert_eq!(qb.len(), 2);
        let drained_b = qb.drain().unwrap();
        assert_eq!(drained_b[0].body, "b0");
        assert_eq!(qa.len(), 3, "draining one namespace leaves the other");
        assert_eq!(qa.pop().unwrap().unwrap().body, "a0");
    }

    #[test]
    fn namespaced_queue_sequences_survive_recovery() {
        let wal = MemWal::shared();
        {
            let db = Database::with_wal(Box::new(wal.clone()));
            let qa: Queue<Msg> = Queue::namespaced(&db, "shard0", "inbox");
            let qb: Queue<Msg> = Queue::namespaced(&db, "shard1", "inbox");
            qa.push(&m("a0")).unwrap();
            qa.push(&m("a1")).unwrap();
            qb.push(&m("b0")).unwrap();
            qa.drain().unwrap();
        }
        let db = Database::recover(Box::new(wal)).unwrap();
        let qa: Queue<Msg> = Queue::namespaced(&db, "shard0", "inbox");
        let qb: Queue<Msg> = Queue::namespaced(&db, "shard1", "inbox");
        // Each namespace resumes its own sequence space after the crash.
        assert_eq!(qa.push(&m("a2")).unwrap(), 2);
        assert_eq!(qb.push(&m("b1")).unwrap(), 1);
        assert_eq!(qb.len(), 2);
    }

    #[test]
    fn queue_contents_survive_recovery() {
        let wal = MemWal::shared();
        {
            let db = Database::with_wal(Box::new(wal.clone()));
            let q: Queue<Msg> = Queue::new(&db, "inbox");
            q.push(&m("durable-1")).unwrap();
            q.push(&m("durable-2")).unwrap();
            q.pop().unwrap();
        }
        let db = Database::recover(Box::new(wal)).unwrap();
        let q: Queue<Msg> = Queue::new(&db, "inbox");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().unwrap().body, "durable-2");
    }

    #[test]
    fn fifo_and_sequences_survive_drain_refill_and_recovery() {
        let wal = MemWal::shared();
        {
            let db = Database::with_wal(Box::new(wal.clone()));
            let q: Queue<Msg> = Queue::new(&db, "inbox");
            assert_eq!(q.push(&m("a")).unwrap(), 0);
            assert_eq!(q.push(&m("b")).unwrap(), 1);
            // Fully drain, then crash with the queue empty.
            assert_eq!(q.drain().unwrap().len(), 2);
        }
        let db = Database::recover(Box::new(wal)).unwrap();
        let q: Queue<Msg> = Queue::new(&db, "inbox");
        assert!(q.is_empty());
        // The counter survived the crash even though the table is empty:
        // refilled messages continue the sequence and stay FIFO.
        assert_eq!(q.push(&m("c")).unwrap(), 2);
        assert_eq!(q.push(&m("d")).unwrap(), 3);
        let refilled = q.drain().unwrap();
        assert_eq!(refilled[0].body, "c");
        assert_eq!(refilled[1].body, "d");
    }

    #[test]
    fn undecodable_message_blocks_the_queue_instead_of_vanishing() {
        use crate::wal::Wal;
        // A message this version cannot decode (a log written by another
        // one) sits at the head, with a good message behind it.
        let mut wal = MemWal::shared();
        wal.append(
            r#"{"kind":"txn","ops":[{"key":0,"op":"put","row":{"text":7},"table":"inbox"},{"key":0,"op":"put","row":1,"table":"inbox.seq"}]}"#,
        )
        .unwrap();
        let db = Database::recover(Box::new(wal.clone())).unwrap();
        let q: Queue<Msg> = Queue::new(&db, "inbox");
        assert_eq!(q.push(&m("behind")).unwrap(), 1);
        let lines = wal.len();
        for err in [
            q.pop().unwrap_err(),
            q.drain().unwrap_err(),
            q.peek_all().unwrap_err(),
        ] {
            assert!(matches!(err, DbError::Codec { .. }), "{err}");
        }
        // Nothing was consumed or logged by the refused reads.
        assert_eq!((q.len(), wal.len()), (2, lines));
        // Deleting the bad row is the repair; the queue then flows again.
        assert!(db.delete::<InboxRow>(0).unwrap());
        assert_eq!(q.pop().unwrap(), Some(m("behind")));
        assert!(q.is_empty());
    }

    /// Names the queue's table, for the repair above.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct InboxRow(u64);
    impl crate::Record for InboxRow {
        const TABLE: &'static str = "inbox";
        fn key(&self) -> u64 {
            self.0
        }
    }
}
