//! A bounded MPMC job queue with blocking backpressure, and the count
//! of the pool's execution slots.
//!
//! The serving layer deliberately uses a *bounded* queue: a submitter
//! that outruns the worker pool blocks in [`BoundedQueue::push`] until
//! a worker drains a slot, so memory stays proportional to
//! `capacity + workers` however large the offered batch is. The
//! non-blocking [`BoundedQueue::try_push`] surfaces the same condition
//! as a typed [`ServeError::QueueFull`] for callers that would rather
//! shed load than wait.
//!
//! The queue also counts the execution slots, under the same lock: at
//! most `slots` jobs run at once, whoever runs them. A worker pops only
//! while a slot is free and holds it until its unit is done; a socket
//! reader that would run its connection's job itself claims one with
//! the non-blocking [`BoundedQueue::try_claim`], which also fails
//! while anything is queued, so no earlier arrival is overtaken.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::job::ServeError;

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Execution slots not held by a worker or a reader.
    free: usize,
}

/// Take the queue lock, recovering from poisoning.
///
/// A worker that panics mid-job poisons every mutex it holds; with
/// `expect("queue lock poisoned")` that one panic used to cascade
/// through every producer and consumer parked on the queue, killing the
/// whole batch. The queue state itself (a `VecDeque` plus a flag) is
/// updated atomically under the lock with no multi-step invariant a
/// panic can tear, so the guard inside the `PoisonError` is always
/// valid to keep using — the panicking job is failed upstream by the
/// worker pool, and everyone else keeps flowing.
pub(crate) fn relock<'a, T>(
    result: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Bounded multi-producer/multi-consumer FIFO (mutex + condvars — the
/// std-only equivalent of a crossbeam channel, matching the workspace's
/// no-external-deps constraint).
pub struct BoundedQueue<T> {
    capacity: usize,
    state: Mutex<QueueState<T>>,
    not_full: Condvar,
    not_empty: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (min 1), whose jobs run
    /// in at most `slots` execution slots at once (min 1).
    pub fn new(capacity: usize, slots: usize) -> Self {
        assert!(capacity >= 1, "a bounded queue needs at least one slot");
        assert!(slots >= 1, "a pool needs at least one execution slot");
        BoundedQueue {
            capacity,
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                free: slots,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        relock(self.state.lock()).items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueue, **blocking while the queue is full** (backpressure).
    /// Fails only if the queue is closed.
    pub fn push(&self, item: T) -> Result<(), ServeError> {
        let mut st = relock(self.state.lock());
        loop {
            if st.closed {
                return Err(ServeError::QueueClosed);
            }
            if st.items.len() < self.capacity {
                st.items.push_back(item);
                self.not_empty.notify_one();
                return Ok(());
            }
            st = relock(self.not_full.wait(st));
        }
    }

    /// Non-blocking enqueue. On failure the item is handed back along
    /// with the typed reason.
    pub fn try_push(&self, item: T) -> Result<(), (T, ServeError)> {
        let mut st = relock(self.state.lock());
        if st.closed {
            return Err((item, ServeError::QueueClosed));
        }
        if st.items.len() >= self.capacity {
            return Err((
                item,
                ServeError::QueueFull {
                    capacity: self.capacity,
                },
            ));
        }
        st.items.push_back(item);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeue the head item, blocking while the queue is empty or every
    /// execution slot is held, together with up to `mates(&head)`
    /// further queued items that `joins(&head, item)` accepts, in FIFO
    /// order, and the [`Slot`] they run in. Items not taken keep their
    /// place. Returns `None` once the queue is closed *and* drained — the
    /// worker-loop termination condition.
    ///
    /// Head and mates leave under **one** lock hold: this is the worker
    /// pool's pack-gathering primitive, and a second consumer must not
    /// take a pack-mate between the pop and the gather (that would split
    /// the pack). Freed slots wake parked pushers.
    pub fn pop_group(
        &self,
        mates: impl FnOnce(&T) -> usize,
        joins: impl Fn(&T, &T) -> bool,
    ) -> Option<(Vec<T>, Slot<'_, T>)> {
        let mut st = relock(self.state.lock());
        let head = loop {
            if st.free > 0 {
                if let Some(item) = st.items.pop_front() {
                    st.free -= 1;
                    break item;
                }
            }
            if st.closed && st.items.is_empty() {
                return None;
            }
            st = relock(self.not_empty.wait(st));
        };
        let want = mates(&head);
        let mut group = vec![head];
        if want > 0 {
            let queued = std::mem::replace(&mut st.items, VecDeque::with_capacity(self.capacity));
            for item in queued {
                if group.len() <= want && joins(&group[0], &item) {
                    group.push(item);
                } else {
                    st.items.push_back(item);
                }
            }
        }
        if group.len() == 1 {
            self.not_full.notify_one();
        } else {
            self.not_full.notify_all();
        }
        Some((group, Slot(self)))
    }

    /// Claim an execution slot without waiting, for a caller that runs a
    /// job it has not queued. Fails while every slot is held, while any
    /// item is queued (the claim would overtake it) and once the queue
    /// is closed.
    pub fn try_claim(&self) -> Option<Slot<'_, T>> {
        let mut st = relock(self.state.lock());
        if st.closed || !st.items.is_empty() || st.free == 0 {
            return None;
        }
        st.free -= 1;
        Some(Slot(self))
    }

    /// Close the queue: pending items still drain, new pushes fail,
    /// and blocked poppers wake up with `None` once empty.
    pub fn close(&self) {
        relock(self.state.lock()).closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

/// One held execution slot; dropping it frees the slot. A parked
/// worker wakes for it when items wait for a slot, and every parked
/// worker wakes once the queue is closed, to take the tail or exit.
#[must_use = "dropping a slot frees it at once"]
pub struct Slot<'a, T>(&'a BoundedQueue<T>);

impl<T> Drop for Slot<'_, T> {
    fn drop(&mut self) {
        let mut st = relock(self.0.state.lock());
        st.free += 1;
        if st.closed {
            self.0.not_empty.notify_all();
        } else if !st.items.is_empty() {
            self.0.not_empty.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread;
    use std::time::Duration;

    /// Plain single-item dequeue: a group with no mates.
    fn pop<T>(q: &BoundedQueue<T>) -> Option<T> {
        q.pop_group(|_| 0, |_, _| false)
            .map(|(g, _slot)| g.into_iter().next().expect("a group holds its head"))
    }

    #[test]
    fn fifo_order_preserved() {
        let q = BoundedQueue::new(8, 1);
        for i in 0..5 {
            q.push(i).expect("open queue accepts");
        }
        q.close();
        let drained: Vec<i32> = std::iter::from_fn(|| pop(&q)).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn try_push_reports_full_with_item_back() {
        let q = BoundedQueue::new(2, 1);
        q.try_push(1).expect("slot 1");
        q.try_push(2).expect("slot 2");
        let (item, err) = q.try_push(3).expect_err("third push must fail");
        assert_eq!(item, 3);
        assert_eq!(err, ServeError::QueueFull { capacity: 2 });
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn push_blocks_until_a_worker_drains() {
        // One-slot queue: the second push must park until pop frees the
        // slot — the backpressure contract.
        let q = BoundedQueue::new(1, 1);
        q.push(10).expect("first push fits");
        let second_done = AtomicBool::new(false);
        thread::scope(|s| {
            s.spawn(|| {
                q.push(20).expect("unblocks after pop");
                second_done.store(true, Ordering::SeqCst);
            });
            // Give the pusher a moment to park on the full queue.
            thread::sleep(Duration::from_millis(50));
            assert!(
                !second_done.load(Ordering::SeqCst),
                "push returned while the queue was still full"
            );
            assert_eq!(pop(&q), Some(10));
            // Now the parked push completes.
            while !second_done.load(Ordering::SeqCst) {
                thread::yield_now();
            }
            assert_eq!(pop(&q), Some(20));
        });
    }

    #[test]
    fn close_wakes_blocked_poppers_and_rejects_pushes() {
        let q: BoundedQueue<u8> = BoundedQueue::new(4, 1);
        thread::scope(|s| {
            let h = s.spawn(|| pop(&q));
            thread::sleep(Duration::from_millis(20));
            q.close();
            assert_eq!(h.join().expect("popper exits cleanly"), None);
        });
        assert_eq!(q.push(1), Err(ServeError::QueueClosed));
        let (_, err) = q.try_push(2).expect_err("closed");
        assert_eq!(err, ServeError::QueueClosed);
    }

    #[test]
    fn a_parked_popper_takes_a_push_and_sees_a_close() {
        // A popper that found the queue empty parks on the condvar at
        // once: a push or a close must wake it there.
        let q: BoundedQueue<u8> = BoundedQueue::new(4, 1);
        thread::scope(|s| {
            let h = s.spawn(|| pop(&q));
            thread::sleep(Duration::from_millis(20));
            q.push(7).expect("open");
            assert_eq!(h.join().expect("popper exits cleanly"), Some(7));
            let h = s.spawn(|| pop(&q));
            thread::sleep(Duration::from_millis(20));
            q.close();
            assert_eq!(h.join().expect("popper exits cleanly"), None);
        });
    }

    #[test]
    fn a_claim_fails_while_every_slot_is_held_or_an_item_waits() {
        let q = BoundedQueue::new(4, 2);
        let first = q.try_claim().expect("two slots free");
        let second = q.try_claim().expect("one slot free");
        assert!(q.try_claim().is_none(), "every slot is held");
        drop(first);
        let third = q.try_claim().expect("a freed slot can be claimed");
        drop((second, third));
        q.push(1).expect("open");
        assert!(
            q.try_claim().is_none(),
            "a claim must not overtake a queued item"
        );
        assert_eq!(pop(&q), Some(1));
        q.close();
        assert!(q.try_claim().is_none(), "a closed queue runs nothing more");
    }

    #[test]
    fn pop_group_waits_for_a_slot() {
        let q = BoundedQueue::new(4, 1);
        let held = q.try_claim().expect("the slot is free");
        q.push(5).expect("open");
        let popped = AtomicBool::new(false);
        thread::scope(|s| {
            let h = s.spawn(|| {
                let got = pop(&q);
                popped.store(true, Ordering::SeqCst);
                got
            });
            thread::sleep(Duration::from_millis(50));
            assert!(
                !popped.load(Ordering::SeqCst),
                "a worker popped while the only slot was held"
            );
            drop(held);
            assert_eq!(h.join().expect("popper exits cleanly"), Some(5));
        });
    }

    #[test]
    fn workers_parked_on_a_held_slot_drain_the_tail_and_exit_after_close() {
        let q = BoundedQueue::new(4, 1);
        let held = q.try_claim().expect("the slot is free");
        q.push(9).expect("open");
        thread::scope(|s| {
            let poppers: Vec<_> = (0..2).map(|_| s.spawn(|| pop(&q))).collect();
            thread::sleep(Duration::from_millis(20));
            q.close();
            thread::sleep(Duration::from_millis(20));
            drop(held);
            let mut got: Vec<_> = poppers
                .into_iter()
                .map(|h| h.join().expect("popper exits cleanly"))
                .collect();
            got.sort_unstable();
            assert_eq!(got, vec![None, Some(9)]);
        });
    }

    #[test]
    fn poisoned_lock_is_recovered_not_cascaded() {
        // Panic while holding the state mutex (what a crashing worker
        // does to any lock it holds) and confirm every queue operation
        // keeps working instead of propagating the poison.
        let q = BoundedQueue::new(4, 1);
        q.push(1).expect("pre-poison push");
        let unwind = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = q.state.lock().expect("not yet poisoned");
            panic!("worker crashed while holding the queue lock");
        }));
        assert!(unwind.is_err());
        assert!(q.state.is_poisoned(), "test must actually poison the lock");
        assert_eq!(q.len(), 1);
        q.push(2).expect("push after poison");
        q.try_push(3).expect("try_push after poison");
        assert_eq!(pop(&q), Some(1));
        assert_eq!(pop(&q), Some(2));
        assert_eq!(pop(&q), Some(3));
        q.close();
        assert_eq!(pop(&q), None, "close still wakes poppers after poison");
    }

    #[test]
    fn pop_group_is_selective_and_order_preserving() {
        let q = BoundedQueue::new(8, 1);
        for i in 0..8 {
            q.push(i).expect("open");
        }
        let evens = q
            .pop_group(|_| 2, |head, v| (v - head) % 2 == 0)
            .map(|(g, _slot)| g);
        assert_eq!(
            evens,
            Some(vec![0, 2, 4]),
            "head first, then FIFO matches, capped"
        );
        q.close();
        let rest: Vec<i32> = std::iter::from_fn(|| pop(&q)).collect();
        assert_eq!(rest, vec![1, 3, 5, 6, 7], "non-taken items keep order");
    }

    #[test]
    fn pop_group_frees_slots_for_parked_pushers() {
        let q = BoundedQueue::new(2, 1);
        q.push(1).expect("slot 1");
        q.push(2).expect("slot 2");
        let pushed = AtomicBool::new(false);
        thread::scope(|s| {
            s.spawn(|| {
                q.push(3).expect("unblocks after pop_group");
                pushed.store(true, Ordering::SeqCst);
            });
            thread::sleep(Duration::from_millis(20));
            assert!(!pushed.load(Ordering::SeqCst), "queue still full");
            let (group, _slot) = q.pop_group(|_| 1, |_, _| true).expect("open");
            assert_eq!(group, vec![1, 2]);
            while !pushed.load(Ordering::SeqCst) {
                thread::yield_now();
            }
        });
        assert_eq!(pop(&q), Some(3));
    }

    #[test]
    fn close_wakes_every_pusher_parked_on_a_full_queue() {
        // The listener's drain path: producers are parked in `push` on a
        // *full* queue when `close()` lands. Every parked pusher must
        // wake with `QueueClosed`, and the queue must afterwards hold
        // exactly the accepted items — nothing lost, nothing duplicated,
        // no pusher left parked forever (the scope would deadlock).
        let q = BoundedQueue::new(2, 1);
        let accepted = Mutex::new(Vec::new());
        let rejected = Mutex::new(Vec::new());
        let drained = thread::scope(|s| {
            for p in 0..4u32 {
                let (q, accepted, rejected) = (&q, &accepted, &rejected);
                s.spawn(move || {
                    let mut closed_seen = false;
                    for i in 0..100u32 {
                        let item = p * 1000 + i;
                        match q.push(item) {
                            Ok(()) => {
                                assert!(
                                    !closed_seen,
                                    "push succeeded after QueueClosed was observed"
                                );
                                accepted.lock().expect("acc").push(item);
                            }
                            Err(e) => {
                                assert_eq!(e, ServeError::QueueClosed);
                                closed_seen = true;
                                rejected.lock().expect("rej").push(item);
                            }
                        }
                    }
                });
            }
            // One deliberately slow consumer keeps the queue pinned at
            // capacity so pushers spend most of their time parked…
            let drained = s.spawn(|| {
                let mut got = Vec::new();
                while let Some(v) = pop(&q) {
                    got.push(v);
                    thread::sleep(Duration::from_micros(200));
                }
                got
            });
            // …then close lands mid-flight, while pushers are parked.
            thread::sleep(Duration::from_millis(20));
            q.close();
            drained.join().expect("consumer exits")
        });
        let mut acc = accepted.into_inner().expect("acc");
        let rej = rejected.into_inner().expect("rej");
        assert_eq!(
            acc.len() + rej.len(),
            400,
            "every push got exactly one verdict"
        );
        assert!(!acc.is_empty(), "close landed before any push succeeded");
        assert!(!rej.is_empty(), "close landed after every push finished");
        let mut got = drained;
        got.sort_unstable();
        acc.sort_unstable();
        assert_eq!(got, acc, "drained multiset != accepted multiset");
    }

    #[test]
    fn many_producers_many_consumers_lose_nothing() {
        let q = BoundedQueue::new(4, 3);
        let total = 200usize;
        let got = Mutex::new(Vec::new());
        thread::scope(|s| {
            let producers: Vec<_> = (0..4)
                .map(|p| {
                    let q = &q;
                    s.spawn(move || {
                        for i in 0..total / 4 {
                            q.push(p * 1000 + i).expect("open");
                        }
                    })
                })
                .collect();
            for _ in 0..3 {
                s.spawn(|| {
                    while let Some(v) = pop(&q) {
                        got.lock().expect("collector").push(v);
                    }
                });
            }
            for p in producers {
                p.join().expect("producer exits");
            }
            q.close(); // consumers drain the remainder and see None
        });
        let mut all = got.into_inner().expect("collector");
        all.sort_unstable();
        assert_eq!(all.len(), total);
        all.dedup();
        assert_eq!(all.len(), total, "duplicated or lost items");
    }
}
