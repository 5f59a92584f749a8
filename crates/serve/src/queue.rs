//! Bounded ingestion queues with selectable backpressure.
//!
//! Every sensor's records enter the runtime through a
//! [`BoundedQueue`]; what happens when a queue is full is the
//! [`BackpressurePolicy`] — the knob that decides whether a slow shard
//! stalls its producers ([`Block`](BackpressurePolicy::Block)), sheds
//! its oldest samples ([`DropOldest`](BackpressurePolicy::DropOldest),
//! the right default for live sensing where fresh CSI supersedes
//! stale), or pushes the loss back to the caller
//! ([`RejectNewest`](BackpressurePolicy::RejectNewest)).
//!
//! Every queue keeps exact drop/occupancy counters; the runtime mirrors
//! them into the metrics registry.
//!
//! ## Poison-propagation policy
//!
//! Every `Mutex`/`Condvar` acquisition in this module is
//! `lock().expect("queue poisoned")` — **deliberately**. A poisoned
//! queue mutex means a producer or consumer panicked while holding the
//! lock, i.e. mid-mutation of `items` or the counters; silently
//! recovering the guard (`unwrap_or_else(|e| e.into_inner())`) would
//! let a half-updated queue keep serving records with corrupted
//! accounting, breaking the runtime invariant
//! `pushed = scored + quarantined + dropped`. Instead the panic is
//! *propagated* into whichever thread touches the queue next, where
//! the supervisor ([`crate::supervisor`]) catches it, quarantines the
//! in-flight batch, and restarts the shard on a fresh queue. Each
//! `expect` therefore carries a `lint:allow(panic, ...)` waiver rather
//! than being rewritten — the panic *is* the fault-tolerance signal.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// What [`BoundedQueue::push`] does when the queue is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Wait until a consumer makes room (lossless, producers stall).
    Block,
    /// Evict the oldest queued item to admit the new one (bounded
    /// staleness, producers never stall).
    #[default]
    DropOldest,
    /// Refuse the new item and hand it back to the producer.
    RejectNewest,
}

impl BackpressurePolicy {
    /// Parses the kebab-case CLI spelling (`block`, `drop-oldest`,
    /// `reject-newest`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "block" => Some(Self::Block),
            "drop-oldest" => Some(Self::DropOldest),
            "reject-newest" => Some(Self::RejectNewest),
            _ => None,
        }
    }
}

/// Why a push did not enqueue its item.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue was full under [`BackpressurePolicy::RejectNewest`];
    /// the item is returned.
    Rejected(T),
    /// The queue was closed; the item is returned.
    Closed(T),
}

impl<T> PushError<T> {
    /// Recovers the item that was not enqueued.
    pub fn into_inner(self) -> T {
        match self {
            Self::Rejected(item) | Self::Closed(item) => item,
        }
    }
}

/// Why a [`try_push`](BoundedQueue::try_push) did not enqueue its
/// item. Distinct from [`PushError`] because a non-parking push has an
/// outcome a blocking push never reports: `Full` under
/// [`BackpressurePolicy::Block`], where `push` would have waited.
#[derive(Debug, PartialEq, Eq)]
pub enum TryPushError<T> {
    /// The queue was full under [`BackpressurePolicy::Block`]; a
    /// blocking `push` would have parked. Nothing was counted — the
    /// caller decides whether to retry, stash, or drop.
    Full(T),
    /// The queue was full under [`BackpressurePolicy::RejectNewest`];
    /// the rejection was counted.
    Rejected(T),
    /// The queue was closed.
    Closed(T),
}

impl<T> TryPushError<T> {
    /// Recovers the item that was not enqueued.
    pub fn into_inner(self) -> T {
        match self {
            Self::Full(item) | Self::Rejected(item) | Self::Closed(item) => item,
        }
    }
}

/// Outcome of a non-blocking [`try_pop_batch`](BoundedQueue::try_pop_batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopResult {
    /// This many items (at least one) were appended to the caller's
    /// buffer.
    Popped(usize),
    /// The queue is momentarily empty but still open.
    Empty,
    /// The queue is closed and fully drained.
    Closed,
}

/// Exact traffic counters of one queue (all monotone except `depth`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueCounters {
    /// Items accepted into the queue.
    pub pushed: u64,
    /// Items handed to consumers.
    pub popped: u64,
    /// Items evicted by [`BackpressurePolicy::DropOldest`].
    pub dropped: u64,
    /// Items refused by [`BackpressurePolicy::RejectNewest`].
    pub rejected: u64,
    /// Current occupancy.
    pub depth: u64,
    /// Highest occupancy ever observed.
    pub high_watermark: u64,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Consumers parked on `not_empty` / producers parked on
    /// `not_full`. Each waiter counts itself in under the lock before
    /// it parks and out after it wakes, so a zero count proves nobody
    /// can be waiting and the notify (a futex syscall) is skipped. A
    /// woken waiter stays counted until it re-takes the lock, so the
    /// count can only overstate — costing a spare notify, never a lost
    /// wake-up.
    consumers_parked: usize,
    producers_parked: usize,
}

/// A bounded MPMC queue with a configurable full-queue policy.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    capacity: usize,
    policy: BackpressurePolicy,
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    pushed: AtomicU64,
    popped: AtomicU64,
    dropped: AtomicU64,
    rejected: AtomicU64,
    high_watermark: AtomicU64,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, policy: BackpressurePolicy) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            capacity,
            policy,
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                consumers_parked: 0,
                producers_parked: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            pushed: AtomicU64::new(0),
            popped: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            high_watermark: AtomicU64::new(0),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured backpressure policy.
    pub fn policy(&self) -> BackpressurePolicy {
        self.policy
    }

    /// Enqueues an item, applying the backpressure policy when full.
    ///
    /// # Errors
    ///
    /// [`PushError::Rejected`] under `RejectNewest` with a full queue;
    /// [`PushError::Closed`] after [`close`](Self::close). Both return
    /// the item.
    pub fn push(&self, item: T) -> Result<(), PushError<T>> {
        // lint:allow(panic, reason = "poison propagation: see module doc — a poisoned queue must panic into the supervisor, not serve corrupted state")
        let mut state = self.state.lock().expect("queue poisoned");
        if state.closed {
            return Err(PushError::Closed(item));
        }
        while state.items.len() >= self.capacity {
            match self.policy {
                BackpressurePolicy::Block => {
                    state.producers_parked += 1;
                    // lint:allow(panic, reason = "poison propagation: see module doc")
                    state = self.not_full.wait(state).expect("queue poisoned");
                    state.producers_parked -= 1;
                    if state.closed {
                        return Err(PushError::Closed(item));
                    }
                }
                BackpressurePolicy::DropOldest => {
                    state.items.pop_front();
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
                BackpressurePolicy::RejectNewest => {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(PushError::Rejected(item));
                }
            }
        }
        state.items.push_back(item);
        self.pushed.fetch_add(1, Ordering::Relaxed);
        self.high_watermark
            .fetch_max(state.items.len() as u64, Ordering::Relaxed);
        self.wake_consumers(state, 1);
        Ok(())
    }

    /// Enqueues every item of `items` in order under one lock hold,
    /// applying the policy to each exactly as [`push`](Self::push)
    /// would, and wakes parked consumers at most once per lock hold.
    ///
    /// Under `Block` the caller parks while the queue is full (parked
    /// consumers are woken first for what this call already queued),
    /// and an item is drawn from the iterator only once there is room
    /// for it. Under `RejectNewest` every item that finds the queue
    /// full is counted as rejected and dropped. Once the queue is
    /// closed — before or partway through the call — the rest of the
    /// iterator is left undrawn. Returns how many items were enqueued.
    pub fn push_many<I: IntoIterator<Item = T>>(&self, items: I) -> usize {
        let mut items = items.into_iter();
        // lint:allow(panic, reason = "poison propagation: see module doc — a poisoned queue must panic into the supervisor, not serve corrupted state")
        let mut state = self.state.lock().expect("queue poisoned");
        let mut pushed = 0;
        // Items queued since consumers were last woken.
        let mut unannounced = 0;
        while !state.closed {
            let full = state.items.len() >= self.capacity;
            if full && self.policy == BackpressurePolicy::Block {
                // The consumer that makes room may itself be parked
                // waiting for what this call queued.
                if unannounced > 0 && state.consumers_parked > 0 {
                    self.not_empty.notify_all();
                }
                unannounced = 0;
                self.high_watermark
                    .fetch_max(state.items.len() as u64, Ordering::Relaxed);
                state.producers_parked += 1;
                // lint:allow(panic, reason = "poison propagation: see module doc")
                state = self.not_full.wait(state).expect("queue poisoned");
                state.producers_parked -= 1;
                continue;
            }
            let Some(item) = items.next() else {
                break;
            };
            if full && self.policy == BackpressurePolicy::RejectNewest {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if full {
                state.items.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            state.items.push_back(item);
            self.pushed.fetch_add(1, Ordering::Relaxed);
            pushed += 1;
            unannounced += 1;
        }
        self.high_watermark
            .fetch_max(state.items.len() as u64, Ordering::Relaxed);
        self.wake_consumers(state, unannounced);
        pushed
    }

    /// Dequeues, blocking until an item arrives or the queue is both
    /// closed and drained (`None`).
    pub fn pop(&self) -> Option<T> {
        // lint:allow(panic, reason = "poison propagation: see module doc — a poisoned queue must panic into the supervisor, not serve corrupted state")
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                self.popped.fetch_add(1, Ordering::Relaxed);
                self.wake_producers(state, 1);
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state.consumers_parked += 1;
            // lint:allow(panic, reason = "poison propagation: see module doc")
            state = self.not_empty.wait(state).expect("queue poisoned");
            state.consumers_parked -= 1;
        }
    }

    /// Work-conserving batch dequeue: parks until at least one item is
    /// queued, then appends up to `max` items (FIFO order) to `out`
    /// under a single lock hold. Returns `false` — with `out`
    /// untouched — only once the queue is closed *and* drained.
    ///
    /// One pop can free room for several parked
    /// [`Block`](BackpressurePolicy::Block) producers, so all of them
    /// are woken; each re-checks capacity under the lock.
    pub fn pop_batch(&self, max: usize, out: &mut Vec<T>) -> bool {
        // lint:allow(panic, reason = "poison propagation: see module doc — a poisoned queue must panic into the supervisor, not serve corrupted state")
        let mut state = self.state.lock().expect("queue poisoned");
        while state.items.is_empty() {
            if state.closed {
                return false;
            }
            state.consumers_parked += 1;
            // lint:allow(panic, reason = "poison propagation: see module doc")
            state = self.not_empty.wait(state).expect("queue poisoned");
            state.consumers_parked -= 1;
        }
        let n = max.min(state.items.len());
        out.extend(state.items.drain(..n));
        self.popped.fetch_add(n as u64, Ordering::Relaxed);
        self.wake_producers(state, n);
        true
    }

    /// Non-parking batch dequeue: appends up to `max` items (FIFO
    /// order) to `out` under one lock hold. [`PopResult::Empty`] when
    /// the queue is momentarily empty but still open (the readiness
    /// reactor's "would block"), [`PopResult::Closed`] once it is both
    /// closed and drained; `out` is untouched in both cases.
    pub fn try_pop_batch(&self, max: usize, out: &mut Vec<T>) -> PopResult {
        // lint:allow(panic, reason = "poison propagation: see module doc — a poisoned queue must panic into the supervisor, not serve corrupted state")
        let mut state = self.state.lock().expect("queue poisoned");
        let n = max.min(state.items.len());
        if n == 0 {
            return if state.items.is_empty() && state.closed {
                PopResult::Closed
            } else {
                PopResult::Empty
            };
        }
        out.extend(state.items.drain(..n));
        self.popped.fetch_add(n as u64, Ordering::Relaxed);
        self.wake_producers(state, n);
        PopResult::Popped(n)
    }

    /// Non-parking enqueue: applies the same policy as
    /// [`push`](Self::push) except that a full queue under
    /// [`BackpressurePolicy::Block`] comes back as
    /// [`TryPushError::Full`] instead of parking the caller. This is
    /// the producer face for single-threaded event loops that must
    /// never park — the gateway reactor both ingests into the shard
    /// queues and drains the outbound queues.
    ///
    /// # Errors
    ///
    /// [`TryPushError::Full`] (Block policy, queue full — uncounted),
    /// [`TryPushError::Rejected`] (RejectNewest, counted), or
    /// [`TryPushError::Closed`]. All return the item.
    pub fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        // lint:allow(panic, reason = "poison propagation: see module doc — a poisoned queue must panic into the supervisor, not serve corrupted state")
        let mut state = self.state.lock().expect("queue poisoned");
        if state.closed {
            return Err(TryPushError::Closed(item));
        }
        while state.items.len() >= self.capacity {
            match self.policy {
                BackpressurePolicy::Block => return Err(TryPushError::Full(item)),
                BackpressurePolicy::DropOldest => {
                    state.items.pop_front();
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
                BackpressurePolicy::RejectNewest => {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(TryPushError::Rejected(item));
                }
            }
        }
        state.items.push_back(item);
        self.pushed.fetch_add(1, Ordering::Relaxed);
        self.high_watermark
            .fetch_max(state.items.len() as u64, Ordering::Relaxed);
        self.wake_consumers(state, 1);
        Ok(())
    }

    /// Releases the lock and wakes parked consumers for `added` new
    /// items — one for one item, all for more — or nobody when none is
    /// parked.
    fn wake_consumers(&self, state: MutexGuard<'_, State<T>>, added: usize) {
        let parked = state.consumers_parked > 0;
        drop(state);
        if parked && added == 1 {
            self.not_empty.notify_one();
        } else if parked && added > 1 {
            self.not_empty.notify_all();
        }
    }

    /// Releases the lock and wakes parked producers for `freed` slots
    /// — one for one slot, all for more — or nobody when none is
    /// parked.
    fn wake_producers(&self, state: MutexGuard<'_, State<T>>, freed: usize) {
        let parked = state.producers_parked > 0;
        drop(state);
        if parked && freed == 1 {
            self.not_full.notify_one();
        } else if parked && freed > 1 {
            self.not_full.notify_all();
        }
    }

    /// Closes the queue: future pushes fail, consumers drain the
    /// remaining items and then observe end-of-stream.
    pub fn close(&self) {
        // lint:allow(panic, reason = "poison propagation: see module doc — a poisoned queue must panic into the supervisor, not serve corrupted state")
        let mut state = self.state.lock().expect("queue poisoned");
        state.closed = true;
        let (consumers, producers) = (state.consumers_parked > 0, state.producers_parked > 0);
        drop(state);
        if consumers {
            self.not_empty.notify_all();
        }
        if producers {
            self.not_full.notify_all();
        }
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        // lint:allow(panic, reason = "poison propagation: see module doc")
        self.state.lock().expect("queue poisoned").closed
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        // lint:allow(panic, reason = "poison propagation: see module doc")
        self.state.lock().expect("queue poisoned").items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A consistent snapshot of the traffic counters.
    pub fn counters(&self) -> QueueCounters {
        let depth = self.len() as u64;
        QueueCounters {
            pushed: self.pushed.load(Ordering::Relaxed),
            popped: self.popped.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            depth,
            high_watermark: self.high_watermark.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_order_within_capacity() {
        let q = BoundedQueue::new(8, BackpressurePolicy::Block);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
        let c = q.counters();
        assert_eq!((c.pushed, c.popped, c.depth), (5, 5, 0));
        assert_eq!(c.high_watermark, 5);
    }

    #[test]
    fn drop_oldest_keeps_newest_and_counts_exactly() {
        let q = BoundedQueue::new(4, BackpressurePolicy::DropOldest);
        for i in 0..10 {
            q.push(i).unwrap();
        }
        let c = q.counters();
        assert_eq!(c.dropped, 6);
        assert_eq!(c.pushed, 10);
        assert_eq!(c.depth, 4);
        for i in 6..10 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn reject_newest_returns_item_and_counts_exactly() {
        let q = BoundedQueue::new(4, BackpressurePolicy::RejectNewest);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        for i in 4..10 {
            assert_eq!(q.push(i), Err(PushError::Rejected(i)));
        }
        let c = q.counters();
        assert_eq!(c.rejected, 6);
        assert_eq!(c.pushed, 4);
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn block_policy_waits_for_consumer() {
        let q = Arc::new(BoundedQueue::new(2, BackpressurePolicy::Block));
        q.push(0).unwrap();
        q.push(1).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(2).unwrap())
        };
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(q.len(), 2, "producer should still be blocked");
        assert_eq!(q.pop(), Some(0));
        producer.join().unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.counters().dropped, 0);
    }

    #[test]
    fn close_drains_then_signals_end() {
        let q = BoundedQueue::new(4, BackpressurePolicy::Block);
        q.push('a').unwrap();
        q.close();
        assert_eq!(q.push('b'), Err(PushError::Closed('b')));
        assert_eq!(q.pop(), Some('a'));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn try_pop_batch_never_blocks() {
        let q: BoundedQueue<u8> = BoundedQueue::new(4, BackpressurePolicy::Block);
        let mut out = Vec::new();
        assert_eq!(q.try_pop_batch(4, &mut out), PopResult::Empty);
        q.push(5).unwrap();
        assert_eq!(q.try_pop_batch(4, &mut out), PopResult::Popped(1));
        assert_eq!(out, vec![5]);
        assert_eq!(q.try_pop_batch(4, &mut out), PopResult::Empty);
        for i in 6..9 {
            q.push(i).unwrap();
        }
        q.close();
        // Closed queues still drain what they hold before signalling,
        // at most `max` per call, in FIFO order.
        assert_eq!(q.try_pop_batch(2, &mut out), PopResult::Popped(2));
        assert_eq!(q.try_pop_batch(2, &mut out), PopResult::Popped(1));
        assert_eq!(out, vec![5, 6, 7, 8]);
        assert_eq!(q.try_pop_batch(2, &mut out), PopResult::Closed);
        assert_eq!(
            out,
            vec![5, 6, 7, 8],
            "a closed, drained pop must not touch out"
        );
        // `max == 0` pops nothing and is not mistaken for end-of-stream
        // while items remain.
        let q: BoundedQueue<u8> = BoundedQueue::new(2, BackpressurePolicy::Block);
        q.push(1).unwrap();
        q.close();
        assert_eq!(q.try_pop_batch(0, &mut out), PopResult::Empty);
        let c = q.counters();
        assert_eq!((c.pushed, c.popped, c.depth), (1, 0, 1));
    }

    #[test]
    fn push_many_counts_exactly_under_every_policy() {
        // Block, within capacity: everything lands, FIFO.
        let q = BoundedQueue::new(8, BackpressurePolicy::Block);
        q.push(0).unwrap();
        assert_eq!(q.push_many(1..6), 5);
        let mut out = Vec::new();
        assert_eq!(q.try_pop_batch(8, &mut out), PopResult::Popped(6));
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(
            q.counters(),
            QueueCounters {
                pushed: 6,
                popped: 6,
                dropped: 0,
                rejected: 0,
                depth: 0,
                high_watermark: 6,
            }
        );

        // DropOldest: the run evicts the oldest items, its own included.
        let q = BoundedQueue::new(4, BackpressurePolicy::DropOldest);
        q.push(0).unwrap();
        q.push(1).unwrap();
        assert_eq!(q.push_many(2..9), 7);
        let mut out = Vec::new();
        assert_eq!(q.try_pop_batch(8, &mut out), PopResult::Popped(4));
        assert_eq!(out, vec![5, 6, 7, 8]);
        assert_eq!(
            q.counters(),
            QueueCounters {
                pushed: 9,
                popped: 4,
                dropped: 5,
                rejected: 0,
                depth: 0,
                high_watermark: 4,
            }
        );

        // RejectNewest: what fits lands, every other item is counted.
        let q = BoundedQueue::new(4, BackpressurePolicy::RejectNewest);
        q.push(0).unwrap();
        assert_eq!(q.push_many(1..10), 3);
        let mut out = Vec::new();
        assert_eq!(q.try_pop_batch(8, &mut out), PopResult::Popped(4));
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(
            q.counters(),
            QueueCounters {
                pushed: 4,
                popped: 4,
                dropped: 0,
                rejected: 6,
                depth: 0,
                high_watermark: 4,
            }
        );

        // A closed queue draws nothing from the iterator.
        let q = BoundedQueue::new(4, BackpressurePolicy::DropOldest);
        q.close();
        let mut drawn = 0;
        let n = q.push_many((0..3).inspect(|_| drawn += 1));
        assert_eq!((n, drawn), (0, 0));
        assert_eq!(q.counters(), QueueCounters::default());
    }

    #[test]
    fn push_many_parks_under_block_and_stops_when_closed_partway() {
        let q = Arc::new(BoundedQueue::new(2, BackpressurePolicy::Block));
        q.push(0).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push_many(1..6))
        };
        // The producer queues 1, then parks with the queue full.
        wait_until(|| q.counters().pushed == 2);
        std::thread::sleep(Duration::from_millis(30));
        assert!(
            !producer.is_finished(),
            "push_many returned on a full Block queue"
        );
        let mut out = Vec::new();
        assert_eq!(q.try_pop_batch(1, &mut out), PopResult::Popped(1));
        // One slot freed: 2 lands, then the producer parks again.
        wait_until(|| q.counters().pushed == 3);
        q.close();
        assert_eq!(
            producer.join().unwrap(),
            2,
            "1 and 2 landed; 3..6 never did"
        );
        while q.try_pop_batch(8, &mut out) != PopResult::Closed {}
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(
            q.counters(),
            QueueCounters {
                pushed: 3,
                popped: 3,
                dropped: 0,
                rejected: 0,
                depth: 0,
                high_watermark: 2,
            }
        );
    }

    /// Polls `cond` until it holds, failing the test after 5 s.
    fn wait_until(cond: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "condition never held");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn parked_pop_batch_is_woken_by_push_and_push_many() {
        for via_many in [false, true] {
            let q: Arc<BoundedQueue<u8>> =
                Arc::new(BoundedQueue::new(4, BackpressurePolicy::Block));
            let consumer = {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut out = Vec::new();
                    assert!(q.pop_batch(4, &mut out));
                    out
                })
            };
            wait_until(|| q.state.lock().unwrap().consumers_parked == 1);
            if via_many {
                q.push_many([7, 8]);
            } else {
                q.push(7).unwrap();
            }
            let out = consumer.join().unwrap();
            assert_eq!(out[0], 7, "via_many = {via_many}");
            assert_eq!(q.state.lock().unwrap().consumers_parked, 0);
        }
    }

    #[test]
    fn parked_block_producer_is_woken_by_every_pop_form() {
        for form in 0..3 {
            let q = Arc::new(BoundedQueue::new(1, BackpressurePolicy::Block));
            q.push(0).unwrap();
            let producer = {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.push(1))
            };
            wait_until(|| q.state.lock().unwrap().producers_parked == 1);
            let mut out = Vec::new();
            match form {
                0 => out.extend(q.pop()),
                1 => assert!(q.pop_batch(1, &mut out)),
                _ => assert_eq!(q.try_pop_batch(1, &mut out), PopResult::Popped(1)),
            }
            assert_eq!(out, vec![0]);
            producer.join().unwrap().unwrap();
            assert_eq!(q.pop(), Some(1), "form {form}");
        }
    }

    #[test]
    fn close_wakes_parked_consumers_and_producers() {
        let empty: Arc<BoundedQueue<u8>> =
            Arc::new(BoundedQueue::new(1, BackpressurePolicy::Block));
        let full = Arc::new(BoundedQueue::new(1, BackpressurePolicy::Block));
        full.push(0).unwrap();
        let consumer = {
            let q = Arc::clone(&empty);
            std::thread::spawn(move || q.pop_batch(4, &mut Vec::new()))
        };
        let producer = {
            let q = Arc::clone(&full);
            std::thread::spawn(move || q.push(1))
        };
        let many = {
            let q = Arc::clone(&full);
            std::thread::spawn(move || q.push_many([2, 3]))
        };
        wait_until(|| empty.state.lock().unwrap().consumers_parked == 1);
        wait_until(|| full.state.lock().unwrap().producers_parked == 2);
        empty.close();
        full.close();
        assert!(!consumer.join().unwrap());
        assert_eq!(producer.join().unwrap(), Err(PushError::Closed(1)));
        assert_eq!(many.join().unwrap(), 0);
    }

    /// Many producers (single and batched pushes) against many
    /// consumers (every pop form) through a tiny `Block` queue: the
    /// waiter counting must never lose a wake-up, so every item arrives
    /// exactly once and the run finishes well inside its deadline.
    #[test]
    fn mpmc_stress_delivers_every_item_exactly_once() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 5_000;
        let q = Arc::new(BoundedQueue::new(3, BackpressurePolicy::Block));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let base = p * PER_PRODUCER;
                    let mut next = base;
                    while next < base + PER_PRODUCER {
                        if p % 2 == 0 {
                            q.push(next).unwrap();
                            next += 1;
                        } else {
                            let end = (next + 1 + next % 7).min(base + PER_PRODUCER);
                            assert_eq!(q.push_many(next..end), (end - next) as usize);
                            next = end;
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..3)
            .map(|form| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        match form {
                            0 => match q.pop() {
                                Some(v) => got.push(v),
                                None => return got,
                            },
                            1 => {
                                if !q.pop_batch(2, &mut got) {
                                    return got;
                                }
                            }
                            _ => match q.try_pop_batch(4, &mut got) {
                                PopResult::Popped(_) => {}
                                PopResult::Empty => std::thread::yield_now(),
                                PopResult::Closed => return got,
                            },
                        }
                    }
                })
            })
            .collect();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for p in producers {
                p.join().unwrap();
            }
            q.close();
            let mut all: Vec<u64> = consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect();
            all.sort_unstable();
            let _ = done_tx.send((all, q.counters()));
        });
        let (all, c) = done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a wake-up was lost: the stress run stalled");
        assert_eq!(all, (0..PRODUCERS * PER_PRODUCER).collect::<Vec<_>>());
        assert_eq!(
            (c.pushed, c.popped, c.depth),
            (all.len() as u64, all.len() as u64, 0)
        );
    }

    #[test]
    fn try_push_reports_full_instead_of_parking() {
        let q: BoundedQueue<u8> = BoundedQueue::new(2, BackpressurePolicy::Block);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        // A blocking push would park here; try_push must not.
        assert_eq!(q.try_push(3), Err(TryPushError::Full(3)));
        // Full is uncounted: the item is the caller's to retry.
        assert_eq!(q.counters().rejected, 0);
        assert_eq!(q.counters().dropped, 0);
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
        q.close();
        assert_eq!(q.try_push(4), Err(TryPushError::Closed(4)));
    }

    #[test]
    fn try_push_applies_the_lossy_policies() {
        let q: BoundedQueue<u8> = BoundedQueue::new(1, BackpressurePolicy::DropOldest);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.counters().dropped, 1);
        assert_eq!(q.pop(), Some(2));

        let q: BoundedQueue<u8> = BoundedQueue::new(1, BackpressurePolicy::RejectNewest);
        q.try_push(1).unwrap();
        assert_eq!(q.try_push(2), Err(TryPushError::Rejected(2)));
        assert_eq!(q.counters().rejected, 1);
    }

    #[test]
    fn pop_batch_takes_at_most_max_in_fifo_order() {
        let q = BoundedQueue::new(8, BackpressurePolicy::Block);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        let mut out = vec![-1];
        assert!(q.pop_batch(3, &mut out));
        // Appends after what the caller already holds.
        assert_eq!(out, vec![-1, 0, 1, 2]);
        out.clear();
        assert!(q.pop_batch(3, &mut out));
        assert_eq!(out, vec![3, 4]);
        let c = q.counters();
        assert_eq!((c.pushed, c.popped, c.depth), (5, 5, 0));
    }

    #[test]
    fn pop_batch_blocks_until_the_first_push() {
        let q = Arc::new(BoundedQueue::new(4, BackpressurePolicy::Block));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                let more = q.pop_batch(4, &mut out);
                (more, out)
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        assert!(
            !consumer.is_finished(),
            "pop_batch returned on an empty queue"
        );
        q.push(7).unwrap();
        let (more, out) = consumer.join().unwrap();
        assert!(more);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn pop_batch_ends_only_when_closed_and_drained() {
        let q = BoundedQueue::new(4, BackpressurePolicy::Block);
        q.push('a').unwrap();
        q.push('b').unwrap();
        q.close();
        let mut out = Vec::new();
        // Closed but not drained: still hands out what it holds.
        assert!(q.pop_batch(1, &mut out));
        assert!(q.pop_batch(8, &mut out));
        assert_eq!(out, vec!['a', 'b']);
        assert!(!q.pop_batch(8, &mut out));
        assert_eq!(
            out,
            vec!['a', 'b'],
            "a closed, drained pop must not touch out"
        );

        // Closing wakes a consumer parked on an empty queue.
        let q: Arc<BoundedQueue<u8>> = Arc::new(BoundedQueue::new(4, BackpressurePolicy::Block));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch(4, &mut Vec::new()))
        };
        std::thread::sleep(Duration::from_millis(30));
        q.close();
        assert!(!consumer.join().unwrap());
    }

    #[test]
    fn pop_batch_wakes_every_parked_producer() {
        let q = Arc::new(BoundedQueue::new(4, BackpressurePolicy::Block));
        for i in 0..4 {
            q.push(i).unwrap();
        }
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let producers: Vec<_> = (4..8)
            .map(|i| {
                let q = Arc::clone(&q);
                let done = done_tx.clone();
                std::thread::spawn(move || {
                    q.push(i).unwrap();
                    done.send(i).unwrap();
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(q.len(), 4, "producers should all be parked");
        let mut out = Vec::new();
        assert!(q.pop_batch(4, &mut out));
        assert_eq!(out, vec![0, 1, 2, 3]);
        // One pop freed four slots: every parked producer must get in
        // without any further consumer activity.
        for _ in 0..4 {
            done_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("a parked producer was never woken");
        }
        for p in producers {
            p.join().unwrap();
        }
        let mut rest = Vec::new();
        assert!(q.pop_batch(8, &mut rest));
        rest.sort_unstable();
        assert_eq!(rest, vec![4, 5, 6, 7]);
    }
}
