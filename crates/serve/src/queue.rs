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
use std::sync::{Condvar, Mutex};

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

/// Outcome of a non-blocking [`try_pop`](BoundedQueue::try_pop).
#[derive(Debug, PartialEq, Eq)]
pub enum PopResult<T> {
    /// An item was dequeued.
    Item(T),
    /// The queue is momentarily empty but still open.
    TimedOut,
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
                    // lint:allow(panic, reason = "poison propagation: see module doc")
                    state = self.not_full.wait(state).expect("queue poisoned");
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
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues, blocking until an item arrives or the queue is both
    /// closed and drained (`None`).
    pub fn pop(&self) -> Option<T> {
        // lint:allow(panic, reason = "poison propagation: see module doc — a poisoned queue must panic into the supervisor, not serve corrupted state")
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                self.popped.fetch_add(1, Ordering::Relaxed);
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            // lint:allow(panic, reason = "poison propagation: see module doc")
            state = self.not_empty.wait(state).expect("queue poisoned");
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
            // lint:allow(panic, reason = "poison propagation: see module doc")
            state = self.not_empty.wait(state).expect("queue poisoned");
        }
        let n = max.min(state.items.len());
        out.extend(state.items.drain(..n));
        self.popped.fetch_add(n as u64, Ordering::Relaxed);
        drop(state);
        self.not_full.notify_all();
        true
    }

    /// Non-blocking dequeue: `Item` when something was buffered,
    /// `TimedOut` when the queue is momentarily empty but still open
    /// (the readiness reactor's "would block"), `Closed` once the
    /// queue is both closed and drained. Never parks the caller.
    pub fn try_pop(&self) -> PopResult<T> {
        // lint:allow(panic, reason = "poison propagation: see module doc — a poisoned queue must panic into the supervisor, not serve corrupted state")
        let mut state = self.state.lock().expect("queue poisoned");
        if let Some(item) = state.items.pop_front() {
            self.popped.fetch_add(1, Ordering::Relaxed);
            drop(state);
            self.not_full.notify_one();
            return PopResult::Item(item);
        }
        if state.closed {
            PopResult::Closed
        } else {
            PopResult::TimedOut
        }
    }

    /// Non-parking enqueue: applies the same policy as
    /// [`push`](Self::push) except that a full queue under
    /// [`BackpressurePolicy::Block`] comes back as
    /// [`TryPushError::Full`] instead of parking the caller. This is
    /// the producer face for single-threaded event loops that are also
    /// the queue's consumer — a blocking push there would deadlock.
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
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Closes the queue: future pushes fail, consumers drain the
    /// remaining items and then observe end-of-stream.
    pub fn close(&self) {
        // lint:allow(panic, reason = "poison propagation: see module doc — a poisoned queue must panic into the supervisor, not serve corrupted state")
        let mut state = self.state.lock().expect("queue poisoned");
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
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
    fn try_pop_never_blocks() {
        let q: BoundedQueue<u8> = BoundedQueue::new(4, BackpressurePolicy::Block);
        assert_eq!(q.try_pop(), PopResult::TimedOut);
        q.push(5).unwrap();
        assert_eq!(q.try_pop(), PopResult::Item(5));
        assert_eq!(q.try_pop(), PopResult::TimedOut);
        q.push(6).unwrap();
        q.close();
        // Closed queues still drain what they hold before signalling.
        assert_eq!(q.try_pop(), PopResult::Item(6));
        assert_eq!(q.try_pop(), PopResult::Closed);
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
