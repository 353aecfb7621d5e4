//! Offline stand-in for the slice of `crossbeam` this workspace uses:
//! the [`channel`] module's MPMC channels — `unbounded` (the transport of
//! `prom_core::pool::ShardPool`'s shared job queue) and `bounded` (the
//! admission/backpressure primitive of `prom_core::serving`). Scoped
//! threads come from [`std::thread::scope`] directly.
//!
//! Channels are a from-scratch `Mutex<VecDeque>` + two-`Condvar` queue —
//! unlike the std `mpsc` the earlier revisions wrapped, both halves are
//! cloneable (**multi-producer, multi-consumer**, which the shard pool's
//! shared worker queue and the serving front-end's many producer handles
//! both need) and a capacity bound turns `send` into a blocking
//! backpressure point with a non-blocking `try_send` escape. Each side
//! counts its parked threads under the lock and signals a condition only
//! when someone waits on it, so an uncontended send or receive makes no
//! wake-up syscall. [`channel::Receiver::recv_batch`] (not in real
//! crossbeam) drains many values under one lock. Two divergences from
//! real crossbeam, neither used by the workspace: rendezvous channels
//! (`bounded(0)`) are not supported, and `select!` does not exist.

#![warn(missing_docs)]

/// MPMC channels (mirrors the used subset of `crossbeam::channel`).
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

    /// The error returned by [`Sender::send`] when every receiver has been
    /// dropped; gives the unsent value back.
    pub struct SendError<T>(pub T);

    // Manual impls so `T` needs no bounds (a job type holding raw
    // pointers is neither Debug nor PartialEq).
    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// The error returned by [`Sender::try_send`]; gives the value back.
    #[derive(PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// A bounded channel is at capacity (backpressure: the caller may
        /// retry, drop the value, or fall back to a blocking `send`).
        Full(T),
        /// Every receiver has been dropped.
        Disconnected(T),
    }

    impl<T> TrySendError<T> {
        /// The value that could not be sent.
        pub fn into_inner(self) -> T {
            match self {
                TrySendError::Full(v) | TrySendError::Disconnected(v) => v,
            }
        }

        /// Whether the failure was a capacity bound (retryable), not a
        /// disconnect.
        pub fn is_full(&self) -> bool {
            matches!(self, TrySendError::Full(_))
        }
    }

    impl<T> std::fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(match self {
                TrySendError::Full(_) => "Full(..)",
                TrySendError::Disconnected(_) => "Disconnected(..)",
            })
        }
    }

    /// The error returned by [`Receiver::recv`] when every sender has been
    /// dropped and the queue is drained.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// The error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No value is queued right now (senders still exist).
        Empty,
        /// Every sender has been dropped and the queue is drained.
        Disconnected,
    }

    /// The queue plus the hangup bookkeeping, behind the shared mutex.
    struct Inner<T> {
        queue: VecDeque<T>,
        /// `None` = unbounded.
        capacity: Option<usize>,
        senders: usize,
        receivers: usize,
        /// Senders waiting on `not_full` right now.
        parked_senders: usize,
        /// Receivers waiting on `not_empty` right now.
        parked_receivers: usize,
    }

    /// One channel: the locked state and the two wait conditions.
    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        /// Signalled on an enqueue that a parked receiver waits for, and
        /// on last-sender drop.
        not_empty: Condvar,
        /// Signalled on a dequeue that a parked sender waits for, and on
        /// last-receiver drop.
        not_full: Condvar,
    }

    impl<T> Shared<T> {
        /// Locks the state; a poisoned lock is taken anyway — the queue
        /// holds plain values and both counters are only touched under
        /// the lock, so there is no broken invariant to protect (the
        /// workspace's shard workers run jobs under `catch_unwind` and
        /// never panic while holding this lock in the first place).
        fn lock(&self) -> MutexGuard<'_, Inner<T>> {
            self.inner.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Parks a sender on `not_full` until signalled.
        fn park_sender<'a>(&self, mut inner: MutexGuard<'a, Inner<T>>) -> MutexGuard<'a, Inner<T>> {
            inner.parked_senders += 1;
            let mut inner = self.not_full.wait(inner).unwrap_or_else(PoisonError::into_inner);
            inner.parked_senders -= 1;
            inner
        }

        /// Parks a receiver on `not_empty` until signalled.
        fn park_receiver<'a>(
            &self,
            mut inner: MutexGuard<'a, Inner<T>>,
        ) -> MutexGuard<'a, Inner<T>> {
            inner.parked_receivers += 1;
            let mut inner = self.not_empty.wait(inner).unwrap_or_else(PoisonError::into_inner);
            inner.parked_receivers -= 1;
            inner
        }

        /// Enqueues under the held lock, then wakes one parked receiver if
        /// there is one. A receiver counts itself parked under the lock
        /// before it waits, so a zero count means nobody can miss this
        /// value.
        fn push(&self, mut inner: MutexGuard<'_, Inner<T>>, value: T) {
            inner.queue.push_back(value);
            let wake = inner.parked_receivers > 0;
            drop(inner);
            if wake {
                self.not_empty.notify_one();
            }
        }

        /// Releases the lock after `freed` dequeues and wakes parked
        /// senders, if any: one per freed slot, in a single call.
        fn freed(&self, inner: MutexGuard<'_, Inner<T>>, freed: usize) {
            let parked = inner.parked_senders;
            drop(inner);
            match (parked, freed) {
                (0, _) | (_, 0) => {}
                (_, 1) => self.not_full.notify_one(),
                _ => self.not_full.notify_all(),
            }
        }
    }

    /// The sending half. Cloneable (multi-producer); with a capacity
    /// bound, [`Sender::send`] blocks while the queue is full and
    /// [`Sender::try_send`] fails fast instead.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.lock().senders += 1;
            Self { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.lock();
            inner.senders -= 1;
            if inner.senders == 0 {
                drop(inner);
                // Receivers blocked on an empty queue must wake to see
                // the disconnect.
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Enqueues `value`, blocking while a bounded channel is at
        /// capacity (the backpressure path).
        ///
        /// # Errors
        ///
        /// Returns the value back when every receiver has been dropped —
        /// checked before and during the wait, so a sender can never
        /// block forever on a dead channel.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut inner = self.shared.lock();
            loop {
                if inner.receivers == 0 {
                    return Err(SendError(value));
                }
                match inner.capacity {
                    Some(cap) if inner.queue.len() >= cap => {
                        inner = self.shared.park_sender(inner);
                    }
                    _ => {
                        self.shared.push(inner, value);
                        return Ok(());
                    }
                }
            }
        }

        /// Like [`Sender::send`], but the value is built by `make` *inside
        /// the critical section*, only once a queue slot is free. A caller
        /// that wants to observe the moment of admission (e.g. stamp a
        /// timestamp that must not include time parked on a full queue)
        /// constructs the value here instead of before the call.
        ///
        /// # Errors
        ///
        /// Returns the (freshly built) value back when every receiver has
        /// been dropped — checked before and during the wait, exactly as
        /// in [`Sender::send`].
        pub fn send_with(&self, make: impl FnOnce() -> T) -> Result<(), SendError<T>> {
            let mut inner = self.shared.lock();
            loop {
                if inner.receivers == 0 {
                    drop(inner);
                    return Err(SendError(make()));
                }
                match inner.capacity {
                    Some(cap) if inner.queue.len() >= cap => {
                        inner = self.shared.park_sender(inner);
                    }
                    _ => {
                        self.shared.push(inner, make());
                        return Ok(());
                    }
                }
            }
        }

        /// Non-blocking enqueue.
        ///
        /// # Errors
        ///
        /// [`TrySendError::Full`] when a bounded channel is at capacity
        /// (the value comes back; retry, drop, or fall back to blocking
        /// [`Sender::send`]), [`TrySendError::Disconnected`] when every
        /// receiver is gone.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let inner = self.shared.lock();
            if inner.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            match inner.capacity {
                Some(cap) if inner.queue.len() >= cap => Err(TrySendError::Full(value)),
                _ => {
                    self.shared.push(inner, value);
                    Ok(())
                }
            }
        }

        /// Number of values currently queued (racy by nature; a metric,
        /// not a synchronization primitive).
        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        /// Whether the queue is currently empty (racy; see [`Sender::len`]).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    /// The receiving half. Cloneable (multi-consumer): every queued value
    /// is delivered to exactly **one** receiver — the work-queue
    /// semantics the shard pool's shared worker queue relies on.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.lock().receivers += 1;
            Self { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.lock();
            inner.receivers -= 1;
            if inner.receivers == 0 {
                drop(inner);
                // Senders blocked on a full queue must wake to see the
                // disconnect.
                self.shared.not_full.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a value arrives.
        ///
        /// # Errors
        ///
        /// Returns [`RecvError`] when every sender has been dropped and
        /// the queue is drained — the shutdown signal the pool's workers
        /// and the serving collator both drain on.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = self.shared.lock();
            loop {
                if let Some(value) = inner.queue.pop_front() {
                    self.shared.freed(inner, 1);
                    return Ok(value);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner = self.shared.park_receiver(inner);
            }
        }

        /// Blocks until a value arrives, then moves it and up to `max - 1`
        /// more queued values onto the back of `out` under one lock, and
        /// wakes blocked senders once. Returns how many values moved
        /// (`1..=max`).
        ///
        /// # Errors
        ///
        /// Returns [`RecvError`] when every sender has been dropped and
        /// the queue is drained, exactly as [`Receiver::recv`].
        ///
        /// # Panics
        ///
        /// Panics when `max` is 0.
        pub fn recv_batch(&self, out: &mut VecDeque<T>, max: usize) -> Result<usize, RecvError> {
            assert!(max >= 1, "recv_batch needs max >= 1");
            let mut inner = self.shared.lock();
            loop {
                if !inner.queue.is_empty() {
                    let moved = max.min(inner.queue.len());
                    out.extend(inner.queue.drain(..moved));
                    self.shared.freed(inner, moved);
                    return Ok(moved);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner = self.shared.park_receiver(inner);
            }
        }

        /// Non-blocking receive.
        ///
        /// # Errors
        ///
        /// [`TryRecvError::Empty`] when no value is queued,
        /// [`TryRecvError::Disconnected`] when every sender is gone and
        /// the queue is drained.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.shared.lock();
            if let Some(value) = inner.queue.pop_front() {
                self.shared.freed(inner, 1);
                return Ok(value);
            }
            if inner.senders == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }

        /// Blocking iterator over received values; ends on disconnect.
        pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.recv().ok())
        }

        /// Number of values currently queued (racy; a metric only).
        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        /// Whether the queue is currently empty (racy; see
        /// [`Receiver::len`]).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Blocks until `senders` senders and `receivers` receivers are
        /// parked at once, so a test can act only after the threads it
        /// wakes are really waiting.
        #[cfg(test)]
        pub(crate) fn wait_parked(&self, senders: usize, receivers: usize) {
            loop {
                let inner = self.shared.lock();
                if inner.parked_senders == senders && inner.parked_receivers == receivers {
                    return;
                }
                drop(inner);
                std::thread::yield_now();
            }
        }
    }

    fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                capacity,
                senders: 1,
                receivers: 1,
                parked_senders: 0,
                parked_receivers: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
    }

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// Creates a bounded MPMC channel holding at most `capacity` queued
    /// values: a full queue blocks [`Sender::send`] and fails
    /// [`Sender::try_send`] — the admission/backpressure primitive.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is 0 (real crossbeam's rendezvous channel;
    /// this stand-in does not support it).
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        assert!(capacity >= 1, "bounded(0) rendezvous channels are not supported");
        with_capacity(Some(capacity))
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, unbounded, RecvError, TryRecvError, TrySendError};

    #[test]
    fn unbounded_channel_delivers_in_order_across_threads() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..100 {
                tx2.send(i).expect("receiver alive");
            }
        });
        producer.join().unwrap();
        drop(tx);
        let got: Vec<i32> = rx.iter().collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert!(rx.recv().is_err(), "disconnected after all senders drop");
    }

    #[test]
    fn try_recv_reports_empty_then_disconnected() {
        let (tx, rx) = unbounded::<u8>();
        assert!(matches!(rx.try_recv(), Err(TryRecvError::Empty)));
        tx.send(7).unwrap();
        assert_eq!(rx.try_recv(), Ok(7));
        drop(tx);
        assert!(matches!(rx.try_recv(), Err(TryRecvError::Disconnected)));
    }

    #[test]
    fn send_to_dropped_receiver_returns_the_value() {
        let (tx, rx) = unbounded::<u8>();
        drop(rx);
        let err = tx.send(9).unwrap_err();
        assert_eq!(err.0, 9);
    }

    #[test]
    fn send_with_builds_the_value_only_at_enqueue_time() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::{Duration, Instant};

        let (tx, rx) = bounded::<Instant>(1);
        tx.send(Instant::now()).unwrap();
        // The queue is full: a blocked send_with must not run `make` until
        // a slot frees. The receiver drains after a deliberate stall, so a
        // timestamp taken eagerly (before the block) would be ~stall older
        // than one taken at enqueue time.
        let stall = Duration::from_millis(50);
        let made = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                tx.send_with(|| {
                    made.store(true, Ordering::SeqCst);
                    Instant::now()
                })
                .unwrap();
            });
            std::thread::sleep(stall);
            assert!(!made.load(Ordering::SeqCst), "make ran while the queue was full");
            let drain_at = Instant::now();
            rx.recv().unwrap();
            let stamped = rx.recv().unwrap();
            assert!(made.load(Ordering::SeqCst));
            assert!(
                stamped >= drain_at,
                "the stamp must be taken at admission, not before the block"
            );
        });
    }

    #[test]
    fn send_with_returns_the_built_value_on_disconnect() {
        let (tx, rx) = bounded::<u8>(1);
        drop(rx);
        let err = tx.send_with(|| 42).unwrap_err();
        assert_eq!(err.0, 42);
    }

    #[test]
    fn bounded_capacity_binds_try_send() {
        let (tx, rx) = bounded::<u32>(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        let err = tx.try_send(3).unwrap_err();
        assert!(err.is_full(), "third value must hit the capacity bound");
        assert_eq!(err.into_inner(), 3, "the full error returns the value");
        assert_eq!(tx.len(), 2);
        // Draining one slot re-opens admission.
        assert_eq!(rx.recv(), Ok(1));
        tx.try_send(3).unwrap();
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3), "FIFO order across the refill");
    }

    #[test]
    fn bounded_send_blocks_until_a_slot_frees() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        let sender = std::thread::spawn(move || {
            // Blocks until the main thread drains the single slot.
            tx.send(2).unwrap();
        });
        // Give the sender a moment to actually block on the full queue.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2), "the blocked send completes after the drain");
        sender.join().unwrap();
    }

    #[test]
    fn bounded_send_to_dropped_receiver_fails_even_when_full() {
        let (tx, rx) = bounded::<u8>(1);
        tx.send(1).unwrap();
        drop(rx);
        // Both forms must fail with a disconnect, never block forever.
        assert!(matches!(tx.try_send(2), Err(TrySendError::Disconnected(2))));
        assert_eq!(tx.send(3).unwrap_err().0, 3);
    }

    #[test]
    fn cloned_receivers_share_the_queue_without_duplication() {
        let (tx, rx) = unbounded::<u32>();
        let rx2 = rx.clone();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let a = std::thread::spawn(move || rx.iter().collect::<Vec<_>>());
        let b = std::thread::spawn(move || rx2.iter().collect::<Vec<_>>());
        let mut all = a.join().unwrap();
        all.extend(b.join().unwrap());
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>(), "each value delivered exactly once");
    }

    #[test]
    fn multiple_producers_multiple_consumers_deliver_every_value_once() {
        let (tx, rx) = bounded::<u32>(4);
        let mut producers = Vec::new();
        for p in 0..3u32 {
            let tx = tx.clone();
            producers.push(std::thread::spawn(move || {
                for i in 0..50 {
                    tx.send(p * 1000 + i).unwrap();
                }
            }));
        }
        drop(tx);
        let mut consumers = Vec::new();
        for _ in 0..2 {
            let rx = rx.clone();
            consumers.push(std::thread::spawn(move || rx.iter().collect::<Vec<u32>>()));
        }
        drop(rx);
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<u32> = Vec::new();
        for c in consumers {
            all.extend(c.join().unwrap());
        }
        all.sort_unstable();
        let expected: Vec<u32> = (0..3).flat_map(|p| (0..50).map(move |i| p * 1000 + i)).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn per_sender_fifo_order_is_preserved() {
        // MPMC interleaving may mix producers, but one producer's values
        // never reorder relative to each other.
        let (tx, rx) = bounded::<(u8, u32)>(8);
        let t1 = tx.clone();
        let a = std::thread::spawn(move || (0..200).for_each(|i| t1.send((1, i)).unwrap()));
        let t2 = tx.clone();
        let b = std::thread::spawn(move || (0..200).for_each(|i| t2.send((2, i)).unwrap()));
        drop(tx);
        let got: Vec<(u8, u32)> = rx.iter().collect();
        a.join().unwrap();
        b.join().unwrap();
        for source in [1, 2] {
            let seq: Vec<u32> = got.iter().filter(|(s, _)| *s == source).map(|&(_, i)| i).collect();
            assert_eq!(seq, (0..200).collect::<Vec<_>>(), "producer {source} order");
        }
    }

    #[test]
    fn recv_batch_moves_values_in_fifo_order_up_to_max() {
        use std::collections::VecDeque;
        let (tx, rx) = unbounded::<u32>();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        let mut out = VecDeque::from([99]);
        assert_eq!(rx.recv_batch(&mut out, 4), Ok(4), "the max caps one drain");
        assert_eq!(out, [99, 0, 1, 2, 3], "values append after what `out` held, in order");
        assert_eq!(rx.len(), 6);
        out.clear();
        assert_eq!(rx.recv_batch(&mut out, 100), Ok(6), "a drain takes what is queued");
        assert_eq!(out, [4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn recv_batch_reports_disconnect_only_after_the_drain() {
        use std::collections::VecDeque;
        let (tx, rx) = bounded::<u8>(4);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        let mut out = VecDeque::new();
        assert_eq!(rx.recv_batch(&mut out, 8), Ok(2), "queued values outlive the senders");
        assert_eq!(out, [1, 2]);
        assert_eq!(rx.recv_batch(&mut out, 8), Err(RecvError));
        assert_eq!(out.len(), 2, "a failed drain moves nothing");
    }

    #[test]
    fn recv_batch_blocks_until_a_value_arrives() {
        use std::collections::VecDeque;
        let (tx, rx) = unbounded::<u8>();
        std::thread::scope(|s| {
            let receiver = s.spawn(|| {
                let mut out = VecDeque::new();
                let moved = rx.recv_batch(&mut out, 8);
                (moved, out)
            });
            rx.wait_parked(0, 1);
            tx.send(5).unwrap();
            let (moved, out) = receiver.join().unwrap();
            assert_eq!(moved, Ok(1));
            assert_eq!(out, [5]);
        });
    }

    #[test]
    fn recv_batch_wakes_senders_blocked_on_a_full_queue() {
        use std::collections::VecDeque;
        let (tx, rx) = bounded::<u32>(2);
        tx.send(0).unwrap();
        tx.send(1).unwrap();
        let senders: Vec<_> = (2..4)
            .map(|i| {
                let tx = tx.clone();
                // Both block: the queue is full.
                std::thread::spawn(move || tx.send(i).unwrap())
            })
            .collect();
        drop(tx);
        rx.wait_parked(2, 0);
        let mut out = VecDeque::new();
        assert_eq!(rx.recv_batch(&mut out, 2), Ok(2), "one drain frees both slots");
        // Both parked senders must complete; a single wake-up for two
        // freed slots would strand one of them and hang this join.
        for sender in senders {
            sender.join().unwrap();
        }
        while rx.recv_batch(&mut out, 8).is_ok() {}
        let mut got: Vec<u32> = out.into_iter().collect();
        got.sort_unstable();
        assert_eq!(got, [0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "max >= 1")]
    fn recv_batch_rejects_a_zero_max() {
        let (_tx, rx) = unbounded::<u8>();
        let _ = rx.recv_batch(&mut std::collections::VecDeque::new(), 0);
    }

    #[test]
    #[should_panic(expected = "rendezvous")]
    fn zero_capacity_is_rejected() {
        let _ = bounded::<u8>(0);
    }
}
