//! The bounded in-flight pool and the completion re-sequencer.

use crate::waker::WakeFlag;
use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// One queued task: an index-tagged boxed future plus its wake flag.
struct Slot<'a, T> {
    index: u64,
    flag: WakeFlag,
    future: Pin<Box<dyn Future<Output = T> + 'a>>,
}

/// A bounded queue of in-flight futures, polled round-robin.
///
/// Up to `capacity` futures are resident at once; [`InFlightPool::submit`]
/// tags each with a caller-chosen index that is handed back on completion
/// (feed it to a [`Sequencer`] to restore submission order). One
/// [`InFlightPool::poll_round`] polls every *runnable* task once, in
/// submission order, so a future that needs `n` polls completes on the
/// same round however work interleaves.
pub struct InFlightPool<'a, T> {
    capacity: usize,
    slots: Vec<Slot<'a, T>>,
    rounds: u64,
    idle_waits: u64,
    diagnostics: Option<Box<dyn Fn() -> String + 'a>>,
}

impl<'a, T> InFlightPool<'a, T> {
    /// Creates a pool admitting at most `capacity` in-flight futures.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> InFlightPool<'a, T> {
        assert!(capacity >= 1, "an in-flight pool needs capacity >= 1");
        InFlightPool {
            capacity,
            slots: Vec::with_capacity(capacity),
            rounds: 0,
            idle_waits: 0,
            diagnostics: None,
        }
    }

    /// Attaches a diagnostics closure whose output is appended to the
    /// deadlock panic (the piped backend passes the fd reactor's
    /// [`crate::FdReactor::debug_dump`], so a stuck pipeline names its
    /// armed fds and last-poll age instead of dying bare).
    pub fn set_diagnostics(&mut self, diagnostics: impl Fn() -> String + 'a) {
        self.diagnostics = Some(Box::new(diagnostics));
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of futures currently in flight.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// True when another future can be submitted.
    pub fn has_capacity(&self) -> bool {
        self.slots.len() < self.capacity
    }

    /// Poll rounds driven so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Queues a future tagged with `index`.
    ///
    /// # Panics
    ///
    /// Panics when the pool is full (callers gate on
    /// [`InFlightPool::has_capacity`] — the bound is the backpressure
    /// contract, not a best-effort hint).
    pub fn submit(&mut self, index: u64, future: impl Future<Output = T> + 'a) {
        assert!(
            self.has_capacity(),
            "in-flight pool over capacity ({})",
            self.capacity
        );
        self.slots.push(Slot {
            index,
            flag: WakeFlag::new(),
            future: Box::pin(future),
        });
        if o4a_obs::metrics_enabled() {
            o4a_obs::metrics::histogram("executor.inflight_depth").record(self.slots.len() as u64);
        }
    }

    /// Drives one poll round: polls each task whose wake flag is set, in
    /// submission order, and returns the `(index, output)` pairs that
    /// completed this round (possibly none).
    pub fn poll_round(&mut self) -> Vec<(u64, T)> {
        self.rounds += 1;
        let mut done = Vec::new();
        let mut i = 0;
        while i < self.slots.len() {
            let slot = &mut self.slots[i];
            if !slot.flag.take() {
                i += 1;
                continue;
            }
            let waker = slot.flag.waker();
            let mut cx = Context::from_waker(&waker);
            match slot.future.as_mut().poll(&mut cx) {
                Poll::Ready(value) => {
                    done.push((slot.index, value));
                    self.slots.remove(i); // keep submission order intact
                }
                Poll::Pending => i += 1,
            }
        }
        done
    }

    /// Polls until at least one in-flight future completes, returning all
    /// completions of that round.
    ///
    /// # Panics
    ///
    /// Panics when the pool is empty, or when a round finds no runnable
    /// task (every resident future is `Pending` with no wake scheduled —
    /// a guaranteed deadlock on this reactor-free executor).
    pub fn wait_any(&mut self) -> Vec<(u64, T)> {
        self.wait_any_with(|| {})
    }

    /// [`InFlightPool::wait_any`] with an **idle hook**: when a round finds
    /// no runnable task, `idle` runs once and must wake at least one (the
    /// fd reactor's [`crate::FdReactor::poll_io`] is the intended hook — it
    /// blocks in `poll(2)` until a child pipe is readable or a per-query
    /// deadline passes, so waiting on external solvers costs no CPU).
    ///
    /// # Panics
    ///
    /// Panics when the pool is empty, or when even the idle hook wakes
    /// nothing (every resident future is `Pending` with no wake source — a
    /// guaranteed deadlock).
    pub fn wait_any_with(&mut self, mut idle: impl FnMut()) -> Vec<(u64, T)> {
        assert!(!self.is_empty(), "wait_any on an empty pool");
        loop {
            if self.slots.iter().all(|s| !s.flag.is_set()) {
                self.idle_waits += 1;
                idle();
                if self.slots.iter().all(|s| !s.flag.is_set()) {
                    panic!("{}", self.deadlock_report());
                }
            }
            let done = self.poll_round();
            if !done.is_empty() {
                return done;
            }
        }
    }

    /// The deadlock post-mortem: which indices are stuck, how many rounds
    /// the pool drove, and whatever the attached diagnostics
    /// source (normally the fd reactor) knows about pending wake sources.
    fn deadlock_report(&self) -> String {
        let stuck: Vec<u64> = self.slots.iter().map(|s| s.index).collect();
        let mut report = format!(
            "in-flight pool deadlock: {} future(s) pending, none woken after the idle hook\n  \
             stuck indices: {stuck:?}\n  rounds driven: {}, idle waits: {}",
            self.len(),
            self.rounds,
            self.idle_waits,
        );
        if let Some(diagnostics) = &self.diagnostics {
            report.push_str("\n  ");
            report.push_str(&diagnostics().replace('\n', "\n  "));
        }
        report
    }
}

impl<T> Drop for InFlightPool<'_, T> {
    fn drop(&mut self) {
        // Flush the locally accumulated tallies in one shot — the
        // per-round fast path stays free of registry traffic.
        if o4a_obs::metrics_enabled() && (self.rounds > 0 || self.idle_waits > 0) {
            o4a_obs::metrics::counter("executor.poll_rounds").add(self.rounds);
            o4a_obs::metrics::counter("executor.idle_waits").add(self.idle_waits);
        }
    }
}

/// Re-orders out-of-order completions back into dense index order.
///
/// The consumer side of the overlap pipeline: completions arrive tagged
/// with their submission index, and [`Sequencer::pop`] releases them only
/// in index order (0, 1, 2, ...), holding any that arrive early. This is
/// what lets `o4a-exec` apply out-of-order solver results to a
/// `CampaignStepper` in exactly the serial engine's order.
#[derive(Debug)]
pub struct Sequencer<T> {
    next: u64,
    held: BTreeMap<u64, T>,
}

impl<T> Default for Sequencer<T> {
    fn default() -> Self {
        Sequencer::new()
    }
}

impl<T> Sequencer<T> {
    /// Creates a sequencer expecting index 0 first.
    pub fn new() -> Sequencer<T> {
        Sequencer {
            next: 0,
            held: BTreeMap::new(),
        }
    }

    /// The next index [`Sequencer::pop`] will release.
    pub fn next_index(&self) -> u64 {
        self.next
    }

    /// Number of completions held waiting for earlier indices.
    pub fn held(&self) -> usize {
        self.held.len()
    }

    /// Accepts the completion of `index`.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate or already-released index — both are protocol
    /// violations a deterministic pipeline must never commit.
    pub fn push(&mut self, index: u64, value: T) {
        assert!(
            index >= self.next,
            "sequencer: index {index} already released (next is {})",
            self.next
        );
        assert!(
            self.held.insert(index, value).is_none(),
            "sequencer: duplicate completion for index {index}"
        );
    }

    /// Releases the next in-order completion, if it has arrived.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        let value = self.held.remove(&self.next)?;
        let index = self.next;
        self.next += 1;
        Some((index, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Completes after `n` more polls, waking itself each time: a
    /// deterministic latency of `n` poll rounds.
    fn latency(n: u64) -> impl Future<Output = ()> {
        let mut left = n;
        std::future::poll_fn(move |cx| {
            if left == 0 {
                return Poll::Ready(());
            }
            left -= 1;
            cx.waker().wake_by_ref();
            Poll::Pending
        })
    }

    /// Drains a pool through a sequencer, recording both completion order
    /// and released order.
    fn drain(pool: &mut InFlightPool<'_, u64>) -> (Vec<u64>, Vec<u64>) {
        let mut completion_order = Vec::new();
        let mut released = Vec::new();
        let mut seq = Sequencer::new();
        while !pool.is_empty() {
            for (index, value) in pool.wait_any() {
                completion_order.push(index);
                seq.push(index, value);
            }
            while let Some((_, value)) = seq.pop() {
                released.push(value);
            }
        }
        (completion_order, released)
    }

    #[test]
    fn out_of_order_completions_are_resequenced() {
        let mut pool = InFlightPool::new(4);
        // Inverted latencies: index 0 is slowest, index 3 fastest.
        for i in 0..4u64 {
            pool.submit(i, async move {
                latency(20 - 5 * i).await;
                i
            });
        }
        let (completion_order, released) = drain(&mut pool);
        assert_eq!(completion_order, vec![3, 2, 1, 0], "latency inversion");
        assert_eq!(released, vec![0, 1, 2, 3], "sequencer restores order");
    }

    #[test]
    fn equal_latencies_complete_in_submission_order() {
        let mut pool = InFlightPool::new(3);
        for i in 0..3u64 {
            pool.submit(i, async move {
                latency(7).await;
                i
            });
        }
        let (completion_order, released) = drain(&mut pool);
        assert_eq!(completion_order, vec![0, 1, 2]);
        assert_eq!(released, vec![0, 1, 2]);
    }

    #[test]
    fn rounds_advance_with_latency() {
        let mut pool: InFlightPool<()> = InFlightPool::new(1);
        pool.submit(0, latency(9));
        let done = pool.wait_any();
        assert_eq!(done.len(), 1);
        assert_eq!(pool.rounds(), 10, "latency(9) resolves on round 10");
    }

    #[test]
    #[should_panic(expected = "over capacity")]
    fn capacity_is_a_hard_bound() {
        let mut pool: InFlightPool<()> = InFlightPool::new(2);
        pool.submit(0, latency(1));
        pool.submit(1, latency(1));
        pool.submit(2, latency(1));
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn unwoken_pool_panics() {
        use std::future::Future;
        use std::pin::Pin;
        use std::task::{Context, Poll};
        struct Stuck;
        impl Future for Stuck {
            type Output = ();
            fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
                Poll::Pending
            }
        }
        let mut pool = InFlightPool::new(1);
        pool.submit(0, Stuck);
        pool.wait_any();
    }

    #[test]
    #[should_panic(expected = "stuck indices: [7]")]
    fn deadlock_panic_enumerates_stuck_work_and_diagnostics() {
        use std::future::Future;
        use std::pin::Pin;
        use std::task::{Context, Poll};
        struct Stuck;
        impl Future for Stuck {
            type Output = ();
            fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
                Poll::Pending
            }
        }
        let mut pool = InFlightPool::new(2);
        pool.set_diagnostics(|| "reactor: poll_io never ran, 0 registration(s)".into());
        pool.submit(7, Stuck);
        pool.wait_any();
    }

    #[test]
    #[should_panic(expected = "duplicate completion")]
    fn sequencer_rejects_duplicates() {
        let mut seq = Sequencer::new();
        seq.push(2, "a");
        seq.push(2, "b");
    }

    #[test]
    fn sequencer_holds_gaps() {
        let mut seq = Sequencer::new();
        seq.push(1, "b");
        assert!(seq.pop().is_none(), "index 0 has not arrived");
        assert_eq!(seq.held(), 1);
        seq.push(0, "a");
        assert_eq!(seq.pop(), Some((0, "a")));
        assert_eq!(seq.pop(), Some((1, "b")));
        assert_eq!(seq.next_index(), 2);
        assert!(seq.pop().is_none());
    }
}
