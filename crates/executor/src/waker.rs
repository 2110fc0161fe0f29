//! The hand-rolled waker and the single-future driver.
//!
//! A task's waker is one `Arc<AtomicBool>`: "this task wants another
//! poll". [`WakeFlag::waker`] packs the arc into a [`RawWaker`] by hand —
//! the vtable below is the entire scheduler interface. Executors poll a
//! task only when its flag is set, and a `Pending` task whose flag stays
//! clear is provably stuck (there is no other thread and no reactor to set
//! it), which turns the classic lost-wakeup hang into an immediate panic.

use std::future::Future;
use std::mem::ManuallyDrop;
use std::pin::pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

/// One task's wake state: set when the task should be polled again.
///
/// Flags start **set** so a freshly spawned task gets its first poll.
#[derive(Clone, Debug)]
pub struct WakeFlag(Arc<AtomicBool>);

impl Default for WakeFlag {
    fn default() -> Self {
        WakeFlag::new()
    }
}

impl WakeFlag {
    /// Creates a flag in the set state.
    pub fn new() -> WakeFlag {
        WakeFlag(Arc::new(AtomicBool::new(true)))
    }

    /// Clears the flag, returning whether it was set — "claim the poll".
    pub fn take(&self) -> bool {
        self.0.swap(false, Ordering::AcqRel)
    }

    /// True when a wake is pending.
    pub fn is_set(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }

    /// Sets the flag (what [`Waker::wake`] does).
    pub fn set(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Builds the [`Waker`] that sets this flag.
    pub fn waker(&self) -> Waker {
        // SAFETY: `raw_from` hands the vtable an owned strong count, and
        // every vtable entry balances counts exactly (see each function).
        unsafe { Waker::from_raw(raw_from(Arc::clone(&self.0))) }
    }
}

const VTABLE: RawWakerVTable = RawWakerVTable::new(vt_clone, vt_wake, vt_wake_by_ref, vt_drop);

/// Packs an owned arc into a raw waker (consumes one strong count).
fn raw_from(flag: Arc<AtomicBool>) -> RawWaker {
    RawWaker::new(Arc::into_raw(flag) as *const (), &VTABLE)
}

/// SAFETY contract for all vtable fns: `data` is an `Arc<AtomicBool>`
/// pointer produced by [`raw_from`], owning one strong count.
unsafe fn vt_clone(data: *const ()) -> RawWaker {
    let flag = ManuallyDrop::new(Arc::from_raw(data as *const AtomicBool));
    raw_from(Arc::clone(&flag))
}

unsafe fn vt_wake(data: *const ()) {
    let flag = Arc::from_raw(data as *const AtomicBool);
    flag.store(true, Ordering::Release);
}

unsafe fn vt_wake_by_ref(data: *const ()) {
    let flag = ManuallyDrop::new(Arc::from_raw(data as *const AtomicBool));
    flag.store(true, Ordering::Release);
}

unsafe fn vt_drop(data: *const ()) {
    drop(Arc::from_raw(data as *const AtomicBool));
}

/// Drives one future to completion on the calling thread.
///
/// # Panics
///
/// Panics when the future returns `Pending` without having scheduled a
/// wake: on this single-threaded, reactor-free executor nothing else can
/// ever wake it, so the alternative is hanging forever.
pub fn block_on<F: Future>(future: F) -> F::Output {
    block_on_with(future, || {})
}

/// [`block_on`] with an **idle hook**: when the future is `Pending` with
/// no wake scheduled, `idle` runs once and must produce the wake (the
/// fd reactor's [`crate::FdReactor::poll_io`] is the intended hook — it
/// blocks in `poll(2)` until a registered fd is readable or a deadline
/// passes). This is what lets one thread drive I/O-backed futures without
/// busy-waiting.
///
/// # Panics
///
/// Panics when the future is `Pending` and even the idle hook scheduled no
/// wake — on this single-threaded executor nothing else ever can.
pub fn block_on_with<F: Future>(future: F, mut idle: impl FnMut()) -> F::Output {
    let mut future = pin!(future);
    let flag = WakeFlag::new();
    let waker = flag.waker();
    let mut cx = Context::from_waker(&waker);
    loop {
        flag.take();
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(value) => return value,
            Poll::Pending => {
                if !flag.is_set() {
                    idle();
                }
                assert!(
                    flag.is_set(),
                    "block_on: future is Pending with no wake scheduled — \
                     a single-threaded executor without event sources can \
                     never resume it"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::pin::Pin;

    #[test]
    fn block_on_ready_future() {
        assert_eq!(block_on(async { 41 + 1 }), 42);
    }

    #[test]
    fn block_on_self_waking_future() {
        let mut polls = 0;
        let future = std::future::poll_fn(|cx| {
            polls += 1;
            if polls > 17 {
                return Poll::Ready("done");
            }
            cx.waker().wake_by_ref();
            Poll::Pending
        });
        assert_eq!(block_on(future), "done");
        assert_eq!(polls, 18, "17 self-wakes, then ready");
    }

    #[test]
    #[should_panic(expected = "no wake scheduled")]
    fn block_on_detects_lost_wakeup() {
        struct Stuck;
        impl Future for Stuck {
            type Output = ();
            fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
                Poll::Pending // never wakes: a guaranteed deadlock
            }
        }
        block_on(Stuck);
    }

    #[test]
    fn waker_contract_clone_wake_drop() {
        let flag = WakeFlag::new();
        assert!(flag.take(), "flags start set");
        assert!(!flag.is_set());
        let w1 = flag.waker();
        let w2 = w1.clone();
        w1.wake_by_ref();
        assert!(flag.take());
        w2.wake(); // consuming wake
        assert!(flag.is_set());
        drop(flag.waker()); // drop without wake leaves the flag alone
        assert!(flag.take());
        assert!(!flag.is_set());
    }
}
