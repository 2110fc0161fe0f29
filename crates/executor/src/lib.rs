//! # o4a-executor
//!
//! A tokio-free, offline, single-threaded poll-loop executor — just enough
//! async machinery for one campaign worker to keep `K` solver queries in
//! flight at once. Everything is built from `core::future` primitives:
//!
//! * a **hand-rolled waker** ([`WakeFlag`]) backed by one atomic flag per
//!   task — no reactor, no timers, no I/O driver;
//! * [`block_on`], the smallest possible future driver (and a deadlock
//!   detector: on a single thread with no external event sources, a
//!   `Pending` future that scheduled no wake can never progress);
//! * [`InFlightPool`], a **bounded in-flight queue** of futures polled
//!   round-robin in submission order, one poll per runnable task per
//!   round, so futures that need a fixed number of polls complete in a
//!   deterministic order;
//! * [`Sequencer`], the re-ordering buffer that turns out-of-order
//!   completions back into index order — the determinism keystone of the
//!   overlapped campaign engine in `o4a-exec`;
//! * [`FdReactor`], the `poll(2)`-based readiness reactor that extends the
//!   same machinery to **external solver processes**: futures blocked on a
//!   child's stdout register their fd, and the pool's idle hook
//!   ([`InFlightPool::wait_any_with`]) blocks in `poll(2)` — no busy-wait,
//!   no timer thread — until a reply arrives or a per-query deadline
//!   passes.
//!
//! ```
//! use o4a_executor::{InFlightPool, Sequencer};
//! use std::task::Poll;
//!
//! // Three tasks with inverted latencies (task i needs 10 - i polls)
//! // complete out of order...
//! let mut pool: InFlightPool<u64> = InFlightPool::new(3);
//! for i in 0..3u64 {
//!     let mut polls = 0;
//!     pool.submit(
//!         i,
//!         std::future::poll_fn(move |cx| {
//!             polls += 1;
//!             if polls > 10 - i {
//!                 return Poll::Ready(i * 100);
//!             }
//!             cx.waker().wake_by_ref();
//!             Poll::Pending
//!         }),
//!     );
//! }
//! // ...and the sequencer hands them back in index order.
//! let mut seq = Sequencer::new();
//! while !pool.is_empty() {
//!     for (index, value) in pool.wait_any() {
//!         seq.push(index, value);
//!     }
//! }
//! let drained: Vec<(u64, u64)> = std::iter::from_fn(|| seq.pop()).collect();
//! assert_eq!(drained, vec![(0, 0), (1, 100), (2, 200)]);
//! ```

#![warn(missing_docs)]

mod pool;
mod reactor;
mod waker;

pub use pool::{InFlightPool, Sequencer};
pub use reactor::{
    flush_outbuf, read_available, readable, set_nonblocking, writable, write_available, FdReactor,
    FdReady, Interest,
};
pub use waker::{block_on, block_on_with, WakeFlag};
