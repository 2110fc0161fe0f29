//! [`join_all`]: drive several futures of one task together.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// Drives every future in `futures` together and resolves to their
/// outputs **in input order**, whatever order they finish in.
///
/// Each poll polls every unfinished future once, in input order, so the
/// first poll runs each one to its first suspension point before any is
/// awaited; the piped campaign engine relies on that to write one case's
/// frame to every solver lane before it waits on any reply. A future
/// whose own waker did not fire is polled anyway, which the `Future`
/// contract allows.
pub fn join_all<F: Future>(futures: impl IntoIterator<Item = F>) -> JoinAll<F> {
    let futures: Vec<_> = futures.into_iter().map(|f| Some(Box::pin(f))).collect();
    JoinAll {
        outputs: futures.iter().map(|_| None).collect(),
        futures,
    }
}

/// The future [`join_all`] returns.
pub struct JoinAll<F: Future> {
    /// `None` once the future has finished.
    futures: Vec<Option<Pin<Box<F>>>>,
    outputs: Vec<Option<F::Output>>,
}

/// Every future is boxed, and nothing pins `outputs`.
impl<F: Future> Unpin for JoinAll<F> {}

impl<F: Future> Future for JoinAll<F> {
    type Output = Vec<F::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Vec<F::Output>> {
        let this = self.get_mut();
        let mut pending = false;
        for (slot, output) in this.futures.iter_mut().zip(&mut this.outputs) {
            let Some(future) = slot else {
                continue;
            };
            match future.as_mut().poll(cx) {
                Poll::Ready(value) => {
                    *output = Some(value);
                    *slot = None;
                }
                Poll::Pending => pending = true,
            }
        }
        if pending {
            return Poll::Pending;
        }
        Poll::Ready(
            this.outputs
                .iter_mut()
                .map(|o| o.take().expect("every future finished"))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_on;
    use std::cell::RefCell;

    /// Logs `name` on every poll and finishes after `n` self-woken
    /// suspensions.
    async fn logged(name: &'static str, n: usize, log: &RefCell<Vec<&'static str>>) -> usize {
        let mut left = n;
        std::future::poll_fn(|cx| {
            log.borrow_mut().push(name);
            if left == 0 {
                return Poll::Ready(());
            }
            left -= 1;
            cx.waker().wake_by_ref();
            Poll::Pending
        })
        .await;
        n
    }

    #[test]
    fn outputs_come_back_in_input_order() {
        let log = RefCell::new(Vec::new());
        let out = block_on(join_all([
            logged("slow", 3, &log),
            logged("fast", 0, &log),
            logged("mid", 1, &log),
        ]));
        assert_eq!(out, vec![3, 0, 1]);
        // A finished future is never polled again.
        assert_eq!(log.borrow().iter().filter(|&&n| n == "fast").count(), 1);
    }

    #[test]
    fn first_poll_reaches_every_future_before_any_second_poll() {
        let log = RefCell::new(Vec::new());
        block_on(join_all([logged("a", 2, &log), logged("b", 2, &log)]));
        assert_eq!(*log.borrow(), ["a", "b", "a", "b", "a", "b"]);
    }

    #[test]
    fn empty_join_is_ready_at_once() {
        let out: Vec<usize> = block_on(join_all(std::iter::empty::<std::future::Ready<usize>>()));
        assert!(out.is_empty());
    }
}
