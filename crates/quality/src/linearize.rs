//! k-relaxed linearizability checking for *concurrent* histories.
//!
//! Theorem 1 states the 2D-Stack is **linearizable with respect to
//! k-out-of-order stack semantics**. The trace checker
//! ([`crate::checker`]) verifies the bound on single-threaded runs; this
//! module verifies the full concurrent claim on small histories: it
//! records invocation/response intervals with a shared logical clock and
//! then searches for a legal linearization (Wing & Gong-style DFS with
//! memoization) under a stack specification relaxed by `k` — a pop may
//! remove any of the top `k + 1` items, `k = 0` being the strict stack.
//!
//! Exhaustive linearization search is exponential, so histories are
//! limited to 64 operations; the integration tests run many small random
//! concurrent histories per algorithm instead of one big one, which is
//! the standard testing regime for this class of checker.

use std::collections::HashSet;

use crate::oracle::Label;
use stack2d::OpsHandle;

/// One completed operation with its observation interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recorded {
    /// Logical time of invocation.
    pub start: u64,
    /// Logical time of response.
    pub end: u64,
    /// What happened.
    pub op: HistOp,
}

/// The operation kinds of a stack history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistOp {
    /// A push of the given label.
    Push(Label),
    /// A pop that returned the given label.
    PopSome(Label),
    /// A pop that reported the stack empty.
    PopEmpty,
}

/// A complete concurrent history (all operations responded).
#[derive(Debug, Clone, Default)]
pub struct History {
    ops: Vec<Recorded>,
}

impl History {
    /// Builds a history from recorded operations.
    ///
    /// # Panics
    ///
    /// Panics if there are more than 64 operations (the checker is
    /// exponential) or if any interval is inverted.
    pub fn new(ops: Vec<Recorded>) -> Self {
        assert!(ops.len() <= 64, "history too large for exhaustive checking");
        for r in &ops {
            assert!(r.start < r.end, "inverted interval {r:?}");
        }
        History { ops }
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Whether the history is linearizable with respect to the
    /// k-out-of-order stack specification (`k = 0` = strict stack).
    ///
    /// Searches for an order of linearization points consistent with the
    /// real-time intervals in which every pop removes one of the top
    /// `k + 1` items and every empty pop happens on an empty stack.
    pub fn is_k_linearizable(&self, k: usize) -> bool {
        let n = self.ops.len();
        if n == 0 {
            return true;
        }
        let mut memo: HashSet<(u64, Vec<Label>)> = HashSet::new();
        let mut stack: Vec<Label> = Vec::new();
        self.dfs(0u64, &mut stack, k, &mut memo)
    }

    /// The smallest k for which the history linearizes, or `None` if no k
    /// works (a structural violation like popping a never-pushed label).
    pub fn tightest_k(&self) -> Option<usize> {
        let max_k = self.ops.len();
        if !self.is_k_linearizable(max_k) {
            return None;
        }
        // Linear scan is fine at history sizes <= 64; linearizability is
        // monotone in k so binary search would also work.
        (0..=max_k).find(|&k| self.is_k_linearizable(k))
    }

    fn dfs(
        &self,
        done: u64,
        stack: &mut Vec<Label>,
        k: usize,
        memo: &mut HashSet<(u64, Vec<Label>)>,
    ) -> bool {
        let n = self.ops.len();
        if done.count_ones() as usize == n {
            return true;
        }
        if !memo.insert((done, stack.clone())) {
            return false; // already explored this configuration
        }
        // An op may linearize next only if its invocation precedes the
        // response of every other pending op (Wing & Gong).
        let min_end = self
            .ops
            .iter()
            .enumerate()
            .filter(|(i, _)| done & (1 << i) == 0)
            .map(|(_, r)| r.end)
            .min()
            .expect("pending op exists");
        for i in 0..n {
            if done & (1 << i) != 0 {
                continue;
            }
            let r = self.ops[i];
            if r.start > min_end {
                continue;
            }
            match r.op {
                HistOp::Push(l) => {
                    stack.push(l);
                    if self.dfs(done | (1 << i), stack, k, memo) {
                        return true;
                    }
                    stack.pop();
                }
                HistOp::PopSome(l) => {
                    // The label must be within the top k+1 items.
                    let depth_limit = k + 1;
                    let top = stack.len();
                    let window_start = top.saturating_sub(depth_limit);
                    if let Some(pos) = (window_start..top).rev().find(|&p| stack[p] == l) {
                        let removed = stack.remove(pos);
                        if self.dfs(done | (1 << i), stack, k, memo) {
                            return true;
                        }
                        stack.insert(pos, removed);
                    }
                }
                HistOp::PopEmpty => {
                    if stack.is_empty() && self.dfs(done | (1 << i), stack, k, memo) {
                        return true;
                    }
                }
            }
        }
        false
    }
}

/// Records a concurrent history: per-thread recorders share a logical
/// clock and each wraps one stack handle.
///
/// # Examples
///
/// ```
/// use stack2d::{Params, Stack2D};
/// use stack2d_quality::linearize::{HistoryRecorder, SharedClock};
///
/// let stack = Stack2D::new(Params::new(2, 1, 1).unwrap());
/// let clock = SharedClock::new();
/// let mut rec = HistoryRecorder::new(stack.handle(), &clock);
/// rec.push(1);
/// rec.pop();
/// let history = rec.finish();
/// assert!(history.is_k_linearizable(stack.k_bound()));
/// ```
#[derive(Debug, Default)]
pub struct SharedClock {
    t: stack2d::sync::atomic::AtomicU64,
}

impl SharedClock {
    /// Creates a clock at zero.
    pub fn new() -> Self {
        Self::default()
    }

    fn tick(&self) -> u64 {
        self.t.fetch_add(1, stack2d::sync::atomic::Ordering::SeqCst)
    }
}

/// Per-thread recording wrapper around a stack handle.
#[derive(Debug)]
pub struct HistoryRecorder<'c, H> {
    handle: H,
    clock: &'c SharedClock,
    ops: Vec<Recorded>,
}

impl<'c, H: OpsHandle<Label>> HistoryRecorder<'c, H> {
    /// Wraps `handle`, timestamping against `clock`.
    pub fn new(handle: H, clock: &'c SharedClock) -> Self {
        HistoryRecorder { handle, clock, ops: Vec::new() }
    }

    /// Pushes `label`, recording the interval.
    pub fn push(&mut self, label: Label) {
        let start = self.clock.tick();
        self.handle.produce(label);
        let end = self.clock.tick();
        self.ops.push(Recorded { start, end, op: HistOp::Push(label) });
    }

    /// Pops, recording the interval and outcome.
    pub fn pop(&mut self) -> Option<Label> {
        let start = self.clock.tick();
        let got = self.handle.consume();
        let end = self.clock.tick();
        let op = match got {
            Some(l) => HistOp::PopSome(l),
            None => HistOp::PopEmpty,
        };
        self.ops.push(Recorded { start, end, op });
        got
    }

    /// Finishes this thread's recording.
    pub fn finish(self) -> History {
        History::new(self.ops)
    }

    /// Extracts the raw operations (for merging across threads).
    pub fn into_ops(self) -> Vec<Recorded> {
        self.ops
    }
}

/// Merges per-thread recordings into one history.
pub fn merge_histories(parts: Vec<Vec<Recorded>>) -> History {
    History::new(parts.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(start: u64, end: u64, op: HistOp) -> Recorded {
        Recorded { start, end, op }
    }

    #[test]
    fn empty_history_is_linearizable() {
        assert!(History::default().is_k_linearizable(0));
    }

    #[test]
    fn sequential_strict_history_passes_k0() {
        let h = History::new(vec![
            op(0, 1, HistOp::Push(1)),
            op(2, 3, HistOp::Push(2)),
            op(4, 5, HistOp::PopSome(2)),
            op(6, 7, HistOp::PopSome(1)),
            op(8, 9, HistOp::PopEmpty),
        ]);
        assert!(h.is_k_linearizable(0));
        assert_eq!(h.tightest_k(), Some(0));
    }

    #[test]
    fn sequential_out_of_order_needs_k() {
        // push 1, push 2, pop -> 1 (strictly illegal, 1-out-of-order legal)
        let h = History::new(vec![
            op(0, 1, HistOp::Push(1)),
            op(2, 3, HistOp::Push(2)),
            op(4, 5, HistOp::PopSome(1)),
        ]);
        assert!(!h.is_k_linearizable(0));
        assert!(h.is_k_linearizable(1));
        assert_eq!(h.tightest_k(), Some(1));
    }

    #[test]
    fn overlap_allows_reordering() {
        // Two overlapping pushes then pops in "wrong" order: legal at k=0
        // because the pushes can linearize either way.
        let h = History::new(vec![
            op(0, 5, HistOp::Push(1)),
            op(1, 6, HistOp::Push(2)),
            op(7, 8, HistOp::PopSome(1)),
            op(9, 10, HistOp::PopSome(2)),
        ]);
        assert!(h.is_k_linearizable(0));
    }

    #[test]
    fn pop_before_push_is_never_linearizable() {
        // The pop responds before the push is invoked: no k helps.
        let h = History::new(vec![op(0, 1, HistOp::PopSome(1)), op(2, 3, HistOp::Push(1))]);
        assert!(!h.is_k_linearizable(0));
        assert!(!h.is_k_linearizable(10));
        assert_eq!(h.tightest_k(), None);
    }

    #[test]
    fn false_empty_is_rejected() {
        // A pop reports empty strictly between a completed push and its
        // pop: the stack cannot have been empty.
        let h = History::new(vec![
            op(0, 1, HistOp::Push(1)),
            op(2, 3, HistOp::PopEmpty),
            op(4, 5, HistOp::PopSome(1)),
        ]);
        assert!(!h.is_k_linearizable(0));
        assert!(!h.is_k_linearizable(5));
    }

    #[test]
    fn concurrent_empty_can_slip_between() {
        // The empty pop overlaps the push: it may linearize first.
        let h = History::new(vec![
            op(0, 4, HistOp::Push(1)),
            op(1, 3, HistOp::PopEmpty),
            op(5, 6, HistOp::PopSome(1)),
        ]);
        assert!(h.is_k_linearizable(0));
    }

    #[test]
    #[should_panic(expected = "history too large")]
    fn oversized_history_panics() {
        let ops = (0..65).map(|i| op(2 * i, 2 * i + 1, HistOp::Push(i))).collect();
        let _ = History::new(ops);
    }

    #[test]
    #[should_panic(expected = "inverted interval")]
    fn inverted_interval_panics() {
        let _ = History::new(vec![op(5, 2, HistOp::Push(1))]);
    }

    #[test]
    fn k_monotonicity() {
        // If a history linearizes at k it linearizes at every k' >= k.
        let h = History::new(vec![
            op(0, 1, HistOp::Push(1)),
            op(2, 3, HistOp::Push(2)),
            op(4, 5, HistOp::Push(3)),
            op(6, 7, HistOp::PopSome(1)),
        ]);
        let t = h.tightest_k().unwrap();
        assert_eq!(t, 2);
        for k in t..6 {
            assert!(h.is_k_linearizable(k), "monotonicity broken at k={k}");
        }
    }
}
