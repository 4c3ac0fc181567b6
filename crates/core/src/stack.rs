//! The 2D-Stack: `width` sub-stacks under a shared window.
//!
//! This module implements the algorithm of §3 of the paper:
//!
//! * an array of counted Treiber sub-stacks (the *stack-array*);
//! * a shared `Global` counter giving the upper edge of the current
//!   **window**: a push is valid on a sub-stack iff `count < Global`, a pop
//!   iff `count > Global - depth` (and the sub-stack is non-empty);
//! * a two-phase search (random hops, then a covering round-robin sweep)
//!   that starts from the thread's last successful sub-stack;
//! * window **shifts**: when a covering sweep finds no valid sub-stack, the
//!   thread CASes `Global` up by `shift` (push side) or down by `shift`
//!   (pop side, floored at `depth`);
//! * restart on observed `Global` change, and a random hop after a failed
//!   CAS (contention avoidance).
//!
//! Relaxation is bounded by Theorem 1: `k = (2*shift + depth)*(width-1)`.
//!
//! The search itself runs in the shared engine and everything around the
//! cells (construction, retunes, handles, accounting) in the
//! [`Window2D`] shell; this module contributes the [`StackCells`] and the
//! stack's push/pop vocabulary.

use core::fmt;

use crossbeam_epoch::{self as epoch};
use crossbeam_utils::CachePadded;

use crate::engine::{Probe, ProbeTarget};
use crate::params::Params;
use crate::search::SearchConfig;
use crate::substack::{Contended, PreparedNode, SubStack};
use crate::telemetry::OpKind;
use crate::window::{Lane, WindowDesc, WindowInfo};
use crate::window2d::{Cells, Sealed, Window2D, WindowHandle};

/// A scalable lock-free stack with tunable k-out-of-order relaxation.
///
/// `Stack2D` trades strict LIFO order for throughput: a `pop` may return any
/// of the topmost `k+1` items, where `k` is the deterministic bound
/// [`Params::k_bound`] (`(2*shift + depth)*(width-1)`, Theorem 1 of the
/// paper). Setting `width = 1` recovers a strict lock-free stack.
///
/// Threads should operate through a registered [`Handle2D`] (see
/// [`Window2D::handle`]), which carries the paper's per-thread state: the
/// last successful sub-stack (locality) and the hop RNG. The plain
/// [`push`](Stack2D::push) / [`pop`](Stack2D::pop) methods construct an
/// ephemeral handle per call and are provided for convenience.
///
/// # Examples
///
/// ```
/// use stack2d::{Params, Stack2D};
///
/// # fn main() -> Result<(), stack2d::ParamsError> {
/// let stack = Stack2D::new(Params::new(4, 2, 1)?);
/// let mut h = stack.handle();
/// h.push(1);
/// h.push(2);
/// // Relaxed semantics: we get *some* recent item, and nothing is lost.
/// let a = h.pop().unwrap();
/// let b = h.pop().unwrap();
/// assert_eq!({ let mut v = vec![a, b]; v.sort(); v }, vec![1, 2]);
/// assert_eq!(h.pop(), None);
/// # Ok(())
/// # }
/// ```
pub type Stack2D<T> = Window2D<StackCells<T>>;

/// Per-thread access handle to a [`Stack2D`].
///
/// Carries the paper's thread-local state: the index of the sub-stack the
/// thread last succeeded on (exploited for locality, shared by pushes and
/// pops) and the RNG driving random hops. Not `Sync`; create one handle
/// per thread.
///
/// # Examples
///
/// ```
/// use stack2d::{Params, Stack2D};
///
/// let stack: Stack2D<u32> = Stack2D::new(Params::default());
/// std::thread::scope(|s| {
///     for _ in 0..2 {
///         s.spawn(|| {
///             let mut h = stack.handle();
///             for i in 0..100 {
///                 h.push(i);
///             }
///             for _ in 0..100 {
///                 h.pop();
///             }
///         });
///     }
/// });
/// ```
pub type Handle2D<'s, T> = WindowHandle<'s, StackCells<T>>;

/// The cells of a [`Stack2D`]: the sub-stack array and the single window
/// lane both pushes and pops search.
pub struct StackCells<T> {
    /// Sub-stacks, allocated once at `config.capacity()`; only the first
    /// `push_width` (pushes) / `pop_width` (pops) are active.
    subs: Box<[CachePadded<SubStack<T>>]>,
    lane: Lane,
}

/// The push side of the stack-array, as driven by the search engine: a
/// sub-stack is push-valid iff its count is below `Global`.
struct PushSide<'s, T> {
    subs: &'s [CachePadded<SubStack<T>>],
    node: Option<PreparedNode<T>>,
    /// Remaining values of a batched push, in reverse order (popped from
    /// the back as [`ProbeTarget::reload`] stages them). Empty for a
    /// singular push.
    pending: Vec<T>,
}

impl<T> ProbeTarget for PushSide<'_, T> {
    type Output = ();
    const CONSUMES: bool = false;
    const KIND: OpKind = OpKind::Push;

    fn span(&self, w: &WindowDesc) -> usize {
        w.push_width
    }

    fn probe(
        &mut self,
        i: usize,
        _w: &WindowDesc,
        global: usize,
        guard: &epoch::Guard,
    ) -> Probe<()> {
        let view = self.subs[i].view(guard);
        if view.count() < global {
            let n = self.node.take().expect("push node present until consumed");
            match self.subs[i].try_push_at(&view, n, guard) {
                Ok(()) => Probe::Done(()),
                Err(Contended(n)) => {
                    self.node = Some(n);
                    Probe::Contended
                }
            }
        } else {
            Probe::Invalid
        }
    }

    fn shift_target(&self, global: usize, live: &WindowDesc) -> Option<usize> {
        // Every sub-stack is at or above the window: raise it.
        Some(global + live.shift)
    }

    fn reload(&mut self) -> bool {
        debug_assert!(self.node.is_none(), "reload with a node still staged");
        match self.pending.pop() {
            Some(v) => {
                self.node = Some(PreparedNode::new(v));
                true
            }
            None => false,
        }
    }
}

/// The pop side: a sub-stack is pop-valid iff it is non-empty and its count
/// exceeds `Global - depth`; emptiness is concluded only from the covering
/// sweep every policy ends with.
struct PopSide<'s, T> {
    subs: &'s [CachePadded<SubStack<T>>],
}

impl<T> ProbeTarget for PopSide<'_, T> {
    type Output = T;
    const CONSUMES: bool = true;
    const KIND: OpKind = OpKind::Pop;

    fn span(&self, w: &WindowDesc) -> usize {
        w.pop_width
    }

    fn probe(&mut self, i: usize, w: &WindowDesc, global: usize, guard: &epoch::Guard) -> Probe<T> {
        let view = self.subs[i].view(guard);
        if view.is_empty() {
            return Probe::Empty;
        }
        if view.count() > global.saturating_sub(w.depth) {
            match self.subs[i].try_pop_at(&view, guard) {
                Ok(Some(v)) => Probe::Done(v),
                // `Ok(None)` cannot happen: the view was non-empty.
                Ok(None) => unreachable!("non-empty view popped empty"),
                Err(Contended(())) => Probe::Contended,
            }
        } else {
            Probe::Invalid
        }
    }

    fn shift_target(&self, global: usize, live: &WindowDesc) -> Option<usize> {
        // Items exist but sit below the window: lower it, flooring at
        // `depth` so the window never dips below `[0, depth]`. (After a
        // depth-growing retune, `Global` may transiently sit below the new
        // depth; never raise it from the pop side.)
        let lowered = global.saturating_sub(live.shift).max(live.depth);
        (lowered < global).then_some(lowered)
    }
}

impl<T> StackCells<T> {
    /// The push side, staged with `first` and the (reversed) rest of a
    /// batch.
    fn push_side(&self, first: T, pending: Vec<T>) -> PushSide<'_, T> {
        PushSide { subs: &self.subs, node: Some(PreparedNode::new(first)), pending }
    }

    fn len(&self) -> usize {
        let guard = epoch::pin();
        self.subs.iter().map(|s| s.view(&guard).count()).sum()
    }
}

impl<T> Sealed for StackCells<T> {}

impl<T> Cells for StackCells<T> {
    type Item = T;
    const NAME: &'static str = "2D-stack";
    const TARGET_NAME: &'static str = "2d-stack";
    const HANDLE_NAME: &'static str = "Handle2D";

    fn new(config: &SearchConfig) -> Self {
        StackCells {
            subs: (0..config.capacity()).map(|_| CachePadded::new(SubStack::new())).collect(),
            lane: Lane::new(config.params()),
        }
    }

    fn produce_lane(&self) -> &Lane {
        &self.lane
    }

    fn commit_shrink(&self) -> Option<WindowInfo> {
        self.lane.window.try_commit_shrink(|tail, guard| {
            self.subs[tail].iter().all(|s| s.view(guard).is_empty())
        })
    }

    /// `(pop_width - 1) * (max sub-stack count + depth)`.
    fn k_bound_instantaneous(&self) -> usize {
        let guard = epoch::pin();
        let w = self.lane.window.load(&guard);
        if w.pop_width <= 1 {
            return 0;
        }
        let max_count =
            self.subs[..w.pop_width].iter().map(|s| s.view(&guard).count()).max().unwrap_or(0);
        (w.pop_width - 1) * (max_count + w.depth)
    }

    fn produce(h: &mut Handle2D<'_, T>, value: T) {
        h.push(value);
    }

    fn consume(h: &mut Handle2D<'_, T>) -> Option<T> {
        h.pop()
    }

    fn produce_n(h: &mut Handle2D<'_, T>, values: Vec<T>) {
        h.push_n(values);
    }

    fn consume_n(h: &mut Handle2D<'_, T>, max: usize) -> Vec<T> {
        h.pop_n(max)
    }
}

impl<T> Stack2D<T> {
    /// Current value of the `Global` window counter (diagnostic).
    #[inline]
    pub fn global(&self) -> usize {
        self.cells().lane.global()
    }

    /// Sum of the sub-stack item counts.
    ///
    /// Inherently approximate under concurrency (counts are read one
    /// sub-stack at a time), exact when quiescent.
    pub fn len(&self) -> usize {
        self.cells().len()
    }

    /// Whether every sub-stack is empty (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        let guard = epoch::pin();
        self.cells().subs.iter().all(|s| s.view(&guard).is_empty())
    }

    /// Item counts per sub-stack — the *load profile* used by the quality
    /// experiments to show how the window keeps sub-stacks balanced.
    pub fn load_profile(&self) -> Vec<usize> {
        let guard = epoch::pin();
        self.cells().subs.iter().map(|s| s.view(&guard).count()).collect()
    }

    /// Pushes through an ephemeral handle (no locality). Prefer
    /// [`Window2D::handle`] on hot paths.
    pub fn push(&self, value: T) {
        self.handle().push(value);
    }

    /// Pops through an ephemeral handle (no locality). Prefer
    /// [`Window2D::handle`] on hot paths.
    pub fn pop(&self) -> Option<T> {
        self.handle().pop()
    }

    /// Returns an iterator that pops items until the stack is empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use stack2d::{Params, Stack2D};
    ///
    /// let stack = Stack2D::new(Params::default());
    /// stack.push(1);
    /// stack.push(2);
    /// let mut items: Vec<i32> = stack.drain().collect();
    /// items.sort();
    /// assert_eq!(items, vec![1, 2]);
    /// assert!(stack.is_empty());
    /// ```
    pub fn drain(&self) -> Drain<'_, T> {
        Drain { handle: self.handle() }
    }
}

impl<T> fmt::Debug for StackCells<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stack2D")
            .field("window", &self.lane.window.info())
            .field("global", &self.lane.global())
            .field("len", &self.len())
            .finish()
    }
}

impl<'s, T> Handle2D<'s, T> {
    /// The stack this handle operates on.
    #[inline]
    pub fn stack(&self) -> &'s Stack2D<T> {
        self.target()
    }

    /// Index of the sub-stack of the last successful operation.
    #[inline]
    pub fn last_substack(&self) -> usize {
        self.last[0]
    }

    /// Pushes `value` onto the stack. Lock-free: a thread only retries when
    /// another thread made progress (won a CAS, shifted the window, or
    /// retuned it).
    pub fn push(&mut self, value: T) {
        self.op(1, false, |c| c.push_side(value, Vec::new()), drop);
    }

    /// Pushes every value in `values`, amortizing the window search: after
    /// one search round wins a sub-stack, up to `depth` items are pushed
    /// onto that same sub-stack (each re-validated against the live
    /// `Global`) before searching again. Observably equivalent to pushing
    /// the values one by one — a batch never places more items on one
    /// sub-stack than the window already permits, so Theorem 1's bound is
    /// untouched (see DESIGN.md §14).
    ///
    /// # Examples
    ///
    /// ```
    /// use stack2d::{Params, Stack2D};
    ///
    /// let stack = Stack2D::new(Params::default());
    /// stack.handle().push_n((0..100).collect());
    /// assert_eq!(stack.len(), 100);
    /// ```
    pub fn push_n(&mut self, mut values: Vec<T>) {
        values.reverse();
        let n = values.len();
        self.op(n, true, |c| c.push_side(values.pop().expect("n > 0"), values), drop);
    }

    /// Pops an item; `None` when a covering sweep observed every sub-stack
    /// empty. The returned item is within `k` positions of the top of the
    /// corresponding strict stack ([`Params::k_bound`]).
    pub fn pop(&mut self) -> Option<T> {
        let mut out = None;
        self.op(1, false, |c| PopSide { subs: &c.subs }, |v| out = Some(v));
        out
    }

    /// Pops up to `max` items, amortizing the window search: after one
    /// search round wins a sub-stack, up to `depth` items are drained from
    /// that same sub-stack (each re-validated against the live `Global`)
    /// before searching again. Returns short when a covering sweep
    /// observes every sub-stack empty. The returned multiset is exactly
    /// what `max` sequential [`pop`](Handle2D::pop)s would have returned,
    /// and every item is within the same Theorem 1 bound.
    ///
    /// # Examples
    ///
    /// ```
    /// use stack2d::{Params, Stack2D};
    ///
    /// let stack = Stack2D::new(Params::default());
    /// stack.handle().push_n((0..10).collect());
    /// let items = stack.handle().pop_n(64);
    /// assert_eq!(items.len(), 10);
    /// ```
    pub fn pop_n(&mut self, max: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(max);
        self.op(max, true, |c| PopSide { subs: &c.subs }, |v| out.push(v));
        out
    }
}

/// Draining iterator returned by [`Stack2D::drain`]; pops until the stack
/// is observed empty.
///
/// Items arrive in the stack's relaxed LIFO order. Dropping the iterator
/// early leaves the remaining items in place.
pub struct Drain<'s, T> {
    handle: Handle2D<'s, T>,
}

impl<T> Iterator for Drain<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.handle.pop()
    }
}

impl<T> fmt::Debug for Drain<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Drain").finish_non_exhaustive()
    }
}

impl<T: Send> Extend<T> for Stack2D<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        let mut h = self.handle();
        for item in iter {
            h.push(item);
        }
    }
}

impl<T: Send> FromIterator<T> for Stack2D<T> {
    /// Collects into a stack with [`Params::default`]; use
    /// [`Window2D::new`] + [`Extend`] to control parameters.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut stack = Stack2D::new(Params::default());
        stack.extend(iter);
        stack
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::SearchPolicy;
    use crate::sync::atomic::{AtomicBool, Ordering};
    use crate::sync::Arc;
    use crate::traits::{OpsHandle, RelaxedOps};
    use crossbeam_epoch::Collector;
    use std::collections::HashSet;

    fn params(w: usize, d: usize, s: usize) -> Params {
        Params::new(w, d, s).unwrap()
    }

    #[test]
    fn empty_pop_returns_none() {
        let stack: Stack2D<u32> = Stack2D::new(params(4, 2, 1));
        assert_eq!(stack.pop(), None);
        assert!(stack.is_empty());
        assert_eq!(stack.len(), 0);
    }

    #[test]
    fn push_then_pop_single_item() {
        let stack = Stack2D::new(params(4, 2, 1));
        stack.push(99);
        assert_eq!(stack.len(), 1);
        assert_eq!(stack.pop(), Some(99));
        assert_eq!(stack.pop(), None);
    }

    #[test]
    fn width_one_is_a_strict_stack() {
        let stack = Stack2D::new(params(1, 1, 1));
        assert_eq!(stack.k_bound(), 0);
        let mut h = stack.handle_seeded(7);
        for i in 0..1000 {
            h.push(i);
        }
        for i in (0..1000).rev() {
            assert_eq!(h.pop(), Some(i), "width=1 must be strictly LIFO");
        }
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn all_items_recovered_sequentially() {
        let stack = Stack2D::new(params(8, 4, 2));
        let mut h = stack.handle_seeded(3);
        let n = 10_000;
        for i in 0..n {
            h.push(i);
        }
        assert_eq!(stack.len(), n);
        let mut seen = HashSet::new();
        while let Some(v) = h.pop() {
            assert!(seen.insert(v), "duplicate item {v}");
        }
        assert_eq!(seen.len(), n, "all items must come back exactly once");
        assert!(stack.is_empty());
    }

    #[test]
    fn global_rises_under_push_pressure() {
        let p = params(2, 1, 1);
        let stack = Stack2D::new(p);
        let before = stack.global();
        let mut h = stack.handle_seeded(1);
        // 2 sub-stacks, depth 1: pushing 10 items forces repeated window
        // raises.
        for i in 0..10 {
            h.push(i);
        }
        assert!(
            stack.global() > before,
            "global must rise: before={before} after={}",
            stack.global()
        );
        // Counts never exceed Global (the window's defining invariant holds
        // quiescently).
        for c in stack.load_profile() {
            assert!(c <= stack.global());
        }
    }

    #[test]
    fn global_falls_back_under_pop_pressure() {
        let stack = Stack2D::new(params(2, 1, 1));
        let mut h = stack.handle_seeded(1);
        for i in 0..64 {
            h.push(i);
        }
        let high = stack.global();
        while h.pop().is_some() {}
        let low = stack.global();
        assert!(low < high, "global must fall while draining: {high} -> {low}");
        assert_eq!(low, stack.params().depth(), "drained stack window rests at depth");
    }

    #[test]
    fn load_profile_is_window_balanced_after_bulk_push() {
        let p = params(8, 4, 4);
        let stack = Stack2D::new(p);
        let mut h = stack.handle_seeded(5);
        for i in 0..8 * 100 {
            h.push(i);
        }
        let profile = stack.load_profile();
        let max = *profile.iter().max().unwrap();
        let min = *profile.iter().min().unwrap();
        // The window bounds the spread between sub-stacks by depth + shift.
        assert!(max - min <= p.depth() + p.shift(), "window failed to balance: {profile:?}");
    }

    #[test]
    fn ephemeral_push_pop_work() {
        let stack = Stack2D::new(params(4, 1, 1));
        for i in 0..32 {
            stack.push(i);
        }
        let mut got = Vec::new();
        while let Some(v) = stack.pop() {
            got.push(v);
        }
        got.sort_unstable();
        assert_eq!(got, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_no_loss_no_duplication() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 5_000;
        let stack = Arc::new(Stack2D::new(params(8, 2, 1)));
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let stack = Arc::clone(&stack);
            joins.push(crate::sync::thread::spawn(move || {
                let mut h = stack.handle_seeded(t as u64 + 1);
                let mut popped = Vec::new();
                for i in 0..PER_THREAD {
                    h.push((t * PER_THREAD + i) as u64);
                    if i % 2 == 1 {
                        if let Some(v) = h.pop() {
                            popped.push(v);
                        }
                    }
                }
                popped
            }));
        }
        let mut all: Vec<u64> = Vec::new();
        for j in joins {
            all.extend(j.join().unwrap());
        }
        // Drain the rest.
        let mut h = stack.handle_seeded(999);
        while let Some(v) = h.pop() {
            all.push(v);
        }
        all.sort_unstable();
        let expect: Vec<u64> = (0..(THREADS * PER_THREAD) as u64).collect();
        assert_eq!(all, expect, "no item may be lost or duplicated");
    }

    #[test]
    fn concurrent_mixed_handles_and_policies() {
        let cfg = SearchConfig::new(params(4, 3, 2))
            .search_policy(SearchPolicy::TwoPhase { random_hops: 2 });
        let stack = Arc::new(Stack2D::with_config(cfg));
        let stop = Arc::new(AtomicBool::new(false));
        let mut joins = Vec::new();
        for t in 0..3 {
            let stack = Arc::clone(&stack);
            let stop = Arc::clone(&stop);
            joins.push(crate::sync::thread::spawn(move || {
                let mut h = stack.handle_seeded(t + 10);
                let mut balance = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    h.push(1u8);
                    balance += 1;
                    if h.pop().is_some() {
                        balance -= 1;
                    }
                }
                balance
            }));
        }
        crate::sync::thread::sleep(std::time::Duration::from_millis(100));
        stop.store(true, Ordering::Relaxed);
        let pushed_minus_popped: i64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
        let mut h = stack.handle_seeded(0);
        let mut remaining = 0i64;
        while h.pop().is_some() {
            remaining += 1;
        }
        assert_eq!(remaining, pushed_minus_popped);
    }

    #[test]
    fn round_robin_only_policy_is_functional() {
        let cfg = SearchConfig::new(params(4, 1, 1)).search_policy(SearchPolicy::RoundRobinOnly);
        let stack = Stack2D::with_config(cfg);
        let mut h = stack.handle_seeded(2);
        for i in 0..100 {
            h.push(i);
        }
        let mut n = 0;
        while h.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 100);
    }

    #[test]
    fn random_only_policy_is_functional() {
        let cfg = SearchConfig::new(params(4, 2, 1)).search_policy(SearchPolicy::RandomOnly);
        let stack = Stack2D::with_config(cfg);
        let mut h = stack.handle_seeded(2);
        for i in 0..100 {
            h.push(i);
        }
        let mut n = 0;
        while h.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 100);
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn no_locality_config_is_functional() {
        let cfg = SearchConfig::new(params(4, 2, 1)).locality(false).hop_on_contention(false);
        let stack = Stack2D::with_config(cfg);
        let mut h = stack.handle_seeded(4);
        for i in 0..200 {
            h.push(i);
        }
        let mut seen = HashSet::new();
        while let Some(v) = h.pop() {
            seen.insert(v);
        }
        assert_eq!(seen.len(), 200);
    }

    #[test]
    fn handle_tracks_last_successful_substack() {
        let stack = Stack2D::new(params(4, 8, 1));
        let mut h = stack.handle_seeded(11);
        h.push(1);
        let after_push = h.last_substack();
        assert!(after_push < 4);
        // Depth 8 leaves room on the same sub-stack; locality keeps us there.
        h.push(2);
        assert_eq!(h.last_substack(), after_push, "locality should reuse the sub-stack");
    }

    #[test]
    fn drop_releases_resident_items() {
        use crate::sync::atomic::AtomicUsize;
        struct Canary(Arc<AtomicUsize>);
        impl Drop for Canary {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let stack = Stack2D::new(params(4, 2, 1));
            let mut h = stack.handle_seeded(1);
            for _ in 0..50 {
                h.push(Canary(drops.clone()));
            }
            for _ in 0..20 {
                drop(h.pop());
            }
        }
        assert_eq!(drops.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn drain_empties_the_stack() {
        let stack = Stack2D::new(params(4, 2, 1));
        for i in 0..100 {
            stack.push(i);
        }
        let mut got: Vec<i32> = stack.drain().collect();
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert!(stack.is_empty());
    }

    #[test]
    fn drain_can_be_abandoned() {
        let stack = Stack2D::new(params(4, 2, 1));
        for i in 0..10 {
            stack.push(i);
        }
        {
            let mut d = stack.drain();
            let _ = d.next();
            let _ = d.next();
        }
        assert_eq!(stack.len(), 8, "abandoned drain leaves the rest resident");
    }

    #[test]
    fn extend_and_from_iterator() {
        let mut stack: Stack2D<u32> = (0..50).collect();
        assert_eq!(stack.len(), 50);
        stack.extend(50..60);
        assert_eq!(stack.len(), 60);
        let mut got: Vec<u32> = stack.drain().collect();
        got.sort_unstable();
        assert_eq!(got, (0..60).collect::<Vec<_>>());
    }

    #[test]
    fn metrics_track_window_shifts() {
        let stack = Stack2D::new(params(2, 1, 1));
        let mut h = stack.handle_seeded(1);
        for i in 0..20 {
            h.push(i);
        }
        let m = stack.metrics();
        assert_eq!(m.ops, 20);
        // 2 sub-stacks × depth 1 = 2 items per window level; 20 pushes
        // require at least 9 raises.
        assert!(m.shifts_up >= 9, "expected many raises, got {m}");
        assert!(m.probes >= 20, "every op probes at least once");
        while h.pop().is_some() {}
        let m = stack.metrics();
        assert!(m.shifts_down > 0, "draining must lower the window: {m}");
        assert!(m.empty_pops >= 1, "the final pop observed empty");
    }

    #[test]
    fn metrics_reset_clears_counters() {
        let stack = Stack2D::new(params(2, 1, 1));
        stack.push(1);
        assert!(stack.metrics().ops > 0);
        stack.reset_metrics();
        assert_eq!(stack.metrics().ops, 0);
        assert_eq!(stack.metrics().probes, 0);
    }

    #[test]
    fn metrics_accumulate_under_concurrency() {
        let stack = Arc::new(Stack2D::new(params(4, 2, 1)));
        let mut joins = Vec::new();
        for t in 0..4 {
            let stack = Arc::clone(&stack);
            joins.push(crate::sync::thread::spawn(move || {
                let mut h = stack.handle_seeded(t);
                for i in 0..1_000 {
                    h.push(i);
                    h.pop();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let m = stack.metrics();
        assert_eq!(m.ops, 4 * 2 * 1_000);
        assert!(m.probes >= m.ops, "at least one probe per op: {m}");
    }

    #[test]
    fn debug_formats_are_nonempty() {
        let stack: Stack2D<u8> = Stack2D::new(params(2, 1, 1));
        assert!(!format!("{stack:?}").is_empty());
        let h = stack.handle();
        assert!(!format!("{h:?}").is_empty());
    }

    /// Drives `try_commit_shrink` until it lands (each quiescent call
    /// advances the epoch at most one step, so a few rounds are needed).
    fn commit_shrink_eventually<T>(stack: &Stack2D<T>) -> crate::window::WindowInfo {
        for _ in 0..64 {
            if let Some(info) = stack.try_commit_shrink() {
                return info;
            }
        }
        panic!("shrink failed to commit on a quiescent stack");
    }

    #[test]
    fn elastic_grow_takes_effect_immediately() {
        let stack: Stack2D<u64> =
            Stack2D::builder().params(params(1, 1, 1)).elastic_capacity(8).build().unwrap();
        assert_eq!(stack.capacity(), 8);
        assert_eq!(stack.window().width(), 1);
        assert_eq!(stack.k_bound(), 0);
        let info = stack.retune(params(8, 1, 1)).unwrap();
        assert_eq!(info.width(), 8);
        assert_eq!(info.generation(), 1);
        assert!(!info.pending_shrink());
        let mut h = stack.handle_seeded(3);
        for i in 0..800 {
            h.push(i);
        }
        // The widened span is actually used: more than one sub-stack holds
        // items.
        let occupied = stack.load_profile().iter().filter(|&&c| c > 0).count();
        assert!(occupied > 1, "grow did not spread load: {:?}", stack.load_profile());
    }

    #[test]
    fn shrink_is_pending_until_tail_drains_then_commits() {
        let domain = Collector::new();
        // SAFETY: single-threaded: every structure this test pins on is
        // created, used and dropped on this thread inside the scope.
        unsafe {
            domain.enter(|| {
                let stack: Stack2D<u64> =
                    Stack2D::builder().params(params(8, 1, 1)).elastic_capacity(8).build().unwrap();
                let mut h = stack.handle_seeded(9);
                for i in 0..200 {
                    h.push(i);
                }
                let info = stack.retune(params(2, 1, 1)).unwrap();
                assert!(info.pending_shrink(), "items in the tail: shrink must be pending");
                assert_eq!(info.width(), 2);
                assert_eq!(info.pop_width(), 8);
                // The bound stays at the wide value while pops still cover 8
                // sub-stacks.
                assert_eq!(info.k_bound(), params(8, 1, 1).k_bound());
                // Every item is still reachable.
                let mut seen = HashSet::new();
                while let Some(v) = h.pop() {
                    assert!(seen.insert(v), "duplicate {v}");
                }
                assert_eq!(seen.len(), 200, "no item may be stranded by a shrink");
                let committed = commit_shrink_eventually(&stack);
                assert_eq!(committed.pop_width(), 2);
                assert!(!committed.pending_shrink());
                assert_eq!(stack.k_bound(), params(2, 1, 1).k_bound());
            })
        }
    }

    #[test]
    fn commit_shrink_refuses_while_tail_nonempty() {
        let stack: Stack2D<u64> =
            Stack2D::builder().params(params(4, 1, 1)).elastic_capacity(4).build().unwrap();
        let mut h = stack.handle_seeded(5);
        for i in 0..40 {
            h.push(i);
        }
        stack.retune(params(1, 1, 1)).unwrap();
        // Items are resident beyond the shrunk width; the commit must not
        // land no matter how often it is attempted.
        for _ in 0..64 {
            assert!(stack.try_commit_shrink().is_none());
        }
        assert!(stack.window().pending_shrink());
    }

    #[test]
    fn instantaneous_bound_counts_residency() {
        let stack: Stack2D<u64> =
            Stack2D::builder().params(params(1, 1, 1)).elastic_capacity(8).build().unwrap();
        assert_eq!(stack.k_bound_instantaneous(), 0, "width 1 is strict");
        let mut h = stack.handle_seeded(7);
        for i in 0..100 {
            h.push(i);
        }
        // Grow: the configured bound jumps to the wide formula, and the
        // instantaneous bound covers the 100 resident items that now face
        // 7 fresh siblings.
        stack.retune(params(8, 1, 1)).unwrap();
        let inst = stack.k_bound_instantaneous();
        assert!(inst >= 7 * 100, "transient must cover resident items, got {inst}");
        // Draining tightens the live bound back toward the configured one:
        // empty stack => (pop_width - 1) * (0 + depth) = 7.
        while h.pop().is_some() {}
        assert_eq!(stack.k_bound_instantaneous(), 7);
    }

    #[test]
    fn retune_noop_does_not_bump_generation() {
        let stack: Stack2D<u8> = Stack2D::new(params(4, 2, 1));
        let g0 = stack.window().generation();
        let info = stack.retune(params(4, 2, 1)).unwrap();
        assert_eq!(info.generation(), g0);
        // Depth-only changes do bump.
        let info = stack.retune(params(4, 3, 1)).unwrap();
        assert_eq!(info.generation(), g0 + 1);
        assert_eq!(info.depth(), 3);
    }

    #[test]
    fn retune_counts_in_metrics() {
        let stack: Stack2D<u8> =
            Stack2D::builder().params(params(2, 1, 1)).elastic_capacity(4).build().unwrap();
        assert_eq!(stack.metrics().retunes, 0);
        stack.retune(params(4, 1, 1)).unwrap();
        stack.retune(params(4, 2, 2)).unwrap();
        assert_eq!(stack.metrics().retunes, 2);
    }

    #[test]
    fn fixed_width_stack_rejects_wider_retune() {
        let stack: Stack2D<u8> = Stack2D::new(params(4, 1, 1));
        assert_eq!(
            stack.retune(params(5, 1, 1)).unwrap_err(),
            crate::window::RetuneError::ExceedsCapacity { requested: 5, capacity: 4 }
        );
        // Depth retunes within capacity are fine on a fixed-width stack.
        assert!(stack.retune(params(4, 4, 2)).is_ok());
    }

    #[test]
    fn depth_grow_with_low_global_stays_live() {
        // After a depth-growing retune Global may sit below the new depth;
        // pushes and pops must keep making progress.
        let stack: Stack2D<u64> = Stack2D::new(params(4, 1, 1));
        let mut h = stack.handle_seeded(2);
        for i in 0..16 {
            h.push(i);
        }
        while h.pop().is_some() {}
        assert_eq!(stack.global(), 1);
        stack.retune(params(4, 8, 4)).unwrap();
        for i in 0..100 {
            h.push(i);
        }
        let mut n = 0;
        while h.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 100);
    }

    #[test]
    fn concurrent_churn_across_retunes_conserves_items() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 3_000;
        let stack = Arc::new(
            Stack2D::builder().params(params(2, 1, 1)).elastic_capacity(16).build().unwrap(),
        );
        let schedule =
            [params(16, 1, 1), params(4, 2, 2), params(1, 1, 1), params(8, 4, 1), params(2, 1, 1)];
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let stack = Arc::clone(&stack);
            joins.push(crate::sync::thread::spawn(move || {
                let mut h = stack.handle_seeded(t as u64 + 1);
                let mut popped = Vec::new();
                for i in 0..PER_THREAD {
                    h.push((t * PER_THREAD + i) as u64);
                    if i % 2 == 1 {
                        if let Some(v) = h.pop() {
                            popped.push(v);
                        }
                    }
                }
                popped
            }));
        }
        // Retune aggressively while the workers churn.
        for _ in 0..40 {
            for p in schedule {
                stack.retune(p).unwrap();
                stack.try_commit_shrink();
                crate::sync::thread::yield_now();
            }
        }
        let mut all: Vec<u64> = Vec::new();
        for j in joins {
            all.extend(j.join().unwrap());
        }
        let mut h = stack.handle_seeded(999);
        while let Some(v) = h.pop() {
            all.push(v);
        }
        all.sort_unstable();
        let expect: Vec<u64> = (0..(THREADS * PER_THREAD) as u64).collect();
        assert_eq!(all, expect, "retunes must not lose or duplicate items");
    }

    #[test]
    fn trait_object_style_generic_use() {
        fn run<S: RelaxedOps<u64>>(s: &S) -> usize {
            let mut h = s.ops_handle();
            for i in 0..64 {
                h.produce(i);
            }
            let mut n = 0;
            while h.consume().is_some() {
                n += 1;
            }
            n
        }
        let stack = Stack2D::new(params(4, 2, 2));
        assert_eq!(run(&stack), 64);
        assert_eq!(RelaxedOps::<u64>::name(&stack), "2D-stack");
        assert_eq!(RelaxedOps::<u64>::relaxation_bound(&stack), Some(stack.k_bound()));
    }
}
