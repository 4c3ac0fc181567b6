//! The k-segment stack — the k-out-of-order relaxed baseline of Figures 1
//! and 2, after Henzinger, Kirsch, Payer, Sezgin, Sokolova, *Quantitative
//! relaxation of concurrent data structures* (POPL 2013).
//!
//! The stack is a linked list of **segments** of `k` slots; all operations
//! go through the topmost segment. A push CASes its item into any empty
//! slot of the top segment, appending a fresh segment when it is full; a pop
//! CASes an item out of any occupied slot, unlinking the segment when it is
//! empty (unless it is the last one). Any of the top `k` items can thus be
//! returned, giving k-out-of-order semantics with bound `k - 1` per segment
//! boundary — the implementation reports `k` as its bound, matching how the
//! paper parameterizes it.
//!
//! Segment removal uses a *sticky* deleted-flag protocol: a remover that
//! finds the top segment empty (with a successor) marks it deleted —
//! permanently — rescans, and unlinks if still empty. Pushes never commit
//! into a flagged segment: one that raced a flagging takes its item back
//! (if the take-back fails, a pop already got the item and the push
//! stands), and pushes that find a flagged top bury it under a fresh
//! segment instead; pops keep draining flagged segments until they can be
//! unlinked. Stickiness is what makes racing removers safe: a transient
//! flag (set, rescan, clear on finding an item) would let one remover's
//! clear overlap another remover's unlink window, un-protecting a
//! concurrent push commit — an item-loss race the stress tests caught in
//! an earlier revision.

use core::fmt;
use core::mem::ManuallyDrop;
use core::ptr;
use stack2d::sync::atomic::{AtomicBool, Ordering};

use crossbeam_epoch::{self as epoch, Atomic, Guard, Owned, Shared};

use stack2d::rng::HopRng;
use stack2d::{OpsHandle, RelaxedOps};

struct Item<T> {
    value: ManuallyDrop<T>,
}

struct Segment<T> {
    slots: Box<[Atomic<Item<T>>]>,
    /// Next segment toward the bottom of the stack; immutable after
    /// creation.
    next: Atomic<Segment<T>>,
    /// Set while a remover is trying to unlink this segment.
    deleted: AtomicBool,
}

impl<T> Segment<T> {
    fn new(k: usize, next: Shared<'_, Segment<T>>) -> Owned<Segment<T>> {
        Owned::new(Segment {
            slots: (0..k).map(|_| Atomic::null()).collect(),
            next: Atomic::from(next.as_raw()),
            deleted: AtomicBool::new(false),
        })
    }
}

/// The k-out-of-order segmented stack.
///
/// # Examples
///
/// ```
/// use stack2d_baselines::KSegmentStack;
///
/// let s = KSegmentStack::new(4);
/// for i in 0..10 {
///     s.push(i);
/// }
/// let mut got: Vec<i32> = std::iter::from_fn(|| s.pop()).collect();
/// got.sort();
/// assert_eq!(got, (0..10).collect::<Vec<_>>());
/// ```
pub struct KSegmentStack<T> {
    top: Atomic<Segment<T>>,
    k: usize,
}

// SAFETY: segments and items are owned by the stack and values only cross
// threads by moving out, so `T: Send` is the full requirement (the raw
// pointers inside segments are what suppress the auto-impl).
unsafe impl<T: Send> Send for KSegmentStack<T> {}
// SAFETY: as above — shared access is mediated by slot/top CASes.
unsafe impl<T: Send> Sync for KSegmentStack<T> {}

impl<T> KSegmentStack<T> {
    /// Creates a stack whose segments hold `k` slots.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "segment size k must be positive");
        // SAFETY: construction is single-threaded — nothing else can touch
        // the stack yet, satisfying the unprotected guard's exclusivity.
        let guard = unsafe { epoch::unprotected() };
        let first = Segment::new(k, Shared::null()).into_shared(guard);
        KSegmentStack { top: Atomic::from(first.as_raw()), k }
    }

    /// The segment width `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Whether the stack is empty at this instant (scans the top segment
    /// chain).
    pub fn is_empty(&self) -> bool {
        let guard = epoch::pin();
        let mut seg = self.top.load(Ordering::Acquire, &guard);
        // SAFETY: the epoch guard keeps every reachable segment alive while
        // we walk the chain.
        while let Some(s) = unsafe { seg.as_ref() } {
            if s.slots.iter().any(|slot| !slot.load(Ordering::Acquire, &guard).is_null()) {
                return false;
            }
            seg = s.next.load(Ordering::Acquire, &guard);
        }
        true
    }

    /// Pushes through a temporary handle.
    pub fn push(&self, value: T)
    where
        T: Send,
    {
        self.ops_handle().produce(value);
    }

    /// Pops through a temporary handle.
    pub fn pop(&self) -> Option<T>
    where
        T: Send,
    {
        self.ops_handle().consume()
    }

    /// Scans `seg` for an occupied slot starting at `start`; attempts to
    /// take the item. Returns `Ok(Some)` on success, `Ok(None)` if the whole
    /// segment was empty, `Err(())` on a lost race.
    ///
    /// Slot operations are `SeqCst`: the push-commit/flag-check and
    /// flag-set/rescan pairs form a store-buffering pattern, and at least
    /// one side must observe the other for segment removal to be safe.
    fn try_pop_from(&self, seg: &Segment<T>, start: usize, guard: &Guard) -> Result<Option<T>, ()> {
        let k = self.k;
        let mut saw_item = false;
        for off in 0..k {
            let i = (start + off) % k;
            let item = seg.slots[i].load(Ordering::SeqCst, guard);
            if item.is_null() {
                continue;
            }
            saw_item = true;
            if seg.slots[i]
                .compare_exchange(item, Shared::null(), Ordering::SeqCst, Ordering::SeqCst, guard)
                .is_ok()
            {
                // SAFETY: winning the slot CAS grants the unique right to
                // consume the item (alive under `guard`); `value` is
                // `ManuallyDrop`, so the deferred deallocation won't
                // double-drop it.
                let value = unsafe { ptr::read(&*item.deref().value) };
                // SAFETY: our CAS emptied the slot; only the winner retires
                // the item, exactly once.
                unsafe { guard.defer_destroy(item) };
                return Ok(Some(value));
            }
        }
        if saw_item {
            Err(())
        } else {
            Ok(None)
        }
    }

    /// Whether every slot of `seg` is observed empty in one sweep.
    fn scan_is_empty(&self, seg: &Segment<T>, guard: &Guard) -> bool {
        seg.slots.iter().all(|s| s.load(Ordering::SeqCst, guard).is_null())
    }
}

impl<T> fmt::Debug for KSegmentStack<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KSegmentStack").field("k", &self.k).finish()
    }
}

impl<T> Drop for KSegmentStack<T> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` guarantees exclusive access, satisfying the
        // unprotected guard's contract; occupied slots hold initialized
        // values exactly once, freed here along with their segments.
        unsafe {
            let guard = epoch::unprotected();
            let mut seg = self.top.load(Ordering::Relaxed, guard);
            while !seg.is_null() {
                let owned = seg.into_owned();
                let boxed = owned.into_box();
                for slot in boxed.slots.iter() {
                    let item = slot.load(Ordering::Relaxed, guard);
                    if !item.is_null() {
                        let mut it = item.into_owned().into_box();
                        ManuallyDrop::drop(&mut it.value);
                    }
                }
                seg = boxed.next.load(Ordering::Relaxed, guard);
            }
        }
    }
}

/// Per-thread handle to a [`KSegmentStack`] (carries the slot-scan RNG).
pub struct KSegmentHandle<'s, T> {
    stack: &'s KSegmentStack<T>,
    rng: HopRng,
}

impl<T> fmt::Debug for KSegmentHandle<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KSegmentHandle").finish_non_exhaustive()
    }
}

impl<T: Send> OpsHandle<T> for KSegmentHandle<'_, T> {
    fn produce(&mut self, value: T) {
        let stack = self.stack;
        let k = stack.k;
        let guard = epoch::pin();
        let mut item = Owned::new(Item { value: ManuallyDrop::new(value) });
        'retry: loop {
            let top = stack.top.load(Ordering::Acquire, &guard);
            // SAFETY: top is never null (construction installs a segment and
            // unlinking requires a non-null successor); alive under `guard`.
            let seg = unsafe { top.deref() };
            if seg.deleted.load(Ordering::Acquire) {
                // Flagged segments never take new items (the flag is
                // sticky). Help unlink if it drained, otherwise bury it
                // under a fresh segment.
                let next = seg.next.load(Ordering::Acquire, &guard);
                if !next.is_null() && stack.scan_is_empty(seg, &guard) {
                    if stack
                        .top
                        .compare_exchange(top, next, Ordering::AcqRel, Ordering::Acquire, &guard)
                        .is_ok()
                    {
                        // SAFETY: our CAS unlinked the drained segment; only
                        // the winner retires it, exactly once.
                        unsafe { guard.defer_destroy(top) };
                    }
                } else {
                    let fresh = Segment::new(k, top);
                    let _ = stack.top.compare_exchange(
                        top,
                        fresh,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                        &guard,
                    );
                }
                continue;
            }
            let start = self.rng.bounded(k);
            for off in 0..k {
                let i = (start + off) % k;
                let slot = &seg.slots[i];
                if slot.load(Ordering::SeqCst, &guard).is_null() {
                    let shared = item.into_shared(&guard);
                    match slot.compare_exchange(
                        Shared::null(),
                        shared,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                        &guard,
                    ) {
                        Ok(_) => {
                            // Committed — but a remover may have flagged the
                            // segment in between. Take the item back if so.
                            if seg.deleted.load(Ordering::SeqCst)
                                && slot
                                    .compare_exchange(
                                        shared,
                                        Shared::null(),
                                        Ordering::SeqCst,
                                        Ordering::SeqCst,
                                        &guard,
                                    )
                                    .is_ok()
                            {
                                // SAFETY: the take-back CAS emptied the
                                // slot, so we own the item exclusively
                                // again.
                                item = unsafe { shared.into_owned() };
                                continue 'retry;
                            }
                            // Either no removal raced us, or a pop already
                            // took the item: the push stands.
                            return;
                        }
                        Err(e) => {
                            // SAFETY: the failed CAS never published the
                            // item, so we still own it exclusively.
                            item = unsafe { e.new.into_owned() };
                        }
                    }
                }
            }
            // Top segment full: append a fresh one.
            let fresh = Segment::new(k, top);
            let _ =
                stack.top.compare_exchange(top, fresh, Ordering::AcqRel, Ordering::Acquire, &guard);
            // Whether we or a racer installed it, retry on the new top.
        }
    }

    fn consume(&mut self) -> Option<T> {
        let stack = self.stack;
        let guard = epoch::pin();
        loop {
            let top = stack.top.load(Ordering::Acquire, &guard);
            // SAFETY: top is never null (see push); alive under `guard`.
            let seg = unsafe { top.deref() };
            let start = self.rng.bounded(stack.k);
            match stack.try_pop_from(seg, start, &guard) {
                Ok(Some(v)) => return Some(v),
                Err(()) => continue, // lost a slot race; rescan
                Ok(None) => {}
            }
            // Top segment scanned empty.
            let next = seg.next.load(Ordering::Acquire, &guard);
            if next.is_null() {
                // Last segment: the stack is empty.
                return None;
            }
            // Flag the segment — permanently (see the module docs for why
            // the flag must be sticky) — then rescan and unlink if still
            // empty. Items that slipped in before the flag are popped as
            // usual; their segment just never takes pushes again and will
            // be unlinked once it drains.
            seg.deleted.store(true, Ordering::SeqCst);
            match stack.try_pop_from(seg, 0, &guard) {
                Ok(Some(v)) => return Some(v),
                Err(()) => continue,
                Ok(None) => {}
            }
            if stack
                .top
                .compare_exchange(top, next, Ordering::AcqRel, Ordering::Acquire, &guard)
                .is_ok()
            {
                // SAFETY: our CAS unlinked the flagged, drained segment;
                // only the winner retires it, exactly once.
                unsafe { guard.defer_destroy(top) };
            }
        }
    }
}

impl<T: Send> RelaxedOps<T> for KSegmentStack<T> {
    type Handle<'a>
        = KSegmentHandle<'a, T>
    where
        T: 'a;

    fn ops_handle(&self) -> Self::Handle<'_> {
        KSegmentHandle { stack: self, rng: HopRng::from_thread() }
    }

    fn ops_handle_seeded(&self, seed: u64) -> Self::Handle<'_> {
        KSegmentHandle { stack: self, rng: HopRng::seeded(seed) }
    }

    fn name(&self) -> &'static str {
        "k-segment"
    }

    /// A pop returns one of the (at most) `k` items of the top segment, so
    /// it can be at most `k - 1` positions out of order; `k = 1` is strict.
    fn relaxation_bound(&self) -> Option<usize> {
        Some(self.k - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stack2d::sync::Arc;
    use std::collections::HashSet;

    #[test]
    fn k_one_is_strict_lifo() {
        let s = KSegmentStack::new(1);
        let mut h = s.ops_handle();
        for i in 0..200 {
            h.produce(i);
        }
        for i in (0..200).rev() {
            assert_eq!(h.consume(), Some(i), "k=1 must be strict LIFO");
        }
        assert_eq!(h.consume(), None);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = KSegmentStack::<u8>::new(0);
    }

    #[test]
    fn all_items_recovered() {
        let s = KSegmentStack::new(8);
        let mut h = s.ops_handle();
        for i in 0..1_000 {
            h.produce(i);
        }
        let mut seen = HashSet::new();
        while let Some(v) = h.consume() {
            assert!(seen.insert(v));
        }
        assert_eq!(seen.len(), 1_000);
        assert!(s.is_empty());
    }

    #[test]
    fn segments_appear_and_disappear() {
        let s = KSegmentStack::new(2);
        let mut h = s.ops_handle();
        // 10 items over k=2 forces several segment appends...
        for i in 0..10 {
            h.produce(i);
        }
        // ...and draining forces removals, back to a single empty segment.
        while h.consume().is_some() {}
        assert!(s.is_empty());
        assert_eq!(h.consume(), None);
    }

    #[test]
    fn pop_is_within_k_of_top_single_thread() {
        // Single-threaded k-out-of-order check: popping position error is
        // bounded by k (items in the top segment are unordered).
        let k = 4;
        let s = KSegmentStack::new(k);
        let mut h = s.ops_handle();
        let n: usize = 400;
        for i in 0..n {
            h.produce(i);
        }
        // Strict stack order would be n-1, n-2, ...; the segmented stack may
        // permute within a window of k.
        let mut expected_top = n - 1;
        while let Some(v) = h.consume() {
            let err = expected_top.abs_diff(v);
            assert!(err <= k, "pop {v} is {err} > k={k} from strict top {expected_top}");
            expected_top = expected_top.saturating_sub(1);
        }
    }

    #[test]
    fn concurrent_no_loss_no_duplication() {
        const THREADS: usize = 4;
        const PER: usize = 4_000;
        let s = Arc::new(KSegmentStack::new(16));
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let s = Arc::clone(&s);
            joins.push(stack2d::sync::thread::spawn(move || {
                let mut h = s.ops_handle();
                let mut got = Vec::new();
                for i in 0..PER {
                    h.produce((t * PER + i) as u64);
                    if i % 2 == 1 {
                        if let Some(v) = h.consume() {
                            got.push(v);
                        }
                    }
                }
                got
            }));
        }
        let mut all: Vec<u64> = Vec::new();
        for j in joins {
            all.extend(j.join().unwrap());
        }
        let mut h = s.ops_handle();
        while let Some(v) = h.consume() {
            all.push(v);
        }
        all.sort_unstable();
        assert_eq!(all, (0..(THREADS * PER) as u64).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_drain_storm_over_segment_boundaries() {
        // Small k maximizes segment append/unlink churn.
        let s = Arc::new(KSegmentStack::new(2));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&s);
            joins.push(stack2d::sync::thread::spawn(move || {
                let mut h = s.ops_handle();
                let mut balance: i64 = 0;
                for i in 0..10_000u64 {
                    h.produce(i);
                    balance += 1;
                    if h.consume().is_some() {
                        balance -= 1;
                    }
                }
                balance
            }));
        }
        let pushed_minus_popped: i64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
        let mut h = s.ops_handle();
        let mut rest = 0i64;
        while h.consume().is_some() {
            rest += 1;
        }
        assert_eq!(rest, pushed_minus_popped);
    }

    #[test]
    fn drop_releases_resident_items() {
        use stack2d::sync::atomic::AtomicUsize as AU;
        struct Canary(Arc<AU>);
        impl Drop for Canary {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AU::new(0));
        {
            let s = KSegmentStack::new(3);
            let mut h = s.ops_handle();
            for _ in 0..20 {
                h.produce(Canary(drops.clone()));
            }
            drop(h.consume());
        }
        assert_eq!(drops.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn trait_metadata() {
        let s: KSegmentStack<u8> = KSegmentStack::new(7);
        assert_eq!(RelaxedOps::<u8>::name(&s), "k-segment");
        assert_eq!(RelaxedOps::<u8>::relaxation_bound(&s), Some(6));
        assert_eq!(s.k(), 7);
    }
}
