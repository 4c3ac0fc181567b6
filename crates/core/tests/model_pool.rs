//! Bounded model: the ABA argument of the sub-stack's top-pointer CAS,
//! and node-pool recycling vs concurrent epoch retirement (DESIGN.md §3,
//! §14).
//!
//! A sub-stack is one atomic top pointer; each node carries the item
//! count below it, so the CAS compares only the pointer. That is sound
//! only if a node's address cannot come back as the top while a
//! concurrent operation still holds a view of it — the ABA case, where a
//! stale pop would install a `next` (and a push a `count`) read from a
//! different incarnation. The node pool makes that reuse real: a popped
//! node's storage goes to a thread-local freelist and the very next push
//! on that thread draws it out again. What forbids it is single-node
//! retirement: a pop retires only its node, through the epoch collector
//! (`defer_destroy_with`), so the block reaches a freelist only after
//! every guard that could have seen it is gone. Both racing threads here
//! pop and then push, and under `--cfg model` the collector threshold
//! drops to 4 so recycling actually fires inside these tiny runs. A
//! premature recycle surfaces as a duplicated, invented, or lost value in
//! the conservation check; loomlite's SeqCst interleaving exploration
//! drives the epoch protocol through the overlap schedules a stress test
//! may never hit.
//!
//! Run with `RUSTFLAGS="--cfg model" cargo test -p stack2d --test 'model_*'`.
#![cfg(model)]

use loomlite::{check, Config};
use stack2d::substack::SubStack;
use stack2d::sync::{thread, Arc};
use stack2d::{Params, Stack2D};

#[test]
fn pooled_retirement_never_recycles_reachable_nodes() {
    let report = check(Config { max_schedules: 4_000, ..Config::default() }, || {
        // Width 1: both poppers contend on one sub-stack's top pointer,
        // maximising overlap between a winning pop's retirement and the
        // loser's retry against the same (now retired) snapshot.
        let stack: Arc<Stack2D<u64>> = Arc::new(
            Stack2D::builder().params(Params::new(1, 2, 1).unwrap()).seed(7).build().unwrap(),
        );
        {
            let mut h = stack.handle_seeded(1);
            h.push(10);
            h.push(20);
            h.push(30);
        }
        let poppers: Vec<_> = (0..2)
            .map(|t| {
                let s = Arc::clone(&stack);
                thread::spawn(move || {
                    let mut h = s.handle_seeded(t + 2);
                    // Pop then push: the push reallocates from the
                    // freelist the pop's retirement may just have fed,
                    // which is exactly the reuse-too-early hazard.
                    let got = h.pop();
                    if let Some(v) = got {
                        h.push(v + 100);
                    }
                    got
                })
            })
            .collect();
        let popped: Vec<u64> = poppers.into_iter().filter_map(|p| p.join().unwrap()).collect();
        // Every popped value was re-pushed relabeled (+100, possibly
        // twice if one popper draws the other's re-push), so identity
        // mod 100 is conserved: the final drain must recover exactly the
        // original multiset, and every observed value must descend from
        // the population. A stale recycle shows up as an invented, lost,
        // or duplicated value.
        let mut drained = Vec::new();
        let mut h = stack.handle_seeded(9);
        while let Some(v) = h.pop() {
            drained.push(v % 100);
        }
        drop(h);
        drained.sort_unstable();
        assert_eq!(drained, vec![10, 20, 30], "conservation broken; popped = {popped:?}");
        for v in &popped {
            assert!([10, 20, 30].contains(&(v % 100)), "popper got invented value {v}");
        }
    })
    .expect("no schedule may lose, invent, or duplicate a pooled node");
    assert!(
        report.schedules >= 200,
        "expected a substantive exploration, got {} schedules",
        report.schedules
    );
    eprintln!(
        "model_pool: {} schedules (max depth {}, truncated: {})",
        report.schedules, report.max_depth, report.truncated
    );
}

#[test]
fn a_stale_top_is_never_reinstalled() {
    let report = check(Config { max_schedules: 4_000, ..Config::default() }, || {
        // `subs[0]` holds 30 → 20 → 10. The popper views top 30 and reads
        // its `next` (20); meanwhile the mover pops 30 and 20, then pushes
        // 120 to `subs[1]` and 130 back to `subs[0]`. Recycled without a
        // grace period, 20's block would carry 120 in `subs[1]` and 30's
        // block would be `subs[0]`'s top again, so the popper's stale CAS
        // would succeed and link 120 into both sub-stacks, losing 10.
        let subs: Arc<[SubStack<u64>; 2]> = Arc::new([SubStack::new(), SubStack::new()]);
        for v in [10, 20, 30] {
            subs[0].push(v);
        }
        let popper = {
            let subs = Arc::clone(&subs);
            thread::spawn(move || subs[0].pop())
        };
        let mover = {
            let subs = Arc::clone(&subs);
            thread::spawn(move || {
                let a = subs[0].pop();
                let b = subs[0].pop();
                // Give the collector its chance to recycle both nodes into
                // this thread's pool before the pushes allocate.
                for _ in 0..3 {
                    crossbeam_epoch::pin().flush();
                }
                if let Some(b) = b {
                    subs[1].push(b + 100);
                }
                if let Some(a) = a {
                    subs[0].push(a + 100);
                }
            })
        };
        let mut seen: Vec<u64> = popper.join().unwrap().into_iter().collect();
        mover.join().unwrap();
        for sub in subs.iter() {
            while let Some(v) = sub.pop() {
                seen.push(v);
            }
        }
        let mut ids: Vec<u64> = seen.iter().map(|v| v % 100).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![10, 20, 30], "conservation broken; seen = {seen:?}");
    })
    .expect("no schedule may apply a pop against a recycled top");
    assert!(
        report.schedules >= 200,
        "expected a substantive exploration, got {} schedules",
        report.schedules
    );
    eprintln!(
        "model_pool aba: {} schedules (max depth {}, truncated: {})",
        report.schedules, report.max_depth, report.truncated
    );
}
