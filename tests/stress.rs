//! Stress tests: reclamation churn, oversubscription, drop-heavy payloads
//! and window thrashing. These run longer than the unit tests and target
//! the failure modes lock-free code actually has — use-after-free,
//! double-drop, lost updates under preemption.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use stack2d::{OpsHandle, Params, RelaxedOps, SearchConfig, SearchPolicy, Stack2D};
use stack2d_harness::{Algorithm, AnyStack, BuildSpec};

/// Heap-allocating payload whose drops are counted — a double free or leak
/// shows up as a count mismatch (or a crash under the allocator).
struct Payload {
    drops: Arc<AtomicUsize>,
    #[allow(dead_code)]
    data: Box<[u8; 64]>,
}

impl Payload {
    fn new(drops: &Arc<AtomicUsize>) -> Self {
        Payload { drops: Arc::clone(drops), data: Box::new([0xAB; 64]) }
    }
}

impl Drop for Payload {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn reclamation_churn_with_heap_payloads() {
    const THREADS: usize = 8; // oversubscribed on purpose
    const PER: usize = 10_000;
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let stack = Arc::new(Stack2D::new(Params::new(4, 2, 1).unwrap()));
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let stack = Arc::clone(&stack);
            let drops = Arc::clone(&drops);
            joins.push(std::thread::spawn(move || {
                let mut h = stack.handle_seeded(t as u64 + 1);
                for i in 0..PER {
                    h.push(Payload::new(&drops));
                    if i % 4 != 0 {
                        drop(h.pop());
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        // Remaining payloads are dropped by Stack2D::drop here.
    }
    assert_eq!(drops.load(Ordering::SeqCst), THREADS * PER, "every payload must drop exactly once");
}

#[test]
fn window_thrash_with_depth_one() {
    // depth = shift = 1 and width 2 makes every few ops a window shift:
    // the worst case for the Global CAS protocol.
    let stack = Arc::new(Stack2D::new(Params::new(2, 1, 1).unwrap()));
    let stop = Arc::new(AtomicBool::new(false));
    let pushed = Arc::new(AtomicUsize::new(0));
    let popped = Arc::new(AtomicUsize::new(0));
    let mut joins = Vec::new();
    for t in 0..6 {
        let stack = Arc::clone(&stack);
        let stop = Arc::clone(&stop);
        let pushed = Arc::clone(&pushed);
        let popped = Arc::clone(&popped);
        joins.push(std::thread::spawn(move || {
            let mut h = stack.handle_seeded(t + 1);
            while !stop.load(Ordering::Relaxed) {
                h.push(1u32);
                pushed.fetch_add(1, Ordering::Relaxed);
                if h.pop().is_some() {
                    popped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
    }
    std::thread::sleep(std::time::Duration::from_millis(300));
    stop.store(true, Ordering::Relaxed);
    for j in joins {
        j.join().unwrap();
    }
    let mut rest = 0;
    while stack.pop().is_some() {
        rest += 1;
    }
    assert_eq!(
        pushed.load(Ordering::Relaxed),
        popped.load(Ordering::Relaxed) + rest,
        "window thrash lost or duplicated items"
    );
    let m = stack.metrics();
    assert!(m.shifts_up > 0 && m.shifts_down > 0, "expected window motion: {m}");
}

#[test]
fn oversubscribed_mixed_algorithms_conserve() {
    // 3x more threads than the runner usually uses; forced preemption
    // inside critical windows is exactly what this exercises.
    for algo in Algorithm::ALL {
        let stack = Arc::new(AnyStack::build(algo, BuildSpec::high_throughput(4)));
        let total = Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for t in 0..12usize {
            let stack = Arc::clone(&stack);
            let total = Arc::clone(&total);
            joins.push(std::thread::spawn(move || {
                let mut h = stack.ops_handle();
                let mut net = 0isize;
                for i in 0..2_000 {
                    h.produce((t * 10_000 + i) as u64);
                    net += 1;
                    if i % 2 == 0 && h.consume().is_some() {
                        net -= 1;
                    }
                }
                total.fetch_add(net as usize, Ordering::SeqCst);
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let mut rest = 0usize;
        let mut h = stack.ops_handle();
        while h.consume().is_some() {
            rest += 1;
        }
        assert_eq!(rest, total.load(Ordering::SeqCst), "{algo}: residency mismatch");
    }
}

#[test]
fn random_only_policy_survives_empty_storms() {
    // The RandomOnly ablation keeps a covering sweep for emptiness; hammer
    // the empty transition to make sure it neither livelocks, loses items,
    // nor reports false empties.
    let cfg =
        SearchConfig::new(Params::new(4, 1, 1).unwrap()).search_policy(SearchPolicy::RandomOnly);
    let stack = Arc::new(Stack2D::with_config(cfg));
    let mut joins = Vec::new();
    for t in 0..4 {
        let stack = Arc::clone(&stack);
        joins.push(std::thread::spawn(move || {
            let mut h = stack.handle_seeded(t + 1);
            let mut popped = 0usize;
            for i in 0..20_000u64 {
                if i % 2 == 0 {
                    h.push(i);
                } else if h.pop().is_some() {
                    popped += 1;
                }
            }
            popped
        }));
    }
    let popped: usize = joins.into_iter().map(|j| j.join().unwrap()).sum();
    let mut rest = 0usize;
    while stack.pop().is_some() {
        rest += 1;
    }
    assert_eq!(popped + rest, 4 * 10_000);
}

#[test]
fn elimination_storm_with_tiny_collision_array() {
    // Capacity 4 => collision array of 2 cells shared by 4 threads:
    // maximum pairing pressure on the elimination protocol.
    use stack2d_baselines::EliminationStack;
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let stack = Arc::new(EliminationStack::with_capacity(4));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let stack = Arc::clone(&stack);
            let drops = Arc::clone(&drops);
            joins.push(std::thread::spawn(move || {
                let mut h = stack.ops_handle();
                for i in 0..15_000usize {
                    h.produce(Payload::new(&drops));
                    if i % 2 == 0 {
                        drop(h.consume());
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    }
    assert_eq!(drops.load(Ordering::SeqCst), 4 * 15_000);
}

#[test]
fn ksegment_boundary_storm_with_payloads() {
    use stack2d_baselines::KSegmentStack;
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let stack = Arc::new(KSegmentStack::new(2));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let stack = Arc::clone(&stack);
            let drops = Arc::clone(&drops);
            joins.push(std::thread::spawn(move || {
                let mut h = stack.ops_handle();
                for i in 0..15_000usize {
                    h.produce(Payload::new(&drops));
                    if i % 3 != 0 {
                        drop(h.consume());
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    }
    assert_eq!(drops.load(Ordering::SeqCst), 4 * 15_000);
}
