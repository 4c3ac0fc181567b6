//! Probe-sequence parity for the unified window-search engine.
//!
//! The engine refactor promised byte-for-byte behavioural parity: a seeded,
//! single-threaded workload must probe the same cells in the same order as
//! the per-structure search loops it replaced. Probe order is not directly
//! observable, but it is *fully determined* by (seed, config, workload) —
//! any reordering changes which sub-structure each operation lands on, and
//! therefore the exact pop sequence and the exact probe/shift counters. The
//! fingerprints below were captured from the pre-engine implementations
//! (PR 4) and pin that behaviour:
//!
//! * the stack across **every** config axis (all three policies, locality
//!   off, hop-on-contention off — the full ablation surface it already had);
//! * the queue and counter in their default configuration (the PR 3
//!   covering-sweep behaviour, now expressed as `RoundRobinOnly`).
//!
//! To regenerate after an *intentional* behaviour change:
//! `cargo test --test engine_parity -- --ignored --nocapture`.

use stack2d::{Counter2D, MetricsSnapshot, Params, Queue2D, SearchConfig, SearchPolicy, Stack2D};

/// FNV-1a over a value stream: collapses a pop sequence into one word
/// without ordering insensitivity (a sum would miss reorderings).
fn fnv(acc: u64, v: u64) -> u64 {
    (acc ^ v).wrapping_mul(0x100_0000_01b3)
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// (pop-sequence hash, probes, shifts_up, shifts_down, empty_pops).
type Fingerprint = (u64, u64, u64, u64, u64);

/// Seeded single-threaded churn: interleaved push/pop, then a full drain.
/// Single-threaded runs have no CAS races, so the fingerprint is exact.
fn stack_fingerprint(cfg: SearchConfig) -> Fingerprint {
    stack_run(cfg, false).0
}

fn queue_fingerprint(params: Params) -> Fingerprint {
    queue_run(params, false).0
}

fn counter_fingerprint(params: Params) -> Fingerprint {
    counter_run(params, false).0
}

fn fingerprint(acc: u64, m: &MetricsSnapshot) -> Fingerprint {
    (acc, m.probes, m.shifts_up, m.shifts_down, m.empty_pops)
}

/// The stack workload, through the singular ops or (`batched`) through
/// their batch-of-one forms `push_n(vec![v])` / `pop_n(1)`.
fn stack_run(cfg: SearchConfig, batched: bool) -> (Fingerprint, MetricsSnapshot) {
    let stack = Stack2D::with_config(cfg);
    let mut h = stack.handle_seeded(0xA5A5);
    let pop = |h: &mut stack2d::Handle2D<'_, u64>| {
        if batched {
            h.pop_n(1).pop()
        } else {
            h.pop()
        }
    };
    let mut acc = FNV_SEED;
    for i in 0..2_000u64 {
        if batched {
            h.push_n(vec![i]);
        } else {
            h.push(i);
        }
        if i % 3 == 0 {
            if let Some(v) = pop(&mut h) {
                acc = fnv(acc, v);
            }
        }
    }
    while let Some(v) = pop(&mut h) {
        acc = fnv(acc, v);
    }
    drop(h);
    let m = stack.metrics();
    (fingerprint(acc, &m), m)
}

/// The queue workload, singular or through `enqueue_n` / `dequeue_n(1)`.
fn queue_run(params: Params, batched: bool) -> (Fingerprint, MetricsSnapshot) {
    let queue = Queue2D::new(params);
    let mut h = queue.handle_seeded(0xA5A5);
    let dequeue = |h: &mut stack2d::QueueHandle<'_, u64>| {
        if batched {
            h.dequeue_n(1).pop()
        } else {
            h.dequeue()
        }
    };
    let mut acc = FNV_SEED;
    for i in 0..2_000u64 {
        if batched {
            h.enqueue_n(vec![i]);
        } else {
            h.enqueue(i);
        }
        if i % 3 == 0 {
            if let Some(v) = dequeue(&mut h) {
                acc = fnv(acc, v);
            }
        }
    }
    while let Some(v) = dequeue(&mut h) {
        acc = fnv(acc, v);
    }
    drop(h);
    let m = queue.metrics();
    (fingerprint(acc, &m), m)
}

/// The counter workload, singular or through `add_n(1)`.
fn counter_run(params: Params, batched: bool) -> (Fingerprint, MetricsSnapshot) {
    let counter = Counter2D::new(params);
    let mut h = counter.handle_seeded(0xA5A5);
    for _ in 0..2_000u64 {
        if batched {
            h.add_n(1);
        } else {
            h.increment();
        }
    }
    drop(h);
    let m = counter.metrics();
    (fingerprint(counter.value() as u64, &m), m)
}

/// Batch-of-one parity: `(fingerprint, metrics)` of a batched replay must
/// equal the singular run's, except that every batched op also counts in
/// `batched_ops`.
fn assert_batch_of_one_parity(
    case: &str,
    singular: (Fingerprint, MetricsSnapshot),
    batched: (Fingerprint, MetricsSnapshot),
    golden: Fingerprint,
) {
    assert_eq!(singular.0, golden, "{case}: singular run diverged from its golden");
    assert_eq!(batched.0, golden, "{case}: batch-of-one replay diverged from the golden");
    assert_eq!(singular.1.batched_ops, 0, "{case}: singular ops counted as batched");
    assert_eq!(batched.1.batched_ops, batched.1.ops, "{case}: every *_n op is a batched op");
    assert_eq!(
        MetricsSnapshot { batched_ops: 0, ..batched.1 },
        singular.1,
        "{case}: batch-of-one metrics differ from the singular run beyond batched_ops"
    );
}

fn p(w: usize, d: usize, s: usize) -> Params {
    Params::new(w, d, s).unwrap()
}

/// The stack configurations whose probe sequences are pinned: the default
/// plus one config per ablation axis, at two window shapes.
fn stack_cases() -> Vec<(&'static str, SearchConfig)> {
    let wide = p(8, 4, 2);
    let tight = p(4, 1, 1);
    vec![
        ("default-w8d4s2", SearchConfig::new(wide)),
        ("default-w4d1s1", SearchConfig::new(tight)),
        (
            "two-phase-3hops",
            SearchConfig::new(wide).search_policy(SearchPolicy::TwoPhase { random_hops: 3 }),
        ),
        ("rr-only", SearchConfig::new(wide).search_policy(SearchPolicy::RoundRobinOnly)),
        ("random-only", SearchConfig::new(wide).search_policy(SearchPolicy::RandomOnly)),
        ("no-locality", SearchConfig::new(wide).locality(false)),
        ("no-hop", SearchConfig::new(wide).hop_on_contention(false)),
        (
            "no-everything",
            SearchConfig::new(tight)
                .search_policy(SearchPolicy::RandomOnly)
                .locality(false)
                .hop_on_contention(false),
        ),
    ]
}

/// Golden fingerprints captured from the pre-engine (PR 4) stack search.
const STACK_GOLDEN: [(&str, Fingerprint); 8] = [
    ("default-w8d4s2", (8592145364936136807, 8256, 82, 82, 1)),
    ("default-w4d1s1", (2250523617872151793, 11605, 333, 333, 1)),
    ("two-phase-3hops", (10085130683362712523, 8862, 82, 82, 1)),
    ("rr-only", (10235385256761763195, 6477, 82, 82, 1)),
    ("random-only", (5194490047360178911, 11835, 82, 82, 1)),
    ("no-locality", (9557694425718465669, 8753, 82, 82, 1)),
    ("no-hop", (8592145364936136807, 8256, 82, 82, 1)),
    ("no-everything", (17171780706348486275, 16209, 333, 333, 1)),
];

/// Golden fingerprints captured from the PR 3/PR 4 queue covering sweep.
/// (The hash is identical at both window shapes because a single-threaded
/// relaxed queue still dequeues in insertion order; the probe and shift
/// counters are the discriminating part.)
const QUEUE_GOLDEN: [Fingerprint; 2] =
    [(7771951924129503285, 10982, 498, 498, 1), (7771951924129503285, 7712, 123, 123, 1)];

/// Golden fingerprints captured from the PR 3/PR 4 counter covering sweep.
const COUNTER_GOLDEN: [Fingerprint; 2] = [(2000, 5489, 498, 0, 0), (2000, 3852, 123, 0, 0)];

#[test]
fn stack_probe_sequences_match_pre_engine_goldens() {
    for (name, cfg) in stack_cases() {
        let got = stack_fingerprint(cfg);
        let (_, want) = STACK_GOLDEN.iter().find(|(n, _)| *n == name).expect("golden entry");
        assert_eq!(&got, want, "stack config {name}: probe sequence diverged from PR 4");
    }
}

#[test]
fn queue_probe_sequences_match_pre_engine_goldens() {
    for (params, want) in [p(4, 2, 1), p(8, 4, 2)].into_iter().zip(QUEUE_GOLDEN) {
        let got = queue_fingerprint(params);
        assert_eq!(got, want, "queue {params:?}: probe sequence diverged from PR 3/4 sweep");
    }
}

#[test]
fn counter_probe_sequences_match_pre_engine_goldens() {
    for (params, want) in [p(4, 2, 1), p(8, 4, 2)].into_iter().zip(COUNTER_GOLDEN) {
        let got = counter_fingerprint(params);
        assert_eq!(got, want, "counter {params:?}: probe sequence diverged from PR 3/4 sweep");
    }
}

/// Every golden case, replayed through the batch-of-one forms of the ops
/// (`push_n(vec![v])`/`pop_n(1)`, `enqueue_n`/`dequeue_n(1)`, `add_n(1)`):
/// a batch of one must search exactly like the singular op.
#[test]
fn batch_of_one_matches_singular_goldens() {
    for (name, cfg) in stack_cases() {
        let (_, want) = STACK_GOLDEN.iter().find(|(n, _)| *n == name).expect("golden entry");
        let case = format!("stack {name}");
        assert_batch_of_one_parity(&case, stack_run(cfg, false), stack_run(cfg, true), *want);
    }
    for (params, want) in [p(4, 2, 1), p(8, 4, 2)].into_iter().zip(QUEUE_GOLDEN) {
        let case = format!("queue {params:?}");
        assert_batch_of_one_parity(&case, queue_run(params, false), queue_run(params, true), want);
    }
    for (params, want) in [p(4, 2, 1), p(8, 4, 2)].into_iter().zip(COUNTER_GOLDEN) {
        let case = format!("counter {params:?}");
        let (singular, batched) = (counter_run(params, false), counter_run(params, true));
        assert_batch_of_one_parity(&case, singular, batched, want);
    }
}

/// The full ablation grid: every policy × locality × hop-on-contention
/// combination, now reachable on every structure through the builder.
fn ablation_grid() -> Vec<(SearchPolicy, bool, bool)> {
    let mut grid = Vec::new();
    for policy in [
        SearchPolicy::TwoPhase { random_hops: 1 },
        SearchPolicy::RoundRobinOnly,
        SearchPolicy::RandomOnly,
    ] {
        for locality in [true, false] {
            for hop in [true, false] {
                grid.push((policy, locality, hop));
            }
        }
    }
    grid
}

/// Every ablation combination is functional on the queue: nothing lost or
/// duplicated under concurrent churn, and the knobs land in the config.
#[test]
fn ablation_matrix_on_queue2d() {
    use std::collections::HashSet;
    use std::sync::Arc;
    for (policy, locality, hop) in ablation_grid() {
        let q = Arc::new(
            Queue2D::<u64>::builder()
                .width(4)
                .depth(2)
                .search_policy(policy)
                .locality(locality)
                .hop_on_contention(hop)
                .seed(7)
                .build()
                .unwrap(),
        );
        assert_eq!(q.config().policy(), policy);
        assert_eq!(q.config().uses_locality(), locality);
        assert_eq!(q.config().hops_on_contention(), hop);
        const THREADS: usize = 2;
        const PER: usize = 1_500;
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let q = Arc::clone(&q);
            joins.push(std::thread::spawn(move || {
                let mut h = q.handle_seeded(t as u64 + 1);
                let mut got = Vec::new();
                for i in 0..PER {
                    h.enqueue((t * PER + i) as u64);
                    if i % 3 == 0 {
                        if let Some(v) = h.dequeue() {
                            got.push(v);
                        }
                    }
                }
                got
            }));
        }
        let mut all: HashSet<u64> = HashSet::new();
        for j in joins {
            for v in j.join().unwrap() {
                assert!(all.insert(v), "{policy:?}/{locality}/{hop}: duplicate {v}");
            }
        }
        let mut h = q.handle_seeded(99);
        while let Some(v) = h.dequeue() {
            assert!(all.insert(v), "{policy:?}/{locality}/{hop}: duplicate {v}");
        }
        assert_eq!(
            all.len(),
            THREADS * PER,
            "{policy:?} locality={locality} hop={hop}: items lost"
        );
    }
}

/// Every ablation combination is functional on the counter: the value is
/// exact after concurrent increments.
#[test]
fn ablation_matrix_on_counter2d() {
    use std::sync::Arc;
    for (policy, locality, hop) in ablation_grid() {
        let c = Arc::new(
            Counter2D::builder()
                .width(4)
                .depth(2)
                .search_policy(policy)
                .locality(locality)
                .hop_on_contention(hop)
                .seed(7)
                .build()
                .unwrap(),
        );
        assert_eq!(c.config().policy(), policy);
        const THREADS: usize = 2;
        const PER: usize = 4_000;
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let c = Arc::clone(&c);
            joins.push(std::thread::spawn(move || {
                let mut h = c.handle_seeded(t as u64 + 1);
                for _ in 0..PER {
                    h.increment();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(
            c.value(),
            THREADS * PER,
            "{policy:?} locality={locality} hop={hop}: increments lost or duplicated"
        );
    }
}

/// Builder defaults preserve each structure's historical search policy —
/// the acceptance criterion behind the golden fingerprints above.
#[test]
fn builder_defaults_match_structure_history() {
    let s: Stack2D<u8> = Stack2D::builder().build().unwrap();
    assert_eq!(s.config().policy(), SearchPolicy::TwoPhase { random_hops: 1 });
    let q: Queue2D<u8> = Queue2D::builder().build().unwrap();
    assert_eq!(q.config().policy(), SearchPolicy::RoundRobinOnly);
    let c = Counter2D::builder().build().unwrap();
    assert_eq!(c.config().policy(), SearchPolicy::RoundRobinOnly);
    // `new(params)` agrees with the builder defaults.
    let q = Queue2D::<u8>::new(p(4, 1, 1));
    assert_eq!(q.config().policy(), SearchPolicy::RoundRobinOnly);
    assert!(q.config().uses_locality());
    assert!(q.config().hops_on_contention());
}

/// The paper's two-phase policy runs on the extension structures (the
/// point of the unified engine): a seeded two-phase queue behaves
/// deterministically and conserves items.
#[test]
fn two_phase_policy_runs_on_the_queue() {
    let mk = || {
        Queue2D::<u64>::builder()
            .width(8)
            .depth(4)
            .shift(2)
            .search_policy(SearchPolicy::TwoPhase { random_hops: 2 })
            .seed(11)
            .build()
            .unwrap()
    };
    let (a, b) = (mk(), mk());
    let (mut ha, mut hb) = (a.handle(), b.handle());
    for i in 0..1_000 {
        ha.enqueue(i);
        hb.enqueue(i);
    }
    for _ in 0..1_000 {
        assert_eq!(ha.dequeue(), hb.dequeue(), "seeded two-phase queues must agree");
    }
    // Two-phase probes more than the plain sweep (random hops precede the
    // covering sweep), which is visible in the metrics.
    assert!(a.metrics().probes >= 2_000);
}

/// Regenerates the golden tables (run with `-- --ignored --nocapture`).
#[test]
#[ignore = "golden generator, not a check"]
fn print_goldens() {
    println!("const STACK_GOLDEN: [(&str, Fingerprint); 8] = [");
    for (name, cfg) in stack_cases() {
        println!("    ({name:?}, {:?}),", stack_fingerprint(cfg));
    }
    println!("];");
    println!("const QUEUE_GOLDEN: [Fingerprint; 2] = [");
    for params in [p(4, 2, 1), p(8, 4, 2)] {
        println!("    {:?},", queue_fingerprint(params));
    }
    println!("];");
    println!("const COUNTER_GOLDEN: [Fingerprint; 2] = [");
    for params in [p(4, 2, 1), p(8, 4, 2)] {
        println!("    {:?},", counter_fingerprint(params));
    }
    println!("];");
}
