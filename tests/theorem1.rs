//! Property-based verification of Theorem 1:
//! `k = (2*shift + depth) * (width - 1)`.
//!
//! Strategy: drive a `Stack2D` with arbitrary single-threaded workloads
//! under arbitrary window parameters, record the full operation trace, and
//! replay it through the offline k-out-of-order checker. Single-threaded
//! runs are exactly where the deterministic bound must hold with no slack;
//! concurrent relaxation on top of it is measured (not asserted) by the
//! quality harness, as in the paper.

use proptest::prelude::*;

use stack2d::{Params, SearchConfig, SearchPolicy, Stack2D};
use stack2d_quality::{check_k_out_of_order, TraceOp};

/// Runs `ops` alternating per `plan` on a fresh stack, returning the trace.
fn record_trace(config: SearchConfig, plan: &[bool], seed: u64) -> Vec<TraceOp> {
    let stack: Stack2D<u64> = Stack2D::with_config(config);
    let mut h = stack.handle_seeded(seed);
    let mut next_label = 0u64;
    let mut trace = Vec::with_capacity(plan.len());
    for &is_push in plan {
        if is_push {
            h.push(next_label);
            trace.push(TraceOp::Push(next_label));
            next_label += 1;
        } else {
            match h.pop() {
                Some(l) => trace.push(TraceOp::Pop(l)),
                None => trace.push(TraceOp::PopEmpty),
            }
        }
    }
    trace
}

fn params_strategy() -> impl Strategy<Value = Params> {
    (1usize..10, 1usize..8).prop_flat_map(|(width, depth)| {
        (Just(width), Just(depth), 1usize..=depth)
            .prop_map(|(w, d, s)| Params::new(w, d, s).expect("valid params"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn theorem1_bound_holds_on_random_traces(
        params in params_strategy(),
        plan in proptest::collection::vec(any::<bool>(), 1..600),
        seed in any::<u64>(),
    ) {
        let k = params.k_bound();
        let trace = record_trace(SearchConfig::new(params), &plan, seed);
        let report = check_k_out_of_order(&trace, k)
            .unwrap_or_else(|v| panic!("Theorem 1 violated for {params}: {v}"));
        prop_assert!(report.max_distance as usize <= k);
    }

    #[test]
    fn theorem1_holds_for_round_robin_search(
        params in params_strategy(),
        plan in proptest::collection::vec(any::<bool>(), 1..400),
        seed in any::<u64>(),
    ) {
        let k = params.k_bound();
        let config = SearchConfig::new(params).search_policy(SearchPolicy::RoundRobinOnly);
        let trace = record_trace(config, &plan, seed);
        check_k_out_of_order(&trace, k)
            .unwrap_or_else(|v| panic!("violated for {params} (rr search): {v}"));
    }

    #[test]
    fn theorem1_holds_without_locality_or_hops(
        params in params_strategy(),
        plan in proptest::collection::vec(any::<bool>(), 1..400),
        seed in any::<u64>(),
    ) {
        let k = params.k_bound();
        let config = SearchConfig::new(params).locality(false).hop_on_contention(false);
        let trace = record_trace(config, &plan, seed);
        check_k_out_of_order(&trace, k)
            .unwrap_or_else(|v| panic!("violated for {params} (no locality): {v}"));
    }

    #[test]
    fn width_one_is_sequentially_strict(
        depth in 1usize..8,
        plan in proptest::collection::vec(any::<bool>(), 1..400),
        seed in any::<u64>(),
    ) {
        let params = Params::new(1, depth, depth).expect("valid");
        let trace = record_trace(SearchConfig::new(params), &plan, seed);
        // k = 0: every pop must return the strict top.
        check_k_out_of_order(&trace, 0)
            .unwrap_or_else(|v| panic!("width-1 stack not strict: {v}"));
    }

    #[test]
    fn ksegment_bound_holds_on_random_traces(
        k_slots in 1usize..16,
        plan in proptest::collection::vec(any::<bool>(), 1..400),
    ) {
        use stack2d::{OpsHandle, RelaxedOps};
        let stack: stack2d_baselines::KSegmentStack<u64> =
            stack2d_baselines::KSegmentStack::new(k_slots);
        let mut h = stack.ops_handle();
        let mut next_label = 0u64;
        let mut trace = Vec::new();
        for &is_push in &plan {
            if is_push {
                h.produce(next_label);
                trace.push(TraceOp::Push(next_label));
                next_label += 1;
            } else {
                match h.consume() {
                    Some(l) => trace.push(TraceOp::Pop(l)),
                    None => trace.push(TraceOp::PopEmpty),
                }
            }
        }
        check_k_out_of_order(&trace, k_slots - 1)
            .unwrap_or_else(|v| panic!("k-segment(k={k_slots}) violated its bound: {v}"));
    }
}

#[test]
fn theorem1_worst_case_is_reachable_in_principle() {
    // Not a tightness proof — just evidence the checker isn't vacuous: with
    // width 4 and deep windows we should observe *some* non-zero error.
    let params = Params::new(4, 4, 4).unwrap();
    let plan: Vec<bool> = (0..2_000).map(|i| i < 1_000).collect(); // 1000 pushes then pops
    let trace = record_trace(SearchConfig::new(params), &plan, 42);
    let report = check_k_out_of_order(&trace, params.k_bound()).unwrap();
    assert!(report.max_distance > 0, "a width-4 relaxed stack should show some out-of-order pops");
}
