//! Integration: the metrics counters against real workloads, and an
//! empirical *tightness* study of Theorem 1 — how close observed
//! out-of-order distances come to the analytical bound.

use stack2d::{OpsHandle, Params, RelaxedOps, Stack2D};
use stack2d_quality::TraceRecorder;
use stack2d_workload::{prefill, run_fixed_ops, OpMix};

#[test]
fn probes_per_op_grows_with_width() {
    // Wider stack-arrays mean longer searches when the window is tight.
    let probes_for = |width: usize| {
        let stack = Stack2D::new(Params::new(width, 1, 1).unwrap());
        prefill(&stack, 1_024);
        stack.reset_metrics();
        run_fixed_ops(&stack, 2, 10_000, OpMix::symmetric(), 3);
        stack.metrics().probes_per_op()
    };
    let narrow = probes_for(2);
    let wide = probes_for(64);
    assert!((1.0..100.0).contains(&narrow), "narrow probes/op out of range: {narrow}");
    assert!(wide >= narrow, "wider array should probe at least as much: {narrow} vs {wide}");
}

#[test]
fn empty_pop_metrics_match_runner_accounting() {
    let stack = Stack2D::new(Params::new(4, 2, 1).unwrap());
    // All-pop workload on an empty stack: every op is an empty pop.
    let r = run_fixed_ops(&stack, 2, 1_000, OpMix::new(0), 1);
    assert_eq!(r.empty_pops, 2_000);
    let m = stack.metrics();
    assert_eq!(m.empty_pops, 2_000, "metrics and runner must agree: {m}");
    assert_eq!(m.ops, 2_000);
}

#[test]
fn window_shift_totals_bound_resident_change() {
    // Net window height change (raises - lowers, in shift units) must be
    // consistent with where the Global ends up.
    let p = Params::new(4, 2, 2).unwrap();
    let stack = Stack2D::new(p);
    let mut h = stack.handle_seeded(5);
    for i in 0..5_000 {
        h.push(i);
    }
    let m = stack.metrics();
    // The window starts at `depth` (see Params docs).
    let expected_global =
        p.depth() as i64 + (m.shifts_up as i64 - m.shifts_down as i64) * p.shift() as i64;
    assert_eq!(
        stack.global() as i64,
        expected_global,
        "Global must equal initial + net shifts ({m})"
    );
}

#[test]
fn observed_relaxation_approaches_but_respects_theorem_bound() {
    // Empirical tightness: on an adversarial fill-then-drain workload the
    // observed tightest k should be a significant fraction of the bound
    // (the bound is not vacuously loose) while never exceeding it.
    let params = Params::new(8, 4, 4).unwrap();
    let bound = params.k_bound();
    let stack = Stack2D::new(params);
    let mut rec = TraceRecorder::new(stack.handle());
    for _ in 0..4_000 {
        rec.push();
    }
    for _ in 0..4_000 {
        rec.pop();
    }
    let trace = rec.finish();
    let tightest = trace.tightest_k().expect("trace must satisfy stack semantics");
    assert!(tightest <= bound, "tightest {tightest} exceeds bound {bound}");
    assert!(
        tightest * 20 >= bound,
        "observed relaxation ({tightest}) suspiciously far from bound ({bound}); \
         either the window logic over-constrains or the checker is broken"
    );
}

#[test]
fn strict_configuration_reports_zero_observed_relaxation() {
    let stack = Stack2D::new(Params::new(1, 4, 2).unwrap());
    let mut rec = TraceRecorder::new(stack.handle());
    for i in 0..1_000 {
        if i % 3 == 2 {
            rec.pop();
        } else {
            rec.push();
        }
    }
    let trace = rec.finish();
    assert_eq!(trace.tightest_k(), Some(0));
}

#[test]
fn metrics_survive_trait_generic_use() {
    fn run<S: RelaxedOps<u64>>(s: &S) {
        let mut h = s.ops_handle();
        for i in 0..100 {
            h.produce(i);
        }
        while h.consume().is_some() {}
    }
    let stack = Stack2D::new(Params::new(2, 1, 1).unwrap());
    run(&stack);
    let m = stack.metrics();
    assert!(m.ops >= 201, "100 pushes + 100 pops + final empty pop: {m}");
}
