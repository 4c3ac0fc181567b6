//! Dedicated producers and consumers over a relaxed stack — the asymmetric
//! workload shape from the paper's §2 discussion of elimination back-off.
//!
//! Two producers push continuously while two consumers pop continuously;
//! a strict stack serializes all four on one cache line, an elimination
//! stack pairs them only while the rates match, and the 2D-Stack spreads
//! them over the stack-array regardless of symmetry. The example runs the
//! same role workload over all three and prints the comparison.
//!
//! ```text
//! cargo run --release --example producer_consumer
//! ```

use stack2d::{RelaxedOps, Stack2D};
use stack2d_baselines::{EliminationStack, TreiberStack};
use stack2d_workload::{prefill, run_roles, OpMix, RunResult};

fn report(name: &str, r: &RunResult) {
    println!(
        "{name:>12}: {:>10.0} ops/s | pushes {:>7} pops {:>7} empty {:>5} | fairness {}",
        r.throughput(),
        r.pushes,
        r.pops,
        r.empty_pops,
        r.fairness().map(|f| format!("{f:.2}x")).unwrap_or_else(|| "n/a".into()),
    );
}

fn main() {
    // 2 producers + 2 consumers, 150k ops each.
    let roles = vec![OpMix::new(1000), OpMix::new(1000), OpMix::new(0), OpMix::new(0)];
    let ops = 150_000;
    // Pre-fill so consumers don't race an empty stack at the start.
    let fill = 8_192;

    println!("producer/consumer: 2 producers + 2 consumers, {ops} ops each\n");

    let two_d: Stack2D<u64> =
        Stack2D::builder().for_threads(roles.len()).build().expect("preset is valid");
    prefill(&two_d, fill);
    let r = run_roles(&two_d, &roles, ops, 1);
    report(RelaxedOps::<u64>::name(&two_d), &r);
    let m = two_d.metrics();
    println!(
        "{:>12}  window: {} raises, {} lowers, {:.2} probes/op\n",
        "",
        m.shifts_up,
        m.shifts_down,
        m.probes_per_op()
    );

    let treiber: TreiberStack<u64> = TreiberStack::new();
    prefill(&treiber, fill);
    let r = run_roles(&treiber, &roles, ops, 1);
    report(RelaxedOps::<u64>::name(&treiber), &r);

    let elim: EliminationStack<u64> = EliminationStack::with_capacity(16);
    prefill(&elim, fill);
    let r = run_roles(&elim, &roles, ops, 1);
    report(RelaxedOps::<u64>::name(&elim), &r);
    let stats = elim.stats();
    println!(
        "{:>12}  eliminated pairs: {} (pushes) / {} (pops), central ops: {}",
        "", stats.eliminated_pushes, stats.eliminated_pops, stats.central
    );

    println!("\nreading guide: producers and consumers never pair perfectly in an");
    println!("asymmetric-phase workload, so elimination falls back to its central");
    println!("stack; the 2D window spreads the roles across sub-stacks instead.");
}
