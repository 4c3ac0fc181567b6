//! # stack2d-workload — workload substrate for the 2D-Stack experiments
//!
//! Everything the paper's evaluation loop needs, algorithm-independent:
//!
//! * [`mix`] — push/pop ratios ([`OpMix`]; the paper's default draws each
//!   with probability 1/2);
//! * [`runner`] — the timed multi-thread measurement loop
//!   ([`run_throughput`]) and a deterministic fixed-op variant for tests
//!   ([`run_fixed_ops`]), both generic over
//!   [`RelaxedOps`](stack2d::RelaxedOps), so the 2D structures and every
//!   baseline run through the same loop;
//! * [`LatencyHistogram`] — the log-linear latency histogram, re-exported
//!   from `stack2d-telemetry` (its home since the observability layer
//!   landed) so existing `stack2d_workload::LatencyHistogram` users keep
//!   compiling;
//! * [`affinity`] — the paper's thread-placement policy (fill socket 0,
//!   then socket 1, then hyperthreads) as pure logic, with an explicit
//!   no-op pinning shim (see DESIGN.md §3 for the substitution).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod affinity;
pub mod mix;
pub mod phases;
pub mod runner;

pub use mix::OpMix;
pub use phases::{run_phased, run_roles, Phase, Workload};
pub use runner::{prefill, run_fixed_ops, run_throughput, RunConfig, RunResult};
pub use stack2d_telemetry::LatencyHistogram;
