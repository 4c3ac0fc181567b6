//! # stack2d-baselines — every stack the 2D-Stack paper evaluates against
//!
//! The PODC'18 evaluation compares the 2D-Stack with six other designs;
//! this crate implements all of them behind the shared
//! [`RelaxedOps`](stack2d::RelaxedOps)/[`OpsHandle`](stack2d::OpsHandle)
//! contract (produce = push, consume = pop), so the workload runner, the
//! figure harness and the quality pipeline drive every algorithm with the
//! exact same code as the 2D structures:
//!
//! | paper legend  | type | semantics |
//! |---------------|------|-----------|
//! | `treiber`     | [`TreiberStack`] | strict LIFO, single CAS point |
//! | `elimination` | [`EliminationStack`] | strict LIFO, collision-array back-off |
//! | `k-segment`   | [`KSegmentStack`] | k-out-of-order, segmented |
//! | `random`      | [`RandomStack`] | relaxed, uniform scheduling |
//! | `random-c2`   | [`RandomC2Stack`] | relaxed, choice-of-two scheduling |
//! | `k-robin`     | [`KRobinStack`] | relaxed, round-robin scheduling |
//! | (tests only)  | [`LockedStack`] | strict LIFO oracle |
//! | (queue ref.)  | [`LockedQueue`] | strict FIFO oracle |
//!
//! The distribution baselines (`random`, `random-c2`, `k-robin`) are built
//! from the same counted [`SubStack`](stack2d::substack::SubStack) block as
//! the 2D-Stack itself, exactly as in the paper — they differ only in
//! scheduling, which is the point of the comparison.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod distributed;
pub mod elimination;
pub mod ksegment;
pub mod locked;
pub mod locked_queue;
pub mod treiber;

pub use distributed::{KRobinStack, RandomC2Stack, RandomStack};
pub use elimination::{EliminationStack, EliminationStats};
pub use ksegment::KSegmentStack;
pub use locked::LockedStack;
pub use locked_queue::{LockedQueue, LockedQueueHandle};
pub use treiber::TreiberStack;
