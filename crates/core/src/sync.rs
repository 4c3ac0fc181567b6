//! The synchronization facade: the **only** sanctioned source of atomics,
//! `Arc`, `Mutex` and threads inside `crates/core` (and, via the re-export,
//! for `stack2d-adaptive` and the lock-free baselines).
//!
//! Ordinarily this resolves to the real primitives — [`std::sync::atomic`],
//! [`std::sync::Arc`], `parking_lot::Mutex`, [`std::thread`] — at zero cost.
//! Under `RUSTFLAGS="--cfg model"` it resolves to `loomlite`'s instrumented
//! equivalents instead, so the `model_*` test suite can exhaustively explore
//! thread interleavings of the retune / shrink / drain protocols with a
//! loom-style schedule scheduler (see DESIGN.md §10).
//!
//! The archlint `facade-only-sync` rule denies direct `std::sync::atomic` /
//! `core::sync::atomic` / `std::thread` imports in `crates/core/src` and the
//! other model-checked crates (DESIGN.md §12), so a new protocol cannot
//! accidentally bypass the model checker by using raw primitives.
//!
//! # Examples
//!
//! ```
//! use stack2d::sync::atomic::{AtomicUsize, Ordering};
//! use stack2d::sync::Arc;
//!
//! let n = Arc::new(AtomicUsize::new(0));
//! n.fetch_add(1, Ordering::Relaxed);
//! assert_eq!(n.load(Ordering::Relaxed), 1);
//! ```

/// Atomic types and memory orderings (instrumented under `--cfg model`).
#[cfg(not(model))]
pub use std::sync::atomic;

/// Atomic types and memory orderings (instrumented under `--cfg model`).
#[cfg(model)]
pub use loomlite::atomic;

/// Atomically reference-counted shared ownership.
#[cfg(not(model))]
pub use std::sync::Arc;

/// Atomically reference-counted shared ownership.
#[cfg(model)]
pub use loomlite::sync::Arc;

/// A mutual-exclusion lock with the parking_lot API (`lock()` returns the
/// guard directly; no poisoning).
#[cfg(not(model))]
pub use parking_lot::{Mutex, MutexGuard};

/// A mutual-exclusion lock with the parking_lot API (`lock()` returns the
/// guard directly; no poisoning).
#[cfg(model)]
pub use loomlite::sync::{Mutex, MutexGuard};

/// Threads (model-scheduled under `--cfg model`; note that only `spawn`,
/// `yield_now` and `sleep` exist in that configuration — `scope` does not).
#[cfg(not(model))]
pub use std::thread;

/// Threads (model-scheduled under `--cfg model`).
#[cfg(model)]
pub use loomlite::thread;
