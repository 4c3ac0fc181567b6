//! The unified window-search engine — one audited hot loop for all three
//! windowed structures.
//!
//! Before this module, the paper's §3 two-phase search existed three times:
//! `stack.rs` carried the full policy (random hops, covering sweep,
//! locality, hop-on-contention) while `queue2d.rs` and `counter2d.rs`
//! hardcoded bespoke covering sweeps. This module owns the *entire* search
//! round for all of them:
//!
//! * the descriptor load — re-read from the [`Lane`]'s window at the top
//!   of every round, so retunes take effect without blocking in-flight
//!   operations;
//! * the locality-guided (or random) start index;
//! * probe enumeration through [`Probes`] — random-hop phase plus the
//!   covering round-robin sweep, per the configured [`SearchPolicy`];
//! * the restart on an observed `Global` change;
//! * the random hop after a lost CAS (when hop-on-contention is enabled);
//! * per-probe verdict accumulation: the `all_empty` conclusion a consuming
//!   side's `None` return rests on is only derived from probes belonging to
//!   the covering sweep — **including step 0** (the PR 3 off-by-one class
//!   of bug is structurally impossible here);
//! * the shift/restart decision after an exhausted round;
//! * batching: one [`Search::run`] serves a singular op (`max == 1`) and a
//!   batched one alike, handing each completed op to a caller-supplied
//!   sink, so there is no second loop whose batch-of-one behaviour could
//!   drift (`tests/engine_parity.rs` pins the equivalence).
//!
//! What *is* structure-specific — how one cell is validated and mutated,
//! which span of the descriptor a side covers, and which direction the
//! window shifts — enters through the [`ProbeTarget`] trait, implemented by
//! the stack's push/pop sides, the queue's put/get ends and the counter's
//! increment side. The engine is deliberately `pub(crate)`: its contract
//! involves crate-internal descriptor types, and the public surface for
//! policy experimentation is [`SearchConfig`] on the builders. See
//! DESIGN.md §9.
//!
//! # Why only `Global` is re-checked per probe
//!
//! The window descriptor is *not* re-read inside the probe loop (only
//! `Global` is, as in the paper): operations reload it at the top of every
//! round, which already bounds a retune's propagation delay to one search
//! round, and the shrink fence (DESIGN.md §6) tolerates whole in-flight
//! operations on a stale descriptor. A per-probe descriptor load would
//! double the atomic traffic of the hottest loop for nothing. The one
//! exception is the window **shift** after an exhausted round: the live
//! descriptor is re-read immediately before the `Global` CAS, so a window
//! never advances by a stale `shift` (the PR 3 `get_global` fix, now
//! applied uniformly to all three structures).

use crate::sync::atomic::Ordering;

use crossbeam_epoch::Guard;

use crate::rng::HopRng;
use crate::search::{Probes, SearchConfig, SearchPolicy};
use crate::telemetry::OpKind;
use crate::window::{Lane, WindowDesc};

/// Verdict of probing one cell under the round's `Global` value.
pub(crate) enum Probe<T> {
    /// The operation succeeded on this cell.
    Done(T),
    /// A CAS was lost on a valid cell; the round restarts (with a random
    /// hop when hop-on-contention is enabled).
    Contended,
    /// The cell failed window validation but is not known empty (at/above
    /// the window edge, or below the pop floor while holding items). Feeds
    /// `all_empty = false` when probed during the covering sweep.
    Invalid,
    /// The cell was observed empty — the only verdict that keeps a
    /// covering sweep's `all_empty` conclusion alive.
    Empty,
}

/// One side (producing or consuming) of a windowed structure, as seen by
/// the engine: cell probing, the side's span of the descriptor, and the
/// direction its `Global` shifts.
pub(crate) trait ProbeTarget {
    /// What a successful operation yields (`()` for producers, the item
    /// for consumers).
    type Output;

    /// Whether an all-empty covering sweep ends the operation with `None`.
    /// Producing sides retry (shifting the window) until they succeed.
    /// Also routes the op's accounting: consuming sides count
    /// `shifts_down` and `empty_pops`, producing sides `shifts_up`.
    const CONSUMES: bool;

    /// The op kind sampled op spans of this side are reported as.
    const KIND: OpKind;

    /// The number of cells this side covers under descriptor `w`
    /// (`push_width` for producers, `pop_width` for consumers).
    fn span(&self, w: &WindowDesc) -> usize;

    /// Probes cell `index` under the round's descriptor and `Global`.
    fn probe(
        &mut self,
        index: usize,
        w: &WindowDesc,
        global: usize,
        guard: &Guard,
    ) -> Probe<Self::Output>;

    /// The `Global` value an exhausted round proposes to shift to, given
    /// the *live* descriptor; `None` when the window cannot move (a pop
    /// window already resting at its floor).
    fn shift_target(&self, global: usize, live: &WindowDesc) -> Option<usize>;

    /// Stages the side for the next operation of a batch: producing sides
    /// load their next node here and return `false` when no items remain.
    /// Consuming sides take the default (always ready).
    fn reload(&mut self) -> bool {
        true
    }
}

/// Event counts of one engine run, in the engine's own vocabulary; the
/// caller maps them onto its [`OpCounters`](crate::metrics) fields
/// (`shifts` becomes `shifts_up` or `shifts_down` depending on the side).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SearchStats {
    /// Operations completed (outputs handed to the sink).
    pub done: u64,
    /// Cells validated.
    pub probes: u64,
    /// CASes lost on valid cells.
    pub cas_failures: u64,
    /// Rounds restarted on an observed `Global` change.
    pub restarts: u64,
    /// Window shifts won.
    pub shifts: u64,
    /// Whether a covering sweep concluded `all_empty` (consuming sides).
    pub empty: bool,
}

/// One configured search: the lane (window + `Global`) a side operates on
/// plus the policy knobs. Construct per operation (it is one reference and
/// three scalars) and [`run`](Search::run).
pub(crate) struct Search<'a> {
    lane: &'a Lane,
    policy: SearchPolicy,
    locality: bool,
    hop_on_contention: bool,
}

/// How a search round ended (success is handled inside the loop).
enum RoundEnd {
    /// `Global` changed mid-round; restart from the observed index.
    GlobalChanged(usize),
    /// A CAS was lost on a valid cell.
    Contention,
    /// Every probe failed validation under the round's `Global`.
    Exhausted,
}

impl<'a> Search<'a> {
    /// A search over `lane` with `config`'s policy knobs.
    pub(crate) fn new(lane: &'a Lane, config: &SearchConfig) -> Self {
        Search {
            lane,
            policy: config.policy(),
            locality: config.uses_locality(),
            hop_on_contention: config.hops_on_contention(),
        }
    }

    /// Runs search rounds until `max` operations completed, handing each
    /// output to `sink`. A consuming side returns short when a covering
    /// sweep observes every cell empty (`stats.empty`); producing sides
    /// always complete all `max` (or stop early when
    /// [`ProbeTarget::reload`] runs dry).
    ///
    /// After winning a cell the run keeps **draining that same cell** —
    /// re-checking `Global` and revalidating the cell before every extra
    /// item — until the batch is done, the cell stops validating, or
    /// `w.depth` items were taken in the round (the window's per-cell
    /// budget, which is what keeps a batch inside Theorem 1's `k`: a batch
    /// never takes more from one cell than the window already permits).
    /// With `max == 1` the run returns at the first success, so a singular
    /// op allocates nothing and opens no retirement scope.
    ///
    /// `last` is the handle's locality cursor (updated on success), `rng`
    /// its hop RNG. Lock-free: a thread only retries when another thread
    /// made progress (won a CAS, shifted the window, or retuned it).
    // Inlined into every op so a singular op's constant `max == 1` folds
    // the batch drain and the retirement scope away: the singular path
    // compiles to the drain-free loop. (Out of line, a counter increment
    // measured ~10% slower on a 2-vCPU x86-64 VM.)
    #[inline(always)]
    pub(crate) fn run<P: ProbeTarget>(
        &self,
        target: &mut P,
        max: usize,
        last: &mut usize,
        rng: &mut HopRng,
        guard: &Guard,
        mut sink: impl FnMut(P::Output),
    ) -> SearchStats {
        let mut stats = SearchStats::default();
        if max == 0 {
            return stats;
        }
        let max = max as u64;
        // One retirement fence for a whole batch: every node/descriptor
        // the drain unlinks buffers inside this scope and is epoch-tagged
        // when it drops (a later tag than per-op retirement would give —
        // conservative, so reclamation is only ever delayed). A 1-op run
        // has nothing to amortize, so it skips the scope bookkeeping.
        let _retire_scope = (max > 1).then(|| guard.retire_batch());
        let mut resume: Option<usize> = None;
        loop {
            // Re-read the window descriptor every round: retunes take
            // effect without blocking in-flight operations.
            let w = self.lane.window.load(guard);
            let width = target.span(w);
            let at = match resume.take() {
                // A restart resumes near where the previous round stopped
                // (wrapped: a retune may have narrowed the span below it).
                Some(s) => s % width,
                None if self.locality => *last % width,
                None => rng.bounded(width),
            };
            let global = self.lane.global.load(Ordering::SeqCst);
            let mut all_empty = true;
            let mut end = RoundEnd::Exhausted;
            // The cell the search round succeeded on, drained below once
            // the probe iterator (and its rng borrow) is released.
            let mut won: Option<usize> = None;
            {
                let mut probes = Probes::new(self.policy, width, at, rng);
                let mut probe_no = 0;
                // `probes` is consumed manually (not a `for` loop) because
                // the verdict accumulation needs `in_coverage` queries
                // mid-iteration.
                #[allow(clippy::while_let_on_iterator)]
                while let Some(i) = probes.next() {
                    stats.probes += 1;
                    let in_coverage = probes.in_coverage(probe_no);
                    probe_no += 1;
                    // Restart on any observed Global change (§3
                    // optimization).
                    if self.lane.global.load(Ordering::SeqCst) != global {
                        end = RoundEnd::GlobalChanged(i);
                        break;
                    }
                    match target.probe(i, w, global, guard) {
                        Probe::Done(value) => {
                            *last = i;
                            sink(value);
                            stats.done += 1;
                            if stats.done >= max || !target.reload() {
                                return stats;
                            }
                            won = Some(i);
                            break;
                        }
                        Probe::Contended => {
                            end = RoundEnd::Contention;
                            break;
                        }
                        // Only covering-sweep probes feed the verdict; a
                        // non-empty cell anywhere in the sweep kills it.
                        Probe::Invalid => {
                            if in_coverage {
                                all_empty = false;
                            }
                        }
                        Probe::Empty => {}
                    }
                }
            }
            if let Some(i) = won {
                // Drain the won cell under the round's descriptor; one
                // item is already out.
                let mut drained = 1usize;
                loop {
                    if drained >= w.depth {
                        // Per-round cell budget spent; search again (the
                        // next round revisits `i` first via locality).
                        resume = Some(i);
                        break;
                    }
                    // Fresh Global per drained item: the validity check
                    // below always runs against the live window position.
                    let g = self.lane.global.load(Ordering::SeqCst);
                    stats.probes += 1;
                    match target.probe(i, w, g, guard) {
                        Probe::Done(value) => {
                            sink(value);
                            stats.done += 1;
                            drained += 1;
                            if stats.done >= max || !target.reload() {
                                return stats;
                            }
                        }
                        Probe::Contended => {
                            stats.cas_failures += 1;
                            resume =
                                Some(if self.hop_on_contention { rng.bounded(width) } else { i });
                            break;
                        }
                        // The cell stopped validating (window edge or
                        // exhausted): fall back to a full search round.
                        Probe::Invalid | Probe::Empty => {
                            resume = Some(i);
                            break;
                        }
                    }
                }
                continue;
            }
            match end {
                RoundEnd::GlobalChanged(i) => {
                    stats.restarts += 1;
                    resume = Some(i);
                }
                RoundEnd::Contention => {
                    stats.cas_failures += 1;
                    // Contention avoidance: hop to a random cell instead of
                    // retrying the fought-over one (paper default).
                    resume = Some(if self.hop_on_contention { rng.bounded(width) } else { at });
                }
                RoundEnd::Exhausted => {
                    if P::CONSUMES && all_empty {
                        // A covering sweep under one Global saw only empty
                        // cells: the run ends here, possibly short.
                        stats.empty = true;
                        return stats;
                    }
                    // No valid cell anywhere: propose a window shift. The
                    // live descriptor is re-read so the window never moves
                    // by a stale shift; a failed CAS means another thread
                    // moved Global — either way the window changed and the
                    // search restarts fresh (from locality).
                    let live = self.lane.window.load(guard);
                    if let Some(next) = target.shift_target(global, live) {
                        if self
                            .lane
                            .global
                            .compare_exchange(global, next, Ordering::SeqCst, Ordering::SeqCst)
                            .is_ok()
                        {
                            stats.shifts += 1;
                        }
                    }
                }
            }
        }
    }
}
