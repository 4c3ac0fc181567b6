//! The windowed-structure shell: one generic [`Window2D`] around the cells
//! of a stack, a queue or a counter.
//!
//! The paper's design is one mechanism — `width` sub-structures under a
//! shared `Global` window, searched with locality in one dimension and
//! disjoint-access hops in the other — and this module implements
//! everything around the cells exactly once:
//!
//! * construction ([`Window2D::builder`], [`Window2D::new`],
//!   [`Window2D::with_config`], the [`Buildable`] impl);
//! * the accessors (`config`, `params`, `capacity`, `window`, `k_bound`,
//!   `metrics`, `recorder`, …);
//! * the elastic entry points ([`Window2D::retune`],
//!   [`Window2D::try_commit_shrink`]) with their metric and telemetry
//!   accounting, and the [`ElasticTarget`] impl;
//! * per-thread handles ([`WindowHandle`]) and the **one op path** every
//!   public operation runs through: pin, one engine run
//!   (`Search::run` in `engine.rs`), one accounting epilogue. A singular
//!   op is the `n = 1` case of its batched form;
//! * the [`RelaxedOps`]/[`OpsHandle`] facade.
//!
//! What stays per structure is the [`Cells`] implementation: the
//! sub-structure array and its window lanes, the probe sides the engine
//! drives, and a handful of hooks (how a retune swings the lanes, how a
//! shrink commits, the live relaxation bound, names and the default search
//! policy). [`Stack2D`](crate::Stack2D), [`Queue2D`](crate::Queue2D) and
//! [`Counter2D`](crate::Counter2D) are aliases of `Window2D` over their
//! cells. See DESIGN.md §7.

use core::fmt;

use crossbeam_epoch as epoch;
use crossbeam_utils::CachePadded;

use crate::builder::{Buildable, Builder};
use crate::engine::{ProbeTarget, Search};
use crate::metrics::{CounterHub, MetricsSnapshot, OpCounters};
use crate::params::Params;
use crate::rng::{HandleSeeder, HopRng};
use crate::search::{SearchConfig, SearchPolicy};
use crate::sync::Arc;
use crate::telemetry::{clock, Recorder, Sampler, ShiftDir, ShrinkPhase, TelemetryHook};
use crate::traits::{ElasticTarget, OpsHandle, RelaxedOps};
use crate::window::{Lane, RetuneError, WindowInfo};

mod sealed {
    pub trait Sealed {}
}

pub(crate) use sealed::Sealed;

/// The structure-specific part of a [`Window2D`]: the sub-structure
/// array, its window lanes and the hooks the shell cannot express
/// generically.
///
/// Sealed — implemented by the stack, queue and counter cells of this
/// crate only; the hooks speak the crate's internal window vocabulary.
pub trait Cells: Sealed + Sized {
    /// The item type the [`RelaxedOps`] facade moves (`u64` for the
    /// counter, whose produced values are dropped).
    type Item;

    /// Short structure name for legends, logs and experiment CSVs
    /// ([`RelaxedOps::name`]).
    const NAME: &'static str;

    /// Structure name the elastic runtime logs
    /// ([`ElasticTarget::target_name`]).
    const TARGET_NAME: &'static str;

    /// Type name handles debug-format as.
    const HANDLE_NAME: &'static str;

    /// Whether the consuming side runs on its own lane with its own
    /// locality cursor (the queue's get window). When `false`, produce and
    /// consume share one lane and one cursor, as the paper's stack does.
    const SPLIT_LANES: bool = false;

    /// The search policy [`Window2D::new`] and the builder apply when none
    /// is set explicitly.
    fn default_policy() -> SearchPolicy {
        SearchPolicy::default()
    }

    /// Allocates the cells for `config` (at `config.capacity()`).
    fn new(config: &SearchConfig) -> Self;

    /// The lane producing operations search (its parameters are what
    /// [`Window2D::params`] reports).
    fn produce_lane(&self) -> &Lane;

    /// The lane consuming operations search (what [`Window2D::window`]
    /// reports). Defaults to the produce lane.
    fn consume_lane(&self) -> &Lane {
        self.produce_lane()
    }

    /// Installs `params` on the lanes, returning the consume-lane snapshot
    /// that took effect and whether any descriptor swung. Defaults to a
    /// high-water retune of the single lane.
    ///
    /// # Errors
    ///
    /// [`RetuneError::ExceedsCapacity`] if `params.width()` exceeds
    /// `capacity`.
    fn swing(&self, params: Params, capacity: usize) -> Result<(WindowInfo, bool), RetuneError> {
        self.produce_lane().window.retune(params, capacity)
    }

    /// Commits a pending width shrink of the consume lane once its
    /// preconditions hold; `None` otherwise.
    fn commit_shrink(&self) -> Option<WindowInfo>;

    /// The configured relaxation bound of the live window. Defaults to
    /// [`WindowInfo::k_bound`] of the consume lane.
    fn k_bound(&self) -> usize {
        self.consume_lane().window.info().k_bound()
    }

    /// The residency-derived live relaxation bound (see
    /// [`Window2D::k_bound_instantaneous`]).
    fn k_bound_instantaneous(&self) -> usize;

    /// [`OpsHandle::produce`] in the structure's vocabulary.
    fn produce(h: &mut WindowHandle<'_, Self>, value: Self::Item);

    /// [`OpsHandle::consume`] in the structure's vocabulary.
    fn consume(h: &mut WindowHandle<'_, Self>) -> Option<Self::Item>;

    /// [`OpsHandle::produce_n`] in the structure's vocabulary.
    fn produce_n(h: &mut WindowHandle<'_, Self>, values: Vec<Self::Item>);

    /// [`OpsHandle::consume_n`] in the structure's vocabulary.
    fn consume_n(h: &mut WindowHandle<'_, Self>, max: usize) -> Vec<Self::Item>;
}

/// A 2D-window structure: `width` sub-structures (the cells `C`) under a
/// shared, hot-swappable window.
///
/// Use it through its aliases — [`Stack2D`](crate::Stack2D),
/// [`Queue2D`](crate::Queue2D) and [`Counter2D`](crate::Counter2D); the
/// methods documented here are common to all three.
pub struct Window2D<C> {
    cells: C,
    config: SearchConfig,
    counters: CounterHub,
    seeder: HandleSeeder,
    telemetry: TelemetryHook,
}

impl<C: Cells> Window2D<C> {
    /// Starts a validated [`Builder`] — the preferred construction path.
    ///
    /// # Examples
    ///
    /// ```
    /// use stack2d::Stack2D;
    ///
    /// let stack: Stack2D<u64> = Stack2D::builder().for_threads(4).build().unwrap();
    /// assert_eq!(stack.params().width(), 16);
    /// ```
    pub fn builder() -> Builder<Self> {
        Builder::new()
    }

    /// Creates the structure with the given window parameters, its default
    /// search policy (the paper's two-phase search for the stack, the
    /// plain covering sweep [`SearchPolicy::RoundRobinOnly`] for the queue
    /// and the counter) and no elastic headroom (capacity = width).
    pub fn new(params: Params) -> Self {
        Self::with_config(SearchConfig::new(params).search_policy(C::default_policy()))
    }

    /// Creates the structure with an explicit search configuration (used
    /// by the ablation experiments; note that [`SearchConfig::new`]'s
    /// policy default is the paper's two-phase search for every
    /// structure).
    pub fn with_config(config: SearchConfig) -> Self {
        Self::from_parts(config, None)
    }

    fn from_parts(config: SearchConfig, seed: Option<u64>) -> Self {
        Window2D {
            cells: C::new(&config),
            config,
            counters: CounterHub::default(),
            seeder: HandleSeeder::new(seed),
            telemetry: TelemetryHook::none(),
        }
    }

    /// The structure's cells.
    #[inline]
    pub(crate) fn cells(&self) -> &C {
        &self.cells
    }

    /// The attached telemetry sink, if any (see
    /// [`Builder::recorder`](crate::Builder::recorder)). Elastic drivers
    /// use this to emit their decision spans through the structure's own
    /// sink.
    #[inline]
    pub fn recorder(&self) -> Option<&dyn Recorder> {
        self.telemetry.recorder()
    }

    /// A snapshot of the operation counters (contention, probes, window
    /// shifts — see [`MetricsSnapshot`]). Producing sides count
    /// `shifts_up`, consuming sides `shifts_down` (for the queue: put and
    /// get window shifts).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.counters.snapshot()
    }

    /// Resets the operation counters to zero (e.g. after a warm-up phase).
    pub fn reset_metrics(&self) {
        self.counters.reset();
    }

    /// The construction-time configuration (search policy knobs and the
    /// *initial* window parameters; for the live parameters after retunes
    /// see [`Window2D::window`]).
    #[inline]
    pub fn config(&self) -> SearchConfig {
        self.config
    }

    /// The window parameters currently in force on the producing side.
    #[inline]
    pub fn params(&self) -> Params {
        self.cells.produce_lane().window.info().params()
    }

    /// Number of sub-structures allocated at construction — the ceiling
    /// for [`retune`](Window2D::retune)d widths.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.config.capacity()
    }

    /// A consistent snapshot of the live window the consuming side
    /// searches (for the queue: the **get** window, which governs dequeue
    /// quality — its pop span and generation are what the per-generation
    /// checker segments by).
    pub fn window(&self) -> WindowInfo {
        self.cells.consume_lane().window.info()
    }

    /// The deterministic relaxation bound `k` guaranteed *right now*: the
    /// paper's Theorem 1 formula over the live window (corrected upward
    /// where the implementation's provable bound exceeds it, see
    /// [`Params::k_bound`]), computed over the pop span so it stays honest
    /// while a width shrink is pending. The counter reports its own
    /// read-error bound instead (see [`Counter2D`](crate::Counter2D)).
    #[inline]
    pub fn k_bound(&self) -> usize {
        self.cells.k_bound()
    }

    /// The *live* relaxation bound, sound even across retune transients.
    ///
    /// [`Window2D::k_bound`] is the *configured* bound — the window's
    /// steady-state Theorem 1 guarantee, and what a controller's k budget
    /// governs. Right after a width **grow**, however, the freshly
    /// activated sub-structures sit far below `Global` while the old ones
    /// are full: items resident at the swing can later be consumed with
    /// error distances beyond the static formula, because their siblings
    /// refill entirely with newer items (the same mechanism as the
    /// Theorem 1 reproduction finding in [`Params::k_bound`], triggered
    /// here by elasticity instead of a small `shift`). The bound returned
    /// here is derived by residency counting instead —
    /// `(pop_width - 1) * (max residency + depth)` for the stack and the
    /// queue, `(pop_width - 1) * max(observed spread, depth + shift)` for
    /// the counter — so it holds at every instant, degrades gracefully
    /// through transients, and converges back towards the configured bound
    /// as the structure drains. The quality checker verifies measured
    /// distances per generation segment against
    /// `max(configured, instantaneous)`; see DESIGN.md §6.
    ///
    /// Counts are read one sub-structure at a time, so under unquiesced
    /// concurrency the value is advisory (quality runs serialize
    /// operations and read it exactly).
    pub fn k_bound_instantaneous(&self) -> usize {
        self.cells.k_bound_instantaneous()
    }

    /// Installs new window parameters, returning the snapshot of the
    /// consume-lane descriptor that took effect. Lock-free and
    /// non-blocking for concurrent operations: they re-read the
    /// descriptor at every search round and never wait on a retune.
    ///
    /// Growing `width` takes full effect immediately. Shrinking `width`
    /// takes effect immediately for producers, while consumers keep
    /// covering the old span until [`Window2D::try_commit_shrink`] proves
    /// the retired tail empty (the counter drains it instead); the
    /// returned [`WindowInfo::k_bound`] reflects that by using the pop
    /// span. The queue swings its put and get windows under an internal
    /// lock, so one call is one logical retune.
    ///
    /// # Errors
    ///
    /// [`RetuneError::ExceedsCapacity`] if `params.width()` exceeds
    /// [`Window2D::capacity`].
    ///
    /// # Examples
    ///
    /// ```
    /// use stack2d::{Params, Stack2D};
    ///
    /// let stack: Stack2D<u32> = Stack2D::builder().params(Params::new(2, 1, 1).unwrap()).elastic_capacity(8).build().unwrap();
    /// let info = stack.retune(Params::new(8, 2, 1).unwrap()).unwrap();
    /// assert_eq!(info.width(), 8);
    /// assert!(stack.retune(Params::new(9, 1, 1).unwrap()).is_err());
    /// ```
    pub fn retune(&self, params: Params) -> Result<WindowInfo, RetuneError> {
        let (info, swung) = self.cells.swing(params, self.capacity())?;
        if swung {
            // One logical retune, however many descriptors swung.
            self.counters.add(|c| &c.retunes, 1);
            if let Some(r) = self.telemetry.recorder() {
                r.retune(info);
                if info.pending_shrink() {
                    r.shrink_fence(ShrinkPhase::Armed, info);
                }
            }
        }
        Ok(info)
    }

    /// Attempts to commit a pending width shrink: once the epoch fence
    /// proves every pre-shrink operation finished *and* the retired tail
    /// `[width, pop_width)` is clear (observed empty; for the counter,
    /// drained into a side accumulator), consumers stop covering the tail
    /// and the relaxation bound tightens to the shrunk width.
    ///
    /// Returns the new window snapshot when the commit lands, `None` when
    /// there is nothing to commit or the preconditions do not hold yet
    /// (call again later — e.g. on the next controller tick; each call
    /// also nudges epoch reclamation along).
    pub fn try_commit_shrink(&self) -> Option<WindowInfo> {
        let info = self.cells.commit_shrink()?;
        self.counters.add(|c| &c.retunes, 1);
        if let Some(r) = self.telemetry.recorder() {
            r.shrink_fence(ShrinkPhase::Committed, info);
        }
        Some(info)
    }

    /// Whether this structure was built with elastic headroom (capacity
    /// beyond the initial width), i.e. is meant to be retuned online.
    #[inline]
    pub fn is_elastic(&self) -> bool {
        self.capacity() > self.config.params().width()
    }

    /// Registers a per-thread handle carrying locality state and the hop
    /// RNG. Handles are cheap; create one per worker thread.
    ///
    /// On a structure built with [`Builder::seed`](crate::Builder::seed)
    /// the handle RNG is drawn from the deterministic per-structure
    /// sequence; otherwise from thread entropy.
    pub fn handle(&self) -> WindowHandle<'_, C> {
        self.handle_with(self.seeder.rng())
    }

    /// Registers a handle with a deterministic RNG seed — useful in tests
    /// and reproducible experiments.
    pub fn handle_seeded(&self, seed: u64) -> WindowHandle<'_, C> {
        self.handle_with(HopRng::seeded(seed))
    }

    fn handle_with(&self, mut rng: HopRng) -> WindowHandle<'_, C> {
        // The first cursor is drawn before any other use of the RNG, so a
        // seeded handle's whole probe sequence follows from its seed.
        let last = rng.bounded(self.capacity());
        WindowHandle {
            window: self,
            last: [last; 2],
            rng,
            sampler: self.telemetry.sampler(),
            counters: self.counters.register(),
        }
    }
}

impl<C: Cells + fmt::Debug> fmt::Debug for Window2D<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.cells.fmt(f)
    }
}

impl<C: Cells> Sealed for Window2D<C> {}

impl<C: Cells> Buildable for Window2D<C> {
    fn from_builder(config: SearchConfig, seed: Option<u64>) -> Self {
        Self::from_parts(config, seed)
    }

    fn attach_recorder(&mut self, recorder: Arc<dyn Recorder>, sample_every: u32) {
        self.telemetry.attach(recorder, sample_every);
    }

    fn default_policy() -> SearchPolicy {
        C::default_policy()
    }
}

impl<C: Cells> ElasticTarget for Window2D<C>
where
    Self: Send + Sync,
{
    fn window(&self) -> WindowInfo {
        Window2D::window(self)
    }

    fn capacity(&self) -> usize {
        Window2D::capacity(self)
    }

    fn metrics(&self) -> MetricsSnapshot {
        Window2D::metrics(self)
    }

    fn retune(&self, params: Params) -> Result<WindowInfo, RetuneError> {
        Window2D::retune(self, params)
    }

    fn try_commit_shrink(&self) -> Option<WindowInfo> {
        Window2D::try_commit_shrink(self)
    }

    fn is_elastic(&self) -> bool {
        Window2D::is_elastic(self)
    }

    fn k_bound(&self) -> usize {
        Window2D::k_bound(self)
    }

    fn k_bound_instantaneous(&self) -> usize {
        Window2D::k_bound_instantaneous(self)
    }

    fn target_name(&self) -> &'static str {
        C::TARGET_NAME
    }

    fn recorder(&self) -> Option<&dyn Recorder> {
        Window2D::recorder(self)
    }
}

impl<C: Cells> RelaxedOps<C::Item> for Window2D<C>
where
    C::Item: Send,
    Self: Send + Sync,
{
    type Handle<'a>
        = WindowHandle<'a, C>
    where
        C: 'a;

    fn ops_handle(&self) -> Self::Handle<'_> {
        self.handle()
    }

    fn ops_handle_seeded(&self, seed: u64) -> Self::Handle<'_> {
        self.handle_seeded(seed)
    }

    fn name(&self) -> &'static str {
        C::NAME
    }

    fn relaxation_bound(&self) -> Option<usize> {
        Some(ElasticTarget::reported_bound(self))
    }
}

/// Per-thread access handle to a [`Window2D`] (aliased as
/// [`Handle2D`](crate::Handle2D), [`QueueHandle`](crate::QueueHandle) and
/// [`CounterHandle`](crate::CounterHandle)).
///
/// Carries the paper's thread-local state: the index of the sub-structure
/// the thread last succeeded on (exploited for locality; the queue keeps
/// one per window) and the RNG driving random hops. Not `Sync`; create
/// one handle per thread.
pub struct WindowHandle<'w, C> {
    window: &'w Window2D<C>,
    /// Locality cursors: `[produce, consume]` when the cells split their
    /// lanes, otherwise only `[0]` is used.
    pub(crate) last: [usize; 2],
    rng: HopRng,
    sampler: Sampler,
    /// This handle's private counter block (single-writer; summed into
    /// [`Window2D::metrics`] while live, folded into the shared block on
    /// drop). See [`CounterHub`].
    counters: Arc<CachePadded<OpCounters>>,
}

impl<C> Drop for WindowHandle<'_, C> {
    fn drop(&mut self) {
        self.window.counters.release(&self.counters);
    }
}

impl<'w, C: Cells> WindowHandle<'w, C> {
    /// The structure this handle operates on.
    #[inline]
    pub(crate) fn target(&self) -> &'w Window2D<C> {
        self.window
    }

    /// The one op path: runs up to `max` operations of the side `make`
    /// builds, handing each output to `sink`, and accounts for them. A
    /// singular op is `max == 1, batched == false`; `batched` only routes
    /// the completed ops into `batched_ops` as well.
    ///
    /// `ops` counts completed ops plus one for an empty-terminated
    /// consume (mirroring the singular consume that returns `None`);
    /// `search_rounds` counts one per call.
    #[inline]
    pub(crate) fn op<P: ProbeTarget>(
        &mut self,
        max: usize,
        batched: bool,
        make: impl FnOnce(&'w C) -> P,
        sink: impl FnMut(P::Output),
    ) {
        if max == 0 {
            return;
        }
        let w = self.window;
        let start = w.telemetry.sample_start(&mut self.sampler);
        // Pin so the shrink fence covers this op: a retired tail is only
        // committed after every pinned pre-shrink operation finished.
        let guard = epoch::pin();
        let mut side = make(&w.cells);
        let lane = if P::CONSUMES { w.cells.consume_lane() } else { w.cells.produce_lane() };
        let cursor = &mut self.last[usize::from(P::CONSUMES && C::SPLIT_LANES)];
        let st =
            Search::new(lane, &w.config).run(&mut side, max, cursor, &mut self.rng, &guard, sink);
        debug_assert!(P::CONSUMES || st.done == max as u64, "a produce always completes");
        let c = &*self.counters;
        c.bump(|c| &c.probes, st.probes);
        c.bump(|c| &c.cas_failures, st.cas_failures);
        c.bump(|c| &c.global_restarts, st.restarts);
        c.bump(|c| if P::CONSUMES { &c.shifts_down } else { &c.shifts_up }, st.shifts);
        let ops = st.done + u64::from(st.empty);
        if P::CONSUMES {
            c.bump(|c| &c.empty_pops, u64::from(st.empty));
        }
        c.bump(|c| &c.ops, ops);
        if batched {
            c.bump(|c| &c.batched_ops, ops);
        }
        c.bump(|c| &c.search_rounds, 1);
        if let Some(r) = w.telemetry.recorder() {
            if st.shifts > 0 {
                let dir = if P::CONSUMES { ShiftDir::Down } else { ShiftDir::Up };
                r.window_shift(dir, st.shifts);
            }
            if let Some(t0) = start {
                r.op_sample(P::KIND, clock::now_ns().saturating_sub(t0));
            }
        }
    }
}

impl<C: Cells> fmt::Debug for WindowHandle<'_, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cursors = if C::SPLIT_LANES { &self.last[..] } else { &self.last[..1] };
        f.debug_struct(C::HANDLE_NAME).field("last", &cursors).finish()
    }
}

impl<C: Cells> OpsHandle<C::Item> for WindowHandle<'_, C> {
    fn produce(&mut self, value: C::Item) {
        C::produce(self, value);
    }

    fn consume(&mut self) -> Option<C::Item> {
        C::consume(self)
    }

    fn produce_n(&mut self, values: Vec<C::Item>) {
        C::produce_n(self, values);
    }

    fn consume_n(&mut self, max: usize) -> Vec<C::Item> {
        C::consume_n(self, max)
    }
}
