//! Telemetry routing of the shared op path and the retune accounting.
//!
//! Every public operation of the three windowed structures ends in one
//! accounting epilogue that names the op kind of its sampled span and the
//! direction of its window shifts; `retune`/`try_commit_shrink` emit the
//! retune and shrink-fence events. These tests attach a recording sink
//! with `sample_every = 1` and check, per entry point, that the events
//! carry the right labels — and that one logical retune emits exactly one
//! `retune` event, including the queue's two-window swing.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use stack2d::telemetry::{OpKind, Recorder, ShiftDir, ShrinkPhase};
use stack2d::{Counter2D, Params, Queue2D, Stack2D, WindowInfo};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Op(OpKind),
    Shift(ShiftDir),
    Retune,
    Fence(ShrinkPhase),
}

/// Records every structure-side signal, in order.
#[derive(Default)]
struct Recording(Mutex<Vec<Event>>);

impl Recording {
    fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.0.lock().unwrap())
    }

    fn push(&self, e: Event) {
        self.0.lock().unwrap().push(e);
    }
}

impl Recorder for Recording {
    fn op_sample(&self, op: OpKind, _latency_ns: u64) {
        self.push(Event::Op(op));
    }

    fn window_shift(&self, dir: ShiftDir, count: u64) {
        assert!(count > 0, "a shift event reports at least one shift");
        self.push(Event::Shift(dir));
    }

    fn retune(&self, _window: WindowInfo) {
        self.push(Event::Retune);
    }

    fn shrink_fence(&self, phase: ShrinkPhase, _window: WindowInfo) {
        self.push(Event::Fence(phase));
    }
}

fn p(w: usize, d: usize, s: usize) -> Params {
    Params::new(w, d, s).unwrap()
}

/// The events of one call: exactly one sampled span of kind `kind`, and
/// at least one shift event, all in direction `dir`. (Width-1, depth-1
/// windows make every op past the first shift.)
fn assert_routed(entry: &str, events: Vec<Event>, kind: OpKind, dir: ShiftDir) {
    let ops: Vec<_> = events.iter().filter(|e| matches!(e, Event::Op(_))).collect();
    assert_eq!(ops, [&Event::Op(kind)], "{entry}: op spans {events:?}");
    let shifts: Vec<_> = events.iter().filter(|e| matches!(e, Event::Shift(_))).collect();
    assert!(!shifts.is_empty(), "{entry}: expected a window shift, got {events:?}");
    assert!(shifts.iter().all(|e| **e == Event::Shift(dir)), "{entry}: shift dirs {events:?}");
}

#[test]
fn stack_ops_route_push_up_and_pop_down() {
    let rec = Arc::new(Recording::default());
    let stack: Stack2D<u64> = Stack2D::builder()
        .params(p(1, 1, 1))
        .recorder(rec.clone())
        .sample_every(1)
        .build()
        .unwrap();
    let mut h = stack.handle_seeded(1);
    h.push(0);
    rec.take();
    h.push(1);
    assert_routed("push", rec.take(), OpKind::Push, ShiftDir::Up);
    h.push_n(vec![2, 3, 4]);
    assert_routed("push_n", rec.take(), OpKind::Push, ShiftDir::Up);
    h.pop();
    rec.take();
    h.pop();
    assert_routed("pop", rec.take(), OpKind::Pop, ShiftDir::Down);
    h.pop_n(2);
    assert_routed("pop_n", rec.take(), OpKind::Pop, ShiftDir::Down);
}

#[test]
fn queue_ops_route_enqueue_up_and_dequeue_down() {
    let rec = Arc::new(Recording::default());
    let queue: Queue2D<u64> = Queue2D::builder()
        .params(p(1, 1, 1))
        .recorder(rec.clone())
        .sample_every(1)
        .build()
        .unwrap();
    let mut h = queue.handle_seeded(1);
    h.enqueue(0);
    rec.take();
    h.enqueue(1);
    assert_routed("enqueue", rec.take(), OpKind::Enqueue, ShiftDir::Up);
    h.enqueue_n(vec![2, 3, 4]);
    assert_routed("enqueue_n", rec.take(), OpKind::Enqueue, ShiftDir::Up);
    h.dequeue();
    rec.take();
    h.dequeue();
    assert_routed("dequeue", rec.take(), OpKind::Dequeue, ShiftDir::Down);
    h.dequeue_n(2);
    assert_routed("dequeue_n", rec.take(), OpKind::Dequeue, ShiftDir::Down);
}

#[test]
fn counter_ops_route_increment_up() {
    let rec = Arc::new(Recording::default());
    let counter = Counter2D::builder()
        .params(p(1, 1, 1))
        .recorder(rec.clone())
        .sample_every(1)
        .build()
        .unwrap();
    let mut h = counter.handle_seeded(1);
    h.increment();
    rec.take();
    h.increment();
    assert_routed("increment", rec.take(), OpKind::Increment, ShiftDir::Up);
    h.add_n(3);
    assert_routed("add_n", rec.take(), OpKind::Increment, ShiftDir::Up);
}

/// Retries a shrink commit until the epoch fence trips. The wait is for
/// the process-wide epoch to advance, which other tests' pins can delay;
/// what is checked is the events the commit emits, not how fast it lands.
fn commit(try_commit: impl Fn() -> Option<WindowInfo>) -> WindowInfo {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Some(info) = try_commit() {
            return info;
        }
        assert!(Instant::now() < deadline, "shrink never committed on an empty structure");
        std::thread::yield_now();
    }
}

/// One grow, one no-op, one shrink and its commit on an empty structure:
/// exactly one `retune` per swinging call, `Armed` once with the shrink,
/// `Committed` once with the commit.
fn assert_retune_events(
    rec: &Recording,
    retune: impl Fn(Params) -> WindowInfo,
    try_commit: impl Fn() -> Option<WindowInfo>,
) {
    rec.take();
    retune(p(4, 1, 1));
    assert_eq!(rec.take(), [Event::Retune], "grow");
    retune(p(4, 1, 1));
    assert_eq!(rec.take(), [], "a no-op retune emits nothing");
    let info = retune(p(2, 1, 1));
    assert!(info.pending_shrink());
    assert_eq!(rec.take(), [Event::Retune, Event::Fence(ShrinkPhase::Armed)], "shrink");
    let info = commit(&try_commit);
    assert!(!info.pending_shrink());
    assert_eq!(rec.take(), [Event::Fence(ShrinkPhase::Committed)], "commit");
    assert_eq!(try_commit(), None, "nothing left to commit");
    assert_eq!(rec.take(), [], "a refused commit emits nothing");
}

#[test]
fn retune_and_commit_emit_once_per_logical_retune() {
    let rec = Arc::new(Recording::default());
    let stack: Stack2D<u64> = Stack2D::builder()
        .width(1)
        .elastic_capacity(4)
        .recorder(rec.clone())
        .sample_every(1)
        .build()
        .unwrap();
    assert_retune_events(&rec, |q| stack.retune(q).unwrap(), || stack.try_commit_shrink());
    assert_eq!(stack.metrics().retunes, 3);

    // The queue swings its put and get windows per retune: still one
    // logical retune, one event.
    let queue: Queue2D<u64> = Queue2D::builder()
        .width(1)
        .elastic_capacity(4)
        .recorder(rec.clone())
        .sample_every(1)
        .build()
        .unwrap();
    assert_retune_events(&rec, |q| queue.retune(q).unwrap(), || queue.try_commit_shrink());
    assert_eq!(queue.metrics().retunes, 3);

    let counter = Counter2D::builder()
        .width(1)
        .elastic_capacity(4)
        .recorder(rec.clone())
        .sample_every(1)
        .build()
        .unwrap();
    assert_retune_events(&rec, |q| counter.retune(q).unwrap(), || counter.try_commit_shrink());
    assert_eq!(counter.metrics().retunes, 3);
}
