//! The zero-allocation contract: once the workspace arena is warm, a
//! steady-state training step performs no heap allocations at all.
//!
//! A counting wrapper around the system allocator is installed as the
//! test binary's `#[global_allocator]`; after five warm-up steps (which
//! populate the arena, the optimizer's moment buffers, and every layer
//! cache) counting is switched on for one more step, which must report
//! zero allocations and zero deallocations.
//!
//! The contract covers the inline execution path (`BF_THREADS=1`), where
//! the whole step runs on the calling thread, so only that thread's
//! allocations are counted: the test harness's own threads (reporting a
//! finished test, starting the next) allocate at any moment. The
//! parallel arms intentionally allocate their per-worker partials and
//! are exempt (marked `// alloc-ok: parallel arm` in the sources, and
//! policed by the `hot_alloc_lint` test).

use bf_nn::{CnnLstm, CnnLstmConfig, Tensor};
use bf_stats::SeedRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The counters and the thread count are process-global; the tests below
/// must not observe each other's windows.
static SERIAL: Mutex<()> = Mutex::new(());

/// Pass-through allocator that counts calls made on a thread while its
/// `TRACKING` flag is set.
struct CountingAlloc;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}

/// Whether this thread is inside a counting window (false while the
/// thread's locals are being torn down).
fn tracking() -> bool {
    TRACKING.try_with(Cell::get).unwrap_or(false)
}

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static DEALLOCS: AtomicUsize = AtomicUsize::new(0);
static REALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if tracking() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if tracking() {
            DEALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if tracking() {
            REALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` with counting enabled and return `(allocs, deallocs, reallocs)`.
fn counted<R>(f: impl FnOnce() -> R) -> (R, (usize, usize, usize)) {
    ALLOCS.store(0, Ordering::SeqCst);
    DEALLOCS.store(0, Ordering::SeqCst);
    REALLOCS.store(0, Ordering::SeqCst);
    TRACKING.with(|t| t.set(true));
    let out = f();
    TRACKING.with(|t| t.set(false));
    (
        out,
        (
            ALLOCS.load(Ordering::SeqCst),
            DEALLOCS.load(Ordering::SeqCst),
            REALLOCS.load(Ordering::SeqCst),
        ),
    )
}

/// `scaled(input_len, n_classes, 16)` with the given dropout and
/// lr 0.01, seed 42.
fn net(input_len: usize, n_classes: usize, dropout: f64) -> CnnLstm {
    let mut cfg = CnnLstmConfig::scaled(input_len, n_classes, 16);
    cfg.dropout = dropout;
    cfg.learning_rate = 0.01;
    CnnLstm::new(cfg, 42)
}

/// Warm a [`net`] up on a `batch`-row training batch, then assert the
/// next `train_batch` touches the heap not at all. The net is built
/// under `SERIAL` too, so its allocations never land in another test's
/// counting window.
fn assert_training_step_allocation_free(len: usize, classes: usize, dropout: f64, batch: usize) {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Inline path only: the budget planner must see a single worker.
    bf_par::set_threads(Some(1));

    let mut net = net(len, classes, dropout);
    let mut rng = SeedRng::new(7);
    let data: Vec<f32> = (0..batch * len).map(|_| rng.standard_normal() as f32).collect();
    let labels: Vec<usize> = (0..batch).map(|i| i % classes).collect();
    let x = Tensor::new(&[batch, 1, len], data);

    // Warm-up: arena buffers, layer caches, and Adam moments all settle
    // within the first step; a few extra guard against lazy growth.
    for _ in 0..5 {
        net.train_batch(&x, &labels);
    }

    let (loss, (allocs, deallocs, reallocs)) = counted(|| net.train_batch(&x, &labels));
    bf_par::set_threads(None);

    assert!(loss.is_finite(), "training step produced non-finite loss");
    assert_eq!(
        (allocs, deallocs, reallocs),
        (0, 0, 0),
        "steady-state train_batch (input {len}, batch {batch}) touched the heap: \
         {allocs} allocs, {deallocs} deallocs, {reallocs} reallocs"
    );
}

/// Warm a [`net`] up on a `batch`-row serving micro-batch — full rows
/// and zero-padded prefixes (the anytime rungs) alternating — then
/// assert the next `predict_proba_batch` touches the heap not at all.
/// Built under `SERIAL`, as above.
fn assert_batched_predict_allocation_free(len: usize, classes: usize, dropout: f64, batch: usize) {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    bf_par::set_threads(Some(1));

    let mut net = net(len, classes, dropout);
    let mut rng = SeedRng::new(11);
    let rows: Vec<Vec<f32>> = (0..batch)
        .map(|i| {
            let len = if i % 2 == 0 { len } else { len / 4 + (i * 20) % (len / 2) };
            (0..len).map(|_| rng.standard_normal() as f32).collect()
        })
        .collect();

    // Warm-up settles the arena's batch, activation, and probability
    // tensors at this batch geometry.
    for _ in 0..5 {
        let p = net.predict_proba_batch(&rows);
        bf_nn::workspace::recycle(p);
    }

    let (p, (allocs, deallocs, reallocs)) = counted(|| net.predict_proba_batch(&rows));
    bf_par::set_threads(None);

    assert_eq!(p.shape(), &[batch, classes]);
    assert!(p.data().iter().all(|v| v.is_finite()));
    bf_nn::workspace::recycle(p);
    assert_eq!(
        (allocs, deallocs, reallocs),
        (0, 0, 0),
        "steady-state predict_proba_batch (input {len}, batch {batch}) touched the heap: \
         {allocs} allocs, {deallocs} deallocs, {reallocs} reallocs"
    );
}

#[test]
fn steady_state_training_step_does_not_allocate() {
    // Paper-shaped smoke network: both convs, pooling, LSTM, dense head,
    // dropout, and the im2col gate all exercised.
    assert_training_step_allocation_free(300, 4, 0.3, 8);
}

#[test]
fn steady_state_batched_predict_does_not_allocate() {
    // Same smoke shape; a full serving micro-batch of 8 rows.
    assert_batched_predict_allocation_free(300, 4, 0.3, 8);
}

#[test]
fn default_shape_training_step_does_not_allocate() {
    // The default-scale fit: `scaled(600, 20, 16)`, dropout 0.5, batch
    // 32 — the shape `classifier_for` trains.
    assert_training_step_allocation_free(600, 20, 0.5, 32);
}

#[test]
fn default_shape_batched_predict_does_not_allocate() {
    assert_batched_predict_allocation_free(600, 20, 0.5, 32);
}
