//! A steady-state Section-5 round allocates nothing.
//!
//! A counting global allocator (this test binary only) counts every
//! allocation, zeroed allocation and reallocation made on the calling
//! thread. The count lives in a `const` thread-local `Cell`, so tests
//! running in parallel on other threads do not add to it.
//!
//! An engine warmed on a trace T has seen every n-gram context and
//! successor of T, and its round buffers have grown to the sizes T's
//! rounds need. A further run over T, and one over T‖T (T twice in a
//! row), then differ only in the number of rounds. If they make the same
//! number of allocations, the extra rounds of T‖T made none: what is
//! left is the run's fixed setup and report.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use speculative_prefetch::{Engine, Trace, Workload};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// plain thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// A walk over a 100-item catalog: from item `i` the next request is one
/// of three successors, picked by a fixed xorshift stream, so the n-gram
/// contexts repeat and the predictor forecasts rows worth prefetching.
fn walk(len: usize) -> Vec<(usize, f64)> {
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut item = 0usize;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let here = item;
            item = match x % 3 {
                0 => (item + 1) % 100,
                1 => (item * 7 + 3) % 100,
                _ => (item + 37) % 100,
            };
            (here, 4.0 + (x % 5) as f64)
        })
        .collect()
}

fn trace(records: &[(usize, f64)]) -> Workload {
    let mut t = Trace::new();
    for &(item, viewing) in records {
        t.push(item, viewing);
    }
    Workload::trace(t)
}

#[test]
fn a_steady_state_trace_round_allocates_nothing() {
    let once = walk(300);
    let twice: Vec<(usize, f64)> = once.iter().chain(&once).copied().collect();
    let (t, tt) = (trace(&once), trace(&twice));
    let catalog: Vec<f64> = (0..100).map(|i| 1.0 + (i * 7 % 13) as f64).collect();
    let mut engine = Engine::builder()
        .policy("skp-exact")
        .predictor("ngram:2")
        .catalog(catalog)
        .cache(12)
        .build()
        .unwrap();

    // Warm: every context and successor of T seen, every buffer grown.
    let warm = engine.run(&tt).unwrap();
    let report = warm.trace().expect("trace section");
    assert!(report.hit_rate > 0.2, "hit rate {}", report.hit_rate);
    assert!(report.wasted_per_request > 0.0, "rounds prefetch");

    let mut reports = Vec::with_capacity(2);
    let a = allocations(|| reports.push(engine.run(&t).unwrap()));
    let b = allocations(|| reports.push(engine.run(&tt).unwrap()));
    assert_eq!(reports[1].access.count, 2 * reports[0].access.count + 1);
    assert_eq!(
        a,
        b,
        "a run over T made {a} allocations and one over T twice made {b}: \
         the {} extra rounds allocated",
        once.len()
    );
}
