//! The shipping default is "no sink installed". This harness proves that
//! default costs zero heap traffic: a counting global allocator wraps
//! `System`, and after a warm-up pass (first use of a stage allocates its
//! cached histogram handle) the span / counter / anomaly hot paths must
//! perform no allocation at all.
//!
//! This lives in an integration test (its own crate) because the obs
//! library itself is `#![forbid(unsafe_code)]` and a `GlobalAlloc` impl
//! needs `unsafe`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. A const-initialised `Cell` with no
    /// destructor: touching it from inside the allocator never allocates.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Counts one allocation against the calling thread (none while the
/// thread's locals are being torn down).
fn tally() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations the calling thread performed while running `f`. Other
/// threads (a profiler's sampler starting up, the test harness) do not
/// count: the window measures exactly the code under test.
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

// One test function on purpose: the phases share the process-wide sink
// and profiler gate, so they run in sequence on one thread.
#[test]
fn no_sink_hot_paths_are_allocation_free() {
    let _guard = obs::testing::lock();
    obs::clear_sink();

    // Warm-up: first use of each name allocates its registry entry and
    // per-stage cache slot — that cost is paid once per process.
    let counter = obs::counter("noalloc.counter");
    let gauge = obs::gauge("noalloc.gauge");
    let hist = obs::histogram("noalloc.hist");
    {
        let mut s = obs::span("noalloc.span");
        s.field("x", 1.0);
    }
    obs::health::anomaly("noalloc_kind", &[("x", 1.0)]);

    // Cached metric handles: pure atomics.
    let n = allocations_during(|| {
        for i in 0..1_000u64 {
            black_box(&counter).inc();
            black_box(&gauge).set(black_box(i as i64));
            black_box(&hist).record(black_box(i));
        }
    });
    assert_eq!(n, 0, "metric handle ops allocated {n} times");

    // The gated-span idiom every pipeline stage uses: with no sink,
    // sink_active() is false and no Span is even constructed.
    let n = allocations_during(|| {
        for _ in 0..1_000 {
            let mut span = obs::sink_active().then(|| obs::span("noalloc.span"));
            if let Some(span) = &mut span {
                span.field("x", 1.0);
            }
        }
    });
    assert_eq!(n, 0, "gated no-sink span path allocated {n} times");

    // An unconditional span (ungated call sites): still allocation-free
    // without a sink — fields and trace ids are only built while recording.
    let n = allocations_during(|| {
        for _ in 0..1_000 {
            let mut s = obs::span("noalloc.span");
            s.field("x", black_box(1.0));
        }
    });
    assert_eq!(n, 0, "bare no-sink span allocated {n} times");

    // Link-health anomaly with no sink: one cached counter bump.
    let n = allocations_during(|| {
        for _ in 0..1_000 {
            obs::health::anomaly("noalloc_kind", &[("x", black_box(1.0))]);
        }
    });
    assert_eq!(n, 0, "no-sink anomaly path allocated {n} times");

    // Profiler publish path: with a profiler running, every span start
    // pushes a frame into the thread's seqlock slot and every drop pops
    // it. After the warm-up (first span on this thread registers the slot
    // and interns the stage name) that path is pure atomics — a profiled
    // span must cost no more heap traffic than an unprofiled one. The
    // sampler thread's own allocations (its start-up, its tally passes)
    // land on its own thread's count, not in this window.
    let profiler = obs::Profiler::start(std::time::Duration::from_millis(1));
    {
        let mut s = obs::span("noalloc.span");
        s.field("x", 1.0);
    }
    let n = allocations_during(|| {
        for _ in 0..1_000 {
            let mut s = obs::span("noalloc.span");
            s.field("x", black_box(1.0));
        }
    });
    assert_eq!(n, 0, "profiler publish path allocated {n} times");
    drop(profiler);

    // Sanity: the harness itself does count — a recording span allocates.
    obs::set_sink(std::sync::Arc::new(obs::MemorySink::default()));
    let n = allocations_during(|| {
        let mut s = obs::span("noalloc.span");
        s.field("x", 1.0);
    });
    obs::clear_sink();
    assert!(
        n > 0,
        "counting allocator failed to observe recording-path allocations"
    );
}
