//! Sampling profiler: lock-free per-thread span-stack slots plus a
//! wall-clock sampler that accumulates folded stacks.
//!
//! The observability plane so far watches the *workload* (SNR loss, drift,
//! misselection); this module watches the *system*. Every instrumented
//! thread publishes its current span stack into a [`SpanSlot`] — a
//! fixed-size frame buffer guarded by an atomic generation counter,
//! seqlock-style — on span start/drop. A [`Profiler`] walks the registered
//! slots at a configurable period and tallies what it sees into folded
//! stacks, the exact `path;to;span count` format `talon report --flame`
//! already emits, so the same flamegraph tooling renders both.
//!
//! Design constraints, in order:
//!
//! 1. **Inert when off.** The publish path is gated on one relaxed atomic
//!    load; with no profiler running a span pays a single branch.
//! 2. **Allocation-free publish.** While profiling, a span start is a
//!    thread-local map lookup (stage → interned id, cached per thread)
//!    plus three atomic stores into the thread's own slot. No allocation
//!    after the first use of a stage on a thread — proven by the counting
//!    allocator in `crates/obs/tests/no_alloc.rs`.
//! 3. **Writers never wait.** The slot is a single-writer seqlock: the
//!    owning thread bumps the generation to odd, stores frames, bumps it
//!    back to even. The sampler retries a bounded number of times on a
//!    torn read and otherwise *skips the sample* (counted in
//!    `prof.torn`) — the profiled thread is never blocked or slowed by
//!    the sampler.
//!
//! Known sampler biases (documented rather than hidden): stacks deeper
//! than [`MAX_FRAMES`] are truncated at the top (`prof.truncated` counts
//! pushes beyond the window); spans shorter than the sampling period are
//! seen probabilistically in proportion to their duration (that is the
//! point of sampling); and a span that was already open when the profiler
//! started is invisible until the next span starts under it, because only
//! spans started while profiling publish frames.

use crate::metrics::Counter;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Span-stack frames published per thread. Deeper stacks are truncated at
/// the top; real talon pipelines are 3–6 frames deep.
pub const MAX_FRAMES: usize = 32;

/// Bounded seqlock read retries before a sample is abandoned as torn.
const TORN_RETRIES: usize = 8;

/// Profilers currently running. The publish gate: spans publish while this
/// is non-zero. A count (not a bool) so overlapping profilers compose.
static ACTIVE_PROFILERS: AtomicUsize = AtomicUsize::new(0);

/// Whether any profiler is running — the one relaxed load every span pays.
#[inline]
pub fn enabled() -> bool {
    ACTIVE_PROFILERS.load(Ordering::Relaxed) != 0
}

// ── Stage interning ─────────────────────────────────────────────────────

/// Stage names are `&'static str`; slots store them as dense `u32` ids so
/// a frame is one atomic word. The global table assigns ids; each thread
/// caches its own stage → id map so the publish path takes no global lock.
#[derive(Default)]
struct Interner {
    ids: BTreeMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new(Interner::default()))
}

fn intern(stage: &'static str) -> u32 {
    let mut table = interner().lock();
    if let Some(&id) = table.ids.get(stage) {
        return id;
    }
    let id = table.names.len() as u32;
    table.names.push(stage);
    table.ids.insert(stage, id);
    id
}

/// The stage name behind an interned id (sampler side).
fn stage_name(id: u32) -> &'static str {
    interner()
        .lock()
        .names
        .get(id as usize)
        .copied()
        .unwrap_or("?")
}

// ── Per-thread slots ────────────────────────────────────────────────────

/// One thread's published span stack: a single-writer seqlock over a
/// fixed frame buffer. The owning thread is the only writer; the sampler
/// reads optimistically and validates with the generation counter.
pub struct SpanSlot {
    /// Seqlock generation: odd while the owner is mid-update.
    generation: AtomicU64,
    /// Current stack depth (may exceed [`MAX_FRAMES`]; frames beyond the
    /// window are not stored).
    depth: AtomicUsize,
    /// Interned stage ids, outermost first.
    frames: [AtomicU32; MAX_FRAMES],
    /// Whether the owning thread is still alive (dead slots are skipped
    /// and garbage-collected by the sampler).
    live: AtomicBool,
}

impl SpanSlot {
    fn new() -> Self {
        SpanSlot {
            generation: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
            frames: [const { AtomicU32::new(0) }; MAX_FRAMES],
            live: AtomicBool::new(true),
        }
    }

    /// Owner-side write prologue: bump the generation to odd. The slot is
    /// single-writer, so a plain load + store (no RMW) suffices; the
    /// release fence keeps the odd marker ahead of the data stores that
    /// follow (pairs with the acquire fence in [`SpanSlot::sample`] — the
    /// crossbeam `SeqLock` recipe, a no-op on x86). The matching epilogue
    /// is the release store of `gen + 2`.
    fn write_begin(&self) -> u64 {
        let gen = self.generation.load(Ordering::Relaxed);
        self.generation.store(gen + 1, Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::Release);
        gen
    }

    /// Owner-side push; returns the depth the frame went in at. Relaxed
    /// data stores are safe: each frame is a single atomic word, and the
    /// generation protocol orders them against the sampler's reads.
    fn push(&self, id: u32) -> usize {
        let depth = self.depth.load(Ordering::Relaxed);
        let gen = self.write_begin();
        if depth < MAX_FRAMES {
            self.frames[depth].store(id, Ordering::Relaxed);
        } else {
            counters().truncated.inc();
        }
        self.depth.store(depth + 1, Ordering::Relaxed);
        self.generation.store(gen + 2, Ordering::Release);
        depth
    }

    /// Owner-side pop of the frame pushed at depth `at`, together with
    /// every frame above it: the stack shrinks back to exactly `at`. A
    /// span dropped out of order thus takes the frames of the spans it
    /// enclosed with it rather than popping a sibling's frame; those
    /// spans' own pops then find their frames gone and do nothing.
    fn pop_to(&self, at: usize) {
        if self.depth.load(Ordering::Relaxed) <= at {
            return;
        }
        let gen = self.write_begin();
        self.depth.store(at, Ordering::Relaxed);
        self.generation.store(gen + 2, Ordering::Release);
    }

    /// Sampler-side optimistic read: `None` when the slot is idle, torn
    /// past the retry budget, or dead. The returned stack is outermost
    /// first, truncated to [`MAX_FRAMES`].
    fn sample(&self, out: &mut StackKey) -> bool {
        for _ in 0..TORN_RETRIES {
            let before = self.generation.load(Ordering::Acquire);
            if before % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let depth = self.depth.load(Ordering::Relaxed).min(MAX_FRAMES);
            for (i, frame) in out.frames.iter_mut().enumerate().take(depth) {
                *frame = self.frames[i].load(Ordering::Relaxed);
            }
            // Acquire fence before re-reading the generation: if any data
            // read above saw a write the owner made after its release
            // fence, this read sees the odd generation too.
            std::sync::atomic::fence(Ordering::Acquire);
            let after = self.generation.load(Ordering::Relaxed);
            if before == after {
                out.depth = depth as u8;
                return depth > 0;
            }
        }
        counters().torn.inc();
        false
    }
}

impl std::fmt::Debug for SpanSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanSlot")
            .field("depth", &self.depth.load(Ordering::Relaxed))
            .field("live", &self.live.load(Ordering::Relaxed))
            .finish()
    }
}

/// Registry of every thread's slot. Slots register on a thread's first
/// publish and are marked dead (then dropped by the next sampler pass)
/// when the thread exits.
fn slots() -> &'static Mutex<Vec<Arc<SpanSlot>>> {
    static SLOTS: OnceLock<Mutex<Vec<Arc<SpanSlot>>>> = OnceLock::new();
    SLOTS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Thread-local handle: the thread's slot plus its private stage → id
/// cache (so the publish path takes no global lock after the first use of
/// a stage on the thread). The `Drop` marks the slot dead on thread exit.
struct ThreadSlot {
    slot: Arc<SpanSlot>,
    stage_ids: BTreeMap<&'static str, u32>,
    /// One-entry cache for the common case — a hot loop re-entering the
    /// same stage — compared by pointer identity (`&'static str` literals
    /// are stable), skipping the map walk entirely.
    last: Option<(&'static str, u32)>,
}

impl ThreadSlot {
    fn register() -> Self {
        let slot = Arc::new(SpanSlot::new());
        slots().lock().push(Arc::clone(&slot));
        ThreadSlot {
            slot,
            stage_ids: BTreeMap::new(),
            last: None,
        }
    }

    fn stage_id(&mut self, stage: &'static str) -> u32 {
        if let Some((s, id)) = self.last {
            if std::ptr::eq(s, stage) {
                return id;
            }
        }
        let id = match self.stage_ids.get(stage) {
            Some(&id) => id,
            None => {
                let id = intern(stage);
                self.stage_ids.insert(stage, id);
                id
            }
        };
        self.last = Some((stage, id));
        id
    }
}

impl Drop for ThreadSlot {
    fn drop(&mut self) {
        self.slot.live.store(false, Ordering::Release);
    }
}

thread_local! {
    static THREAD_SLOT: RefCell<Option<ThreadSlot>> = const { RefCell::new(None) };
}

/// Span-start hook: publishes `stage` onto this thread's slot when a
/// profiler is running. Returns the depth the frame was pushed at — the
/// span must call [`handle_pop`] with it on drop iff a frame was pushed,
/// so spans that straddle profiler start/stop stay balanced.
#[inline]
pub(crate) fn handle_push(stage: &'static str) -> Option<usize> {
    if !enabled() {
        return None;
    }
    Some(publish_push(stage))
}

/// The out-of-line publish body (kept separate so the disabled path stays
/// a load + branch).
fn publish_push(stage: &'static str) -> usize {
    THREAD_SLOT.with(|cell| {
        let mut cell = cell.borrow_mut();
        let ts = cell.get_or_insert_with(ThreadSlot::register);
        let id = ts.stage_id(stage);
        ts.slot.push(id)
    })
}

/// Span-drop hook paired with a [`handle_push`] that pushed at depth `at`:
/// shrinks the stack back to `at`, whatever the order spans drop in.
pub(crate) fn handle_pop(at: usize) {
    THREAD_SLOT.with(|cell| {
        if let Some(ts) = cell.borrow_mut().as_ref() {
            ts.slot.pop_to(at);
        }
    });
}

// ── Sampler ─────────────────────────────────────────────────────────────

/// A sampled stack as a fixed-size key: no allocation per sample once a
/// stack's tally entry exists.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct StackKey {
    depth: u8,
    frames: [u32; MAX_FRAMES],
}

impl StackKey {
    fn empty() -> Self {
        StackKey {
            depth: 0,
            frames: [0; MAX_FRAMES],
        }
    }

    fn path(&self) -> String {
        let mut out = String::new();
        for (i, &id) in self.frames.iter().take(self.depth as usize).enumerate() {
            if i > 0 {
                out.push(';');
            }
            out.push_str(stage_name(id));
        }
        out
    }
}

struct ProfCounters {
    samples: Arc<Counter>,
    stacks: Arc<Counter>,
    torn: Arc<Counter>,
    truncated: Arc<Counter>,
}

/// Global `prof.*` series, registered once: scrapes see sampler activity
/// alongside everything else.
fn counters() -> &'static ProfCounters {
    static COUNTERS: OnceLock<ProfCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| ProfCounters {
        samples: crate::counter("prof.samples"),
        stacks: crate::counter("prof.stacks"),
        torn: crate::counter("prof.torn"),
        truncated: crate::counter("prof.truncated"),
    })
}

#[derive(Default)]
struct Tally {
    /// stack → number of samples that observed it.
    folded: BTreeMap<StackKey, u64>,
    /// Sampler passes taken.
    passes: u64,
}

/// A running sampling profiler. Spans publish while at least one
/// [`Profiler`] is alive; a background thread tallies the published
/// stacks every `period`. Dropping the profiler stops the thread and
/// (when it is the last one) turns the publish gate back off.
pub struct Profiler {
    state: Arc<ProfilerState>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

struct ProfilerState {
    tally: Mutex<Tally>,
}

impl Profiler {
    /// Starts profiling: enables the publish gate and spawns a sampler
    /// thread walking the slots every `period` (clamped to ≥ 10 µs).
    pub fn start(period: Duration) -> Profiler {
        ACTIVE_PROFILERS.fetch_add(1, Ordering::Relaxed);
        let period = period.max(Duration::from_micros(10));
        let state = Arc::new(ProfilerState {
            tally: Mutex::new(Tally::default()),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let thread_state = Arc::clone(&state);
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("talon-prof".into())
            .spawn(move || {
                // Sleep in bounded chunks so drop never waits out a long
                // period, and long periods (idle profilers) stay cheap.
                let chunk = period.min(Duration::from_millis(50));
                let mut slept = Duration::ZERO;
                while !stop_flag.load(Ordering::Acquire) {
                    std::thread::sleep(chunk);
                    slept += chunk;
                    if slept >= period {
                        slept = Duration::ZERO;
                        thread_state.sample_pass();
                    }
                }
            })
            .expect("spawn profiler thread");
        Profiler {
            state,
            stop,
            thread: Some(thread),
        }
    }

    /// Starts with a sampling rate in Hz (1000 → 1 kHz).
    pub fn start_hz(hz: u64) -> Profiler {
        Profiler::start(Duration::from_nanos(1_000_000_000 / hz.max(1)))
    }

    /// One synchronous sampler pass (the thread runs the same code on its
    /// timer). Public for benches and deterministic tests.
    pub fn sample_now(&self) {
        self.state.sample_pass();
    }

    /// Sampler passes taken so far.
    pub fn passes(&self) -> u64 {
        self.state.tally.lock().passes
    }

    /// The accumulated folded stacks, sorted by path: `(path;to;span,
    /// samples)` — the format [`crate::tree::folded_stacks`] emits and
    /// flamegraph tooling consumes.
    pub fn folded(&self) -> Vec<(String, u64)> {
        let tally = self.state.tally.lock();
        let mut out: Vec<(String, u64)> = tally
            .folded
            .iter()
            .map(|(stack, &n)| (stack.path(), n))
            .collect();
        drop(tally);
        out.sort();
        out
    }

    /// The folded stacks as text, one `path count` line each.
    pub fn folded_text(&self) -> String {
        folded_to_text(&self.folded())
    }

    /// Folded stacks accumulated *after* `baseline` (an earlier
    /// [`Profiler::folded`] snapshot) — the `/profile?seconds=N` window.
    pub fn folded_since(&self, baseline: &[(String, u64)]) -> Vec<(String, u64)> {
        let base: BTreeMap<&str, u64> = baseline.iter().map(|(p, n)| (p.as_str(), *n)).collect();
        self.folded()
            .into_iter()
            .filter_map(|(path, n)| {
                let delta = n - base.get(path.as_str()).copied().unwrap_or(0);
                (delta > 0).then_some((path, delta))
            })
            .collect()
    }
}

/// Renders folded stacks as flamegraph input text, one `path count` line
/// each — the exact format `talon report --flame` emits.
pub fn folded_to_text(folded: &[(String, u64)]) -> String {
    let mut out = String::new();
    for (path, n) in folded {
        out.push_str(path);
        out.push(' ');
        out.push_str(&n.to_string());
        out.push('\n');
    }
    out
}

impl ProfilerState {
    fn sample_pass(&self) {
        // Snapshot the slot list outside the tally lock; drop dead slots
        // on the way (their final stacks were already sampled or idle).
        let mut registry = slots().lock();
        registry.retain(|slot| slot.live.load(Ordering::Acquire));
        let live: Vec<Arc<SpanSlot>> = registry.clone();
        drop(registry);
        counters().samples.inc();
        let mut key = StackKey::empty();
        let mut tally = self.tally.lock();
        tally.passes += 1;
        for slot in &live {
            if slot.sample(&mut key) {
                counters().stacks.inc();
                *tally.folded.entry(key).or_insert(0) += 1;
            }
        }
    }
}

impl Drop for Profiler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        ACTIVE_PROFILERS.fetch_sub(1, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("passes", &self.passes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A long-period profiler whose thread never fires during a test;
    /// every sample is taken deterministically via `sample_now`.
    fn manual_profiler() -> Profiler {
        Profiler::start(Duration::from_secs(3600))
    }

    /// This thread's published stack, outermost first.
    fn published() -> Vec<&'static str> {
        THREAD_SLOT.with(|cell| {
            let cell = cell.borrow();
            let Some(ts) = cell.as_ref() else {
                return Vec::new();
            };
            let depth = ts.slot.depth.load(Ordering::Relaxed).min(MAX_FRAMES);
            (0..depth)
                .map(|i| stage_name(ts.slot.frames[i].load(Ordering::Relaxed)))
                .collect()
        })
    }

    #[test]
    fn publish_gate_is_off_by_default_and_tracks_profilers() {
        let _guard = crate::testing::lock();
        let before = ACTIVE_PROFILERS.load(Ordering::Relaxed);
        assert_eq!(before, 0, "no other profiler runs under the lock");
        let p1 = manual_profiler();
        let p2 = manual_profiler();
        assert!(enabled());
        assert_eq!(ACTIVE_PROFILERS.load(Ordering::Relaxed), before + 2);
        drop(p1);
        assert!(enabled());
        drop(p2);
        assert_eq!(ACTIVE_PROFILERS.load(Ordering::Relaxed), before);
    }

    #[test]
    fn sampler_sees_the_published_stack() {
        let _guard = crate::testing::lock();
        let prof = manual_profiler();
        let _outer = crate::span("prof.test.outer");
        let _inner = crate::span("prof.test.inner");
        prof.sample_now();
        prof.sample_now();
        let folded = prof.folded();
        let hit = folded
            .iter()
            .find(|(path, _)| path.ends_with("prof.test.outer;prof.test.inner"))
            .unwrap_or_else(|| panic!("stack not sampled: {folded:?}"));
        assert!(hit.1 >= 2, "both passes observed the stack: {folded:?}");
    }

    #[test]
    fn folded_since_reports_only_the_window() {
        let _guard = crate::testing::lock();
        let prof = manual_profiler();
        {
            let _a = crate::span("prof.test.before");
            prof.sample_now();
        }
        let baseline = prof.folded();
        assert!(prof.folded_since(&baseline).is_empty(), "empty window");
        {
            let _b = crate::span("prof.test.after");
            prof.sample_now();
        }
        let window = prof.folded_since(&baseline);
        assert!(
            window
                .iter()
                .all(|(path, _)| !path.contains("prof.test.before")),
            "pre-baseline stacks leaked into the window: {window:?}"
        );
        assert!(
            window
                .iter()
                .any(|(path, _)| path.ends_with("prof.test.after")),
            "window missed the new stack: {window:?}"
        );
    }

    #[test]
    fn spans_open_across_profiler_start_do_not_corrupt_the_stack() {
        // `outer` starts unprofiled, so its drop must not pop `inner`'s
        // frame (the push/pop pairing is tracked per span). The lock keeps
        // every other profiler of this crate's tests off meanwhile.
        let _guard = crate::testing::lock();
        assert!(!enabled(), "publish gate off before this test's profiler");
        let outer = crate::span("prof.test.straddle_outer");
        let prof = manual_profiler();
        let inner = crate::span("prof.test.straddle_inner");
        drop(outer); // pops nothing: it never pushed
        prof.sample_now();
        let folded = prof.folded();
        assert!(
            folded
                .iter()
                .any(|(path, _)| path.ends_with("prof.test.straddle_inner")),
            "inner frame lost to an unbalanced pop: {folded:?}"
        );
        drop(inner);
        prof.sample_now();
    }

    #[test]
    fn out_of_order_drops_never_leave_a_dropped_frame_published() {
        // A profiler ticking every millisecond runs for the whole test,
        // so its sampler reads the slot while spans drop out of order.
        let _guard = crate::testing::lock();
        let prof = Profiler::start(Duration::from_millis(1));
        let a = crate::span("prof.test.ooo_a");
        let b = crate::span("prof.test.ooo_b");
        let c = crate::span("prof.test.ooo_c");
        assert_eq!(
            published(),
            ["prof.test.ooo_a", "prof.test.ooo_b", "prof.test.ooo_c"]
        );
        // `b` drops before the span it encloses: the stack shrinks back
        // to the depth `b` pushed at, taking `c`'s frame with it, and
        // never leaves `b` published under a live `c`.
        drop(b);
        assert_eq!(published(), ["prof.test.ooo_a"]);
        let baseline = prof.folded();
        prof.sample_now();
        let window = prof.folded_since(&baseline);
        assert!(
            window.iter().any(|(p, _)| p == "prof.test.ooo_a"),
            "{window:?}"
        );
        // `c`'s frame is already gone: its drop must not pop `a`'s.
        drop(c);
        assert_eq!(published(), ["prof.test.ooo_a"]);
        // A span started now sits right above `a`, not above stale frames.
        let d = crate::span("prof.test.ooo_d");
        assert_eq!(published(), ["prof.test.ooo_a", "prof.test.ooo_d"]);
        drop(a);
        assert!(published().is_empty(), "{:?}", published());
        drop(d);
        assert!(published().is_empty(), "{:?}", published());
        let e = crate::span("prof.test.ooo_e");
        assert_eq!(published(), ["prof.test.ooo_e"]);
        drop(e);
        assert!(published().is_empty());
        // Every sample, from the ticking thread or by hand, saw one of
        // the stacks the spans really formed: never a frame of a span
        // after it dropped.
        let formed: Vec<String> = [
            &["a"][..],
            &["a", "b"],
            &["a", "b", "c"],
            &["a", "d"],
            &["e"],
        ]
        .iter()
        .map(|stack| {
            let names: Vec<String> = stack.iter().map(|s| format!("prof.test.ooo_{s}")).collect();
            names.join(";")
        })
        .collect();
        for (path, _) in prof.folded() {
            if path.contains("prof.test.ooo") {
                assert!(formed.contains(&path), "stale frame sampled: {path}");
            }
        }
    }

    #[test]
    fn deep_stacks_truncate_without_corruption() {
        let _guard = crate::testing::lock();
        let prof = manual_profiler();
        let spans: Vec<crate::Span> = (0..MAX_FRAMES + 4)
            .map(|_| crate::span("prof.test.deep"))
            .collect();
        prof.sample_now();
        let folded = prof.folded();
        let deepest = folded
            .iter()
            .map(|(path, _)| path.matches("prof.test.deep").count())
            .max()
            .unwrap_or(0);
        assert!(deepest <= MAX_FRAMES, "sampled past the frame window");
        assert!(deepest > 0, "deep stack not sampled at all: {folded:?}");
        drop(spans);
        // All pops balanced: the slot is empty again.
        prof.sample_now();
    }

    #[test]
    fn sampler_thread_ticks_on_its_own() {
        let _guard = crate::testing::lock();
        let prof = Profiler::start(Duration::from_millis(1));
        let _held = crate::span("prof.test.ticking");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while prof.passes() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(prof.passes() > 0, "sampler thread never fired");
    }

    #[test]
    fn dead_thread_slots_are_garbage_collected() {
        let _guard = crate::testing::lock();
        let prof = manual_profiler();
        std::thread::spawn(|| {
            let _s = crate::span("prof.test.transient");
        })
        .join()
        .expect("worker joins");
        let before = slots().lock().len();
        prof.sample_now(); // GC pass drops the dead slot
        assert!(slots().lock().len() <= before);
    }
}
