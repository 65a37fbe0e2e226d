//! The host-speed reference.
//!
//! The benchmark runs on a few vCPUs of a shared host. The same code
//! there takes up to 1.9 times as long for seconds or minutes at a time,
//! with no preemption: the core itself slows, as when another guest's
//! work on the other hyperthread of the physical core competes for its
//! L1 and L2 caches. Each timing is therefore scaled by how fast a fixed
//! reference ran next to it: a pointer chase through one ring that fits
//! in L1 and one that fits in L2. The reference is the
//! benchmark's own code and calls nothing in the repository, so a change
//! to the program cannot speed it up or slow it down; a program that
//! gets slower reads slower by the same factor.
//!
//! A scaled time is the wall time multiplied by the square of
//! [`NOMINAL_NS`] over the reference's time measured next to it: the time
//! the work would have taken had the reference run at [`NOMINAL_NS`]. The
//! exponent comes from measurement: when the core is contended, all three
//! workloads slow about as the square of the reference's slowdown
//! (`perfbench/README.md`, "How the timings are taken").

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Reference time that scales by 1, ns: the reference's time on an
/// uncontended core of the host the benchmark was calibrated on (Intel
/// Xeon, CPU model 143, 2 vCPUs). On that host a scaled time reads
/// as the wall time of a quiet run; on another host it differs from wall
/// time by a constant factor, which cancels when two commits are compared
/// on one host.
pub const NOMINAL_NS: f64 = 300_000.0;

/// Entries of the L1-sized ring (16 KiB).
const L1_ENTRIES: usize = 4 * 1024;
/// Entries of the L2-sized ring (256 KiB).
const L2_ENTRIES: usize = 64 * 1024;
/// Timed steps through each ring per reference run; each ring takes
/// about half of the reference's time.
const L1_STEPS: usize = 64 * 1024;
const L2_STEPS: usize = 32 * 1024;

/// Two rings of indices, each one cycle through all its entries in a
/// fixed pseudo-random order, so every step depends on the previous load
/// and the prefetcher cannot guess the next.
struct Rings {
    l1: Vec<u32>,
    l2: Vec<u32>,
}

/// One cycle through `n` entries: the entries in a shuffled order (a
/// fixed xorshift stream), each linked to the next.
fn ring(n: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in (1..n).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }
    let mut next = vec![0u32; n];
    for i in 0..n {
        next[order[i] as usize] = order[(i + 1) % n];
    }
    next
}

fn chase(next: &[u32], steps: usize) -> u32 {
    let mut i = 0u32;
    for _ in 0..steps {
        i = next[i as usize];
    }
    i
}

fn rings() -> &'static Rings {
    static RINGS: OnceLock<Rings> = OnceLock::new();
    RINGS.get_or_init(|| Rings {
        l1: ring(L1_ENTRIES),
        l2: ring(L2_ENTRIES),
    })
}

/// Runs the reference once and returns its wall time, ns. One untimed
/// pass through each ring first brings it into its cache, whatever the
/// work before evicted.
pub fn reference_ns() -> f64 {
    let r = rings();
    black_box(chase(black_box(&r.l1), L1_ENTRIES));
    black_box(chase(black_box(&r.l2), L2_ENTRIES));
    let t = Instant::now();
    black_box(chase(black_box(&r.l1), L1_STEPS));
    black_box(chase(black_box(&r.l2), L2_STEPS));
    t.elapsed().as_nanos() as f64
}

/// The factor that turns a wall time into a scaled time, from the
/// reference times measured next to it (their median).
pub fn scale(reference_ns: &[f64]) -> f64 {
    (NOMINAL_NS / crate::stats::median(reference_ns)).powi(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rings_are_single_cycles() {
        for n in [1usize, 2, 7, L1_ENTRIES] {
            let next = ring(n);
            let mut seen = vec![false; n];
            let mut i = 0u32;
            for _ in 0..n {
                assert!(!seen[i as usize], "ring of {n} revisits {i} early");
                seen[i as usize] = true;
                i = next[i as usize];
            }
            assert_eq!(i, 0, "ring of {n} does not close");
        }
    }

    #[test]
    fn scale_is_the_square_of_nominal_over_the_median() {
        assert_eq!(scale(&[NOMINAL_NS]), 1.0);
        assert_eq!(scale(&[NOMINAL_NS * 2.0, 1.0, NOMINAL_NS * 2.0]), 0.25);
        assert!(reference_ns() > 0.0);
    }
}
