//! Host speed: the benchmark's own calibration kernel, and pinning.
//!
//! On a shared VM a vCPU can run the same code 1.3–1.7× slower for
//! seconds to minutes at a time (see `README.md`, "Steadiness"). The
//! kernel below is fixed benchmark code that no change to the program
//! touches. It runs after every timed op, and the host-time metrics
//! divide each op by the kernel time around it. A change that speeds up
//! the program moves the scaled figures; the host's speed does not.
//!
//! The whole process, daemon threads included, is pinned to the CPU it
//! starts on, so the kernel measures the CPU that ran the op.

use std::time::Instant;

/// The kernel time the scaled figures are quoted at: a host whose
/// kernel takes 100 µs. That is about the fast speed of a 2.1 GHz Xeon
/// vCPU.
pub const KERNEL_REF_S: f64 = 100e-6;

/// How many kernel runs on each side of an op set its scale.
pub const NEIGHBOURS: usize = 4;

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and every thread it spawns later, to the
/// CPU it is running on. Returns that CPU.
pub fn pin_to_current_cpu() -> Result<usize, String> {
    const WORDS: usize = 16;
    // SAFETY: glibc's `sched_getcpu` takes no arguments and only reads
    // the calling thread's state; a failure comes back as -1.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    if cpu >= WORDS * 64 {
        return Err(format!("CPU {cpu} is beyond the affinity mask"));
    }
    let mut mask = [0u64; WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live local array for the whole call, and the
    // size passed is its size in bytes, so the kernel reads only inside
    // it; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(cpu)
}

/// One run of the calibration kernel; returns its wall seconds.
///
/// Sorts eight 512-value blocks drawn from a fixed LCG: branches,
/// integer and floating-point work on a 4 KB buffer, so whatever the op
/// before it left in the caches barely changes its time.
pub fn kernel() -> f64 {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut v = [0.0f64; 512];
    let mut acc = 0.0;
    for _ in 0..8 {
        for slot in v.iter_mut() {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *slot = (x >> 11) as f64;
        }
        v.sort_unstable_by(f64::total_cmp);
        acc += v[255];
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Per op, the factor that quotes its time at [`KERNEL_REF_S`]: the
/// reference over the median kernel time of the op's own kernel run and
/// its [`NEIGHBOURS`] on each side.
pub fn scales(kernels: &[f64]) -> Vec<f64> {
    (0..kernels.len())
        .map(|i| {
            let lo = i.saturating_sub(NEIGHBOURS);
            let hi = (i + NEIGHBOURS + 1).min(kernels.len());
            let mut near = kernels[lo..hi].to_vec();
            near.sort_by(f64::total_cmp);
            KERNEL_REF_S / near[near.len() / 2]
        })
        .collect()
}
