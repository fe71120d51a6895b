//! Shared deterministic-parallel execution helpers.
//!
//! One source of truth for thread-pool sizing and fan-out across the
//! workspace: the Monte-Carlo runner (`montecarlo::parallel`) builds on
//! this module, following the hpc-parallel playbook — fan work out over
//! scoped crossbeam threads, stream results back over channels, and
//! reassemble them **in input order** so parallel runs are bit-identical
//! to sequential ones. Randomised workloads get independence through
//! per-stream seeds derived from a root seed (SplitMix64), never through
//! shared RNG state.

use crossbeam::channel;

/// Number of worker threads to use: the available parallelism, capped by
/// the amount of work.
pub fn default_threads(work_items: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    hw.max(1).min(work_items.max(1))
}

/// Applies `f` to every element, in parallel, returning results in input
/// order. `f` receives the element index and a reference to the element.
///
/// Deterministic: the output only depends on `items` and `f`, not on
/// scheduling.
pub fn par_map_indexed<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    crossbeam::thread::scope(|scope| {
        let (tx, rx) = channel::unbounded::<(usize, R)>();
        for t in 0..threads {
            let tx = tx.clone();
            let f = &f;
            scope.spawn(move |_| {
                // Strided static partition: cheap and deterministic.
                let mut i = t;
                while i < n {
                    tx.send((i, f(i, &items[i]))).expect("receiver alive");
                    i += threads;
                }
            });
        }
        drop(tx);
        for (i, r) in rx {
            results[i] = Some(r);
        }
    })
    .expect("no worker panicked");
    results
        .into_iter()
        .map(|r| r.expect("every index produced"))
        .collect()
}

/// SplitMix64 seed derivation: decorrelates per-stream RNGs from a root
/// seed.
pub fn derive_seed(root: u64, stream: u64) -> u64 {
    let mut z = root
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map_indexed(&items, 8, |i, &x| (i as u64) * 1000 + x * 2);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i as u64) * 1000 + (i as u64) * 2);
        }
    }

    #[test]
    fn par_map_matches_sequential() {
        let items: Vec<u64> = (0..257).collect();
        let seq = par_map_indexed(&items, 1, |_, &x| x * x);
        let par = par_map_indexed(&items, 7, |_, &x| x * x);
        assert_eq!(seq, par);
    }

    #[test]
    fn par_map_empty_input() {
        let items: Vec<u64> = Vec::new();
        let out: Vec<u64> = par_map_indexed(&items, 4, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn derived_seeds_differ() {
        let s: std::collections::HashSet<u64> = (0..100).map(|c| derive_seed(99, c)).collect();
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn default_threads_positive_and_bounded() {
        assert!(default_threads(1000) >= 1);
        assert_eq!(default_threads(1), 1);
        assert!(default_threads(0) >= 1);
    }
}
