//! Deterministic parallel execution of independent Monte-Carlo work.
//!
//! One source of truth for thread-pool sizing and fan-out: work fans
//! out over scoped crossbeam threads, results stream back over
//! channels and are reassembled **in input order**, so parallel runs
//! are bit-identical to sequential ones. Randomised work gets
//! independence through per-stream seeds derived from a root seed
//! (SplitMix64), never through shared RNG state. The Monte-Carlo chunk
//! splitter [`par_monte_carlo`] sits on top.

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

/// Splits `total` Monte-Carlo iterations into `chunks` pieces, runs each
/// with its own derived seed on the thread pool, and folds the results.
///
/// `sim(chunk_seed, iterations)` must be a pure function of its arguments
/// for the run to be reproducible; `merge` folds chunk results in chunk
/// order, so the fold is deterministic too.
pub fn par_monte_carlo<R, S, M>(
    total: u64,
    chunks: usize,
    root_seed: u64,
    threads: usize,
    sim: S,
    merge: M,
) -> Option<R>
where
    R: Send,
    S: Fn(u64, u64) -> R + Sync,
    M: FnMut(R, R) -> R,
{
    if total == 0 || chunks == 0 {
        return None;
    }
    let chunks = chunks.min(total as usize);
    // Split iterations as evenly as possible.
    let base = total / chunks as u64;
    let extra = (total % chunks as u64) as usize;
    let work: Vec<(u64, u64)> = (0..chunks)
        .map(|c| {
            let iters = base + u64::from(c < extra);
            (derive_seed(root_seed, c as u64), iters)
        })
        .collect();
    let parts = par_map_indexed(&work, threads, |_, &(seed, iters)| sim(seed, iters));
    parts.into_iter().reduce(merge)
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

    #[test]
    fn monte_carlo_split_covers_all_iterations() {
        // Sum the iteration counts across chunks: must equal the total.
        let total = 1003u64;
        let sum = par_monte_carlo(total, 7, 42, 4, |_seed, iters| iters, |a, b| a + b).unwrap();
        assert_eq!(sum, total);
    }

    #[test]
    fn monte_carlo_deterministic_across_thread_counts() {
        // A toy "simulation" hashing its seed must give identical folds
        // regardless of thread count.
        let run = |threads| {
            par_monte_carlo(
                500,
                10,
                7,
                threads,
                |seed, iters| seed.wrapping_mul(iters),
                |a, b| a ^ b,
            )
            .unwrap()
        };
        assert_eq!(run(1), run(4));
        assert_eq!(run(2), run(8));
    }

    #[test]
    fn monte_carlo_zero_total_is_none() {
        assert_eq!(par_monte_carlo(0, 4, 1, 2, |_, _| 0u64, |a, b| a + b), None);
    }

    #[test]
    fn split_reuses_the_shared_seed_stream() {
        // The chunk seeds are exactly `derive_seed` from the root
        // seed, in chunk order.
        let seeds = par_monte_carlo(
            4,
            4,
            77,
            2,
            |seed, _| vec![seed],
            |mut a, b| {
                a.extend(b);
                a
            },
        )
        .unwrap();
        let expected: Vec<u64> = (0..4).map(|c| derive_seed(77, c)).collect();
        assert_eq!(seeds, expected);
    }
}
