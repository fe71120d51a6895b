//! Snapshot benchmarks with timing gates (benchmarks live in benches/).
