//! Shared helpers for the benchmark harness.
//!
//! Each bench target under `benches/` regenerates one table or figure of the
//! paper: it first prints the reproduced series (so `cargo bench` output
//! doubles as an experiment log) and then times the underlying computation
//! with Criterion. These timings are local tools for one layer; the
//! repository's performance record is `perfbench` (see BENCHMARKS.md).

use harp_sim::EvaluationConfig;

/// The Monte-Carlo configuration used by the figure benches.
///
/// Small enough that a full `cargo bench --workspace` finishes in minutes,
/// large enough that every qualitative trend from the paper is visible in the
/// printed series.
pub fn bench_config() -> EvaluationConfig {
    EvaluationConfig {
        num_codes: 2,
        words_per_code: 6,
        rounds: 128,
        error_counts: vec![2, 3, 4, 5],
        probabilities: vec![0.5],
        ..EvaluationConfig::quick()
    }
}

/// A further reduced configuration for the benches that sweep all profilers
/// or all probabilities.
pub fn small_bench_config() -> EvaluationConfig {
    EvaluationConfig {
        num_codes: 2,
        words_per_code: 4,
        rounds: 64,
        error_counts: vec![2, 4],
        probabilities: vec![0.5],
        ..EvaluationConfig::quick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_configs_are_valid() {
        bench_config().validate();
        small_bench_config().validate();
        assert!(small_bench_config().words_total() <= bench_config().words_total());
    }
}
