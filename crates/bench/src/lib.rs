//! Shared helpers for the benchmark harness.
//!
//! The bench targets under `benches/` time single layers that the
//! repository benchmark, `perfbench` (see BENCHMARKS.md), cannot see inside:
//! the syndrome kernel, bursts, the module and controller paths,
//! checkpointing, the `harpd` serving path, live traffic, BEER
//! reconstruction and the core operations. Two more regenerate results
//! perfbench does not time: `fig09_secondary_ecc` (for its secondary-ECC
//! strength ablation) and `ext_experiments` (the extensions). They print
//! their series before timing them. The paper's figures and tables are
//! printed by `harp` and timed by perfbench's `figures` workload. These
//! timings are local tools; perfbench is the performance record.

use harp_sim::EvaluationConfig;

/// The Monte-Carlo configuration used by the experiment benches.
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
