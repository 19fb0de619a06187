//! Benchmarks the batched syndrome kernel against the naive matrix-vector
//! path, for both code families, at single-read and batched granularity —
//! plus the end-to-end scrub-pass comparison: `MemoryChip::read_burst`
//! against a word-at-a-time `MemoryChip::read` loop.
//!
//! The kernel is the hot path of every Monte-Carlo read (each decode starts
//! with a syndrome), so this bench is the regression guard for the
//! `LinearBlockCode` layer's performance claim: packed-word evaluation beats
//! row-by-row `mul_vec`, the packed batch entry point reuses one output
//! buffer across a campaign's worth of reads, and the allocation-free burst path
//! turns that kernel speedup into an end-to-end read throughput win (the
//! `read_path/*` groups read `BURST_WORDS` words per iteration, so words/sec
//! = `BURST_WORDS` / reported per-iteration time).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use harp_bch::BchCode;
use harp_ecc::{ExtendedHammingCode, HammingCode, LinearBlockCode};
use harp_gf2::{BitVec, SyndromeKernel};
use harp_memsim::pattern::DataPattern;
use harp_memsim::{BurstScratch, FaultModel, MemoryChip};
use harp_profiler::{BatchWord, CampaignBatch, ProfilerKind, ProfilingCampaign};

/// One campaign's worth of stored (possibly corrupted) codewords.
fn stored_words<C: LinearBlockCode>(code: &C, count: usize, seed: u64) -> Vec<BitVec> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let data: BitVec = (0..code.data_len())
                .map(|_| rand::Rng::gen_bool(&mut rng, 0.5))
                .collect();
            let mut stored = code.encode(&data);
            // Corrupt a couple of positions so syndromes are non-trivial.
            stored.flip(i % stored.len());
            stored.flip((i * 7 + 3) % stored.len());
            stored
        })
        .collect()
}

fn bench_code<C: LinearBlockCode>(c: &mut Criterion, label: &str, code: &C) {
    let words = stored_words(code, 4096, 0xBEEF);
    let h = code.parity_check_matrix().clone();
    let kernel = code.syndrome_kernel();

    let mut group = c.benchmark_group(format!("syndrome_kernel/{label}"));
    group.bench_function("mul_vec_single", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % words.len();
            black_box(h.mul_vec(&words[i]))
        })
    });
    group.bench_function("kernel_single", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % words.len();
            black_box(kernel.syndrome(&words[i]))
        })
    });
    group.bench_function("kernel_word_single", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % words.len();
            black_box(kernel.syndrome_word(&words[i]))
        })
    });
    group.bench_function("kernel_batch_words_4096", |b| {
        let mut out = Vec::with_capacity(words.len());
        b.iter(|| {
            kernel.syndrome_words_into(&words, &mut out);
            black_box(out.last().copied())
        })
    });
    group.finish();
}

/// Number of ECC words per simulated scrub pass in the `read_path` groups.
const BURST_WORDS: usize = 1024;

/// End-to-end scrub pass: every word read once per iteration, through the
/// scalar reference path and through the burst path. A quarter of the words
/// carry at-risk bits so the corrected/uncorrectable decode branches stay on
/// the measured path.
fn bench_read_path<C: LinearBlockCode + Clone>(c: &mut Criterion, label: &str, code: C) {
    let n = code.codeword_len();
    let k = code.data_len();
    let mut chip = MemoryChip::new(code, BURST_WORDS);
    let mut rng = ChaCha8Rng::seed_from_u64(0x5C0B);
    for word in 0..BURST_WORDS {
        let data: BitVec = (0..k).map(|_| rand::Rng::gen_bool(&mut rng, 0.5)).collect();
        chip.write(word, &data);
        if word % 4 == 0 {
            let at_risk = [word % n, (word * 13 + 7) % n, (word * 29 + 3) % n];
            chip.set_fault_model(word, FaultModel::uniform(&at_risk[..1 + word % 3], 0.5));
        }
    }

    // Correctness cross-check before timing: burst == scalar loop.
    let mut scalar_rng = ChaCha8Rng::seed_from_u64(7);
    let scalar: Vec<_> = (0..BURST_WORDS)
        .map(|w| chip.read(w, &mut scalar_rng))
        .collect();
    let mut burst_rng = ChaCha8Rng::seed_from_u64(7);
    let mut scratch = BurstScratch::new();
    assert_eq!(
        chip.read_burst(0..BURST_WORDS, &mut burst_rng, &mut scratch),
        scalar.as_slice()
    );

    let mut group = c.benchmark_group(format!("read_path/{label}"));
    group.bench_function(format!("scalar_read_loop_{BURST_WORDS}"), |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        b.iter(|| {
            let mut corrected = 0usize;
            for word in 0..BURST_WORDS {
                corrected += chip
                    .read(word, &mut rng)
                    .decode_result()
                    .outcome
                    .correction_count();
            }
            black_box(corrected)
        })
    });
    group.bench_function(format!("read_burst_{BURST_WORDS}"), |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut scratch = BurstScratch::new();
        b.iter(|| {
            let observations = chip.read_burst(0..BURST_WORDS, &mut rng, &mut scratch);
            black_box(
                observations
                    .iter()
                    .map(|o| o.decode_result().outcome.correction_count())
                    .sum::<usize>(),
            )
        })
    });
    group.finish();
}

/// Words per simulated sweep cell in the `campaign_path` groups.
const CELL_WORDS: usize = 64;

/// Profiling rounds per campaign in the `campaign_path` groups (kept short
/// so fixed per-word setup stays a realistic fraction of a sweep cell's
/// cost; rounds/sec = `CELL_WORDS * CAMPAIGN_ROUNDS` / per-iteration time).
const CAMPAIGN_ROUNDS: usize = 16;

/// End-to-end campaign comparison for one sweep cell: the historical
/// per-word data flow (one `ProfilingCampaign` and one one-word chip per
/// word, each round a one-word burst) against the cell-batched engine (all
/// words on one chip, one multi-word burst per round). Both paths produce
/// bit-identical snapshots — asserted before timing — so the ratio is pure
/// execution-plan overhead.
fn bench_campaign_path<C: LinearBlockCode + Clone + Send + 'static>(
    c: &mut Criterion,
    label: &str,
    code: C,
) {
    let n = code.codeword_len();
    let words: Vec<BatchWord> = (0..CELL_WORDS)
        .map(|w| {
            // Fixed offsets keep the 1–3 positions distinct modulo every
            // benched codeword length (n > 41).
            let at_risk = [w % n, (w + 17) % n, (w + 41) % n];
            BatchWord::new(
                FaultModel::uniform(&at_risk[..1 + w % 3], 0.5),
                DataPattern::Random,
                0xCE11_0000 + w as u64,
            )
        })
        .collect();
    let batch = CampaignBatch::new(code.clone(), words.clone());

    // Correctness cross-check before timing: batched == scalar reference.
    let batched = batch.run(ProfilerKind::HarpU, CAMPAIGN_ROUNDS);
    for (index, result) in batched.iter().enumerate() {
        assert_eq!(
            result,
            &batch
                .scalar_campaign(index)
                .run(ProfilerKind::HarpU, CAMPAIGN_ROUNDS)
        );
    }

    let mut group = c.benchmark_group(format!("campaign_path/{label}"));
    group.bench_function(format!("per_word_{CELL_WORDS}x{CAMPAIGN_ROUNDS}"), |b| {
        b.iter(|| {
            let mut identified = 0usize;
            for word in &words {
                let campaign = ProfilingCampaign::new(
                    code.clone(),
                    word.faults.clone(),
                    word.pattern,
                    word.seed,
                );
                let result = campaign.run(ProfilerKind::HarpU, CAMPAIGN_ROUNDS);
                identified += result.final_identified().len();
            }
            black_box(identified)
        })
    });
    group.bench_function(
        format!("cell_batched_{CELL_WORDS}x{CAMPAIGN_ROUNDS}"),
        |b| {
            b.iter(|| {
                let results = batch.run(ProfilerKind::HarpU, CAMPAIGN_ROUNDS);
                black_box(
                    results
                        .iter()
                        .map(|r| r.final_identified().len())
                        .sum::<usize>(),
                )
            })
        },
    );
    group.finish();
}

fn bench_syndrome_kernels(c: &mut Criterion) {
    // Correctness cross-check before timing: kernel == matrix on every word.
    let hamming = HammingCode::random(64, 1).expect("valid code");
    let verify = stored_words(&hamming, 64, 7);
    for word in &verify {
        assert_eq!(
            hamming.syndrome_kernel().syndrome(word),
            hamming.parity_check_matrix().mul_vec(word)
        );
    }
    assert_eq!(
        SyndromeKernel::new(hamming.parity_check_matrix()),
        *hamming.syndrome_kernel()
    );

    bench_code(c, "hamming_71_64", &hamming);
    bench_code(
        c,
        "hamming_136_128",
        &HammingCode::random(128, 1).expect("valid code"),
    );
    bench_code(c, "bch_78_64", &BchCode::dec(64).expect("valid code"));

    bench_read_path(c, "hamming_71_64", hamming.clone());
    bench_read_path(
        c,
        "secded_72_64",
        ExtendedHammingCode::random(64, 1).expect("valid code"),
    );
    bench_read_path(c, "bch_78_64", BchCode::dec(64).expect("valid code"));

    bench_campaign_path(c, "hamming_71_64", hamming);
    bench_campaign_path(
        c,
        "secded_72_64",
        ExtendedHammingCode::random(64, 1).expect("valid code"),
    );
    bench_campaign_path(c, "bch_78_64", BchCode::dec(64).expect("valid code"));
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_syndrome_kernels
);
criterion_main!(benches);
