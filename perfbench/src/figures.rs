//! `figures`: the `harp all` paper-reproduction sequence at the quick
//! configuration, plus (traced run) a serial replay of the Fig. 9 sweep plan
//! with spans around sampling, ground-truth enumeration, campaigns, scoring,
//! and — through a timing decorator on the public `Profiler` trait — the
//! profilers themselves.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use harp_ecc::HammingCode;
use harp_gf2::BitVec;
use harp_memsim::ReadObservation;
use harp_profiler::{
    BatchWord, CampaignBatch, CoverageSeries, Profiler, ProfilerKind, ProfilerState,
    ProfilingCampaign,
};
use harp_sim::experiments::sweep::{run_coverage_sweep, CoverageSweep, WordEvaluation};
use harp_sim::experiments::{fig10, fig2, fig4, fig6, fig7, fig8, fig9, headline, table2};
use harp_sim::runner::effective_threads;
use harp_sim::sample::{group_by_code, sample_words, sample_words_with, shard_groups};
use harp_sim::EvaluationConfig;

use crate::measure::{digest, mix, pass_done, secs, span, timed, Trace};
use crate::{base_config, Breakdown, Options, Pass, Scale, Workload};

/// One span per experiment of a pass, in `harp all` order.
const SPANS: [&str; 8] = [
    "sim.experiments.fig2.s",
    "sim.experiments.table2.s",
    "sim.experiments.fig4.s",
    "sim.experiments.fig6_sweep.s",
    "sim.experiments.fig8.s",
    "sim.experiments.fig9_sweep.s",
    "sim.experiments.fig10.s",
    "sim.experiments.summary.s",
];

pub struct Figures {
    scale: Scale,
    seed: u64,
    /// Per-experiment output digests of each input set's first pass; later
    /// passes on the set must reproduce them.
    references: BTreeMap<usize, Vec<u64>>,
    /// The traced pass's Fig. 9 sweep, which its replay must reproduce.
    traced_fig9: Option<CoverageSweep>,
    checks: (u64, u64),
}

impl Figures {
    pub fn setup(options: &Options) -> Self {
        Self {
            scale: options.scale,
            seed: options.seed,
            references: BTreeMap::new(),
            traced_fig9: None,
            checks: (0, 0),
        }
    }

    /// Oracle checks on the first pass over an input set: one word per
    /// sweep cell re-run through the scalar `ProfilingCampaign` path, and
    /// (on the warm-up's set, the replay being costly) the replayed Fig. 9
    /// plan equal to `run_coverage_sweep`.
    fn check_first_pass(
        &mut self,
        config: &EvaluationConfig,
        fig6_sweep: &CoverageSweep,
        fig9_sweep: &CoverageSweep,
        with_replay: bool,
    ) {
        let mut checked = 0;
        let mut mismatched = 0;
        for sweep in [fig6_sweep, fig9_sweep] {
            for (cell, (&count, &probability)) in config
                .error_counts
                .iter()
                .flat_map(|c| config.probabilities.iter().map(move |p| (c, p)))
                .enumerate()
            {
                let samples = sample_words(config, count, probability);
                let word = (mix(self.seed ^ cell as u64) % samples.len() as u64) as usize;
                let sample = &samples[word];
                let campaign = ProfilingCampaign::new(
                    sample.code.clone(),
                    sample.faults.clone(),
                    config.pattern,
                    sample.campaign_seed,
                );
                let space = campaign.error_space();
                for &kind in &sweep.profilers {
                    let mut profiler =
                        kind.instantiate(campaign.code(), config.pattern, sample.campaign_seed);
                    let result = campaign.run_profiler(profiler.as_mut(), config.rounds);
                    let scalar = CoverageSeries::from_campaign(&result, &space);
                    let batched = sweep.cell(kind, count, probability).nth(word);
                    checked += 1;
                    if batched.map(|e| &e.series) != Some(&scalar) {
                        mismatched += 1;
                    }
                }
            }
        }
        if with_replay {
            let replayed = replay_sweep(config, &fig9::PROFILERS, &mut Trace::default());
            for candidate in [&replayed.sweep, &replayed.reference] {
                checked += 1;
                if candidate != fig9_sweep {
                    mismatched += 1;
                }
            }
        }
        self.checks.0 += checked;
        self.checks.1 += mismatched;
    }
}

impl Workload for Figures {
    fn pass(&mut self, set: usize, mut trace: Option<&mut Trace>) -> Pass {
        let config = &base_config(self.scale, self.seed, set);
        let start = Instant::now();
        let mut outputs: Vec<String> = Vec::with_capacity(SPANS.len());
        let mut step =
            |trace: &mut Option<&mut Trace>, index: usize, f: &mut dyn FnMut() -> String| {
                outputs.push(span(trace, SPANS[index], f));
            };
        step(&mut trace, 0, &mut || fig2::run().render());
        step(&mut trace, 1, &mut || table2::run().render());
        step(&mut trace, 2, &mut || fig4::run(config).render());
        let mut fig6_sweep = None;
        step(&mut trace, 3, &mut || {
            // Figs. 6 and 7 share one sweep, as in `harp all`.
            let sweep = run_coverage_sweep(config, &fig6::PROFILERS);
            let text = fig6::from_sweep(&sweep).render() + &fig7::from_sweep(&sweep).render();
            fig6_sweep = Some(sweep);
            text
        });
        // The first coverage figure, the paper's central result.
        let first_result = secs(start);
        step(&mut trace, 4, &mut || fig8::run(config).render());
        let mut fig9_run = None;
        step(&mut trace, 5, &mut || {
            let sweep = run_coverage_sweep(config, &fig9::PROFILERS);
            let result = fig9::from_sweep(&sweep);
            let text = result.render();
            fig9_run = Some((sweep, result));
            text
        });
        let mut fig10_result = None;
        step(&mut trace, 6, &mut || {
            let result = fig10::run(config);
            let text = result.render();
            fig10_result = Some(result);
            text
        });
        let (fig9_sweep, fig9_result) = fig9_run.expect("the fig9 step ran");
        let fig10_result = fig10_result.expect("the fig10 step ran");
        step(&mut trace, 7, &mut || {
            headline::summarize(config, &fig9_result, &fig10_result).render()
        });
        let wall = pass_done(start);

        let digests: Vec<u64> = outputs.iter().map(|text| digest(text.as_bytes())).collect();
        let failed = match self.references.get(&set) {
            Some(reference) => reference
                .iter()
                .zip(&digests)
                .filter(|(a, b)| a != b)
                .count(),
            None => {
                let with_replay = self.references.is_empty();
                self.references.insert(set, digests);
                let fig6_sweep = fig6_sweep.expect("the fig6 step ran");
                self.check_first_pass(config, &fig6_sweep, &fig9_sweep, with_replay);
                0
            }
        };
        if trace.is_some() {
            self.traced_fig9 = Some(fig9_sweep);
        }
        Pass {
            wall,
            jobs: vec![wall],
            first_result,
            attempted: SPANS.len() as u64,
            failed: failed as u64,
        }
    }

    /// The experiment spans tile the pass; the Fig. 9 sweep is broken down
    /// further by a serial replay of its plan, whose layer self times must
    /// account for `run_coverage_sweep` on one thread. The replay and the
    /// reference must both equal the traced pass's sweep.
    fn breakdown(&mut self, set: usize, _traced: &Pass, trace: &mut Trace) -> Option<Breakdown> {
        let config = base_config(self.scale, self.seed, set);
        let replayed = replay_sweep(&config, &fig9::PROFILERS, trace);
        let traced = self.traced_fig9.take();
        for candidate in [&replayed.sweep, &replayed.reference] {
            self.checks.0 += 1;
            if traced.as_ref() != Some(candidate) {
                self.checks.1 += 1;
            }
        }
        Some(Breakdown {
            reference: replayed.reference_s,
            accounted: replayed.accounted,
        })
    }

    fn verify(&mut self) -> (u64, u64) {
        self.checks
    }

    fn finish(self: Box<Self>) {}
}

/// Span name of one profiler kind's campaigns.
fn campaign_span(kind: ProfilerKind) -> &'static str {
    match kind {
        ProfilerKind::Naive => "profiler.campaign.naive.s",
        ProfilerKind::Beep => "profiler.campaign.beep.s",
        ProfilerKind::HarpU => "profiler.campaign.harp_u.s",
        ProfilerKind::HarpA => "profiler.campaign.harp_a.s",
        ProfilerKind::HarpABeep => "profiler.campaign.harp_a_beep.s",
        ProfilerKind::HarpS => "profiler.campaign.harp_s.s",
    }
}

/// What [`replay_sweep`] returns.
pub struct ReplayedSweep {
    /// The assembled sweep, which must equal `run_coverage_sweep`'s.
    pub sweep: CoverageSweep,
    /// Seconds the layer spans account for.
    pub accounted: f64,
    /// `run_coverage_sweep` on one thread, called cell by cell between the
    /// replayed cells so that drifts in host speed hit both alike.
    pub reference: CoverageSweep,
    pub reference_s: f64,
}

/// Replays `run_coverage_sweep`'s plan serially — sample each cell, group
/// by code, shard as the parallel runner would, then per group: ground
/// truth, one `CampaignBatch::run_profilers` per profiler kind through
/// timing decorators, scoring — recording a span around each layer. After
/// each cell it times the public entry point on that cell alone, with one
/// thread: sampling draws each cell's words from its own seeds, and with at
/// least two codes per cell the runner does not shard, so the reference
/// runs the same plan.
pub fn replay_sweep(
    config: &EvaluationConfig,
    profilers: &[ProfilerKind],
    trace: &mut Trace,
) -> ReplayedSweep {
    let tally = Arc::new(Mutex::new(Tally::default()));
    let make_code = |seed| {
        HammingCode::random(config.data_bits, seed).expect("a valid configuration yields codes")
    };
    let threads = effective_threads(config.threads);
    let mut evaluations = Vec::new();
    let mut campaigns = 0.0;
    let mut reference_evaluations = Vec::new();
    let mut reference_s = 0.0;
    for &error_count in &config.error_counts {
        for &probability in &config.probabilities {
            let samples = trace.span("sim.sample.s", || {
                sample_words_with(config, error_count, probability, make_code)
            });
            for group in shard_groups(group_by_code(&samples), threads) {
                let batch = CampaignBatch::new(
                    group[0].code.clone(),
                    group
                        .iter()
                        .map(|s| BatchWord::new(s.faults.clone(), config.pattern, s.campaign_seed))
                        .collect(),
                );
                let spaces: Vec<_> = trace.span("ecc.error_space.s", || {
                    (0..batch.len())
                        .map(|word| batch.error_space(word))
                        .collect()
                });
                let mut per_word: Vec<Vec<WordEvaluation>> = vec![Vec::new(); batch.len()];
                for &kind in profilers {
                    let (results, seconds) = timed(|| {
                        let mut decorated: Vec<Box<dyn Profiler>> = batch
                            .words()
                            .iter()
                            .map(|word| {
                                Box::new(TimedProfiler::new(
                                    kind.instantiate(batch.code(), word.pattern, word.seed),
                                    Arc::clone(&tally),
                                    kind == ProfilerKind::HarpA,
                                )) as Box<dyn Profiler>
                            })
                            .collect();
                        batch.run_profilers(&mut decorated, config.rounds)
                    });
                    trace.add(campaign_span(kind), seconds);
                    campaigns += seconds;
                    let series: Vec<CoverageSeries> = trace.span("profiler.score.s", || {
                        results
                            .iter()
                            .zip(&spaces)
                            .map(|(result, space)| CoverageSeries::from_campaign(result, space))
                            .collect()
                    });
                    for (word, series) in per_word.iter_mut().zip(series) {
                        word.push(WordEvaluation {
                            error_count,
                            probability,
                            profiler: kind,
                            series,
                        });
                    }
                }
                evaluations.extend(per_word.into_iter().flatten());
            }
            let cell = EvaluationConfig {
                threads: 1,
                error_counts: vec![error_count],
                probabilities: vec![probability],
                ..config.clone()
            };
            let (reference, seconds) = timed(|| run_coverage_sweep(&cell, profilers));
            reference_evaluations.extend(reference.evaluations);
            reference_s += seconds;
        }
    }
    let tally = lock(&tally);
    let profiler_time =
        tally.dataword.seconds() + tally.observe.seconds() + tally.snapshot.seconds();
    trace.add("profiler.dataword.s", tally.dataword.seconds());
    trace.add("profiler.observe.s", tally.observe.seconds());
    trace.add("profiler.snapshot.s", tally.snapshot.seconds());
    trace.add("memsim.burst.s", campaigns - profiler_time);
    let reads = tally.observe.made;
    trace.add("memsim.word_reads", reads as f64);
    trace.set(
        "memsim.dirty_share",
        tally.dirty as f64 / reads.max(1) as f64,
    );
    trace.add("profiler.harp_a.refreshes", tally.refreshes as f64);
    let accounted = campaigns
        + trace.get("sim.sample.s")
        + trace.get("ecc.error_space.s")
        + trace.get("profiler.score.s");
    let sweep = |evaluations| CoverageSweep {
        rounds: config.rounds,
        error_counts: config.error_counts.clone(),
        probabilities: config.probabilities.clone(),
        profilers: profilers.to_vec(),
        evaluations,
    };
    ReplayedSweep {
        sweep: sweep(evaluations),
        accounted,
        reference: sweep(reference_evaluations),
        reference_s,
    }
}

/// One in this many calls of each kind a [`TimedProfiler`] makes is timed.
/// A clock read costs about as much as a short profiler call, so timing
/// every call inflated the replay by a quarter (and `memsim.burst.s`, which
/// is what the profiler spans leave of a campaign, with it).
const SAMPLE_EVERY: u64 = 16;

/// The calls of one kind a [`TimedProfiler`] made, and the timed sample.
#[derive(Debug, Default, Clone, Copy)]
struct Calls {
    made: u64,
    timed: u64,
    timed_ns: u64,
}

impl Calls {
    /// Runs `f`, timing it if it is the sampled one of `SAMPLE_EVERY` calls.
    fn run<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.made += 1;
        if !self.made.is_multiple_of(SAMPLE_EVERY) {
            return f();
        }
        let start = Instant::now();
        let value = f();
        self.timed += 1;
        self.timed_ns += start.elapsed().as_nanos() as u64;
        value
    }

    fn merge(&mut self, other: Calls) {
        self.made += other.made;
        self.timed += other.timed;
        self.timed_ns += other.timed_ns;
    }

    /// Seconds of all calls, scaled up from the timed sample.
    fn seconds(&self) -> f64 {
        if self.timed == 0 {
            return 0.0;
        }
        self.timed_ns as f64 * self.made as f64 / self.timed as f64 / 1e9
    }
}

/// Calls and counts gathered by [`TimedProfiler`]s.
#[derive(Debug, Default)]
struct Tally {
    dataword: Calls,
    observe: Calls,
    snapshot: Calls,
    /// Observed reads with a nonzero raw error pattern.
    dirty: u64,
    /// HARP-A `observe_round` calls that grew `identified`.
    refreshes: u64,
}

fn lock(tally: &Mutex<Tally>) -> MutexGuard<'_, Tally> {
    // Plain counters: a panicked holder leaves them usable.
    tally.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A `Profiler` decorator timing the calls the campaign engine makes into
/// the profiler: pattern generation, observation, and the per-round
/// prediction snapshot. Everything else in a campaign is the memory
/// simulator's burst (write, fault injection, syndrome kernel, decode).
/// It counts in its own fields and adds them to the shared tally when
/// dropped, so calls pay no lock or atomic.
#[derive(Debug)]
struct TimedProfiler {
    inner: Box<dyn Profiler>,
    shared: Arc<Mutex<Tally>>,
    counts_refreshes: bool,
    own: Tally,
    /// `predicted` takes `&self`.
    snapshot: Cell<Calls>,
}

impl TimedProfiler {
    fn new(inner: Box<dyn Profiler>, shared: Arc<Mutex<Tally>>, counts_refreshes: bool) -> Self {
        Self {
            inner,
            shared,
            counts_refreshes,
            own: Tally::default(),
            snapshot: Cell::new(Calls::default()),
        }
    }
}

impl Drop for TimedProfiler {
    fn drop(&mut self) {
        let mut shared = lock(&self.shared);
        shared.dataword.merge(self.own.dataword);
        shared.observe.merge(self.own.observe);
        shared.snapshot.merge(self.snapshot.get());
        shared.dirty += self.own.dirty;
        shared.refreshes += self.own.refreshes;
    }
}

impl Profiler for TimedProfiler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn dataword_for_round(&mut self, round: usize) -> BitVec {
        let inner = &mut self.inner;
        self.own.dataword.run(|| inner.dataword_for_round(round))
    }

    fn observe_round(&mut self, round: usize, observation: &ReadObservation) {
        self.own.dirty += u64::from(!observation.raw_error_pattern().is_zero());
        let before = self.inner.identified().len();
        let inner = &mut self.inner;
        self.own
            .observe
            .run(|| inner.observe_round(round, observation));
        if self.counts_refreshes && self.inner.identified().len() != before {
            self.own.refreshes += 1;
        }
    }

    fn identified(&self) -> &BTreeSet<usize> {
        self.inner.identified()
    }

    fn predicted(&self) -> BTreeSet<usize> {
        let mut calls = self.snapshot.get();
        let predicted = calls.run(|| self.inner.predicted());
        self.snapshot.set(calls);
        predicted
    }

    fn uses_bypass_read(&self) -> bool {
        self.inner.uses_bypass_read()
    }

    fn known_at_risk(&self) -> BTreeSet<usize> {
        self.inner.known_at_risk()
    }

    fn state(&self) -> ProfilerState {
        self.inner.state()
    }

    fn restore(&mut self, state: &ProfilerState) {
        self.inner.restore(state);
    }
}
