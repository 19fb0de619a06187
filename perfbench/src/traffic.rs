//! `traffic`: extension 7's 27-cell family × scrub × repair grid through
//! `ext_traffic::run_with_base` (1024-word chips, a 250k-tick horizon). The
//! traced run replays every cell serially through `run_traffic` to time
//! each code family and count simulated events.

use std::collections::BTreeMap;
use std::time::Instant;

use harp_bch::BchCode;
use harp_ecc::{ExtendedHammingCode, HammingCode};
use harp_sim::experiments::ext_traffic::{
    base_traffic, run_with_base, ExtTrafficCell, REPAIR_POLICIES, SCRUB_POLICIES,
};
use harp_sim::traffic::{run_traffic, TrafficConfig, TrafficReport};
use harp_sim::EvaluationConfig;

use crate::measure::{digest, mix, pass_done, span, timed, Trace};
use crate::{base_config, Breakdown, Options, Pass, Scale, Workload};

/// Family spans, in `run_with_base`'s family order.
const FAMILY_SPANS: [&str; 3] = [
    "sim.traffic.hamming.s",
    "sim.traffic.secded.s",
    "sim.traffic.bch.s",
];

/// One input set: the evaluation config and the base traffic shape.
struct Inputs {
    config: EvaluationConfig,
    base: TrafficConfig,
}

impl Inputs {
    fn new(scale: Scale, seed: u64, set: usize) -> Self {
        let config = base_config(scale, seed, set);
        let (words, horizon) = match scale {
            // A 250k-tick horizon lets even the lazy scrub cover the chip
            // about twice; longer passes made run medians follow host noise
            // (see README.md).
            Scale::Quick => (1024, 250_000),
            Scale::Smoke => (128, 20_000),
        };
        let base = TrafficConfig {
            words,
            horizon,
            ..base_traffic(&config)
        };
        base.validate();
        Self { config, base }
    }

    /// Re-runs cell `index` of the grid on its own, deriving its traffic
    /// configuration and code exactly as `run_with_base` documents.
    fn run_cell(&self, index: usize) -> TrafficReport {
        let family = index / (SCRUB_POLICIES.len() * REPAIR_POLICIES.len());
        let scrub = index / REPAIR_POLICIES.len() % SCRUB_POLICIES.len();
        let repair = index % REPAIR_POLICIES.len();
        let cell = TrafficConfig {
            scrub_interval: SCRUB_POLICIES[scrub].1,
            repair_update_latency: REPAIR_POLICIES[repair].1,
            seed: self.base.seed ^ ((family as u64 + 1) << 24),
            ..self.base.clone()
        };
        let code_seed = self.config.seed_for(family, 0, 0x7F1C);
        let data_bits = self.base.data_bits;
        match family {
            0 => run_traffic(
                &cell,
                HammingCode::random(data_bits, code_seed).expect("code"),
            ),
            1 => run_traffic(
                &cell,
                ExtendedHammingCode::random(data_bits, code_seed).expect("code"),
            ),
            _ => run_traffic(&cell, BchCode::dec(data_bits).expect("code")),
        }
    }
}

pub struct Traffic {
    scale: Scale,
    seed: u64,
    /// Each input set's first cells and table digest; later passes and
    /// replays on the set must reproduce them.
    references: BTreeMap<usize, (Vec<ExtTrafficCell>, u64)>,
    checks: (u64, u64),
}

impl Traffic {
    pub fn setup(options: &Options) -> Self {
        Self {
            scale: options.scale,
            seed: options.seed,
            references: BTreeMap::new(),
            checks: (0, 0),
        }
    }

    /// Oracles on an input set's first pass: every cell's latency count
    /// equals its demand reads, and one seed-chosen cell re-runs identically.
    fn check_first_pass(&mut self, inputs: &Inputs, set: usize, cells: &[ExtTrafficCell]) {
        for cell in cells {
            self.checks.0 += 1;
            if cell.report.latency.count != cell.report.demand_reads {
                self.checks.1 += 1;
            }
        }
        let index = (mix(self.seed ^ set as u64) % cells.len() as u64) as usize;
        self.checks.0 += 1;
        if inputs.run_cell(index) != cells[index].report {
            self.checks.1 += 1;
        }
    }
}

impl Workload for Traffic {
    fn pass(&mut self, set: usize, mut trace: Option<&mut Trace>) -> Pass {
        let inputs = Inputs::new(self.scale, self.seed, set);
        let start = Instant::now();
        let result = span(&mut trace, "sim.traffic.run.s", || {
            run_with_base(&inputs.config, &inputs.base)
        });
        let table = span(&mut trace, "sim.traffic.render.s", || result.render());
        let wall = pass_done(start);

        let cells = result.cells.len() as u64;
        let table_digest = digest(table.as_bytes());
        let failed = match self.references.get(&set) {
            Some((reference, reference_digest)) => {
                let mismatched = reference
                    .iter()
                    .zip(&result.cells)
                    .filter(|(a, b)| a != b)
                    .count() as u64;
                mismatched + u64::from(table_digest != *reference_digest)
            }
            None => {
                self.check_first_pass(&inputs, set, &result.cells);
                self.references.insert(set, (result.cells, table_digest));
                0
            }
        };
        Pass {
            wall,
            jobs: vec![wall],
            first_result: wall,
            attempted: cells,
            failed: failed.min(cells),
        }
    }

    /// Replays every cell serially through `run_traffic`; the per-cell
    /// times must account for `run_with_base` on one thread, whose cells
    /// must equal the traced pass's.
    fn breakdown(&mut self, set: usize, _traced: &Pass, trace: &mut Trace) -> Option<Breakdown> {
        let inputs = Inputs::new(self.scale, self.seed, set);
        let cells = SCRUB_POLICIES.len() * REPAIR_POLICIES.len();
        let mut events = 0usize;
        let mut escapes = 0usize;
        let mut repairs = 0usize;
        let mut accounted = 0.0;
        for index in 0..FAMILY_SPANS.len() * cells {
            let (report, seconds) = timed(|| inputs.run_cell(index));
            trace.add(FAMILY_SPANS[index / cells], seconds);
            accounted += seconds;
            events += report.demand_reads + report.scrub_bursts + report.repair_updates_applied;
            escapes += report.escapes;
            repairs += report.repair_updates_applied;
            self.checks.0 += 1;
            let expected = self.references.get(&set).and_then(|(r, _)| r.get(index));
            if expected.map(|cell| &cell.report) != Some(&report) {
                self.checks.1 += 1;
            }
        }
        trace.set("sim.traffic.sim_events", events as f64);
        trace.set(
            "sim.traffic.ns_per_event",
            accounted * 1e9 / events.max(1) as f64,
        );
        trace.set("sim.traffic.escapes", escapes as f64);
        trace.set("sim.traffic.repair_updates", repairs as f64);

        let serial = EvaluationConfig {
            threads: 1,
            ..inputs.config.clone()
        };
        let (result, reference) = timed(|| run_with_base(&serial, &inputs.base));
        self.checks.0 += 1;
        let expected = self.references.get(&set).map(|(cells, _)| cells);
        if expected != Some(&result.cells) {
            self.checks.1 += 1;
        }
        Some(Breakdown {
            reference,
            accounted,
        })
    }

    fn verify(&mut self) -> (u64, u64) {
        self.checks
    }

    fn finish(self: Box<Self>) {}
}
