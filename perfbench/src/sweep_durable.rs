//! `sweep-durable`: `harp sweep --checkpoint-dir` at the quick
//! configuration — a `ResumableSweep` advanced 32 rounds at a time with a
//! durable archive generation after each step, into a fresh directory per
//! pass.

use std::path::{Path, PathBuf};
use std::time::Instant;

use harp_ecc::HammingCode;
use harp_sim::checkpoint::{render_sweep_summary, ResumableSweep, ShardSpec};
use harp_sim::experiments::fig6;
use harp_sim::experiments::sweep::CoverageSweep;
use harp_sim::EvaluationConfig;

use crate::measure::{digest, dir_usage, mb, pass_done, secs, span, Trace};
use std::collections::BTreeMap;

use crate::{base_config, Breakdown, Options, Pass, Scale, Workload};

/// `harp sweep`'s default `--checkpoint-interval`.
const CHECKPOINT_INTERVAL: usize = 32;

/// The spans of one pass: every `ResumableSweep` call `harp sweep` makes.
const SPANS: [&str; 5] = [
    "sim.checkpoint.new.s",
    "sim.checkpoint.advance.s",
    "sim.checkpoint.write_archive.s",
    "sim.checkpoint.into_sweep.s",
    "sim.checkpoint.render.s",
];

/// Deterministic on-disk counts of one pass, taken from the first.
#[derive(Debug, Clone, Copy)]
struct DiskCounts {
    files_written: u64,
    written_bytes: u64,
    archive_bytes: u64,
}

pub struct SweepDurable {
    scale: Scale,
    seed: u64,
    scratch: PathBuf,
    passes: usize,
    /// Digest of each input set's first rendered summary.
    references: BTreeMap<usize, u64>,
    /// On-disk counts of the warm-up pass.
    disk: Option<DiskCounts>,
    checks: (u64, u64),
}

fn make_code(data_bits: usize) -> impl Fn(u64) -> HammingCode {
    move |seed| HammingCode::random(data_bits, seed).expect("a valid configuration yields codes")
}

impl SweepDurable {
    pub fn setup(options: &Options, scratch: &Path) -> Result<Self, String> {
        let scratch = scratch.join("archives");
        std::fs::create_dir_all(&scratch).map_err(|e| format!("cannot create {scratch:?}: {e}"))?;
        Ok(Self {
            scale: options.scale,
            seed: options.seed,
            scratch,
            passes: 0,
            references: BTreeMap::new(),
            disk: None,
            checks: (0, 0),
        })
    }

    /// Oracle: the archive left by an input set's first pass resumes to the
    /// same sweep.
    fn check_resume(&mut self, config: &EvaluationConfig, dir: &Path, sweep: &CoverageSweep) {
        let resumed = ResumableSweep::resume(dir, make_code(config.data_bits))
            .map(|resumed| resumed.into_sweep());
        self.checks.0 += 1;
        if resumed.as_ref().ok() != Some(sweep) {
            self.checks.1 += 1;
        }
    }
}

impl Workload for SweepDurable {
    fn pass(&mut self, set: usize, mut trace: Option<&mut Trace>) -> Pass {
        let config = base_config(self.scale, self.seed, set);
        let dir = self.scratch.join(format!("pass-{}", self.passes));
        self.passes += 1;
        let _ = std::fs::remove_dir_all(&dir);
        let first_pass = self.disk.is_none();
        let mut disk = DiskCounts {
            files_written: 0,
            written_bytes: 0,
            archive_bytes: 0,
        };

        let start = Instant::now();
        let mut sweep = span(&mut trace, "sim.checkpoint.new.s", || {
            ResumableSweep::sharded(
                &config,
                &fig6::PROFILERS,
                ShardSpec::full(),
                make_code(config.data_bits),
            )
        });
        let mut generations = 0;
        let mut failed = 0;
        let mut last_write = 0.0;
        while !sweep.is_complete() {
            span(&mut trace, "sim.checkpoint.advance.s", || {
                sweep.advance(CHECKPOINT_INTERVAL)
            });
            let write = Instant::now();
            let written = span(&mut trace, "sim.checkpoint.write_archive.s", || {
                sweep.write_archive(&dir)
            });
            last_write = secs(write);
            if written.is_err() {
                failed += 1;
            }
            generations += 1;
            if first_pass {
                // Counted on the untimed first pass only.
                let (bytes, files) = dir_usage(&dir);
                disk.files_written += files;
                disk.written_bytes += bytes;
            }
        }
        let finished = span(&mut trace, "sim.checkpoint.into_sweep.s", || {
            sweep.into_sweep()
        });
        let summary = span(&mut trace, "sim.checkpoint.render.s", || {
            render_sweep_summary(&finished)
        });
        let wall = pass_done(start);

        let output = digest(summary.as_bytes());
        match self.references.get(&set) {
            Some(&reference) => failed += u64::from(reference != output),
            None => {
                self.references.insert(set, output);
                if first_pass {
                    disk.archive_bytes = dir_usage(&dir).0;
                    self.disk = Some(disk);
                }
                self.check_resume(&config, &dir, &finished);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);

        // Archive generations plus the final result.
        let attempted = generations + 1;
        if let Some(trace) = trace {
            trace.set("sim.checkpoint.write_archive.last_ms", last_write * 1e3);
            if let Some(disk) = self.disk {
                trace.set("sim.checkpoint.files_written", disk.files_written as f64);
                trace.set("sim.checkpoint.written_mb", mb(disk.written_bytes));
                trace.set("sim.checkpoint.archive_mb", mb(disk.archive_bytes));
            }
        }
        Pass {
            wall,
            jobs: vec![wall],
            // Checkpoint progress carries no coverage; the summary is the
            // first coverage result `harp sweep` prints.
            first_result: wall,
            attempted,
            failed,
        }
    }

    /// The pass's spans are the layer self times: every `ResumableSweep`
    /// call it makes. They must account for its wall.
    fn breakdown(&mut self, _set: usize, traced: &Pass, trace: &mut Trace) -> Option<Breakdown> {
        Some(Breakdown {
            reference: traced.wall,
            accounted: SPANS.iter().map(|name| trace.get(name)).sum(),
        })
    }

    fn verify(&mut self) -> (u64, u64) {
        self.checks
    }

    fn finish(self: Box<Self>) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}
