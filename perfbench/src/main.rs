//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <figures|sweep-durable|harpd-jobs|traffic|all>
//!           --seed N --seconds S --trace <0|1> [--scale quick|smoke]
//! ```
//!
//! Each workload links the workspace crates and calls the public entry
//! points the `harp` and `harpd` binaries call, in the same order and with
//! their defaults. With `--trace 0` it repeats untraced passes for `S`
//! seconds and prints the end-to-end metrics; with `--trace 1` it alternates
//! untraced and traced passes (plus the workload's layer breakdown, which
//! must add up to a reference run within `UNACCOUNTED_BOUND`) and prints
//! the per-layer metrics. Outputs are checked against the
//! repository's own oracles outside the timed region; every mismatch counts
//! as a failed operation. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. README.md in this
//! directory documents every metric and the predictions behind them.

mod figures;
mod harpd_jobs;
mod measure;
mod sweep_durable;
mod traffic;

use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use harp_sim::minijson::Json;
use harp_sim::EvaluationConfig;

use measure::{median, quantile, secs, tail, Trace};

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["figures", "sweep-durable", "harpd-jobs", "traffic"];

/// End-to-end metrics (untraced run), with units. Every workload emits all
/// of them; README.md gives each workload's reading.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("job_p50_s", "s"),
    ("first_result_ms", "ms"),
];

/// Per-layer metrics (traced run), with units. A workload that bypasses a
/// layer reports 0 for it: that is the "predict no change" column.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("sim.experiments.fig2.s", "s"),
    ("sim.experiments.table2.s", "s"),
    ("sim.experiments.fig4.s", "s"),
    ("sim.experiments.fig6_sweep.s", "s"),
    ("sim.experiments.fig8.s", "s"),
    ("sim.experiments.fig9_sweep.s", "s"),
    ("sim.experiments.fig10.s", "s"),
    ("sim.experiments.summary.s", "s"),
    ("sim.sample.s", "s"),
    ("ecc.error_space.s", "s"),
    ("profiler.score.s", "s"),
    ("profiler.campaign.naive.s", "s"),
    ("profiler.campaign.beep.s", "s"),
    ("profiler.campaign.harp_u.s", "s"),
    ("profiler.campaign.harp_a.s", "s"),
    ("profiler.observe.s", "s"),
    ("profiler.dataword.s", "s"),
    ("profiler.snapshot.s", "s"),
    ("memsim.burst.s", "s"),
    ("memsim.word_reads", "count"),
    ("memsim.dirty_share", "ratio"),
    ("profiler.harp_a.refreshes", "count"),
    ("sim.checkpoint.new.s", "s"),
    ("sim.checkpoint.advance.s", "s"),
    ("sim.checkpoint.write_archive.s", "s"),
    ("sim.checkpoint.into_sweep.s", "s"),
    ("sim.checkpoint.render.s", "s"),
    ("sim.checkpoint.write_archive.last_ms", "ms"),
    ("sim.checkpoint.files_written", "count"),
    ("sim.checkpoint.archive_mb", "MB"),
    ("sim.checkpoint.written_mb", "MB"),
    ("sim.checkpoint.progress.s", "s"),
    ("sim.checkpoint.encode_result.s", "s"),
    ("server.submit.p50_ms", "ms"),
    ("server.frames_per_job", "count"),
    ("server.result_frame_kb", "kB"),
    ("server.unaccounted.s", "s"),
    ("sim.traffic.run.s", "s"),
    ("sim.traffic.hamming.s", "s"),
    ("sim.traffic.secded.s", "s"),
    ("sim.traffic.bch.s", "s"),
    ("sim.traffic.sim_events", "count"),
    ("sim.traffic.ns_per_event", "ns"),
    ("sim.traffic.escapes", "count"),
    ("sim.traffic.repair_updates", "count"),
    ("job.tail_s", "s"),
    ("job.tail_pct", "%"),
    ("job.samples", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unaccounted_share", "ratio"),
    ("mem.peak_heap_mb", "MB"),
    ("mem.peak_rss_mb", "MB"),
];

/// Minimum untraced passes per run.
const MIN_PASSES: usize = 5;

/// Minimum number of set-up probes behind `setup_s`.
const SETUP_PROBES: usize = 7;

/// Problem size: `quick` is the benchmark; `smoke` is the self-test's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Smoke,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Child mode: set the workload up, report readiness, tear down.
    pub setup_probe: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Quick;
    let mut setup_probe = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = || {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{arg} requires a value"))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let raw = value()?;
                seed = Some(raw.parse().map_err(|_| format!("bad --seed '{raw}'"))?);
            }
            "--seconds" => {
                let raw = value()?;
                let s: f64 = raw.parse().map_err(|_| format!("bad --seconds '{raw}'"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                });
            }
            "--scale" => {
                scale = match value()?.as_str() {
                    "quick" => Scale::Quick,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("--scale takes quick or smoke, not '{other}'")),
                };
            }
            "--setup-probe" => setup_probe = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    Ok(Options {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        scale,
        setup_probe,
    })
}

/// What one pass of a workload produced.
#[derive(Debug)]
pub struct Pass {
    /// Wall-clock seconds of the pass.
    pub wall: f64,
    /// Latency of each job the pass ran, seconds: the whole pass for the
    /// batch workloads, each submit-to-result for `harpd-jobs`.
    pub jobs: Vec<f64>,
    /// Seconds until the pass's first user-visible output.
    pub first_result: f64,
    /// Operations attempted and failed (errors, mismatched outputs).
    pub attempted: u64,
    pub failed: u64,
}

/// What a traced pass's layer self times must add up to: the seconds of a
/// real run of the public entry point they break down (`reference`), and
/// the seconds the layer spans account for.
pub struct Breakdown {
    pub reference: f64,
    pub accounted: f64,
}

/// Largest share of a breakdown's reference its layer self times may leave
/// unaccounted (either way) before the traced run counts a failed check.
pub const UNACCOUNTED_BOUND: f64 = 0.25;

/// One benchmark workload. `setup` is its constructor (see [`build`]).
pub trait Workload {
    /// One pass over input set `set`; spans around the public calls when
    /// `trace` is given.
    fn pass(&mut self, set: usize, trace: Option<&mut Trace>) -> Pass;
    /// The layer breakdown of the pass just traced on `set`: records layer
    /// self times into `trace` (replaying the pass's plan with spans around
    /// lower layers where the pass cannot be split from outside) and returns
    /// what they must account for. `None` when the breakdown could not run;
    /// the workload's own checks count that failure.
    fn breakdown(&mut self, set: usize, traced: &Pass, trace: &mut Trace) -> Option<Breakdown>;
    /// Oracle checks outside the timed region: (attempted, failed).
    fn verify(&mut self) -> (u64, u64);
    /// Stops every thread and process it started and removes its files.
    fn finish(self: Box<Self>);
}

/// Number of input sets a run cycles through. Pass `i` runs set
/// `i % INPUT_SETS`, so a run's median covers several inputs and does not
/// hinge on one seed's unusually heavy or light population.
pub const INPUT_SETS: usize = 8;

/// The evaluation configuration of input set `set`: the `harp` default
/// (`quick`, or `smoke` for the self-test), two worker threads, and a base
/// seed derived from the benchmark seed and the set.
pub fn base_config(scale: Scale, seed: u64, set: usize) -> EvaluationConfig {
    let config = match scale {
        Scale::Quick => EvaluationConfig::quick(),
        Scale::Smoke => EvaluationConfig::smoke(),
    };
    EvaluationConfig {
        base_seed: measure::mix(seed ^ ((set as u64) << 32)),
        threads: 2,
        ..config
    }
}

/// Sets a workload up: everything that must exist before its first pass.
fn build(name: &str, options: &Options, scratch: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "figures" => Box::new(figures::Figures::setup(options)),
        "sweep-durable" => Box::new(sweep_durable::SweepDurable::setup(options, scratch)?),
        "harpd-jobs" => Box::new(harpd_jobs::HarpdJobs::setup(options, scratch)?),
        "traffic" => Box::new(traffic::Traffic::setup(options)),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// Runs one pass, turning a panic into a failed pass.
fn guarded_pass(
    workload: &mut dyn Workload,
    set: usize,
    trace: Option<&mut Trace>,
) -> Option<Pass> {
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| workload.pass(set, trace)));
    outcome.ok()
}

/// Seconds from spawning a fresh child process until it reports the
/// workload ready (exec and dynamic loading included).
fn probe_setup(name: &str, options: &Options) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let scale = match options.scale {
        Scale::Quick => "quick",
        Scale::Smoke => "smoke",
    };
    let start = Instant::now();
    let mut child = Command::new(&exe)
        .args(["--setup-probe", "--workload", name, "--scale", scale])
        .args(["--seed", &options.seed.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start setup probe: {e}"))?;
    let mut line = String::new();
    if let Some(stdout) = child.stdout.take() {
        let _ = BufReader::new(stdout).read_line(&mut line);
    }
    let elapsed = secs(start);
    let status = child
        .wait()
        .map_err(|e| format!("setup probe did not finish: {e}"))?;
    if !status.success() || line.trim() != "ready" {
        return Err(format!("setup probe failed ({status})"));
    }
    Ok(elapsed)
}

/// Everything a run of one workload measured.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

fn describe(values: &[f64]) -> String {
    format!(
        "median of {} (q1 {:.6}, q3 {:.6})",
        values.len(),
        quantile(values, 0.25),
        quantile(values, 0.75)
    )
}

/// Runs one workload. `own_rss_peak` says whether the process's resident-set
/// peak starts with this workload; when it does not, `mem.peak_rss_mb` is 0.
fn run_workload(
    name: &str,
    options: &Options,
    scratch_root: &Path,
    own_rss_peak: bool,
) -> Result<Outcome, String> {
    let scratch = scratch_root.join(name);
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("cannot create scratch: {e}"))?;
    println!("{}", measure::fingerprint(&scratch));

    // Untraced runs probe set-up between passes, so the samples spread over
    // the run like the pass timings do.
    let mut setup_samples = Vec::new();
    if !options.trace {
        setup_samples.push(probe_setup(name, options)?);
    }
    let (workload, in_process_setup) = measure::timed(|| build(name, options, &scratch));
    let mut workload = workload?;
    println!("# {name}: in-process setup {in_process_setup:.6} s");

    let mut attempted = 0u64;
    let mut failed = 0u64;
    // A pass that panicked counts as one failed operation.
    let tally = |pass: &Option<Pass>, attempted: &mut u64, failed: &mut u64| {
        let (a, f) = pass.as_ref().map_or((1, 1), |p| (p.attempted, p.failed));
        *attempted += a;
        *failed += f;
    };

    // Warm-up pass: fills caches and records the outputs later passes must
    // reproduce. Counted for correctness, not timed.
    let warm = guarded_pass(workload.as_mut(), 0, None);
    tally(&warm, &mut attempted, &mut failed);

    // Memory pass (traced run only): the warm-up's input set again, untimed,
    // with heap counting on, which slows allocation too much for a timed
    // pass. Peak memory is a per-layer figure, not a bounded end-to-end one:
    // with two threads it depends on timing (see README.md).
    let mut peak_heap = 0.0;
    if options.trace {
        measure::start_heap_count();
        let pass = guarded_pass(workload.as_mut(), 0, None);
        peak_heap = measure::stop_heap_count();
        tally(&pass, &mut attempted, &mut failed);
    }

    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<(Pass, Trace)> = Vec::new();
    // Traced minus untraced wall of the same input set, per iteration.
    let mut overheads = Vec::new();
    // Share of each breakdown's reference its layer self times leave out.
    let mut unaccounted = Vec::new();
    let steal_before = measure::steal_s();
    let start = Instant::now();
    for iteration in 1.. {
        let set = iteration % INPUT_SETS;
        let pass = guarded_pass(workload.as_mut(), set, None);
        tally(&pass, &mut attempted, &mut failed);
        let untraced_wall = pass.as_ref().map(|p| p.wall);
        untraced.extend(pass);
        if !options.trace {
            setup_samples.push(probe_setup(name, options)?);
        }
        if options.trace {
            let mut trace = Trace::default();
            let pass = guarded_pass(workload.as_mut(), set, Some(&mut trace));
            tally(&pass, &mut attempted, &mut failed);
            if let Some(pass) = pass {
                let breakdown = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    workload.breakdown(set, &pass, &mut trace)
                }));
                match breakdown {
                    Ok(Some(b)) if b.reference > 0.0 => {
                        unaccounted.push((b.reference - b.accounted) / b.reference);
                    }
                    Ok(_) => {}
                    Err(_) => {
                        attempted += 1;
                        failed += 1;
                    }
                }
                if let Some(untraced_wall) = untraced_wall {
                    overheads.push(pass.wall - untraced_wall);
                }
                traced.push((pass, trace));
            }
        }
        if secs(start) >= options.seconds && (options.trace || iteration >= MIN_PASSES) {
            break;
        }
    }

    let measured = secs(start);
    if let (Some(before), Some(after)) = (steal_before, measure::steal_s()) {
        println!(
            "# {name}: host steal {:.3} s of {measured:.1} s measured on {} CPUs",
            after - before,
            std::thread::available_parallelism().map_or(0, |n| n.get())
        );
    }

    while !options.trace && setup_samples.len() < SETUP_PROBES {
        setup_samples.push(probe_setup(name, options)?);
    }

    let (checked, mismatched) =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| workload.verify()))
            .unwrap_or((1, 1));
    attempted += checked;
    failed += mismatched;
    workload.finish();
    let _ = std::fs::remove_dir_all(&scratch);

    // The breakdown must add up: a median share beyond the bound, or no
    // breakdown at all, is a failed check. Smoke-scale jobs and cells are
    // so small that fixed costs (durable submits, thread starts) dominate
    // them, so the self-test reports the share without checking it.
    let unaccounted_share = median(&unaccounted);
    if options.trace {
        if options.scale == Scale::Quick {
            attempted += 1;
            let adds_up = !unaccounted.is_empty() && unaccounted_share.abs() <= UNACCOUNTED_BOUND;
            failed += u64::from(!adds_up);
        }
        println!(
            "# {name}: layer self times leave {unaccounted_share:.4} of their reference \
             unaccounted (median of {}, bound {UNACCOUNTED_BOUND})",
            unaccounted.len()
        );
    }

    let walls: Vec<f64> = untraced.iter().map(|p| p.wall).collect();
    let jobs: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.jobs.iter().copied())
        .collect();
    let firsts: Vec<f64> = untraced.iter().map(|p| p.first_result).collect();
    println!("# {name}: wall_s {}", describe(&walls));
    if !setup_samples.is_empty() {
        println!("# {name}: setup_s {}", describe(&setup_samples));
    }
    // Spans add only client-side clock reads to a job, so the traced run's
    // tail also counts its traced passes' jobs.
    let tail_jobs: Vec<f64> = untraced
        .iter()
        .chain(traced.iter().map(|(pass, _)| pass))
        .flat_map(|p| p.jobs.iter().copied())
        .collect();
    let job_tail = tail(&tail_jobs, 10);
    match job_tail {
        Some((value, pct, n)) => {
            println!("# {name}: job tail {value:.6} s at p{pct:.1} of {n} jobs")
        }
        None => println!(
            "# {name}: job tail needs more than 10 jobs, have {}",
            tail_jobs.len()
        ),
    }
    let fail_ratio = if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    };
    println!("# {name}: fail_ratio {fail_ratio} ({failed} of {attempted} operations)");

    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    if options.trace {
        let traces: Vec<&Trace> = traced.iter().map(|(_, trace)| trace).collect();
        let traced_walls: Vec<f64> = traced.iter().map(|(pass, _)| pass.wall).collect();
        let traced_wall = median(&traced_walls);
        for (metric, unit) in PER_LAYER {
            let value = match metric {
                "job.tail_s" => job_tail.map_or(0.0, |t| t.0),
                "job.tail_pct" => job_tail.map_or(0.0, |t| t.1),
                "job.samples" => tail_jobs.len() as f64,
                "trace.wall_s" => traced_wall,
                "trace.overhead_s" => median(&overheads),
                "trace.unaccounted_share" => unaccounted_share,
                "mem.peak_heap_mb" => peak_heap,
                "mem.peak_rss_mb" if own_rss_peak => measure::peak_rss_mb().unwrap_or(0.0),
                "mem.peak_rss_mb" => 0.0,
                _ => {
                    let values: Vec<f64> = traces.iter().map(|t| t.get(metric)).collect();
                    median(&values)
                }
            };
            metrics.push((metric.to_owned(), value, unit));
        }
    } else {
        for (metric, unit) in END_TO_END {
            let value = match metric {
                "wall_s" => median(&walls),
                "setup_s" => median(&setup_samples),
                "job_p50_s" => median(&jobs),
                "first_result_ms" => median(&firsts) * 1e3,
                _ => unreachable!("every end-to-end metric is computed above"),
            };
            metrics.push((metric.to_owned(), value, unit));
        }
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> Json {
    let metrics = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = Json::try_from_f64(*value).unwrap_or(Json::Number("0".to_owned()));
            (
                name.clone(),
                Json::Object(vec![
                    ("value".to_owned(), value),
                    ("unit".to_owned(), Json::Str((*unit).to_owned())),
                ]),
            )
        })
        .collect();
    Json::Object(vec![
        ("correct".to_owned(), Json::Bool(correct)),
        ("attempted".to_owned(), Json::from_u64(attempted)),
        ("failed".to_owned(), Json::from_u64(failed)),
        ("metrics".to_owned(), Json::Object(metrics)),
    ])
}

/// Child side of [`probe_setup`].
fn setup_probe(options: &Options) -> Result<(), String> {
    let scratch = PathBuf::from(".bench_scratch").join(format!("probe-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let workload = build(&options.workload, options, &scratch)?;
    let mut stdout = std::io::stdout();
    writeln!(stdout, "ready").map_err(|e| e.to_string())?;
    stdout.flush().map_err(|e| e.to_string())?;
    workload.finish();
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed N --seconds S --trace <0|1> \
                 [--scale quick|smoke]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if options.setup_probe {
        return match setup_probe(&options) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: setup probe: {message}");
                ExitCode::FAILURE
            }
        };
    }
    let names: Vec<&str> = if options.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![options.workload.as_str()]
    };
    let scratch_root = PathBuf::from(".bench_scratch").join(format!("run-{}", std::process::id()));
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        options.workload,
        options.seed,
        options.seconds,
        u8::from(options.trace)
    );
    let mut attempted = 0;
    let mut failed = 0;
    let mut metrics = Vec::new();
    for (index, name) in names.iter().enumerate() {
        // `VmHWM` only grows: a later workload of `all` reports its own peak
        // only if the kernel lets the process reset it.
        let own_rss_peak = index == 0 || measure::reset_peak_rss();
        if !own_rss_peak {
            println!("# {name}: resident-set peak not resettable; mem.peak_rss_mb reads 0");
        }
        let outcome = match run_workload(name, &options, &scratch_root, own_rss_peak) {
            Ok(outcome) => outcome,
            Err(message) => {
                eprintln!("error: {name}: {message}");
                let _ = std::fs::remove_dir_all(&scratch_root);
                return ExitCode::FAILURE;
            }
        };
        attempted += outcome.attempted;
        failed += outcome.failed;
        for (metric, value, unit) in outcome.metrics {
            println!("metric {name} {metric} = {value} {unit}");
            let metric = if names.len() > 1 {
                format!("{name}.{metric}")
            } else {
                metric
            };
            metrics.push((metric, value, unit));
        }
    }
    let _ = std::fs::remove_dir_all(&scratch_root);
    let _ = std::fs::remove_dir(".bench_scratch");
    println!(
        "{}",
        result_json(failed == 0 && attempted > 0, attempted, failed, &metrics).render()
    );
    ExitCode::SUCCESS
}
