//! `harp` — regenerate every table and figure of the HARP reproduction.
//!
//! Usage:
//!
//! ```text
//! harp <experiment> [--full] [--long-code] [--json PATH]
//!
//! experiments:
//!   fig2      wasted storage vs. RBER per repair granularity
//!   table2    combinatorial amplification of at-risk bits
//!   fig4      per-bit post-correction error probability distributions
//!   fig6      direct-error coverage vs. profiling rounds
//!   fig7      bootstrapping-round distributions
//!   fig8      missed indirect errors vs. profiling rounds
//!   fig9      secondary-ECC correction capability (both panels)
//!   fig10     data-retention BER case study
//!   summary   the paper's headline speedup claims
//!   ablation  data-pattern / transparency / secondary-ECC / code-length ablations
//!   ext-bch     extension 1: double-error-correcting BCH on-die ECC
//!   ext-beer    extension 2: BEER-style reverse engineering of the on-die ECC,
//!               including cross-family (SEC Hamming + SEC-DED) equivalent-code
//!               reconstruction from visible-error profiles
//!   ext-module  extension 3: secondary-ECC layout across a multi-chip rank,
//!               stress-testing all three on-die ECC families (SEC Hamming,
//!               SEC-DED, DEC BCH) through the generic burst module path
//!   ext-repair  extension 4: repair-capacity planning (Table 1) from the
//!               exact post-correction error profiles of all three families
//!   ext-vrt     extension 5: VRT errors under reactive scrubbing
//!   ext-codes   extension 6: one generic HARP campaign across Hamming / SEC-DED / BCH
//!   ext-traffic extension 7: live-traffic co-scheduling — demand-read SLO
//!               curves vs. scrub aggressiveness, code family, and repair
//!               mechanism under a deterministic event clock
//!   extensions  all seven extensions, in order
//!   all       everything above, in order (paper experiments only)
//!
//! options:
//!   --full       use the paper-scale Monte-Carlo configuration (slow)
//!   --long-code  use a (136, 128) on-die ECC code instead of (71, 64)
//!   --json PATH  additionally dump the raw result as a structured text dump
//!                (Debug-rendered by the vendored offline serde_json stand-in,
//!                not strict JSON; see vendor/serde_json)
//!
//! tooling subcommands (their own flags; see ROADMAP.md):
//!   sweep [--full] [--long-code] [--checkpoint-dir DIR]
//!         [--checkpoint-interval N] [--resume] [--shard i/N] [--out PATH]
//!                run the active-phase coverage sweep as a resumable
//!                campaign: checkpoint every N rounds into DIR, resume from
//!                an archive, or run as worker i of N and persist a
//!                shard-output file for `merge`
//!   merge FILE...
//!                fold shard-output files back into the single-process
//!                sweep report, validating completeness
//!   lint [--check] [--json PATH] [--root DIR]
//!                static invariant analysis over the workspace source:
//!                panic-freedom, determinism discipline, RNG salt
//!                discipline, scalar-twin coverage; --check exits
//!                non-zero on findings (CI gate)
//!   submit [--addr HOST:PORT] [--full] [--long-code] [--rounds N]
//!          [--codes N] [--words N] [--profilers NAME,...]
//!                submit a sweep job to a running `harpd serve` daemon
//!   watch JOB [--addr HOST:PORT]
//!                stream a job's round-by-round coverage until it ends
//!   jobs / cancel JOB / shutdown [--addr HOST:PORT]
//!                list the daemon's jobs, cancel one, or stop the daemon
//!                (checkpointing running jobs); see ROADMAP.md for the
//!                wire protocol and job lifecycle
//! ```

use std::process::ExitCode;

mod client_cli;
mod sweep_cli;

use harp_sim::experiments::{
    ablation, ext_bch, ext_beer, ext_codes, ext_module, ext_repair, ext_traffic, ext_vrt, fig10,
    fig2, fig4, fig6, fig7, fig8, fig9, headline, sweep, table2,
};
use harp_sim::EvaluationConfig;

mod cli {
    //! Minimal hand-rolled argument parsing (no external CLI dependency).

    /// Parsed command-line options.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Options {
        /// The experiment to run.
        pub experiment: String,
        /// Use the paper-scale configuration.
        pub full: bool,
        /// Use the (136, 128) code.
        pub long_code: bool,
        /// Optional path for a JSON dump of the result.
        pub json: Option<String>,
    }

    /// Parses the argument list (without the program name).
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut experiment = None;
        let mut full = false;
        let mut long_code = false;
        let mut json = None;
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--full" => full = true,
                "--long-code" => long_code = true,
                "--json" => {
                    json = Some(
                        iter.next()
                            .ok_or_else(|| "--json requires a path".to_owned())?
                            .clone(),
                    );
                }
                flag if flag.starts_with("--") => {
                    return Err(format!("unknown option: {flag}"));
                }
                name => {
                    if experiment.is_some() {
                        return Err(format!("unexpected extra argument: {name}"));
                    }
                    experiment = Some(name.to_owned());
                }
            }
        }
        Ok(Options {
            experiment: experiment.ok_or_else(|| "missing experiment name".to_owned())?,
            full,
            long_code,
            json,
        })
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn args(list: &[&str]) -> Vec<String> {
            list.iter().map(|s| s.to_string()).collect()
        }

        #[test]
        fn parses_experiment_and_flags() {
            let opts = parse(&args(&["fig6", "--full", "--long-code"])).unwrap();
            assert_eq!(opts.experiment, "fig6");
            assert!(opts.full);
            assert!(opts.long_code);
            assert_eq!(opts.json, None);
        }

        #[test]
        fn parses_json_path() {
            let opts = parse(&args(&["fig2", "--json", "/tmp/out.json"])).unwrap();
            assert_eq!(opts.json.as_deref(), Some("/tmp/out.json"));
        }

        #[test]
        fn rejects_missing_experiment_and_unknown_flags() {
            assert!(parse(&args(&[])).is_err());
            assert!(parse(&args(&["fig2", "--bogus"])).is_err());
            assert!(parse(&args(&["fig2", "--json"])).is_err());
            assert!(parse(&args(&["fig2", "extra"])).is_err());
        }
    }
}

fn config_for(options: &cli::Options) -> EvaluationConfig {
    let mut config = if options.full {
        EvaluationConfig::paper_scale()
    } else {
        EvaluationConfig::quick()
    };
    if options.long_code {
        config = config.with_long_code();
    }
    config
}

/// Writes the raw result where `--json PATH` asked for it. With the vendored
/// offline `serde_json` stand-in this is a Debug-rendered structured dump,
/// not strict JSON; swapping the real serde/serde_json back in (see the root
/// manifest) restores strict JSON without touching this code.
fn dump_json<T: serde::Serialize>(path: &Option<String>, value: &T) {
    if let Some(path) = path {
        match serde_json::to_string_pretty(value) {
            Ok(json) => {
                if let Err(err) = std::fs::write(path, json) {
                    eprintln!("warning: could not write {path}: {err}");
                } else {
                    eprintln!("wrote raw results to {path} (Debug-rendered structured dump)");
                }
            }
            Err(err) => eprintln!("warning: could not serialize results: {err}"),
        }
    }
}

fn run_experiment(options: &cli::Options) -> Result<(), String> {
    let config = config_for(options);
    match options.experiment.as_str() {
        "fig2" => {
            let result = fig2::run();
            println!("{}", result.render());
            dump_json(&options.json, &result);
        }
        "table2" => {
            let result = table2::run();
            println!("{}", result.render());
            dump_json(&options.json, &result);
        }
        "fig4" => {
            let result = fig4::run(&config);
            println!("{}", result.render());
            dump_json(&options.json, &result);
        }
        "fig6" => {
            let result = fig6::run(&config);
            println!("{}", result.render());
            dump_json(&options.json, &result);
        }
        "fig7" => {
            let result = fig7::run(&config);
            println!("{}", result.render());
            dump_json(&options.json, &result);
        }
        "fig8" => {
            let result = fig8::run(&config);
            println!("{}", result.render());
            dump_json(&options.json, &result);
        }
        "fig9" => {
            let result = fig9::run(&config);
            println!("{}", result.render());
            dump_json(&options.json, &result);
        }
        "fig10" => {
            let result = fig10::run(&config);
            println!("{}", result.render());
            dump_json(&options.json, &result);
        }
        "summary" => {
            let result = headline::run(&config);
            println!("{}", result.render());
            dump_json(&options.json, &result);
        }
        "ablation" => {
            let result = ablation::run(&config);
            println!("{}", result.render());
            dump_json(&options.json, &result);
        }
        "ext-bch" => {
            let result = ext_bch::run(&config);
            println!("{}", result.render());
            dump_json(&options.json, &result);
        }
        "ext-beer" => {
            let result = ext_beer::run(&config);
            println!("{}", result.render());
            dump_json(&options.json, &result);
        }
        "ext-module" => {
            let result = ext_module::run(&config);
            println!("{}", result.render());
            dump_json(&options.json, &result);
        }
        "ext-repair" => {
            let result = ext_repair::run(&config);
            println!("{}", result.render());
            dump_json(&options.json, &result);
        }
        "ext-vrt" => {
            let result = ext_vrt::run(&config);
            println!("{}", result.render());
            dump_json(&options.json, &result);
        }
        "ext-codes" => {
            let result = ext_codes::run(&config);
            println!("{}", result.render());
            dump_json(&options.json, &result);
        }
        "ext-traffic" => {
            let result = ext_traffic::run(&config);
            println!("{}", result.render());
            dump_json(&options.json, &result);
        }
        "extensions" => {
            println!("{}", ext_bch::run(&config).render());
            println!("{}", ext_beer::run(&config).render());
            println!("{}", ext_module::run(&config).render());
            println!("{}", ext_repair::run(&config).render());
            println!("{}", ext_vrt::run(&config).render());
            println!("{}", ext_codes::run(&config).render());
            println!("{}", ext_traffic::run(&config).render());
        }
        "all" => {
            println!("{}", fig2::run().render());
            println!("{}", table2::run().render());
            println!("{}", fig4::run(&config).render());
            // Figs. 6 and 7 share one sweep; Fig. 9 needs HARP-A as well.
            let active_sweep = sweep::run_coverage_sweep(&config, &fig6::PROFILERS);
            println!("{}", fig6::from_sweep(&active_sweep).render());
            println!("{}", fig7::from_sweep(&active_sweep).render());
            println!("{}", fig8::run(&config).render());
            let fig9_sweep = sweep::run_coverage_sweep(&config, &fig9::PROFILERS);
            let fig9_result = fig9::from_sweep(&fig9_sweep);
            println!("{}", fig9_result.render());
            let fig10_result = fig10::run(&config);
            println!("{}", fig10_result.render());
            println!(
                "{}",
                headline::summarize(&config, &fig9_result, &fig10_result).render()
            );
        }
        other => return Err(format!("unknown experiment: {other}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The tooling subcommands have their own flag sets and no experiment
    // semantics, so they bypass the experiment parser entirely. First the
    // workspace invariant analyzer (see crates/lint).
    if args.first().map(String::as_str) == Some("lint") {
        return match harp_lint::run_cli(&args[1..]) {
            Ok(0) => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE,
            Err(message) => {
                eprintln!("error: {message}");
                eprintln!("usage: harp lint [--check] [--json PATH] [--root DIR]");
                ExitCode::from(2)
            }
        };
    }
    // Likewise for the checkpointed-sweep worker and merge coordinator.
    if args.first().map(String::as_str) == Some("sweep") {
        return match sweep_cli::run_sweep(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                eprintln!(
                    "usage: harp sweep [--full] [--long-code] [--checkpoint-dir DIR] \
                     [--checkpoint-interval N] [--resume] [--shard i/N] [--out PATH]"
                );
                ExitCode::FAILURE
            }
        };
    }
    // The daemon-client subcommands talk to a running `harpd serve`.
    type ClientCommand = fn(&[String]) -> Result<(), String>;
    let client_command: Option<(ClientCommand, &str)> = match args.first().map(String::as_str) {
        Some("submit") => Some((
            client_cli::run_submit,
            "harp submit [--addr HOST:PORT] [--full] [--long-code] [--rounds N] \
             [--codes N] [--words N] [--profilers NAME,NAME,...]",
        )),
        Some("watch") => Some((client_cli::run_watch, "harp watch JOB [--addr HOST:PORT]")),
        Some("jobs") => Some((client_cli::run_jobs, "harp jobs [--addr HOST:PORT]")),
        Some("cancel") => Some((client_cli::run_cancel, "harp cancel JOB [--addr HOST:PORT]")),
        Some("shutdown") => Some((client_cli::run_shutdown, "harp shutdown [--addr HOST:PORT]")),
        _ => None,
    };
    if let Some((run, usage)) = client_command {
        return match run(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                eprintln!("usage: {usage}");
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("merge") {
        return match sweep_cli::run_merge(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                eprintln!("usage: harp merge SHARD_0_of_N.json SHARD_1_of_N.json ...");
                ExitCode::FAILURE
            }
        };
    }
    let options = match cli::parse(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: harp <fig2|table2|fig4|fig6|fig7|fig8|fig9|fig10|summary|ablation|\
                 ext-bch|ext-beer|ext-module|ext-repair|ext-vrt|ext-codes|ext-traffic|\
                 extensions|all> \
                 [--full] [--long-code] [--json PATH]\n       \
                 harp sweep [--checkpoint-dir DIR] [--resume] [--shard i/N] ... | \
                 harp merge FILE... | harp lint [--check] | \
                 harp <submit|watch|jobs|cancel|shutdown> [--addr HOST:PORT] ..."
            );
            return ExitCode::from(2);
        }
    };
    match run_experiment(&options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
