//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! Progress goes to stderr. The last line of stdout is one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics`.

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::{run, Config, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let default_dir = || {
        PathBuf::from(".bench_build")
            .join("perfbench_work")
            .join(format!("{}-{}", workload.name(), std::process::id()))
    };
    Ok(Config {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::Full,
        plant_bad_output: false,
        work_dir: work_dir.unwrap_or_else(default_dir),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "[perfbench] {} seed {} for {} s, trace {}",
        config.workload.name(),
        config.seed,
        config.seconds,
        config.trace
    );
    let outcome = match run(&config) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("[perfbench] run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let catalogue = if config.trace { PER_LAYER } else { END_TO_END };
    match outcome.metrics.to_json(catalogue) {
        Ok(metrics) => {
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
                outcome.failed == 0,
                outcome.attempted,
                outcome.failed
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("[perfbench] {e}");
            ExitCode::FAILURE
        }
    }
}
