//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]`
//!
//! Prints a provenance line, then as the last line of standard output
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Exits 1 when a verdict differs from the scalar reference, 2 on a
//! usage or run error.

use amsfi_perfbench::run::{self, Config};
use amsfi_perfbench::workloads::{Size, Workload};
use amsfi_perfbench::{host, oracle};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload cpu-seu|cpu-set|pll-strike|fleet-cpu-seu \
                     --seed N --seconds S --trace 0|1 [--smoke]";

struct Args {
    config: Config,
    oracle_to: Option<PathBuf>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    let mut size = Size::Full;
    let mut oracle_to = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            "--smoke" => size = Size::Smoke,
            "--oracle-to" => oracle_to = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        config: Config {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            size,
        },
        oracle_to,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = args.config;
    if let Some(path) = args.oracle_to {
        return match oracle::write_reference(cfg.workload, cfg.seed, cfg.size, &path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let outcome = oracle::cached_reference(cfg.workload, cfg.seed, cfg.size)
        .and_then(|reference| run::run(&cfg, &reference));
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", provenance(&cfg, outcome.reps));
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: verdicts differ from the scalar reference");
        ExitCode::from(1)
    }
}

/// Host, commit and workload facts the result depends on, as one JSON
/// object.
fn provenance(cfg: &Config, reps: usize) -> String {
    let campaign = cfg.workload.campaign(cfg.seed, cfg.size, None);
    let json_str = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let fleet = cfg.workload == Workload::FleetCpuSeu;
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"size\": \"{:?}\", \
         \"cases\": {}, \"fingerprint\": \"{:016x}\", \"horizon_s\": {}, \"path\": \"{}\", \
         \"shards\": {}, \"engines\": {}, \"threads_per_engine\": {}, \"nproc\": {}, \
         \"cpu_model\": \"{}\", \"git_rev\": \"{}\", \"trace\": {}, \"reps\": {}}}}}",
        cfg.workload.name(),
        cfg.seed,
        cfg.size,
        campaign.cases.len(),
        campaign.meta().fingerprint,
        cfg.workload.horizon().as_secs_f64(),
        cfg.workload.path().label(),
        if fleet {
            cfg.workload.shards(cfg.size)
        } else {
            0
        },
        if fleet { run::FLEET_WORKERS } else { 1 },
        if fleet { 1 } else { host::nproc() },
        host::nproc(),
        json_str(&host::cpu_model()),
        json_str(&host::git_rev(std::path::Path::new("."))),
        cfg.trace,
        reps
    )
}
