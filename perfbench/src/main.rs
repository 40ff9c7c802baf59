//! `csj-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!  [--pool-frac <k>] [--work-dir <dir>] [--report <file>]`
//!
//! Prints progress to stderr and, as the last line of stdout, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Exits 2 on
//! bad arguments and 1 when set-up fails.

use std::path::PathBuf;
use std::process::ExitCode;

use csj_perfbench::run::{run, Options};
use csj_perfbench::workload::{Kind, Params};

fn parse() -> Result<(Options, Option<PathBuf>), String> {
    let (mut seed, mut seconds, mut trace) = (1, 10.0, false);
    let (mut kind, mut pool_frac, mut report) = (None, None, None);
    let mut work_dir = PathBuf::from(".bench_work");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or_else(|| bad(&v))?);
            }
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v.parse().ok().filter(|s: &f64| *s >= 0.0).ok_or_else(|| bad(&v))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--pool-frac" => {
                let v = value()?;
                pool_frac = Some(v.parse().ok().filter(|&k| k > 0).ok_or_else(|| bad(&v))?);
            }
            "--work-dir" => work_dir = PathBuf::from(value()?),
            "--report" => report = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let kind = kind.ok_or("--workload is required (road-mem, road-paged, fractal-dense)")?;
    let mut params = Params::new(kind, seed, false);
    if let Some(k) = pool_frac {
        params.pool_frac = k;
    }
    Ok((Options { params, seconds, trace, work_dir }, report))
}

fn main() -> ExitCode {
    let (opts, report) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("csj-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("csj-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    if let Some(path) = report {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(&path, &result.report) {
            eprintln!("csj-perfbench: {}: {e}", path.display());
        }
    }
    for (name, value, unit) in &result.metrics {
        eprintln!("{name:>44} {value:>16.6} {unit}");
    }
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
