//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <tpch-disk|hard-budget|stream-cluster> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run's recorded settings as one JSON line, then, as the last
//! line, `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Disk stores live under `.bench_data/` in the working
//! directory and are removed at exit; traced runs write their spans and
//! per-layer report under `.bench_out/`.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{info_line, result_line, run, Settings};

fn parse() -> Result<(String, Settings, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must lie in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let settings = Settings {
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        tiny: false,
        scratch: PathBuf::from(".bench_data").join(format!("{workload}-{}", std::process::id())),
        out: PathBuf::from(".bench_out"),
    };
    Ok((workload, settings, trace.ok_or("--trace is required")?))
}

fn main() -> ExitCode {
    let (workload, settings, traced) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = run(&workload, &settings, traced);
    // Leaves nothing behind when no other run shares the directory.
    let _ = std::fs::remove_dir(".bench_data");
    match result {
        Ok(report) => {
            if let Some(text) = &report.layer_report {
                eprint!("{text}");
            }
            println!("{}", info_line(&report));
            println!("{}", result_line(&report));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
