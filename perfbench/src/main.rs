//! End-to-end and per-layer benchmark of the FlowPulse reproduction.
//!
//! ```sh
//! cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload ref_trial --seed 1 --seconds 35 --trace 0
//! ```
//!
//! Three workloads (`ref_trial`, `fault_sweep`, `monitord_ingest`; see
//! `perfbench/README.md`). With `--trace 0` the run measures the
//! end-to-end metrics; with `--trace 1` it re-runs the same inputs with
//! spans around every call into a layer and reports per-layer metrics.
//! The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod compose;
mod fault_sweep;
mod host;
mod metrics;
mod monitord_ingest;
mod ref_trial;
mod spans;

use metrics::Run;
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs and a short run: every check still runs.
    pub quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = val.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds {val}: expected 0 < s <= 600"));
                }
            }
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {val}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Where the traced run writes its span dump: inside the benchmark's own
/// directory, which `.gitignore` excludes.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Every `FP_*` variable changes what the program runs (spray backend,
    // scheduler, shards, memo, threads, ...): a run under any of them would
    // not measure the defaults users run.
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("FP_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!("perfbench: refusing to run with {knobs:?} set; unset every FP_* variable");
        return ExitCode::from(2);
    }
    let run: Run = match args.workload.as_str() {
        "ref_trial" => ref_trial::run(&args),
        "fault_sweep" => fault_sweep::run(&args),
        "monitord_ingest" => monitord_ingest::run(&args),
        w => {
            eprintln!(
                "perfbench: unknown workload {w:?} (ref_trial, fault_sweep, monitord_ingest)"
            );
            return ExitCode::from(2);
        }
    };
    println!("{}", host::fingerprint(&args, &run.config));
    for e in &run.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{}", run.result_line(args.trace));
    if run.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: &str, trace: bool) -> Run {
        let args = Args {
            workload: workload.into(),
            seed: 5,
            seconds: 0.01,
            trace,
            quick: true,
        };
        match workload {
            "ref_trial" => ref_trial::run(&args),
            "fault_sweep" => fault_sweep::run(&args),
            _ => monitord_ingest::run(&args),
        }
    }

    /// Quick mode of every workload passes all its checks and reports
    /// every metric of its kind; no operation fails.
    #[test]
    fn quick_mode_of_every_workload_passes_its_checks() {
        for w in ["ref_trial", "fault_sweep", "monitord_ingest"] {
            for trace in [false, true] {
                let run = quick(w, trace);
                assert!(run.errors.is_empty(), "{w} trace={trace}: {:?}", run.errors);
                assert!(run.attempted > 0 && run.failed == 0, "{w}");
                let line = run.result_line(trace);
                let v: serde::Value = serde_json::from_str(&line).unwrap();
                let table = if trace {
                    metrics::PER_LAYER
                } else {
                    metrics::END_TO_END
                };
                let m = v.as_map().unwrap()[3].1.as_map().unwrap();
                assert_eq!(m.len(), table.len(), "{w}");
                if !trace {
                    for (name, val) in m {
                        let x = val.as_map().unwrap()[0].1.as_f64().unwrap();
                        assert!(x > 0.0, "{w}: {name} reads {x}");
                    }
                }
            }
        }
    }
}
