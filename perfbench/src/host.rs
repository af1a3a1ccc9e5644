//! Host fingerprint printed beside every result, so figures from
//! different machines are not read as regressions.

use crate::Args;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// One line: workload arguments, resolved configuration, git commit, CPU
/// model, available parallelism and the calibration loop's ns/iter.
pub fn fingerprint(args: &Args, config: &str) -> String {
    let par = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "perfbench-host {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"quick\": {}, \"config\": \"{}\", \"git\": \"{}\", \"cpu\": \"{}\", \
         \"available_parallelism\": {par}, \"calib_ns_per_iter\": {:.4}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick,
        config.replace('"', "'"),
        git_commit(),
        cpu_model().replace('"', "'"),
        calibrate()
    )
}

/// The checked-out commit, read from `.git` without spawning a process
/// (`"none"` outside a git checkout).
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(h) = std::fs::read_to_string(git.join(r)) {
        return h.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A fixed integer loop (xorshift, 20 M steps): its ns/iter tracks the
/// host's single-core speed at the moment of the run.
fn calibrate() -> f64 {
    const N: u64 = 20_000_000;
    let t = Instant::now();
    let mut x = black_box(0x2545_f491_4f6c_dd1du64);
    for _ in 0..N {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t.elapsed().as_nanos() as f64 / N as f64
}
