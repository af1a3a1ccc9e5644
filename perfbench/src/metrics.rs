//! Metric names, units, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every untraced run (names and units as
/// in `BENCHMARK.json`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("trial_s", "s"),
    ("ns_per_data_pkt", "ns"),
    ("trials_per_s", "1/s"),
    ("snapshots_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("detect_latency_us", "us"),
    ("recovered_goodput_gbps", "Gb/s"),
];

/// Per-layer metrics, reported by every traced run. A layer the workload
/// never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("eval.setup_ms", "ms"),
    ("eval.simulate_s", "s"),
    ("eval.analysis_ms", "ms"),
    ("netsim.topology.build_ms", "ms"),
    ("collectives.schedule.build_ms", "ms"),
    ("core.analytical.predict_ms", "ms"),
    ("core.simulated.predict_s", "s"),
    ("netsim.engine.run_s", "s"),
    ("netsim.engine.ns_per_event", "ns"),
    ("netsim.engine.events_per_data_pkt", "count"),
    ("netsim.sched.pushes", "count"),
    ("netsim.sched.pops", "count"),
    ("netsim.pipeline.deliveries", "count"),
    ("netsim.transport.retransmits", "count"),
    ("netsim.transport.rto_stale_skips", "count"),
    ("netsim.transport.acks_sent", "count"),
    ("netsim.pfc.pauses", "count"),
    ("netsim.queue.max_bytes", "bytes"),
    ("core.monitor.scan_ms", "ms"),
    ("core.snapshot.sequence_ms", "ms"),
    ("core.localizer.localize_us", "us"),
    ("ctrl.iteration_end_ms", "ms"),
    ("campaign.busy_s", "s"),
    ("campaign.idle_s", "s"),
    ("monitord.push_blocked_s", "s"),
    ("monitord.queue.blocked", "count"),
    ("monitord.batches", "count"),
    ("monitord.snapshots_per_batch", "count"),
    ("monitord.scan_p50_us", "us"),
    ("monitord.scan_p99_us", "us"),
    ("monitord.queue_wait_p50_us", "us"),
    ("monitord.drain_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Run {
    /// Operations attempted (trials, or snapshots for monitord).
    pub attempted: u64,
    /// Operations that failed (none are expected on any workload).
    pub failed: u64,
    /// Output checks that did not hold, one line each.
    pub errors: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Resolved configuration, echoed beside the metrics.
    pub config: String,
}

impl Run {
    /// Record a failed check (the run then reports `correct: false`).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, v);
    }

    /// The final stdout line. End-to-end metrics must all have been
    /// measured; a per-layer metric the workload never touched reads 0.
    pub fn result_line(&self, trace: bool) -> String {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut out = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = match self.values.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            let sep = if i == 0 { "" } else { ", " };
            out.push_str(&format!(
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(v)
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{out}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed
        )
    }
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Whether a run that has measured `elapsed` should stop, given that its
/// last operation took `last`: it stops within half an operation of the
/// budget instead of overshooting by up to a whole one.
pub fn done(
    elapsed: std::time::Duration,
    last: std::time::Duration,
    budget: std::time::Duration,
) -> bool {
    elapsed + last / 2 >= budget
}

/// Goodput of iteration `iter` of a trial, bits/s (0 if it never ran).
pub fn goodput(r: &flowpulse::eval::TrialResult, iter: u32) -> f64 {
    r.iter_goodput
        .iter()
        .find(|&&(i, _)| i == iter)
        .map_or(0.0, |&(_, g)| g)
}

/// Deterministic 64-bit mix of a run seed and a stream index.
pub fn mix(seed: u64, k: u64) -> u64 {
    fp_netsim::rng::splitmix64(seed ^ fp_netsim::rng::splitmix64(k.wrapping_add(0x9e37)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut r = Run {
            attempted: 3,
            ..Run::default()
        };
        for (n, _) in END_TO_END {
            r.set(n, 1.5);
        }
        let line = r.result_line(false);
        let v: serde::Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }
}
