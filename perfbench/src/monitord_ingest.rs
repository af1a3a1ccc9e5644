//! `monitord_ingest`: interleaved 32 × 16 `CounterSnapshot` streams pushed
//! by one producer thread into one `Monitord` under its default (blocking)
//! policy. The benchmark generates the snapshots itself from the seed; no
//! engine runs, so all of the work is the service's.

use crate::metrics::{median, mix, peak_rss_mib, Run};
use crate::spans::Tracer;
use crate::Args;
use flowpulse::detector::Detector;
use flowpulse::localizer::RingLocalization;
use flowpulse::monitor::{Alarm, Monitor};
use flowpulse::snapshot::CounterSnapshot;
use fp_monitord::{Monitord, ServiceConfig, ServiceReport};
use std::time::{Duration, Instant};

/// Stream shape: the reference fabric and collective.
pub const LEAVES: u32 = 32;
pub const VSPINES: u32 = 16;
/// 64 MiB Ring-AllReduce: 2(N−1)·B / (N·s) bytes per port per iteration.
pub const PORT_BYTES: f64 = (2 * 31 * (64u64 << 20)) as f64 / (32 * 16) as f64;
/// Simulated span of one iteration and the compute gap after it, ns.
const SPAN_NS: u64 = 2_700_000;
const GAP_NS: u64 = 20_000;

/// One alarm as `(iteration, leaf, [(leaf, vspine) ports])`.
pub type AlarmAt = (u32, u32, Vec<(u32, u32)>);

/// A seeded shortfall the service must alarm on.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct Injected {
    pub stream: usize,
    pub port: (u32, u32),
    pub from_iter: u32,
    pub shortfall: f64,
}

/// One round's input: every stream's snapshots, in push order.
pub struct Input {
    pub streams: usize,
    pub iters: u32,
    /// Snapshots in the interleaved order the producer pushes them.
    pub order: Vec<CounterSnapshot>,
    pub injected: Vec<Injected>,
}

fn unit(seed: u64, k: u64) -> f64 {
    mix(seed, k) as f64 / u64::MAX as f64
}

/// Generate `streams` streams of `iters` iterations from `seed`. Per-port
/// bytes sit at the analytical value with ±0.2 % seeded noise, well inside
/// the 1 % threshold; every fourth stream (at a seeded offset) loses 3–8 %
/// on one seeded port from a seeded iteration on.
pub fn generate(seed: u64, streams: usize, iters: u32) -> Input {
    let offset = (mix(seed, 0) % 4) as usize;
    let injected: Vec<Injected> = (0..streams)
        .filter(|s| s % 4 == offset)
        .map(|s| {
            let k = 1000 + s as u64 * 8;
            Injected {
                stream: s,
                port: (
                    (mix(seed, k) % u64::from(LEAVES)) as u32,
                    (mix(seed, k + 1) % u64::from(VSPINES)) as u32,
                ),
                from_iter: 2 + (mix(seed, k + 2) % u64::from(iters - 3)) as u32,
                shortfall: 0.03 + 0.05 * unit(seed, k + 3),
            }
        })
        .collect();
    let ports = (LEAVES * VSPINES) as usize;
    let mut per_stream: Vec<Vec<CounterSnapshot>> = Vec::with_capacity(streams);
    for s in 0..streams {
        let fault = injected.iter().find(|f| f.stream == s);
        let mut t_ns = 0u64;
        let snaps = (0..iters)
            .map(|i| {
                let k = (s as u64) << 40 | u64::from(i) << 20;
                // ±0.5 % seeded span noise.
                t_ns += (SPAN_NS as f64 * (1.0 + 0.01 * (unit(seed, k) - 0.5))) as u64;
                let bytes = (0..ports)
                    .map(|p| {
                        let mut b =
                            PORT_BYTES * (1.0 + 0.004 * (unit(seed, k + 1 + p as u64) - 0.5));
                        if let Some(f) = fault {
                            let port = (f.port.0 * VSPINES + f.port.1) as usize;
                            if p == port && i >= f.from_iter {
                                b *= 1.0 - f.shortfall;
                            }
                        }
                        b as u64
                    })
                    .collect();
                let snap = CounterSnapshot {
                    fabric: format!("fabric-{s:03}"),
                    job: 1,
                    iter: i,
                    n_leaves: LEAVES,
                    n_vspines: VSPINES,
                    t_ns,
                    bytes,
                    last: i + 1 == iters,
                };
                t_ns += GAP_NS;
                snap
            })
            .collect();
        per_stream.push(snaps);
    }
    // Interleave: iteration-major, streams in a seeded order per iteration.
    let mut order = Vec::with_capacity(streams * iters as usize);
    let mut idx: Vec<usize> = (0..streams).collect();
    for i in 0..iters {
        idx.sort_by_key(|&s| mix(seed, (u64::from(i) << 32) | s as u64));
        for &s in &idx {
            order.push(per_stream[s][i as usize].clone());
        }
    }
    Input {
        streams,
        iters,
        order,
        injected,
    }
}

impl Input {
    /// The snapshots of stream `s`, in iteration order.
    pub fn stream(&self, s: usize) -> Vec<&CounterSnapshot> {
        let name = format!("fabric-{s:03}");
        let mut v: Vec<&CounterSnapshot> = self.order.iter().filter(|x| x.fabric == name).collect();
        v.sort_by_key(|x| x.iter);
        v
    }

    /// The generator's statement of where alarms must fall:
    /// `(stream, iteration, leaf, [port])` for every alarmed iteration.
    pub fn expected_alarms(&self, s: usize) -> Vec<AlarmAt> {
        match self.injected.iter().find(|f| f.stream == s) {
            Some(f) => (f.from_iter..self.iters)
                .map(|i| (i, f.port.0, vec![f.port]))
                .collect(),
            None => Vec::new(),
        }
    }
}

/// Offline reference: rebuild each stream's store and scan it once.
fn offline_alarms(snaps: &[&CounterSnapshot], cfg: &ServiceConfig) -> Vec<Alarm> {
    let mut store = snaps[0].new_store();
    for s in snaps {
        s.apply(&mut store);
    }
    let mut m = Monitor::new_learned(snaps[0].job, Detector::new(cfg.threshold), cfg.warmup);
    m.scan(&store, true);
    m.alarms
}

fn check(
    input: &Input,
    offline: &[Vec<Alarm>],
    rep: &ServiceReport,
    accepted: usize,
    run: &mut Run,
) {
    let n = input.order.len();
    run.check(
        accepted == n && rep.snapshots == n as u64 && rep.queue.dropped == 0,
        || {
            format!(
                "pushed {n}, accepted {accepted}, processed {}, dropped {}",
                rep.snapshots, rep.queue.dropped
            )
        },
    );
    run.check(rep.streams.len() == input.streams, || {
        format!(
            "{} streams reported, {} pushed",
            rep.streams.len(),
            input.streams
        )
    });
    for (s, st) in rep.streams.iter().enumerate() {
        let name = &st.fabric;
        run.check(st.closed && st.snapshots == input.iters, || {
            format!(
                "{name}: closed {} after {} snapshots",
                st.closed, st.snapshots
            )
        });
        let got: Vec<AlarmAt> = st
            .alarms
            .iter()
            .map(|a| {
                (
                    a.iter,
                    a.leaf,
                    a.deviations.iter().map(|d| (d.leaf, d.vspine)).collect(),
                )
            })
            .collect();
        let want = input.expected_alarms(s);
        run.check(got == want, || {
            format!("{name}: alarms {got:?}, generator says {want:?}")
        });
        run.check(offline.get(s) == Some(&st.alarms), || {
            format!("{name}: service alarms differ from an offline Monitor::scan")
        });
        let want_loc = input
            .injected
            .iter()
            .find(|f| f.stream == s)
            .map(|f| RingLocalization {
                cables: vec![],
                unpaired: vec![f.port],
            });
        run.check(st.localization == want_loc, || {
            format!(
                "{name}: localization {:?}, want {want_loc:?}",
                st.localization
            )
        });
    }
}

/// One service lifetime: generate the input, spawn, push every snapshot
/// from this thread, shut down. With a tracer, each step is a span and
/// every push is timed.
struct Round {
    report: ServiceReport,
    accepted: usize,
    /// Input generation plus service spawn.
    setup_s: f64,
    /// First push to shutdown returned.
    ingest_s: f64,
    /// Producer time inside `push` (timed rounds only).
    push_s: f64,
    drain_s: f64,
}

fn round(
    seed: u64,
    streams: usize,
    iters: u32,
    cfg: &ServiceConfig,
    mut tracer: Option<&mut Tracer>,
) -> Round {
    let t0 = Instant::now();
    let input = generate(seed, streams, iters);
    span(&mut tracer, Some("monitord.spawn"));
    let svc = Monitord::spawn(cfg.clone());
    let handle = svc.handle();
    span(&mut tracer, None);
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mut accepted = 0;
    let mut push_s = 0.0;
    span(&mut tracer, Some("monitord.push"));
    for snap in input.order {
        if tracer.is_some() {
            let t = Instant::now();
            accepted += usize::from(handle.push(snap));
            push_s += t.elapsed().as_secs_f64();
        } else {
            accepted += usize::from(handle.push(snap));
        }
    }
    span(&mut tracer, None);
    let t2 = Instant::now();
    span(&mut tracer, Some("monitord.shutdown"));
    let report = svc.shutdown();
    span(&mut tracer, None);
    let drain_s = t2.elapsed().as_secs_f64();
    Round {
        report,
        accepted,
        setup_s,
        ingest_s: t1.elapsed().as_secs_f64(),
        push_s,
        drain_s,
    }
}

/// Open (`Some(name)`) or close (`None`) a span when tracing.
fn span(t: &mut Option<&mut Tracer>, name: Option<&'static str>) {
    if let Some(t) = t.as_deref_mut() {
        match name {
            Some(n) => t.enter(n),
            None => t.exit(),
        }
    }
}

/// `quantile` line of the service's Prometheus dump, in µs.
fn prom_quantile_us(text: &str, hist: &str, q: &str) -> f64 {
    let key = format!("fp_monitord_{hist}{{quantile=\"{q}\"}} ");
    text.lines()
        .find_map(|l| l.strip_prefix(&key))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e3)
}

/// Keep freed memory in the process between rounds.
///
/// Every snapshot a stream ingests allocates a 128 KiB per-source matrix
/// (`IterCounters::by_src`) that the round's shutdown frees again. Under
/// glibc's default, adaptive trim and mmap thresholds a process lands at
/// random in one of two modes: either that memory stays in the heap and
/// the next round reuses it, or it goes back to the kernel and every round
/// re-faults ~200 MiB, which halves throughput (about 1 process in 6
/// here). Fixed thresholds make every process take the first mode.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only adjusts allocator tunables; it has no
    // preconditions on its arguments and glibc serializes it internally.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, 1 << 30);
        mallopt(M_MMAP_THRESHOLD, 4 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

pub fn run(args: &Args) -> Run {
    pin_allocator();
    let mut run = Run::default();
    let (streams, iters) = if args.quick { (8, 6) } else { (96, 16) };
    let cfg = ServiceConfig::default();
    run.config = format!(
        "{streams} streams x {iters} iterations of {LEAVES}x{VSPINES} snapshots per round, 1 producer, \
         queue {} {:?}, batch {}, threshold {}, warmup {}",
        cfg.queue_capacity, cfg.policy, cfg.batch_max, cfg.threshold, cfg.warmup
    );
    let budget = Duration::from_secs_f64(args.seconds);
    // Every round pushes these same inputs; the reference results and the
    // simulated metrics come from them once, outside any timing.
    let reference = generate(args.seed, streams, iters);
    let offline: Vec<Vec<Alarm>> = (0..streams)
        .map(|s| offline_alarms(&reference.stream(s), &cfg))
        .collect();
    let n = reference.order.len();
    // Data packets the counters account for: bytes over the MTU.
    let pkts: f64 = reference
        .order
        .iter()
        .map(|s| s.bytes.iter().sum::<u64>() as f64 / 4096.0)
        .sum();
    let detect: Vec<f64> = reference
        .injected
        .iter()
        .map(|f| {
            let st = reference.stream(f.stream);
            let i = f.from_iter as usize;
            (st[i].t_ns - st[i - 1].t_ns - GAP_NS) as f64 / 1e3
        })
        .collect();
    let good: Vec<f64> = (0..streams)
        .map(|s| {
            let st = reference.stream(s);
            let (last, prev) = (st[st.len() - 1], st[st.len() - 2]);
            let span = last.t_ns - prev.t_ns - GAP_NS;
            last.bytes.iter().sum::<u64>() as f64 * 8.0 / span as f64
        })
        .collect();
    let (mut setup, mut sps, mut trial) = (vec![], vec![], vec![]);
    let mut per: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    let (mut plain_s, mut traced_s) = (vec![], vec![]);
    let mut tracer = Tracer::new(Instant::now(), 0);
    let mut measured = Duration::ZERO;
    // Round 0 warms up (the first pass in a process runs markedly slower)
    // and is checked but not timed into the metrics.
    for k in 0u64.. {
        // The traced run alternates plain and traced rounds, so the
        // tracing overhead is measured in the same process.
        let timed = args.trace && k % 2 == 1;
        let r = round(
            args.seed,
            streams,
            iters,
            &cfg,
            timed.then_some(&mut tracer),
        );
        run.attempted += n as u64;
        check(&reference, &offline, &r.report, r.accepted, &mut run);
        if k == 0 {
            eprintln!("perfbench: warm-up round ingest {:.4} s", r.ingest_s);
            continue;
        }
        measured += Duration::from_secs_f64(r.setup_s + r.ingest_s);
        if !args.trace {
            setup.push(r.setup_s);
            sps.push(n as f64 / r.ingest_s);
            trial.push(r.ingest_s / streams as f64);
        } else if timed {
            traced_s.push(r.ingest_s);
            let rep = &r.report;
            let prom = |hist, q| prom_quantile_us(&rep.prometheus, hist, q);
            let mut push = |name: &'static str, v: f64| per.entry(name).or_default().push(v);
            push("monitord.push_blocked_s", r.push_s);
            push("monitord.queue.blocked", rep.queue.blocked as f64);
            push("monitord.batches", rep.batches as f64);
            push(
                "monitord.snapshots_per_batch",
                rep.snapshots as f64 / rep.batches.max(1) as f64,
            );
            push("monitord.scan_p50_us", prom("scan_latency_ns", "0.5"));
            push("monitord.scan_p99_us", prom("scan_latency_ns", "0.99"));
            push("monitord.queue_wait_p50_us", prom("queue_wait_ns", "0.5"));
            push("monitord.drain_s", r.drain_s);
        } else {
            plain_s.push(r.ingest_s);
        }
        if measured >= budget && (!args.trace || (!traced_s.is_empty() && !plain_s.is_empty())) {
            break;
        }
    }
    if args.trace {
        for (name, vs) in per {
            run.set(name, median(&vs));
        }
        run.set(
            "trace.overhead_pct",
            (median(&traced_s) / median(&plain_s) - 1.0) * 100.0,
        );
        let path = crate::out_dir().join(format!("spans-monitord_ingest-{}.tsv", args.seed));
        if let Err(e) = crate::spans::dump(&path, &tracer.spans) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        return run;
    }
    run.set("setup_s", median(&setup));
    eprintln!(
        "perfbench: median round ingest {:.4} s",
        median(&trial) * streams as f64
    );
    run.set("trial_s", median(&trial));
    run.set(
        "ns_per_data_pkt",
        median(&trial) * streams as f64 * 1e9 / pkts,
    );
    run.set("trials_per_s", 1.0 / median(&trial));
    run.set("snapshots_per_s", median(&sps));
    run.set("peak_rss_mib", peak_rss_mib());
    run.set("detect_latency_us", median(&detect));
    run.set("recovered_goodput_gbps", median(&good));
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_seeded_and_states_its_faults() {
        let a = generate(7, 8, 6);
        let b = generate(7, 8, 6);
        assert_eq!(a.order, b.order);
        assert_eq!(a.injected, b.injected);
        assert_ne!(generate(8, 8, 6).order, a.order);
        assert_eq!(a.order.len(), 48);
        assert_eq!(a.injected.len(), 2);
        for f in &a.injected {
            assert!(f.from_iter >= 2 && f.from_iter < 6);
            assert!(f.port.0 < LEAVES && f.port.1 < VSPINES);
            let want = a.expected_alarms(f.stream);
            assert_eq!(want.len() as u32, 6 - f.from_iter);
        }
        // Streams interleave: the first snapshots come from distinct streams.
        let first: std::collections::BTreeSet<&str> =
            a.order[..8].iter().map(|s| s.fabric.as_str()).collect();
        assert_eq!(first.len(), 8);
    }

    #[test]
    fn offline_monitor_alarms_where_the_generator_says() {
        let input = generate(3, 8, 6);
        let cfg = ServiceConfig::default();
        for s in 0..input.streams {
            let got: Vec<AlarmAt> = offline_alarms(&input.stream(s), &cfg)
                .iter()
                .map(|a| {
                    (
                        a.iter,
                        a.leaf,
                        a.deviations.iter().map(|d| (d.leaf, d.vspine)).collect(),
                    )
                })
                .collect();
            assert_eq!(got, input.expected_alarms(s), "stream {s}");
        }
    }
}
