//! `ref_trial`: the paper's reference trial (the `trial --template` spec),
//! run back to back on one thread at seeds drawn from the run seed.

use crate::compose::{check_same, compose, engine_counts, layer_values};
use crate::metrics::{done, goodput, median, mix, peak_rss_mib, Run};
use crate::spans::Tracer;
use crate::Args;
use flowpulse::analytical::AnalyticalModel;
use flowpulse::eval::{
    build_schedule, run_trial, FaultSpec, InjectedFault, TrialResult, TrialSpec,
};
use fp_collectives::runner::{CollectiveRunner, RunnerConfig};
use fp_netsim::config::SimConfig;
use fp_netsim::sim::Simulator;
use fp_netsim::spray::SprayPolicy;
use fp_netsim::topology::{FatTreeSpec, Topology};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Pin every knob whose `None`/default would read the environment, so a
/// run measures the defaults a user gets with no `FP_*` variable set.
pub fn pin(mut spec: TrialSpec, spray: SprayPolicy) -> TrialSpec {
    spec.sim.spray = spray;
    spec.shards = Some(1);
    spec.shard_epoch = Some(32);
    spec.memo = Some(false);
    spec
}

/// The reference trial at `seed`: 32 leaves × 16 spines, one host per
/// leaf, 64 MiB Ring-AllReduce, 3 iterations, adaptive spray, 1 µs start
/// jitter, analytical model, 1 % threshold, and a 1.5 % silent drop on one
/// spine→leaf link from iteration 1. Quick mode shrinks the fabric and
/// buffer and raises the drop so the same checks hold.
pub fn spec(seed: u64, quick: bool) -> TrialSpec {
    let base = TrialSpec {
        fault: Some(FaultSpec {
            kind: InjectedFault::Drop {
                rate: if quick { 0.05 } else { 0.015 },
            },
            at_iter: 1,
            heal_at_iter: None,
            bidirectional: false,
        }),
        sim: SimConfig {
            spray: SprayPolicy::Adaptive,
            ..SimConfig::default()
        },
        seed,
        ..TrialSpec::default()
    };
    let base = if quick {
        TrialSpec {
            leaves: 8,
            spines: 8,
            bytes_per_node: 8 << 20,
            ..base
        }
    } else {
        base
    };
    pin(base, SprayPolicy::Adaptive)
}

/// Set-up repetitions after each measured trial or round.
pub const SETUP_REPS: usize = 25;

/// The set-up `run_trial` does before simulating: topology, schedule,
/// demand and analytical prediction, simulator and runner construction.
fn setup_once(spec: &TrialSpec) {
    let topo = Topology::fat_tree(FatTreeSpec {
        leaves: spec.leaves,
        spines: spec.spines,
        hosts_per_leaf: spec.hosts_per_leaf,
        parallel_links: spec.parallel_links,
        ..Default::default()
    });
    let sched = build_schedule(spec);
    let demand = sched.demand(topo.n_hosts());
    let p = AnalyticalModel::new(&topo, std::iter::empty()).predict(&demand);
    let mut sim = Simulator::new(topo, spec.sim.clone(), spec.seed);
    let runner = CollectiveRunner::new(
        sched,
        RunnerConfig {
            iterations: spec.iterations,
            jitter: spec.jitter,
            ..Default::default()
        },
    );
    sim.set_app(Box::new(runner));
    std::hint::black_box((&sim, &p));
}

/// Checks against closed forms computed apart from the program.
pub fn check(spec: &TrialSpec, r: &TrialResult, run: &mut Run) {
    let n = u64::from(spec.leaves * spec.hosts_per_leaf);
    let b = spec.bytes_per_node;
    let s = spec.spines;
    let it = u64::from(spec.iterations);
    let mtu = spec.sim.mtu as u64;
    let seed = spec.seed;
    let st = &r.stats;
    run.check(
        st.flows_failed == 0 && st.flows_completed == it * 2 * (n - 1) * n,
        || {
            format!(
                "seed {seed}: flows completed {} failed {} (want {} / 0)",
                st.flows_completed,
                st.flows_failed,
                it * 2 * (n - 1) * n
            )
        },
    );
    let want_bytes = it * 2 * (n - 1) * b;
    run.check(st.bytes_delivered == want_bytes, || {
        format!(
            "seed {seed}: bytes_delivered {} != {want_bytes}",
            st.bytes_delivered
        )
    });
    let want_pkts = it * 2 * (n - 1) * n * b.div_ceil(n * mtu);
    run.check(st.data_pkts_sent == want_pkts, || {
        format!(
            "seed {seed}: data_pkts_sent {} != {want_pkts}",
            st.data_pkts_sent
        )
    });
    run.check(r.observed.len() as u64 == it, || {
        format!("seed {seed}: {} observed iterations", r.observed.len())
    });
    // Leaf counters see every delivered copy: a clean iteration sums to
    // 2(N−1)·B exactly, and over the run the excess is exactly the
    // duplicate deliveries (retransmits of segments whose ACK was lost).
    let clean_ok = r.observed.iter().enumerate().all(|(i, o)| {
        spec.fault.is_some_and(|f| i as u32 >= f.at_iter) || o.total() == (2 * (n - 1) * b) as f64
    });
    run.check(clean_ok, || {
        format!("seed {seed}: a clean iteration's counters do not sum to 2(N-1)B")
    });
    let sum: f64 = r.observed.iter().map(|o| o.total()).sum();
    let want_sum = (want_bytes + st.dup_pkts_delivered * mtu) as f64;
    run.check(b.is_multiple_of(n * mtu) && sum == want_sum, || {
        format!("seed {seed}: counters sum to {sum}, want {want_sum}")
    });
    let per_port = (2 * (n - 1) * b) as f64 / (n * u64::from(s)) as f64;
    let pred_ok = r.predicted.as_ref().is_some_and(|p| {
        p.bytes.len() as u64 == n * u64::from(s)
            && p.bytes
                .iter()
                .all(|&x| (x - per_port).abs() <= 1e-9 * per_port)
    });
    run.check(pred_ok, || {
        format!("seed {seed}: analytical prediction is not {per_port} B on every port")
    });
    let (Some(f), Some(port)) = (spec.fault, r.fault_port) else {
        run.check(false, || format!("seed {seed}: no fault was placed"));
        return;
    };
    let InjectedFault::Drop { rate } = f.kind else {
        unreachable!("reference fault is a drop")
    };
    // The detectability bound: a drop of p on one of s ports shows as a
    // p·(1−1/s) shortfall, since retransmits spray over every port.
    run.check(rate * (1.0 - 1.0 / f64::from(s)) > spec.threshold, || {
        format!("seed {seed}: drop {rate} is below the detectability bound")
    });
    // The detector, recomputed: each iteration alarms on exactly the ports
    // whose counters leave the closed-form prediction by more than the
    // threshold. Near the bound, binomial drop noise can keep a faulty
    // iteration under it, so a miss is allowed; a wrong verdict is not.
    let mut alarmed_any = false;
    for (i, o) in r.observed.iter().enumerate() {
        let i = i as u32;
        let mut want: Vec<(u32, u32)> = Vec::new();
        for leaf in 0..spec.leaves {
            for v in 0..s {
                if ((o.get(leaf, v) - per_port) / per_port).abs() > spec.threshold {
                    want.push((leaf, v));
                }
            }
        }
        let mut got: Vec<(u32, u32)> = r
            .alarms
            .iter()
            .filter(|a| a.iter == i)
            .flat_map(|a| a.deviations.iter().map(|d| (d.leaf, d.vspine)))
            .collect();
        got.sort_unstable();
        run.check(got == want, || {
            format!("seed {seed}: iteration {i} alarms on {got:?}, counters say {want:?}")
        });
        // Only the faulty leaf may deviate, and only once the fault is in:
        // its faulty port falls short, and its other ports may run over
        // with the retransmits they absorb.
        let faulty = i >= f.at_iter;
        let short = |p: (u32, u32)| o.get(p.0, p.1) < per_port;
        run.check(
            want.iter()
                .all(|&p| faulty && p.0 == port.0 && (p == port) == short(p)),
            || {
                format!(
                    "seed {seed}: iteration {i} deviates on {want:?}; {port:?} is faulty from {}",
                    f.at_iter
                )
            },
        );
        run.check(!faulty || short(port), || {
            format!("seed {seed}: no shortfall on faulty port {port:?} in iteration {i}")
        });
        alarmed_any |= want.contains(&port);
    }
    let loc_ok = r.localization.as_ref().is_some_and(|l| {
        l.cables.is_empty() && l.unpaired == if alarmed_any { vec![port] } else { vec![] }
    });
    run.check(loc_ok, || {
        format!(
            "seed {seed}: localization {:?} does not name {port:?}",
            r.localization
        )
    });
}

/// Simulated span of iteration `iter`, µs: the schedule's bytes over the
/// iteration's goodput.
fn iter_span_us(spec: &TrialSpec, r: &TrialResult, iter: u32) -> f64 {
    let bytes = 2 * u64::from(spec.leaves - 1) * spec.bytes_per_node;
    bytes as f64 * 8.0 / goodput(r, iter) * 1e6
}

pub fn run(args: &Args) -> Run {
    let mut run = Run::default();
    let spec0 = spec(args.seed, args.quick);
    run.config = format!(
        "{}x{} leaves x spines, {} MiB ring-allreduce, {} iters, spray {:?}, jitter {:?}, \
         drop {:?}, threshold {}, shards {:?}, memo {:?}, 1 thread",
        spec0.leaves,
        spec0.spines,
        spec0.bytes_per_node >> 20,
        spec0.iterations,
        spec0.sim.spray,
        spec0.jitter,
        spec0.fault.map(|f| f.kind),
        spec0.threshold,
        spec0.shards,
        spec0.memo
    );
    let budget = Duration::from_secs_f64(args.seconds);
    if args.trace {
        traced(args, budget, &mut run);
        return run;
    }

    let (mut wall, mut nspp, mut detect, mut good) = (vec![], vec![], vec![], vec![]);
    let mut setup = Vec::new();
    let mut measured = Duration::ZERO;
    // Trial 0 warms caches and the allocator and is not timed into the
    // metrics; it is still checked.
    for k in 0.. {
        let spec = spec(mix(args.seed, k), args.quick);
        let t = Instant::now();
        let r = run_trial(&spec);
        let dt = t.elapsed();
        run.attempted += 1;
        check(&spec, &r, &mut run);
        if k == 0 {
            eprintln!("perfbench: warm-up trial {:.3} s", dt.as_secs_f64());
        } else {
            measured += dt;
            wall.push(dt.as_secs_f64());
            nspp.push(dt.as_nanos() as f64 / r.stats.data_pkts_sent as f64);
            detect.push(iter_span_us(&spec, &r, spec.fault.map_or(1, |f| f.at_iter)));
            good.push(goodput(&r, spec.iterations - 1) / 1e9);
            // Set-up is under a millisecond of work and its speed drifts
            // with the host: repeat it after every trial, so the median
            // samples the whole run.
            for _ in 0..SETUP_REPS {
                let t = Instant::now();
                setup_once(&spec);
                setup.push(t.elapsed().as_secs_f64());
            }
            if done(measured, dt, budget) {
                break;
            }
        }
    }
    let n = wall.len() as f64;
    run.set("setup_s", median(&setup));
    run.set("trial_s", median(&wall));
    run.set("ns_per_data_pkt", median(&nspp));
    run.set("trials_per_s", n / measured.as_secs_f64());
    run.set(
        "snapshots_per_s",
        n * f64::from(spec0.iterations) / measured.as_secs_f64(),
    );
    run.set("peak_rss_mib", peak_rss_mib());
    run.set("detect_latency_us", median(&detect));
    run.set("recovered_goodput_gbps", median(&good));
    run
}

/// Traced run: each trial runs untraced through `run_trial`, then again
/// re-composed from the layers under spans; the two must agree exactly.
fn traced(args: &Args, budget: Duration, run: &mut Run) {
    let epoch = Instant::now();
    let mut all = Tracer::new(epoch, 0);
    let mut per: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut push = |name: &'static str, v: f64| per.entry(name).or_default().push(v);
    let start = Instant::now();
    for k in 0.. {
        let pair = Instant::now();
        let spec = spec(mix(args.seed, k), args.quick);
        let t = Instant::now();
        let r = run_trial(&spec);
        let untraced = t.elapsed().as_secs_f64();
        run.attempted += 1;
        check(&spec, &r, run);
        let mut tr = Tracer::new(epoch, k);
        let t = Instant::now();
        let c = compose(&spec, &r, &mut tr);
        let traced = t.elapsed().as_secs_f64();
        run.errors.extend(check_same(&c, &r));
        for (name, v) in layer_values(&tr.spans) {
            push(name, v);
        }
        let engine_s = crate::spans::totals(&tr.spans)["netsim.engine.run"].1;
        push(
            "netsim.engine.ns_per_event",
            engine_s * 1e9 / c.stats.events as f64,
        );
        for (name, v) in engine_counts(&c.stats, &c.sched) {
            push(name, v);
        }
        push("trace.overhead_pct", (traced / untraced - 1.0) * 100.0);
        all.absorb(tr.spans);
        if done(start.elapsed(), pair.elapsed(), budget) {
            break;
        }
    }
    for (name, vs) in per {
        run.set(name, median(&vs));
    }
    let path = crate::out_dir().join(format!("spans-ref_trial-{}.tsv", args.seed));
    if let Err(e) = crate::spans::dump(&path, &all.spans) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}
