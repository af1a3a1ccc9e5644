//! `fault_sweep`: a fixed, seeded campaign of small trials across the
//! collectives, prediction models, spray backends and fault kinds, a share
//! of them under the `fp-ctrl` closed loop, run by `fp_bench::Campaign`
//! on `available_parallelism` threads.

use crate::compose::{check_same, compose, engine_counts, layer_values};
use crate::metrics::{done, goodput, median, mix, peak_rss_mib, Run};
use crate::ref_trial::{pin, SETUP_REPS};
use crate::spans::{totals, Tracer};
use crate::Args;
use flowpulse::analytical::AnalyticalModel;
use flowpulse::eval::{
    build_schedule, run_trial, run_trial_ctl, CollectiveKind, CtrlSummary, FaultSpec,
    InjectedFault, ModelKind, TrialController, TrialResult, TrialSpec,
};
use fp_bench::Campaign;
use fp_ctrl::{run_ctrl_trial, Controller, CtrlConfig, Mitigation};
use fp_netsim::config::SimConfig;
use fp_netsim::engine::SchedStats;
use fp_netsim::sim::Simulator;
use fp_netsim::spray::SprayPolicy;
use fp_netsim::stats::Stats;
use fp_netsim::topology::{FatTreeSpec, Topology};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// One trial of the campaign.
#[derive(Clone, Debug)]
pub struct Cell {
    pub spec: TrialSpec,
    /// Closed-loop mitigation verb, for trials run under the controller.
    pub ctrl: Option<Mitigation>,
}

/// Measured bytes one monitored port sees per iteration, in closed form.
fn port_bytes(spec: &TrialSpec) -> f64 {
    let n = u64::from(spec.leaves * spec.hosts_per_leaf);
    let b = spec.bytes_per_node;
    let per_leaf = match spec.collective {
        CollectiveKind::RingAllReduce | CollectiveKind::HalvingDoubling => 2 * (n - 1) * b / n,
        CollectiveKind::RingReduceScatter => (n - 1) * b / n,
        // One measured non-local flow per leaf (the §5.1 subset).
        CollectiveKind::AllToAll => b / (n - 1),
    };
    per_leaf as f64 / f64::from(spec.spines * spec.parallel_links)
}

/// Whether the detector can resolve the threshold at all: one packet more
/// or less on a port must stay within a quarter of it. Below that (the
/// 8 MiB AllToAll subset carries ~17 packets per port, a 6 % step) clean
/// iterations alarm on packet quantization, so verdicts are not checked.
fn resolved(spec: &TrialSpec) -> bool {
    spec.sim.mtu as f64 / port_bytes(spec) <= spec.threshold / 4.0
}

/// Whether the faulty spine→leaf cable carries any of the collective's
/// traffic: some other leaf sends to the fault's leaf and its own uplink to
/// that spine is up. A ring leaf receives from one predecessor only, so a
/// pre-existing down cable at the predecessor on the same spine leaves the
/// fault where no traffic ever sees it.
fn observable(spec: &TrialSpec, r: &TrialResult) -> bool {
    let Some((fleaf, fv)) = r.fault_port else {
        return false;
    };
    let leaf = |h: fp_netsim::ids::HostId| h.0 / spec.hosts_per_leaf;
    build_schedule(spec).transfers.iter().any(|t| {
        let src = leaf(t.src);
        leaf(t.dst) == fleaf && src != fleaf && !r.preexisting_ports.contains(&(src, fv))
    })
}

/// What an open-loop cell must show, from the spec alone.
fn must_detect(spec: &TrialSpec) -> bool {
    // Only uniform spraying spreads retransmits over every port, which is
    // what the p·(1−1/s) bound assumes; hash-keyed backends may leave the
    // faulty cable off every measured path.
    match (spec.sim.spray, spec.fault.map(|f| f.kind)) {
        (SprayPolicy::Adaptive, Some(InjectedFault::Drop { rate })) => {
            rate * (1.0 - 1.0 / f64::from(spec.spines)) >= 2.0 * spec.threshold
        }
        _ => false,
    }
}

/// The campaign of one run seed. Every round of a run repeats it.
pub fn cells(seed: u64, quick: bool) -> Vec<Cell> {
    use CollectiveKind::*;
    use SprayPolicy::*;
    let learned = ModelKind::Learned { warmup: 1 };
    // (spray, collective, model, pre-existing down cables, silent drop?)
    // Halving-doubling runs under the analytical model only: under the
    // learned model its clean iterations alarm on some seeds (README).
    let open: &[(SprayPolicy, CollectiveKind, ModelKind, u32, bool)] = &[
        (Adaptive, RingAllReduce, ModelKind::Analytical, 0, false),
        (Adaptive, RingAllReduce, ModelKind::Analytical, 2, true),
        (Adaptive, RingAllReduce, ModelKind::Simulation, 0, true),
        (Adaptive, RingAllReduce, learned, 2, true),
        (Adaptive, RingReduceScatter, ModelKind::Analytical, 0, true),
        (Adaptive, RingReduceScatter, ModelKind::Simulation, 2, false),
        (Adaptive, AllToAll, ModelKind::Analytical, 0, false),
        (Adaptive, AllToAll, learned, 0, true),
        (Adaptive, HalvingDoubling, ModelKind::Analytical, 0, true),
        (Ecmp, RingAllReduce, learned, 0, false),
        (Ecmp, RingAllReduce, learned, 0, true),
        (Prime, RingAllReduce, learned, 2, false),
        (Prime, AllToAll, learned, 0, true),
        (Reps, RingAllReduce, learned, 0, false),
        (Reps, RingAllReduce, learned, 0, true),
    ];
    // (spray, fault, mitigation, pre-existing down cables)
    let closed: &[(SprayPolicy, InjectedFault, Mitigation, u32)] = &[
        (Adaptive, InjectedFault::Blackhole, Mitigation::AdminDown, 0),
        (
            Adaptive,
            InjectedFault::Blackhole,
            Mitigation::RecycleEntropy,
            0,
        ),
        (
            Adaptive,
            InjectedFault::DstBlackhole,
            Mitigation::AdminDown,
            2,
        ),
        (
            Reps,
            InjectedFault::Blackhole,
            Mitigation::RecycleEntropy,
            0,
        ),
        (Adaptive, InjectedFault::Blackhole, Mitigation::AdminDown, 2),
    ];
    let base = |spray, k: u64| {
        let s = mix(seed, k);
        TrialSpec {
            leaves: if quick { 8 } else { 16 },
            spines: if quick { 4 } else { 8 },
            bytes_per_node: if quick { 4 << 20 } else { 8 << 20 },
            iterations: 6,
            sim: SimConfig {
                spray,
                ..SimConfig::default()
            },
            seed: s,
            ..TrialSpec::default()
        }
    };
    let mut out = Vec::new();
    for (k, &(spray, collective, model, pre, drop)) in open.iter().enumerate() {
        let mut spec = base(spray, k as u64);
        let u = mix(spec.seed, 1) as f64 / u64::MAX as f64;
        spec.collective = collective;
        if collective == RingReduceScatter {
            // Half a ring-allreduce's bytes per port: double the buffer so
            // one packet stays a quarter of the threshold (see `resolved`).
            spec.bytes_per_node *= 2;
        }
        spec.model = model;
        spec.preexisting = pre;
        spec.fault = drop.then(|| FaultSpec {
            // 3–6 %: p·(1−1/s) stays at least 2.6× the 1 % threshold.
            kind: InjectedFault::Drop {
                rate: 0.03 + 0.03 * u,
            },
            at_iter: 1 + (mix(spec.seed, 2) % 3) as u32,
            heal_at_iter: None,
            bidirectional: false,
        });
        out.push(Cell {
            spec: pin(spec, spray),
            ctrl: None,
        });
    }
    // The closed-loop trials hold the most memory, and the pool runs
    // neighbouring cells side by side: spread them through the round so
    // that two of them rarely overlap and set the run's peak RSS.
    let stride = open.len() / closed.len();
    for (k, &(spray, kind, mitigation, pre)) in closed.iter().enumerate() {
        let mut spec = base(spray, (open.len() + k) as u64);
        spec.model = learned;
        spec.preexisting = pre;
        spec.fault = Some(FaultSpec {
            kind,
            at_iter: 2,
            heal_at_iter: None,
            bidirectional: false,
        });
        let cell = Cell {
            spec: pin(spec, spray),
            ctrl: Some(mitigation),
        };
        out.insert((k + 1) * (stride + 1) - 1, cell);
    }
    out
}

/// Bytes one iteration of the spec's collective delivers, in closed form.
fn iteration_bytes(spec: &TrialSpec) -> u64 {
    let n = u64::from(spec.leaves * spec.hosts_per_leaf);
    let b = spec.bytes_per_node;
    match spec.collective {
        CollectiveKind::RingAllReduce => 2 * (n - 1) * b,
        CollectiveKind::RingReduceScatter => (n - 1) * b,
        CollectiveKind::AllToAll => n * (n - 1) * (b / (n - 1)).max(1),
        CollectiveKind::HalvingDoubling => 2 * (n - 1) * (b / n * n),
    }
}

/// Checks against closed forms and the fault the spec injected.
pub fn check(cell: &Cell, r: &TrialResult, run: &mut Run) {
    let spec = &cell.spec;
    let tag = format!(
        "{:?}/{:?}/{:?} seed {}",
        spec.sim.spray, spec.collective, spec.model, spec.seed
    );
    let st = &r.stats;
    let want = u64::from(spec.iterations) * iteration_bytes(spec);
    run.check(st.flows_failed == 0 && st.bytes_delivered == want, || {
        format!(
            "{tag}: delivered {} B with {} failed flows, want {want} B",
            st.bytes_delivered, st.flows_failed
        )
    });
    match cell.ctrl {
        None if resolved(spec) => {
            run.check(!r.false_alarm, || {
                format!("{tag}: alarm in a clean iteration")
            });
            if must_detect(spec) && observable(spec, r) {
                run.check(r.detected, || {
                    format!("{tag}: drop above the bound not detected")
                });
            }
        }
        None => {}
        Some(_) => {
            let Some(c) = &r.ctrl else {
                run.check(false, || format!("{tag}: no closed-loop outcome"));
                return;
            };
            let want_port: Vec<(u32, u32)> = r
                .fault_port
                .into_iter()
                .filter(|_| observable(spec, r))
                .collect();
            run.check(
                c.mitigated_ports == want_port && c.false_mitigations == 0,
                || {
                    format!(
                        "{tag}: mitigated {:?} ({} false), injected {want_port:?}",
                        c.mitigated_ports, c.false_mitigations
                    )
                },
            );
            let (g0, gl) = (goodput(r, 0), goodput(r, spec.iterations - 1));
            run.check(gl >= 0.9 * g0, || {
                format!("{tag}: last-iteration goodput {gl:.3e} < 90% of {g0:.3e}")
            });
            run.check(
                c.time_to_detect_ns.is_some() != want_port.is_empty(),
                || {
                    format!(
                        "{tag}: detected at {:?}, fault observable: {}",
                        c.time_to_detect_ns,
                        !want_port.is_empty()
                    )
                },
            );
        }
    }
}

/// A `TrialController` that times each call into the `fp-ctrl` loop.
struct TimedCtl {
    inner: Controller,
    tracer: Tracer,
}

impl TrialController for TimedCtl {
    fn on_iteration_end(&mut self, sim: &mut Simulator, iter: u32) {
        self.tracer.enter("ctrl.iteration_end");
        self.inner.on_iteration_end(sim, iter);
        self.tracer.exit();
    }
    fn summary(&self) -> CtrlSummary {
        self.inner.summary()
    }
}

fn ctrl_cfg(m: Mitigation) -> CtrlConfig {
    CtrlConfig {
        mitigation: m,
        ..CtrlConfig::default()
    }
}

/// Run one cell the way users run it; with `tracer`, the closed loop's
/// controller calls are timed.
fn run_cell(cell: &Cell, tracer: Option<Tracer>) -> (TrialResult, Vec<crate::spans::Span>) {
    match (cell.ctrl, tracer) {
        (None, _) => (run_trial(&cell.spec), Vec::new()),
        (Some(m), None) => (run_ctrl_trial(&cell.spec, ctrl_cfg(m)), Vec::new()),
        (Some(m), Some(tracer)) => {
            let ctl = Rc::new(RefCell::new(TimedCtl {
                inner: Controller::for_spec(&cell.spec, ctrl_cfg(m)),
                tracer,
            }));
            let dyn_ctl: Rc<RefCell<dyn TrialController>> = ctl.clone();
            let (r, _) = run_trial_ctl(&cell.spec, None, Some(dyn_ctl));
            let spans = std::mem::take(&mut ctl.borrow_mut().tracer.spans);
            (r, spans)
        }
    }
}

/// The campaign's set-up: specs plus every trial's topology, schedule and
/// analytical prediction.
fn setup_once(seed: u64, quick: bool) -> Vec<Cell> {
    let cells = cells(seed, quick);
    for c in &cells {
        let s = &c.spec;
        let topo = Topology::fat_tree(FatTreeSpec {
            leaves: s.leaves,
            spines: s.spines,
            hosts_per_leaf: s.hosts_per_leaf,
            parallel_links: s.parallel_links,
            ..Default::default()
        });
        let demand = build_schedule(s).demand(topo.n_hosts());
        std::hint::black_box(AnalyticalModel::new(&topo, std::iter::empty()).predict(&demand));
    }
    cells
}

pub fn run(args: &Args) -> Run {
    let mut run = Run::default();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let campaign = Campaign::with_threads(threads);
    let cells = cells(args.seed, args.quick);
    run.config = format!(
        "{} trials/round ({} closed-loop), {}x{} leaves x spines, {} MiB, {} iters, {} threads, \
         shards Some(1), memo Some(false)",
        cells.len(),
        cells.iter().filter(|c| c.ctrl.is_some()).count(),
        cells[0].spec.leaves,
        cells[0].spec.spines,
        cells[0].spec.bytes_per_node >> 20,
        cells[0].spec.iterations,
        campaign.threads()
    );
    let budget = Duration::from_secs_f64(args.seconds);
    if args.trace {
        traced(args, &campaign, &cells, budget, &mut run);
        return run;
    }

    let (mut trial_s, mut nspp, mut tps, mut sps) = (vec![], vec![], vec![], vec![]);
    let (mut detect, mut good, mut setup) = (vec![], vec![], vec![]);
    let mut measured = Duration::ZERO;
    // Round 0 warms up and is checked but not timed into the metrics.
    for round in 0.. {
        let t = Instant::now();
        let out: Vec<(TrialResult, f64)> = campaign.map(&cells, |c| {
            let t = Instant::now();
            let r = run_cell(c, None).0;
            (r, t.elapsed().as_secs_f64())
        });
        let wall = t.elapsed();
        run.attempted += cells.len() as u64;
        for (c, (r, _)) in cells.iter().zip(&out) {
            check(c, r, &mut run);
        }
        if round == 0 {
            eprintln!("perfbench: warm-up round {:.3} s", wall.as_secs_f64());
            continue;
        }
        measured += wall;
        let busy: f64 = out.iter().map(|o| o.1).sum();
        let pkts: u64 = out.iter().map(|o| o.0.stats.data_pkts_sent).sum();
        let snaps: usize = out.iter().map(|o| o.0.snapshots.len()).sum();
        trial_s.extend(out.iter().map(|o| o.1));
        nspp.push(busy * 1e9 / pkts as f64);
        tps.push(cells.len() as f64 / wall.as_secs_f64());
        sps.push(snaps as f64 / wall.as_secs_f64());
        for (c, (r, _)) in cells.iter().zip(&out) {
            if let (Some(_), Some(o)) = (c.ctrl, &r.ctrl) {
                detect.extend(o.time_to_detect_ns.map(|ns| ns as f64 / 1e3));
                good.push(goodput(r, c.spec.iterations - 1) / 1e9);
            }
        }
        // Set-up is under a millisecond of work: repeat it after every
        // round, so the median samples the whole run.
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            std::hint::black_box(setup_once(args.seed, args.quick));
            setup.push(t.elapsed().as_secs_f64());
        }
        if done(measured, wall, budget) {
            break;
        }
    }
    run.set("setup_s", median(&setup));
    run.set("trial_s", median(&trial_s));
    run.set("ns_per_data_pkt", median(&nspp));
    run.set("trials_per_s", median(&tps));
    run.set("snapshots_per_s", median(&sps));
    run.set("peak_rss_mib", peak_rss_mib());
    run.set("detect_latency_us", median(&detect));
    run.set("recovered_goodput_gbps", median(&good));
    run
}

/// Traced rounds: the campaign runs as users run it (closed-loop
/// controllers timed by a delegating `TrialController`), then every
/// open-loop trial is re-composed from the layers under spans and must
/// reproduce its `run_trial` result exactly.
fn traced(args: &Args, campaign: &Campaign, cells: &[Cell], budget: Duration, run: &mut Run) {
    let epoch = Instant::now();
    let mut all = Tracer::new(epoch, 0);
    let mut per: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    let start = Instant::now();
    for round in 0u64.. {
        let t = Instant::now();
        let all_cells: Vec<usize> = (0..cells.len()).collect();
        let out: Vec<(TrialResult, Vec<crate::spans::Span>, f64)> =
            campaign.map(&all_cells, |&i| {
                let t = Instant::now();
                let (r, spans) =
                    run_cell(&cells[i], Some(Tracer::new(epoch, round << 32 | i as u64)));
                (r, spans, t.elapsed().as_secs_f64())
            });
        let wall = t.elapsed().as_secs_f64();
        run.attempted += cells.len() as u64;
        for (c, (r, _, _)) in cells.iter().zip(&out) {
            check(c, r, run);
        }
        let open: Vec<usize> = (0..cells.len())
            .filter(|&i| cells[i].ctrl.is_none())
            .collect();
        let composed = campaign.map(&open, |&i| {
            let mut tr = Tracer::new(epoch, round << 32 | i as u64);
            let t = Instant::now();
            let c = compose(&cells[i].spec, &out[i].0, &mut tr);
            (c, tr.spans, t.elapsed().as_secs_f64())
        });
        // Each tracer's parent links are local to it: absorb them one by one.
        let mut round_tr = Tracer::new(epoch, round);
        let (mut untraced_s, mut traced_s) = (0.0, 0.0);
        for (&i, (c, sp, dt)) in open.iter().zip(composed) {
            run.errors.extend(check_same(&c, &out[i].0));
            untraced_s += out[i].2;
            traced_s += dt;
            round_tr.absorb(sp);
        }
        for (_, sp, _) in &out {
            round_tr.absorb(sp.clone());
        }
        let sp = &round_tr.spans;
        let mut push = |name: &'static str, v: f64| per.entry(name).or_default().push(v);
        for (name, v) in layer_values(sp) {
            push(name, v);
        }
        let (mut st, mut sched) = (Stats::default(), SchedStats::default());
        for (r, _, _) in &out {
            st.merge(&r.stats);
            sched.merge(&r.sched);
        }
        for (name, v) in engine_counts(&st, &sched) {
            push(name, v);
        }
        // Engine time is spanned on the composed open-loop trials only.
        let open_events: u64 = open.iter().map(|&i| out[i].0.stats.events).sum();
        let engine_s = totals(sp).get("netsim.engine.run").map_or(0.0, |t| t.1);
        push(
            "netsim.engine.ns_per_event",
            engine_s * 1e9 / open_events as f64,
        );
        let busy: f64 = out.iter().map(|o| o.2).sum();
        push("campaign.busy_s", busy);
        push(
            "campaign.idle_s",
            (campaign.threads() as f64 * wall - busy).max(0.0),
        );
        push("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0);
        all.absorb(round_tr.spans);
        if done(start.elapsed(), t.elapsed(), budget) {
            break;
        }
    }
    for (name, vs) in per {
        run.set(name, median(&vs));
    }
    let path = crate::out_dir().join(format!("spans-fault_sweep-{}.tsv", args.seed));
    if let Err(e) = crate::spans::dump(&path, &all.spans) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}
