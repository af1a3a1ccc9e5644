//! A trial re-composed from the layers' public functions, with a span
//! around each call, so the traced run can say where a trial's time goes.
//!
//! The composition follows `flowpulse::eval::run_trial` on the unsharded,
//! memo-off path the benchmark pins. Inputs that `eval` keeps private
//! (fault and pre-existing cable placement) are taken from the untraced
//! `TrialResult` of the same spec, and [`check_same`] asserts that the
//! composition reproduces that result's stats, alarms and localization
//! exactly — so the timed path is the path users run.

use crate::spans::Tracer;
use flowpulse::analytical::AnalyticalModel;
use flowpulse::detector::Detector;
use flowpulse::eval::{
    build_schedule, CollectiveKind, InjectedFault, ModelKind, TrialResult, TrialSpec,
};
use flowpulse::localizer::{Localizer, RingLocalization};
use flowpulse::model::PortLoads;
use flowpulse::monitor::{Alarm, Monitor};
use flowpulse::simulated::SimulationModel;
use flowpulse::snapshot::CounterSnapshot;
use fp_collectives::alltoall::{demand_of_subset, single_nonlocal_subset};
use fp_collectives::runner::{CollectiveRunner, MeasuredSubset, RunnerConfig};
use fp_netsim::engine::SchedStats;
use fp_netsim::fault::{FaultAction, FaultKind};
use fp_netsim::ids::LinkId;
use fp_netsim::rng::splitmix64;
use fp_netsim::sim::Simulator;
use fp_netsim::stats::Stats;
use fp_netsim::topology::{FatTreeSpec, Topology};

/// The measured job id `eval` runs the collective as.
const JOB: u32 = 1;

/// What the composed trial produced.
pub struct Composed {
    pub stats: Stats,
    pub sched: SchedStats,
    pub alarms: Vec<Alarm>,
    pub localization: Option<RingLocalization>,
    pub snapshots: Vec<CounterSnapshot>,
}

/// Run `spec` layer by layer under `t`'s spans.
pub fn compose(spec: &TrialSpec, untraced: &TrialResult, t: &mut Tracer) -> Composed {
    t.enter("trial");
    t.enter("eval.setup");
    let topo = t.time("netsim.topology.build", |_| {
        Topology::fat_tree(FatTreeSpec {
            leaves: spec.leaves,
            spines: spec.spines,
            hosts_per_leaf: spec.hosts_per_leaf,
            parallel_links: spec.parallel_links,
            ..Default::default()
        })
    });
    let mut admin_down: Vec<LinkId> = Vec::new();
    for &(leaf, v) in &untraced.preexisting_ports {
        admin_down.push(topo.uplink(leaf, v));
        admin_down.push(topo.downlink(v, leaf));
    }
    let sched = t.time("collectives.schedule.build", |_| build_schedule(spec));
    let measured = match spec.collective {
        CollectiveKind::AllToAll => {
            MeasuredSubset::Transfers(single_nonlocal_subset(&sched, &topo.host_leaf))
        }
        _ => MeasuredSubset::All,
    };
    let predicted: Option<PortLoads> = match spec.model {
        ModelKind::Analytical => Some(t.time("core.analytical.predict", |_| {
            let demand = match &measured {
                MeasuredSubset::Transfers(s) => demand_of_subset(&sched, s, topo.n_hosts()),
                MeasuredSubset::All => sched.demand(topo.n_hosts()),
            };
            AnalyticalModel::new(&topo, admin_down.iter().copied())
                .predict(&demand)
                .loads
        })),
        ModelKind::Simulation => Some(t.time("core.simulated.predict", |_| {
            SimulationModel::new(spec.sim.clone())
                .predict_measured(&topo, &admin_down, &sched, JOB, measured.clone())
                .0
        })),
        ModelKind::Learned { .. } => None,
    };
    let mut sim = Simulator::new(topo.clone(), spec.sim.clone(), spec.seed);
    for &l in &admin_down {
        sim.apply_fault_now(l, FaultAction::Set(FaultKind::AdminDown), false);
    }
    let rcfg = RunnerConfig {
        job: JOB,
        iterations: spec.iterations,
        jitter: spec.jitter,
        // `eval`'s jitter stream seed; `check_same` catches any drift.
        jitter_seed: splitmix64(spec.seed ^ 0x717),
        measured,
        ..Default::default()
    };
    let mut runner = CollectiveRunner::new(sched, rcfg);
    if let (Some(f), Some((fleaf, fv))) = (spec.fault, untraced.fault_port) {
        let kind = match f.kind {
            InjectedFault::Drop { rate } => FaultKind::SilentDrop { rate },
            InjectedFault::Blackhole => FaultKind::SilentBlackhole,
            InjectedFault::DstBlackhole => FaultKind::DstBlackhole {
                dst_leaf: fleaf as u16,
            },
        };
        let down = topo.downlink(fv, fleaf);
        let (mut installed, mut healed) = (false, false);
        runner.set_iteration_start_hook(Box::new(move |sim, iter| {
            if !installed && iter >= f.at_iter {
                installed = true;
                sim.apply_fault_now(down, FaultAction::Set(kind), f.bidirectional);
            }
            if let Some(h) = f.heal_at_iter {
                if installed && !healed && iter >= h {
                    healed = true;
                    sim.apply_fault_now(down, FaultAction::Clear, f.bidirectional);
                }
            }
        }));
    }
    sim.set_app(Box::new(runner));
    t.exit();

    t.time("eval.simulate", |t| {
        t.time("netsim.engine.run", |_| {
            sim.run();
        })
    });

    t.enter("eval.analysis");
    let detector = Detector::new(spec.threshold);
    let monitor = t.time("core.monitor.scan", |_| {
        let mut m = match (spec.model, predicted) {
            (ModelKind::Learned { warmup }, _) => Monitor::new_learned(JOB, detector, warmup),
            (_, Some(p)) => Monitor::new_fixed(JOB, detector, p),
            _ => unreachable!("fixed model without prediction"),
        };
        m.scan(&sim.counters, true);
        m
    });
    let snapshots = t.time("core.snapshot.sequence", |_| {
        CounterSnapshot::sequence_from(&sim.counters, JOB)
    });
    let is_ring = matches!(
        spec.collective,
        CollectiveKind::RingAllReduce | CollectiveKind::RingReduceScatter
    );
    let localization = match (spec.fault, untraced.fault_port) {
        (Some(f), Some(_)) if is_ring && spec.hosts_per_leaf == 1 => {
            Some(t.time("core.localizer.localize", |_| {
                let alarmed = monitor.shortfall_ports(f.at_iter);
                let leaves = spec.leaves;
                Localizer::default().localize_ring(&alarmed, |l| (l + 1) % leaves)
            }))
        }
        _ => None,
    };
    t.exit();
    t.exit();
    Composed {
        stats: sim.stats.clone(),
        sched: sim.sched_stats(),
        alarms: monitor.alarms,
        localization,
        snapshots,
    }
}

/// Mismatches between the composition and the untraced `run_trial`.
pub fn check_same(c: &Composed, r: &TrialResult) -> Vec<String> {
    let mut errs = Vec::new();
    let js = |s: &Stats| serde_json::to_string(s).expect("stats serialize");
    if js(&c.stats) != js(&r.stats) {
        errs.push(format!(
            "composed stats differ from run_trial: {} vs {}",
            js(&c.stats),
            js(&r.stats)
        ));
    }
    if c.alarms != r.alarms {
        errs.push(format!(
            "composed alarms differ from run_trial ({} vs {})",
            c.alarms.len(),
            r.alarms.len()
        ));
    }
    if c.localization != r.localization {
        errs.push(format!(
            "composed localization {:?} differs from run_trial {:?}",
            c.localization, r.localization
        ));
    }
    if c.snapshots != r.snapshots {
        errs.push("composed counter snapshots differ from run_trial".into());
    }
    errs
}

/// Per-layer values of one trial's (or one round's) spans, in the units of
/// [`crate::metrics::PER_LAYER`]: the `eval.*` phases as whole durations,
/// every layer below them as self time.
pub fn layer_values(spans: &[crate::spans::Span]) -> Vec<(&'static str, f64)> {
    let tot = crate::spans::totals(spans);
    let get = |n: &str, own: bool| {
        tot.get(n)
            .map(|&(all, s)| if own { s } else { all })
            .unwrap_or(0.0)
    };
    vec![
        ("eval.setup_ms", get("eval.setup", false) * 1e3),
        ("eval.simulate_s", get("eval.simulate", false)),
        ("eval.analysis_ms", get("eval.analysis", false) * 1e3),
        (
            "netsim.topology.build_ms",
            get("netsim.topology.build", true) * 1e3,
        ),
        (
            "collectives.schedule.build_ms",
            get("collectives.schedule.build", true) * 1e3,
        ),
        (
            "core.analytical.predict_ms",
            get("core.analytical.predict", true) * 1e3,
        ),
        (
            "core.simulated.predict_s",
            get("core.simulated.predict", true),
        ),
        ("netsim.engine.run_s", get("netsim.engine.run", true)),
        ("core.monitor.scan_ms", get("core.monitor.scan", true) * 1e3),
        (
            "core.snapshot.sequence_ms",
            get("core.snapshot.sequence", true) * 1e3,
        ),
        (
            "core.localizer.localize_us",
            get("core.localizer.localize", true) * 1e6,
        ),
        (
            "ctrl.iteration_end_ms",
            get("ctrl.iteration_end", true) * 1e3,
        ),
    ]
}

/// Engine, scheduler, transport and queue counts of one trial, or of a
/// round's trials folded with `Stats::merge` / `SchedStats::merge`.
pub fn engine_counts(st: &Stats, sched: &SchedStats) -> Vec<(&'static str, f64)> {
    vec![
        (
            "netsim.engine.events_per_data_pkt",
            st.events as f64 / st.data_pkts_sent as f64,
        ),
        ("netsim.sched.pushes", sched.pushes as f64),
        ("netsim.sched.pops", sched.pops as f64),
        ("netsim.pipeline.deliveries", st.pipeline_deliveries as f64),
        ("netsim.transport.retransmits", st.retransmits as f64),
        (
            "netsim.transport.rto_stale_skips",
            st.rto_stale_skips as f64,
        ),
        ("netsim.transport.acks_sent", st.acks_sent as f64),
        ("netsim.pfc.pauses", st.pfc_pauses as f64),
        ("netsim.queue.max_bytes", st.max_queue_bytes as f64),
    ]
}
