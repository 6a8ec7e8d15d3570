//! The batch runner's set-up and per-cell lowering, rebuilt from public
//! functions so the traced run can call each layer on its own.
//!
//! `pov_scenario::run_batch` keeps its cell lowering private. This
//! module repeats it for the scenario features the workloads use; the
//! traced run's summed messages must equal the untraced report's, which
//! catches any drift between the two (see `checks`).

use pov_core::mux::{WindowSpec, WorkloadSpec as MuxWorkloadSpec};
use pov_core::pov_protocols::{MuxPlan, MuxQuery, OverlayConfig, RunPlan};
use pov_core::pov_sim::{ChurnPlan, PartitionPlan, Time};
use pov_core::pov_topology::{analysis, Graph, HostId};
use pov_core::workload;
use pov_scenario::{ChurnSpec, Scenario};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Named wall-clock laps, in call order.
#[derive(Default)]
pub struct Laps(pub Vec<(&'static str, f64)>);

impl Laps {
    /// Run `f`, recording its wall seconds under `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        self.0.push((name, t0.elapsed().as_secs_f64()));
        out
    }

    /// Summed seconds of every lap.
    pub fn total(&self) -> f64 {
        self.0.iter().fold(0.0, |acc, &(_, s)| acc + s)
    }

    /// Summed seconds of the laps named `name`.
    pub fn of(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(n, _)| *n == name)
            .fold(0.0, |acc, &(_, s)| acc + s)
    }
}

/// The scenario's graph, value table and `D̂`, as `run_batch` prepares
/// them before its first cell.
pub struct Prepared {
    /// The built topology.
    pub graph: Graph,
    /// One attribute value per host.
    pub values: Vec<u64>,
    /// Diameter estimate plus the scenario's slack.
    pub d_hat: u32,
}

/// Parse `text` and prepare it, timing each step into `laps` under
/// `scenario.parse`, `topology.build`, `core.values` and
/// `topology.diameter`.
pub fn setup(text: &str, laps: &mut Laps) -> (Scenario, Prepared) {
    let scn: Scenario = laps.time("scenario.parse", || {
        text.parse().expect("generated scenario text parses")
    });
    let graph = laps.time("topology.build", || {
        scn.topology.build(scn.n, scn.topology_seed)
    });
    let values = laps.time("core.values", || {
        workload::paper_values(graph.num_hosts(), scn.topology_seed ^ 0x5eed_0001)
    });
    let d = laps.time("topology.diameter", || {
        analysis::diameter_estimate(&graph, 4, scn.topology_seed | 1)
    });
    let prep = Prepared {
        graph,
        values,
        d_hat: d + scn.d_hat_slack,
    };
    (scn, prep)
}

/// One `(seed, rep)` cell of the batch matrix, lowered.
pub struct Cell {
    /// Root seed of the cell.
    pub seed: u64,
    /// Repetition under that seed.
    pub rep: usize,
    /// The cell's plan: every protocol, churn, partition, overlay and
    /// continuous windows.
    pub plan: RunPlan,
    /// The cell's multiplexed workload and its environment, when the
    /// scenario has a `[workload]` section.
    pub mux: Option<(Vec<MuxQuery>, MuxPlan)>,
}

/// Every cell of the scenario's matrix, in report order.
pub fn cells(scn: &Scenario, prep: &Prepared) -> Vec<Cell> {
    scn.seeds
        .iter()
        .flat_map(|&seed| (0..scn.repetitions).map(move |rep| (seed, rep)))
        .map(|(seed, rep)| cell(scn, prep, seed, rep))
        .collect()
}

fn cell(scn: &Scenario, prep: &Prepared, seed: u64, rep: usize) -> Cell {
    assert!(
        scn.phases.is_none() && scn.adversary.is_none(),
        "the benchmark's workloads use neither [phases] nor [adversary]"
    );
    let mut stream = SmallRng::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(rep as u64),
    );
    let churn_seed: u64 = stream.gen();
    let sim_seed: u64 = stream.gen();
    let overlay_seed: Option<u64> = scn.overlay.map(|_| stream.gen());
    let workload_seed: Option<u64> = scn.workload.map(|_| stream.gen());
    let deadline = 2 * prep.d_hat as u64 * scn.delay.bound();
    let window = scn
        .continuous
        .map(|c| (c.window_factor * deadline as f64).round() as u64);
    let span = match (scn.continuous, window) {
        (Some(c), Some(w)) => c.windows as u64 * w,
        _ => deadline,
    };
    let mut plan = RunPlan::query(scn.aggregate)
        .d_hat(prep.d_hat)
        .repetitions(scn.c)
        .medium(scn.medium)
        .delay(scn.delay)
        .churn(churn(scn, &prep.graph, span, churn_seed))
        .seed(sim_seed)
        .from_host(HostId(scn.hq))
        .protocols(scn.protocols.iter().map(|p| p.kind()));
    if let Some(partition) = partition(scn, &prep.graph, span, churn_seed) {
        plan = plan.partition(partition);
    }
    if let (Some(ov), Some(seed)) = (&scn.overlay, overlay_seed) {
        plan = plan.overlay(OverlayConfig { seed, ..ov.config });
    }
    if let (Some(c), Some(w)) = (scn.continuous, window) {
        plan = plan.continuous(w, c.windows);
    }
    let mux = workload_seed.map(|ws| mux_workload(scn, prep, &plan, ws));
    Cell {
        seed,
        rep,
        plan,
        mux,
    }
}

fn tick(frac: f64, span: u64) -> Time {
    Time((frac * span as f64).round() as u64)
}

fn churn(scn: &Scenario, graph: &Graph, span: u64, churn_seed: u64) -> ChurnPlan {
    let hq = HostId(scn.hq);
    let n = graph.num_hosts();
    match scn.churn {
        ChurnSpec::None => ChurnPlan::none(),
        ChurnSpec::Uniform { fraction, window } => ChurnPlan::uniform_failures(
            n,
            (fraction * n as f64).round() as usize,
            tick(window.0, span),
            tick(window.1, span),
            hq,
            churn_seed,
        ),
        ChurnSpec::Oscillating {
            fraction,
            window,
            period,
            downtime,
        } => {
            let period_ticks = ((period * span as f64).round() as u64).max(2);
            let downtime_ticks =
                ((downtime * span as f64).round() as u64).clamp(1, period_ticks - 1);
            ChurnPlan::oscillating(
                n,
                (fraction * n as f64).round() as usize,
                tick(window.0, span),
                tick(window.1, span),
                period_ticks,
                downtime_ticks,
                hq,
                churn_seed,
            )
        }
        ref other => panic!("the benchmark's workloads do not use churn {other:?}"),
    }
}

fn partition(scn: &Scenario, graph: &Graph, span: u64, churn_seed: u64) -> Option<PartitionPlan> {
    let hq = HostId(scn.hq);
    let n = graph.num_hosts();
    let mut rng = SmallRng::seed_from_u64(churn_seed ^ 0x51de_c0de);
    let mut stacked: Option<PartitionPlan> = None;
    for spec in &scn.partitions {
        let pivot = loop {
            let h = HostId(rng.gen_range(0..n as u32));
            if h != hq {
                break h;
            }
        };
        let mut plan = PartitionPlan::split_bfs(graph, pivot, spec.fraction);
        if plan.sides()[hq.index()] == 1 {
            plan = PartitionPlan::split_bfs(graph, hq, 1.0 - spec.fraction);
            let flipped: Vec<u8> = plan.sides().iter().map(|&s| 1 - s).collect();
            plan = PartitionPlan::new(flipped);
        }
        let from = tick(spec.from, span);
        let plan = plan.window(from, tick(spec.heal, span).max(from + 1));
        stacked = Some(match stacked {
            None => plan,
            Some(acc) => acc.stack(plan),
        });
    }
    stacked
}

fn mux_workload(
    scn: &Scenario,
    prep: &Prepared,
    plan: &RunPlan,
    workload_seed: u64,
) -> (Vec<MuxQuery>, MuxPlan) {
    let wl = scn.workload.expect("caller checked [workload] presence");
    let base = 2 * prep.d_hat as u64;
    let frac = |f: f64| (f * base as f64).round() as u64;
    let spec = MuxWorkloadSpec {
        queries: wl.queries,
        span: frac(wl.span).max(1),
        d_hat: prep.d_hat,
        window: wl.window.map(|(window, slide, instances)| {
            let window = frac(window).max(2);
            WindowSpec {
                window,
                slide: frac(slide).clamp(1, window - 1),
                instances,
            }
        }),
        seed: workload_seed,
    };
    let queries = spec.generate(prep.graph.num_hosts());
    let mux_plan = MuxPlan {
        churn: plan.churn.clone(),
        partition: plan.partition.clone(),
        seed: plan.seed,
    };
    (queries, mux_plan)
}
