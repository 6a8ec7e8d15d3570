//! Re-execute a lowered cell layer by layer, timing and counting around
//! each public call, and rebuild the report records it should produce.

use crate::alloc;
use crate::lower::{Cell, Laps, Prepared};
use pov_core::judged::{window_local_plans, JudgedOutcome};
use pov_core::mux::judge_workload;
use pov_core::pov_oracle::{aggregate_bounds, host_sets, Verdict};
use pov_core::pov_protocols::{run_mux, runner, ProtocolKind, RunPlan};
use pov_core::pov_sim::{Ctx, NodeLogic, OverlayStats, SimBuilder, Time};
use pov_core::pov_topology::HostId;
use pov_overlay::OverlayMaintenance;
use pov_scenario::{RunRecord, WorkloadCellStats, WorkloadRecord};

/// Counters and laps gathered while replaying cells.
#[derive(Default)]
pub struct Probe {
    /// Also run the measurement-only passes: the idle membership drive
    /// and the per-query oracle timing of multiplexed workloads.
    pub full: bool,
    /// Wall-clock laps by layer.
    pub laps: Laps,
    /// Events dispatched by `runner::run` simulations.
    pub engine_events: u64,
    /// Messages sent by `runner::run` simulations.
    pub engine_messages: u64,
    /// Allocations and bytes inside `runner::run`.
    pub engine_allocs: (u64, u64),
    /// Largest peak-RSS growth over one `runner::run` call, in kB.
    pub engine_rss_delta_kb: u64,
    /// Events dispatched by the idle membership drives.
    pub idle_events: u64,
    /// Answers judged by the oracle.
    pub answers: u64,
    /// Summed overlay maintenance counters.
    pub overlay: OverlayStats,
    /// Summed multiplexing economics.
    pub mux: WorkloadCellStats,
    /// Multiplexed queries executed.
    pub mux_queries: u64,
    /// Allocations inside `run_mux`.
    pub mux_allocs: u64,
    /// Multiplexed verdicts that disagree with a per-query oracle pass.
    pub mux_oracle_mismatches: u64,
}

/// What one cell replay produced, shaped like its report records.
pub struct CellRecords {
    /// One record stream per protocol, window-ordered.
    pub protocols: Vec<Vec<RunRecord>>,
    /// The multiplexed workload's records, when the cell has one.
    pub workload: Vec<WorkloadRecord>,
}

/// A host that does nothing: driving it runs only the membership
/// machinery (churn, partition, overlay) without query traffic.
struct Idle;

impl NodeLogic for Idle {
    type Msg = ();
    fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: HostId, _: ()) {}
}

impl Probe {
    fn engine_run(
        &mut self,
        kind: ProtocolKind,
        prep: &Prepared,
        plan: &RunPlan,
    ) -> runner::Outcome {
        let rss0 = crate::stamp::rss_kb("VmRSS");
        let (a0, b0) = alloc::snapshot();
        let out = self.laps.time("engine.run", || {
            runner::run(kind, &prep.graph, &prep.values, plan)
        });
        let (a1, b1) = alloc::snapshot();
        let hwm = crate::stamp::rss_kb("VmHWM");
        self.engine_rss_delta_kb = self.engine_rss_delta_kb.max(hwm.saturating_sub(rss0));
        self.engine_allocs.0 += a1 - a0;
        self.engine_allocs.1 += b1 - b0;
        self.engine_events += out.metrics.events_dispatched;
        self.engine_messages += out.metrics.messages_sent;
        if let Some(s) = out.overlay {
            let o = &mut self.overlay;
            o.edges_added += s.edges_added;
            o.edges_removed += s.edges_removed;
            o.suspicions += s.suspicions;
            o.false_suspicions += s.false_suspicions;
            o.maintenance_msgs += s.maintenance_msgs;
        }
        out
    }

    fn idle_drive(&mut self, prep: &Prepared, plan: &RunPlan) {
        // The same environment `runner::run` builds, to the same horizon.
        let horizon = Time(plan.deadline() + 2);
        let mut b = SimBuilder::over(&prep.graph)
            .medium(plan.medium)
            .delay(plan.delay)
            .churn(plan.churn.clone())
            .seed(plan.seed);
        if let Some(ov) = plan.overlay {
            b = b.overlay(OverlayMaintenance::new(ov, horizon));
        }
        if let Some(p) = &plan.partition {
            b = b.partition(p.clone());
        }
        let events = self.laps.time("sim.idle_drive", || {
            let mut sim = b.build(|_| Idle);
            sim.run_until(horizon);
            sim.metrics().events_dispatched
        });
        self.idle_events += events;
    }

    /// Replay one cell: the window slicing, every protocol's engine run
    /// and oracle verdict per window, then the multiplexed workload.
    pub fn replay(&mut self, cell: &Cell, prep: &Prepared) -> CellRecords {
        let (graph, values) = (&prep.graph, prep.values.as_slice());
        let locals = self.laps.time("core.window_slice", || {
            window_local_plans(graph, &cell.plan)
        });
        let mut protocols = vec![Vec::new(); cell.plan.protocols.len()];
        for (window, (_, local)) in locals.iter().enumerate() {
            if self.full {
                self.idle_drive(prep, local);
            }
            for (records, &kind) in protocols.iter_mut().zip(&cell.plan.protocols) {
                let out = self.engine_run(kind, prep, local);
                let end = out.declared_at.unwrap_or(Time(local.deadline()));
                let sets = self.laps.time("oracle.host_sets", || {
                    host_sets(graph, &out.trace, local.hq, Time::ZERO, end)
                });
                let (verdict, bounds) = self.laps.time("oracle.judge", || {
                    let v = out.value.unwrap_or(f64::NAN);
                    (
                        Verdict::judge(local.aggregate, &sets, values, v),
                        aggregate_bounds(local.aggregate, &sets, values),
                    )
                });
                self.answers += 1;
                let judged = JudgedOutcome {
                    value: out.value,
                    declared_at: out.declared_at,
                    verdict,
                    hc_size: sets.hc_len(),
                    hu_size: sets.hu_len(),
                    bounds,
                    metrics: out.metrics,
                };
                records.push(RunRecord {
                    seed: cell.seed,
                    rep: cell.rep,
                    window,
                    phase: None,
                    value: judged.value,
                    valid: judged.verdict.is_valid(),
                    deviation: judged.deviation(),
                    hc: judged.hc_size,
                    hu: judged.hu_size,
                    messages: judged.metrics.messages_sent,
                    computation: judged.metrics.computation_cost(),
                    time_cost: judged.time_cost(),
                });
            }
        }
        let workload = match &cell.mux {
            None => Vec::new(),
            Some((queries, plan)) => {
                let (a0, _) = alloc::snapshot();
                let out = self
                    .laps
                    .time("mux.run", || run_mux(graph, values, queries, plan));
                self.mux_allocs += alloc::snapshot().0 - a0;
                let judged = self.laps.time("core.judge_workload", || {
                    judge_workload(graph, values, queries, &out)
                });
                if self.full {
                    // The oracle's share of judging, timed per query.
                    for j in &judged {
                        let q = &j.query;
                        let end = j.declared_at.unwrap_or(Time(q.deadline()));
                        let start = match q.window {
                            Some(w) => Time(end.ticks().saturating_sub(w)),
                            None => Time(q.arrival),
                        };
                        let sets = self.laps.time("oracle.mux_host_sets", || {
                            host_sets(graph, &out.trace, q.root, start, end)
                        });
                        let v = self.laps.time("oracle.mux_judge", || {
                            Verdict::judge(q.aggregate, &sets, values, j.value.unwrap_or(f64::NAN))
                        });
                        if (v.is_valid(), sets.hc_len(), sets.hu_len())
                            != (j.is_valid(), j.hc_size, j.hu_size)
                        {
                            self.mux_oracle_mismatches += 1;
                        }
                    }
                }
                self.answers += judged.len() as u64;
                self.mux_queries += queries.len() as u64;
                self.mux.raw_messages += out.raw_messages;
                self.mux.payload_items += out.payload_items;
                self.mux.cache_joins += out.cache_joins;
                judged
                    .iter()
                    .map(|j| WorkloadRecord {
                        seed: cell.seed,
                        rep: cell.rep,
                        query: j.query.id.0,
                        aggregate: j.query.aggregate.name(),
                        root: j.query.root.0,
                        arrival: j.query.arrival,
                        value: j.value,
                        valid: j.is_valid(),
                        declared_at: j.declared_at.map(|t| t.ticks()),
                        hc: j.hc_size,
                        hu: j.hu_size,
                        payload_msgs: j.payload_msgs,
                        joined: j.joined,
                    })
                    .collect()
            }
        };
        CellRecords {
            protocols,
            workload,
        }
    }
}
