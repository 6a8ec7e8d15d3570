//! The WILDFIRE protocol (§5.1, Figs 3–4).
//!
//! Broadcast: the query floods the network — *no* edge-subset structure
//! is built. Convergecast: every active host keeps a partial aggregate
//! `A_h`; whenever received partials change `A_h`, the host re-sends
//! `A_h` to its neighbours; a sender observed to lag behind gets a
//! targeted update. Because the combine operator is
//! duplicate-insensitive (min/max natively, count/sum/avg via FM
//! sketches), values survive along *every* live path — that is what buys
//! Single-Site Validity (Theorems 5.1, 5.3).
//!
//! Two faithful-to-the-paper implementation points:
//!
//! * **per-instant batching** — Example 5.1's hosts combine everything
//!   that arrived at time `t` and send one update at `t` (host `z`
//!   receives from both `x` and `y` at `t = 2` and answers once). Each
//!   receipt schedules an end-of-tick flush rather than replying
//!   immediately.
//! * **neighbour-knowledge cache** — a host skips neighbours already
//!   known to hold its exact partial (Example 5.1: *"Host y received its
//!   new `A_y` value from w, so it skips sending the value back to w"*).
//!
//! Both §5.3 engineering optimizations are implemented and toggleable
//! (ablation A1/A2 in DESIGN.md):
//!
//! * **early deadline** — a host at hop distance `l` participates only
//!   until `(2·D̂ − l + 1)·δ` instead of `2·D̂·δ`;
//! * **piggyback** — the first convergecast message rides on the
//!   broadcast message a host forwards.

use crate::common::{Operator, Partial, QuerySpec};
use crate::observer::{summary_of, ProtocolObserver};
use pov_sim::{Ctx, Medium, NodeLogic, StateSummary, Time};
use pov_topology::HostId;
use std::sync::Arc;

/// Timer key for the declaration deadline at `hq`.
const TIMER_DECLARE: u64 = 0;
/// Timer key for the end-of-tick flush.
const TIMER_FLUSH: u64 = 1;

/// Toggleable §5.3 optimizations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WildfireOpts {
    /// Host at depth `l` stops participating after `(2D̂ − l + 1)δ`.
    pub early_deadline: bool,
    /// Piggyback the first convergecast on the forwarded broadcast.
    pub piggyback: bool,
}

impl Default for WildfireOpts {
    fn default() -> Self {
        // The paper's evaluation runs with both optimizations on (§6).
        WildfireOpts {
            early_deadline: true,
            piggyback: true,
        }
    }
}

/// WILDFIRE messages.
///
/// Partials travel as `Arc<Partial>` snapshots. A sender copies its
/// partial at most once per change and every message until the next
/// change shares that copy, so a fan-out to `d` neighbours is `d`
/// reference bumps. A receiver only reads the snapshot: it combines it
/// into its own partial and may keep the pointer as knowledge of what
/// the sender holds, so nothing is copied on receipt. `Arc` keeps the
/// messages and the host state `Send`.
#[derive(Clone, Debug)]
pub enum WfMsg {
    /// Phase-I flood: query spec, hop count so far, and (optionally)
    /// the sender's partial aggregate piggybacked on the flood.
    Broadcast {
        /// The query and its parameters.
        spec: QuerySpec,
        /// Hops travelled so far (sender's depth).
        hops: u32,
        /// Piggybacked partial aggregate of the sender.
        partial: Option<Arc<Partial>>,
    },
    /// Phase-II convergecast: the sender's current partial aggregate.
    Converge {
        /// Sender's partial aggregate `A_{h'}`.
        partial: Arc<Partial>,
    },
}

// Sharded delivery needs `Send` host state and messages; keep them so.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<WildfireNode>();
    assert_send::<WfMsg>();
};

/// Active-phase state.
///
/// The host owns its partial `A_h` and combines incoming partials into
/// it in place. `snapshot` is the shared copy that outgoing messages
/// carry: built on the first send after a change, dropped on the next
/// change.
#[derive(Debug)]
struct Active {
    partial: Partial,
    snapshot: Option<Arc<Partial>>,
    depth: u32,
    spec: QuerySpec,
    knowledge: Knowledge,
    flush_scheduled: bool,
}

impl Active {
    /// The current partial as a shared snapshot.
    fn snapshot(&mut self) -> Arc<Partial> {
        let partial = &self.partial;
        Arc::clone(
            self.snapshot
                .get_or_insert_with(|| Arc::new(partial.clone())),
        )
    }

    /// Fig 4's combine step: fold `incoming` from `from` into `A_h` and
    /// into what `from` is known to hold.
    fn combine(&mut self, from: HostId, incoming: &Arc<Partial>) {
        if self.partial.combine_check(incoming) {
            self.snapshot = None;
        }
        self.knowledge.absorb(from, incoming);
    }

    /// Whether neighbour `n` is known to already hold exactly the
    /// current partial (Example 5.1's skip rule).
    fn synced(&self, n: HostId) -> bool {
        self.knowledge
            .holds(n, &self.partial, self.snapshot.as_ref())
    }
}

/// What each contact is known to hold, as a vec sorted by `HostId`: no
/// hashing on the flush path. Keyed by host rather than by
/// neighbour-slot index because under an overlay
/// ([`pov_sim::OverlayDriver`]) the neighbour set can grow and reorder
/// mid-run; entries for contacts that are no longer neighbours simply
/// stop being consulted.
#[derive(Debug, Default)]
struct Knowledge(Vec<(HostId, Held)>);

/// One contact's known partial, `sent ⊔ heard`, kept as two shared
/// snapshots rather than a sketch of its own. At least one is present.
#[derive(Debug)]
struct Held {
    /// The snapshot we last sent the contact.
    sent: Option<Arc<Partial>>,
    /// The largest partial heard from the contact since then. A host's
    /// partial only grows, so the partials it sends form a chain and the
    /// larger of two is their join; an incomparable pair (the contact
    /// restarted its query) is joined into a new allocation.
    heard: Option<Arc<Partial>>,
}

impl Knowledge {
    fn find(&self, n: HostId) -> Result<usize, usize> {
        self.0.binary_search_by_key(&n, |e| e.0)
    }

    /// Whether contact `n` is known to hold exactly `partial`, i.e.
    /// `partial == sent ⊔ heard`. `snapshot`, when present, is a shared
    /// copy of `partial`; an entry pointing at it needs no comparison.
    fn holds(&self, n: HostId, partial: &Partial, snapshot: Option<&Arc<Partial>>) -> bool {
        let Ok(i) = self.find(n) else {
            return false;
        };
        let current = |p: &Arc<Partial>| snapshot.is_some_and(|s| Arc::ptr_eq(s, p));
        match &self.0[i].1 {
            Held {
                sent: Some(s),
                heard: None,
            } => current(s) || **s == *partial,
            Held {
                sent: None,
                heard: Some(h),
            } => **h == *partial,
            // `sent` is `partial` itself: the join is `partial` exactly
            // when `partial` already covers `heard`.
            Held {
                sent: Some(s),
                heard: Some(h),
            } if current(s) => partial.covers(h),
            Held {
                sent: Some(s),
                heard: Some(h),
            } => partial.is_join_of(s, h),
            Held {
                sent: None,
                heard: None,
            } => unreachable!("an entry starts from a send or a receipt"),
        }
    }

    /// Contact `n` now holds exactly `snapshot` (we just sent it).
    fn record(&mut self, n: HostId, snapshot: &Arc<Partial>) {
        let held = Held {
            sent: Some(Arc::clone(snapshot)),
            heard: None,
        };
        match self.find(n) {
            Ok(i) => self.0[i].1 = held,
            Err(i) => self.0.insert(i, (n, held)),
        }
    }

    /// Contact `n` sent us `incoming`. Join, don't overwrite: reliable
    /// links mean it still holds everything we sent it earlier, even if
    /// this message was in flight before ours arrived.
    fn absorb(&mut self, n: HostId, incoming: &Arc<Partial>) {
        let i = match self.find(n) {
            Ok(i) => i,
            Err(i) => {
                let held = Held {
                    sent: None,
                    heard: Some(Arc::clone(incoming)),
                };
                self.0.insert(i, (n, held));
                return;
            }
        };
        let heard = &mut self.0[i].1.heard;
        match heard {
            None => *heard = Some(Arc::clone(incoming)),
            Some(h) if Arc::ptr_eq(h, incoming) => {}
            Some(h) if incoming.covers(h) => *h = Arc::clone(incoming),
            Some(h) if h.covers(incoming) => {}
            Some(h) => {
                let mut joined = Partial::clone(h);
                joined.combine(incoming);
                *h = Arc::new(joined);
            }
        }
    }
}

/// Per-host WILDFIRE state.
#[derive(Debug)]
pub struct WildfireNode {
    value: u64,
    query: Option<QuerySpec>,
    opts: WildfireOpts,
    operator: Operator,
    active: Option<Active>,
    result: Option<(f64, Time)>,
    is_query_host: bool,
}

impl WildfireNode {
    /// A passive (non-querying) host with the given attribute value.
    pub fn host(value: u64, opts: WildfireOpts) -> Self {
        Self::host_with_operator(value, opts, Operator::Standard)
    }

    /// The querying host `hq`: issues `spec` at time 0.
    pub fn query_host(value: u64, spec: QuerySpec, opts: WildfireOpts) -> Self {
        Self::query_host_with_operator(value, spec, opts, Operator::Standard)
    }

    /// A passive host using an extension operator (§7). Every host in a
    /// run must be built with the same operator.
    pub fn host_with_operator(value: u64, opts: WildfireOpts, operator: Operator) -> Self {
        WildfireNode {
            value,
            query: None,
            opts,
            operator,
            active: None,
            result: None,
            is_query_host: false,
        }
    }

    /// The querying host using an extension operator (§7).
    pub fn query_host_with_operator(
        value: u64,
        spec: QuerySpec,
        opts: WildfireOpts,
        operator: Operator,
    ) -> Self {
        WildfireNode {
            value,
            query: Some(spec),
            opts,
            operator,
            active: None,
            result: None,
            is_query_host: true,
        }
    }

    /// The declared result, if this host is `hq` and its deadline passed.
    pub fn result(&self) -> Option<(f64, Time)> {
        self.result
    }

    /// Current partial aggregate (diagnostics/tests).
    pub fn partial(&self) -> Option<&Partial> {
        self.active.as_ref().map(|a| &a.partial)
    }

    /// Hop depth at which this host was activated.
    pub fn depth(&self) -> Option<u32> {
        self.active.as_ref().map(|a| a.depth)
    }

    /// Participation deadline: `(2D̂ − l + 1)δ` with the early-deadline
    /// optimization, `2D̂δ` otherwise; `hq` always uses the full `2D̂δ`.
    fn deadline_for(&self, spec: &QuerySpec, depth: u32) -> u64 {
        if self.opts.early_deadline && !self.is_query_host {
            spec.deadline().saturating_sub(depth as u64) + 1
        } else {
            spec.deadline()
        }
    }

    fn activate(&mut self, ctx: &mut Ctx<'_, WfMsg>, spec: QuerySpec, depth: u32) {
        let partial = self
            .operator
            .init(spec.aggregate, self.value, spec.c, ctx.rng());
        self.active = Some(Active {
            partial,
            snapshot: None,
            depth,
            spec,
            knowledge: Knowledge(Vec::with_capacity(ctx.neighbors().len())),
            flush_scheduled: false,
        });
        self.query = Some(spec);
    }

    /// Fig 4's receive-a-partial step (batched: combine now, send at the
    /// end of the tick).
    fn receive_partial(&mut self, ctx: &mut Ctx<'_, WfMsg>, from: HostId, incoming: Arc<Partial>) {
        let Some(active) = self.active.as_mut() else {
            return;
        };
        let deadline = if self.opts.early_deadline && !self.is_query_host {
            active.spec.deadline().saturating_sub(active.depth as u64) + 1
        } else {
            active.spec.deadline()
        };
        if ctx.now().ticks() > deadline {
            return; // Fig 4: "else Terminate"
        }
        active.combine(from, &incoming);
        if !active.flush_scheduled {
            active.flush_scheduled = true;
            ctx.set_timer_at_tick_end(TIMER_FLUSH);
        }
    }

    /// End-of-tick flush: send the (possibly updated) partial to every
    /// neighbour not already known to hold it.
    fn flush(&mut self, ctx: &mut Ctx<'_, WfMsg>) {
        let deadline = {
            let Some(active) = self.active.as_ref() else {
                return;
            };
            self.deadline_for(&active.spec, active.depth)
        };
        let Some(active) = self.active.as_mut() else {
            return;
        };
        active.flush_scheduled = false;
        if ctx.now().ticks() > deadline {
            return;
        }
        let neighbors = ctx.neighbors();
        if ctx.medium() == Medium::Radio {
            if neighbors.iter().all(|&n| active.synced(n)) {
                return;
            }
            // One transmission reaches everyone; all neighbours now know.
            let snapshot = active.snapshot();
            ctx.broadcast(WfMsg::Converge {
                partial: Arc::clone(&snapshot),
            });
            for &n in neighbors {
                active.knowledge.record(n, &snapshot);
            }
        } else {
            for &n in neighbors {
                if active.synced(n) {
                    continue;
                }
                let snapshot = active.snapshot();
                active.knowledge.record(n, &snapshot);
                ctx.send(n, WfMsg::Converge { partial: snapshot });
            }
        }
    }
}

impl ProtocolObserver for WildfireNode {
    fn state_summary(&self) -> StateSummary {
        summary_of(self.partial())
    }
}

impl NodeLogic for WildfireNode {
    type Msg = WfMsg;

    fn summary(&self) -> StateSummary {
        self.state_summary()
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, WfMsg>) {
        if !self.is_query_host {
            return;
        }
        let spec = self.query.expect("query host has a spec");
        self.activate(ctx, spec, 0);
        ctx.set_timer(spec.deadline(), TIMER_DECLARE);
        let active = self.active.as_mut().expect("just activated");
        let snapshot = active.snapshot();
        let piggyback = self.opts.piggyback;
        ctx.broadcast(WfMsg::Broadcast {
            spec,
            hops: 0,
            partial: piggyback.then(|| Arc::clone(&snapshot)),
        });
        if !piggyback {
            ctx.broadcast(WfMsg::Converge {
                partial: Arc::clone(&snapshot),
            });
        }
        // Everyone we just reached has our current partial.
        for &n in ctx.neighbors() {
            active.knowledge.record(n, &snapshot);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, WfMsg>, from: HostId, msg: WfMsg) {
        match msg {
            WfMsg::Broadcast {
                spec,
                hops,
                partial,
            } => {
                if self.active.is_none() {
                    // Fig 3: activate only strictly before 2D̂δ.
                    if ctx.now().ticks() >= spec.deadline() {
                        return;
                    }
                    let depth = hops + 1;
                    self.activate(ctx, spec, depth);
                    // Combine the piggybacked partial *before* forwarding
                    // (Example 5.1: x forwards A_x = 15, already combined).
                    let active = self.active.as_mut().expect("just activated");
                    if let Some(p) = partial {
                        active.combine(from, &p);
                    }
                    let snapshot = self.opts.piggyback.then(|| active.snapshot());
                    let fwd = WfMsg::Broadcast {
                        spec,
                        hops: depth,
                        partial: snapshot.clone(),
                    };
                    let radio = ctx.medium() == Medium::Radio;
                    ctx.broadcast_except(Some(from), fwd);
                    if let Some(snapshot) = &snapshot {
                        for &n in ctx.neighbors() {
                            if n != from || radio {
                                active.knowledge.record(n, snapshot);
                            }
                        }
                    }
                    // Whether or not the flood carried our value, make
                    // sure laggards (e.g. the sender) get an update at
                    // the end of the tick.
                    if !active.flush_scheduled {
                        active.flush_scheduled = true;
                        ctx.set_timer_at_tick_end(TIMER_FLUSH);
                    }
                } else if let Some(p) = partial {
                    // Duplicate flood copy: its piggybacked partial is an
                    // ordinary convergecast contribution.
                    self.receive_partial(ctx, from, p);
                }
            }
            WfMsg::Converge { partial } => {
                if self.query.is_none() {
                    // Convergecast before any broadcast reached us (only
                    // possible under jittered delays): we are not active,
                    // so drop it.
                    return;
                }
                self.receive_partial(ctx, from, partial);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, WfMsg>, key: u64) {
        match key {
            TIMER_FLUSH => self.flush(ctx),
            TIMER_DECLARE if self.is_query_host => {
                if let Some(active) = &self.active {
                    self.result = Some((active.partial.value(), ctx.now()));
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Aggregate;
    use pov_sim::{ChurnPlan, PartitionPlan, SimBuilder, Simulation};
    use pov_topology::generators::special;
    use pov_topology::Graph;

    fn diamond() -> Graph {
        // Fig 5: w(0) - x(1), w - y(2), x - z(3), y - z(3).
        let mut b = pov_topology::GraphBuilder::with_hosts(4);
        b.add_edge(HostId(0), HostId(1));
        b.add_edge(HostId(0), HostId(2));
        b.add_edge(HostId(1), HostId(3));
        b.add_edge(HostId(2), HostId(3));
        b.build()
    }

    fn run(
        graph: Graph,
        values: &[u64],
        aggregate: Aggregate,
        d_hat: u32,
        churn: ChurnPlan,
    ) -> Simulation<'static, WildfireNode> {
        let spec = QuerySpec {
            aggregate,
            d_hat,
            c: 16,
        };
        let values = values.to_vec();
        let mut sim = SimBuilder::new(graph)
            .churn(churn)
            .seed(99)
            .build(move |h| {
                if h == HostId(0) {
                    WildfireNode::query_host(values[h.index()], spec, WildfireOpts::default())
                } else {
                    WildfireNode::host(values[h.index()], WildfireOpts::default())
                }
            });
        sim.run_until(Time(spec.deadline() + 1));
        sim
    }

    #[test]
    fn example_5_1_max_on_diamond() {
        let sim = run(
            diamond(),
            &[5, 15, 1, 25],
            Aggregate::Max,
            3,
            ChurnPlan::none(),
        );
        let (v, at) = sim.logic(HostId(0)).result().expect("declared");
        assert_eq!(v, 25.0);
        assert_eq!(at, Time(6)); // 2·D̂·δ = 6, exactly as in the example
    }

    #[test]
    fn example_5_1_message_count_matches_paper() {
        // The walk-through sends exactly: t0: w→x, w→y (broadcast with
        // piggyback); t1: x→z, x→w, y→z; t2: z→x, z→y, w→y; t3: x→w,
        // y→w. Total 10 messages, none after t=3.
        let sim = run(
            diamond(),
            &[5, 15, 1, 25],
            Aggregate::Max,
            3,
            ChurnPlan::none(),
        );
        assert_eq!(sim.metrics().messages_sent, 10);
        assert_eq!(sim.metrics().last_active_tick(), Some(3));
    }

    #[test]
    fn example_5_1_survives_one_path_failure() {
        // If x fails, w still learns z's 25 via y.
        let churn = ChurnPlan::none().with_failure(Time(2), HostId(1));
        let sim = run(diamond(), &[5, 15, 1, 25], Aggregate::Max, 3, churn);
        let (v, _) = sim.logic(HostId(0)).result().expect("declared");
        assert_eq!(v, 25.0);
    }

    #[test]
    fn example_5_1_both_paths_fail() {
        // Both x and y fail: HC = {w}, so v = 5 is the valid answer.
        let churn = ChurnPlan::none()
            .with_failure(Time(1), HostId(1))
            .with_failure(Time(1), HostId(2));
        let sim = run(diamond(), &[5, 15, 1, 25], Aggregate::Max, 3, churn);
        let (v, _) = sim.logic(HostId(0)).result().expect("declared");
        assert_eq!(v, 5.0);
    }

    #[test]
    fn min_on_chain() {
        let sim = run(
            special::chain(10),
            &[50, 40, 30, 20, 10, 60, 70, 80, 90, 15],
            Aggregate::Min,
            9,
            ChurnPlan::none(),
        );
        let (v, _) = sim.logic(HostId(0)).result().expect("declared");
        assert_eq!(v, 10.0);
    }

    #[test]
    fn count_on_cycle_is_near_exact() {
        let n = 64;
        let values = vec![1u64; n];
        let sim = run(
            special::cycle(n),
            &values,
            Aggregate::Count,
            (n / 2) as u32,
            ChurnPlan::none(),
        );
        let (v, _) = sim.logic(HostId(0)).result().expect("declared");
        // FM with c=16: within a factor of ~3 of 64.
        assert!((20.0..200.0).contains(&v), "count estimate {v}");
    }

    #[test]
    fn quiesces_before_deadline_with_overestimated_dhat() {
        // §6.6.2: messages stop by ~2Dδ even when D̂ ≫ D.
        let g = special::cycle(8); // D = 4
        let spec = QuerySpec {
            aggregate: Aggregate::Max,
            d_hat: 40,
            c: 8,
        };
        let mut sim = SimBuilder::new(g).seed(1).build(move |h| {
            if h == HostId(0) {
                WildfireNode::query_host(7, spec, WildfireOpts::default())
            } else {
                WildfireNode::host(u64::from(h.0), WildfireOpts::default())
            }
        });
        sim.run_until(Time(spec.deadline() + 1));
        let last = sim.metrics().last_active_tick().unwrap();
        assert!(last <= 8, "still sending at tick {last}");
    }

    #[test]
    fn no_piggyback_still_correct() {
        let opts = WildfireOpts {
            early_deadline: false,
            piggyback: false,
        };
        let spec = QuerySpec {
            aggregate: Aggregate::Max,
            d_hat: 5,
            c: 8,
        };
        let g = special::chain(5);
        let mut sim = SimBuilder::new(g).seed(3).build(move |h| {
            if h == HostId(0) {
                WildfireNode::query_host(1, spec, opts)
            } else {
                WildfireNode::host(u64::from(h.0 * 10), opts)
            }
        });
        sim.run_until(Time(spec.deadline() + 1));
        let (v, _) = sim.logic(HostId(0)).result().expect("declared");
        assert_eq!(v, 40.0);
    }

    #[test]
    fn batching_sends_one_update_per_tick() {
        // Star centre receives from all leaves at the same tick; it must
        // answer with a single batched round of updates, not one per
        // receipt. Leaves hold the values; centre is hq.
        let g = special::star(9);
        let values: Vec<u64> = (0..9).map(|i| 10 * (i + 1)).collect();
        let sim = run(g, &values, Aggregate::Max, 2, ChurnPlan::none());
        let (v, _) = sim.logic(HostId(0)).result().expect("declared");
        assert_eq!(v, 90.0);
        // t0: hq broadcasts (8 msgs, piggybacked). t1: each leaf that has
        // a bigger value replies (≤8). t2: hq pushes the new max to stale
        // leaves (≤8). Upper bound 24; without batching this would blow
        // past it.
        assert!(
            sim.metrics().messages_sent <= 24,
            "sent {}",
            sim.metrics().messages_sent
        );
    }

    #[test]
    fn passive_host_never_declares() {
        let sim = run(
            special::chain(3),
            &[1, 2, 3],
            Aggregate::Max,
            3,
            ChurnPlan::none(),
        );
        assert!(sim.logic(HostId(1)).result().is_none());
        assert!(sim.logic(HostId(2)).result().is_none());
    }

    #[test]
    fn count_under_churn_cut_and_rejoins_is_pinned() {
        // WILDFIRE COUNT on 120 random hosts with departures, a healing
        // cut, ordinary rejoins and a rejoin of `hq` itself (which
        // restarts its partial, so neighbours later hear a partial
        // incomparable with the one they hold). The message count and
        // the declared value's bits are pinned: a change to the
        // convergecast's skip rule that alters any send shows up here.
        let n = 120;
        let g = pov_topology::generators::random_average_degree(n, 4.0, 5);
        let spec = QuerySpec {
            aggregate: Aggregate::Count,
            d_hat: 8,
            c: 16,
        };
        let churn = ChurnPlan::uniform_failures(n, 15, Time(1), Time(12), HostId(0), 7)
            .with_failure(Time(2), HostId(0))
            .with_join(Time(4), HostId(0))
            .with_failure(Time(3), HostId(7))
            .with_join(Time(6), HostId(7))
            .with_failure(Time(5), HostId(11))
            .with_join(Time(9), HostId(11));
        let cut = PartitionPlan::split_bfs(&g, HostId(60), 0.3).window(Time(3), Time(9));
        let mut sim = SimBuilder::new(g)
            .churn(churn)
            .partition(cut)
            .seed(21)
            .build(move |h| {
                if h == HostId(0) {
                    WildfireNode::query_host(1, spec, WildfireOpts::default())
                } else {
                    WildfireNode::host(1, WildfireOpts::default())
                }
            });
        sim.run_until(Time(3 * spec.deadline()));
        let (v, at) = sim.logic(HostId(0)).result().expect("declared");
        assert_eq!(sim.metrics().messages_sent, 2959);
        assert_eq!(v.to_bits(), 0x4058_64dc_aa9b_a284);
        assert_eq!(at, Time(20)); // hq's restart at t = 4 reset its deadline
    }

    /// The knowledge cache against a reference model that stores each
    /// contact's known partial by value and combines into it: the skip
    /// decision must agree after every step.
    mod knowledge_model {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        use std::sync::Arc;

        const CONTACTS: u32 = 3;

        /// A fresh single-host partial of operator family `family`, kept
        /// tiny (c = 2, k = 2) so equal, comparable and incomparable
        /// partials all come up often.
        fn fresh(family: u8, seed: u64) -> Partial {
            let mut rng = SmallRng::seed_from_u64(seed);
            match family {
                0 => Operator::Standard.init(Aggregate::Count, 1, 2, &mut rng),
                1 => Operator::Standard.init(Aggregate::Average, seed % 4, 1, &mut rng),
                2 => Operator::Standard.init(Aggregate::Max, seed % 8, 2, &mut rng),
                _ => Operator::KmvCount { k: 2 }.init(Aggregate::Count, 1, 2, &mut rng),
            }
        }

        #[derive(Default)]
        struct Reference(Vec<(HostId, Partial)>);

        impl Reference {
            fn record(&mut self, n: HostId, partial: &Partial) {
                self.0.retain(|e| e.0 != n);
                self.0.push((n, partial.clone()));
            }
            fn absorb(&mut self, n: HostId, incoming: &Partial) {
                match self.0.iter_mut().find(|e| e.0 == n) {
                    Some(e) => e.1.combine(incoming),
                    None => self.0.push((n, incoming.clone())),
                }
            }
            fn holds(&self, n: HostId, partial: &Partial) -> bool {
                self.0.iter().any(|e| e.0 == n && e.1 == *partial)
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]
            #[test]
            fn skip_decision_matches_full_partial_model(
                family in 0u8..4,
                ops in prop::collection::vec((0u8..7, 0u32..CONTACTS, 0u64..1_000), 1..80),
            ) {
                let mut partial = fresh(family, 7_777);
                let mut snapshot: Option<Arc<Partial>> = None;
                let mut knowledge = Knowledge::default();
                let mut reference = Reference::default();
                // Each contact's own partial, and the snapshot it last sent.
                let mut theirs: Vec<Partial> =
                    (0..CONTACTS).map(|n| fresh(family, u64::from(n))).collect();
                let mut their_last: Vec<Option<Arc<Partial>>> = vec![None; CONTACTS as usize];
                for (op, n, seed) in ops {
                    let c = n as usize;
                    let host = HostId(n);
                    match op {
                        // The contact's partial grows.
                        0 => theirs[c].combine(&fresh(family, seed)),
                        // The contact restarts: its next partial need not
                        // be comparable with what it sent before.
                        1 => {
                            theirs[c] = fresh(family, seed);
                            their_last[c] = None;
                        }
                        // A receipt (Fig 4): combine into A_h and absorb.
                        2 | 3 => {
                            let incoming = match &their_last[c] {
                                Some(last) if **last == theirs[c] => Arc::clone(last),
                                _ => Arc::new(theirs[c].clone()),
                            };
                            their_last[c] = Some(Arc::clone(&incoming));
                            if op == 2 && partial.combine_check(&incoming) {
                                snapshot = None;
                            }
                            knowledge.absorb(host, &incoming);
                            reference.absorb(host, &incoming);
                        }
                        // A send of the current partial.
                        4 | 5 => {
                            let partial = &partial;
                            let snap = Arc::clone(
                                snapshot.get_or_insert_with(|| Arc::new(partial.clone())),
                            );
                            knowledge.record(host, &snap);
                            reference.record(host, partial);
                        }
                        // A_h grows by something no contact sent.
                        _ => {
                            if partial.combine_check(&fresh(family, seed)) {
                                snapshot = None;
                            }
                        }
                    }
                    for m in 0..CONTACTS {
                        prop_assert_eq!(
                            knowledge.holds(HostId(m), &partial, snapshot.as_ref()),
                            reference.holds(HostId(m), &partial),
                            "contact {} after op {}", m, op
                        );
                    }
                }
            }
        }

        #[test]
        fn incomparable_receipts_fall_back_to_an_exact_join() {
            let (a, b) = (fresh(0, 1), fresh(0, 2));
            assert!(
                !a.covers(&b) && !b.covers(&a),
                "seeds give an incomparable pair"
            );
            let mut joined = a.clone();
            joined.combine(&b);
            let mut knowledge = Knowledge::default();
            knowledge.absorb(HostId(1), &Arc::new(a.clone()));
            knowledge.absorb(HostId(1), &Arc::new(b.clone()));
            let heard = knowledge.0[0].1.heard.as_deref();
            assert_eq!(heard, Some(&joined));
            assert!(knowledge.holds(HostId(1), &joined, None));
            assert!(!knowledge.holds(HostId(1), &a, None));
        }

        #[test]
        fn an_entry_pointing_at_the_current_snapshot_needs_no_comparison() {
            let partial = fresh(0, 3);
            let snapshot = Arc::new(partial.clone());
            let mut knowledge = Knowledge::default();
            knowledge.record(HostId(2), &snapshot);
            assert!(knowledge.holds(HostId(2), &partial, Some(&snapshot)));
            // A smaller partial heard since leaves the join unchanged.
            knowledge.absorb(HostId(2), &Arc::new(fresh(0, 3)));
            assert!(knowledge.holds(HostId(2), &partial, Some(&snapshot)));
            assert!(!knowledge.holds(HostId(0), &partial, Some(&snapshot)));
        }
    }
}
