//! The multiplexed query engine: many concurrent one-shot queries over
//! one gossip substrate, with shared wave traffic.
//!
//! The paper prices validity for *one* query at a time; a production
//! aggregation service fields thousands of concurrent queries (mixed
//! aggregates, roots, deadlines) over the same overlay. Running them
//! back-to-back re-floods the same topology N times. This module runs
//! them *co-resident* in one simulation instead:
//!
//! * every per-query payload is tagged with a compact [`QueryId`];
//! * co-resident queries **piggyback** their payloads into shared wave
//!   messages — one engine message ([`MuxMsg`]) carries many
//!   `(QueryId, item)` pairs, so message cost is accounted both *raw*
//!   (engine messages) and *per query* (payload items);
//! * a per-host **partial cache** lets a newly arrived query whose
//!   `(aggregate, root)` matches a live wave at its root *join* that
//!   wave instead of launching a fresh flood (an alias: it is answered
//!   by the live wave's declaration, at ~zero payload cost).
//!
//! Per-query semantics are exactly SPANNINGTREE (§4.4): parent = first
//! query copy heard, echo completion, per-host fallback at
//! `(2·D̂ − depth)·δ` past the query's arrival. To keep each query's
//! answer independent of which other queries share its waves, the node
//! runs **synchronous rounds**: `on_message` only buffers incoming
//! items into a per-query inbox; all protocol logic runs at a tick-end
//! flush, where the parent of a first-heard query is the *minimum*
//! `HostId` among that tick's candidate senders. Delivery order within
//! a tick therefore cannot perturb any query, and a query's trajectory
//! in a multiplexed run is byte-identical to its solo run over the same
//! churn realization — the property `it_mux.rs` asserts.

use crate::common::Aggregate;
use crate::observer::ProtocolObserver;
use pov_sim::{
    ChurnPlan, Ctx, Metrics, NodeLogic, PartitionPlan, SimBuilder, StateSummary, Time, Trace,
};
use pov_topology::{Graph, HostId};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};

/// Compact identity of one query within a workload. Wire payloads carry
/// this tag so one [`MuxMsg`] can interleave many queries' traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u32);

impl QueryId {
    fn index(self) -> u32 {
        self.0
    }
}

/// One query of a multiplexed workload: an aggregate rooted at `root`,
/// injected at tick `arrival`, judged (and bounded by a fallback) over
/// the `2·D̂` ticks that follow.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MuxQuery {
    /// Workload-unique identity.
    pub id: QueryId,
    /// The aggregate function this query computes.
    pub aggregate: Aggregate,
    /// The querying host (tree root) — `hq` of this query.
    pub root: HostId,
    /// Injection tick (must be ≥ 1 so tick 0 stays quiescent).
    pub arrival: u64,
    /// Network-diameter estimate; the deadline is `arrival + 2·D̂`.
    pub d_hat: u32,
    /// Sliding-window width `W` in ticks: when set, the ORACLE judges
    /// this query over `[end − W, end]` (§4.2) instead of
    /// `[arrival, end]`. Purely a judging concern — execution is
    /// identical.
    pub window: Option<u64>,
}

impl MuxQuery {
    /// Absolute declare-by tick: `arrival + 2·D̂` (unit hop delay).
    pub fn deadline(&self) -> u64 {
        self.arrival + 2 * self.d_hat as u64
    }
}

/// A compact exact partial aggregate for the multiplexed wire.
///
/// The mux engine computes exact (duplicate-sensitive) aggregates, so
/// it never needs the sketch variants of [`crate::Partial`] — and that
/// enum is sized for its largest (sketch) variant. With millions of
/// `(QueryId, MuxItem)` pairs staged, sorted and shipped per run, item
/// size is directly wall-clock: this 24-byte struct mirrors the exact
/// arms of `Partial::{init_exact, combine, value}` bit for bit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MuxPartial {
    aggregate: Aggregate,
    /// The min/max/count/sum accumulator (the running sum for AVG).
    a: u64,
    /// Contributing-host count (AVG only; unused elsewhere).
    b: u64,
}

impl MuxPartial {
    /// A host's initial partial for `aggregate` given its attribute
    /// `value` — exactly `Partial::init_exact`.
    pub fn init(aggregate: Aggregate, value: u64) -> MuxPartial {
        let (a, b) = match aggregate {
            Aggregate::Min | Aggregate::Max | Aggregate::Sum => (value, 0),
            Aggregate::Count => (1, 0),
            Aggregate::Average => (value, 1),
        };
        MuxPartial { aggregate, a, b }
    }

    /// Fold `other` into `self` (the §5.1 combine; commutative and
    /// associative, so within-tick delivery order never reaches it).
    pub fn combine(&mut self, other: MuxPartial) {
        debug_assert_eq!(
            self.aggregate, other.aggregate,
            "partials from different queries must never meet"
        );
        match self.aggregate {
            Aggregate::Min => self.a = self.a.min(other.a),
            Aggregate::Max => self.a = self.a.max(other.a),
            Aggregate::Count | Aggregate::Sum => self.a += other.a,
            Aggregate::Average => {
                self.a += other.a;
                self.b += other.b;
            }
        }
    }

    /// The scalar answer this partial induces — exactly
    /// `Partial::value` on the matching exact variant.
    pub fn value(&self) -> f64 {
        match self.aggregate {
            Aggregate::Min | Aggregate::Max | Aggregate::Count | Aggregate::Sum => self.a as f64,
            Aggregate::Average => {
                if self.b == 0 {
                    0.0
                } else {
                    self.a as f64 / self.b as f64
                }
            }
        }
    }
}

/// One query's payload inside a shared wave message.
#[derive(Clone, Copy, Debug)]
pub enum MuxItem {
    /// The flooded query; receipt from `f` means `f` is not my child.
    Query {
        /// The aggregate being computed.
        aggregate: Aggregate,
        /// Hops travelled (sender's depth).
        hops: u32,
        /// Absolute declare-by tick (hosts derive their fallback from it).
        deadline: u64,
    },
    /// A child's subtree aggregate.
    Child {
        /// The child's combined partial.
        partial: MuxPartial,
    },
}

/// A shared wave message: one engine message carrying many queries'
/// payload items, in ascending [`QueryId`] order.
#[derive(Clone, Debug)]
pub struct MuxMsg {
    /// The piggybacked `(query, item)` pairs.
    pub items: Vec<(QueryId, MuxItem)>,
}

/// Most emptied wire vectors kept for reuse per thread.
const SPARE_ITEMS_KEEP: usize = 4096;

thread_local! {
    /// Emptied wire vectors: a sender takes one, the receiver drains it
    /// and hands it back, so steady-state message traffic within one
    /// [`run_mux`] allocates nothing.
    static SPARE_ITEMS: RefCell<Vec<Vec<(QueryId, MuxItem)>>> = const { RefCell::new(Vec::new()) };
}

/// An empty wire vector, recycled if one is spare.
fn take_items() -> Vec<(QueryId, MuxItem)> {
    let mut v = SPARE_ITEMS
        .with(|p| p.borrow_mut().pop())
        .unwrap_or_default();
    v.clear();
    v
}

/// Hand a drained wire vector back for reuse. Vectors that never
/// allocated are dropped: keeping them would save nothing.
fn put_items(v: Vec<(QueryId, MuxItem)>) {
    if v.capacity() == 0 {
        return;
    }
    SPARE_ITEMS.with(|p| {
        let mut spare = p.borrow_mut();
        if spare.len() < SPARE_ITEMS_KEEP {
            spare.push(v);
        }
    });
}

/// Timer key: tick-end flush of the buffered inbox.
const KEY_FLUSH: u64 = 0;
/// Timer key class: query arrivals at this root (one timer per distinct
/// arrival tick serves every query due then).
const KEY_ARRIVAL: u64 = 1 << 32;
/// Timer key class: fallback deadlines. One firing serves *every* query
/// whose fallback tick has passed, so co-resident queries hitting their
/// deadline on the same tick batch their reports into shared messages.
const KEY_FALLBACK: u64 = 2 << 32;
const KEY_CLASS: u64 = !0u64 << 32;

/// Which neighbours a query has classified at this host. With hundreds
/// of co-resident queries there are `O(hosts × queries)` of these, so
/// the common case must not touch the heap: a bitmask over the host's
/// neighbour *indices* covers degree ≤ 128 inline; hub hosts beyond
/// that spill to a deduplicated vector.
#[derive(Debug)]
enum Heard {
    /// Bit `i` = neighbour `neighbors[i]` classified.
    Mask(u128),
    /// Degree > 128: the classified neighbours themselves.
    Spill(Vec<HostId>),
}

impl Heard {
    fn for_degree(degree: usize) -> Heard {
        if degree <= 128 {
            Heard::Mask(0)
        } else {
            Heard::Spill(Vec::new())
        }
    }

    /// Classify neighbour `h` (idempotent). Senders are always
    /// neighbours on the static substrate the engine runs over, and CSR
    /// neighbour lists are sorted ascending — binary search keeps this
    /// `O(log d)` on the per-item hot path.
    fn note(&mut self, neighbors: &[HostId], h: HostId) {
        match self {
            Heard::Mask(m) => {
                let i = neighbors.binary_search(&h).expect("sender is a neighbor");
                *m |= 1u128 << i;
            }
            Heard::Spill(v) => {
                if !v.contains(&h) {
                    v.push(h);
                }
            }
        }
    }

    fn count(&self) -> usize {
        match self {
            Heard::Mask(m) => m.count_ones() as usize,
            Heard::Spill(v) => v.len(),
        }
    }
}

/// Per-query tree state at one host (the SPANNINGTREE fields, tagged).
#[derive(Debug)]
struct QState {
    aggregate: Aggregate,
    /// Absolute declare-by tick.
    deadline: u64,
    parent: Option<HostId>,
    depth: u32,
    reported: bool,
    /// Non-parent neighbours already classified (flooded past us or
    /// reported as child).
    heard: Heard,
    partial: MuxPartial,
    is_root: bool,
}

/// Per-host logic of the multiplexed engine.
///
/// Every per-query collection is a flat vector indexed by the compact
/// [`QueryId`] (grown on demand): with hundreds of co-resident queries
/// the hot path touches these maps millions of times per run, and
/// direct indexing beats tree walks by an order of magnitude.
#[derive(Debug, Default)]
pub struct MuxNode {
    value: u64,
    /// Guards against `on_start` re-firing on rejoin.
    started: bool,
    /// Queries rooted at this host, ascending arrival then id.
    rooted: Vec<MuxQuery>,
    /// Slot `q` = live tree state of query `q` at this host.
    live: Vec<Option<QState>>,
    /// All `(query, sender, item)` triples delivered this tick, in
    /// arrival order — one flat buffer per host, capacity reused tick
    /// after tick. The flush stable-sorts by query id, which regroups
    /// the buffer into exactly the per-query arrival-order runs a
    /// qid-keyed map of vectors would hold, without `O(queries)`
    /// per-host allocations.
    staging: Vec<(QueryId, HostId, MuxItem)>,
    /// Scratch for the fallback path's mid-tick extraction of one
    /// query's pending items from `staging`.
    scratch: Vec<(QueryId, HostId, MuxItem)>,
    /// Tick the flush timer was last armed at (a stamp, not a flag: a
    /// bool would wedge if this host died between arming and firing).
    flush_armed_at: Option<u64>,
    /// Declared results of queries rooted here.
    results: BTreeMap<u32, (f64, Time)>,
    /// Partial-cache joins recorded here: `(live target, alias)`.
    aliases: Vec<(u32, u32)>,
    /// Slot `q` = payload items this host sent for query `q`.
    payload_sent: Vec<u64>,
    /// Number of queries that joined a live wave instead of flooding.
    cache_joins: u64,
    /// Fallback schedule, indexed by *tick*: slot `t` = queries due at
    /// `t`, in adoption order. A firing drains every slot at or before
    /// `now` — each query is visited O(1) times over the run instead of
    /// every live query being rescanned at every firing. Tick-indexed
    /// because arming runs once per (query, host) first-hearing — the
    /// hottest bookkeeping site of the engine — and the run horizon is
    /// short (`max deadline + 2`), so a flat slot beats a search tree.
    fallback_due: Vec<Vec<u32>>,
    /// Slot `t` = a [`KEY_FALLBACK`] event already in flight for tick
    /// `t`, so co-resident queries sharing a deadline share one timer.
    fallback_armed: Vec<bool>,
    /// Ticks below this are drained (firings never rescan the past).
    fallback_cursor: u64,
    /// Outgoing payload items of the current timer firing, slot `i` =
    /// neighbour `neighbors[i]`. Direct indexing instead of a keyed map:
    /// the hot path pushes one item per (query, neighbour) — millions
    /// per run — and every neighbour still receives at most one engine
    /// message per tick when [`MuxNode::ship`] drains the slots.
    out_bufs: Vec<Vec<(QueryId, MuxItem)>>,
}

impl MuxNode {
    /// A host with attribute `value` rooting the given queries.
    pub fn new(value: u64, mut rooted: Vec<MuxQuery>) -> Self {
        rooted.sort_by_key(|q| (q.arrival, q.id));
        MuxNode {
            value,
            rooted,
            ..MuxNode::default()
        }
    }

    /// Declared `(value, time)` of query `id`, if it was rooted here
    /// and declared (directly or through the partial cache).
    pub fn result(&self, id: QueryId) -> Option<(f64, Time)> {
        self.results.get(&id.index()).copied()
    }

    /// All declared results rooted at this host, ascending `QueryId`.
    pub fn results(&self) -> &BTreeMap<u32, (f64, Time)> {
        &self.results
    }

    /// Payload items this host sent, indexed by query (zero = none; the
    /// slice may be shorter than the workload if this host never sent
    /// for the tail queries).
    pub fn payload_sent(&self) -> &[u64] {
        &self.payload_sent
    }

    /// Queries that joined a live wave here instead of flooding.
    pub fn cache_joins(&self) -> u64 {
        self.cache_joins
    }

    /// Partial-cache joins recorded here, as `(live target, alias)`.
    pub fn aliases(&self) -> &[(u32, u32)] {
        &self.aliases
    }

    /// This host's parent in query `id`'s tree (diagnostics / tests).
    pub fn parent(&self, id: QueryId) -> Option<HostId> {
        self.state(id.index()).and_then(|s| s.parent)
    }

    fn state(&self, qid: u32) -> Option<&QState> {
        self.live.get(qid as usize).and_then(|s| s.as_ref())
    }

    /// The live slot for `qid`, growing the table on first touch.
    fn slot(&mut self, qid: u32) -> &mut Option<QState> {
        let idx = qid as usize;
        if self.live.len() <= idx {
            self.live.resize_with(idx + 1, || None);
        }
        &mut self.live[idx]
    }

    fn launched(&self, qid: u32) -> bool {
        self.state(qid).is_some() || self.aliases.iter().any(|&(_, alias)| alias == qid)
    }

    /// Schedule query `qid`'s forced report at tick `fallback_at`
    /// (clamped to the next tick if already past), sharing one engine
    /// timer among every query due at the same fire tick.
    fn arm_fallback(&mut self, ctx: &mut Ctx<'_, MuxMsg>, qid: u32, fallback_at: u64) {
        let due = fallback_at as usize;
        if self.fallback_due.len() <= due {
            self.fallback_due.resize_with(due + 1, Vec::new);
        }
        self.fallback_due[due].push(qid);
        let now = ctx.now().ticks();
        let fire_at = fallback_at.max(now + 1);
        let fire = fire_at as usize;
        if self.fallback_armed.len() <= fire {
            self.fallback_armed.resize(fire + 1, false);
        }
        if !self.fallback_armed[fire] {
            self.fallback_armed[fire] = true;
            ctx.set_timer(fire_at - now, KEY_FALLBACK);
        }
    }

    /// Handle every rooted query due by now: join a live matching wave
    /// (partial cache) or launch a fresh flood.
    fn arrivals(&mut self, ctx: &mut Ctx<'_, MuxMsg>) {
        let now = ctx.now().ticks();
        let due: Vec<MuxQuery> = self
            .rooted
            .iter()
            .filter(|q| q.arrival <= now && !self.launched(q.id.index()))
            .copied()
            .collect();
        for q in due {
            let qid = q.id.index();
            // Partial cache: a live (unreported) wave rooted here with
            // the same aggregate computes the same answer — join it.
            let target = self.live.iter().position(|s| {
                s.as_ref()
                    .is_some_and(|s| s.is_root && !s.reported && s.aggregate == q.aggregate)
            });
            if let Some(target) = target {
                let target = target as u32;
                self.aliases.push((target, qid));
                self.cache_joins += 1;
                continue;
            }
            let mut state = QState {
                aggregate: q.aggregate,
                deadline: q.deadline(),
                parent: None,
                depth: 0,
                reported: false,
                heard: Heard::for_degree(ctx.degree()),
                partial: MuxPartial::init(q.aggregate, self.value),
                is_root: true,
            };
            self.arm_fallback(ctx, qid, state.deadline);
            for buf in &mut self.out_bufs {
                buf.push((
                    q.id,
                    MuxItem::Query {
                        aggregate: q.aggregate,
                        hops: 0,
                        deadline: state.deadline,
                    },
                ));
            }
            if ctx.degree() == 0 {
                // Isolated root: nothing to wait for.
                state.reported = true;
                self.declare(qid, state.partial.value(), ctx.now());
            }
            *self.slot(qid) = Some(state);
        }
    }

    /// Process one query's buffered items: adopt a parent on first
    /// hearing, fold children, echo-complete.
    fn process(
        &mut self,
        ctx: &mut Ctx<'_, MuxMsg>,
        qid: u32,
        items: &[(QueryId, HostId, MuxItem)],
    ) {
        if self.state(qid).is_none() {
            // First hearing. Parent = minimum candidate sender among the
            // minimum-hops query copies of this tick — independent of
            // intra-tick delivery order, so co-resident queries cannot
            // perturb each other's trees.
            let mut best: Option<(u32, HostId)> = None;
            for (_, from, item) in items {
                if let MuxItem::Query { hops, .. } = item {
                    let cand = (*hops, *from);
                    if best.is_none_or(|b| cand < b) {
                        best = Some(cand);
                    }
                }
            }
            let Some((hops, parent)) = best else {
                // Only Child items for an unknown query: the sender's
                // parent pointer predates a state we no longer reach
                // (unreachable in practice — state is retained across
                // death). Best-effort: drop.
                return;
            };
            let (aggregate, deadline) = items
                .iter()
                .find_map(|(_, _, item)| match item {
                    MuxItem::Query {
                        aggregate,
                        deadline,
                        ..
                    } => Some((*aggregate, *deadline)),
                    MuxItem::Child { .. } => None,
                })
                .expect("a Query item produced the parent");
            let mut state = QState {
                aggregate,
                deadline,
                parent: Some(parent),
                depth: hops + 1,
                reported: false,
                heard: Heard::for_degree(ctx.degree()),
                partial: MuxPartial::init(aggregate, self.value),
                is_root: false,
            };
            // Every same-tick co-sender is someone else's child.
            for (_, from, item) in items {
                if matches!(item, MuxItem::Query { .. }) && *from != parent {
                    state.heard.note(ctx.neighbors(), *from);
                }
            }
            // Fallback at (deadline − depth)·δ so partial subtrees still
            // drain upward before the root declares.
            let fallback_at = deadline.saturating_sub(state.depth as u64);
            self.arm_fallback(ctx, qid, fallback_at);
            let parent_idx = ctx
                .neighbors()
                .binary_search(&parent)
                .expect("parent is a neighbor");
            for (i, buf) in self.out_bufs.iter_mut().enumerate() {
                if i != parent_idx {
                    buf.push((
                        QueryId(qid),
                        MuxItem::Query {
                            aggregate,
                            hops: state.depth,
                            deadline,
                        },
                    ));
                }
            }
            *self.slot(qid) = Some(state);
        } else {
            let state = self.live[qid as usize].as_mut().expect("checked above");
            if state.reported {
                // Late traffic after we reported upward — contribution
                // lost (best-effort semantics, exactly as SPANNINGTREE).
                return;
            }
            for (_, from, item) in items {
                match item {
                    MuxItem::Query { .. } => {
                        state.heard.note(ctx.neighbors(), *from);
                    }
                    MuxItem::Child { partial } => {
                        state.partial.combine(*partial);
                        state.heard.note(ctx.neighbors(), *from);
                    }
                }
            }
        }
        self.check_completion(ctx, qid);
    }

    fn check_completion(&mut self, ctx: &mut Ctx<'_, MuxMsg>, qid: u32) {
        let Some(state) = self.state(qid) else {
            return;
        };
        let expected = ctx.degree() - usize::from(state.parent.is_some());
        if !state.reported && state.heard.count() >= expected {
            self.report(ctx, qid);
        }
    }

    /// Report query `qid` upward (or declare, at the root).
    fn report(&mut self, ctx: &mut Ctx<'_, MuxMsg>, qid: u32) {
        let (is_root, parent, partial) = {
            let state = self.live[qid as usize]
                .as_mut()
                .expect("reporting a live query");
            if state.reported {
                return;
            }
            state.reported = true;
            (state.is_root, state.parent, state.partial)
        };
        if is_root {
            self.declare(qid, partial.value(), ctx.now());
        } else if let Some(parent) = parent {
            let idx = ctx
                .neighbors()
                .binary_search(&parent)
                .expect("parent is a neighbor");
            self.out_bufs[idx].push((QueryId(qid), MuxItem::Child { partial }));
        }
    }

    /// Record a root declaration and satisfy every alias joined to it.
    fn declare(&mut self, qid: u32, value: f64, at: Time) {
        self.results.insert(qid, (value, at));
        for &(target, alias) in &self.aliases {
            if target == qid {
                self.results.insert(alias, (value, at));
            }
        }
    }

    /// Drain this firing's per-neighbour buffers: one engine message per
    /// neighbour with traffic, items in ascending `QueryId` order. The
    /// buffers keep their capacity across firings — the message gets one
    /// exact-size allocation instead of inheriting a from-scratch regrow
    /// (this fires for every engine message of the run).
    fn ship(&mut self, ctx: &mut Ctx<'_, MuxMsg>) {
        for i in 0..self.out_bufs.len() {
            let buf = &mut self.out_bufs[i];
            if buf.is_empty() {
                continue;
            }
            buf.sort_unstable_by_key(|&(qid, _)| qid);
            if let Some(&(last, _)) = buf.last() {
                if self.payload_sent.len() <= last.index() as usize {
                    self.payload_sent.resize(last.index() as usize + 1, 0);
                }
            }
            for &(qid, _) in buf.iter() {
                self.payload_sent[qid.index() as usize] += 1;
            }
            let mut items = take_items();
            items.append(buf);
            let nb = ctx.neighbors()[i];
            ctx.send(nb, MuxMsg { items });
        }
    }
}

impl ProtocolObserver for MuxNode {
    fn state_summary(&self) -> StateSummary {
        StateSummary {
            active: self.live.iter().flatten().any(|s| !s.reported),
            sketch_weight: None,
        }
    }
}

impl NodeLogic for MuxNode {
    type Msg = MuxMsg;

    fn summary(&self) -> StateSummary {
        self.state_summary()
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, MuxMsg>) {
        if self.started {
            // Rejoin after a failure: state (and timers' meaning) kept.
            return;
        }
        self.started = true;
        let now = ctx.now().ticks();
        let mut ticks: Vec<u64> = self
            .rooted
            .iter()
            .map(|q| q.arrival.saturating_sub(now).max(1))
            .collect();
        ticks.dedup();
        for delay in ticks {
            ctx.set_timer(delay, KEY_ARRIVAL);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, MuxMsg>, from: HostId, mut msg: MuxMsg) {
        let now = ctx.now().ticks();
        self.staging
            .extend(msg.items.drain(..).map(|(qid, item)| (qid, from, item)));
        // The emptied wire vector goes back for the next send.
        put_items(msg.items);
        // All logic runs at the tick-end flush, after every delivery of
        // this instant — the synchronous round.
        if self.flush_armed_at != Some(now) {
            self.flush_armed_at = Some(now);
            ctx.set_timer_at_tick_end(KEY_FLUSH);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, MuxMsg>, key: u64) {
        if self.out_bufs.len() < ctx.degree() {
            self.out_bufs.resize_with(ctx.degree(), Vec::new);
        }
        match key & KEY_CLASS {
            _ if key == KEY_FLUSH => {
                // Stable sort regroups the tick's triples into per-query
                // arrival-order runs, processed in ascending qid order —
                // exactly what a qid-keyed map of vectors would yield.
                let mut staging = std::mem::take(&mut self.staging);
                // Unstable is safe: combine operators are commutative and
                // parent selection is a min over the tick's senders, so
                // within-qid item order never reaches the answer.
                staging.sort_unstable_by_key(|&(qid, _, _)| qid);
                let mut i = 0;
                while i < staging.len() {
                    let qid = staging[i].0;
                    let run = i + staging[i..]
                        .iter()
                        .take_while(|&&(q, _, _)| q == qid)
                        .count();
                    self.process(ctx, qid.index(), &staging[i..run]);
                    i = run;
                }
                staging.clear();
                self.staging = staging;
            }
            KEY_ARRIVAL => self.arrivals(ctx),
            KEY_FALLBACK => {
                // The fallback orders after this tick's deliveries but
                // before the flush. For every query whose fallback tick
                // has passed: fold its own pending items first (so
                // same-tick child reports still count), then force the
                // report. One firing pops every due query from the
                // schedule so their reports ship batched — and each
                // query is popped exactly once over the whole run.
                let now = ctx.now().ticks();
                let end = (now + 1).min(self.fallback_due.len() as u64);
                for t in self.fallback_cursor..end {
                    let qids = std::mem::take(&mut self.fallback_due[t as usize]);
                    for qid in qids {
                        if self.state(qid).is_none_or(|s| s.reported) {
                            continue;
                        }
                        if self.staging.iter().any(|&(q, _, _)| q.index() == qid) {
                            // Pull this query's pending items out of the
                            // staging buffer (preserving arrival order
                            // for it and everything left behind).
                            let mut scratch = std::mem::take(&mut self.scratch);
                            scratch.clear();
                            scratch.extend(
                                self.staging
                                    .iter()
                                    .filter(|&&(q, _, _)| q.index() == qid)
                                    .cloned(),
                            );
                            self.staging.retain(|&(q, _, _)| q.index() != qid);
                            self.process(ctx, qid, &scratch);
                            self.scratch = scratch;
                        }
                        if self.state(qid).is_some_and(|s| !s.reported) {
                            self.report(ctx, qid);
                        }
                    }
                }
                self.fallback_cursor = self.fallback_cursor.max(now + 1);
            }
            _ => unreachable!("unknown timer key {key:#x}"),
        }
        self.ship(ctx);
    }
}

/// Environment one multiplexed run executes in: the cell's churn and
/// partition realization plus the engine seed. The substrate is the
/// unit-delay point-to-point medium (the paper's default).
#[derive(Clone, Debug, Default)]
pub struct MuxPlan {
    /// Scripted churn realization.
    pub churn: ChurnPlan,
    /// Optional partition overlay.
    pub partition: Option<PartitionPlan>,
    /// Engine seed (delivery jitter streams; the node logic draws none).
    pub seed: u64,
}

/// What one multiplexed run produced, per query and raw.
#[derive(Clone, Debug)]
pub struct MuxOutcome {
    /// Declared `(value, time)` per query index (absent = never declared,
    /// e.g. the root died).
    pub results: BTreeMap<u32, (f64, Time)>,
    /// Payload items charged to each query, summed over all hosts.
    pub per_query_payload: BTreeMap<u32, u64>,
    /// Raw engine messages (shared wave messages actually sent).
    pub raw_messages: u64,
    /// Total payload items across all queries (`Σ per_query_payload`).
    pub payload_items: u64,
    /// Queries that joined a live wave through the partial cache.
    pub cache_joins: u64,
    /// The joined queries' indices, ascending (`len == cache_joins`).
    pub aliased: Vec<u32>,
    /// Engine metrics of the whole multiplexed run.
    pub metrics: Metrics,
    /// Ground-truth membership trace (for per-query judging).
    pub trace: Trace,
    /// The tick the run was driven to.
    pub horizon: Time,
}

/// Execute `queries` co-resident over one simulation of `graph`.
///
/// # Panics
/// Panics if a query's `arrival` is 0, its root is out of range, or two
/// queries share a `QueryId`.
pub fn run_mux(graph: &Graph, values: &[u64], queries: &[MuxQuery], plan: &MuxPlan) -> MuxOutcome {
    let n = graph.num_hosts();
    let mut rooted: BTreeMap<u32, Vec<MuxQuery>> = BTreeMap::new();
    let mut seen = HashSet::new();
    let mut horizon = 0u64;
    for q in queries {
        assert!(q.arrival >= 1, "query {:?} arrives before tick 1", q.id);
        assert!(
            q.root.index() < n,
            "query {:?} rooted at out-of-range host {:?}",
            q.id,
            q.root
        );
        assert!(seen.insert(q.id), "duplicate {:?}", q.id);
        horizon = horizon.max(q.deadline());
        rooted.entry(q.root.0).or_default().push(*q);
    }
    let horizon = Time(horizon + 2);
    let mut builder = SimBuilder::over(graph)
        .churn(plan.churn.clone())
        .seed(plan.seed);
    if let Some(p) = &plan.partition {
        builder = builder.partition(p.clone());
    }
    let mut sim = builder.build(|h| {
        MuxNode::new(
            values[h.index()],
            rooted.get(&h.0).cloned().unwrap_or_default(),
        )
    });
    sim.run_until(horizon);

    let mut results = BTreeMap::new();
    let mut per_query_payload: BTreeMap<u32, u64> = BTreeMap::new();
    let mut cache_joins = 0u64;
    let mut aliased = Vec::new();
    for i in 0..n {
        // Logic is retained across death, so dead hosts still account.
        let node = sim.logic(HostId(i as u32));
        results.extend(node.results().iter().map(|(&q, &r)| (q, r)));
        for (q, &c) in node.payload_sent().iter().enumerate() {
            if c > 0 {
                *per_query_payload.entry(q as u32).or_insert(0) += c;
            }
        }
        cache_joins += node.cache_joins();
        aliased.extend(node.aliases().iter().map(|&(_, alias)| alias));
    }
    aliased.sort_unstable();
    let payload_items = per_query_payload.values().sum();
    MuxOutcome {
        results,
        per_query_payload,
        raw_messages: sim.metrics().messages_sent,
        payload_items,
        cache_joins,
        aliased,
        metrics: sim.metrics().clone(),
        trace: sim.trace().clone(),
        horizon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pov_topology::generators::special;

    fn q(id: u32, aggregate: Aggregate, root: u32, arrival: u64, d_hat: u32) -> MuxQuery {
        MuxQuery {
            id: QueryId(id),
            aggregate,
            root: HostId(root),
            arrival,
            d_hat,
            window: None,
        }
    }

    fn spare_len() -> usize {
        SPARE_ITEMS.with(|p| p.borrow().len())
    }

    fn query_item() -> (QueryId, MuxItem) {
        let item = MuxItem::Query {
            aggregate: Aggregate::Count,
            hops: 0,
            deadline: 1,
        };
        (QueryId(0), item)
    }

    #[test]
    fn recycled_items_come_back_cleared() {
        let mut v = take_items();
        v.push(query_item());
        put_items(v);
        let v = take_items();
        assert!(v.is_empty(), "a recycled vector must come back cleared");
        assert!(v.capacity() > 0, "a recycled vector must keep its buffer");
    }

    #[test]
    fn unallocated_items_are_not_kept() {
        let before = spare_len();
        put_items(Vec::new());
        assert_eq!(spare_len(), before);
    }

    #[test]
    fn spare_items_retention_is_bounded() {
        for _ in 0..(SPARE_ITEMS_KEEP + 100) {
            put_items(vec![query_item()]);
        }
        assert!(spare_len() <= SPARE_ITEMS_KEEP);
    }

    #[test]
    fn exact_aggregates_failure_free() {
        let values = [5u64, 10, 15, 20, 25, 30];
        let g = special::cycle(6);
        let queries = [
            q(0, Aggregate::Count, 0, 1, 3),
            q(1, Aggregate::Sum, 2, 1, 3),
            q(2, Aggregate::Average, 4, 2, 3),
            q(3, Aggregate::Min, 1, 3, 3),
            q(4, Aggregate::Max, 5, 3, 3),
        ];
        let out = run_mux(&g, &values, &queries, &MuxPlan::default());
        let want = [6.0, 105.0, 17.5, 5.0, 30.0];
        for (i, w) in want.iter().enumerate() {
            let (v, _) = out.results[&(i as u32)];
            assert_eq!(v, *w, "query {i}");
        }
    }

    #[test]
    fn solo_matches_spanning_tree_semantics() {
        // A single multiplexed query on a chain echo-completes early,
        // like SPANNINGTREE does.
        let n = 8;
        let g = special::chain(n);
        let queries = [q(0, Aggregate::Count, 0, 1, 50)];
        let out = run_mux(&g, &vec![1; n], &queries, &MuxPlan::default());
        let (v, at) = out.results[&0];
        assert_eq!(v, n as f64);
        assert!(
            at.ticks() <= 1 + 2 * n as u64 + 2,
            "declared at {at}, echo should beat the 100-tick deadline"
        );
    }

    #[test]
    fn piggyback_shares_wave_messages() {
        // k co-resident queries from the same root and tick: the flood
        // travels once per edge per tick, carrying k payloads — raw
        // engine messages stay at the 1-query level while payload items
        // scale with k.
        let n = 12;
        let g = special::cycle(n);
        let solo = run_mux(
            &g,
            &vec![1; n],
            &[q(0, Aggregate::Count, 0, 1, 6)],
            &MuxPlan::default(),
        );
        let queries: Vec<MuxQuery> = (0..4)
            .map(|i| {
                // Distinct aggregates defeat the partial cache: this
                // test isolates the piggyback saving.
                let agg = [
                    Aggregate::Count,
                    Aggregate::Sum,
                    Aggregate::Min,
                    Aggregate::Max,
                ][i as usize];
                q(i, agg, 0, 1, 6)
            })
            .collect();
        let mux = run_mux(&g, &vec![1; n], &queries, &MuxPlan::default());
        assert_eq!(mux.results.len(), 4);
        assert_eq!(
            mux.raw_messages, solo.raw_messages,
            "perfectly aligned waves share every engine message"
        );
        assert_eq!(mux.payload_items, 4 * solo.payload_items);
        assert_eq!(mux.per_query_payload[&0], solo.payload_items);
    }

    #[test]
    fn partial_cache_joins_matching_wave() {
        let n = 10;
        let g = special::cycle(n);
        let queries = [
            q(0, Aggregate::Count, 3, 1, 5),
            // Same (aggregate, root), arrives while query 0's wave is
            // live → joins it instead of flooding.
            q(1, Aggregate::Count, 3, 2, 5),
            // Different aggregate: floods on its own.
            q(2, Aggregate::Sum, 3, 2, 5),
        ];
        let out = run_mux(&g, &vec![1; n], &queries, &MuxPlan::default());
        assert_eq!(out.cache_joins, 1);
        let (v0, t0) = out.results[&0];
        let (v1, t1) = out.results[&1];
        assert_eq!((v0, t0), (v1, t1), "alias inherits the wave's answer");
        assert_eq!(v0, n as f64);
        assert_eq!(
            out.per_query_payload.get(&1),
            None,
            "an aliased query pays no payload items"
        );
    }

    #[test]
    fn subtree_lost_on_failure() {
        // Chain 0-1-2-3-4-5, host 1 fails after forwarding the query:
        // the count collapses to 1 — exactly SPANNINGTREE's best-effort
        // loss (§4.4), per query.
        let plan = MuxPlan {
            churn: ChurnPlan::none().with_failure(Time(3), HostId(1)),
            ..MuxPlan::default()
        };
        let g = special::chain(6);
        let out = run_mux(&g, &[1; 6], &[q(0, Aggregate::Count, 0, 1, 6)], &plan);
        let (v, _) = out.results[&0];
        assert_eq!(v, 1.0, "entire subtree behind the failed host is lost");
    }

    #[test]
    fn dead_root_never_declares() {
        let plan = MuxPlan {
            churn: ChurnPlan::none().with_failure(Time(2), HostId(0)),
            ..MuxPlan::default()
        };
        let g = special::cycle(6);
        let out = run_mux(&g, &[1; 6], &[q(0, Aggregate::Count, 0, 1, 3)], &plan);
        assert!(out.results.is_empty(), "a dead root cannot declare");
    }

    #[test]
    fn root_fallback_fires_when_children_die() {
        let plan = MuxPlan {
            churn: ChurnPlan::none()
                .with_failure(Time(1), HostId(1))
                .with_failure(Time(1), HostId(2)),
            ..MuxPlan::default()
        };
        let mut b = pov_topology::GraphBuilder::with_hosts(3);
        b.add_edge(HostId(0), HostId(1));
        b.add_edge(HostId(0), HostId(2));
        let g = b.build();
        let out = run_mux(&g, &[7, 8, 9], &[q(0, Aggregate::Sum, 0, 1, 2)], &plan);
        let (v, at) = out.results[&0];
        assert_eq!(v, 7.0);
        assert_eq!(at, Time(5), "the arrival + 2·D̂ fallback");
    }

    #[test]
    fn determinism_across_reruns() {
        let n = 40;
        let g = special::cycle(n);
        let queries: Vec<MuxQuery> = (0..10)
            .map(|i| {
                q(
                    i,
                    Aggregate::Sum,
                    (i * 3) % n as u32,
                    1 + (i as u64 % 4),
                    20,
                )
            })
            .collect();
        let plan = MuxPlan {
            churn: ChurnPlan::none().with_failure(Time(5), HostId(7)),
            seed: 9,
            ..MuxPlan::default()
        };
        let values: Vec<u64> = (0..n as u64).collect();
        let a = run_mux(&g, &values, &queries, &plan);
        let b = run_mux(&g, &values, &queries, &plan);
        assert_eq!(a.results, b.results);
        assert_eq!(a.per_query_payload, b.per_query_payload);
        assert_eq!(a.raw_messages, b.raw_messages);
    }

    #[test]
    fn rejects_bad_queries() {
        let g = special::cycle(4);
        let r = std::panic::catch_unwind(|| {
            run_mux(
                &g,
                &[1; 4],
                &[q(0, Aggregate::Count, 0, 0, 2)],
                &MuxPlan::default(),
            )
        });
        assert!(r.is_err(), "arrival 0 must be rejected");
        let r = std::panic::catch_unwind(|| {
            run_mux(
                &g,
                &[1; 4],
                &[
                    q(0, Aggregate::Count, 0, 1, 2),
                    q(0, Aggregate::Sum, 1, 1, 2),
                ],
                &MuxPlan::default(),
            )
        });
        assert!(r.is_err(), "duplicate ids must be rejected");
    }
}
