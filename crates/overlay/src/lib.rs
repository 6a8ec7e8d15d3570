//! Dynamic overlay membership for the Price-of-Validity reproduction:
//! bounded partial views with periodic shuffles (the HyParView family)
//! plus probe/indirect-probe/suspicion failure detection (the SWIM
//! family), packaged as an [`OverlayDriver`] the simulator's event loop
//! polls each tick.
//!
//! The paper (§3.2) treats the network graph as *given* — hosts fail
//! and join, but the edge set over the survivors is static. Real P2P
//! deployments maintain that edge set with a membership protocol:
//! each host keeps a small **active view** of overlay links it routes
//! over and a larger **passive view** of fallback contacts, refreshed
//! by shuffles; a failure detector probes neighbours and evicts the
//! confirmed-dead, and rejoining hosts attach at *new* points rather
//! than resurrecting their old edges. [`OverlayMaintenance`] implements
//! that maintenance plane as a deterministic centralized state machine
//! (the same engineering stance as the simulator's `SketchAdversary`:
//! one omniscient driver, per-host behaviour emulated in ascending host
//! order from one seeded RNG), so a maintained-overlay run can be
//! compared against a static-graph run under *equal churn* — the
//! validity/cost gap the `repro overlay` experiment reports.
//!
//! Determinism rules (the same contract every engine hook obeys):
//!
//! * all randomness comes from the driver's own [`SmallRng`], seeded
//!   from [`OverlayConfig::seed`] — the engine's RNG is never touched;
//! * hosts are visited in ascending id order, pending probes and
//!   suspicions expire in insertion order;
//! * decisions depend only on virtual time, the view's alive flags and
//!   the overlay's current adjacency — never on wall clock or memory
//!   addresses.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::VecDeque;

use pov_sim::{EngineView, OverlayDriver, OverlayEvent, OverlayStats, Time};
use pov_topology::HostId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Tuning knobs of the maintenance plane. The defaults follow the
/// usual HyParView/SWIM ballpark scaled to the paper's §6.1 topologies
/// (average degree ≈ 4): small active views, a passive view a few times
/// larger, probe rounds a few ticks apart.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OverlayConfig {
    /// Target active-view size: hosts below this overlay degree promote
    /// passive contacts; hosts above `max(active_degree, base degree)`
    /// shed a random link.
    pub active_degree: usize,
    /// Passive-view capacity per host (fallback contacts only; passive
    /// entries are not overlay edges).
    pub passive_degree: usize,
    /// Ticks between shuffle rounds (passive refresh + promotions).
    pub shuffle_every: u64,
    /// Ticks between failure-detector probe rounds.
    pub probe_every: u64,
    /// Ticks a (direct or indirect) probe waits for its ack.
    pub probe_timeout: u64,
    /// Indirect probes fanned out when a direct probe goes unanswered.
    pub indirect_probes: usize,
    /// Ticks a suspicion stays open before it is acted on: a target
    /// still dead at expiry is evicted, a live one refutes it.
    pub suspicion_timeout: u64,
    /// Probability that a probe of a *live* neighbour is lost in the
    /// network — the SWIM false-positive path. Such a probe escalates
    /// through the indirect stage into a suspicion that the live target
    /// then refutes; it is never wrongfully evicted.
    pub false_positive: f64,
    /// Seed of the driver's private RNG.
    pub seed: u64,
}

impl Default for OverlayConfig {
    fn default() -> Self {
        OverlayConfig {
            active_degree: 5,
            passive_degree: 16,
            shuffle_every: 16,
            probe_every: 4,
            probe_timeout: 2,
            indirect_probes: 2,
            suspicion_timeout: 4,
            false_positive: 0.01,
            seed: 0,
        }
    }
}

impl OverlayConfig {
    /// Check the knobs the driver cannot run with: an empty active
    /// view, a zero cadence or timeout (a zero cadence would silently
    /// never fire), or a false-positive rate outside `[0, 1]`. On
    /// failure returns the offending key and what is wrong with it.
    pub fn validate(&self) -> Result<(), (&'static str, &'static str)> {
        if self.active_degree == 0 {
            return Err(("active_degree", "active view needs >= 1 slot"));
        }
        if self.shuffle_every == 0 {
            return Err(("shuffle_every", "shuffle cadence must be >= 1 tick"));
        }
        if self.probe_every == 0 {
            return Err(("probe_every", "probe cadence must be >= 1 tick"));
        }
        if self.probe_timeout == 0 {
            return Err(("probe_timeout", "probe timeout must be >= 1 tick"));
        }
        if self.suspicion_timeout == 0 {
            return Err(("suspicion_timeout", "suspicion timeout must be >= 1 tick"));
        }
        if !(0.0..=1.0).contains(&self.false_positive) {
            return Err(("false_positive", "outside [0, 1]"));
        }
        Ok(())
    }
}

/// A pending failure-detector probe (direct, or the merged indirect
/// fan-out that follows an unanswered direct one).
#[derive(Clone, Copy, Debug)]
struct Probe {
    due: Time,
    prober: HostId,
    target: HostId,
    /// The epochs of `prober` and `target` when the probe was issued.
    epochs: (u32, u32),
    /// Whether this record is the indirect stage.
    indirect: bool,
    /// The direct probe was lost to the false-positive roll even though
    /// the target is alive; the blip persists through the indirect
    /// stage, producing a (refutable) false suspicion.
    fp: bool,
}

/// An open suspicion awaiting confirmation or refutation.
#[derive(Clone, Copy, Debug)]
struct Suspicion {
    due: Time,
    target: HostId,
    /// The target's epoch when the suspicion was raised.
    epoch: u32,
}

/// The hosts every draw samples from — alive and not evicted — as a
/// bitset with a per-word rank directory: membership and rank are
/// O(1), select is a binary search over `n / 64` words.
#[derive(Default)]
struct Eligible {
    words: Vec<u64>,
    /// `before[w]` = set bits in `words[..w]`.
    before: Vec<u32>,
    len: usize,
}

impl Eligible {
    fn rebuild(&mut self, alive: &[bool], evicted: &[bool]) {
        self.words.clear();
        self.before.clear();
        self.len = 0;
        for (a, e) in alive.chunks(64).zip(evicted.chunks(64)) {
            let word = a
                .iter()
                .zip(e)
                .enumerate()
                .fold(0u64, |w, (b, (&a, &e))| w | (u64::from(a && !e) << b));
            self.words.push(word);
            self.before.push(self.len as u32);
            self.len += word.count_ones() as usize;
        }
    }

    fn contains(&self, h: HostId) -> bool {
        let i = h.index();
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    fn insert(&mut self, h: HostId) {
        if self.contains(h) {
            return;
        }
        let i = h.index();
        self.words[i / 64] |= 1 << (i % 64);
        for b in &mut self.before[i / 64 + 1..] {
            *b += 1;
        }
        self.len += 1;
    }

    /// Number of members below `h`.
    fn rank(&self, h: HostId) -> usize {
        let i = h.index();
        let below = self.words[i / 64] & ((1u64 << (i % 64)) - 1);
        self.before[i / 64] as usize + below.count_ones() as usize
    }

    /// The member of rank `j` (`j < len`).
    fn select(&self, j: usize) -> HostId {
        let w = self.before.partition_point(|&b| b as usize <= j) - 1;
        let mut bits = self.words[w];
        for _ in 0..j - self.before[w] as usize {
            bits &= bits - 1;
        }
        HostId((w * 64) as u32 + bits.trailing_zeros())
    }

    /// The members in ascending order.
    fn iter(&self) -> impl Iterator<Item = HostId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    HostId((w * 64) as u32 + b)
                })
            })
        })
    }
}

/// Draw `min(k, len)` distinct entries of a virtual pool of `len`
/// entries into `out`, where `at(j)` is the pool's `j`-th entry. This
/// is a partial Fisher–Yates that stores only the displaced positions
/// (in `moved`, at most `k` of them): it calls `rng.gen_range(i..len)`
/// for draw `i` and yields the survivors in draw order, exactly as
/// shuffling the materialized pool would.
fn draw(
    rng: &mut SmallRng,
    len: usize,
    k: usize,
    moved: &mut Vec<(usize, HostId)>,
    out: &mut Vec<HostId>,
    at: impl Fn(usize) -> HostId,
) {
    moved.clear();
    out.clear();
    let get = |moved: &[(usize, HostId)], p: usize| {
        moved
            .iter()
            .find(|m| m.0 == p)
            .map_or_else(|| at(p), |m| m.1)
    };
    for i in 0..k.min(len) {
        let j = rng.gen_range(i..len);
        out.push(get(moved, j));
        if j != i {
            // Position i is never read again; j now holds i's entry.
            let vi = get(moved, i);
            match moved.iter_mut().find(|m| m.0 == j) {
                Some(m) => m.1 = vi,
                None => moved.push((j, vi)),
            }
        }
    }
}

/// Lazily initialized per-run state (sized on first poll, when the
/// driver first sees the view).
struct State {
    /// Alive flags at the previous poll — the join edge detector.
    prev_alive: Vec<bool>,
    /// Hosts the detector confirmed dead and cut out of the overlay.
    evicted: Vec<bool>,
    /// Per-host epoch, bumped when the host rejoins. Probe and
    /// suspicion records carry the epochs they were issued under; a
    /// record whose epochs no longer match was dropped by the rejoin
    /// and is skipped when it expires.
    epoch: Vec<u32>,
    /// Hosts with an open (current-epoch) suspicion.
    suspected: Vec<bool>,
    /// Passive views, `stride` slots per host: host `h` owns
    /// `passive[h * stride..][..passive_len[h]]`.
    passive: Vec<HostId>,
    passive_len: Vec<u32>,
    stride: usize,
    /// Pending records; every push is due a fixed delay after the
    /// push, so both queues are ordered by due time.
    probes: VecDeque<Probe>,
    suspicions: VecDeque<Suspicion>,
    /// `alive ∧ ¬evicted`, rebuilt at most once per poll.
    eligible: Eligible,
    /// Whether `eligible` is current for this poll.
    eligible_fresh: bool,
    /// Scratch for [`draw`] and the rejoin skip ranks.
    moved: Vec<(usize, HostId)>,
    drawn: Vec<HostId>,
    skip: Vec<usize>,
}

impl State {
    /// Every host's passive view: `passive_degree` alive hosts other
    /// than itself, drawn from the ascending alive list with the host
    /// skipped by rank.
    fn new(cfg: &OverlayConfig, rng: &mut SmallRng, view: &EngineView<'_>) -> State {
        let n = view.alive.len();
        let stride = cfg.passive_degree.min(n);
        let alive: Vec<HostId> = (0..n as u32)
            .map(HostId)
            .filter(|&c| view.alive[c.index()])
            .collect();
        let mut passive = vec![HostId(0); n * stride];
        let mut passive_len = vec![0; n];
        let (mut moved, mut drawn) = (Vec::new(), Vec::new());
        let mut own_rank = 0; // alive hosts below h
        for h in 0..n {
            let (skip, len) = match view.alive[h] {
                true => (own_rank, alive.len() - 1),
                false => (usize::MAX, alive.len()),
            };
            let at = |j: usize| alive[j + usize::from(j >= skip)];
            draw(rng, len, cfg.passive_degree, &mut moved, &mut drawn, at);
            passive[h * stride..][..drawn.len()].copy_from_slice(&drawn);
            passive_len[h] = drawn.len() as u32;
            own_rank += usize::from(view.alive[h]);
        }
        State {
            prev_alive: view.alive.to_vec(),
            evicted: vec![false; n],
            epoch: vec![0; n],
            suspected: vec![false; n],
            passive,
            passive_len,
            stride,
            probes: VecDeque::new(),
            suspicions: VecDeque::new(),
            eligible: Eligible::default(),
            eligible_fresh: false,
            moved,
            drawn,
            skip: Vec::new(),
        }
    }

    /// Make `eligible` current for this poll.
    fn refresh_eligible(&mut self, alive: &[bool]) {
        if !self.eligible_fresh {
            self.eligible.rebuild(alive, &self.evicted);
            self.eligible_fresh = true;
        }
    }

    /// Draw up to `k` fresh attachment points for rejoining `h` into
    /// `drawn`: eligible hosts other than `h` and its `current`
    /// neighbours, in ascending order as the virtual pool.
    fn draw_attachments(&mut self, rng: &mut SmallRng, h: HostId, current: &[HostId], k: usize) {
        let el = &self.eligible;
        self.skip.clear();
        self.skip.extend(
            std::iter::once(h)
                .chain(current.iter().copied())
                .filter(|&c| el.contains(c))
                .map(|c| el.rank(c)),
        );
        self.skip.sort_unstable();
        self.skip.dedup();
        let skip = &self.skip;
        let at = |j: usize| {
            let mut r = j;
            for &s in skip {
                if s > r {
                    break;
                }
                r += 1;
            }
            el.select(r)
        };
        let len = el.len - skip.len();
        draw(rng, len, k, &mut self.moved, &mut self.drawn, at);
    }
}

/// The HyParView/SWIM-style maintenance driver. Install it with
/// [`SimBuilder::overlay`](pov_sim::SimBuilder::overlay); the engine
/// polls it every tick through `until` and applies the edge mutations
/// it emits to the run's [`OverlayView`](pov_topology::OverlayView).
pub struct OverlayMaintenance {
    cfg: OverlayConfig,
    until: Time,
    rng: SmallRng,
    stats: OverlayStats,
    state: Option<State>,
}

impl OverlayMaintenance {
    /// A driver that maintains the overlay until `until` (inclusive).
    /// The bound is what lets `run_to_quiescence` terminate; pick the
    /// run's horizon.
    ///
    /// # Panics
    /// Panics if [`OverlayConfig::validate`] rejects `cfg`.
    pub fn new(cfg: OverlayConfig, until: Time) -> Self {
        if let Err((key, msg)) = cfg.validate() {
            panic!("invalid overlay config: {key}: {msg}");
        }
        OverlayMaintenance {
            rng: SmallRng::seed_from_u64(cfg.seed),
            cfg,
            until,
            stats: OverlayStats::default(),
            state: None,
        }
    }

    /// The configuration this driver runs with.
    pub fn config(&self) -> &OverlayConfig {
        &self.cfg
    }
}

impl OverlayDriver for OverlayMaintenance {
    fn next_events(&mut self, now: Time, view: &EngineView<'_>, out: &mut Vec<OverlayEvent>) {
        let OverlayMaintenance {
            cfg,
            rng,
            stats,
            state,
            ..
        } = self;
        let cfg = *cfg;
        let st = state.get_or_insert_with(|| State::new(&cfg, rng, view));
        st.eligible_fresh = false;

        // (a) Rejoins: hosts that came (back) alive since the last
        // poll attach at fresh points — never by resurrecting their old
        // edge set. An evicted host was dead when it was evicted, so it
        // recovers exactly when it rejoins. The rejoin drops every
        // pending probe by or of the host and any suspicion of it.
        for i in 0..view.alive.len() {
            if !view.alive[i] || st.prev_alive[i] {
                continue;
            }
            let h = HostId(i as u32);
            st.evicted[i] = false;
            st.epoch[i] = st.epoch[i].wrapping_add(1);
            st.suspected[i] = false;
            st.refresh_eligible(view.alive);
            st.eligible.insert(h);
            st.draw_attachments(rng, h, view.neighbors(h), cfg.active_degree);
            stats.maintenance_msgs += 2 * st.drawn.len() as u64;
            out.extend(st.drawn.iter().map(|&p| OverlayEvent::AddEdge(h, p)));
            stats.rejoins += 1;
        }

        // (b) Expiries, in insertion order. Direct probes of a dead (or
        // false-positive-lost) target escalate to the indirect stage;
        // indirect failures raise a suspicion; suspicion expiry evicts
        // a still-dead target or is refuted by a live one.
        while let Some(&p) = st.probes.front().filter(|p| p.due <= now) {
            st.probes.pop_front();
            if p.epochs != (st.epoch[p.prober.index()], st.epoch[p.target.index()]) {
                continue; // dropped by a rejoin
            }
            if !view.alive[p.prober.index()] {
                continue; // the prober itself died; its probe is moot
            }
            let target_alive = view.alive[p.target.index()];
            if !p.indirect {
                let fp = target_alive && rng.gen_bool(cfg.false_positive);
                if !target_alive || fp {
                    stats.maintenance_msgs += 2 * cfg.indirect_probes as u64;
                    st.probes.push_back(Probe {
                        due: now + cfg.probe_timeout,
                        indirect: true,
                        fp,
                        ..p
                    });
                }
            } else if (!target_alive || p.fp) && !st.suspected[p.target.index()] {
                stats.suspicions += 1;
                st.suspected[p.target.index()] = true;
                st.suspicions.push_back(Suspicion {
                    due: now + cfg.suspicion_timeout,
                    target: p.target,
                    epoch: st.epoch[p.target.index()],
                });
            }
        }
        while let Some(&s) = st.suspicions.front().filter(|s| s.due <= now) {
            st.suspicions.pop_front();
            let t = s.target.index();
            if s.epoch != st.epoch[t] {
                continue; // dropped by a rejoin
            }
            st.suspected[t] = false;
            if view.alive[t] {
                stats.false_suspicions += 1;
            } else if !st.evicted[t] {
                st.evicted[t] = true;
                stats.evictions += 1;
                for &nb in view.neighbors(s.target) {
                    out.push(OverlayEvent::RemoveEdge(s.target, nb));
                }
            }
        }

        // Evictions above only cut dead hosts, so `eligible` — if built
        // this poll — is still `alive ∧ ¬evicted` from here on.
        let round = |every: u64| now.ticks() > 0 && now.ticks().is_multiple_of(every);

        // (c) Probe round: every alive host pings one random overlay
        // neighbour (it cannot know whether the neighbour is alive —
        // that is what the probe finds out).
        if round(cfg.probe_every) {
            st.refresh_eligible(view.alive);
            for h in st.eligible.iter() {
                let nbrs = view.neighbors(h);
                if nbrs.is_empty() {
                    continue;
                }
                let target = nbrs[rng.gen_range(0..nbrs.len())];
                stats.probes += 1;
                stats.maintenance_msgs += 2;
                st.probes.push_back(Probe {
                    due: now + cfg.probe_timeout,
                    prober: h,
                    target,
                    epochs: (st.epoch[h.index()], st.epoch[target.index()]),
                    indirect: false,
                    fp: false,
                });
            }
        }

        // (d) Shuffle round: refresh one passive slot per host, promote
        // passive contacts into underfull active views, shed links past
        // the active bound. A view at capacity replaces a random slot;
        // a zero-capacity view stays empty.
        if round(cfg.shuffle_every) {
            stats.shuffles += 1;
            st.refresh_eligible(view.alive);
            let el = &st.eligible;
            for h in el.iter() {
                let i = h.index();
                stats.maintenance_msgs += 2;
                // `el` holds `h` itself, so it is never empty here.
                let cand = el.select(rng.gen_range(0..el.len));
                let slots = &mut st.passive[i * st.stride..][..st.stride];
                let len = st.passive_len[i] as usize;
                if cand != h && !slots[..len].contains(&cand) {
                    if len < cfg.passive_degree {
                        slots[len] = cand;
                        st.passive_len[i] += 1;
                    } else if len > 0 {
                        slots[rng.gen_range(0..len)] = cand;
                    }
                }
                let deg = view.degree(h);
                if deg < cfg.active_degree {
                    let nbrs = view.neighbors(h);
                    let len = st.passive_len[i] as usize;
                    if let Some(&p) = slots[..len]
                        .iter()
                        .find(|&&p| p != h && el.contains(p) && !nbrs.contains(&p))
                    {
                        out.push(OverlayEvent::AddEdge(h, p));
                    }
                } else if deg > cfg.active_degree.max(view.graph.degree(h)) {
                    let nbrs = view.neighbors(h);
                    let drop = nbrs[rng.gen_range(0..nbrs.len())];
                    out.push(OverlayEvent::RemoveEdge(h, drop));
                }
            }
        }

        st.prev_alive.copy_from_slice(view.alive);
    }

    fn next_poll(&self, now: Time) -> Option<Time> {
        (now < self.until).then(|| now + 1)
    }

    fn stats(&self) -> OverlayStats {
        self.stats
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use pov_sim::{ChurnPlan, Ctx, NodeLogic, SimBuilder};
    use pov_topology::generators::special;
    use pov_topology::{Graph, GraphBuilder};
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Hosts that do nothing: the overlay maintenance plane is the only
    /// activity in these runs.
    struct Idle;
    impl NodeLogic for Idle {
        type Msg = ();
        fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: HostId, _: ()) {}
    }

    fn cfg(seed: u64) -> OverlayConfig {
        OverlayConfig {
            active_degree: 2,
            passive_degree: 6,
            shuffle_every: 8,
            probe_every: 2,
            probe_timeout: 1,
            indirect_probes: 2,
            suspicion_timeout: 2,
            false_positive: 0.0,
            seed,
        }
    }

    #[test]
    fn quiet_cycle_stays_at_base() {
        // Every host already has degree == active_degree and nobody
        // dies: probes all ack, shuffles find nothing to promote or
        // shed, the edge set never moves.
        let g = special::cycle(8);
        let mut sim = SimBuilder::new(g.clone())
            .overlay(OverlayMaintenance::new(cfg(3), Time(40)))
            .build(|_| Idle);
        sim.run_until(Time(50));
        let stats = sim.overlay_stats().unwrap();
        assert!(stats.probes > 0, "detector ran");
        assert!(stats.shuffles > 0, "shuffles ran");
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.suspicions, 0);
        assert_eq!((stats.edges_added, stats.edges_removed), (0, 0));
        let v = sim.overlay_view().unwrap();
        for h in g.hosts() {
            assert_eq!(v.neighbors(h), g.neighbors(h));
        }
    }

    #[test]
    fn dead_host_is_suspected_then_evicted() {
        let mut sim = SimBuilder::new(special::cycle(8))
            .churn(ChurnPlan::none().with_failure(Time(3), HostId(3)))
            .overlay(OverlayMaintenance::new(cfg(7), Time(60)))
            .build(|_| Idle);
        sim.run_until(Time(70));
        let stats = sim.overlay_stats().unwrap();
        assert!(stats.suspicions >= 1, "probes found the corpse");
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.false_suspicions, 0, "fp = 0");
        let v = sim.overlay_view().unwrap();
        assert_eq!(v.degree(HostId(3)), 0, "all incident edges dropped");
        // The survivors healed around the hole: nobody alive is
        // isolated, and the alive subgraph is one component.
        let alive: Vec<HostId> = (0..8u32).map(HostId).filter(|&h| sim.is_alive(h)).collect();
        for &h in &alive {
            assert!(v.degree(h) >= 1, "host {h:?} healed");
        }
        let mut seen = [false; 8];
        let mut frontier = vec![alive[0]];
        seen[alive[0].index()] = true;
        while let Some(h) = frontier.pop() {
            for &nb in v.neighbors(h) {
                if sim.is_alive(nb) && !seen[nb.index()] {
                    seen[nb.index()] = true;
                    frontier.push(nb);
                }
            }
        }
        assert!(
            alive.iter().all(|&h| seen[h.index()]),
            "alive subgraph stayed connected"
        );
    }

    #[test]
    fn false_positives_are_refuted_not_evicted() {
        let mut c = cfg(11);
        c.false_positive = 1.0; // every probe of a live host is "lost"
        let mut sim = SimBuilder::new(special::cycle(6))
            .overlay(OverlayMaintenance::new(c, Time(40)))
            .build(|_| Idle);
        sim.run_until(Time(50));
        let stats = sim.overlay_stats().unwrap();
        assert!(stats.suspicions > 0, "the blips raised suspicions");
        assert!(stats.false_suspicions > 0, "…which live hosts refuted");
        assert_eq!(stats.evictions, 0, "nobody wrongfully cut");
        assert_eq!(stats.edges_removed, 0);
    }

    #[test]
    fn rejoining_host_attaches_at_new_points() {
        // The acceptance bar: h4 dies, is evicted, rejoins — and comes
        // back wired to fresh attachment points chosen by the driver,
        // not to its old base-CSR neighbourhood.
        let g = special::cycle(10);
        let churn = ChurnPlan::none()
            .with_failure(Time(2), HostId(4))
            .with_join(Time(30), HostId(4));
        let mut sim = SimBuilder::new(g.clone())
            .churn(churn)
            .overlay(OverlayMaintenance::new(cfg(5), Time(70)))
            .build(|_| Idle);
        sim.run_until(Time(80));
        let stats = sim.overlay_stats().unwrap();
        assert!(stats.evictions >= 1, "the corpse was evicted");
        assert!(stats.rejoins >= 1, "the rejoin was seen");
        let v = sim.overlay_view().unwrap();
        let now = v.neighbors(HostId(4));
        assert!(!now.is_empty(), "attached somewhere");
        assert_ne!(
            now,
            g.neighbors(HostId(4)),
            "new points, not the old {:?}",
            g.neighbors(HostId(4))
        );
    }

    #[test]
    fn shuffles_promote_underfull_hosts() {
        // A chain's endpoints have degree 1 < active_degree 2; shuffle
        // promotions pull them up.
        let mut sim = SimBuilder::new(special::chain(8))
            .overlay(OverlayMaintenance::new(cfg(9), Time(60)))
            .build(|_| Idle);
        sim.run_until(Time(70));
        let stats = sim.overlay_stats().unwrap();
        assert!(stats.edges_added > 0, "promotions happened");
        let v = sim.overlay_view().unwrap();
        for h in 0..8u32 {
            assert!(v.degree(HostId(h)) >= 2, "host {h} reached the target");
        }
    }

    #[test]
    fn driver_is_deterministic() {
        let run = || {
            let churn = ChurnPlan::none()
                .with_failure(Time(4), HostId(2))
                .with_failure(Time(9), HostId(7))
                .with_join(Time(25), HostId(2));
            let mut sim = SimBuilder::new(special::cycle(12))
                .churn(churn)
                .overlay(OverlayMaintenance::new(cfg(42), Time(50)))
                .build(|_| Idle);
            sim.run_until(Time(60));
            let v = sim.overlay_view().unwrap();
            (sim.overlay_stats().unwrap(), Vec::from_iter(v.edges()))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn config_is_validated() {
        let d = OverlayConfig::default();
        assert_eq!(d.validate(), Ok(()));
        let cases = [
            (
                OverlayConfig {
                    active_degree: 0,
                    ..d
                },
                "active_degree",
            ),
            (
                OverlayConfig {
                    shuffle_every: 0,
                    ..d
                },
                "shuffle_every",
            ),
            (
                OverlayConfig {
                    probe_every: 0,
                    ..d
                },
                "probe_every",
            ),
            (
                OverlayConfig {
                    probe_timeout: 0,
                    ..d
                },
                "probe_timeout",
            ),
            (
                OverlayConfig {
                    suspicion_timeout: 0,
                    ..d
                },
                "suspicion_timeout",
            ),
            (
                OverlayConfig {
                    false_positive: 1.5,
                    ..d
                },
                "false_positive",
            ),
        ];
        for (bad, key) in cases {
            assert_eq!(bad.validate().map_err(|(k, _)| k), Err(key));
            // A library caller gets the same check the parser applies:
            // a zero cadence would otherwise silently never fire.
            assert!(std::panic::catch_unwind(|| OverlayMaintenance::new(bad, Time(1))).is_err());
        }
    }

    #[test]
    fn zero_capacity_passive_view_stays_empty() {
        // With passive_degree = 0 no host keeps a fallback contact, so
        // a chain's underfull endpoints have nothing to promote.
        let c = OverlayConfig {
            passive_degree: 0,
            ..cfg(9)
        };
        let mut sim = SimBuilder::new(special::chain(8))
            .overlay(OverlayMaintenance::new(c, Time(60)))
            .build(|_| Idle);
        sim.run_until(Time(70));
        let stats = sim.overlay_stats().unwrap();
        assert!(stats.shuffles > 0, "shuffles ran");
        assert_eq!((stats.edges_added, stats.edges_removed), (0, 0));
    }

    /// A driver wrapper that logs the events of every poll.
    struct Recorded<D> {
        inner: D,
        log: Rc<RefCell<Vec<Vec<OverlayEvent>>>>,
    }

    impl<D: OverlayDriver> OverlayDriver for Recorded<D> {
        fn next_events(&mut self, now: Time, view: &EngineView<'_>, out: &mut Vec<OverlayEvent>) {
            self.inner.next_events(now, view, out);
            self.log.borrow_mut().push(out.clone());
        }
        fn next_poll(&self, now: Time) -> Option<Time> {
            self.inner.next_poll(now)
        }
        fn stats(&self) -> OverlayStats {
            self.inner.stats()
        }
    }

    /// Run `driver` over `g` under `churn` until `until`: every poll's
    /// events, the final counters and the final overlay edges.
    fn record(
        g: &Graph,
        churn: &ChurnPlan,
        driver: impl OverlayDriver + 'static,
        until: Time,
    ) -> (Vec<Vec<OverlayEvent>>, OverlayStats, Vec<(HostId, HostId)>) {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = SimBuilder::new(g.clone())
            .churn(churn.clone())
            .overlay(Recorded {
                inner: driver,
                log: Rc::clone(&log),
            })
            .build(|_| Idle);
        sim.run_until(until + 10);
        let edges = sim.overlay_view().unwrap().edges().collect();
        let stats = sim.overlay_stats().unwrap();
        drop(sim);
        (log.take(), stats, edges)
    }

    /// An arbitrary small membership history: a random graph on up to
    /// 64 hosts, failures and (re)joins at random ticks — hosts fail
    /// and rejoin repeatedly, and evicted hosts come back — and a
    /// random configuration.
    fn arb_case() -> impl Strategy<Value = (Graph, ChurnPlan, OverlayConfig)> {
        (2u32..=64).prop_flat_map(|n| {
            (
                prop::collection::vec((0..n, 0..n), 0..(3 * n as usize)),
                prop::collection::vec((0u64..80, 0..n), 0..24),
                prop::collection::vec((0u64..80, 0..n), 0..24),
                (0usize..3, 1u64..=4, 1u64..=4, 1usize..=6),
                (1usize..=8, 1u64..=8, 1u64..=4, 0usize..=3, 0u64..1 << 32),
            )
                .prop_map(move |(edges, fails, joins, a, b)| {
                    let mut gb = GraphBuilder::with_hosts(n as usize);
                    for (x, y) in edges {
                        gb.add_edge(HostId(x), HostId(y));
                    }
                    let mut churn = ChurnPlan::none();
                    for (t, h) in fails {
                        churn = churn.with_failure(Time(t), HostId(h));
                    }
                    for (t, h) in joins {
                        churn = churn.with_join(Time(t), HostId(h));
                    }
                    let (fp, probe_timeout, suspicion_timeout, active_degree) = a;
                    let (passive_degree, shuffle_every, probe_every, indirect_probes, seed) = b;
                    let cfg = OverlayConfig {
                        active_degree,
                        // >= 1: the reference keeps one entry in a
                        // zero-capacity view, which the driver fixes.
                        passive_degree,
                        shuffle_every,
                        probe_every,
                        probe_timeout,
                        indirect_probes,
                        suspicion_timeout,
                        false_positive: [0.0, 0.3, 1.0][fp],
                        seed,
                    };
                    (gb.build(), churn, cfg)
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The driver replays the pool-materializing reference exactly:
        /// the same events at every poll, the same counters, the same
        /// final overlay.
        #[test]
        fn matches_the_reference_driver(case in arb_case()) {
            let (g, churn, cfg) = case;
            let until = Time(90);
            let new = record(&g, &churn, OverlayMaintenance::new(cfg, until), until);
            let old = record(&g, &churn, reference::Reference::new(cfg, until), until);
            prop_assert_eq!(new.0.len(), old.0.len());
            for (t, (a, b)) in new.0.iter().zip(&old.0).enumerate() {
                prop_assert_eq!(a, b, "poll {} of {:?}", t, cfg);
            }
            prop_assert_eq!(new.1, old.1);
            prop_assert_eq!(new.2, old.2);
        }
    }

    #[test]
    fn pinned_maintained_run() {
        // A 300-host run with 60 failures, 30 of them rejoining after
        // eviction. The counters and the FNV-1a hash of the final edge
        // list were recorded with the pool-materializing driver.
        let g = pov_topology::generators::random_average_degree(300, 4.0, 5);
        let mut churn = ChurnPlan::none();
        for k in 0..60u32 {
            let h = HostId(k * 37 % 300);
            churn = churn.with_failure(Time(3 + u64::from(k) * 2), h);
            if k % 2 == 0 {
                churn = churn.with_join(Time(40 + u64::from(k) * 2), h);
            }
        }
        let c = OverlayConfig {
            false_positive: 0.05,
            seed: 17,
            ..OverlayConfig::default()
        };
        let (_, stats, edges) =
            record(&g, &churn, OverlayMaintenance::new(c, Time(200)), Time(200));
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for (a, b) in edges {
            for byte in a.0.to_le_bytes().into_iter().chain(b.0.to_le_bytes()) {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(
            stats,
            OverlayStats {
                edges_added: 946,
                edges_removed: 846,
                probes: 13662,
                suspicions: 721,
                false_suspicions: 606,
                evictions: 60,
                rejoins: 30,
                shuffles: 12,
                maintenance_msgs: 37660,
            }
        );
        assert_eq!(hash, 0x310a_57e4_561d_98dd);
    }

    #[test]
    fn base_graph_unaffected_by_maintenance() {
        let g: Graph = special::chain(6);
        let mut sim = SimBuilder::new(g.clone())
            .churn(ChurnPlan::none().with_failure(Time(2), HostId(3)))
            .overlay(OverlayMaintenance::new(cfg(1), Time(40)))
            .build(|_| Idle);
        sim.run_until(Time(50));
        for h in g.hosts() {
            assert_eq!(sim.graph().neighbors(h), g.neighbors(h));
        }
    }
}
