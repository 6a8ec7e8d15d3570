//! The driver as first written, kept verbatim as the oracle of the
//! differential tests: it materializes an `n`-sized pool per draw and
//! keeps pending probes and suspicions in plain vectors scanned and
//! `retain`ed in place. [`OverlayMaintenance`](crate::OverlayMaintenance)
//! must reproduce its RNG calls, emitted events and counters exactly.

use crate::OverlayConfig;
use pov_sim::{EngineView, OverlayDriver, OverlayEvent, OverlayStats, Time};
use pov_topology::HostId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[derive(Clone, Copy, Debug)]
struct Probe {
    due: Time,
    prober: HostId,
    target: HostId,
    indirect: bool,
    fp: bool,
}

#[derive(Clone, Copy, Debug)]
struct Suspicion {
    due: Time,
    target: HostId,
}

struct State {
    prev_alive: Vec<bool>,
    evicted: Vec<bool>,
    passive: Vec<Vec<HostId>>,
    probes: Vec<Probe>,
    suspicions: Vec<Suspicion>,
}

/// The pool-materializing driver (see the module docs).
pub(crate) struct Reference {
    cfg: OverlayConfig,
    until: Time,
    rng: SmallRng,
    stats: OverlayStats,
    state: Option<State>,
}

impl Reference {
    pub(crate) fn new(cfg: OverlayConfig, until: Time) -> Self {
        Reference {
            rng: SmallRng::seed_from_u64(cfg.seed),
            cfg,
            until,
            stats: OverlayStats::default(),
            state: None,
        }
    }

    fn sample_k(rng: &mut SmallRng, pool: &mut Vec<HostId>, k: usize) {
        let k = k.min(pool.len());
        for i in 0..k {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        pool.truncate(k);
    }

    fn init_state(&mut self, view: &EngineView<'_>) -> State {
        let n = view.alive.len();
        let mut passive = Vec::with_capacity(n);
        for h in 0..n {
            let mut pool: Vec<HostId> = (0..n as u32)
                .map(HostId)
                .filter(|&c| c.index() != h && view.alive[c.index()])
                .collect();
            Self::sample_k(&mut self.rng, &mut pool, self.cfg.passive_degree);
            passive.push(pool);
        }
        State {
            prev_alive: view.alive.to_vec(),
            evicted: vec![false; n],
            passive,
            probes: Vec::new(),
            suspicions: Vec::new(),
        }
    }
}

impl OverlayDriver for Reference {
    fn next_events(&mut self, now: Time, view: &EngineView<'_>, out: &mut Vec<OverlayEvent>) {
        if self.state.is_none() {
            self.state = Some(self.init_state(view));
        }
        let n = view.alive.len();
        let cfg = self.cfg;
        let mut st = self.state.take().expect("state initialized");

        for i in 0..n {
            let h = HostId(i as u32);
            let joined = view.alive[i] && !st.prev_alive[i];
            let recovered = view.alive[i] && st.evicted[i];
            if !joined && !recovered {
                continue;
            }
            st.evicted[i] = false;
            st.probes.retain(|p| p.prober != h && p.target != h);
            st.suspicions.retain(|s| s.target != h);
            let current = view.neighbors(h);
            let mut pool: Vec<HostId> = (0..n as u32)
                .map(HostId)
                .filter(|&c| {
                    c != h
                        && view.alive[c.index()]
                        && !st.evicted[c.index()]
                        && !current.contains(&c)
                })
                .collect();
            Self::sample_k(&mut self.rng, &mut pool, cfg.active_degree);
            self.stats.maintenance_msgs += 2 * pool.len() as u64;
            for &p in &pool {
                out.push(OverlayEvent::AddEdge(h, p));
            }
            self.stats.rejoins += 1;
        }

        let mut i = 0;
        while i < st.probes.len() {
            if st.probes[i].due > now {
                i += 1;
                continue;
            }
            let p = st.probes.remove(i);
            if !view.alive[p.prober.index()] {
                continue;
            }
            let target_alive = view.alive[p.target.index()];
            if !p.indirect {
                let fp = target_alive && self.rng.gen_bool(cfg.false_positive);
                if !target_alive || fp {
                    self.stats.maintenance_msgs += 2 * cfg.indirect_probes as u64;
                    st.probes.push(Probe {
                        due: now + cfg.probe_timeout,
                        indirect: true,
                        fp,
                        ..p
                    });
                }
            } else if (!target_alive || p.fp) && !st.suspicions.iter().any(|s| s.target == p.target)
            {
                self.stats.suspicions += 1;
                st.suspicions.push(Suspicion {
                    due: now + cfg.suspicion_timeout,
                    target: p.target,
                });
            }
        }
        let mut i = 0;
        while i < st.suspicions.len() {
            if st.suspicions[i].due > now {
                i += 1;
                continue;
            }
            let s = st.suspicions.remove(i);
            let t = s.target.index();
            if view.alive[t] {
                self.stats.false_suspicions += 1;
            } else if !st.evicted[t] {
                st.evicted[t] = true;
                self.stats.evictions += 1;
                for &nb in view.neighbors(s.target) {
                    out.push(OverlayEvent::RemoveEdge(s.target, nb));
                }
            }
        }

        if now.ticks() > 0 && now.ticks().is_multiple_of(cfg.probe_every) {
            for i in 0..n {
                let h = HostId(i as u32);
                if !view.alive[i] || st.evicted[i] {
                    continue;
                }
                let nbrs = view.neighbors(h);
                if nbrs.is_empty() {
                    continue;
                }
                let target = nbrs[self.rng.gen_range(0..nbrs.len())];
                self.stats.probes += 1;
                self.stats.maintenance_msgs += 2;
                st.probes.push(Probe {
                    due: now + cfg.probe_timeout,
                    prober: h,
                    target,
                    indirect: false,
                    fp: false,
                });
            }
        }

        if now.ticks() > 0 && now.ticks().is_multiple_of(cfg.shuffle_every) {
            self.stats.shuffles += 1;
            let pool: Vec<HostId> = (0..n as u32)
                .map(HostId)
                .filter(|&c| view.alive[c.index()] && !st.evicted[c.index()])
                .collect();
            for i in 0..n {
                let h = HostId(i as u32);
                if !view.alive[i] || st.evicted[i] {
                    continue;
                }
                self.stats.maintenance_msgs += 2;
                if !pool.is_empty() {
                    let cand = pool[self.rng.gen_range(0..pool.len())];
                    if cand != h && !st.passive[i].contains(&cand) {
                        if st.passive[i].len() >= cfg.passive_degree && !st.passive[i].is_empty() {
                            let slot = self.rng.gen_range(0..st.passive[i].len());
                            st.passive[i][slot] = cand;
                        } else {
                            st.passive[i].push(cand);
                        }
                    }
                }
                let deg = view.degree(h);
                if deg < cfg.active_degree {
                    let nbrs = view.neighbors(h);
                    if let Some(&p) = st.passive[i].iter().find(|&&p| {
                        p != h
                            && view.alive[p.index()]
                            && !st.evicted[p.index()]
                            && !nbrs.contains(&p)
                    }) {
                        out.push(OverlayEvent::AddEdge(h, p));
                    }
                } else if deg > cfg.active_degree.max(view.graph.degree(h)) {
                    let nbrs = view.neighbors(h);
                    let drop = nbrs[self.rng.gen_range(0..nbrs.len())];
                    out.push(OverlayEvent::RemoveEdge(h, drop));
                }
            }
        }

        st.prev_alive.copy_from_slice(view.alive);
        self.state = Some(st);
    }

    fn next_poll(&self, now: Time) -> Option<Time> {
        (now < self.until).then(|| now + 1)
    }

    fn stats(&self) -> OverlayStats {
        self.stats
    }
}
