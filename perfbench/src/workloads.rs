//! The four workloads, each generated as `.scn` text from a seed.
//!
//! Each workload fixes its network (topology kind, size and seed), its
//! regime and its protocols; the seed draws the batch's cell seeds, and
//! with them every churn, partition, overlay and query-arrival
//! realization. A fixed network keeps `D̂`, and so every deadline, the
//! same across seeds, so run-to-run spread reflects the realizations
//! and the machine rather than diameter jumps between graphs. The
//! program under test sees only the generated text.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// WILDFIRE COUNT on a Gnutella-like graph under departures and a
    /// healing cut: the engine dominates.
    WildfireChurn,
    /// SPANNINGTREE SUM on a 3×10⁵-host random graph: set-up, queue and
    /// alive-set work and the oracle's large BFS show.
    TreeScale,
    /// 400 base queries × 2 sliding-window instances multiplexed over
    /// one simulation: `run_mux` and per-query judging dominate.
    MuxServing,
    /// WILDFIRE in 6 continuous windows under oscillating churn with a
    /// maintained overlay: the membership write path.
    OverlayContinuous,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::WildfireChurn,
        Workload::TreeScale,
        Workload::MuxServing,
        Workload::OverlayContinuous,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WildfireChurn => "wildfire_churn",
            Workload::TreeScale => "tree_scale",
            Workload::MuxServing => "mux_serving",
            Workload::OverlayContinuous => "overlay_continuous",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's `.scn` text for `seed`: same seed, same text.
    pub fn scn_text(self, seed: u64) -> String {
        // Distinct streams per workload, so one seed does not hand two
        // workloads correlated realizations.
        let tag = self as u64 + 1;
        let mut rng = SmallRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut draw = || 1 + u64::from(rng.gen::<u32>());
        let (a, b) = (draw(), draw());
        let topology_seed = 1000 + tag;
        let name = self.name();
        match self {
            Workload::WildfireChurn => format!(
                "[scenario]\nname = \"{name}\"\n\
                 [topology]\nkind = \"gnutella\"\nn = 20_000\nseed = {topology_seed}\n\
                 [query]\naggregate = \"count\"\nc = 16\n\
                 [protocol]\nkind = \"wildfire\"\n\
                 [churn]\nmodel = \"uniform\"\nfraction = 0.10\nfrom = 0.0\nuntil = 1.0\n\
                 [partition]\nfraction = 0.3\nfrom = 0.25\nheal = 0.75\n\
                 [run]\nseeds = [{a}, {b}]\nrepetitions = 2\n"
            ),
            Workload::TreeScale => format!(
                "[scenario]\nname = \"{name}\"\n\
                 [topology]\nkind = \"random\"\nn = 300_000\nseed = {topology_seed}\n\
                 [query]\naggregate = \"sum\"\n\
                 [protocol]\nkind = \"spanning-tree\"\n\
                 [churn]\nmodel = \"uniform\"\nfraction = 0.05\n\
                 [run]\nseeds = [{a}]\nrepetitions = 2\n"
            ),
            Workload::MuxServing => format!(
                "[scenario]\nname = \"{name}\"\n\
                 [topology]\nkind = \"random\"\nn = 5_000\nseed = {topology_seed}\n\
                 [query]\naggregate = \"count\"\n\
                 [protocol]\nkind = \"spanning-tree\"\n\
                 [churn]\nmodel = \"uniform\"\nfraction = 0.10\n\
                 [workload]\nqueries = 400\nspan = 1.5\nwindow = 0.8\nslide = 0.3\ninstances = 2\n\
                 [run]\nseeds = [{a}]\nrepetitions = 1\n"
            ),
            Workload::OverlayContinuous => format!(
                "[scenario]\nname = \"{name}\"\n\
                 [topology]\nkind = \"random\"\nn = 5_000\nseed = {topology_seed}\n\
                 [query]\naggregate = \"count\"\nc = 16\n\
                 [protocol]\nkind = \"wildfire\"\n\
                 [churn]\nmodel = \"oscillating\"\nfraction = 0.2\nperiod = 0.17\ndowntime = 0.06\n\
                 [overlay]\nactive_degree = 5\npassive_degree = 16\nshuffle_every = 8\n\
                 probe_every = 4\nprobe_timeout = 2\nindirect_probes = 2\n\
                 suspicion_timeout = 4\nfalse_positive = 0.01\n\
                 [continuous]\nwindows = 6\n\
                 [run]\nseeds = [{a}, {b}]\nrepetitions = 1\n"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pov_scenario::Scenario;

    #[test]
    fn same_seed_same_text_other_seed_other_text() {
        for w in Workload::ALL {
            assert_eq!(w.scn_text(7), w.scn_text(7), "{}", w.name());
            assert_ne!(w.scn_text(7), w.scn_text(8), "{}", w.name());
        }
    }

    #[test]
    fn every_text_parses_for_several_seeds() {
        for w in Workload::ALL {
            for seed in [0, 1, 2, u64::MAX] {
                let scn: Scenario = w.scn_text(seed).parse().expect("generated text parses");
                assert_eq!(scn.name, w.name());
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
