//! Seeded input generators. The same seed gives the same inputs; the
//! program under test only ever sees what these produce.

use cbs_bytecode::{CallSiteId, MethodId};
use cbs_dcg::CallEdge;
use cbs_prng::SmallRng;

fn edge(caller: u32, site: u32, callee: u32) -> CallEdge {
    CallEdge::new(
        MethodId::new(caller),
        CallSiteId::new(site),
        MethodId::new(callee),
    )
}

/// Hot callers in the `ingest` key space.
const HOT_CALLERS: u32 = 48;
/// Call sites per hot caller.
const HOT_SITES: u32 = 4;
/// Receivers per hot call site.
const HOT_TARGETS: u32 = 3;
/// Callers in the cold tail.
const COLD_CALLERS: u32 = 20_000;
/// Share of records that hit the hot core.
const HOT_SHARE: f64 = 0.85;
/// Most records in one delta frame.
const MAX_FRAME_RECORDS: u32 = 8;

/// One `ingest` client's stream of delta frames: a hot caller core
/// plus a cold tail, with small integral weights so the aggregate does
/// not depend on the order two clients' frames are applied in.
#[derive(Debug)]
pub struct IngestGen {
    rng: SmallRng,
}

impl IngestGen {
    /// The stream of client `client` under `seed`.
    pub fn new(seed: u64, client: u64) -> Self {
        Self {
            rng: SmallRng::seed_for_stream(seed, client),
        }
    }

    /// The increments of the next frame, as a VM's `drain_delta` would
    /// hand them to its client (unsorted; the codec sorts and
    /// coalesces).
    pub fn next_frame(&mut self) -> Vec<(CallEdge, f64)> {
        let n = self.rng.gen_range(1..=MAX_FRAME_RECORDS);
        (0..n)
            .map(|_| {
                let e = if self.rng.gen_bool(HOT_SHARE) {
                    let caller = self.rng.gen_range(0..HOT_CALLERS);
                    let site = self.rng.gen_range(0..HOT_SITES);
                    let k = self.rng.gen_range(0..HOT_TARGETS);
                    edge(caller, site, HOT_CALLERS + caller * 7 + site * 3 + k)
                } else {
                    let caller = HOT_CALLERS + self.rng.gen_range(0..COLD_CALLERS);
                    edge(caller, 0, caller + 1)
                };
                (e, f64::from(self.rng.gen_range(1u32..=4)))
            })
            .collect()
    }
}

/// Callers in the `refresh` graph.
const GRAPH_CALLERS: u32 = 6_250;
/// Call sites per caller in the `refresh` graph.
const GRAPH_SITES: u32 = 4;
/// Receivers per call site in the `refresh` graph.
const GRAPH_TARGETS: u32 = 4;

/// The `refresh` workload's preloaded profile: 10⁵ edges, every call
/// site with several receivers. Some sites have one dominant receiver
/// and some are spread out, so the 40% rule has both outcomes to decide.
pub fn refresh_graph(seed: u64) -> Vec<(CallEdge, f64)> {
    let mut rng = SmallRng::seed_for_stream(seed, 0);
    let methods = GRAPH_CALLERS;
    let mut out = Vec::with_capacity((GRAPH_CALLERS * GRAPH_SITES * GRAPH_TARGETS) as usize);
    for caller in 0..GRAPH_CALLERS {
        for site in 0..GRAPH_SITES {
            let base = rng.gen_range(0..methods);
            let skewed = rng.gen_bool(0.5);
            for k in 0..GRAPH_TARGETS {
                let callee = (base + k * 977) % methods;
                let w = if skewed && k == 0 {
                    rng.gen_range(200u32..=2_000)
                } else {
                    rng.gen_range(1u32..=100)
                };
                out.push((edge(caller, site, callee), f64::from(w)));
            }
        }
    }
    out
}

/// The few-edge deltas `refresh` pushes between plan pulls: existing
/// edges of [`refresh_graph`] gaining a little weight.
#[derive(Debug)]
pub struct RefreshGen {
    rng: SmallRng,
    edges: Vec<CallEdge>,
}

impl RefreshGen {
    /// Deltas over `graph` under `seed`.
    pub fn new(seed: u64, graph: &[(CallEdge, f64)]) -> Self {
        Self {
            rng: SmallRng::seed_for_stream(seed, 1),
            edges: graph.iter().map(|&(e, _)| e).collect(),
        }
    }

    /// The next delta: 2 to 6 existing edges.
    pub fn next_delta(&mut self) -> Vec<(CallEdge, f64)> {
        let n = self.rng.gen_range(2u32..=6);
        (0..n)
            .map(|_| {
                let e = self.edges[self.rng.gen_range(0..self.edges.len())];
                (e, f64::from(self.rng.gen_range(1u32..=16)))
            })
            .collect()
    }
}

/// The simulated timer seed of VM `replica` running benchmark `bench`
/// under `seed`: decorrelates the replicas' sampling without changing
/// what the program computes.
pub fn timer_seed(seed: u64, bench: usize, replica: usize) -> u64 {
    let mut rng = SmallRng::seed_for_stream(seed, (bench * 64 + replica) as u64);
    rng.next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(seed: u64, client: u64) -> Vec<Vec<(CallEdge, f64)>> {
        let mut g = IngestGen::new(seed, client);
        (0..200).map(|_| g.next_frame()).collect()
    }

    #[test]
    fn ingest_frames_repeat_per_seed_and_client() {
        assert_eq!(frames(7, 1), frames(7, 1));
        assert_ne!(frames(7, 1), frames(8, 1));
        assert_ne!(frames(7, 1), frames(7, 2));
    }

    #[test]
    fn ingest_frames_are_skewed_and_integral() {
        let all: Vec<_> = frames(3, 1).into_iter().flatten().collect();
        let hot = all
            .iter()
            .filter(|(e, _)| u32::from(e.caller) < HOT_CALLERS)
            .count();
        assert!(hot * 10 > all.len() * 7, "hot share {hot}/{}", all.len());
        assert!(all.iter().all(|&(_, w)| w >= 1.0 && w.fract() == 0.0));
    }

    #[test]
    fn refresh_inputs_repeat_per_seed() {
        let g = refresh_graph(11);
        assert_eq!(g.len(), 100_000);
        assert_eq!(g, refresh_graph(11));
        assert_ne!(g, refresh_graph(12));
        let mut edges: Vec<CallEdge> = g.iter().map(|&(e, _)| e).collect();
        edges.sort_unstable();
        edges.dedup();
        assert_eq!(edges.len(), g.len(), "edges are distinct");

        let deltas = |seed| {
            let mut d = RefreshGen::new(seed, &g);
            (0..50).map(|_| d.next_delta()).collect::<Vec<_>>()
        };
        assert_eq!(deltas(5), deltas(5));
        assert_ne!(deltas(5), deltas(6));
    }

    #[test]
    fn timer_seeds_repeat_per_seed_and_differ_per_replica() {
        assert_eq!(timer_seed(1, 2, 3), timer_seed(1, 2, 3));
        assert_ne!(timer_seed(1, 2, 3), timer_seed(2, 2, 3));
        assert_ne!(timer_seed(1, 2, 3), timer_seed(1, 2, 0));
    }
}
