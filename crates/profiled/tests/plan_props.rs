//! Differential test for the fleet plan builder: the one-pass run
//! grouping of `build_plan` must encode byte-identically to the nested
//! `BTreeMap` grouping it replaced, kept here only as the oracle.

use cbs_bytecode::{CallSiteId, MethodId};
use cbs_dcg::{CallEdge, DynamicCallGraph};
use cbs_inliner::{
    build_plan, InlinePlan, InlinePolicy, NewLinearPolicy, OldJikesPolicy, PlanEntry, PlanKind,
    VirtualContext, VirtualTarget,
};
use cbs_prng::prop::run_cases;
use cbs_prng::SmallRng;
use cbs_profiled::DcgCodec;
use std::collections::BTreeMap;

/// The previous `build_plan`: regroups the graph into a
/// `BTreeMap<(caller, site), BTreeMap<callee, weight>>`.
fn oracle_build_plan(
    graph: &DynamicCallGraph,
    policy: &dyn InlinePolicy,
    generation: u64,
) -> InlinePlan {
    let total_weight = graph.total_weight();
    let mut sites: BTreeMap<(MethodId, CallSiteId), BTreeMap<MethodId, f64>> = BTreeMap::new();
    for (e, w) in graph.iter() {
        if w <= 0.0 {
            continue;
        }
        *sites
            .entry((e.caller, e.site))
            .or_default()
            .entry(e.callee)
            .or_insert(0.0) += w;
    }
    let mut entries = Vec::new();
    for ((caller, site), callees) in sites {
        let site_weight: f64 = callees.values().sum();
        if site_weight <= 0.0 {
            continue;
        }
        let mut dist: Vec<(MethodId, f64)> = callees.into_iter().collect();
        dist.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("weights are finite")
                .then(a.0.cmp(&b.0))
        });
        let kind = if dist.len() == 1 {
            PlanKind::Direct { callee: dist[0].0 }
        } else {
            let ctx = VirtualContext {
                targets: dist
                    .iter()
                    .map(|(m, w)| VirtualTarget {
                        callee: *m,
                        callee_size: 0,
                        fraction: w / site_weight,
                    })
                    .collect(),
                site_weight_pct: if total_weight > 0.0 {
                    100.0 * site_weight / total_weight
                } else {
                    0.0
                },
                caller_size: 0,
                profiled: true,
            };
            let chosen = policy.guarded_targets(&ctx);
            let weight_of =
                |m: MethodId| dist.iter().find(|(c, _)| *c == m).map_or(0.0, |(_, w)| *w);
            match chosen.len() {
                0 => continue,
                1 => PlanKind::Devirtualize {
                    callee: chosen[0],
                    weight: weight_of(chosen[0]),
                },
                _ => PlanKind::Guarded {
                    targets: chosen.into_iter().map(|m| (m, weight_of(m))).collect(),
                },
            }
        };
        entries.push(PlanEntry {
            caller,
            site,
            site_weight,
            kind,
        });
    }
    InlinePlan {
        generation,
        total_weight,
        entries,
    }
}

fn edge(caller: u32, site: u32, callee: u32) -> CallEdge {
    CallEdge::new(
        MethodId::new(caller),
        CallSiteId::new(site),
        MethodId::new(callee),
    )
}

/// A random pooled profile. Site ids are drawn from a small pool, so the
/// same site id recurs under several callers; a site has one receiver
/// about a third of the time; some sites are shaped so a receiver's
/// fraction lands on or one ulp either side of 40%; and the whole graph
/// is decayed a few times so most weights end non-integral.
fn random_graph(rng: &mut SmallRng) -> DynamicCallGraph {
    let mut g = DynamicCallGraph::new();
    for _ in 0..rng.gen_range(0..40u32) {
        let caller = rng.gen_range(0..30u32);
        let site = rng.gen_range(0..6u32);
        match rng.gen_range(0..3u32) {
            0 => g.record(
                edge(caller, site, rng.gen_range(0..8u32)),
                f64::from(rng.gen_range(1..100u32)),
            ),
            1 => {
                // 2 : 1.5 : 1.5 puts receiver 1 at 40%; its weight is
                // then moved one ulp down, kept, or moved one ulp up.
                let unit = f64::from(rng.gen_range(1..50u32)) * 0.5;
                let bits = (2.0 * unit).to_bits() + rng.gen_range(0..3u64) - 1;
                g.record(edge(caller, site, 1), f64::from_bits(bits));
                g.record(edge(caller, site, 2), 1.5 * unit);
                g.record(edge(caller, site, 3), 1.5 * unit);
            }
            _ => {
                for callee in 0..rng.gen_range(2..6u32) {
                    g.record(edge(caller, site, callee), 0.25 + rng.gen_f64() * 60.0);
                }
            }
        }
    }
    for _ in 0..rng.gen_range(0..4u32) {
        g.decay(0.99, 0.0);
    }
    g
}

#[test]
fn run_grouping_plan_encodes_like_the_btreemap_oracle() {
    let policies: [&dyn InlinePolicy; 2] =
        [&NewLinearPolicy::default(), &OldJikesPolicy::default()];
    let check = |g: &DynamicCallGraph, generation: u64| {
        for policy in policies {
            assert_eq!(
                DcgCodec::encode_plan(&build_plan(g, policy, generation)),
                DcgCodec::encode_plan(&oracle_build_plan(g, policy, generation)),
                "policy {}",
                policy.name()
            );
        }
    };
    check(&DynamicCallGraph::new(), 0);
    let mut decisions = 0;
    run_cases("plan_run_grouping", 128, |rng| {
        let g = random_graph(rng);
        check(&g, rng.next_u64() >> 8);
        decisions += oracle_build_plan(&g, &NewLinearPolicy::default(), 0)
            .entries
            .len();
    });
    assert!(decisions > 0, "the generator must yield plan entries");
}
