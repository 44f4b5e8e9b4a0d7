//! `fleet-loop`: the paper's collect-then-exploit loop, run serially so
//! stage spans tile the wall time. For every `cbs-workloads` benchmark,
//! four decorrelated sparse-CBS VMs run the program, flush their
//! profiles through `drain_delta` and a `ResilientClient` push into a
//! fresh durable daemon; a client pulls the fleet plan, a
//! `FleetAdaptiveController` applies it, and the transformed program
//! runs.

use crate::daemon::{fresh_dir, io_err, reopen, replay, Daemon, Write};
use crate::gen::timer_seed;
use crate::layers::Layers;
use crate::stats::median;
use crate::trace::{push_req, total_s, Span, Tracer};
use crate::{host, Outcome, RunConfig};
use cbs_adaptive::{AdaptiveConfig, FleetAdaptiveController};
use cbs_bytecode::Program;
use cbs_dcg::{coalesce_increments, CallEdge};
use cbs_inliner::{build_plan, InlinePlan, InlineReport, NewLinearPolicy};
use cbs_profiled::{AggregatorConfig, DcgCodec, NetConfig, ResilientClient, RetryPolicy};
use cbs_profiler::{CallGraphProfiler, CbsConfig, CounterBasedSampler};
use cbs_vm::{Vm, VmConfig};
use cbs_workloads::{Benchmark, InputSize};
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Input scale of every benchmark program.
const SCALE: f64 = 0.1;
/// CBS strides of the four VMs of one benchmark's fleet.
const STRIDES: [u32; 4] = [3, 5, 7, 11];
/// Samples per CBS window: the paper's sparse, low-overhead regime.
const SAMPLES_PER_WINDOW: u32 = 2;
/// Restarts of the whole fleet's data directories; `recovery_s` is
/// their median.
const REOPENS: usize = 3;
/// The most the stage spans may leave of a loop uncovered, in percent.
pub const TILING_TOLERANCE_PCT: f64 = 5.0;
/// The plan-pulling client's id (VM clients are 1..=4).
const PLAN_CLIENT: u64 = 100;

/// Simulated counts of one loop; identical on every loop of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Sim {
    /// Cycles of the untransformed programs.
    base_cycles: u64,
    /// Cycles of the plan-transformed programs.
    fleet_cycles: u64,
    /// Base cycles of every sampled VM run.
    vm_cycles: u64,
    /// CBS overhead cycles of every sampled VM run.
    overhead_cycles: u64,
    samples: u64,
    plan_entries: u64,
    inlines: u64,
    edges: u64,
}

/// What one benchmark's pass leaves for the checks.
struct Pass {
    deltas: Vec<Vec<(CallEdge, f64)>>,
    plan: Option<InlinePlan>,
    /// Every VM and the transformed program returned the same values.
    preserved: bool,
}

#[derive(Default)]
struct Tally {
    bench_ms: Vec<f64>,
    loop_ms: Vec<f64>,
    sims: Vec<Sim>,
    passes: Vec<Pass>,
    attempted: u64,
    failed: u64,
}

impl crate::Tally for Tally {
    fn units_ms(&self) -> &[f64] {
        &self.loop_ms
    }

    fn absorb(&mut self, other: Tally) {
        self.bench_ms.extend(other.bench_ms);
        self.loop_ms.extend(other.loop_ms);
        self.sims.extend(other.sims);
        self.passes.extend(other.passes);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

fn build_programs() -> io::Result<Vec<Program>> {
    Benchmark::all()
        .iter()
        .map(|b| cbs_workloads::generator::build(&b.spec(InputSize::Small).scaled(SCALE)))
        .collect::<Result<_, _>>()
        .map_err(io_err)
}

/// One set-up, timed: builds every program.
fn timed_setup() -> io::Result<(Vec<Program>, f64)> {
    let t = Instant::now();
    let programs = build_programs()?;
    Ok((programs, t.elapsed().as_secs_f64()))
}

fn bench_dir(cfg: &RunConfig, bench: usize) -> PathBuf {
    cfg.data.join(format!("fleet-{bench}"))
}

/// One benchmark's collect-then-exploit pass.
fn pass(
    cfg: &RunConfig,
    bench: usize,
    program: &Program,
    sim: &mut Sim,
    t: &mut Tally,
    tr: &mut Tracer,
    origin: Instant,
) -> io::Result<(Pass, Vec<Span>)> {
    let traced = tr.on();
    let daemon = tr.span("daemon.start", 0, |_| {
        let dir = fresh_dir(&bench_dir(cfg, bench))?;
        Daemon::start(&dir, AggregatorConfig::default(), traced.then_some(origin))
    })?;
    daemon.set_tracing(traced);
    let addr = daemon.addr().to_string();
    let mut deltas = Vec::new();
    let mut baseline = None;
    let mut preserved = true;
    for (replica, &stride) in STRIDES.iter().enumerate() {
        let mut cbs = CounterBasedSampler::new(CbsConfig::new(stride, SAMPLES_PER_WINDOW));
        let vm = VmConfig {
            timer_seed: timer_seed(cfg.seed, bench, replica),
            ..VmConfig::default()
        };
        let exec = tr
            .span("vm.run", 0, |_| Vm::new(program, vm).run(&mut cbs))
            .map_err(io_err)?;
        sim.vm_cycles += exec.cycles;
        sim.overhead_cycles += cbs.overhead_cycles();
        sim.samples += cbs.samples_taken();
        match &baseline {
            None => baseline = Some((exec.cycles, exec.return_values)),
            Some((_, values)) => preserved &= *values == exec.return_values,
        }
        let delta = tr.span("dcg.drain_delta", 0, |_| cbs.take_dcg().drain_delta());
        let id = replica as u64 + 1;
        let mut client = ResilientClient::connect_tcp(
            addr.clone(),
            NetConfig::default(),
            RetryPolicy::default(),
            id,
        );
        t.attempted += 1;
        let sent = delta.clone();
        if tr
            .span("client.push", push_req(id, 1), |_| client.push_delta(sent))
            .is_err()
        {
            t.failed += 1;
        }
        let stats = client.stats();
        t.failed += (stats.retries + stats.reconnects) as u64;
        deltas.push(delta);
        // Only one connection is open at a time.
        drop(client);
    }
    if traced {
        let agg = daemon.aggregator();
        tr.span("agg.snapshot", 0, |_| agg.encoded_snapshot());
        tr.span("plan.build", 0, |_| agg.encoded_plan());
    }
    let mut puller = ResilientClient::connect_tcp(
        addr,
        NetConfig::default(),
        RetryPolicy::default(),
        PLAN_CLIENT,
    );
    t.attempted += 1;
    let plan = tr.span("client.pull_plan", 0, |_| puller.pull_plan());
    let stats = puller.stats();
    t.failed += (stats.retries + stats.reconnects) as u64 + u64::from(plan.is_err());
    let plan = plan.ok();
    sim.edges += daemon.aggregator().stats().total_edges() as u64;
    drop(puller);
    let spans = daemon.take_spans();
    tr.span("daemon.stop", 0, |_| daemon.stop())?;

    let mut ctl = FleetAdaptiveController::new(program.clone(), AdaptiveConfig::default());
    if let Some(plan) = &plan {
        tr.span("adaptive.apply", 0, |_| ctl.apply_fleet_plan(plan));
        sim.plan_entries += plan.entries.len() as u64;
        sim.inlines += ctl.last_report().map_or(0, InlineReport::total_inlines) as u64;
    }
    let exec = tr.span("adaptive.run", 0, |_| ctl.run()).map_err(io_err)?;
    let (base_cycles, base_values) = baseline.expect("every fleet has VMs");
    preserved &= exec.return_values == base_values;
    sim.base_cycles += base_cycles;
    sim.fleet_cycles += exec.cycles;
    Ok((
        Pass {
            deltas,
            plan,
            preserved,
        },
        spans,
    ))
}

/// Whole loops until `secs` have passed (a started loop finishes). With
/// `setups`, also times a set-up between every two loops, outside the
/// loops' timing, and appends its seconds: a set-up is short, and the
/// host's speed changes over seconds, so set-ups timed back to back
/// would all land in one state of it.
fn phase(
    cfg: &RunConfig,
    programs: &[Program],
    secs: f64,
    traced: bool,
    origin: Instant,
    mut setups: Option<&mut Vec<f64>>,
) -> io::Result<(Tally, Vec<Span>)> {
    let mut t = Tally::default();
    let mut tr = Tracer::new(traced, origin);
    let mut store_spans = Vec::new();
    let until = Instant::now() + Duration::from_secs_f64(secs);
    while Instant::now() < until {
        match setups.as_deref_mut() {
            Some(setups) if !t.loop_ms.is_empty() => setups.push(timed_setup()?.1),
            _ => {}
        }
        let mut sim = Sim::default();
        let loop_start = Instant::now();
        tr.span("fleet.loop", 0, |tr| -> io::Result<()> {
            for (bench, program) in programs.iter().enumerate() {
                let b = Instant::now();
                let (p, spans) = tr.span("fleet.bench", 0, |tr| {
                    pass(cfg, bench, program, &mut sim, &mut t, tr, origin)
                })?;
                t.bench_ms.push(b.elapsed().as_secs_f64() * 1e3);
                t.passes.push(p);
                store_spans.extend(spans);
            }
            Ok(())
        })?;
        t.loop_ms.push(loop_start.elapsed().as_secs_f64() * 1e3);
        t.sims.push(sim);
    }
    let mut spans = tr.into_spans();
    spans.extend(store_spans);
    Ok((t, spans))
}

/// The plan the daemon should have served for `p`: the four profiles
/// pooled serially, exactly as the `ResilientClient`s framed them, and
/// `build_plan` run on the result. Also collects the per-frame
/// partition and apply times.
fn reference_plan(
    p: &Pass,
    generation: u64,
    timings: &mut (Vec<f64>, Vec<f64>),
) -> io::Result<Vec<u8>> {
    let frames = p
        .deltas
        .iter()
        .map(|d| Write::Frame(DcgCodec::encode_delta(&coalesce_increments(d, &[]))));
    let r = replay(AggregatorConfig::default(), frames)?;
    timings.0.extend(r.partition_us);
    timings.1.extend(r.apply_us);
    let plan = build_plan(
        &r.aggregator.merged_snapshot_shared(),
        &NewLinearPolicy::default(),
        generation,
    );
    Ok(DcgCodec::encode_plan(&plan))
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> io::Result<Outcome> {
    let origin = Instant::now();
    let mut out = Outcome::default();
    let (programs, first) = timed_setup()?;
    let mut setups = vec![first];
    let ph = cfg.run_phases(|secs, traced| {
        let setups = (!traced).then_some(&mut setups);
        phase(cfg, &programs, secs, traced, origin, setups)
    })?;
    let setup = median(&setups);
    let mut timings = (Vec::new(), Vec::new());
    let mut plans_match = true;
    let mut preserved = true;
    let mut sims = Vec::new();
    for t in [&ph.untraced, &ph.traced] {
        out.attempted += t.attempted;
        out.failed += t.failed;
        sims.extend(&t.sims);
        for p in &t.passes {
            preserved &= p.preserved;
            plans_match &= p.plan.as_ref().is_some_and(|plan| {
                reference_plan(p, plan.generation, &mut timings)
                    .is_ok_and(|want| want == DcgCodec::encode_plan(plan))
            });
        }
    }
    out.check("fleet.served_plans_equal_pooled_reference", plans_match);
    out.check(
        "fleet.transformed_programs_return_baseline_values",
        preserved,
    );
    out.check(
        "fleet.simulated_counts_repeat_every_loop",
        sims.windows(2).all(|w| w[0] == w[1]),
    );

    // Restart every benchmark's daemon of the last loop from disk.
    let mut recovery_s = Vec::new();
    for _ in 0..REOPENS {
        let mut sum = 0.0;
        for bench in 0..programs.len() {
            sum += reopen(&bench_dir(cfg, bench), AggregatorConfig::default())?.secs;
        }
        recovery_s.push(sum);
    }

    // The set-ups timed between loops are not part of the measured time.
    let elapsed = ph.untraced_s - setups[1..].iter().sum::<f64>();
    let tally = &ph.untraced;
    let sim = &tally.sims[0];
    let recovery = median(&recovery_s);
    let rss = host::peak_rss_mb();
    out.set_end_to_end(cfg, setup, &tally.bench_ms, tally.bench_ms.len(), elapsed);
    out.named = vec![
        ("setup_s", setup, "s"),
        ("loop_s", median(&tally.loop_ms) / 1e3, "s"),
        (
            "fleet_speedup_pct",
            100.0 * (sim.base_cycles as f64 - sim.fleet_cycles as f64) / sim.base_cycles as f64,
            "%",
        ),
        (
            "sampling_overhead_pct",
            100.0 * sim.overhead_cycles as f64 / sim.vm_cycles as f64,
            "%",
        ),
        ("recovery_s", recovery, "s"),
        ("error_rate", out.error_rate(), "ratio"),
        ("peak_rss_mb", rss, "MB"),
    ];

    if cfg.trace {
        let spans = &ph.spans;
        let mut layers = Layers::default();
        layers.fill_common(&ph, "fleet.loop", &["fleet.loop", "fleet.bench"]);
        let loops = ph.traced.loop_ms.len() as f64;
        let vm_s = total_s(spans, "vm.run") / loops;
        layers.set("workloads.build_s", setup);
        layers.set("vm.run_s", vm_s);
        layers.set("vm.sim_mcycles_per_s", sim.vm_cycles as f64 / vm_s / 1e6);
        layers.set("profiler.samples", sim.samples as f64);
        layers.set("profiler.overhead_cycles", sim.overhead_cycles as f64);
        layers.set(
            "dcg.drain_delta_ms",
            1e3 * total_s(spans, "dcg.drain_delta") / loops,
        );
        layers.set(
            "adaptive.apply_ms",
            1e3 * total_s(spans, "adaptive.apply") / loops,
        );
        layers.set("adaptive.inlines", sim.inlines as f64);
        layers.set("adaptive.run_s", total_s(spans, "adaptive.run") / loops);
        layers.set("plan.entries", sim.plan_entries as f64);
        layers.set("agg.edges", sim.edges as f64);
        layers.set("store.open_s", recovery);
        layers.set("agg.partition_us", median(&timings.0));
        layers.set("agg.apply_us", median(&timings.1));
        layers.set("trace.overhead_pct", ph.overhead_pct());
        let gap = layers.get("trace.tiling_gap_pct");
        out.check("fleet.stage_spans_tile_loop", gap <= TILING_TOLERANCE_PCT);
        out.layers = layers;
    }
    Ok(out)
}
