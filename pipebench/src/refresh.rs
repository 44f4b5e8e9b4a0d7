//! `refresh`: one client against a large preloaded profile repeats a
//! round of a few-edge push (every 16th round an epoch advance under
//! decay instead), an `OP_PLAN` pull and a full chunked snapshot pull.
//! Every round dirties the generation, so each plan pull pays for
//! seal, merge, snapshot encode and plan build. The preload crosses the
//! store's checkpoint cadence, so set-up writes a checkpoint and every
//! recovery starts from it.

use crate::daemon::{fresh_dir, io_err, recovery, replay, Daemon, Write};
use crate::gen::{refresh_graph, RefreshGen};
use crate::layers::Layers;
use crate::stats::{latency_ms, median};
use crate::trace::{push_req, Span, Tracer};
use crate::{host, timed_setups, Outcome, RunConfig};
use cbs_dcg::DynamicCallGraph;
use cbs_inliner::{build_plan, InlinePlan, NewLinearPolicy};
use cbs_profiled::{AggregatorConfig, DcgCodec, NetConfig, ProfileClient, PushOutcome};
use cbs_store::StoreConfig;
use std::io;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Reopens per run; `recovery_s` is their median.
const REOPENS: usize = 3;
/// Preload frames beyond the store's checkpoint cadence.
const PRELOAD_PAST_CHECKPOINT: usize = 16;
/// Every this many rounds, an epoch advance replaces the push.
const EPOCH_EVERY: u64 = 16;
/// Per-epoch decay of the refresh daemon.
const DECAY: f64 = 0.99;
/// The only client's id.
const CLIENT: u64 = 1;

fn agg_config() -> AggregatorConfig {
    AggregatorConfig {
        decay_factor: DECAY,
        ..AggregatorConfig::default()
    }
}

struct Session {
    daemon: Daemon,
    conn: ProfileClient,
    gen: RefreshGen,
    seq: u64,
    round: u64,
    /// Every acknowledged write, in order.
    writes: Vec<Write>,
    /// How many of `writes` the preload made.
    preloaded: usize,
    last_plan: Option<InlinePlan>,
    last_pull: Option<DynamicCallGraph>,
}

#[derive(Default)]
struct Tally {
    plan_ms: Vec<f64>,
    pull_ms: Vec<f64>,
    round_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl crate::Tally for Tally {
    fn units_ms(&self) -> &[f64] {
        &self.round_ms
    }

    fn absorb(&mut self, other: Tally) {
        self.plan_ms.extend(other.plan_ms);
        self.pull_ms.extend(other.pull_ms);
        self.round_ms.extend(other.round_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Frames the preloaded graph is pushed in: enough that the store's
/// default cadence writes a checkpoint during set-up.
fn preload_frames() -> usize {
    StoreConfig::default().checkpoint_every as usize + PRELOAD_PAST_CHECKPOINT
}

fn set_up(cfg: &RunConfig, origin: Instant) -> io::Result<Session> {
    let graph = refresh_graph(cfg.seed);
    let dir = fresh_dir(&cfg.data.join("refresh"))?;
    let daemon = Daemon::start(&dir, agg_config(), cfg.trace.then_some(origin))?;
    let mut conn = ProfileClient::connect(daemon.addr(), NetConfig::default())?;
    let mut writes = Vec::new();
    for (i, chunk) in graph.chunks(graph.len() / preload_frames()).enumerate() {
        let frame = DcgCodec::encode_delta(chunk);
        match conn
            .push_seq(CLIENT, i as u64 + 1, &frame)
            .map_err(io_err)?
        {
            PushOutcome::Applied => writes.push(Write::Frame(frame)),
            PushOutcome::Duplicate => return Err(io_err("preload frame acked as duplicate")),
        }
    }
    // Warm the snapshot and plan caches, as a serving daemon would be.
    conn.pull_plan().map_err(io_err)?;
    Ok(Session {
        gen: RefreshGen::new(cfg.seed, &graph),
        seq: writes.len() as u64,
        preloaded: writes.len(),
        daemon,
        conn,
        round: 0,
        writes,
        last_plan: None,
        last_pull: None,
    })
}

impl Session {
    fn reconnect(&mut self) {
        if let Ok(c) = ProfileClient::connect(self.daemon.addr(), NetConfig::default()) {
            self.conn = c;
        }
    }

    /// One round: write, then pull the plan and the snapshot.
    fn round(&mut self, t: &mut Tally, tr: &mut Tracer) {
        self.round += 1;
        t.attempted += 1;
        if self.round.is_multiple_of(EPOCH_EVERY) {
            match tr.span("client.epoch", 0, |_| self.conn.advance_epoch()) {
                Ok(_) => self.writes.push(Write::Epoch),
                Err(_) => {
                    t.failed += 1;
                    self.reconnect();
                }
            }
        } else {
            let increments = self.gen.next_delta();
            let frame = tr.span("codec.encode_delta", 0, |_| {
                DcgCodec::encode_delta(&increments)
            });
            self.seq += 1;
            let (seq, req) = (self.seq, push_req(CLIENT, self.seq));
            match tr.span("client.push", req, |_| {
                self.conn.push_seq(CLIENT, seq, &frame)
            }) {
                Ok(PushOutcome::Applied) => self.writes.push(Write::Frame(frame)),
                _ => {
                    t.failed += 1;
                    self.reconnect();
                }
            }
        }
        if tr.on() {
            let agg = self.daemon.aggregator();
            tr.span("agg.snapshot", 0, |_| agg.encoded_snapshot());
            tr.span("plan.build", 0, |_| agg.encoded_plan());
        }

        t.attempted += 1;
        let start = Instant::now();
        match tr.span("client.pull_plan", 0, |_| self.conn.pull_plan()) {
            Ok(plan) => {
                t.plan_ms.push(start.elapsed().as_secs_f64() * 1e3);
                self.last_plan = Some(plan);
            }
            Err(_) => {
                t.failed += 1;
                t.plan_ms.push(f64::INFINITY);
                self.last_plan = None;
                self.reconnect();
            }
        }

        t.attempted += 1;
        self.last_pull = None;
        let start = Instant::now();
        match tr.span("client.pull", 0, |_| self.conn.pull_chunked()) {
            Ok(graph) => {
                t.pull_ms.push(start.elapsed().as_secs_f64() * 1e3);
                self.last_pull = Some(graph);
            }
            Err(_) => {
                t.failed += 1;
                t.pull_ms.push(f64::INFINITY);
                self.reconnect();
            }
        }
    }
}

fn phase(s: &mut Session, secs: f64, traced: bool, origin: Instant) -> (Tally, Vec<Span>) {
    s.daemon.set_tracing(traced);
    let mut tr = Tracer::new(traced, origin);
    let mut t = Tally::default();
    let until = Instant::now() + Duration::from_secs_f64(secs);
    while Instant::now() < until {
        let unit = Instant::now();
        tr.span("refresh.round", 0, |tr| s.round(&mut t, tr));
        t.round_ms.push(unit.elapsed().as_secs_f64() * 1e3);
    }
    s.daemon.set_tracing(false);
    let mut spans = tr.into_spans();
    spans.extend(s.daemon.take_spans());
    (t, spans)
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> io::Result<Outcome> {
    let origin = Instant::now();
    let mut out = Outcome::default();
    let (mut s, setup) = timed_setups(
        SETUPS,
        || set_up(cfg, origin),
        |s| {
            drop(s.conn);
            s.daemon.stop()
        },
    )?;

    let ph = cfg.run_phases(|secs, traced| Ok(phase(&mut s, secs, traced, origin)))?;
    out.attempted += ph.untraced.attempted + ph.traced.attempted;
    out.failed += ph.untraced.failed + ph.traced.failed;
    let live_edges = s.daemon.aggregator().stats().total_edges();
    let Session {
        daemon,
        conn,
        writes,
        preloaded,
        last_plan,
        last_pull,
        ..
    } = s;
    drop(conn);
    daemon.stop()?;

    // Serial reference replay of every acknowledged write, in order.
    let reference = replay(agg_config(), writes)?;
    let expected = reference.aggregator.encoded_snapshot();
    out.check(
        "refresh.last_pull_equals_serial_replay",
        last_pull.is_some_and(|g| DcgCodec::encode_snapshot(&g) == *expected),
    );
    let plan_entries = last_plan.as_ref().map_or(0, |p| p.entries.len());
    out.check(
        "refresh.last_plan_equals_build_plan_on_replay",
        last_plan.is_some_and(|p| {
            let local = build_plan(
                &reference.aggregator.merged_snapshot_shared(),
                &NewLinearPolicy::default(),
                p.generation,
            );
            DcgCodec::encode_plan(&p) == DcgCodec::encode_plan(&local)
        }),
    );

    let (recovery, first) = recovery(&cfg.data.join("refresh"), agg_config(), REOPENS)?;
    out.check(
        "refresh.reopened_store_serves_same_bytes",
        *first.aggregator.encoded_snapshot() == *expected,
    );
    out.check(
        "refresh.recovery_starts_from_set_up_checkpoint",
        first.from_checkpoint,
    );

    let (tally, elapsed) = (&ph.untraced, ph.untraced_s);
    let rss = host::peak_rss_mb();
    let plan_p50 = latency_ms(&tally.plan_ms, 50.0, elapsed);
    let plan_p90 = latency_ms(&tally.plan_ms, 90.0, elapsed);
    out.set_end_to_end(cfg, setup, &tally.plan_ms, tally.round_ms.len(), elapsed);
    out.named = vec![
        ("setup_s", setup, "s"),
        ("plan_p50_ms", plan_p50, "ms"),
        ("plan_p90_ms", plan_p90, "ms"),
        (
            "pull_p50_ms",
            latency_ms(&tally.pull_ms, 50.0, elapsed),
            "ms",
        ),
        ("recovery_s", recovery, "s"),
        ("error_rate", out.error_rate(), "ratio"),
        ("peak_rss_mb", rss, "MB"),
    ];

    if cfg.trace {
        let mut layers = Layers::default();
        layers.fill_common(&ph, "refresh.round", &["refresh.round"]);
        layers.set("store.open_s", recovery);
        // Per-frame replay times cover the round frames, not the preload.
        layers.set(
            "agg.partition_us",
            median(&reference.partition_us[preloaded..]),
        );
        layers.set("agg.apply_us", median(&reference.apply_us[preloaded..]));
        layers.set("agg.edges", live_edges as f64);
        layers.set("plan.entries", plan_entries as f64);
        layers.set_decode(&expected);
        layers.set("trace.overhead_pct", ph.overhead_pct());
        out.layers = layers;
    }
    Ok(out)
}
