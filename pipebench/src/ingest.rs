//! `ingest`: two closed-loop clients push small delta frames over
//! `OP_PUSH_SEQ` into the durable daemon; the run ends with one pull,
//! then the data directory is reopened to time recovery.

use crate::daemon::{fresh_dir, recovery, replay, Daemon, Write};
use crate::gen::IngestGen;
use crate::layers::Layers;
use crate::stats::{latency_ms, median};
use crate::trace::{push_req, Span, Tracer};
use crate::{host, timed_setups, Outcome, RunConfig, Tally as _};
use cbs_profiled::{AggregatorConfig, DcgCodec, NetConfig, ProfileClient, PushOutcome};
use cbs_telemetry::global;
use std::io;
use std::net::SocketAddr;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Reopens per run; `recovery_s` is their median.
const REOPENS: usize = 5;
/// Latency samples one client reserves room for per phase.
const SAMPLE_CAPACITY: usize = 1 << 19;

struct Client {
    id: u64,
    conn: ProfileClient,
    gen: IngestGen,
    seq: u64,
    /// Sequences whose push failed; every other sequence up to `seq`
    /// was acknowledged. Frames are regenerated from the seed for the
    /// reference replay rather than kept.
    failed_seqs: Vec<u64>,
}

#[derive(Default)]
struct Tally {
    /// Push latencies in ms; a failed push is `INFINITY`.
    push_ms: Vec<f64>,
    /// Whole iterations (generate, encode, push) in ms.
    unit_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    records: u64,
}

impl crate::Tally for Tally {
    fn units_ms(&self) -> &[f64] {
        &self.unit_ms
    }

    fn absorb(&mut self, other: Tally) {
        self.push_ms.extend(other.push_ms);
        self.unit_ms.extend(other.unit_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.records += other.records;
    }
}

/// One client's closed loop until `until`.
fn drive(c: &mut Client, addr: SocketAddr, until: Instant, tr: &mut Tracer) -> Tally {
    // Room for any plausible run up front, so that peak memory does not
    // depend on where a doubling lands.
    let mut t = Tally {
        push_ms: Vec::with_capacity(SAMPLE_CAPACITY),
        unit_ms: Vec::with_capacity(SAMPLE_CAPACITY),
        ..Tally::default()
    };
    while Instant::now() < until {
        let unit = Instant::now();
        c.seq += 1;
        let (id, seq) = (c.id, c.seq);
        let req = push_req(id, seq);
        tr.span("ingest.round", req, |tr| {
            let increments = c.gen.next_frame();
            let frame = tr.span("codec.encode_delta", req, |_| {
                DcgCodec::encode_delta(&increments)
            });
            t.attempted += 1;
            let start = Instant::now();
            let res = tr.span("client.push", req, |_| c.conn.push_seq(id, seq, &frame));
            let ms = start.elapsed().as_secs_f64() * 1e3;
            if let Ok(PushOutcome::Applied) = res {
                t.push_ms.push(ms);
                t.records += DcgCodec::records(&frame).map_or(0, |r| r.len() as u64);
            } else {
                t.failed += 1;
                c.failed_seqs.push(seq);
                t.push_ms.push(f64::INFINITY);
                if let Ok(conn) = ProfileClient::connect(addr, NetConfig::default()) {
                    c.conn = conn;
                }
            }
        });
        t.unit_ms.push(unit.elapsed().as_secs_f64() * 1e3);
    }
    t
}

/// Runs every client's loop on its own thread for `secs`.
fn phase(
    clients: &mut [Client],
    daemon: &Daemon,
    secs: f64,
    traced: bool,
    origin: Instant,
) -> (Tally, Vec<Span>) {
    daemon.set_tracing(traced);
    let addr = daemon.addr();
    let until = Instant::now() + std::time::Duration::from_secs_f64(secs);
    let mut tally = Tally::default();
    let mut spans = Vec::new();
    std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                s.spawn(move || {
                    let mut tr = Tracer::new(traced, origin);
                    let t = drive(c, addr, until, &mut tr);
                    (t, tr.into_spans())
                })
            })
            .collect();
        for w in workers {
            let (t, s) = w.join().expect("ingest client thread");
            tally.absorb(t);
            spans.extend(s);
        }
    });
    daemon.set_tracing(false);
    spans.extend(daemon.take_spans());
    (tally, spans)
}

fn set_up(cfg: &RunConfig, origin: Instant) -> io::Result<(Daemon, Vec<Client>)> {
    let dir = fresh_dir(&cfg.data.join("ingest"))?;
    let daemon = Daemon::start(
        &dir,
        AggregatorConfig::default(),
        cfg.trace.then_some(origin),
    )?;
    let clients = (1..=host::nproc().min(2) as u64)
        .map(|id| {
            Ok(Client {
                id,
                conn: ProfileClient::connect(daemon.addr(), NetConfig::default())?,
                gen: IngestGen::new(cfg.seed, id),
                seq: 0,
                failed_seqs: Vec::new(),
            })
        })
        .collect::<io::Result<Vec<_>>>()?;
    Ok((daemon, clients))
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> io::Result<Outcome> {
    let origin = Instant::now();
    let mut out = Outcome::default();
    let ((daemon, mut clients), setup) = timed_setups(
        SETUPS,
        || set_up(cfg, origin),
        |(daemon, clients)| {
            drop::<Vec<Client>>(clients);
            daemon.stop()
        },
    )?;

    let mut ph =
        cfg.run_phases(|secs, traced| Ok(phase(&mut clients, &daemon, secs, traced, origin)))?;
    out.attempted += ph.untraced.attempted + ph.traced.attempted;
    out.failed += ph.untraced.failed + ph.traced.failed;

    // The run ends with one full pull.
    let base = global().snapshot();
    let mut tr = Tracer::new(cfg.trace, origin);
    if cfg.trace {
        tr.span("agg.snapshot", 0, |_| {
            daemon.aggregator().encoded_snapshot()
        });
    }
    out.attempted += 1;
    let pulled = tr.span("client.pull", 0, |_| clients[0].conn.pull_chunked());
    if pulled.is_err() {
        out.failed += 1;
    }
    if cfg.trace {
        ph.spans.extend(tr.into_spans());
        ph.deltas.push(global().delta_since(&base));
    }
    let pushed: Vec<(u64, u64, Vec<u64>)> = clients
        .into_iter()
        .map(|c| (c.id, c.seq, c.failed_seqs))
        .collect();
    let live_edges = daemon.aggregator().stats().total_edges();
    daemon.stop()?;

    // Serial reference replay of every acked frame, regenerated from
    // the seed. Weights are integral, so the order two clients' frames
    // interleaved in does not change a bit of the result.
    let acked = pushed.iter().flat_map(|(id, last, failed)| {
        let mut gen = IngestGen::new(cfg.seed, *id);
        (1..=*last).filter_map(move |seq| {
            let frame = DcgCodec::encode_delta(&gen.next_frame());
            (!failed.contains(&seq)).then_some(Write::Frame(frame))
        })
    });
    let reference = replay(AggregatorConfig::default(), acked)?;
    let expected = reference.aggregator.encoded_snapshot();
    out.check(
        "ingest.pull_equals_serial_replay",
        pulled
            .as_ref()
            .is_ok_and(|g| DcgCodec::encode_snapshot(g) == *expected),
    );
    let (recovery, first) = recovery(
        &cfg.data.join("ingest"),
        AggregatorConfig::default(),
        REOPENS,
    )?;
    out.check(
        "ingest.reopened_store_serves_same_bytes",
        *first.aggregator.encoded_snapshot() == *expected,
    );

    let (tally, elapsed) = (&ph.untraced, ph.untraced_s);
    let acked_pushes = tally.push_ms.iter().filter(|v| v.is_finite()).count();
    let push_ms = &tally.push_ms;
    let rss = host::peak_rss_mb();
    out.set_end_to_end(cfg, setup, push_ms, acked_pushes, elapsed);
    out.named = vec![
        ("setup_s", setup, "s"),
        (
            "push_p50_us",
            1e3 * latency_ms(push_ms, 50.0, elapsed),
            "us",
        ),
        (
            "push_p90_us",
            1e3 * latency_ms(push_ms, 90.0, elapsed),
            "us",
        ),
        (
            "ingest_records_per_s",
            tally.records as f64 / elapsed,
            "1/s",
        ),
        ("recovery_s", recovery, "s"),
        ("error_rate", out.error_rate(), "ratio"),
        ("peak_rss_mb", rss, "MB"),
    ];

    if cfg.trace {
        let mut layers = Layers::default();
        layers.fill_common(&ph, "ingest.round", &["ingest.round"]);
        layers.set("store.open_s", recovery);
        layers.set("agg.partition_us", median(&reference.partition_us));
        layers.set("agg.apply_us", median(&reference.apply_us));
        layers.set("agg.edges", live_edges as f64);
        layers.set_decode(&expected);
        layers.set("trace.overhead_pct", ph.overhead_pct());
        out.layers = layers;
    }
    Ok(out)
}
