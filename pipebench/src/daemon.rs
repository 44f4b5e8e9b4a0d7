//! The daemon under test, in-process on loopback: `serve_with` over a
//! durable `ProfileStore` with the defaults `profiled --data-dir`
//! ships (4 shards, `--fsync always`, default group commit and
//! checkpoint cadence), optionally behind a journal that times every
//! call the server makes into the store.

use crate::stats::median;
use crate::trace::{next_id, push_req, Span};
use cbs_profiled::{
    serve_with, AggregatorConfig, DedupUsage, FrameKind, IngestScratch, JournalError, NetConfig,
    ProfileJournal, SeqIngest, ServerConfig, ServerHandle, ShardedAggregator,
};
use cbs_store::{ProfileStore, StoreConfig};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A [`ProfileJournal`] that delegates to a [`ProfileStore`] and, while
/// switched on, records a span around each call.
#[derive(Debug)]
pub struct TracingJournal {
    inner: Arc<ProfileStore>,
    origin: Instant,
    on: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl TracingJournal {
    fn timed<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        if !self.on.load(Ordering::Relaxed) {
            return f();
        }
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span list").push(Span {
            id: next_id(),
            parent: None,
            name,
            req,
            start,
            end,
        });
        out
    }
}

impl ProfileJournal for TracingJournal {
    fn ingest_frame(
        &self,
        bytes: &[u8],
        scratch: &mut IngestScratch,
    ) -> Result<(FrameKind, usize), JournalError> {
        self.timed("store.ingest", 0, || {
            self.inner.ingest_frame(bytes, scratch)
        })
    }

    fn ingest_sequenced(
        &self,
        client_id: u64,
        seq: u64,
        bytes: &[u8],
        scratch: &mut IngestScratch,
    ) -> Result<SeqIngest, JournalError> {
        self.timed("store.ingest", push_req(client_id, seq), || {
            self.inner.ingest_sequenced(client_id, seq, bytes, scratch)
        })
    }

    fn advance_epoch(&self) -> Result<u64, JournalError> {
        self.timed("store.epoch", 0, || self.inner.advance_epoch())
    }

    fn dedup_usage(&self) -> DedupUsage {
        self.inner.dedup_usage()
    }

    fn flush(&self) -> Result<(), JournalError> {
        self.inner.flush()
    }
}

/// A running daemon over a data directory.
#[derive(Debug)]
pub struct Daemon {
    store: Arc<ProfileStore>,
    server: ServerHandle,
    tracing: Option<Arc<TracingJournal>>,
}

impl Daemon {
    /// Opens a store in `dir` (created if missing) and serves it on an
    /// OS-assigned loopback port. With `origin`, the server writes
    /// through a [`TracingJournal`] whose spans count from it; it
    /// starts switched off.
    pub fn start(dir: &Path, agg: AggregatorConfig, origin: Option<Instant>) -> io::Result<Self> {
        let aggregator = Arc::new(ShardedAggregator::new(agg));
        let store = Arc::new(ProfileStore::open(
            dir,
            Arc::clone(&aggregator),
            StoreConfig::default(),
        )?);
        let tracing = origin.map(|origin| {
            Arc::new(TracingJournal {
                inner: Arc::clone(&store),
                origin,
                on: AtomicBool::new(false),
                spans: Mutex::new(Vec::new()),
            })
        });
        let journal: Arc<dyn ProfileJournal> = match &tracing {
            Some(t) => Arc::clone(t) as Arc<dyn ProfileJournal>,
            None => Arc::clone(&store) as Arc<dyn ProfileJournal>,
        };
        let server = serve_with(
            "127.0.0.1:0",
            aggregator,
            ServerConfig {
                net: NetConfig::default(),
                dedup_capacity: StoreConfig::default().dedup_capacity,
                journal: Some(journal),
            },
        )?;
        Ok(Self {
            store,
            server,
            tracing,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The served aggregator, for in-process calls beside the wire.
    pub fn aggregator(&self) -> &Arc<ShardedAggregator> {
        self.server.aggregator()
    }

    /// Switches store spans on or off (no-op for an untraced daemon).
    pub fn set_tracing(&self, on: bool) {
        if let Some(t) = &self.tracing {
            t.on.store(on, Ordering::Relaxed);
        }
    }

    /// Takes the store spans recorded so far.
    pub fn take_spans(&self) -> Vec<Span> {
        self.tracing.as_ref().map_or_else(Vec::new, |t| {
            std::mem::take(&mut *t.spans.lock().expect("span list"))
        })
    }

    /// Stops the server and waits until every connection thread has
    /// released the store, so the data directory can be reopened.
    /// Clients must have disconnected first.
    pub fn stop(self) -> io::Result<()> {
        let Daemon {
            store,
            server,
            tracing,
        } = self;
        server.shutdown();
        drop(tracing);
        let deadline = Instant::now() + Duration::from_secs(10);
        while Arc::strong_count(&store) > 1 {
            if Instant::now() > deadline {
                return Err(io::Error::other("connection threads kept the store open"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }
}

/// The error type of every benchmark step, from any displayable error.
pub fn io_err(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// A state-changing request the server acknowledged.
pub enum Write {
    /// A delta frame's wire bytes.
    Frame(Vec<u8>),
    /// An epoch advance.
    Epoch,
}

/// The serial reference replay of a run's acknowledged writes.
pub struct Replay {
    /// A fresh aggregator with every write applied in order.
    pub aggregator: ShardedAggregator,
    /// µs of `partition_frame` per frame, in order.
    pub partition_us: Vec<f64>,
    /// µs of `apply_partitioned` per frame, in order.
    pub apply_us: Vec<f64>,
}

/// Applies `writes` in order to a fresh aggregator, each frame through
/// `partition_frame` + `apply_partitioned` as the server does, and
/// times both calls per frame.
pub fn replay(
    agg: AggregatorConfig,
    writes: impl IntoIterator<Item = Write>,
) -> io::Result<Replay> {
    let mut r = Replay {
        aggregator: ShardedAggregator::new(agg),
        partition_us: Vec::new(),
        apply_us: Vec::new(),
    };
    let mut scratch = IngestScratch::new();
    for write in writes {
        match write {
            Write::Frame(frame) => {
                let t = Instant::now();
                r.aggregator
                    .partition_frame(&frame, &mut scratch)
                    .map_err(io_err)?;
                let t2 = Instant::now();
                r.aggregator.apply_partitioned(&mut scratch);
                r.partition_us.push((t2 - t).as_secs_f64() * 1e6);
                r.apply_us.push(t2.elapsed().as_secs_f64() * 1e6);
            }
            Write::Epoch => {
                r.aggregator.advance_epoch();
            }
        }
    }
    Ok(r)
}

/// A data directory recovered as a restarted daemon would.
pub struct Reopened {
    /// The recovered aggregator.
    pub aggregator: Arc<ShardedAggregator>,
    /// Seconds `ProfileStore::open` took.
    pub secs: f64,
    /// Whether recovery started from a checkpoint.
    pub from_checkpoint: bool,
}

/// Recovers `dir` into a fresh aggregator, as a restarted daemon
/// would. The store is closed again before returning.
pub fn reopen(dir: &Path, agg: AggregatorConfig) -> io::Result<Reopened> {
    let aggregator = Arc::new(ShardedAggregator::new(agg));
    let t = Instant::now();
    let store = ProfileStore::open(dir, Arc::clone(&aggregator), StoreConfig::default())?;
    let secs = t.elapsed().as_secs_f64();
    let from_checkpoint = store.recovery_report().checkpoint_epoch.is_some();
    drop(store);
    Ok(Reopened {
        aggregator,
        secs,
        from_checkpoint,
    })
}

/// Recovers `dir` `times` times; returns the median open seconds, and
/// the first recovery, whose aggregator the caller checks.
pub fn recovery(dir: &Path, agg: AggregatorConfig, times: usize) -> io::Result<(f64, Reopened)> {
    let first = reopen(dir, agg)?;
    let mut secs = vec![first.secs];
    for _ in 1..times {
        secs.push(reopen(dir, agg)?.secs);
    }
    Ok((median(&secs), first))
}

/// A fresh, empty data directory at `dir`.
pub fn fresh_dir(dir: &Path) -> io::Result<PathBuf> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    Ok(dir.to_path_buf())
}
