//! Profile-ingestion throughput: edge records per wall-second through
//! the binary codec and the sharded aggregator.
//!
//! A synthetic 50k-edge call graph (deterministic SplitMix64 ids and
//! integral weights, shaped like a real CBS profile: dense low method
//! ids, a long cold tail) is cut into 64 delta frames. The bench
//! measures
//!
//! * `codec/encode` and `codec/decode` — the wire format alone;
//! * `aggregate/shards=N/streaming` — one thread ingesting every frame
//!   into an aggregator with N ∈ {1, 4, 8} shards through the one ingest
//!   path: encoded frames fold straight into the shards via
//!   `ingest_frame_bytes` with a pooled partition scratch;
//! * `aggregate/shards=N/threads=4` — the same path driven by four
//!   pusher threads splitting the frames, one scratch each, where shard
//!   count governs lock contention;
//! * `pull/rebuild` — a merged-snapshot pull whose cache was just
//!   invalidated (epoch advance), i.e. the full lock-merge-encode cost;
//! * `plan/rebuild` — the fleet plan (`encoded_plan`) after a one-record
//!   push invalidated both caches: merge, snapshot encode and plan build;
//! * `pull/cached` — the same pull against a warm generation-stamped
//!   cache (the repeated-pull fast path, O(1) per request);
//! * `wal/append` — the durable-store write path (4 shards, WAL append
//!   then apply, fsync off — the async-fsync configuration whose cost
//!   must stay within 2× of `aggregate/shards=4/streaming`);
//! * `wal/append_concurrent` — four pusher threads through one
//!   `fsync always` store: concurrent acks share group-commit syncs;
//! * `wal/append_single_lock` — the identical workload and store
//!   configuration serialized behind one external lock, so every push
//!   convoys and syncs a batch of one: the monolithic-lock write path
//!   this store replaced, the baseline the concurrent configuration
//!   must beat (gated in `scripts/verify.sh`);
//! * `recovery/replay` — `ProfileStore::open` replaying the 64-frame
//!   WAL into a fresh aggregator.
//!
//! Emits `BENCH_ingest.json` at the repo root (skipped in smoke mode,
//! like every other bench artifact).

use cbs_bench::{smoke_mode, BenchGroup, BenchResult};
use cbs_core::bytecode::{CallSiteId, MethodId};
use cbs_core::dcg::CallEdge;
use cbs_core::profiled::{
    AggregatorConfig, DcgCodec, IngestScratch, ProfileJournal, ShardedAggregator,
};
use cbs_core::store::{FsyncPolicy, GroupCommitConfig, ProfileStore, StoreConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const EDGES: usize = 50_000;
const FRAMES: usize = 64;
const PUSHERS: usize = 4;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic profile-shaped record stream: most callers in a hot
/// core, weights on the codec's integral fast path.
fn synthetic_records() -> Vec<(CallEdge, f64)> {
    let mut state = 0xC0FFEE;
    (0..EDGES)
        .map(|_| {
            let r = splitmix(&mut state);
            let caller = if r % 8 < 7 {
                (r >> 3) % 512
            } else {
                (r >> 3) % 100_000
            } as u32;
            let site = ((r >> 24) % 16) as u32;
            let callee = ((r >> 32) % 4096) as u32;
            let weight = (1 + (r >> 48) % 1000) as f64;
            (
                CallEdge::new(
                    MethodId::new(caller),
                    CallSiteId::new(site),
                    MethodId::new(callee),
                ),
                weight,
            )
        })
        .collect()
}

/// A unique scratch directory per call (the workspace has no tempfile
/// dependency); callers remove it when done.
fn scratch_dir(label: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("cbs-bench-{label}-{}-{n}", std::process::id()))
}

/// Records-per-second at the median iteration time.
fn rate(records: usize, r: &BenchResult) -> f64 {
    records as f64 / r.median().as_secs_f64()
}

fn json_entry(name: &str, records: usize, r: &BenchResult) -> String {
    format!(
        "    {{ \"config\": \"{name}\", \"median_ns\": {}, \"records_per_sec\": {:.1} }}",
        r.median().as_nanos(),
        rate(records, r)
    )
}

fn main() {
    let records = synthetic_records();
    let frames: Vec<Vec<u8>> = records
        .chunks(records.len().div_ceil(FRAMES))
        .map(DcgCodec::encode_delta)
        .collect();
    let wire_bytes: usize = frames.iter().map(Vec::len).sum();
    eprintln!(
        "profile_ingest: {EDGES} records, {FRAMES} frames, {wire_bytes} wire bytes \
         ({:.2} B/record)",
        wire_bytes as f64 / EDGES as f64
    );

    let mut group = BenchGroup::new("profile_ingest", 20);
    let mut entries = Vec::new();

    let encode = group
        .bench("codec/encode", || {
            records
                .chunks(records.len().div_ceil(FRAMES))
                .map(DcgCodec::encode_delta)
                .map(|f| f.len())
                .sum::<usize>()
        })
        .clone();
    entries.push(json_entry("codec/encode", EDGES, &encode));
    let decode = group
        .bench("codec/decode", || {
            frames
                .iter()
                .map(|f| DcgCodec::decode(f).expect("valid").edges.len())
                .sum::<usize>()
        })
        .clone();
    entries.push(json_entry("codec/decode", EDGES, &decode));

    for shards in [1usize, 4, 8] {
        let streaming = group
            .bench(&format!("aggregate/shards={shards}/streaming"), || {
                let agg = ShardedAggregator::new(AggregatorConfig::with_shards(shards));
                let mut scratch = IngestScratch::new();
                for frame in &frames {
                    agg.ingest_frame_bytes(frame, &mut scratch)
                        .expect("own encoding ingests");
                }
                agg.stats().records
            })
            .clone();
        entries.push(json_entry(
            &format!("aggregate/shards={shards}/streaming"),
            EDGES,
            &streaming,
        ));

        let threaded = group
            .bench(
                &format!("aggregate/shards={shards}/threads={PUSHERS}"),
                || {
                    let agg = ShardedAggregator::new(AggregatorConfig::with_shards(shards));
                    std::thread::scope(|scope| {
                        let agg = &agg;
                        for chunk in frames.chunks(frames.len().div_ceil(PUSHERS)) {
                            scope.spawn(move || {
                                let mut scratch = IngestScratch::new();
                                for frame in chunk {
                                    agg.ingest_frame_bytes(frame, &mut scratch)
                                        .expect("own encoding ingests");
                                }
                            });
                        }
                    });
                    agg.stats().records
                },
            )
            .clone();
        entries.push(json_entry(
            &format!("aggregate/shards={shards}/threads={PUSHERS}"),
            EDGES,
            &threaded,
        ));
    }

    // Pull-side costs against a fully loaded 8-shard aggregator:
    // `pull/rebuild` pays the lock-merge-encode path every iteration
    // (decay is 1.0, so the epoch advance changes no weight — it only
    // invalidates the cache); `plan/rebuild` is an `OP_PLAN` after a
    // one-record push, which pays that path plus the plan build;
    // `pull/cached` measures the steady-state hit path repeated pulls
    // ride.
    let loaded = ShardedAggregator::new(AggregatorConfig::with_shards(8));
    {
        let mut scratch = IngestScratch::new();
        for frame in &frames {
            loaded
                .ingest_frame_bytes(frame, &mut scratch)
                .expect("own encoding ingests");
        }
    }
    let snapshot_edges = loaded.merged_snapshot().num_edges();
    let rebuild = group
        .bench("pull/rebuild", || {
            loaded.advance_epoch();
            loaded.encoded_snapshot().len()
        })
        .clone();
    entries.push(json_entry("pull/rebuild", snapshot_edges, &rebuild));
    let bump = DcgCodec::encode_delta(&records[..1]);
    let mut bump_scratch = IngestScratch::new();
    let plan_rebuild = group
        .bench("plan/rebuild", || {
            loaded
                .ingest_frame_bytes(&bump, &mut bump_scratch)
                .expect("own encoding ingests");
            loaded.encoded_plan().len()
        })
        .clone();
    entries.push(json_entry("plan/rebuild", snapshot_edges, &plan_rebuild));
    let cached = group
        .bench("pull/cached", || loaded.encoded_snapshot().len())
        .clone();
    entries.push(json_entry("pull/cached", snapshot_edges, &cached));

    // Durable-store write path: same frames, same 4-shard aggregator as
    // aggregate/shards=4/streaming, plus a WAL append per frame with
    // fsync off (the async-durability configuration). Checkpointing is
    // disabled so the measurement is the steady-state append+apply cost.
    let store_config = StoreConfig {
        fsync: FsyncPolicy::Never,
        checkpoint_every: 0,
        ..StoreConfig::default()
    };
    let wal_append = group
        .bench("wal/append", || {
            let dir = scratch_dir("wal-append");
            let agg = Arc::new(ShardedAggregator::new(AggregatorConfig::with_shards(4)));
            let store = ProfileStore::open(&dir, agg, store_config.clone()).expect("open store");
            let mut scratch = IngestScratch::new();
            for frame in &frames {
                store
                    .ingest_frame(frame, &mut scratch)
                    .expect("own encoding ingests");
            }
            let records = store.aggregator().stats().records;
            drop(store);
            std::fs::remove_dir_all(&dir).expect("remove scratch dir");
            records
        })
        .clone();
    entries.push(json_entry("wal/append", EDGES, &wal_append));

    // Concurrent durable ingest: the group-commit gate. The records are
    // re-cut into 1024 small frames (per-ack fsync dominates, as in a
    // fleet where pushes are small next to the sync), pushed by four
    // threads through one `fsync always` store. The baseline runs the
    // identical workload and store configuration serialized behind one
    // external lock, so every push convoys and syncs alone — the
    // monolithic-lock write path this store replaced.
    let durable_frames: Vec<Vec<u8>> = records
        .chunks(records.len().div_ceil(16 * FRAMES))
        .map(DcgCodec::encode_delta)
        .collect();
    let concurrent = group
        .bench("wal/append_concurrent", || {
            let dir = scratch_dir("wal-conc");
            let agg = Arc::new(ShardedAggregator::new(AggregatorConfig::with_shards(4)));
            let store = ProfileStore::open(
                &dir,
                agg,
                StoreConfig {
                    fsync: FsyncPolicy::Always,
                    // Hold each sync open briefly for the other pushers
                    // (`--group-commit 4,200` in profiled terms): close
                    // the batch as soon as all four are aboard.
                    group_commit: GroupCommitConfig {
                        max_batch: PUSHERS as u64,
                        max_wait: Duration::from_micros(200),
                    },
                    checkpoint_every: 0,
                    ..StoreConfig::default()
                },
            )
            .expect("open store");
            std::thread::scope(|scope| {
                let store = &store;
                for chunk in durable_frames.chunks(durable_frames.len().div_ceil(PUSHERS)) {
                    scope.spawn(move || {
                        let mut scratch = IngestScratch::new();
                        for frame in chunk {
                            store.ingest_frame(frame, &mut scratch).expect("ingests");
                        }
                    });
                }
            });
            let records = store.aggregator().stats().records;
            drop(store);
            std::fs::remove_dir_all(&dir).expect("remove scratch dir");
            records
        })
        .clone();
    entries.push(json_entry("wal/append_concurrent", EDGES, &concurrent));

    let single_lock = group
        .bench("wal/append_single_lock", || {
            let dir = scratch_dir("wal-lock");
            let agg = Arc::new(ShardedAggregator::new(AggregatorConfig::with_shards(4)));
            let store = ProfileStore::open(
                &dir,
                agg,
                StoreConfig {
                    fsync: FsyncPolicy::Always,
                    checkpoint_every: 0,
                    ..StoreConfig::default()
                },
            )
            .expect("open store");
            let big_lock = std::sync::Mutex::new(());
            std::thread::scope(|scope| {
                let store = &store;
                let big_lock = &big_lock;
                for chunk in durable_frames.chunks(durable_frames.len().div_ceil(PUSHERS)) {
                    scope.spawn(move || {
                        let mut scratch = IngestScratch::new();
                        for frame in chunk {
                            // The external lock serializes the whole
                            // op, so each push reaches the committer
                            // alone and syncs a batch of one.
                            let _guard = big_lock.lock().expect("no poison");
                            store.ingest_frame(frame, &mut scratch).expect("ingests");
                        }
                    });
                }
            });
            let records = store.aggregator().stats().records;
            drop(store);
            std::fs::remove_dir_all(&dir).expect("remove scratch dir");
            records
        })
        .clone();
    entries.push(json_entry("wal/append_single_lock", EDGES, &single_lock));

    // Recovery: open a directory whose WAL already holds every frame
    // and replay it into a fresh aggregator. (Each open leaves one
    // empty segment behind; scanning those headers is negligible next
    // to the replay itself.)
    let replay_dir = scratch_dir("recovery-replay");
    {
        let agg = Arc::new(ShardedAggregator::new(AggregatorConfig::with_shards(4)));
        let store = ProfileStore::open(&replay_dir, agg, store_config.clone()).expect("open store");
        let mut scratch = IngestScratch::new();
        for frame in &frames {
            store
                .ingest_frame(frame, &mut scratch)
                .expect("own encoding ingests");
        }
    }
    let replay = group
        .bench("recovery/replay", || {
            let agg = Arc::new(ShardedAggregator::new(AggregatorConfig::with_shards(4)));
            let store =
                ProfileStore::open(&replay_dir, agg, store_config.clone()).expect("recovery opens");
            assert_eq!(
                store.recovery_report().replayed_frames,
                FRAMES as u64,
                "every frame replays"
            );
            store.aggregator().stats().records
        })
        .clone();
    entries.push(json_entry("recovery/replay", EDGES, &replay));
    std::fs::remove_dir_all(&replay_dir).expect("remove scratch dir");

    if smoke_mode() {
        eprintln!("profile_ingest: smoke mode, skipping BENCH_ingest.json");
        return;
    }
    let json = format!(
        "{{\n  \"bench\": \"profile_ingest\",\n  \"records\": {EDGES},\n  \"frames\": {FRAMES},\n  \
         \"wire_bytes\": {wire_bytes},\n  \"configs\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json");
    std::fs::write(path, json).expect("write BENCH_ingest.json");
    eprintln!("profile_ingest: wrote BENCH_ingest.json");
}
