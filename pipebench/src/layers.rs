//! The metric tables and the per-layer figures shared by every
//! workload: span statistics plus deltas of the daemon's telemetry.

use crate::stats::{median, percentile};
use crate::trace::{durations_us, self_times, total_s};
use crate::{Phases, Tally};
use cbs_profiled::DcgCodec;
use cbs_telemetry::Snapshot;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// End-to-end metrics, `(name, unit)`. Every workload reports all of
/// them, from an untraced run; `op` is the workload's request (see the
/// README).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics, `(name, unit)`, from the traced run. A layer a
/// workload does not call reports 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("workloads.build_s", "s"),
    ("vm.run_s", "s"),
    ("vm.sim_mcycles_per_s", "Mcycles/s"),
    ("profiler.samples", "count"),
    ("profiler.overhead_cycles", "count"),
    ("dcg.drain_delta_ms", "ms"),
    ("codec.encode_delta_us", "us"),
    ("codec.bytes_per_record", "B"),
    ("codec.decode_snapshot_ms", "ms"),
    ("client.push_p50_us", "us"),
    ("client.push_p90_us", "us"),
    ("client.push_p99_us", "us"),
    ("server.handler_us", "us"),
    ("wire.push_us", "us"),
    ("client.pull_plan_ms", "ms"),
    ("client.pull_ms", "ms"),
    ("store.ingest_us", "us"),
    ("store.acks_per_sync", "ratio"),
    ("store.wal_bytes_per_wire_byte", "ratio"),
    ("store.checkpoints_per_kframe", "1/kframe"),
    ("store.open_s", "s"),
    ("agg.partition_us", "us"),
    ("agg.apply_us", "us"),
    ("agg.snapshot_ms", "ms"),
    ("agg.cache_hits_per_unit", "1/unit"),
    ("agg.cache_misses_per_unit", "1/unit"),
    ("agg.edges", "count"),
    ("plan.build_ms", "ms"),
    ("plan.entries", "count"),
    ("plan.cache_misses_per_unit", "1/unit"),
    ("adaptive.apply_ms", "ms"),
    ("adaptive.inlines", "count"),
    ("adaptive.run_s", "s"),
    ("daemon.start_ms", "ms"),
    ("daemon.stop_ms", "ms"),
    ("share.store_wire_pct", "%"),
    ("share.store_pct", "%"),
    ("share.snapshot_plan_pct", "%"),
    ("share.vm_adaptive_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.tiling_gap_pct", "%"),
];

/// The unit of `name` in either table.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or_else(|| panic!("unknown metric {name}"), |(_, u)| *u)
}

/// Per-layer values, every name present from the start at 0.
#[derive(Debug, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Self(PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect())
    }
}

impl Layers {
    /// Sets one value; a non-finite value (no samples) stays 0.
    ///
    /// # Panics
    ///
    /// On a name outside [`PER_LAYER`] — a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        // `+ 0.0` turns an empty float sum's -0.0 into 0.
        *slot = if value.is_finite() { value + 0.0 } else { 0.0 };
    }

    /// One value.
    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    /// Values in [`PER_LAYER`] order.
    pub fn values(&self) -> Vec<(&'static str, f64)> {
        PER_LAYER.iter().map(|&(n, _)| (n, self.0[n])).collect()
    }

    /// Sets `codec.decode_snapshot_ms`: the median of five decodes of
    /// `snapshot`, the bytes a full pull decodes.
    pub fn set_decode(&mut self, snapshot: &[u8]) {
        let ms: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(
                    DcgCodec::decode_snapshot(snapshot).expect("snapshot decodes"),
                );
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        self.set("codec.decode_snapshot_ms", median(&ms));
    }

    /// Fills the figures every workload measures the same way: client,
    /// codec, store and wire spans, snapshot and plan spans, layer
    /// shares of the `unit` spans, the tiling gap left by `containers`
    /// (spans that only group stage spans), the telemetry growth over
    /// the traced phases, and the cache counts per unit of work of the
    /// untraced phases.
    pub fn fill_common<T: Tally>(&mut self, ph: &Phases<T>, unit: &str, containers: &[&str]) {
        let spans = &ph.spans;
        let med = |name| median(&durations_us(spans, name));
        let push = durations_us(spans, "client.push");
        self.set("client.push_p50_us", percentile(&push, 50.0));
        self.set("client.push_p90_us", percentile(&push, 90.0));
        self.set("client.push_p99_us", percentile(&push, 99.0));
        self.set("codec.encode_delta_us", med("codec.encode_delta"));
        self.set("store.ingest_us", med("store.ingest"));
        self.set("client.pull_plan_ms", med("client.pull_plan") / 1e3);
        self.set("client.pull_ms", med("client.pull") / 1e3);
        self.set("agg.snapshot_ms", med("agg.snapshot") / 1e3);
        self.set("plan.build_ms", med("plan.build") / 1e3);
        self.set("daemon.start_ms", med("daemon.start") / 1e3);
        self.set("daemon.stop_ms", med("daemon.stop") / 1e3);

        // Wire time of one push: what the client waited minus what the
        // store took for the same request.
        let store: HashMap<u64, u64> = spans
            .iter()
            .filter(|s| s.name == "store.ingest" && s.req != 0)
            .map(|s| (s.req, s.dur()))
            .collect();
        let wire: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "client.push")
            .filter_map(|s| {
                store
                    .get(&s.req)
                    .map(|&st| (s.dur() as f64 - st as f64) / 1e3)
            })
            .collect();
        self.set("wire.push_us", median(&wire));

        let unit_s = total_s(spans, unit);
        let share =
            |names: &[&str]| 100.0 * names.iter().map(|n| total_s(spans, n)).sum::<f64>() / unit_s;
        self.set(
            "share.store_wire_pct",
            share(&["client.push", "client.epoch"]),
        );
        self.set("share.store_pct", share(&["store.ingest", "store.epoch"]));
        self.set(
            "share.snapshot_plan_pct",
            share(&["agg.snapshot", "plan.build"]),
        );
        self.set(
            "share.vm_adaptive_pct",
            share(&["vm.run", "adaptive.apply", "adaptive.run"]),
        );
        let selfs = self_times(spans);
        let gap: u64 = spans
            .iter()
            .filter(|s| containers.contains(&s.name))
            .map(|s| selfs[&s.id])
            .sum();
        self.set("trace.tiling_gap_pct", 100.0 * gap as f64 / 1e9 / unit_s);

        let counter = |name| sum_counter(&ph.deltas, name);
        let histogram = |name| {
            ph.deltas.iter().fold((0.0, 0.0), |(n, sum), d| {
                let (dn, dsum) = d.histogram(name);
                (n + dn as f64, sum + dsum as f64)
            })
        };
        let (handled, handler_us) = histogram("profiled.server.handler_latency_us");
        self.set("server.handler_us", handler_us / handled);
        let appends = counter("store.wal.appends");
        self.set(
            "store.acks_per_sync",
            appends / counter("store.wal.group_commits"),
        );
        let (_, wire_in) = histogram("profiled.server.frame_bytes_in");
        self.set(
            "store.wal_bytes_per_wire_byte",
            counter("store.wal.bytes") / wire_in,
        );
        self.set(
            "store.checkpoints_per_kframe",
            1e3 * counter("store.checkpoints") / appends,
        );
        self.set(
            "codec.bytes_per_record",
            wire_in / counter("profiled.agg.records"),
        );

        // On traced units the benchmark itself calls the served
        // aggregator's caches, so these come from the untraced phases.
        let units = ph.untraced.units_ms().len() as f64;
        let per_unit = |name| sum_counter(&ph.untraced_deltas, name) / units;
        self.set(
            "agg.cache_hits_per_unit",
            per_unit("profiled.agg.cache_hits"),
        );
        self.set(
            "agg.cache_misses_per_unit",
            per_unit("profiled.agg.cache_misses"),
        );
        self.set(
            "plan.cache_misses_per_unit",
            per_unit("profiled.plan.cache_misses"),
        );
    }
}

/// A counter's growth summed over `deltas`.
fn sum_counter(deltas: &[Snapshot], name: &str) -> f64 {
    deltas.iter().map(|d| d.counter(name)).sum::<u64>() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for n in &names {
            assert!(n.len() <= 64);
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let len = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), len);
    }

    #[test]
    fn unset_layers_read_zero_and_nan_stays_zero() {
        let mut l = Layers::default();
        l.set("vm.run_s", f64::NAN);
        assert!(l.values().iter().all(|&(_, v)| v == 0.0));
        l.set("vm.run_s", 1.5);
        assert_eq!(unit_of("vm.run_s"), "s");
        assert!(l.values().contains(&("vm.run_s", 1.5)));
    }
}
