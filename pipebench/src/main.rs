//! The repository benchmark: one load generator that runs the
//! `cbs-profiled` daemon in-process over a durable store and drives it
//! through the public functions of each layer.
//!
//! ```text
//! cargo run --release --manifest-path pipebench/Cargo.toml -- \
//!     --workload <ingest|refresh|fleet-loop|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the host record, every correctness check, the workload's
//! named metrics, and as its last line one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits non-zero when a check fails. See `README.md`.

mod daemon;
mod fleet;
mod gen;
mod host;
mod ingest;
mod layers;
mod refresh;
mod stats;
mod trace;

use layers::{unit_of, Layers, END_TO_END};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["ingest", "refresh", "fleet-loop"];

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Scratch directory for data directories (inside the checkout).
    pub data: PathBuf,
}

impl RunConfig {
    /// The measured phases, `(traced, seconds)`: the whole run untraced,
    /// or for the traced run alternating untraced and traced quarters,
    /// whose difference is the tracing overhead.
    fn phases(&self) -> Vec<(bool, f64)> {
        if self.trace {
            [false, true, false, true]
                .map(|on| (on, self.seconds / 4.0))
                .to_vec()
        } else {
            vec![(false, self.seconds)]
        }
    }

    /// Runs `phase(seconds, traced)` over [`Self::phases`] and merges
    /// the results: the untraced tallies with their seconds and
    /// telemetry deltas, and the traced tallies with their spans and
    /// telemetry deltas.
    pub fn run_phases<T: Tally>(
        &self,
        mut phase: impl FnMut(f64, bool) -> std::io::Result<(T, Vec<trace::Span>)>,
    ) -> std::io::Result<Phases<T>> {
        let mut p = Phases::<T>::default();
        for (traced, secs) in self.phases() {
            let base = cbs_telemetry::global().snapshot();
            let start = std::time::Instant::now();
            let (tally, spans) = phase(secs, traced)?;
            let elapsed = start.elapsed().as_secs_f64();
            let delta = cbs_telemetry::global().delta_since(&base);
            if traced {
                p.traced.absorb(tally);
                p.spans.extend(spans);
                p.deltas.push(delta);
            } else {
                p.untraced.absorb(tally);
                p.untraced_s += elapsed;
                p.untraced_deltas.push(delta);
            }
        }
        Ok(p)
    }
}

/// Sets a workload up `times` times, tearing down all but the last
/// set-up; returns that one and the median set-up seconds.
pub fn timed_setups<S>(
    times: usize,
    mut set_up: impl FnMut() -> std::io::Result<S>,
    mut tear_down: impl FnMut(S) -> std::io::Result<()>,
) -> std::io::Result<(S, f64)> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        if let Some(state) = last.take() {
            tear_down(state)?;
        }
        let t = std::time::Instant::now();
        last = Some(set_up()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), stats::median(&secs)))
}

/// A workload's per-phase record, merged across phases.
pub trait Tally: Default {
    /// Folds another phase's record into this one.
    fn absorb(&mut self, other: Self);
    /// Durations of the workload's unit of work (ms).
    fn units_ms(&self) -> &[f64];
}

/// Merged phase results; see [`RunConfig::run_phases`].
#[derive(Debug, Default)]
pub struct Phases<T> {
    /// Untraced tallies.
    pub untraced: T,
    /// Seconds the untraced phases took.
    pub untraced_s: f64,
    /// Telemetry growth over each untraced phase: the daemon's own
    /// counts, free of the benchmark's in-process calls on traced units.
    pub untraced_deltas: Vec<cbs_telemetry::Snapshot>,
    /// Traced tallies.
    pub traced: T,
    /// Spans of the traced phases.
    pub spans: Vec<trace::Span>,
    /// Telemetry growth over each traced phase.
    pub deltas: Vec<cbs_telemetry::Snapshot>,
}

impl<T: Tally> Phases<T> {
    /// Mean traced unit time over mean untraced unit time, as a percent
    /// increase.
    pub fn overhead_pct(&self) -> f64 {
        let (on, off) = (
            stats::mean(self.traced.units_ms()),
            stats::mean(self.untraced.units_ms()),
        );
        100.0 * (on - off) / off
    }
}

/// One workload's results.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness checks, `(name, passed)`.
    pub checks: Vec<(String, bool)>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed, were refused, retried or reconnected.
    pub failed: u64,
    /// [`END_TO_END`] values, from the untraced phase.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// The workload's own named metrics, `(name, value, unit)`.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer values, from the traced phase.
    pub layers: Layers,
}

impl Outcome {
    /// Records a correctness check.
    pub fn check(&mut self, name: &str, passed: bool) {
        self.checks.push((name.to_owned(), passed));
    }

    /// Sets the [`END_TO_END`] metrics from the untraced phases: the
    /// median set-up time, the p50 and p90 of the workload's request
    /// latencies `op_ms` (failures as infinite), and `completed` requests
    /// per second of `run_s`. An untraced run also checks that the sample
    /// count supports a p90 (at least ten samples beyond it).
    pub fn set_end_to_end(
        &mut self,
        cfg: &RunConfig,
        setup_s: f64,
        op_ms: &[f64],
        completed: usize,
        run_s: f64,
    ) {
        if !cfg.trace {
            let n = op_ms.len();
            let tail = stats::tail_percentile(n);
            self.check(
                &format!("samples_support_p90 (n={n}, highest supported tail {tail:?})"),
                tail.is_some(),
            );
        }
        self.end_to_end = vec![
            ("setup_s", setup_s),
            ("op_p50_ms", stats::latency_ms(op_ms, 50.0, run_s)),
            ("op_p90_ms", stats::latency_ms(op_ms, 90.0, run_s)),
            ("ops_per_s", completed as f64 / run_s),
        ];
        debug_assert!(self
            .end_to_end
            .iter()
            .map(|(n, _)| *n)
            .eq(END_TO_END.map(|(n, _)| n)));
    }

    /// Failed over attempted requests.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?} or all, not {:?}",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Runs one workload and prints its report lines.
fn run_one(workload: &str, cfg: &RunConfig, host: &host::Host) -> std::io::Result<Outcome> {
    let out = match workload {
        "ingest" => ingest::run(cfg)?,
        "refresh" => refresh::run(cfg)?,
        "fleet-loop" => fleet::run(cfg)?,
        other => unreachable!("unchecked workload {other}"),
    };
    println!("host {}", host.to_json(cfg.seed, workload));
    for (name, ok) in &out.checks {
        println!(
            "check {workload} {name}: {}",
            if *ok { "ok" } else { "FAILED" }
        );
    }
    for (name, v, unit) in &out.named {
        println!("metric {workload} {name} = {v:.4} {unit}");
    }
    if cfg.trace {
        for (name, v) in out.layers.values() {
            println!("layer {workload} {name} = {v:.4} {}", unit_of(name));
        }
    }
    println!(
        "attempted {workload} {} failed {} error_rate {:.6}",
        out.attempted,
        out.failed,
        out.error_rate()
    );
    Ok(out)
}

/// The result object: end-to-end metrics untraced, per-layer traced.
fn result_json(outs: &[(&str, Outcome)], trace: bool) -> String {
    let prefix = outs.len() > 1;
    let mut metrics = Vec::new();
    for (workload, out) in outs {
        let values: Vec<(&str, f64)> = if trace {
            out.layers.values()
        } else {
            out.end_to_end.clone()
        };
        for (name, v) in values {
            let key = if prefix {
                format!("{workload}.{name}")
            } else {
                name.to_owned()
            };
            metrics.push(format!(
                "\"{key}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_num(v),
                unit_of(name)
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outs.iter().all(|(_, o)| o.correct()),
        outs.iter().map(|(_, o)| o.attempted).sum::<u64>(),
        outs.iter().map(|(_, o)| o.failed).sum::<u64>(),
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}");
            return ExitCode::from(2);
        }
    };
    let data = PathBuf::from(".pipebench_data").join(std::process::id().to_string());
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        data: data.clone(),
    };
    let result = (|| -> std::io::Result<Vec<(&str, Outcome)>> {
        std::fs::create_dir_all(&data)?;
        let host = host::Host::probe(&data)?;
        let workloads: Vec<&str> = if args.workload == "all" {
            WORKLOADS.to_vec()
        } else {
            WORKLOADS
                .into_iter()
                .filter(|w| *w == args.workload)
                .collect()
        };
        workloads
            .into_iter()
            .map(|w| Ok((w, run_one(w, &cfg, &host)?)))
            .collect()
    })();
    let _ = std::fs::remove_dir_all(&data);
    let _ = std::fs::remove_dir(".pipebench_data");
    match result {
        Ok(outs) => {
            println!("{}", result_json(&outs, args.trace));
            if outs.iter().all(|(_, o)| o.correct()) {
                ExitCode::SUCCESS
            } else {
                eprintln!("pipebench: a correctness check failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("pipebench: {e}");
            ExitCode::from(2)
        }
    }
}
