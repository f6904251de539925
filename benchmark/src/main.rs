//! Outside-in benchmark of the causal GGD cluster.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload heap_churn --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints every metric by name with its unit, then, as the last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones. Exits
//! non-zero when any correctness check fails. See `README.md`.

mod alloc;
mod drive;
mod inputs;
mod probe;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use drive::{Counted, Rep, Workload};
use trace::Layer;

/// Counts allocations and live bytes for `peak_live_mb` and `alloc.*`.
#[global_allocator]
pub static ALLOC: alloc::Counting = alloc::Counting::new();

/// End-to-end metrics (tracing off), with their units.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("mutator_ops_per_s", "ops/s"),
    ("op_us_p50", "us"),
    ("op_us_p99", "us"),
    ("settle_ms_p50", "ms"),
    ("settle_ms_p90", "ms"),
    ("reclaim_lag_settles_p50", "settles"),
    ("reclaim_lag_settles_p90", "settles"),
    ("control_bytes_per_reclaimed", "B/object"),
    ("control_msgs_per_reclaimed", "msgs/object"),
    ("reclaimed_share", "ratio"),
    ("peak_live_mb", "MiB"),
];

/// Per-layer metrics (traced run), with their units.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("trace.overhead", "ratio"),
    ("trace.run_ms", "ms"),
    ("sim.settle.self_ms", "ms"),
    ("sim.settle.self_share", "ratio"),
    ("sim.execute.self_ms", "ms"),
    ("heap.collections", "count"),
    ("heap.freed", "count"),
    ("heap.freed_per_collection", "ratio"),
    ("causal.delta_edges", "count"),
    ("causal.on_message.calls", "count"),
    ("causal.on_message.busy_ms", "ms"),
    ("causal.on_message.share", "ratio"),
    ("causal.apply_delta.calls", "count"),
    ("causal.apply_delta.busy_ms", "ms"),
    ("causal.hooks.busy_ms", "ms"),
    ("causal.verdicts", "count"),
    ("causal.verdicts_per_msg", "ratio"),
    ("net.send.busy_ms", "ms"),
    ("net.poll.busy_ms", "ms"),
    ("net.control_msgs", "count"),
    ("net.control_bytes", "B"),
    ("net.mutator_bytes", "B"),
    ("net.peak_pending", "count"),
    ("store.records_appended", "count"),
    ("store.wal_bytes", "B"),
    ("store.wal_bytes_per_op", "B/op"),
    ("store.checkpoints", "count"),
    ("store.records_replayed", "count"),
    ("store.recover.busy_ms", "ms"),
    ("causal.checkpoint_state.busy_ms", "ms"),
    ("causal.restore_state.busy_ms", "ms"),
    ("recovery_s", "s"),
    ("recover_ms_p50", "ms"),
    ("residual_share", "ratio"),
    ("parallel.run_ms", "ms"),
    ("parallel.causal_busy_ms_per_worker", "ms"),
    ("parallel.peak_queued_bytes", "B"),
    ("parallel.control_bytes", "B"),
    ("parallel.workers", "count"),
    ("alloc.per_op", "count/op"),
    ("alloc.bytes_per_op", "B/op"),
    ("alloc.peak_live_mb", "MiB"),
    ("trace.step_spans", "count"),
];

const USAGE: &str = "usage: ggd-outside-bench --workload <heap_churn|cross_site_cycles|\
durable_restart|parallel_churn> --seed <n> --seconds <n> --trace <0|1>";

/// Timed repetitions every run makes at least (untraced; traced runs add
/// as many traced ones), so medians never rest on a single sample.
const MIN_REPS: usize = 3;

/// Timed sequential runs that give `parallel_churn` its per-step latencies.
const TWIN_REPS: usize = 2;

#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// How the value was obtained (sample count), for the human output.
    note: String,
}

/// What one run produced.
#[derive(Debug, Default)]
struct RunResult {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Spans of the last traced repetition.
    spans: Option<Vec<trace::Span>>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Collects metrics, checking each value is a finite number and each
/// percentile has enough samples.
struct Sheet<'a> {
    units: &'a [(&'static str, &'static str)],
    metrics: Vec<Metric>,
    errors: Vec<String>,
}

impl Sheet<'_> {
    fn put(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        let unit = self
            .units
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .expect("metric is declared");
        if !value.is_finite() {
            self.errors.push(format!("{name} is not a finite number"));
        }
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note: note.into(),
        });
    }

    fn percentile(&mut self, name: &'static str, samples: &[f64], per_mille: u32) {
        let mut sorted = samples.to_vec();
        match stats::percentile(&mut sorted, per_mille) {
            Ok(v) => {
                let top = stats::highest_percentile(samples.len()).unwrap_or(0);
                let note = format!(
                    "n={}, supports up to p{}",
                    samples.len(),
                    f64::from(top) / 10.0
                );
                self.put(name, v, note);
            }
            Err(e) => {
                self.errors.push(format!("{name}: {e}"));
                self.put(name, 0.0, format!("n={}", samples.len()));
            }
        }
    }
}

fn median_of(reps: &[&Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    let values: Vec<f64> = reps.iter().map(|r| f(r)).collect();
    stats::median(&values)
}

fn pooled(reps: &[&Rep], f: impl Fn(&Rep) -> &[f64]) -> Vec<f64> {
    reps.iter().flat_map(|r| f(r).iter().copied()).collect()
}

fn ops_per_s(rep: &Rep) -> f64 {
    rep.ops as f64 / rep.measured_s
}

/// Runs a workload for about `seconds` of timed repetitions. `tiny` shrinks
/// the inputs (tests only).
fn run(args: &Args, tiny: bool) -> RunResult {
    let mut out = RunResult::default();
    let workload = args.workload;
    let counted = match drive::counting_pass(workload, args.seed, tiny) {
        Ok(c) => c,
        Err(e) => {
            out.errors.push(format!("counting pass: {e}"));
            return out;
        }
    };
    // `ParallelCluster` has no per-step entry points: its per-op and
    // per-settle latencies come from timed sequential runs of the same
    // inputs, which must reproduce the counting pass exactly.
    let mut twins = Vec::new();
    if workload == Workload::ParallelChurn {
        for _ in 0..TWIN_REPS {
            match drive::sequential_rep(workload, args.seed, tiny, false) {
                Ok(rep) if rep.outcome == Some(counted.outcome) => twins.push(rep),
                Ok(_) => {
                    out.errors
                        .push("sequential twin differs from the counting pass".to_owned());
                    return out;
                }
                Err(e) => {
                    out.errors.push(format!("sequential twin: {e}"));
                    return out;
                }
            }
        }
    }

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut reps: Vec<Rep> = Vec::new();
    let mut untraced = 0;
    let mut traced = 0;
    while untraced < MIN_REPS || (args.trace && traced < MIN_REPS) || Instant::now() < deadline {
        // Traced runs alternate untraced and traced repetitions, so the
        // overhead ratio compares neighbours.
        let tracing = args.trace && untraced > traced;
        let result = if workload == Workload::ParallelChurn {
            drive::parallel_rep(args.seed, tiny, tracing, &counted)
        } else {
            drive::sequential_rep(workload, args.seed, tiny, tracing).and_then(|rep| {
                if rep.outcome == Some(counted.outcome) {
                    Ok(rep)
                } else {
                    Err(format!(
                        "repetition outcome {:?} differs from the counting pass {:?}",
                        rep.outcome, counted.outcome
                    ))
                }
            })
        };
        match result {
            Ok(rep) => {
                out.attempted += rep.ops;
                if let Some(t) = &rep.trace {
                    if let Err(e) = trace::check_step_accounting(&t.spans) {
                        out.errors.push(e);
                    }
                }
                if tracing {
                    traced += 1;
                } else {
                    untraced += 1;
                }
                reps.push(rep);
            }
            Err(e) => {
                out.failed += 1;
                out.attempted += 1;
                out.errors.push(e);
                return out;
            }
        }
    }

    let plain: Vec<&Rep> = reps.iter().filter(|r| r.trace.is_none()).collect();
    let traced_reps: Vec<&Rep> = reps.iter().filter(|r| r.trace.is_some()).collect();
    let latency_reps: Vec<&Rep> = if twins.is_empty() {
        plain.clone()
    } else {
        twins.iter().collect()
    };
    let mut sheet = Sheet {
        units: if args.trace { &PER_LAYER } else { &END_TO_END },
        metrics: Vec::new(),
        errors: Vec::new(),
    };
    if args.trace {
        per_layer(&mut sheet, &plain, &traced_reps, &counted);
        out.spans = traced_reps
            .last()
            .and_then(|r| r.trace.as_ref())
            .map(|t| t.spans.clone());
    } else {
        end_to_end(&mut sheet, &plain, &latency_reps, &counted);
    }
    out.metrics = sheet.metrics;
    out.errors.extend(sheet.errors);
    out
}

fn end_to_end(sheet: &mut Sheet, plain: &[&Rep], latency: &[&Rep], counted: &Counted) {
    let n = format!("median of {}", plain.len());
    sheet.put("setup_s", median_of(plain, |r| r.setup_s), n.clone());
    sheet.put("mutator_ops_per_s", median_of(plain, ops_per_s), n.clone());
    let op_us = pooled(latency, |r| &r.op_us);
    sheet.percentile("op_us_p50", &op_us, 500);
    sheet.percentile("op_us_p99", &op_us, 990);
    let settle_ms = pooled(latency, |r| &r.settle_ms);
    sheet.percentile("settle_ms_p50", &settle_ms, 500);
    sheet.percentile("settle_ms_p90", &settle_ms, 900);
    sheet.percentile("reclaim_lag_settles_p50", &counted.lags, 500);
    sheet.percentile("reclaim_lag_settles_p90", &counted.lags, 900);
    let reclaimed = counted.reclaimed as f64;
    let exact = format!("exact, {} reclaimed", counted.reclaimed);
    sheet.put(
        "control_bytes_per_reclaimed",
        ratio(counted.wire.control_bytes as f64, reclaimed),
        exact.clone(),
    );
    sheet.put(
        "control_msgs_per_reclaimed",
        ratio(counted.wire.control_msgs as f64, reclaimed),
        exact,
    );
    let o = counted.outcome;
    sheet.put(
        "reclaimed_share",
        ratio(o.reclaimed as f64, (o.reclaimed + o.residual) as f64),
        format!("{} reclaimed, {} residual", o.reclaimed, o.residual),
    );
    sheet.put(
        "peak_live_mb",
        median_of(plain, |r| r.peak_live as f64) / f64::from(1 << 20),
        n,
    );
}

fn per_layer(sheet: &mut Sheet, plain: &[&Rep], traced: &[&Rep], counted: &Counted) {
    let n = format!("median of {} traced", traced.len());
    let totals: Vec<[trace::LayerTotals; 11]> = traced
        .iter()
        .map(|r| trace::totals(&r.trace.as_ref().expect("traced").spans))
        .collect();
    let layer_median = |layer: Layer, f: fn(trace::LayerTotals) -> f64| {
        let values: Vec<f64> = totals.iter().map(|t| f(trace::layer(t, layer))).collect();
        stats::median(&values)
    };
    let busy = |t: trace::LayerTotals| ms(t.busy_ns);
    let own = |t: trace::LayerTotals| ms(t.self_ns);
    let calls = |t: trace::LayerTotals| t.calls as f64;
    let run_ms = layer_median(Layer::Workload, busy);
    let first = traced[0].trace.as_ref().expect("traced");
    let base = plain[0];

    sheet.put(
        "trace.overhead",
        ratio(median_of(traced, ops_per_s), median_of(plain, ops_per_s)),
        "traced / untraced mutator_ops_per_s",
    );
    sheet.put("trace.run_ms", run_ms, n.clone());
    let settle_self = layer_median(Layer::SimSettle, own);
    sheet.put("sim.settle.self_ms", settle_self, n.clone());
    sheet.put("sim.settle.self_share", ratio(settle_self, run_ms), "");
    sheet.put(
        "sim.execute.self_ms",
        layer_median(Layer::SimExecute, own),
        n.clone(),
    );
    let (collections, freed) = base.heap;
    sheet.put("heap.collections", collections as f64, "");
    sheet.put("heap.freed", freed as f64, "");
    sheet.put(
        "heap.freed_per_collection",
        ratio(freed as f64, collections as f64),
        "",
    );
    sheet.put("causal.delta_edges", first.delta_edges as f64, "");
    let messages = layer_median(Layer::CausalOnMessage, calls);
    sheet.put("causal.on_message.calls", messages, "");
    let on_message = layer_median(Layer::CausalOnMessage, busy);
    sheet.put("causal.on_message.busy_ms", on_message, n.clone());
    sheet.put("causal.on_message.share", ratio(on_message, run_ms), "");
    sheet.put(
        "causal.apply_delta.calls",
        layer_median(Layer::CausalApplyDelta, calls),
        "",
    );
    sheet.put(
        "causal.apply_delta.busy_ms",
        layer_median(Layer::CausalApplyDelta, busy),
        n.clone(),
    );
    sheet.put(
        "causal.hooks.busy_ms",
        layer_median(Layer::CausalHooks, busy),
        n.clone(),
    );
    sheet.put("causal.verdicts", first.verdicts as f64, "");
    sheet.put(
        "causal.verdicts_per_msg",
        ratio(first.verdicts as f64, messages),
        "",
    );
    sheet.put(
        "net.send.busy_ms",
        layer_median(Layer::NetSend, busy),
        n.clone(),
    );
    sheet.put(
        "net.poll.busy_ms",
        layer_median(Layer::NetPoll, busy),
        n.clone(),
    );
    let wire = counted.wire;
    sheet.put("net.control_msgs", wire.control_msgs as f64, "exact");
    sheet.put(
        "net.control_bytes",
        wire.control_bytes as f64,
        "exact, encoded",
    );
    sheet.put(
        "net.mutator_bytes",
        wire.mutator_bytes as f64,
        "exact, encoded",
    );
    sheet.put("net.peak_pending", wire.peak_pending as f64, "");
    let [appended, wal_bytes, checkpoints, replayed] = base.store;
    sheet.put("store.records_appended", appended as f64, "");
    sheet.put("store.wal_bytes", wal_bytes as f64, "");
    sheet.put(
        "store.wal_bytes_per_op",
        ratio(wal_bytes as f64, base.ops as f64),
        "",
    );
    sheet.put("store.checkpoints", checkpoints as f64, "");
    sheet.put("store.records_replayed", replayed as f64, "");
    sheet.put(
        "store.recover.busy_ms",
        layer_median(Layer::StoreRecover, busy),
        n.clone(),
    );
    sheet.put(
        "causal.checkpoint_state.busy_ms",
        layer_median(Layer::CausalCheckpoint, busy),
        n.clone(),
    );
    sheet.put(
        "causal.restore_state.busy_ms",
        layer_median(Layer::CausalRestore, busy),
        n.clone(),
    );
    let recover_ms = pooled(plain, |r| &r.recover_ms);
    sheet.put(
        "recovery_s",
        median_of(plain, |r| r.recover_ms.iter().fold(0.0, |a, b| a + b) / 1e3),
        format!("median of {}", plain.len()),
    );
    if recover_ms.is_empty() {
        sheet.put("recover_ms_p50", 0.0, "no recoveries");
    } else {
        sheet.percentile("recover_ms_p50", &recover_ms, 500);
    }
    let o = counted.outcome;
    sheet.put(
        "residual_share",
        ratio(o.residual as f64, (o.reclaimed + o.residual) as f64),
        format!("{} residual", o.residual),
    );
    let parallel = |reps: &[&Rep], f: fn(&drive::ParallelStats) -> f64| match reps[0].parallel {
        Some(_) => median_of(reps, |r| f(r.parallel.as_ref().expect("parallel rep"))),
        None => 0.0,
    };
    sheet.put("parallel.run_ms", parallel(plain, |p| p.run_ms), "untraced");
    sheet.put(
        "parallel.causal_busy_ms_per_worker",
        parallel(traced, |p| p.busy_ms_per_worker),
        n,
    );
    sheet.put(
        "parallel.peak_queued_bytes",
        parallel(plain, |p| p.peak_queued_bytes),
        "",
    );
    sheet.put(
        "parallel.control_bytes",
        parallel(plain, |p| p.control_bytes),
        "framed, cross-worker",
    );
    sheet.put("parallel.workers", parallel(plain, |p| p.workers), "");
    sheet.put(
        "alloc.per_op",
        median_of(plain, |r| r.allocations as f64 / r.ops as f64),
        "",
    );
    sheet.put(
        "alloc.bytes_per_op",
        median_of(plain, |r| r.alloc_bytes as f64 / r.ops as f64),
        "",
    );
    sheet.put(
        "alloc.peak_live_mb",
        median_of(plain, |r| r.peak_live as f64) / f64::from(1 << 20),
        "",
    );
    sheet.put(
        "trace.step_spans",
        first.spans.iter().filter(|s| s.layer.is_step()).count() as f64,
        "",
    );
}

fn json_line(out: &RunResult) -> String {
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.errors.is_empty(),
        out.attempted.max(1),
        out.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    line.push_str("}}");
    line
}

fn write_spans(args: &Args, spans: &[trace::Span]) -> Result<String, String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.spans", args.workload.name(), args.seed));
    std::fs::write(&path, trace::dump(spans))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = run(&args, false);
    println!(
        "# {} seed {} ({}), parallel workers {}",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        drive::parallel_workers()
    );
    for m in &out.metrics {
        println!("{:<36} {:>16.6} {:<12} {}", m.name, m.value, m.unit, m.note);
    }
    if let Some(spans) = out.spans.take() {
        match write_spans(&args, &spans) {
            Ok(path) => println!("# {} spans written to {path}", spans.len()),
            Err(e) => out.errors.push(e),
        }
    }
    for e in &out.errors {
        println!("# FAILED: {e}");
        eprintln!("correctness check failed: {e}");
    }
    println!("{}", json_line(&out));
    if out.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: Workload, trace: bool) {
        let args = Args {
            workload,
            seed: 3,
            seconds: 0,
            trace,
        };
        let out = run(&args, true);
        assert!(out.errors.is_empty(), "{:?}: {:?}", workload, out.errors);
        let want: Vec<&str> = if trace {
            PER_LAYER.iter().map(|m| m.0).collect()
        } else {
            END_TO_END.iter().map(|m| m.0).collect()
        };
        let got: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn every_workload_runs_at_tiny_scale() {
        for workload in Workload::ALL {
            smoke(workload, false);
            smoke(workload, true);
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| -> Vec<String> { s.split(' ').map(str::to_owned).collect() };
        let ok = parse_args(&args(
            "--workload heap_churn --seed 4 --seconds 2 --trace 1",
        ));
        assert!(ok.is_ok_and(|a| a.seed == 4 && a.trace));
        assert!(parse_args(&args("--workload nope --seed 4 --seconds 2 --trace 1")).is_err());
        assert!(parse_args(&args(
            "--workload heap_churn --seed x --seconds 2 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&args(
            "--workload heap_churn --seed 1 --seconds 2 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&args("--workload heap_churn --seed 1")).is_err());
    }

    #[test]
    fn benchmark_json_declares_these_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"better\"").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for w in Workload::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }
}
