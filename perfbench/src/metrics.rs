//! The metrics a run reports, named as in `BENCHMARK.json`.

use std::fmt::Write as _;
use std::io;

use crate::context;
use crate::trace::{median, percentile};
use crate::Outcome;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value, unrounded.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end metrics of an untraced run: throughput over the median
/// scaled untraced cycle, median scaled set-up time and memory peak.
///
/// # Errors
///
/// Fails if the memory peak cannot be read.
pub fn end_to_end(o: &Outcome) -> io::Result<Vec<Metric>> {
    Ok(vec![
        m(
            "sim_targets_per_s",
            o.sims_per_cycle as f64 / median(&o.untraced.scaled()),
            "1/s",
        ),
        m("setup_s", median(&o.setup.scaled()), "s"),
        m("peak_rss_mb", context::peak_rss_mb()?, "MB"),
    ])
}

/// The per-layer metrics of a traced run.
pub fn per_layer(o: &Outcome) -> Vec<Metric> {
    let l = &o.layers;
    let ms = |name: &str| l.secs(name) * 1e3;
    let n = |name: &str| l.counted(name);
    let targets = l.samples("oracle.target");
    let batches = l.samples("serve.shard_batch");
    let runs = [
        "serve.run_ms.single",
        "serve.run_ms.fleet1",
        "serve.run_ms.fleet4",
        "serve.run_ms.autoscale",
    ];
    let mean_traced = o.traced.secs.iter().sum::<f64>() / o.traced.len().max(1) as f64;
    let mut out = vec![
        m("workloads.gen_ms", ms("workloads.gen_ms"), "ms"),
        m("core.block_build_ms", ms("core.block_build_ms"), "ms"),
        m("core.sweep_ms", ms("core.sweep_ms"), "ms"),
        m("core.comparisons", n("core.comparisons"), "count"),
        m("core.offsets_pruned", n("core.offsets_pruned"), "count"),
        m(
            "core.prune_ratio",
            ratio(n("core.offsets_pruned"), n("core.offsets")),
            "ratio",
        ),
        m(
            "core.gbase_per_s",
            ratio(n("core.comparisons"), l.secs("core.sweep_ms")) / 1e9,
            "Gbase/s",
        ),
        m("oracle.miss_ms.serial", ms("oracle.miss_ms.serial"), "ms"),
        m("oracle.miss_ms.iracc", ms("oracle.miss_ms.iracc"), "ms"),
        m("oracle.misses", n("oracle.misses"), "count"),
        m("oracle.hits", n("oracle.hits"), "count"),
        m(
            "oracle.hit_ratio",
            ratio(n("oracle.hits"), n("oracle.hits") + n("oracle.misses")),
            "ratio",
        ),
        m(
            "oracle.target_p50_us",
            percentile(targets, 50.0) * 1e6,
            "us",
        ),
        m(
            "oracle.target_p99_us",
            percentile(targets, 99.0) * 1e6,
            "us",
        ),
        m("oracle.entries", n("oracle.entries"), "count"),
        m("engine.run_ms", ms("engine.run_ms"), "ms"),
        m(
            "engine.us_per_target",
            ratio(l.secs("engine.run_ms") * 1e6, n("engine.targets")),
            "us",
        ),
        m("engine.runs", n("engine.runs"), "count"),
        m(
            "telemetry.overhead_ms",
            ms("telemetry.on") - ms("telemetry.off"),
            "ms",
        ),
        m("baselines.ms", ms("baselines.ms"), "ms"),
    ];
    out.extend(runs.iter().map(|&r| m(r, ms(r), "ms")));
    out.extend([
        m("serve.shard_ms", ms("serve.shard_batch"), "ms"),
        m(
            "serve.loop_self_ms",
            runs.iter().map(|r| ms(r)).sum::<f64>() - ms("serve.shard_batch"),
            "ms",
        ),
        m(
            "serve.shard_batch_p50_ms",
            percentile(batches, 50.0) * 1e3,
            "ms",
        ),
        m(
            "serve.shard_batch_p99_ms",
            percentile(batches, 99.0) * 1e3,
            "ms",
        ),
        m("serve.batches", n("serve.batches"), "count"),
        m(
            "serve.mean_batch_size",
            ratio(n("serve.responses"), n("serve.batches")),
            "count",
        ),
        m("serve.rejected", n("serve.rejected"), "count"),
        m(
            "trace.overhead_frac",
            median(&o.traced.scaled()) / median(&o.untraced.scaled()) - 1.0,
            "ratio",
        ),
        m(
            "trace.unattributed_frac",
            ratio(o.unattributed_s, mean_traced),
            "ratio",
        ),
    ]);
    out
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
///
/// # Errors
///
/// Fails if a metric is not a finite number, which JSON cannot carry.
pub fn result_json(o: &Outcome, metrics: &[Metric]) -> io::Result<String> {
    let mut body = String::new();
    for (i, metric) in metrics.iter().enumerate() {
        if !metric.value.is_finite() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("metric {} is {}", metric.name, metric.value),
            ));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name, metric.value, metric.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        o.checks.failed == 0,
        o.checks.attempted,
        o.checks.failed
    ))
}
