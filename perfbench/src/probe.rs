//! Replays and probes of the traced run.
//!
//! Replays split a layer further than the timed phase can: the kernel's
//! candidate-block build and read sweeps, and each target's oracle miss.
//! Probes measure, on a sample of the workload's own targets, a layer the
//! workload's timed phase does not call, so every per-layer metric is a
//! measurement on every workload. Neither is part of the timed phase. A
//! probed figure describes the probe, not the workload, so the run labels
//! it.

use std::hint::black_box;

use ir_baselines::{adam::AdamModel, gatk::GatkModel};
use ir_core::batch::{CandidateBlock, SweepRead};
use ir_core::kernel;
use ir_fpga::hdc::{run_read_sweep, HdcConfig};
use ir_fpga::unit::simulate_target_fast;
use ir_fpga::{AcceleratedSystem, FpgaParams, FunctionalOracle, Scheduling};
use ir_genome::RealignmentTarget;

use crate::clock::CpuInstant;
use crate::digest::Digest;
use crate::gate::Checks;
use crate::serve_replay::ServeReplay;
use crate::trace::{median, Tracer};
use crate::Workload;

/// Seed of the arrival stream the serve probe draws.
const PROBE_SEED: u64 = 7;
/// Engine runs per side of the telemetry probe.
const TELEMETRY_REPS: usize = 5;

/// Replays the WHD kernel and the per-target oracle miss over `sample`,
/// under the serial and the 32-lane datapath.
pub fn replay_core(tr: &mut Tracer, sample: &[RealignmentTarget]) {
    let kind = kernel::active();
    for target in sample {
        for cfg in [HdcConfig::serial(), HdcConfig::data_parallel()] {
            let block = tr.span("core.block_build_ms", || {
                CandidateBlock::from_target(target)
            });
            for j in 0..target.num_reads() {
                let read = target.read(j);
                let pairs = tr.span("core.sweep_ms", || {
                    let sweep_read = SweepRead::new(read.bases().bases(), read.quals());
                    black_box(run_read_sweep(&block, &sweep_read, kind, cfg))
                });
                let n = read.bases().len();
                for (i, pair) in pairs.iter().enumerate() {
                    tr.count("core.comparisons", pair.comparisons as f64);
                    tr.count("core.offsets_pruned", pair.offsets_pruned as f64);
                    tr.count("core.offsets", (block.len(i) - n + 1) as f64);
                }
            }
        }
        for params in [FpgaParams::serial(), FpgaParams::iracc()] {
            let start = CpuInstant::now();
            black_box(simulate_target_fast(target, &params));
            tr.sample("oracle.target", start.elapsed_secs());
        }
    }
}

/// Probes every layer that neither `layers` nor `tr` has a span for, and
/// returns the name prefixes of the per-layer metrics the probes produced.
pub fn fill_missing(
    tr: &mut Tracer,
    layers: &Tracer,
    checks: &mut Checks,
    sample: &[RealignmentTarget],
    threads: usize,
) -> Vec<&'static str> {
    let missing = |tr: &Tracer, name: &str| !layers.has(name) && !tr.has(name);
    let mut probed = Vec::new();
    for (name, params) in [
        ("oracle.miss_ms.serial", FpgaParams::serial()),
        ("oracle.miss_ms.iracc", FpgaParams::iracc()),
    ] {
        if missing(tr, name) {
            let mut oracle = FunctionalOracle::new();
            tr.span(name, || oracle.precompute(sample, &params, threads));
            probed.push(name);
        }
    }
    if missing(tr, "telemetry.on") {
        probe_telemetry(tr, sample, threads);
        probed.push("telemetry.");
    }
    if missing(tr, "baselines.ms") {
        let shapes: Vec<_> = sample.iter().map(RealignmentTarget::shape).collect();
        let (gatk, adam) = (GatkModel::default(), AdamModel::default().without_startup());
        tr.span("baselines.ms", || {
            black_box((gatk.run_shapes(&shapes), adam.run_shapes(&shapes)))
        });
        probed.push("baselines.");
    }
    if missing(tr, "serve.run_ms.single") {
        let mut serve = ServeReplay::over(sample.to_vec(), PROBE_SEED, threads);
        let mut probe = Tracer::new(true);
        serve.cycle(&mut probe, &mut Digest::default());
        serve.replay(&mut probe, checks);
        tr.absorb(&probe, 1.0, true, |k| k.starts_with("serve."));
        probed.push("serve.");
    }
    probed
}

/// The deployed configuration over a warm oracle, alternately with
/// telemetry off and on; the medians of each side are recorded.
fn probe_telemetry(tr: &mut Tracer, sample: &[RealignmentTarget], threads: usize) {
    let params = FpgaParams::iracc();
    let off =
        AcceleratedSystem::new(params, Scheduling::Asynchronous).expect("deployed config fits");
    let on = off.clone().with_telemetry(true);
    let mut oracle = FunctionalOracle::new();
    oracle.precompute(sample, &params, threads);
    let (mut off_s, mut on_s) = (Vec::new(), Vec::new());
    for _ in 0..TELEMETRY_REPS {
        for (system, times) in [(&off, &mut off_s), (&on, &mut on_s)] {
            let start = CpuInstant::now();
            black_box(system.run_with_oracle(sample, &mut oracle));
            times.push(start.elapsed_secs());
        }
    }
    tr.add("telemetry.off", median(&off_s));
    tr.add("telemetry.on", median(&on_s));
}
