//! Criterion benchmark of the `ir-sim` discrete-event engine's host wall
//! clock for one full asynchronous [`AcceleratedSystem::run`].
//!
//! The grid covers the workload scales the figure binaries run at
//! (`IR_SCALE` ∈ {1e-4, 1e-3, 5e-3}) and the unit counts the paper's
//! configurations span ({1, 8, 32}).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ir_bench::bench_workload;
use ir_fpga::{AcceleratedSystem, FpgaParams, Scheduling};
use ir_genome::RealignmentTarget;

/// Target count at a given scale — the same `IR_SCALE` proportionality
/// the telemetry report uses, floored low enough to keep the full grid
/// affordable under the fixed measurement window.
fn grid_targets(scale: f64) -> usize {
    ((25_600.0 * scale).round() as usize).max(32)
}

fn bench_engine(c: &mut Criterion) {
    for scale in [1e-4, 1e-3, 5e-3] {
        let targets: Vec<RealignmentTarget> =
            bench_workload(scale).targets(grid_targets(scale), 0x7E1E);
        let mut group = c.benchmark_group(format!("system_run_scale_{scale:e}"));
        for units in [1usize, 8, 32] {
            let params = FpgaParams {
                num_units: units,
                ..FpgaParams::serial()
            };
            let system = AcceleratedSystem::new(params, Scheduling::Asynchronous)
                .expect("serial config fits at every unit count");
            group.bench_function(format!("units_{units:02}_engine"), |b| {
                b.iter(|| system.run(black_box(&targets)))
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
