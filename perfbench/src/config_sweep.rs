//! `config-sweep`: one large chromosome replayed through a grid of
//! accelerator configurations over an oracle warmed in set-up — the shape
//! of the ablation, DMA and frequency binaries. Every datapath lookup is
//! an oracle hit, so the event engine, hit clones and telemetry dominate;
//! kernel changes should not show here.

use ir_fpga::dma::DmaParams;
use ir_fpga::{AcceleratedSystem, FpgaParams, FunctionalOracle, Scheduling};
use ir_genome::{Chromosome, RealignmentTarget};

use crate::digest::Digest;
use crate::fig9_cold::generator;
use crate::gate::{self, Checks};
use crate::trace::Tracer;
use crate::{Size, Workload};

/// Unit counts of the grid (the `ablation_units` range).
const UNITS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Targets the gate and the per-layer replays take.
const SAMPLE: usize = 48;
const GATE: usize = 8;

struct Config {
    label: String,
    system: AcceleratedSystem,
    /// Also run with telemetry on, for `telemetry.overhead_ms`.
    telemetry: Option<AcceleratedSystem>,
}

/// The set-up `config-sweep` workload.
pub struct ConfigSweep {
    targets: Vec<RealignmentTarget>,
    oracle: FunctionalOracle,
    configs: Vec<Config>,
    sample: Vec<RealignmentTarget>,
    summary: Vec<String>,
}

fn grid() -> Vec<Config> {
    let mut configs = Vec::new();
    for (name, base) in [
        ("serial", FpgaParams::serial()),
        ("iracc", FpgaParams::iracc()),
    ] {
        for units in UNITS {
            for (sched_name, scheduling) in [
                ("sync", Scheduling::Synchronous),
                ("async", Scheduling::Asynchronous),
            ] {
                let params = FpgaParams {
                    num_units: units,
                    ..base
                };
                let system = AcceleratedSystem::new(params, scheduling).expect("grid config fits");
                // The deployed size under both disciplines also runs with
                // telemetry on, as `telemetry_report` does.
                let telemetry = (units == 32).then(|| system.clone().with_telemetry(true));
                configs.push(Config {
                    label: format!("{name} {units}u {sched_name}"),
                    system,
                    telemetry,
                });
            }
        }
    }
    for (label, dma) in [
        (
            "iracc 32u async slow-dma",
            DmaParams {
                bandwidth_bytes_per_s: 3.2e9,
                latency_s: 50e-6,
            },
        ),
        (
            "iracc 32u async fast-dma",
            DmaParams {
                bandwidth_bytes_per_s: 15.75e9,
                latency_s: 2e-6,
            },
        ),
    ] {
        let system = AcceleratedSystem::new(FpgaParams::iracc(), Scheduling::Asynchronous)
            .expect("deployed config fits")
            .with_dma(dma);
        configs.push(Config {
            label: label.to_string(),
            system,
            telemetry: None,
        });
    }
    configs
}

impl ConfigSweep {
    /// Generates Ch1, warms both oracle keys and builds the grid.
    pub fn setup(size: Size, seed: u64, threads: usize, tr: &mut Tracer) -> Self {
        let scale = match size {
            Size::Bench => 5e-3,
            Size::Smoke => 2e-4,
        };
        let targets = tr.span("workloads.gen_ms", || {
            generator(scale, seed)
                .chromosome(Chromosome::Autosome(1))
                .targets
        });
        let mut oracle = FunctionalOracle::new();
        tr.span("oracle.miss_ms.serial", || {
            oracle.precompute(&targets, &FpgaParams::serial(), threads)
        });
        tr.span("oracle.miss_ms.iracc", || {
            oracle.precompute(&targets, &FpgaParams::iracc(), threads)
        });
        tr.count("oracle.misses", oracle.len() as f64);
        tr.peak("oracle.entries", oracle.len() as f64);
        let sample = gate::spread(targets.len(), SAMPLE)
            .map(|i| targets[i].clone())
            .collect();
        ConfigSweep {
            configs: grid(),
            targets,
            oracle,
            sample,
            summary: Vec::new(),
        }
    }
}

impl Workload for ConfigSweep {
    fn cycle(&mut self, tr: &mut Tracer, digest: &mut Digest) -> u64 {
        let n = self.targets.len();
        let mut sims = 0;
        let mut walls = Vec::new();
        for c in &self.configs {
            let before = self.oracle.len();
            // A configuration paired with a telemetry-on run times its
            // telemetry-off run as the other half of that pair, so each
            // run lands in exactly one layer.
            let off = if c.telemetry.is_some() {
                "telemetry.off"
            } else {
                tr.count("engine.runs", 1.0);
                tr.count("engine.targets", n as f64);
                "engine.run_ms"
            };
            let mut runs = vec![tr.span(off, || {
                c.system.run_with_oracle(&self.targets, &mut self.oracle)
            })];
            if let Some(telemetry) = &c.telemetry {
                runs.push(tr.span("telemetry.on", || {
                    telemetry.run_with_oracle(&self.targets, &mut self.oracle)
                }));
            }
            let misses = self.oracle.len() - before;
            tr.count("oracle.misses", misses as f64);
            tr.count("oracle.hits", (runs.len() * n - misses) as f64);
            tr.untimed(|| {
                for run in &runs {
                    digest.f64(run.wall_time_s);
                    digest.f64(run.dma_busy_s);
                    digest.f64(run.command_s);
                    digest.u64(run.compute_cycles);
                    digest.u64(run.comparisons);
                    for busy in &run.unit_busy_s {
                        digest.f64(*busy);
                    }
                    if let Some(t) = &run.telemetry {
                        digest.bytes(t.to_json().as_bytes());
                    }
                }
            });
            sims += (runs.len() * n) as u64;
            walls.push((c.label.as_str(), runs[0].wall_time_s));
        }
        let wall = |label: &str| {
            walls
                .iter()
                .find(|(l, _)| *l == label)
                .map_or(f64::NAN, |(_, w)| *w)
        };
        self.summary = vec![format!(
            "model: {} configs over {n} targets; simulated wall iracc 32u async {:.4} s, \
             serial 32u sync {:.4} s, iracc 1u async {:.4} s",
            self.configs.len(),
            wall("iracc 32u async"),
            wall("serial 32u sync"),
            wall("iracc 1u async"),
        )];
        sims
    }

    fn check(&mut self, checks: &mut Checks, _tr: &mut Tracer) {
        for i in gate::spread(self.targets.len(), GATE) {
            let target = &self.targets[i];
            for params in [FpgaParams::serial(), FpgaParams::iracc()] {
                let cached = self.oracle.simulate(target, i, &params);
                let label = format!("chr1 target {i} lanes={}", params.lanes);
                gate::check_unit_run(checks, &label, target, &params, &cached);
            }
        }
    }

    fn sample(&self) -> &[RealignmentTarget] {
        &self.sample
    }

    fn summary(&self) -> Vec<String> {
        self.summary.clone()
    }
}
