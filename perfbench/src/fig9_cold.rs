//! `fig9-cold`: the Figure 9 pipeline over Ch1–22 on the bench-profile
//! geometry, with a cold in-memory oracle per chromosome and no disk
//! cache — the shape of `fig9_speedup` on a first run. Almost all of its
//! host time is oracle misses, so kernel and oracle work-avoidance shows
//! here and engine changes should not.

use ir_baselines::{adam::AdamModel, gatk::GatkModel};
use ir_fpga::unit::UnitRun;
use ir_fpga::{AcceleratedSystem, FpgaParams, FunctionalOracle, Scheduling, SystemRun};
use ir_genome::{Chromosome, RealignmentTarget, TargetShape};
use ir_workloads::{WorkloadConfig, WorkloadGenerator};

use crate::digest::Digest;
use crate::gate::{self, Checks};
use crate::trace::Tracer;
use crate::{Size, Workload};

/// Chromosomes whose middle target the gate checks.
const GATE_CHROMOSOMES: [u8; 6] = [1, 5, 9, 13, 17, 21];

/// Targets per chromosome the per-layer replays take.
const SAMPLE_PER_CHROMOSOME: usize = 3;

struct ChromosomeInput {
    chromosome: Chromosome,
    targets: Vec<RealignmentTarget>,
    shapes: Vec<TargetShape>,
}

/// A gate target with the serial- and IRACC-key results of the first
/// cycle.
struct GateEntry {
    label: String,
    chromosome: usize,
    index: usize,
    target: RealignmentTarget,
    serial: Option<UnitRun>,
    iracc: Option<UnitRun>,
}

/// The set-up `fig9-cold` workload.
pub struct Fig9Cold {
    chromosomes: Vec<ChromosomeInput>,
    taskp: AcceleratedSystem,
    taskp_async: AcceleratedSystem,
    iracc: AcceleratedSystem,
    gatk: GatkModel,
    adam: AdamModel,
    threads: usize,
    sample: Vec<RealignmentTarget>,
    gate: Vec<GateEntry>,
    summary: Vec<String>,
}

/// The bench-profile generator (`ir_bench::bench_workload`) reseeded.
pub fn generator(scale: f64, seed: u64) -> WorkloadGenerator {
    WorkloadGenerator::new(WorkloadConfig {
        seed,
        ..*ir_bench::bench_workload(scale).config()
    })
}

impl Fig9Cold {
    /// Generates Ch1–22 and builds the three accelerator configurations
    /// and the two software baselines.
    pub fn setup(size: Size, seed: u64, threads: usize, tr: &mut Tracer) -> Self {
        let scale = match size {
            Size::Bench => 4e-4,
            Size::Smoke => 1e-5,
        };
        let chromosomes: Vec<ChromosomeInput> = tr.span("workloads.gen_ms", || {
            let generator = generator(scale, seed);
            Chromosome::autosomes()
                .map(|chromosome| {
                    let targets = generator.chromosome(chromosome).targets;
                    let shapes = targets.iter().map(RealignmentTarget::shape).collect();
                    ChromosomeInput {
                        chromosome,
                        targets,
                        shapes,
                    }
                })
                .collect()
        });
        let system = |params, scheduling| {
            AcceleratedSystem::new(params, scheduling).expect("Figure 9 configurations fit")
        };
        let sample = chromosomes
            .iter()
            .flat_map(|c| c.targets.iter().take(SAMPLE_PER_CHROMOSOME).cloned())
            .collect();
        let gate = chromosomes
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                matches!(c.chromosome, Chromosome::Autosome(n) if GATE_CHROMOSOMES.contains(&n))
            })
            .map(|(chromosome, c)| {
                let index = c.targets.len() / 2;
                GateEntry {
                    label: format!("{} target {index}", c.chromosome),
                    chromosome,
                    index,
                    target: c.targets[index].clone(),
                    serial: None,
                    iracc: None,
                }
            })
            .collect();
        Fig9Cold {
            taskp: system(FpgaParams::serial(), Scheduling::Synchronous),
            taskp_async: system(FpgaParams::serial(), Scheduling::Asynchronous),
            iracc: system(FpgaParams::iracc(), Scheduling::Asynchronous),
            gatk: GatkModel::default(),
            adam: AdamModel::default().without_startup(),
            chromosomes,
            threads,
            sample,
            gate,
            summary: Vec::new(),
        }
    }
}

fn feed_run(digest: &mut Digest, run: &SystemRun) {
    digest.f64(run.wall_time_s);
    digest.f64(run.dma_busy_s);
    digest.f64(run.command_s);
    digest.u64(run.compute_cycles);
    digest.u64(run.comparisons);
    for r in &run.results {
        digest.u64(r.best_consensus() as u64);
        digest.u64(r.realigned_count() as u64);
        digest.u64(r.cycles.total());
    }
}

impl Workload for Fig9Cold {
    fn cycle(&mut self, tr: &mut Tracer, digest: &mut Digest) -> u64 {
        let (serial, iracc) = (FpgaParams::serial(), FpgaParams::iracc());
        let mut sims = 0;
        let mut speedups: [Vec<f64>; 4] = Default::default();
        let mut comparisons = [0u64; 2];
        for (ci, c) in self.chromosomes.iter().enumerate() {
            let n = c.targets.len();
            let mut serial_oracle = FunctionalOracle::new();
            let mut iracc_oracle = FunctionalOracle::new();
            tr.span("oracle.miss_ms.serial", || {
                serial_oracle.precompute(&c.targets, &serial, self.threads)
            });
            tr.span("oracle.miss_ms.iracc", || {
                iracc_oracle.precompute(&c.targets, &iracc, self.threads)
            });
            let entries = serial_oracle.len() + iracc_oracle.len();
            let [taskp, taskp_async, iracc_run] = tr.span("engine.run_ms", || {
                [
                    self.taskp.run_with_oracle(&c.targets, &mut serial_oracle),
                    self.taskp_async
                        .run_with_oracle(&c.targets, &mut serial_oracle),
                    self.iracc.run_with_oracle(&c.targets, &mut iracc_oracle),
                ]
            });
            let (gatk, adam) = tr.span("baselines.ms", || {
                (
                    self.gatk.run_shapes(&c.shapes),
                    self.adam.run_shapes(&c.shapes),
                )
            });
            // A run that found an entry missing grew its oracle; every other
            // lookup was a hit.
            let misses_in_runs = serial_oracle.len() + iracc_oracle.len() - entries;
            tr.count("oracle.misses", (entries + misses_in_runs) as f64);
            tr.count("oracle.hits", (3 * n - misses_in_runs) as f64);
            tr.peak(
                "oracle.entries",
                (serial_oracle.len() + iracc_oracle.len()) as f64,
            );
            tr.count("engine.runs", 3.0);
            tr.count("engine.targets", (3 * n) as f64);
            sims += 3 * n as u64;

            let gate = &mut self.gate;
            tr.untimed(|| {
                for run in [&taskp, &taskp_async, &iracc_run] {
                    feed_run(digest, run);
                }
                comparisons[0] += taskp.comparisons;
                comparisons[1] += iracc_run.comparisons;
                digest.f64(gatk.wall_time_s);
                digest.f64(adam.wall_time_s);
                for (xs, x) in speedups.iter_mut().zip([
                    gatk.wall_time_s / taskp.wall_time_s,
                    gatk.wall_time_s / taskp_async.wall_time_s,
                    gatk.wall_time_s / iracc_run.wall_time_s,
                    adam.wall_time_s / iracc_run.wall_time_s,
                ]) {
                    xs.push(x);
                }
                for entry in gate.iter_mut().filter(|e| e.chromosome == ci) {
                    entry.serial = Some(taskp.results[entry.index].clone());
                    entry.iracc = Some(iracc_run.results[entry.index].clone());
                }
            });
        }
        let gmeans = speedups.map(|xs| ir_bench::gmean(&xs));
        for g in gmeans {
            digest.f64(g);
        }
        self.summary = vec![format!(
            "model: speedup over GATK3 gmean TaskP {:.2}x, TaskP-Async {:.1}x, IR ACC {:.1}x; \
             IR ACC over ADAM {:.1}x ({} targets, Ch1-22; {} serial and {} IR ACC comparisons)",
            gmeans[0],
            gmeans[1],
            gmeans[2],
            gmeans[3],
            self.chromosomes
                .iter()
                .map(|c| c.targets.len())
                .sum::<usize>(),
            comparisons[0],
            comparisons[1],
        )];
        sims
    }

    fn check(&mut self, checks: &mut Checks, _tr: &mut Tracer) {
        let (serial, iracc) = (FpgaParams::serial(), FpgaParams::iracc());
        for e in &self.gate {
            let (Some(s), Some(i)) = (&e.serial, &e.iracc) else {
                checks.expect(false, || format!("{}: never simulated", e.label));
                continue;
            };
            gate::check_unit_run(
                checks,
                &format!("{} serial", e.label),
                &e.target,
                &serial,
                s,
            );
            gate::check_unit_run(checks, &format!("{} iracc", e.label), &e.target, &iracc, i);
        }
    }

    fn sample(&self) -> &[RealignmentTarget] {
        &self.sample
    }

    fn summary(&self) -> Vec<String> {
        self.summary.clone()
    }
}
