//! Figure 8: the data-parallel Hamming distance calculator — lane-count
//! sweep of HDC cycles on a representative workload.
//!
//! Paper anchor: adding the 32-lane calculator to the asynchronous
//! task-parallel system "provided another 15× speedup" (§V-B). The gain is
//! below the ideal 32× because pruning coarsens from per-byte to
//! per-block granularity and the prune verdict lags the adder tree.

use ir_bench::{bench_workload, parallel_sweep, threads_from_env, Table};
use ir_core::batch::{CandidateBlock, SweepRead};
use ir_core::kernel;
use ir_fpga::hdc::{run_read_sweep, HdcConfig};

fn main() {
    let threads = threads_from_env();
    println!(
        "Figure 8: data-parallel Hamming distance calculator — lane sweep ({threads} host threads)\n"
    );
    let generator = bench_workload(1.0); // scale unused for direct target sampling
    let targets = generator.targets(64, 0xf18);

    // Lay out every target's candidates and reads once; all six lane
    // configurations sweep the same blocks, and each sweep produces the
    // identical PairRun to the cycle-stepped reference per pair.
    let prepared: Vec<(CandidateBlock, Vec<SweepRead>)> = targets
        .iter()
        .map(|target| {
            let reads = target
                .reads()
                .iter()
                .map(|read| SweepRead::new(read.bases().bases(), read.quals()))
                .collect();
            (CandidateBlock::from_target(target), reads)
        })
        .collect();

    let lane_counts = [1usize, 2, 4, 8, 16, 32];
    let totals = parallel_sweep(&lane_counts, threads, |&lanes| {
        let cfg = HdcConfig {
            lanes,
            prune_latency_blocks: if lanes > 1 { 2 } else { 0 },
            ..HdcConfig::serial()
        };
        let mut cycles = 0u64;
        let mut comparisons = 0u64;
        for (block, reads) in &prepared {
            for read in reads {
                for run in run_read_sweep(block, read, kernel::active(), cfg) {
                    cycles += run.cycles;
                    comparisons += run.comparisons;
                }
            }
        }
        (cycles, comparisons)
    });

    let mut table = Table::new(vec![
        "lanes",
        "HDC cycles",
        "speedup vs serial",
        "executed comparisons",
    ]);
    let serial_cycles = totals[0].0;
    for (&lanes, &(cycles, comparisons)) in lane_counts.iter().zip(&totals) {
        table.row(vec![
            lanes.to_string(),
            cycles.to_string(),
            format!("{:.1}×", serial_cycles as f64 / cycles as f64),
            comparisons.to_string(),
        ]);
    }
    table.emit("fig8_data_parallel");

    println!("\npaper anchor: the 32-lane calculator buys ≈ 15× over the serial unit");
    println!("(ideal 32× eroded by block-granular pruning and the 2-block prune latency)");
}
