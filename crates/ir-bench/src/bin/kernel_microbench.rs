//! Per-kernel WHD throughput rows for the perf-trajectory snapshot.
//!
//! Times the weighted-Hamming-distance sweep on the scalar reference, the
//! portable SWAR kernel and the widest explicit-SIMD kernel the host CPU
//! offers (`simd` — the one [`ir_core::kernel::active`] dispatches to,
//! unless `IR_KERNEL` overrides it), in three modes:
//!
//! - **pair**  — one `run_read_sweep` call per (consensus, read) pair,
//!   each over a prepared one-row [`CandidateBlock`]: the per-call cost
//!   of scanning pairs one at a time;
//! - **batch** — one `run_read_sweep` over a structure-of-arrays
//!   [`CandidateBlock`] holding all candidates, the deployed hot path;
//! - **pruned** — the same batch sweep under the serial datapath with
//!   pruning on, the read planted at a mid offset of every candidate with
//!   ~1% substitutions: the shape the functional oracle spends its time
//!   in, where most offsets cross the bound within their first bases.
//!
//! `pair` and `batch` run the adversarial dense shape (unrelated read,
//! every lane accumulates) with pruning off, so every kernel does the
//! identical, closed-form amount of work and the Gbase/s column measures
//! raw fold throughput. For `pruned`, Gbase/s counts the same window
//! bases (candidates × offsets × read length) whether or not pruning
//! skipped them, so it is the rate at which the sweep disposes of
//! windows. Row keys are stable across hosts (`scalar`, `swar`, `simd`,
//! each with `pair`, `batch` and `pruned`); the `isa` column records
//! which ISA `simd` resolved to, and the snapshot records the same name
//! as its `kernel` config field so `bench-diff` never compares Gbase/s
//! across ISAs.

use std::time::Instant;

use ir_bench::Table;
use ir_core::batch::{CandidateBlock, SweepRead};
use ir_core::kernel;
use ir_core::KernelKind;
use ir_fpga::hdc::{run_read_sweep, HdcConfig};
use ir_genome::{Base, Qual, Sequence};

fn sequence(len: usize, salt: usize) -> Sequence {
    (0..len)
        .map(|i| Base::from_index((i * 7 + salt).wrapping_mul(2654435761) >> 8 & 3))
        .collect()
}

/// Times `f` adaptively: doubles the iteration count until the batch
/// takes ≥ 20 ms, then reports ns per call from the final batch.
fn time_ns(mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() >= 20 || iters >= 1 << 22 {
            return elapsed.as_nanos() as f64 / iters as f64;
        }
        iters *= 2;
    }
}

fn main() {
    let active = kernel::active();
    println!("WHD kernel microbenchmark (dense shape with pruning off; pruned serial shape)");
    println!("active kernel: {active}");
    if let Some(diag) = kernel::active_diagnostic() {
        println!("dispatch diagnostic: {diag}");
    }
    println!();

    // Dense fixture: unrelated read, every lane accumulates. Pruning off
    // keeps the work closed-form and identical across kernels.
    let (m, n, candidates) = (698usize, 250usize, 8usize);
    let cfg = HdcConfig {
        pruning: false,
        ..HdcConfig::data_parallel()
    };
    let cons: Vec<Sequence> = (0..candidates).map(|i| sequence(m, i + 1)).collect();
    let read = sequence(n, 77);
    let quals = Qual::uniform(35, n).unwrap();
    let cons_rows: Vec<&[Base]> = cons.iter().map(|c| c.bases()).collect();
    let block = CandidateBlock::from_bases_rows(&cons_rows);
    let pair_blocks: Vec<CandidateBlock> = cons_rows
        .iter()
        .map(|row| CandidateBlock::from_bases_rows(&[row]))
        .collect();
    let sweep_read = SweepRead::new(read.bases(), &quals);
    // Bases compared per full sweep of one read against all candidates.
    let bases = (candidates * (m - n + 1) * n) as f64;

    // Pruned fixture: the read planted mid-row in every candidate, with
    // three substitutions (1.2%) at candidate-specific positions.
    let planted_at = (m - n) / 2;
    let planted: Vec<Sequence> = cons
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let mut row = c.bases().to_vec();
            row[planted_at..planted_at + n].copy_from_slice(read.bases());
            for j in 0..3 {
                let at = planted_at + (j * 97 + i * 13) % n;
                row[at] = Base::from_index(row[at].index().map_or(0, |x| x + 1) & 3);
            }
            row.into_iter().collect()
        })
        .collect();
    let planted_rows: Vec<&[Base]> = planted.iter().map(|c| c.bases()).collect();
    let planted_block = CandidateBlock::from_bases_rows(&planted_rows);
    let pruned_cfg = HdcConfig::serial();

    let rows: Vec<(&str, KernelKind)> = vec![
        ("scalar", KernelKind::Scalar),
        ("swar", KernelKind::Swar),
        ("simd", active),
    ];
    let mut table = Table::new(vec!["row", "isa", "mode", "ns_per_sweep", "gbase_per_s"]);
    let mut swar_batch_ns = None;
    let mut simd_batch_ns = None;
    for (row, kind) in rows {
        let pair_ns = time_ns(|| {
            for pair_block in &pair_blocks {
                std::hint::black_box(run_read_sweep(pair_block, &sweep_read, kind, cfg));
            }
        });
        let batch_ns = time_ns(|| {
            std::hint::black_box(run_read_sweep(&block, &sweep_read, kind, cfg));
        });
        let pruned_ns = time_ns(|| {
            std::hint::black_box(run_read_sweep(
                &planted_block,
                &sweep_read,
                kind,
                pruned_cfg,
            ));
        });
        if row == "swar" {
            swar_batch_ns = Some(batch_ns);
        }
        if row == "simd" {
            simd_batch_ns = Some(batch_ns);
        }
        for (mode, ns) in [
            ("pair", pair_ns),
            ("batch", batch_ns),
            ("pruned", pruned_ns),
        ] {
            table.row(vec![
                row.to_string(),
                kind.name().to_string(),
                mode.to_string(),
                format!("{ns:.0}"),
                format!("{:.3}", bases / ns),
            ]);
        }
    }
    table.emit("kernel_microbench");

    if let (Some(swar), Some(simd)) = (swar_batch_ns, simd_batch_ns) {
        println!(
            "\nsimd ({active}) batch sweep is {:.2}x the SWAR kernel on the dense shape",
            swar / simd
        );
    }
}
