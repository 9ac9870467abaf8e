//! Criterion microbenchmarks of the weighted-Hamming-distance kernel —
//! the operation the accelerator performs billions of times per target.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use ir_core::batch::{CandidateBlock, SweepRead};
use ir_core::{calc_whd, calc_whd_bounded, kernel, KernelKind};
use ir_fpga::hdc::{run_pair, run_read_sweep, HdcConfig};
use ir_genome::{Base, Qual, Sequence};

fn sequence(len: usize, salt: usize) -> Sequence {
    (0..len)
        .map(|i| Base::from_index((i * 7 + salt).wrapping_mul(2654435761) >> 8 & 3))
        .collect()
}

fn bench_calc_whd(c: &mut Criterion) {
    let mut group = c.benchmark_group("calc_whd");
    for (m, n) in [(510usize, 62usize), (2048, 250)] {
        let cons = sequence(m, 1);
        let read = sequence(n, 2);
        let quals = Qual::uniform(35, n).unwrap();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::new("full", format!("m{m}_n{n}")),
            &(),
            |b, ()| b.iter(|| calc_whd(black_box(&cons), black_box(&read), black_box(&quals), 17)),
        );
        group.bench_with_input(
            BenchmarkId::new("bounded", format!("m{m}_n{n}")),
            &(),
            |b, ()| {
                b.iter(|| {
                    calc_whd_bounded(
                        black_box(&cons),
                        black_box(&read),
                        black_box(&quals),
                        17,
                        100,
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_hdc_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("hdc_pair_scan");
    let (m, n) = (510usize, 62usize);
    let cons = sequence(m, 3);
    // A read sampled from the consensus: realistic pruning behaviour.
    let read = cons.slice(100, 100 + n);
    let quals = Qual::uniform(35, n).unwrap();
    group.throughput(Throughput::Elements(((m - n + 1) * n) as u64));
    for (name, cfg) in [
        ("serial_pruned", HdcConfig::serial()),
        (
            "serial_naive",
            HdcConfig {
                pruning: false,
                ..HdcConfig::serial()
            },
        ),
        ("data_parallel", HdcConfig::data_parallel()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| run_pair(black_box(&cons), black_box(&read), black_box(&quals), cfg))
        });
    }
    // The jump-to-outcome sweep against the cycle-stepped reference, on
    // the same pair as a one-row block (it returns the identical PairRun).
    let block = CandidateBlock::from_bases_rows(&[cons.bases()]);
    let sweep_read = SweepRead::new(read.bases(), &quals);
    for (name, cfg) in [
        ("serial_pruned_sweep", HdcConfig::serial()),
        ("data_parallel_sweep", HdcConfig::data_parallel()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                run_read_sweep(
                    black_box(&block),
                    black_box(&sweep_read),
                    kernel::active(),
                    cfg,
                )
            })
        });
    }
    group.finish();
}

/// Every runnable kernel (scalar, SWAR, each `std::arch` ISA the host
/// supports) through both execution modes — per-pair scans over one-row
/// blocks and the structure-of-arrays batch sweep — on the sparse and dense fixture
/// shapes. This is the acceptance row for the explicit-SIMD engine: on
/// the dense shape the widest SIMD kernel must clear 2x over SWAR.
fn bench_kernel_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_dispatch");
    let (n, candidates) = (250usize, 8usize);
    let m = n + 448;
    let quals = Qual::uniform(35, n).unwrap();
    let cfg = HdcConfig {
        pruning: false,
        ..HdcConfig::data_parallel()
    };
    let cons: Vec<Sequence> = (0..candidates).map(|i| sequence(m, i + 1)).collect();
    let rows: Vec<&[Base]> = cons.iter().map(|c| c.bases()).collect();
    let block = CandidateBlock::from_bases_rows(&rows);
    let pair_blocks: Vec<CandidateBlock> = rows
        .iter()
        .map(|row| CandidateBlock::from_bases_rows(&[row]))
        .collect();
    // Sparse: a read sampled from one candidate. Dense: an unrelated read.
    let sparse = cons[0].slice(17, 17 + n);
    let dense = sequence(n, 77);
    group.throughput(Throughput::Elements((candidates * (m - n + 1) * n) as u64));
    for (shape, read) in [("sparse", &sparse), ("dense", &dense)] {
        let sweep_read = SweepRead::new(read.bases(), &quals);
        for kind in KernelKind::available() {
            group.bench_with_input(
                BenchmarkId::new(format!("{kind}_pair"), shape),
                &(),
                |b, ()| {
                    b.iter(|| {
                        for pair_block in &pair_blocks {
                            black_box(run_read_sweep(
                                black_box(pair_block),
                                black_box(&sweep_read),
                                kind,
                                cfg,
                            ));
                        }
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{kind}_batch"), shape),
                &(),
                |b, ()| {
                    b.iter(|| run_read_sweep(black_box(&block), black_box(&sweep_read), kind, cfg))
                },
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_calc_whd,
    bench_hdc_scan,
    bench_kernel_dispatch
);
criterion_main!(benches);
