//! Differential proptests pinning the packed fast HDC path bitwise
//! against the scalar reference (`run_pair`) under plain `cargo test` —
//! for the ambient dispatched kernel *and* every [`KernelKind`] the host
//! CPU can run, forced explicitly through the `_with` APIs. (The CI
//! `kernel-dispatch` matrix additionally forces each kind process-wide
//! via `IR_KERNEL`, which the ambient calls here pick up.)
//!
//! The fast path is one kernel, `kernel::prune_sweep`, that reports each
//! offset's verdict against the pruning bound and, for a pruned offset,
//! its crossing index (the first base whose running WHD exceeds the
//! bound); `hdc` turns that index into cycle and comparison charges in
//! closed form. What varies with the config is only which part of the
//! kernel runs:
//!
//! - the in-vector crossing locator (pruning on, `nblocks >
//!   prune_latency_blocks + 1`),
//! - the verdict without locating (pruning on, the drain swallows the
//!   whole read),
//! - the bound-free fold (pruning off, or a bound no window can reach).
//!
//! Every case exercises a curated config set that covers all three (both
//! presets, pruning on/off, lane counts that straddle the block
//! boundaries) plus one randomized config, over random sequence pairs of
//! up to 300 bases (several 64-base kernel chunks) with scores up to
//! `MAX_PHRED_SCORE`, including `N` bases — the full `PairRun` (min WHD,
//! offset, cycles, comparisons, pruned-offset count) must be identical.
//! Deterministic cases pin crossings at chunk-lane edges, a running WHD
//! that ties the bound, all-match and all-mismatch windows, `N` bases and
//! an empty read on every kernel.
//!
//! The batch proptests additionally pin the structure-of-arrays sweep
//! ([`run_read_sweep`]) element-wise against per-pair scans across ragged
//! candidate sets (mixed lengths and counts) and zero-length reads.
//!
//! Case counts are gated on `IR_PROPTEST_CASES` (see README).

use ir_system::core::batch::{CandidateBlock, SweepRead};
use ir_system::core::kernel::{prune_sweep, PruneSweep};
use ir_system::core::KernelKind;
use ir_system::fpga::hdc::{
    run_pair, run_pair_fast_packed, run_pair_fast_packed_with, run_read_sweep, HdcConfig,
};
use ir_system::genome::{Base, PackedSequence, Qual, Sequence, MAX_PHRED_SCORE};
use proptest::prelude::*;

/// Maps a byte to a base, all five symbols reachable.
fn base(code: u8) -> Base {
    match code % 5 {
        0 => Base::A,
        1 => Base::C,
        2 => Base::G,
        3 => Base::T,
        _ => Base::N,
    }
}

/// Configs covering every part of the fast kernel. With reads of
/// 1..=300 bases, `lanes` values below straddle `nblocks <=
/// prune_latency_blocks + 1` both ways (e.g. a 3-base read at 32 lanes is
/// one block — drain-swallowed at latency 2 — while a 96-base read is
/// not).
fn shape_covering_configs() -> Vec<HdcConfig> {
    vec![
        // Serial immediate prune (the base design): locates every crossing.
        HdcConfig::serial(),
        // Serial without pruning: the bound-free fold.
        HdcConfig {
            pruning: false,
            ..HdcConfig::serial()
        },
        // Verdict-only or located by read length: the Figure 8
        // data-parallel design.
        HdcConfig::data_parallel(),
        HdcConfig {
            pruning: false,
            ..HdcConfig::data_parallel()
        },
        // Deep prune latency: drain swallows up to 4 blocks.
        HdcConfig {
            lanes: 8,
            pruning: true,
            pair_overhead_cycles: 0,
            prune_latency_blocks: 3,
        },
        // Multi-lane with immediate prune verdict (latency 0).
        HdcConfig {
            lanes: 32,
            pruning: true,
            pair_overhead_cycles: 2,
            prune_latency_blocks: 0,
        },
        // Odd lane count that never divides the read length evenly.
        HdcConfig {
            lanes: 3,
            pruning: true,
            pair_overhead_cycles: 1,
            prune_latency_blocks: 1,
        },
    ]
}

prop_compose! {
    /// A random (consensus, read, quals) triple with `read.len() <=
    /// consensus.len()`, all symbols (including `N`) and the full
    /// Phred-score range.
    fn pair_inputs()(
        read_len in 1usize..=300,
        extra in 0usize..=64,
        cons_codes in prop::collection::vec(any::<u8>(), 364),
        read_codes in prop::collection::vec(any::<u8>(), 300),
        qual_scores in prop::collection::vec(0u8..=MAX_PHRED_SCORE, 300)
    ) -> (Sequence, Sequence, Qual) {
        let cons: Sequence = cons_codes[..read_len + extra].iter().map(|&c| base(c)).collect();
        let read: Sequence = read_codes[..read_len].iter().map(|&c| base(c)).collect();
        let quals = Qual::from_raw_scores(&qual_scores[..read_len]).expect("valid Phred range");
        (cons, read, quals)
    }
}

prop_compose! {
    /// A randomized config within the hardware-plausible envelope.
    fn random_config()(
        lanes in 1usize..=48,
        pruning in any::<bool>(),
        pair_overhead_cycles in 0u64..=4,
        prune_latency_blocks in 0u64..=3
    ) -> HdcConfig {
        HdcConfig { lanes, pruning, pair_overhead_cycles, prune_latency_blocks }
    }
}

prop_compose! {
    /// A ragged candidate set (1..=5 candidates of unequal lengths, all
    /// long enough to admit the read) plus a read that may be empty.
    fn batch_inputs()(
        read_len in 0usize..=300,
        extras in prop::collection::vec(0usize..=48, 1..=5),
        codes in prop::collection::vec(any::<u8>(), 5 * (300 + 48)),
        read_codes in prop::collection::vec(any::<u8>(), 300),
        qual_scores in prop::collection::vec(0u8..=MAX_PHRED_SCORE, 300)
    ) -> (Vec<Sequence>, Sequence, Qual) {
        let mut offset = 0;
        let cands: Vec<Sequence> = extras
            .iter()
            .map(|&extra| {
                let len = read_len + extra;
                let s: Sequence = codes[offset..offset + len].iter().map(|&c| base(c)).collect();
                offset += len;
                s
            })
            .collect();
        let read: Sequence = read_codes[..read_len].iter().map(|&c| base(c)).collect();
        let quals = Qual::from_raw_scores(&qual_scores[..read_len]).expect("valid Phred range");
        (cands, read, quals)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(96))]

    /// The packed kernel reproduces the scalar reference exactly — min
    /// WHD, winning offset, cycle count, comparison count and pruned
    /// offsets — for every covered config and a fresh random config, on
    /// the ambient dispatched kernel and on every [`KernelKind`] the CPU
    /// supports.
    #[test]
    fn packed_kernel_matches_scalar_reference(
        (cons, read, quals) in pair_inputs(),
        extra_cfg in random_config()
    ) {
        let packed_cons = PackedSequence::from(&cons);
        let packed_read = PackedSequence::from(&read);
        let mut configs = shape_covering_configs();
        configs.push(extra_cfg);
        for cfg in configs {
            let scalar = run_pair(&cons, &read, &quals, cfg);
            let fast = run_pair_fast_packed(&packed_cons, &packed_read, &quals, cfg);
            prop_assert_eq!(
                scalar, fast,
                "dispatched kernel, config {:?} on read_len {} cons_len {}",
                cfg, read.len(), cons.len()
            );
            for kind in KernelKind::available() {
                let forced =
                    run_pair_fast_packed_with(&packed_cons, &packed_read, &quals, kind, cfg);
                prop_assert_eq!(
                    scalar, forced,
                    "kernel {} config {:?} on read_len {} cons_len {}",
                    kind, cfg, read.len(), cons.len()
                );
            }
        }
    }

    /// The structure-of-arrays batch sweep equals per-pair scans
    /// element-wise — ragged candidate counts and lengths, zero-length
    /// reads included — on every available kernel.
    #[test]
    fn batch_sweep_matches_per_pair(
        (cands, read, quals) in batch_inputs(),
        extra_cfg in random_config()
    ) {
        let rows: Vec<&[Base]> = cands.iter().map(|c| c.bases()).collect();
        let block = CandidateBlock::from_bases_rows(&rows);
        let sweep_read = SweepRead::new(read.bases(), &quals);
        let mut configs = vec![HdcConfig::serial(), HdcConfig::data_parallel()];
        configs.push(extra_cfg);
        for cfg in configs {
            let want: Vec<_> = cands
                .iter()
                .map(|c| run_pair(c, &read, &quals, cfg))
                .collect();
            for kind in KernelKind::available() {
                let got = run_read_sweep(&block, &sweep_read, kind, cfg);
                prop_assert_eq!(
                    &got, &want,
                    "kernel {} config {:?}, {} candidates, read_len {}",
                    kind, cfg, cands.len(), read.len()
                );
            }
        }
    }
}

/// The worked Figure 4 example through every covered config — a fixed
/// anchor independent of the random corpus.
#[test]
fn figure4_example_is_shape_invariant() {
    let cons: Sequence = "ACCTGAA".parse().unwrap();
    let read: Sequence = "TGAA".parse().unwrap();
    let quals = Qual::from_raw_scores(&[10, 20, 45, 10]).unwrap();
    let packed_cons = PackedSequence::from(&cons);
    let packed_read = PackedSequence::from(&read);
    for cfg in shape_covering_configs() {
        let scalar = run_pair(&cons, &read, &quals, cfg);
        let fast = run_pair_fast_packed(&packed_cons, &packed_read, &quals, cfg);
        assert_eq!(scalar, fast, "config {cfg:?}");
        for kind in KernelKind::available() {
            let forced = run_pair_fast_packed_with(&packed_cons, &packed_read, &quals, kind, cfg);
            assert_eq!(scalar, forced, "kernel {kind} config {cfg:?}");
        }
        // "TGAA" matches "ACCTGAA" exactly at offset 3 — the sweep's
        // minimum is an exact hit regardless of kernel shape.
        assert_eq!(scalar.min.whd, 0, "Figure 4 sweep minimum WHD");
        assert_eq!(scalar.min.offset, 3, "Figure 4 winning offset");
    }
}

/// A zero-length read sweeps every candidate cleanly on every kernel:
/// one completed scan per offset, zero comparisons, min WHD 0 at offset 0.
#[test]
fn zero_length_read_batch_parity() {
    let cands: Vec<Sequence> = ["ACGTACGT", "TTT", "GGGGGACGTACGTACGTACGT"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let rows: Vec<&[Base]> = cands.iter().map(|c| c.bases()).collect();
    let block = CandidateBlock::from_bases_rows(&rows);
    let quals = Qual::uniform(0, 0).unwrap();
    let empty: Sequence = "".parse().unwrap();
    let sweep_read = SweepRead::new(empty.bases(), &quals);
    for cfg in [HdcConfig::serial(), HdcConfig::data_parallel()] {
        let want: Vec<_> = cands
            .iter()
            .map(|c| run_pair(c, &empty, &quals, cfg))
            .collect();
        for kind in KernelKind::available() {
            let got = run_read_sweep(&block, &sweep_read, kind, cfg);
            assert_eq!(got, want, "kernel {kind} config {cfg:?}");
            for pair in &got {
                assert_eq!(pair.comparisons, 0, "empty read compares nothing");
                assert_eq!(pair.min.whd, 0);
                assert_eq!(pair.min.offset, 0);
            }
        }
    }
}

/// `(cons, read, quals)` from ASCII bases.
fn pair(cons: &str, read: &str, quals: &[u8]) -> (Sequence, Sequence, Qual) {
    (
        cons.parse().unwrap(),
        read.parse().unwrap(),
        Qual::from_raw_scores(quals).unwrap(),
    )
}

/// Runs `kernel::prune_sweep` with pruning and crossing location on, and
/// returns its outcome plus every reported crossing index.
fn crossings(
    kind: KernelKind,
    cons: &Sequence,
    read: &Sequence,
    quals: &Qual,
) -> (PruneSweep, Vec<usize>) {
    let block = CandidateBlock::from_bases_rows(&[cons.bases()]);
    let sweep_read = SweepRead::new(read.bases(), quals);
    let mut found = Vec::new();
    let sweep = prune_sweep(
        kind,
        block.row_padded(0),
        block.len(0),
        &sweep_read,
        true,
        true,
        |c| found.push(c),
    );
    (sweep, found)
}

/// Every kernel reports `want` crossings and the scalar reference's
/// `PairRun` under every covered config.
fn assert_edge_case(name: &str, (cons, read, quals): (Sequence, Sequence, Qual), want: &[usize]) {
    let (pc, pr) = (PackedSequence::from(&cons), PackedSequence::from(&read));
    for kind in KernelKind::available() {
        let (sweep, found) = crossings(kind, &cons, &read, &quals);
        assert_eq!(found, want, "{name}: kernel {kind} crossings");
        assert_eq!(sweep.crossed, want.len() as u64, "{name}: kernel {kind}");
        for cfg in shape_covering_configs() {
            assert_eq!(
                run_pair_fast_packed_with(&pc, &pr, &quals, kind, cfg),
                run_pair(&cons, &read, &quals, cfg),
                "{name}: kernel {kind} config {cfg:?}"
            );
        }
    }
}

/// Crossings at the first and last lane of the first two 64-base chunks:
/// offset 0 matches exactly, so offset 1 crosses at its first mismatch.
#[test]
fn crossing_at_chunk_lane_edges() {
    let n = 192;
    for c in [0usize, 63, 64, 127] {
        let read: String = (0..n).map(|i| if i == c + 1 { 'T' } else { 'A' }).collect();
        let cons = format!("{read}A");
        assert_edge_case(
            &format!("crossing at {c}"),
            pair(&cons, &read, &[30; 192]),
            &[c],
        );
    }
}

/// A running WHD that reaches the bound exactly does not prune — neither
/// inside one chunk nor across a chunk boundary — and one more unit of
/// score at the crossing base does.
#[test]
fn running_whd_equal_to_bound_does_not_prune() {
    // Offset 0 mismatches at bases 63 and 100, offset 1 at 62 and 99.
    let cons = format!("{}C{}C{}", "A".repeat(63), "A".repeat(36), "A".repeat(30));
    let read = "A".repeat(130);
    let tied = vec![40u8; 130];
    assert_edge_case("tie", pair(&cons, &read, &tied), &[]);
    // Offset 1 now totals 81 > 80 and crosses at its second mismatch.
    let mut over = tied;
    over[99] = 41;
    assert_edge_case("tie plus one", pair(&cons, &read, &over), &[99]);
}

/// All-match and all-mismatch windows never cross: every offset ties the
/// first (0 or the read's full score).
#[test]
fn all_match_and_all_mismatch_windows() {
    let read = "A".repeat(150);
    let quals: Vec<u8> = (0..150).map(|i| (i * 7 % 94) as u8).collect();
    assert_edge_case("all match", pair(&"A".repeat(170), &read, &quals), &[]);
    assert_edge_case("all mismatch", pair(&"C".repeat(170), &read, &quals), &[]);
    // Max-score mismatches around one exact window at offset 10: the
    // offsets before it only improve, the ones after it cross at their
    // first `C`, base 149 down to 140.
    let cons = format!("{}{}{}", "C".repeat(10), read, "C".repeat(10));
    assert_edge_case(
        "one exact window",
        pair(&cons, &read, &[MAX_PHRED_SCORE; 150]),
        &(140..150).rev().collect::<Vec<_>>(),
    );
}

/// `N` compares equal to `N` and unequal to every other base, on every
/// kernel.
#[test]
fn n_bases_compare_by_code() {
    let read = "ACGTN".repeat(26);
    // Offset 0 exact; offset 1 shifted, so its first base mismatches.
    assert_edge_case("N read", pair(&format!("{read}N"), &read, &[25; 130]), &[0]);
    let all_n = "N".repeat(100);
    assert_edge_case("all N", pair(&"N".repeat(120), &all_n, &[25; 100]), &[]);
}

/// An empty read completes every offset at WHD 0 on every kernel.
#[test]
fn zero_length_read_prune_sweep() {
    let (cons, read, quals) = pair("ACGTACGT", "", &[]);
    for kind in KernelKind::available() {
        let (sweep, found) = crossings(kind, &cons, &read, &quals);
        assert!(found.is_empty(), "kernel {kind}");
        assert_eq!(
            sweep,
            PruneSweep {
                min_whd: 0,
                min_offset: 0,
                crossed: 0
            },
            "kernel {kind}"
        );
    }
}
