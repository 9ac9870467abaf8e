//! Replays the checked-in fuzz corpus as a regression suite.
//!
//! Every case under `fuzz/corpus/seeds/` and `fuzz/corpus/discovered/`
//! runs through the full differential executor. Seeds are expected to be
//! divergence-free; a discovered case is a minimized reproducer of a bug
//! that has since been fixed, so it must be divergence-free too — if a
//! regression resurrects the divergence, this test names the exact case
//! file and signature.
//!
//! Each seed's outcome fingerprint is also pinned against
//! `tests/fixtures/fuzz_seed_fingerprints.txt`. The fingerprint hashes
//! what the stages computed (the scalar `run_pair` result per pair, the
//! engine's full run, the service reports), not which backend pairs were
//! compared, so it must not move when the executor's comparisons are
//! rewired — and, since every kernel produces the same `PairRun`, not
//! under a forced `IR_KERNEL` either.

use ir_system::fuzz::corpus::{load_dir, DISCOVERED_DIR, SEEDS_DIR};
use ir_system::fuzz::{execute, FuzzInput};
use std::path::Path;

const SEED_FINGERPRINTS: &str = include_str!("fixtures/fuzz_seed_fingerprints.txt");

fn corpus_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fuzz/corpus")
}

#[test]
fn seed_corpus_is_present() {
    let seeds = load_dir(&corpus_root().join(SEEDS_DIR)).expect("seeds load");
    assert!(
        seeds.len() >= 5,
        "expected at least 5 checked-in seed cases, found {}",
        seeds.len()
    );
}

#[test]
fn corpus_encoding_roundtrips() {
    for sub in [SEEDS_DIR, DISCOVERED_DIR] {
        for (name, input) in load_dir(&corpus_root().join(sub)).expect("corpus load") {
            let reencoded = input.encode();
            let redecoded = FuzzInput::decode(&reencoded)
                .unwrap_or_else(|e| panic!("{sub}/{name}: re-decode failed: {e}"));
            assert_eq!(
                redecoded.encode(),
                reencoded,
                "{sub}/{name}: encode/decode is not a fixpoint"
            );
        }
    }
}

#[test]
fn corpus_replays_divergence_free() {
    let mut replayed = 0usize;
    for sub in [SEEDS_DIR, DISCOVERED_DIR] {
        for (name, input) in load_dir(&corpus_root().join(sub)).expect("corpus load") {
            let outcome = execute(&input);
            assert!(
                outcome.is_clean(),
                "{sub}/{name} diverged: {:?}",
                outcome
                    .mismatches
                    .iter()
                    .map(|m| (&m.signature, &m.detail))
                    .collect::<Vec<_>>()
            );
            replayed += 1;
        }
    }
    assert!(replayed >= 5, "replayed only {replayed} cases");
}

#[test]
fn corpus_replay_is_deterministic() {
    for (name, input) in load_dir(&corpus_root().join(SEEDS_DIR)).expect("seeds load") {
        let a = execute(&input);
        let b = execute(&input);
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "{name}: outcome fingerprint varies between identical replays"
        );
    }
}

#[test]
fn seed_fingerprints_match_fixture() {
    let mut want: Vec<(&str, &str)> = SEED_FINGERPRINTS
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_once(' ').expect("`<case> <fingerprint>` line"))
        .collect();
    want.sort();
    let mut got: Vec<(String, String)> = load_dir(&corpus_root().join(SEEDS_DIR))
        .expect("seeds load")
        .into_iter()
        .map(|(name, input)| (name, format!("{:016x}", execute(&input).fingerprint)))
        .collect();
    got.sort();
    assert_eq!(
        got.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
        want.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        "seed set differs from the fingerprint fixture"
    );
    for ((name, fp), (_, frozen)) in got.iter().zip(&want) {
        assert_eq!(fp, frozen, "{name}: outcome fingerprint changed");
    }
}
