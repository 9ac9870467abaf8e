//! Cross-binary [`FunctionalOracle`] disk cache, keyed by workload
//! content and timing-relevant parameters.
//!
//! Several figure binaries evaluate the *same* deterministic workload
//! under the *same* timing key — `fig9_speedup`, `fig9_cost`,
//! `headline_claims` and `resilience_study` all fold the full Ch1–22
//! bench workload through the IRACC configuration, for example — so
//! within one `run_all_figures.sh` invocation most datapath work after
//! the first binary is re-derivable. This module persists the oracle's
//! memoized [`ir_fpga::unit::UnitRun`]s (an exact, all-integer encoding;
//! see `FunctionalOracle::export_entries`) into the directory named by
//! `IR_ORACLE_CACHE`, so later binaries jump straight to scheduling.
//!
//! Safety properties:
//!
//! - **Opt-in**: without `IR_ORACLE_CACHE` in the environment the cache
//!   is inert and every binary behaves exactly as before. The tier-1
//!   test suite and the parity CI jobs never set it.
//! - **Content-addressed**: each file embeds an FNV-1a fingerprint of
//!   the canonical `tio` serialization of the target set, and the
//!   snapshot payload embeds the timing key; any mismatch (different
//!   scale, different workload shape, stale build writing different
//!   targets) falls back to recomputation and rewrites the entry.
//! - **Bitwise-transparent**: an imported entry reconstructs the exact
//!   `UnitRun` a cold evaluation would produce (pinned by the round-trip
//!   tests in `ir-fpga::oracle` and the integration test below), so
//!   every emitted table and trace is byte-identical with the cache hot,
//!   cold, or disabled. `run_all_figures.sh` wipes the directory at
//!   suite start, so all writers within one run are the same build.

use std::fs;
use std::path::PathBuf;

use ir_fpga::{FpgaParams, FunctionalOracle};
use ir_genome::{tio, RealignmentTarget};

/// Magic bytes opening every cache file (the embedded oracle snapshot
/// carries its own magic + version).
const FILE_MAGIC: &[u8] = b"IRBCACHE";

/// A handle on the shared oracle cache directory (or an inert stub when
/// `IR_ORACLE_CACHE` is unset).
#[derive(Debug, Clone)]
pub struct OracleCache {
    dir: Option<PathBuf>,
}

impl OracleCache {
    /// Binds to the directory named by `IR_ORACLE_CACHE`, creating it if
    /// needed; inert when the variable is unset or empty.
    pub fn from_env() -> Self {
        let dir = std::env::var("IR_ORACLE_CACHE")
            .ok()
            .filter(|d| !d.is_empty())
            .map(PathBuf::from);
        if let Some(d) = &dir {
            let _ = fs::create_dir_all(d);
        }
        OracleCache { dir }
    }

    /// An always-inert cache (every lookup computes).
    pub fn disabled() -> Self {
        OracleCache { dir: None }
    }

    /// Whether a cache directory is bound.
    pub fn is_enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// An oracle fully warmed for `targets` under `params`: loaded from
    /// the cache when a matching entry exists, otherwise precomputed on
    /// `threads` workers and persisted for the next binary in the run.
    ///
    /// `id` names the workload for humans (it becomes part of the file
    /// name); correctness never depends on it — the content fingerprint
    /// and the embedded timing key are what gate a load.
    pub fn load_or_compute(
        &self,
        id: &str,
        targets: &[RealignmentTarget],
        params: &FpgaParams,
        threads: usize,
    ) -> FunctionalOracle {
        let Some(dir) = &self.dir else {
            let mut oracle = FunctionalOracle::new();
            oracle.precompute(targets, params, threads);
            return oracle;
        };
        let content_fp = content_fingerprint(targets);
        let path = dir.join(format!(
            "{}-{:016x}-{:016x}.oracle",
            sanitize(id),
            content_fp,
            params_fingerprint(params),
        ));

        if let Ok(bytes) = fs::read(&path) {
            if let Some(oracle) = decode_file(&bytes, content_fp, params) {
                return oracle;
            }
        }

        let mut oracle = FunctionalOracle::new();
        oracle.precompute(targets, params, threads);
        if let Some(snapshot) = oracle.export_entries(params, targets.len()) {
            let mut file = Vec::with_capacity(FILE_MAGIC.len() + 8 + snapshot.len());
            file.extend_from_slice(FILE_MAGIC);
            file.extend_from_slice(&content_fp.to_le_bytes());
            file.extend_from_slice(&snapshot);
            // Write-to-temp + rename so a concurrent reader never sees a
            // half-written entry; failures only cost the next run a miss.
            let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
            if fs::write(&tmp, &file)
                .and_then(|()| fs::rename(&tmp, &path))
                .is_err()
            {
                let _ = fs::remove_file(&tmp);
            }
        }
        oracle
    }
}

/// Validates a cache file against the expected content fingerprint and
/// timing key; any mismatch or decode failure is a miss.
fn decode_file(bytes: &[u8], content_fp: u64, params: &FpgaParams) -> Option<FunctionalOracle> {
    let payload = bytes.strip_prefix(FILE_MAGIC)?;
    let (fp_bytes, snapshot) = payload.split_first_chunk::<8>()?;
    if u64::from_le_bytes(*fp_bytes) != content_fp {
        return None;
    }
    let mut oracle = FunctionalOracle::new();
    oracle.import_entries(params, snapshot).ok()?;
    Some(oracle)
}

/// FNV-1a over the canonical `tio` serialization of the target set.
fn content_fingerprint(targets: &[RealignmentTarget]) -> u64 {
    let mut bytes = Vec::new();
    tio::write_targets(&mut bytes, targets).expect("Vec<u8> writer cannot fail");
    fnv1a(&bytes)
}

/// FNV-1a over the timing-relevant [`FpgaParams`] fields — the same five
/// fields the oracle keys on (the snapshot embeds and re-verifies them;
/// this fingerprint only keeps distinct configurations in distinct
/// files).
fn params_fingerprint(params: &FpgaParams) -> u64 {
    let mut bytes = Vec::with_capacity(40);
    bytes.extend_from_slice(&(params.lanes as u64).to_le_bytes());
    bytes.extend_from_slice(&u64::from(params.pruning).to_le_bytes());
    bytes.extend_from_slice(&params.pair_overhead_cycles.to_le_bytes());
    bytes.extend_from_slice(&params.bus_bytes.to_le_bytes());
    bytes.extend_from_slice(&params.compute_overhead.to_bits().to_le_bytes());
    fnv1a(&bytes)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Keeps file names portable: alphanumerics, `-`, `_`, `.`; everything
/// else becomes `_`.
fn sanitize(id: &str) -> String {
    id.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_workload;
    use ir_fpga::{AcceleratedSystem, Scheduling};

    fn targets() -> Vec<RealignmentTarget> {
        bench_workload(2e-4)
            .chromosome(ir_genome::Chromosome::Autosome(20))
            .targets
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ir-oracle-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp cache dir");
        dir
    }

    fn cache_at(dir: &std::path::Path) -> OracleCache {
        OracleCache {
            dir: Some(dir.to_path_buf()),
        }
    }

    #[test]
    fn disabled_cache_is_inert_and_correct() {
        let targets = targets();
        let cache = OracleCache::disabled();
        assert!(!cache.is_enabled());
        let params = FpgaParams::iracc();
        let mut oracle = cache.load_or_compute("t", &targets, &params, 1);
        assert_eq!(oracle.len(), targets.len());
        let sys = AcceleratedSystem::new(params, Scheduling::Asynchronous).expect("fits");
        let via = sys.run_with_oracle(&targets, &mut oracle);
        let direct = sys.run(&targets);
        assert_eq!(via.wall_time_s.to_bits(), direct.wall_time_s.to_bits());
    }

    #[test]
    fn cache_round_trip_is_bitwise_transparent() {
        let targets = targets();
        let dir = tempdir("roundtrip");
        let cache = cache_at(&dir);
        let params = FpgaParams::iracc();
        let sys = AcceleratedSystem::new(params, Scheduling::Asynchronous).expect("fits");
        let direct = sys.run(&targets);

        // Cold: computes and persists.
        let mut cold = cache.load_or_compute("chr20", &targets, &params, 1);
        let entries: Vec<_> = fs::read_dir(&dir).unwrap().collect();
        assert_eq!(entries.len(), 1, "one persisted entry");
        let cold_run = sys.run_with_oracle(&targets, &mut cold);

        // Hot: loads the persisted entry — same bits end to end.
        let mut hot = cache.load_or_compute("chr20", &targets, &params, 1);
        assert_eq!(hot.len(), targets.len());
        let hot_run = sys.run_with_oracle(&targets, &mut hot);
        for run in [&cold_run, &hot_run] {
            assert_eq!(run.wall_time_s.to_bits(), direct.wall_time_s.to_bits());
            assert_eq!(run.comparisons, direct.comparisons);
            assert_eq!(run.compute_cycles, direct.compute_cycles);
            for (a, b) in run.results.iter().zip(&direct.results) {
                assert_eq!(a, b);
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn content_or_params_change_misses() {
        let targets = targets();
        let dir = tempdir("miss");
        let cache = cache_at(&dir);
        let params = FpgaParams::iracc();
        let _ = cache.load_or_compute("w", &targets, &params, 1);
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);

        // Different timing key → distinct file, both valid.
        let _ = cache.load_or_compute("w", &targets, &FpgaParams::serial(), 1);
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 2);

        // Different content under the same id → distinct file again.
        let fewer = &targets[..targets.len() - 1];
        let _ = cache.load_or_compute("w", fewer, &params, 1);
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn absurd_entry_count_is_a_miss() {
        let params = FpgaParams::iracc();
        for count in [u64::MAX, 1 << 40] {
            let mut snapshot = FunctionalOracle::new()
                .export_entries(&params, 0)
                .expect("zero entries always export");
            let at = snapshot.len() - 8;
            snapshot[at..].copy_from_slice(&count.to_le_bytes());
            let mut file = FILE_MAGIC.to_vec();
            file.extend_from_slice(&7u64.to_le_bytes());
            file.extend_from_slice(&snapshot);
            assert!(decode_file(&file, 7, &params).is_none(), "count {count}");
        }
    }

    #[test]
    fn corrupt_entry_falls_back_to_recompute() {
        let targets = targets();
        let dir = tempdir("corrupt");
        let cache = cache_at(&dir);
        let params = FpgaParams::iracc();
        let _ = cache.load_or_compute("w", &targets, &params, 1);
        let entry = fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let mut bytes = fs::read(&entry).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&entry, &bytes).unwrap();

        let mut oracle = cache.load_or_compute("w", &targets, &params, 1);
        assert_eq!(oracle.len(), targets.len());
        let sys = AcceleratedSystem::new(params, Scheduling::Asynchronous).expect("fits");
        let via = sys.run_with_oracle(&targets, &mut oracle);
        let direct = sys.run(&targets);
        assert_eq!(via.wall_time_s.to_bits(), direct.wall_time_s.to_bits());
        let _ = fs::remove_dir_all(&dir);
    }
}
