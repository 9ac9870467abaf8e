//! The functional oracle: a memoized front-end over the unit datapath
//! model.
//!
//! The discrete-event backend separates *what* a unit computes (the
//! [`UnitRun`]: grid, outcomes, cycle breakdown) from *when* the schedule
//! makes it happen. The "what" is a pure function of the target and the
//! handful of [`FpgaParams`] fields the datapath reads — so when the same
//! workload is replayed under several configurations that share those
//! fields (e.g. the synchronous and asynchronous schedulers over identical
//! serial parameters), every simulation after the first is a cache hit.
//!
//! The oracle computes through [`simulate_target_fast`], the
//! equivalence-preserving jump-to-outcome kernel, so even cold misses skip
//! per-cycle stepping.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use ir_core::{MinWhd, MinWhdGrid, ReadOutcome};
use ir_genome::RealignmentTarget;

use crate::params::FpgaParams;
use crate::unit::{simulate_target_fast, UnitCycles, UnitRun};

/// The [`FpgaParams`] fields that determine a [`UnitRun`]. Everything else
/// (unit count, clock, DMA, latencies) only moves work around in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TimingKey {
    lanes: usize,
    pruning: bool,
    pair_overhead_cycles: u64,
    bus_bytes: u64,
    /// `compute_overhead` by bit pattern, so the key stays `Eq + Hash`.
    compute_overhead_bits: u64,
}

impl TimingKey {
    fn of(params: &FpgaParams) -> Self {
        TimingKey {
            lanes: params.lanes,
            pruning: params.pruning,
            pair_overhead_cycles: params.pair_overhead_cycles,
            bus_bytes: params.bus_bytes,
            compute_overhead_bits: params.compute_overhead.to_bits(),
        }
    }
}

/// Memoizes [`UnitRun`]s across runs of one fixed workload.
///
/// Targets are identified by their index in the submitted slice, so one
/// oracle serves exactly one workload: create a fresh oracle when the
/// target set changes. Hits return clones — callers (the resilience layer
/// in particular) are free to mutate the returned run.
///
/// # Example
///
/// ```
/// use ir_fpga::{FpgaParams, FunctionalOracle};
/// use ir_genome::{Qual, Read, RealignmentTarget};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let target = RealignmentTarget::builder(20)
///     .reference("CCTTAGA".parse()?)
///     .consensus("ACCTGAA".parse()?)
///     .read(Read::new("r0", "TGAA".parse()?, Qual::from_raw_scores(&[10, 20, 45, 10])?, 0)?)
///     .build()?;
/// let mut oracle = FunctionalOracle::new();
/// let first = oracle.simulate(&target, 0, &FpgaParams::serial());
/// let again = oracle.simulate(&target, 0, &FpgaParams::serial());
/// assert_eq!(first, again);
/// assert_eq!(oracle.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct FunctionalOracle {
    cache: HashMap<(TimingKey, usize), UnitRun>,
}

impl FunctionalOracle {
    /// An empty oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// The [`UnitRun`] for `target` (at `index` in its workload) under
    /// `params` — cached, or computed through the fast kernel and cached.
    pub fn simulate(
        &mut self,
        target: &RealignmentTarget,
        index: usize,
        params: &FpgaParams,
    ) -> UnitRun {
        let key = (TimingKey::of(params), index);
        if let Some(run) = self.cache.get(&key) {
            return run.clone();
        }
        let run = simulate_target_fast(target, params);
        self.cache.insert(key, run.clone());
        run
    }

    /// Populates the cache for every target in `targets` under `params`,
    /// sharding the datapath simulations across `threads` scoped worker
    /// threads (dynamic work-stealing distribution — target cost varies
    /// wildly with shape, so static chunking would straggle).
    ///
    /// Determinism: each [`UnitRun`] is a pure function of its target and
    /// the [`FpgaParams`] timing key, computed by the same
    /// [`simulate_target_fast`] kernel a cold [`Self::simulate`] call
    /// would run, and the workers touch disjoint targets. Results are
    /// merged into the cache in target-index order after every worker has
    /// joined, so a subsequent simulation run over a pre-warmed oracle is
    /// **bitwise identical** to a single-threaded (or entirely unwarmed)
    /// run — the system-level parity is pinned in `tests/event_parity.rs`.
    ///
    /// Already-cached entries are not recomputed, so warming is idempotent
    /// and composes with partially-warmed caches.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or a worker thread panics.
    pub fn precompute(
        &mut self,
        targets: &[RealignmentTarget],
        params: &FpgaParams,
        threads: usize,
    ) {
        assert!(threads > 0, "at least one thread required");
        let key = TimingKey::of(params);
        let missing: Vec<usize> = (0..targets.len())
            .filter(|&i| !self.cache.contains_key(&(key, i)))
            .collect();
        if missing.is_empty() {
            return;
        }
        if threads == 1 || missing.len() == 1 {
            for &i in &missing {
                let run = simulate_target_fast(&targets[i], params);
                self.cache.insert((key, i), run);
            }
            return;
        }

        let next = AtomicUsize::new(0);
        let mut computed: Vec<(usize, UnitRun)> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads.min(missing.len()))
                .map(|_| {
                    let (next, missing) = (&next, &missing);
                    scope.spawn(move |_| {
                        let mut local = Vec::new();
                        loop {
                            let slot = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&i) = missing.get(slot) else {
                                break;
                            };
                            local.push((i, simulate_target_fast(&targets[i], params)));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("oracle worker panicked"))
                .collect()
        })
        .expect("oracle worker threads join");
        // Deterministic merge: insert in target-index order regardless of
        // which worker computed what.
        computed.sort_unstable_by_key(|&(i, _)| i);
        for (i, run) in computed {
            self.cache.insert((key, i), run);
        }
    }

    /// Number of memoized (configuration, target) entries.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// A new oracle holding the entries for `params` at the given global
    /// `indices`, re-keyed to local positions `0..indices.len()`.
    ///
    /// Multi-accelerator sweeps shard one workload across sub-slices whose
    /// targets keep their identity but lose their global index; a warmed
    /// pool oracle projected through `subset` serves each shard without
    /// recomputing anything. Global indices that were never memoized are
    /// simply absent from the projection (they fall back to cold
    /// computation on first use).
    pub fn subset(&self, params: &FpgaParams, indices: &[usize]) -> FunctionalOracle {
        let key = TimingKey::of(params);
        let mut cache = HashMap::with_capacity(indices.len());
        for (local, &global) in indices.iter().enumerate() {
            if let Some(run) = self.cache.get(&(key, global)) {
                cache.insert((key, local), run.clone());
            }
        }
        FunctionalOracle { cache }
    }

    /// Serializes the entries for `params` covering targets
    /// `0..n_targets` into the versioned binary snapshot format, or
    /// `None` if any of those entries has not been memoized yet.
    ///
    /// The encoding is exact — every field of every [`UnitRun`] is an
    /// integer, so [`Self::import_entries`] reconstructs entries that are
    /// `==` to the originals and a run over an imported oracle stays
    /// bitwise identical to a cold run (pinned by the round-trip test
    /// below and by `ir-bench`'s cache integration test).
    pub fn export_entries(&self, params: &FpgaParams, n_targets: usize) -> Option<Vec<u8>> {
        let key = TimingKey::of(params);
        let mut out = Vec::with_capacity(64 + n_targets * 256);
        out.extend_from_slice(SNAPSHOT_MAGIC);
        put_u64(&mut out, SNAPSHOT_VERSION);
        put_key(&mut out, &key);
        put_u64(&mut out, n_targets as u64);
        for i in 0..n_targets {
            let run = self.cache.get(&(key, i))?;
            put_run(&mut out, run);
        }
        Some(out)
    }

    /// Imports a snapshot produced by [`Self::export_entries`] under the
    /// same timing-relevant parameters, returning the number of entries
    /// loaded. The import is all-or-nothing: a magic/version/key mismatch
    /// or a truncated or trailing-garbage payload loads nothing.
    pub fn import_entries(&mut self, params: &FpgaParams, bytes: &[u8]) -> Result<usize, String> {
        let key = TimingKey::of(params);
        let mut r = Reader { bytes, pos: 0 };
        let magic = r.take(SNAPSHOT_MAGIC.len())?;
        if magic != SNAPSHOT_MAGIC {
            return Err("bad oracle snapshot magic".into());
        }
        let version = r.u64()?;
        if version != SNAPSHOT_VERSION {
            return Err(format!("unsupported oracle snapshot version {version}"));
        }
        let stored = read_key(&mut r)?;
        if stored != key {
            return Err("oracle snapshot was built under different timing parameters".into());
        }
        let n = r.usize()?;
        // `n` is untrusted: reserve no more entries than the remaining
        // bytes could hold, so a corrupt count is a decode error rather
        // than an allocation failure.
        let mut entries = Vec::with_capacity(n.min(r.remaining() / MIN_RUN_BYTES));
        for i in 0..n {
            entries.push(((key, i), read_run(&mut r)?));
        }
        if r.pos != bytes.len() {
            return Err("trailing bytes after oracle snapshot payload".into());
        }
        for (k, run) in entries {
            self.cache.insert(k, run);
        }
        Ok(n)
    }
}

/// Magic bytes opening every oracle snapshot.
const SNAPSHOT_MAGIC: &[u8] = b"IRORACLE";
/// Snapshot format version; bump on any layout change.
const SNAPSHOT_VERSION: u64 = 1;
/// Smallest encoded [`UnitRun`]: the eleven fixed `u64` fields
/// [`put_run`] writes for an empty grid.
const MIN_RUN_BYTES: usize = 11 * 8;

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_key(out: &mut Vec<u8>, key: &TimingKey) {
    put_u64(out, key.lanes as u64);
    put_u64(out, u64::from(key.pruning));
    put_u64(out, key.pair_overhead_cycles);
    put_u64(out, key.bus_bytes);
    put_u64(out, key.compute_overhead_bits);
}

fn put_run(out: &mut Vec<u8>, run: &UnitRun) {
    put_u64(out, run.grid.num_consensuses() as u64);
    put_u64(out, run.grid.num_reads() as u64);
    for i in 0..run.grid.num_consensuses() {
        for cell in run.grid.row(i) {
            put_u64(out, cell.whd);
            put_u64(out, cell.offset as u64);
        }
    }
    put_u64(out, run.scores.len() as u64);
    for &s in &run.scores {
        put_u64(out, s);
    }
    put_u64(out, run.best as u64);
    put_u64(out, run.outcomes.len() as u64);
    for o in &run.outcomes {
        let (realign, new_offset, new_pos) = o.into_parts();
        put_u64(out, u64::from(realign));
        put_u64(out, new_offset as u64);
        put_u64(out, new_pos);
    }
    put_u64(out, run.cycles.load);
    put_u64(out, run.cycles.hdc);
    put_u64(out, run.cycles.selector);
    put_u64(out, run.cycles.drain);
    put_u64(out, run.comparisons);
    put_u64(out, run.offsets_pruned);
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or("truncated oracle snapshot")?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn usize(&mut self) -> Result<usize, String> {
        usize::try_from(self.u64()?).map_err(|_| "oversized count in oracle snapshot".into())
    }

    fn bool(&mut self) -> Result<bool, String> {
        match self.u64()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(format!("invalid boolean {v} in oracle snapshot")),
        }
    }
}

fn read_key(r: &mut Reader<'_>) -> Result<TimingKey, String> {
    Ok(TimingKey {
        lanes: r.usize()?,
        pruning: r.bool()?,
        pair_overhead_cycles: r.u64()?,
        bus_bytes: r.u64()?,
        compute_overhead_bits: r.u64()?,
    })
}

fn read_run(r: &mut Reader<'_>) -> Result<UnitRun, String> {
    let num_consensuses = r.usize()?;
    let num_reads = r.usize()?;
    let ncells = num_consensuses
        .checked_mul(num_reads)
        .ok_or("oversized grid in oracle snapshot")?;
    let mut cells = Vec::with_capacity(ncells.min(1 << 20));
    for _ in 0..ncells {
        cells.push(MinWhd {
            whd: r.u64()?,
            offset: r.usize()?,
        });
    }
    let grid = MinWhdGrid::from_cells(num_consensuses, num_reads, cells);
    let nscores = r.usize()?;
    let mut scores = Vec::with_capacity(nscores.min(1 << 20));
    for _ in 0..nscores {
        scores.push(r.u64()?);
    }
    let best = r.usize()?;
    let noutcomes = r.usize()?;
    let mut outcomes = Vec::with_capacity(noutcomes.min(1 << 20));
    for _ in 0..noutcomes {
        let realign = r.bool()?;
        let new_offset = r.usize()?;
        let new_pos = r.u64()?;
        outcomes.push(ReadOutcome::from_parts(realign, new_offset, new_pos));
    }
    let cycles = UnitCycles {
        load: r.u64()?,
        hdc: r.u64()?,
        selector: r.u64()?,
        drain: r.u64()?,
    };
    Ok(UnitRun {
        grid,
        scores,
        best,
        outcomes,
        cycles,
        comparisons: r.u64()?,
        offsets_pruned: r.u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::simulate_target;
    use ir_genome::{Qual, Read};

    fn target() -> RealignmentTarget {
        RealignmentTarget::builder(20)
            .reference("CCTTAGA".parse().unwrap())
            .consensus("ACCTGAA".parse().unwrap())
            .read(
                Read::new(
                    "r0",
                    "TGAA".parse().unwrap(),
                    Qual::from_raw_scores(&[10, 20, 45, 10]).unwrap(),
                    0,
                )
                .unwrap(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn oracle_matches_direct_simulation() {
        let t = target();
        let mut oracle = FunctionalOracle::new();
        for params in [FpgaParams::serial(), FpgaParams::iracc()] {
            assert_eq!(
                oracle.simulate(&t, 0, &params),
                simulate_target(&t, &params)
            );
        }
        assert_eq!(oracle.len(), 2, "distinct timing keys cache separately");
    }

    #[test]
    fn timing_irrelevant_params_share_entries() {
        let t = target();
        let mut oracle = FunctionalOracle::new();
        let serial = FpgaParams::serial();
        let fewer_units = FpgaParams {
            num_units: 4,
            cmd_latency_s: 1e-3,
            ..serial
        };
        let a = oracle.simulate(&t, 0, &serial);
        let b = oracle.simulate(&t, 0, &fewer_units);
        assert_eq!(a, b);
        assert_eq!(oracle.len(), 1, "unit count and latencies don't key");
    }

    /// A small workload of distinct shapes so work-stealing actually
    /// interleaves.
    fn varied_targets() -> Vec<RealignmentTarget> {
        let reads = ["TGAA", "CCTT", "AGAC", "CTTA", "TAGA", "GACC"];
        reads
            .iter()
            .enumerate()
            .map(|(i, r)| {
                RealignmentTarget::builder(i as u64 * 10)
                    .reference("CCTTAGACCTGATTACAGGA".parse().unwrap())
                    .consensus("ACCTGAACCTGATTACAGGA".parse().unwrap())
                    .read(
                        Read::new(
                            "r",
                            r.parse().unwrap(),
                            Qual::from_raw_scores(&[10, 20, 45, 10]).unwrap(),
                            0,
                        )
                        .unwrap(),
                    )
                    .build()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn parallel_precompute_matches_cold_simulation() {
        let targets = varied_targets();
        for params in [FpgaParams::serial(), FpgaParams::iracc()] {
            for threads in [1usize, 2, 3, 8] {
                let mut warm = FunctionalOracle::new();
                warm.precompute(&targets, &params, threads);
                assert_eq!(warm.len(), targets.len(), "{threads} threads");
                let mut cold = FunctionalOracle::new();
                for (i, t) in targets.iter().enumerate() {
                    assert_eq!(
                        warm.simulate(t, i, &params),
                        cold.simulate(t, i, &params),
                        "target {i}, {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn precompute_is_idempotent_and_composes_with_partial_caches() {
        let targets = varied_targets();
        let params = FpgaParams::iracc();
        let mut oracle = FunctionalOracle::new();
        // Seed a partial cache through the normal path…
        let first = oracle.simulate(&targets[2], 2, &params);
        // …then warm the rest in parallel, twice.
        oracle.precompute(&targets, &params, 4);
        oracle.precompute(&targets, &params, 4);
        assert_eq!(oracle.len(), targets.len());
        assert_eq!(oracle.simulate(&targets[2], 2, &params), first);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn precompute_zero_threads_panics() {
        FunctionalOracle::new().precompute(&[], &FpgaParams::serial(), 0);
    }

    #[test]
    fn subset_rekeys_globals_to_locals_and_skips_missing() {
        let targets = varied_targets();
        let params = FpgaParams::iracc();
        let mut pool = FunctionalOracle::new();
        pool.precompute(&targets, &params, 1);
        let indices = [4usize, 1, 5];
        let mut shard = pool.subset(&params, &indices);
        assert_eq!(shard.len(), indices.len());
        for (local, &global) in indices.iter().enumerate() {
            assert_eq!(
                shard.simulate(&targets[global], local, &params),
                pool.simulate(&targets[global], global, &params),
                "local {local} must mirror global {global}"
            );
        }
        // Indices never memoized in the pool just don't project.
        let sparse = FunctionalOracle::new().subset(&params, &[0, 1]);
        assert!(sparse.is_empty());
        // A different timing key projects nothing either.
        assert!(pool.subset(&FpgaParams::serial(), &indices).is_empty());
    }

    #[test]
    fn export_import_round_trips_bit_exactly() {
        let targets = varied_targets();
        for params in [FpgaParams::serial(), FpgaParams::iracc()] {
            let mut warm = FunctionalOracle::new();
            warm.precompute(&targets, &params, 1);
            let bytes = warm
                .export_entries(&params, targets.len())
                .expect("fully warmed oracle exports");
            let mut cold = FunctionalOracle::new();
            let n = cold.import_entries(&params, &bytes).expect("import");
            assert_eq!(n, targets.len());
            for (i, t) in targets.iter().enumerate() {
                assert_eq!(
                    cold.simulate(t, i, &params),
                    warm.simulate(t, i, &params),
                    "target {i}"
                );
            }
        }
    }

    #[test]
    fn export_requires_full_coverage() {
        let targets = varied_targets();
        let params = FpgaParams::serial();
        let mut oracle = FunctionalOracle::new();
        oracle.simulate(&targets[0], 0, &params);
        assert!(oracle.export_entries(&params, targets.len()).is_none());
        assert!(oracle.export_entries(&params, 1).is_some());
    }

    #[test]
    fn import_rejects_corrupt_and_mismatched_snapshots() {
        let targets = varied_targets();
        let params = FpgaParams::serial();
        let mut oracle = FunctionalOracle::new();
        oracle.precompute(&targets, &params, 1);
        let bytes = oracle.export_entries(&params, targets.len()).unwrap();

        let mut fresh = FunctionalOracle::new();
        // Wrong timing key.
        assert!(fresh.import_entries(&FpgaParams::iracc(), &bytes).is_err());
        // Truncation.
        assert!(fresh
            .import_entries(&params, &bytes[..bytes.len() - 1])
            .is_err());
        // Trailing garbage.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(fresh.import_entries(&params, &padded).is_err());
        // Bad magic.
        let mut garbled = bytes.clone();
        garbled[0] ^= 0xFF;
        assert!(fresh.import_entries(&params, &garbled).is_err());
        // Every rejection is all-or-nothing.
        assert!(fresh.is_empty());
        // The pristine payload still loads.
        assert_eq!(
            fresh.import_entries(&params, &bytes).unwrap(),
            targets.len()
        );
    }

    /// A snapshot header claiming `count` entries with no payload behind
    /// it.
    fn snapshot_claiming(params: &FpgaParams, count: u64) -> Vec<u8> {
        let mut bytes = FunctionalOracle::new()
            .export_entries(params, 0)
            .expect("zero entries always export");
        let at = bytes.len() - 8;
        bytes[at..].copy_from_slice(&count.to_le_bytes());
        bytes
    }

    #[test]
    fn import_rejects_absurd_entry_counts_without_allocating() {
        let params = FpgaParams::serial();
        for count in [u64::MAX, 1 << 40] {
            let mut oracle = FunctionalOracle::new();
            let err = oracle
                .import_entries(&params, &snapshot_claiming(&params, count))
                .expect_err("a count the payload cannot hold must not load");
            assert!(
                err.contains("truncated") || err.contains("oversized"),
                "count {count}: {err}"
            );
            assert!(oracle.is_empty());
        }
    }

    #[test]
    fn mutating_a_returned_run_does_not_poison_the_cache() {
        let t = target();
        let mut oracle = FunctionalOracle::new();
        let mut first = oracle.simulate(&t, 0, &FpgaParams::serial());
        first.comparisons = 0;
        first.cycles = Default::default();
        let second = oracle.simulate(&t, 0, &FpgaParams::serial());
        assert_ne!(second.comparisons, 0);
    }
}
