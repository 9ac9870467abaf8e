//! Runtime-dispatched explicit-SIMD weighted-mismatch fold kernels.
//!
//! Every weighted-Hamming-distance evaluation in this crate bottoms out in
//! the same primitive: compare two equal-length byte-code windows and sum
//! the quality scores at the mismatching positions. This module provides
//! that primitive at five ISA levels — [`KernelKind::Scalar`] (the
//! reference loop), [`KernelKind::Swar`] (portable 8-bytes-per-`u64`
//! SIMD-within-a-register), [`KernelKind::Avx2`] / [`KernelKind::Avx512`]
//! (`std::arch` x86 intrinsics) and [`KernelKind::Neon`] (aarch64) — and
//! picks the widest one the running CPU supports, once, at first use.
//!
//! All kernels operate on the byte-per-base code representation
//! ([`ir_genome::base_code`]: `A=1 … N=5`, `0` = padding) and compute the
//! **exact same integers**: mismatch selection is an equality compare and
//! the accumulation is an exact unsigned sum, so there is no rounding or
//! reassociation to diverge on. The differential proptests at the bottom
//! of this module pin every available kernel to the scalar reference
//! byte-for-byte.
//!
//! The active kernel can be forced with the `IR_KERNEL` environment
//! variable (`scalar`, `swar`, `avx2`, `avx512`, `neon`). Naming a kernel
//! the CPU cannot run is not fatal: dispatch falls back to the widest
//! available kernel and records a typed [`KernelError`] that diagnostics
//! (e.g. `ir-cli kernel`) can surface.
//!
//! # SIMD lane layout
//!
//! ```text
//! consensus window  w₀ w₁ w₂ … w₆₃   (one byte code per base)
//! read              r₀ r₁ r₂ … r₆₃
//! scores            s₀ s₁ s₂ … s₆₃   (Phred, one byte per base)
//!
//! neq  = cmpneq(w, r)                 per-lane 0x00 / 0xFF (or a bitmask)
//! sel  = s & neq                      scores where the bases differ
//! sum += sad(sel, 0)                  horizontal byte sum, exact in u64
//! ```
//!
//! AVX-512 runs the diagram 64 lanes at a time with fault-suppressing
//! masked loads for the tail; AVX2 runs 32 lanes with a scalar tail; NEON
//! 16 lanes; SWAR 8 lanes per `u64` with the classic has-zero-byte trick.
//!
//! # The pruned offset sweep
//!
//! [`prune_sweep`] runs a whole (candidate, read) offset sweep against the
//! HDC's pruning bound. Per 64-base chunk it folds `sel` as above and,
//! only when the chunk takes the running WHD past the bound, locates the
//! crossing base inside the chunk:
//!
//! ```text
//! g    = sad(sel, 0)                  eight 8-lane group sums
//! G    = inclusive prefix of g        three shift-adds across u64 lanes
//! grp  = first i with Gᵢ > rem        one unsigned compare → bitmask
//! P    = u16 prefix of sel[grp]       shift-adds within one 8-lane group
//! lane = 8·grp + first j with Pⱼ > rem − G_(grp−1)
//! ```
//!
//! AVX-512 runs that in-vector; AVX2 sums its two 32-lane halves, finds
//! the group with a branch-free count and shares the u16 group step.
//! Scalar, SWAR and NEON fold a word (8, 8 and 16 lanes) at a time and
//! count lanes in the word that crosses.

use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

use crate::batch::{SweepRead, ROW_PAD};

/// One of the available weighted-mismatch fold implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelKind {
    /// The reference byte-at-a-time loop. Always available.
    Scalar,
    /// SIMD-within-a-register over `u64` words (8 bases per word-op).
    /// Always available — the portable fallback.
    Swar,
    /// 256-bit `std::arch` x86 kernel (32 bases per vector-op).
    Avx2,
    /// 512-bit `std::arch` x86 kernel (64 bases per vector-op, masked
    /// loads for tails).
    Avx512,
    /// 128-bit aarch64 kernel (16 bases per vector-op).
    Neon,
}

impl KernelKind {
    /// Every kernel kind, narrowest first.
    pub const ALL: [KernelKind; 5] = [
        KernelKind::Scalar,
        KernelKind::Swar,
        KernelKind::Avx2,
        KernelKind::Avx512,
        KernelKind::Neon,
    ];

    /// Whether the running CPU can execute this kernel.
    pub fn is_available(self) -> bool {
        match self {
            KernelKind::Scalar | KernelKind::Swar => true,
            KernelKind::Avx2 => {
                #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(any(target_arch = "x86_64", target_arch = "x86")))]
                {
                    false
                }
            }
            KernelKind::Avx512 => {
                #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
                {
                    std::arch::is_x86_feature_detected!("avx512f")
                        && std::arch::is_x86_feature_detected!("avx512bw")
                }
                #[cfg(not(any(target_arch = "x86_64", target_arch = "x86")))]
                {
                    false
                }
            }
            KernelKind::Neon => {
                #[cfg(target_arch = "aarch64")]
                {
                    std::arch::is_aarch64_feature_detected!("neon")
                }
                #[cfg(not(target_arch = "aarch64"))]
                {
                    false
                }
            }
        }
    }

    /// The kernels the running CPU can execute, narrowest first (always
    /// starts `[Scalar, Swar, ..]`).
    pub fn available() -> Vec<KernelKind> {
        KernelKind::ALL
            .into_iter()
            .filter(|k| k.is_available())
            .collect()
    }

    /// The widest kernel the running CPU supports
    /// (`Avx512 > Avx2 > Neon > Swar`).
    pub fn best_available() -> KernelKind {
        for kind in [KernelKind::Avx512, KernelKind::Avx2, KernelKind::Neon] {
            if kind.is_available() {
                return kind;
            }
        }
        KernelKind::Swar
    }

    /// The natural chunk width (in bases) for incremental scans: the
    /// vector width of the kernel, or one `u64`-pair for the scalar/SWAR
    /// fallbacks. Results never depend on this — any chunking yields the
    /// same fold — it only sets how much work an early-exit scan does per
    /// bound check.
    pub fn preferred_block(self) -> usize {
        match self {
            KernelKind::Scalar | KernelKind::Swar => 16,
            KernelKind::Neon => 16,
            KernelKind::Avx2 => 32,
            KernelKind::Avx512 => 64,
        }
    }

    /// The kebab-case name used by `IR_KERNEL` and displayed in
    /// diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Swar => "swar",
            KernelKind::Avx2 => "avx2",
            KernelKind::Avx512 => "avx512",
            KernelKind::Neon => "neon",
        }
    }
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for KernelKind {
    type Err = KernelError;

    fn from_str(s: &str) -> Result<Self, KernelError> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(KernelKind::Scalar),
            "swar" => Ok(KernelKind::Swar),
            "avx2" => Ok(KernelKind::Avx2),
            "avx512" | "avx-512" => Ok(KernelKind::Avx512),
            "neon" => Ok(KernelKind::Neon),
            other => Err(KernelError::Unknown {
                name: other.to_string(),
            }),
        }
    }
}

/// A kernel-dispatch problem. Never fatal: dispatch always falls back to
/// a kernel that runs, carrying the error as a diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// `IR_KERNEL` named something that is not a kernel.
    Unknown {
        /// The unrecognized name, lower-cased.
        name: String,
    },
    /// `IR_KERNEL` named a kernel this CPU cannot execute.
    Unavailable {
        /// The kernel that was asked for.
        requested: KernelKind,
        /// The kernel dispatch fell back to.
        fallback: KernelKind,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Unknown { name } => write!(
                f,
                "unknown kernel {name:?} (expected scalar, swar, avx2, avx512 or neon)"
            ),
            KernelError::Unavailable {
                requested,
                fallback,
            } => write!(
                f,
                "kernel {requested} is unavailable on this CPU; falling back to {fallback}"
            ),
        }
    }
}

impl std::error::Error for KernelError {}

/// Parses `IR_KERNEL` without consulting CPU availability. `Ok(None)`
/// when the variable is unset or empty.
///
/// # Errors
///
/// [`KernelError::Unknown`] if the variable holds an unrecognized name.
pub fn requested_from_env() -> Result<Option<KernelKind>, KernelError> {
    match std::env::var("IR_KERNEL") {
        Ok(v) if !v.trim().is_empty() => v.parse().map(Some),
        _ => Ok(None),
    }
}

/// Resolves a parsed `IR_KERNEL` request against CPU availability: the
/// kernel to run, plus the typed diagnostic if the request could not be
/// honored (graceful fallback, never a panic).
pub fn resolve(
    request: Result<Option<KernelKind>, KernelError>,
) -> (KernelKind, Option<KernelError>) {
    match request {
        Ok(None) => (KernelKind::best_available(), None),
        Ok(Some(kind)) if kind.is_available() => (kind, None),
        Ok(Some(kind)) => {
            let fallback = KernelKind::best_available();
            (
                fallback,
                Some(KernelError::Unavailable {
                    requested: kind,
                    fallback,
                }),
            )
        }
        Err(err) => (KernelKind::best_available(), Some(err)),
    }
}

fn dispatch() -> &'static (KernelKind, Option<KernelError>) {
    static DISPATCH: OnceLock<(KernelKind, Option<KernelError>)> = OnceLock::new();
    DISPATCH.get_or_init(|| resolve(requested_from_env()))
}

/// The kernel every ambient consumer dispatches to: `IR_KERNEL` if set
/// and runnable, else the widest available. Detection and the environment
/// read happen once per process.
pub fn active() -> KernelKind {
    dispatch().0
}

/// The diagnostic recorded when `IR_KERNEL` could not be honored (unknown
/// name or unavailable ISA), if any. [`active`] is still a runnable
/// kernel in that case — this is how tooling reports the downgrade.
pub fn active_diagnostic() -> Option<&'static KernelError> {
    dispatch().1.as_ref()
}

/// The weighted mismatch fold: `Σ scores[i]` over positions where
/// `win[i] != read[i]`. All three slices must have equal length. Every
/// [`KernelKind`] returns the exact same value.
///
/// # Panics
///
/// Panics if the slice lengths differ, or if `kind` cannot run on this
/// CPU (ambient callers should pass [`active`], which always can).
pub fn fold_whd(kind: KernelKind, win: &[u8], read: &[u8], scores: &[u8]) -> u64 {
    assert_eq!(win.len(), read.len(), "window/read length mismatch");
    assert_eq!(scores.len(), read.len(), "scores/read length mismatch");
    match kind {
        KernelKind::Scalar => fold_scalar(win, read, scores),
        KernelKind::Swar => fold_swar(win, read, scores),
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        KernelKind::Avx2 => {
            assert_available(kind);
            // SAFETY: `assert_available` verified AVX2 at runtime.
            unsafe { x86::fold_avx2(win, read, scores) }
        }
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        KernelKind::Avx512 => {
            assert_available(kind);
            // SAFETY: `assert_available` verified AVX-512F/BW at runtime.
            unsafe { x86::fold_avx512(win, read, scores) }
        }
        #[cfg(target_arch = "aarch64")]
        KernelKind::Neon => {
            assert_available(kind);
            // SAFETY: `assert_available` verified NEON at runtime.
            unsafe { aarch64::fold_neon(win, read, scores) }
        }
        #[allow(unreachable_patterns)]
        other => unavailable(other),
    }
}

/// [`fold_whd`] plus the mismatch count: `(Σ scores[i], #{i})` over the
/// mismatching positions — the pair the bounded sweeps need to charge
/// exact `accumulations`. Every [`KernelKind`] returns the same values.
///
/// # Panics
///
/// As [`fold_whd`].
pub fn fold_whd_counted(kind: KernelKind, win: &[u8], read: &[u8], scores: &[u8]) -> (u64, u64) {
    assert_eq!(win.len(), read.len(), "window/read length mismatch");
    assert_eq!(scores.len(), read.len(), "scores/read length mismatch");
    match kind {
        KernelKind::Scalar => fold_scalar_counted(win, read, scores),
        KernelKind::Swar => fold_swar_counted(win, read, scores),
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        KernelKind::Avx2 => {
            assert_available(kind);
            // SAFETY: `assert_available` verified AVX2 at runtime.
            unsafe { x86::fold_avx2_counted(win, read, scores) }
        }
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        KernelKind::Avx512 => {
            assert_available(kind);
            // SAFETY: `assert_available` verified AVX-512F/BW at runtime.
            unsafe { x86::fold_avx512_counted(win, read, scores) }
        }
        #[cfg(target_arch = "aarch64")]
        KernelKind::Neon => {
            assert_available(kind);
            // SAFETY: `assert_available` verified NEON at runtime.
            unsafe { aarch64::fold_neon_counted(win, read, scores) }
        }
        #[allow(unreachable_patterns)]
        other => unavailable(other),
    }
}

/// Lanes per [`prune_sweep`] chunk: one AVX-512 vector, and the
/// [`ROW_PAD`] multiple every [`SweepRead`] lane array is padded to.
const CHUNK: usize = ROW_PAD;

/// Outcome of one [`prune_sweep`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruneSweep {
    /// Minimum full WHD over the offsets that never crossed their bound.
    pub min_whd: u64,
    /// Offset achieving `min_whd` (first on ties).
    pub min_offset: usize,
    /// Offsets whose running WHD crossed their bound.
    pub crossed: u64,
}

/// The offset sweep of one (candidate, read) pair with the HDC's pruning
/// bound: the bound at offset `k` is the minimum full WHD over the
/// offsets before `k` that never crossed theirs (`u64::MAX` without
/// `prune`), and offset `k` *crosses* when its full WHD exceeds that
/// bound. Each crossed offset is reported to `on_cross` (when `locate`)
/// with its **crossing index** `c`: the first base at which the running
/// sum of mismatch scores exceeds the bound. Scores are non-negative, so
/// `c` — and every pruning cost derived from it — does not depend on how
/// the scan is chunked.
///
/// Each 64-base chunk is one masked compare that selects the scores of
/// the mismatching bases, and one horizontal sum. Only a chunk whose sum
/// takes the running WHD past the bound is searched for `c`, in-vector
/// and without a branch per mismatch. An offset whose read cannot reach
/// the bound even if every base mismatches is folded without any bound
/// check. The whole offset loop runs inside the ISA's
/// `#[target_feature]` scope, so nothing is dispatched per offset.
///
/// `row` is the candidate's padded row (commonly
/// [`CandidateBlock::row_padded`]); `row[..row_len]` is the candidate and
/// windows run past it into the padding, where the read's zero-score
/// padding lanes make them contribute nothing.
///
/// [`CandidateBlock::row_padded`]: crate::batch::CandidateBlock::row_padded
///
/// # Panics
///
/// Panics if the read is longer than `row_len`, if `row` is too short to
/// hold a padded read window at every offset, or if `kind` cannot run on
/// this CPU.
pub fn prune_sweep(
    kind: KernelKind,
    row: &[u8],
    row_len: usize,
    read: &SweepRead,
    prune: bool,
    locate: bool,
    on_cross: impl FnMut(usize),
) -> PruneSweep {
    assert!(read.len() <= row_len, "read longer than consensus");
    assert!(
        row.len() >= row_len - read.len() + read.padded_len(),
        "candidate row lacks window padding"
    );
    let sweep = Sweep {
        row,
        offsets: row_len - read.len() + 1,
        read,
        prune,
        locate,
    };
    match kind {
        KernelKind::Scalar => sweep.run(on_cross, fold_scalar, |w, r, s, rem| {
            scan_portable::<8>(fold_scalar, w, r, s, rem)
        }),
        KernelKind::Swar => sweep.run(on_cross, fold_swar, |w, r, s, rem| {
            scan_portable::<8>(fold_swar, w, r, s, rem)
        }),
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        KernelKind::Avx2 => {
            assert_available(kind);
            // SAFETY: `assert_available` verified AVX2 at runtime, and
            // the asserts above keep every chunk load inside `row` and the
            // read's padded lane arrays.
            unsafe { x86::prune_sweep_avx2(&sweep, on_cross) }
        }
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        KernelKind::Avx512 => {
            assert_available(kind);
            // SAFETY: as above, for AVX-512F/BW.
            unsafe { x86::prune_sweep_avx512(&sweep, on_cross) }
        }
        #[cfg(target_arch = "aarch64")]
        KernelKind::Neon => {
            assert_available(kind);
            // SAFETY: `assert_available` verified NEON at runtime.
            unsafe { aarch64::prune_sweep_neon(&sweep, on_cross) }
        }
        #[allow(unreachable_patterns)]
        other => unavailable(other),
    }
}

/// What a chunk scan found: the chunk's weighted mismatch sum, or the
/// lane at which the running WHD crossed the bound.
type ChunkScan = Result<u64, usize>;

/// One validated [`prune_sweep`] call.
struct Sweep<'a> {
    row: &'a [u8],
    offsets: usize,
    read: &'a SweepRead,
    prune: bool,
    locate: bool,
}

impl Sweep<'_> {
    /// The offset loop shared by every ISA, monomorphized over the ISA's
    /// fold (`win, read, scores -> Σ`) and chunk scan (`win, read,
    /// scores, rem -> ChunkScan`, crossing when the chunk's prefix sum
    /// exceeds `rem`) so both inline; the `#[target_feature]` wrappers
    /// instantiate it inside their feature scope.
    #[inline(always)]
    fn run(
        &self,
        mut on_cross: impl FnMut(usize),
        fold: impl Fn(&[u8], &[u8], &[u8]) -> u64,
        scan: impl Fn(&[u8], &[u8], &[u8], u64) -> ChunkScan,
    ) -> PruneSweep {
        let codes = self.read.codes_padded();
        let scores = self.read.scores_padded();
        let n_pad = codes.len();
        let read_total: u64 = scores.iter().map(|&s| u64::from(s)).sum();
        let mut out = PruneSweep {
            min_whd: u64::MAX,
            min_offset: 0,
            crossed: 0,
        };
        for k in 0..self.offsets {
            let win = &self.row[k..k + n_pad];
            let bound = if self.prune { out.min_whd } else { u64::MAX };
            let whd = if read_total <= bound {
                // Not even an all-mismatch window reaches the bound.
                fold(win, codes, scores)
            } else {
                let mut whd = 0u64;
                let mut crossing = None;
                for at in (0..n_pad).step_by(CHUNK) {
                    let chunk = at..at + CHUNK;
                    let (w, r, s) = (&win[chunk.clone()], &codes[chunk.clone()], &scores[chunk]);
                    // `whd <= bound` holds until a chunk crosses.
                    let rem = bound - whd;
                    let step = if self.locate {
                        scan(w, r, s, rem)
                    } else {
                        match fold(w, r, s) {
                            sum if sum > rem => Err(0),
                            sum => Ok(sum),
                        }
                    };
                    match step {
                        Ok(sum) => whd += sum,
                        Err(lane) => {
                            crossing = Some(at + lane);
                            break;
                        }
                    }
                }
                if let Some(c) = crossing {
                    out.crossed += 1;
                    if self.locate {
                        on_cross(c);
                    }
                    continue;
                }
                whd
            };
            if whd < out.min_whd {
                out.min_whd = whd;
                out.min_offset = k;
            }
        }
        out
    }
}

/// The portable chunk scan, a `GROUP`-lane word at a time: the ISA's
/// fold sums the word, and only the word that crosses is searched with
/// [`locate_portable`].
#[inline(always)]
fn scan_portable<const GROUP: usize>(
    fold: impl Fn(&[u8], &[u8], &[u8]) -> u64,
    win: &[u8],
    read: &[u8],
    scores: &[u8],
    rem: u64,
) -> ChunkScan {
    let mut sum = 0u64;
    for at in (0..CHUNK).step_by(GROUP) {
        let word = at..at + GROUP;
        let (w, r, s) = (&win[word.clone()], &read[word.clone()], &scores[word]);
        let word_sum = fold(w, r, s);
        if sum + word_sum > rem {
            return Err(at + locate_portable(w, r, s, rem - sum));
        }
        sum += word_sum;
    }
    Ok(sum)
}

/// The first lane whose prefix sum of mismatch scores exceeds `rem`.
/// The prefix never decreases, so that lane's index is the number of
/// lanes whose prefix is still `<= rem` — a count, with no branch per
/// mismatch.
#[inline(always)]
fn locate_portable(win: &[u8], read: &[u8], scores: &[u8], rem: u64) -> usize {
    let mut prefix = 0u64;
    let mut lane = 0usize;
    for i in 0..read.len() {
        prefix += u64::from(win[i] != read[i]) * u64::from(scores[i]);
        lane += usize::from(prefix <= rem);
    }
    lane
}

#[inline]
fn assert_available(kind: KernelKind) {
    assert!(
        kind.is_available(),
        "kernel {kind} is unavailable on this CPU"
    );
}

#[cold]
fn unavailable(kind: KernelKind) -> ! {
    panic!("kernel {kind} is unavailable on this CPU")
}

// ---------------------------------------------------------------------------
// Scalar reference.
// ---------------------------------------------------------------------------

#[inline]
fn fold_scalar(win: &[u8], read: &[u8], scores: &[u8]) -> u64 {
    let mut sum = 0u64;
    for i in 0..read.len() {
        sum += u64::from(win[i] != read[i]) * u64::from(scores[i]);
    }
    sum
}

fn fold_scalar_counted(win: &[u8], read: &[u8], scores: &[u8]) -> (u64, u64) {
    let mut sum = 0u64;
    let mut count = 0u64;
    for i in 0..read.len() {
        let neq = u64::from(win[i] != read[i]);
        sum += neq * u64::from(scores[i]);
        count += neq;
    }
    (sum, count)
}

// ---------------------------------------------------------------------------
// SWAR: 8 byte-lanes per u64, no platform intrinsics.
// ---------------------------------------------------------------------------

const SWAR_LO: u64 = 0x0101_0101_0101_0101;
const SWAR_HI: u64 = 0x8080_8080_8080_8080;

/// One 8-lane step: `(score sum, mismatch count)` for the byte group.
/// Lane `i` mismatches when byte `i` of `x = a ^ b` is non-zero; a
/// carry-free per-byte non-zero test marks those lanes, a shift-subtract
/// spreads the marks to full-byte masks, and the multiply folds sum the
/// selected score bytes (≤ 8 × 255, no carry between the u16 lanes).
#[inline]
fn swar_group(a: u64, b: u64, s: u64) -> (u64, u64) {
    let x = a ^ b;
    // Per-byte non-zero, with no cross-byte borrows (unlike the classic
    // has-zero-byte subtract): adding 0x7F to the low 7 bits sets bit 7
    // exactly when they are non-zero, and OR-ing `x` back in covers the
    // bytes whose own bit 7 is set. Each byte stays ≤ 0xFE, so lanes
    // cannot carry into each other.
    let nonzero = ((x & !SWAR_HI) + !SWAR_HI) | x;
    // 0x01 per mismatching byte.
    let marks = (nonzero & SWAR_HI) >> 7;
    // 0x01 → 0xFF per byte (bytes are 0/1, so no cross-byte borrow).
    let mask = (marks << 8).wrapping_sub(marks);
    let sel = s & mask;
    let pairs = (sel & 0x00FF_00FF_00FF_00FF) + ((sel >> 8) & 0x00FF_00FF_00FF_00FF);
    let sum = pairs.wrapping_mul(0x0001_0001_0001_0001) >> 48;
    let count = marks.wrapping_mul(SWAR_LO) >> 56;
    (sum, count)
}

#[inline]
fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte group"))
}

#[inline]
fn fold_swar(win: &[u8], read: &[u8], scores: &[u8]) -> u64 {
    fold_swar_counted(win, read, scores).0
}

#[inline]
fn fold_swar_counted(win: &[u8], read: &[u8], scores: &[u8]) -> (u64, u64) {
    let n = read.len();
    let mut sum = 0u64;
    let mut count = 0u64;
    let mut i = 0usize;
    while i + 8 <= n {
        let (s, c) = swar_group(
            le_word(&win[i..i + 8]),
            le_word(&read[i..i + 8]),
            le_word(&scores[i..i + 8]),
        );
        sum += s;
        count += c;
        i += 8;
    }
    while i < n {
        let neq = u64::from(win[i] != read[i]);
        sum += neq * u64::from(scores[i]);
        count += neq;
        i += 1;
    }
    (sum, count)
}

// ---------------------------------------------------------------------------
// x86 / x86_64 intrinsic kernels.
// ---------------------------------------------------------------------------

#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
mod x86 {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    use super::{ChunkScan, PruneSweep, Sweep};

    /// Horizontal sum of the four u64 lanes of `v`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epi64(v: __m256i) -> u64 {
        let lo = _mm256_castsi256_si128(v);
        let hi = _mm256_extracti128_si256(v, 1);
        let s = _mm_add_epi64(lo, hi);
        (_mm_cvtsi128_si64(s) as u64).wrapping_add(_mm_extract_epi64(s, 1) as u64)
    }

    /// # Safety
    ///
    /// The CPU must support AVX2. Slice lengths must be equal (checked by
    /// the safe dispatcher).
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn fold_avx2(win: &[u8], read: &[u8], scores: &[u8]) -> u64 {
        let n = read.len();
        let zero = _mm256_setzero_si256();
        let mut acc = zero;
        let mut i = 0usize;
        while i + 32 <= n {
            let a = _mm256_loadu_si256(win.as_ptr().add(i).cast());
            let b = _mm256_loadu_si256(read.as_ptr().add(i).cast());
            let s = _mm256_loadu_si256(scores.as_ptr().add(i).cast());
            let eq = _mm256_cmpeq_epi8(a, b);
            // Scores where the bases differ; SAD against zero is the
            // exact horizontal byte sum, landing in four u64 lanes.
            let sel = _mm256_andnot_si256(eq, s);
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(sel, zero));
            i += 32;
        }
        let mut sum = hsum_epi64(acc);
        // 16-byte SSE step so short chunks (the serial scan's galloping
        // start) still run vectorized; the sub-16 remainder goes SWAR.
        if i + 16 <= n {
            let z = _mm_setzero_si128();
            let a = _mm_loadu_si128(win.as_ptr().add(i).cast());
            let b = _mm_loadu_si128(read.as_ptr().add(i).cast());
            let s = _mm_loadu_si128(scores.as_ptr().add(i).cast());
            let sad = _mm_sad_epu8(_mm_andnot_si128(_mm_cmpeq_epi8(a, b), s), z);
            sum += (_mm_cvtsi128_si64(sad) as u64).wrapping_add(_mm_extract_epi64(sad, 1) as u64);
            i += 16;
        }
        sum + super::fold_swar(&win[i..], &read[i..], &scores[i..])
    }

    /// # Safety
    ///
    /// As [`fold_avx2`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn fold_avx2_counted(win: &[u8], read: &[u8], scores: &[u8]) -> (u64, u64) {
        let n = read.len();
        let zero = _mm256_setzero_si256();
        let ones = _mm256_set1_epi8(1);
        let mut acc = zero;
        let mut cnt = zero;
        let mut i = 0usize;
        while i + 32 <= n {
            let a = _mm256_loadu_si256(win.as_ptr().add(i).cast());
            let b = _mm256_loadu_si256(read.as_ptr().add(i).cast());
            let s = _mm256_loadu_si256(scores.as_ptr().add(i).cast());
            let eq = _mm256_cmpeq_epi8(a, b);
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(_mm256_andnot_si256(eq, s), zero));
            cnt = _mm256_add_epi64(cnt, _mm256_sad_epu8(_mm256_andnot_si256(eq, ones), zero));
            i += 32;
        }
        let mut sum = hsum_epi64(acc);
        let mut count = hsum_epi64(cnt);
        if i + 16 <= n {
            let z = _mm_setzero_si128();
            let ones128 = _mm_set1_epi8(1);
            let a = _mm_loadu_si128(win.as_ptr().add(i).cast());
            let b = _mm_loadu_si128(read.as_ptr().add(i).cast());
            let s = _mm_loadu_si128(scores.as_ptr().add(i).cast());
            let eq = _mm_cmpeq_epi8(a, b);
            let sad = _mm_sad_epu8(_mm_andnot_si128(eq, s), z);
            let csad = _mm_sad_epu8(_mm_andnot_si128(eq, ones128), z);
            sum += (_mm_cvtsi128_si64(sad) as u64).wrapping_add(_mm_extract_epi64(sad, 1) as u64);
            count +=
                (_mm_cvtsi128_si64(csad) as u64).wrapping_add(_mm_extract_epi64(csad, 1) as u64);
            i += 16;
        }
        let (tail_sum, tail_count) = super::fold_swar_counted(&win[i..], &read[i..], &scores[i..]);
        (sum + tail_sum, count + tail_count)
    }

    /// The `k`-lane load mask for a tail of `rem` lanes (all lanes when
    /// `rem >= 64`).
    #[inline]
    fn tail_mask(rem: usize) -> u64 {
        if rem >= 64 {
            !0u64
        } else {
            (1u64 << rem) - 1
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX-512F and AVX-512BW. Slice lengths must be
    /// equal (checked by the safe dispatcher). Tails use fault-suppressing
    /// masked loads, so no out-of-bounds byte is ever touched.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    pub unsafe fn fold_avx512(win: &[u8], read: &[u8], scores: &[u8]) -> u64 {
        let n = read.len();
        let zero = _mm512_setzero_si512();
        let mut acc = zero;
        let mut i = 0usize;
        while i < n {
            let mask = tail_mask(n - i);
            let a = _mm512_maskz_loadu_epi8(mask, win.as_ptr().add(i).cast());
            let b = _mm512_maskz_loadu_epi8(mask, read.as_ptr().add(i).cast());
            let s = _mm512_maskz_loadu_epi8(mask, scores.as_ptr().add(i).cast());
            // Masked-out lanes load zero on both sides, so they compare
            // equal and contribute nothing; `& mask` keeps that explicit.
            let neq = _mm512_cmpneq_epi8_mask(a, b) & mask;
            let sel = _mm512_maskz_mov_epi8(neq, s);
            acc = _mm512_add_epi64(acc, _mm512_sad_epu8(sel, zero));
            i += 64;
        }
        _mm512_reduce_add_epi64(acc) as u64
    }

    /// # Safety
    ///
    /// As [`fold_avx512`].
    #[target_feature(enable = "avx512f,avx512bw")]
    pub unsafe fn fold_avx512_counted(win: &[u8], read: &[u8], scores: &[u8]) -> (u64, u64) {
        let n = read.len();
        let zero = _mm512_setzero_si512();
        let mut acc = zero;
        let mut count = 0u64;
        let mut i = 0usize;
        while i < n {
            let mask = tail_mask(n - i);
            let a = _mm512_maskz_loadu_epi8(mask, win.as_ptr().add(i).cast());
            let b = _mm512_maskz_loadu_epi8(mask, read.as_ptr().add(i).cast());
            let s = _mm512_maskz_loadu_epi8(mask, scores.as_ptr().add(i).cast());
            let neq = _mm512_cmpneq_epi8_mask(a, b) & mask;
            let sel = _mm512_maskz_mov_epi8(neq, s);
            acc = _mm512_add_epi64(acc, _mm512_sad_epu8(sel, zero));
            // The compare mask *is* the mismatch set: popcount it.
            count += u64::from(neq.count_ones());
            i += 64;
        }
        (_mm512_reduce_add_epi64(acc) as u64, count)
    }

    /// Inclusive prefix sums of the eight u16 lanes of `v`: three
    /// shift-adds.
    #[inline]
    #[target_feature(enable = "sse4.1")]
    fn prefix_u16(v: __m128i) -> __m128i {
        let v = _mm_add_epi16(v, _mm_slli_si128::<2>(v));
        let v = _mm_add_epi16(v, _mm_slli_si128::<4>(v));
        _mm_add_epi16(v, _mm_slli_si128::<8>(v))
    }

    /// The first lane of an 8-lane group (the low 8 bytes of `bytes`,
    /// selected scores) whose prefix sum exceeds `left`, which is below
    /// the group's sum (≤ 8 × 255, so u16 prefixes are exact): a
    /// three-step shift-add scan, one compare, one movemask.
    #[inline]
    #[target_feature(enable = "sse4.1")]
    fn locate_in_group(bytes: __m128i, left: u64) -> usize {
        let prefix = prefix_u16(_mm_cvtepu8_epi16(bytes));
        let over = _mm_cmpgt_epi16(prefix, _mm_set1_epi16(left as i16));
        // Two mask bits per u16 lane.
        (_mm_movemask_epi8(over) as u32).trailing_zeros() as usize / 2
    }

    /// One 64-lane chunk scan over two 32-byte halves. Two SADs give the
    /// eight 8-lane group sums, packed into u16 lanes and prefix-summed;
    /// every prefix is at most 64 × 255 < `i16::MAX`, so signed compares
    /// against `rem` clamped to `i16::MAX` are exact. A crossing chunk
    /// reloads the crossing group's eight lanes for [`locate_in_group`].
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2; every pointer must be valid for 64
    /// bytes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn scan_avx2(win: *const u8, read: *const u8, scores: *const u8, rem: u64) -> ChunkScan {
        let group_sums = |at: usize| {
            // SAFETY: the caller guarantees 64 valid bytes per pointer.
            let (a, b, s) = unsafe {
                (
                    _mm256_loadu_si256(win.add(at).cast()),
                    _mm256_loadu_si256(read.add(at).cast()),
                    _mm256_loadu_si256(scores.add(at).cast()),
                )
            };
            let sel = _mm256_andnot_si256(_mm256_cmpeq_epi8(a, b), s);
            _mm256_sad_epu8(sel, _mm256_setzero_si256())
        };
        // One u64 per group, g0..g3 then g4..g7. Packing twice leaves, in
        // 128-bit half h, the u16 pairs (g2h, g2h+1) and (g2h+4, g2h+5)
        // as u32 lanes; the permute puts them in order.
        let pairs = _mm256_packus_epi32(group_sums(0), group_sums(32));
        let pairs = _mm256_packus_epi32(pairs, pairs);
        let order = _mm256_setr_epi32(0, 4, 1, 5, 0, 0, 0, 0);
        let groups = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(pairs, order));
        let prefix = prefix_u16(groups);
        let over = _mm_cmpgt_epi16(prefix, _mm_set1_epi16(rem.min(i16::MAX as u64) as i16));
        let mask = _mm_movemask_epi8(over) as u32;
        if mask == 0 {
            return Ok(_mm_extract_epi16::<7>(prefix) as u64);
        }
        let at = mask.trailing_zeros() as usize / 2 * 8;
        // The sum before the crossing group is the largest prefix not
        // over `rem` (0 if group 0 crosses): the minimum of the
        // complemented prefixes, with the crossed lanes forced to 0xFFFF.
        let flipped = _mm_or_si128(_mm_xor_si128(prefix, _mm_set1_epi32(-1)), over);
        let before = !(_mm_cvtsi128_si32(_mm_minpos_epu16(flipped)) as u16);
        // SAFETY: `at + 8 <= 64`, inside every pointer's 64 bytes.
        let (w, r, s) = unsafe {
            (
                _mm_loadl_epi64(win.add(at).cast()),
                _mm_loadl_epi64(read.add(at).cast()),
                _mm_loadl_epi64(scores.add(at).cast()),
            )
        };
        let sel = _mm_andnot_si128(_mm_cmpeq_epi8(w, r), s);
        Err(at + locate_in_group(sel, rem - u64::from(before)))
    }

    /// One 64-lane chunk scan in one vector: the SAD's eight group sums
    /// are prefix-summed in three shift-adds, one unsigned compare
    /// against `rem` finds the crossing group, and [`locate_in_group`]
    /// the lane inside it.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F and AVX-512BW; every pointer must be
    /// valid for 64 bytes.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn scan_avx512(
        win: *const u8,
        read: *const u8,
        scores: *const u8,
        rem: u64,
    ) -> ChunkScan {
        let zero = _mm512_setzero_si512();
        // SAFETY: the caller guarantees 64 valid bytes per pointer.
        let (a, b, s) = unsafe {
            (
                _mm512_loadu_si512(win.cast()),
                _mm512_loadu_si512(read.cast()),
                _mm512_loadu_si512(scores.cast()),
            )
        };
        let sel = _mm512_maskz_mov_epi8(_mm512_cmpneq_epi8_mask(a, b), s);
        let groups = _mm512_sad_epu8(sel, zero);
        // Inclusive prefix over the eight u64 group sums: lane i gains
        // lane i - 1, then i - 2, then i - 4 (zeros shift in).
        let mut prefix = _mm512_add_epi64(groups, _mm512_alignr_epi64::<7>(groups, zero));
        prefix = _mm512_add_epi64(prefix, _mm512_alignr_epi64::<6>(prefix, zero));
        prefix = _mm512_add_epi64(prefix, _mm512_alignr_epi64::<4>(prefix, zero));
        let over = _mm512_cmpgt_epu64_mask(prefix, _mm512_set1_epi64(rem as i64));
        if over == 0 {
            let top = _mm512_extracti64x4_epi64::<1>(prefix);
            return Ok(_mm256_extract_epi64::<3>(top) as u64);
        }
        let group = over.trailing_zeros() as usize;
        let pick = _mm512_set1_epi64(group as i64);
        let before = _mm512_sub_epi64(prefix, groups);
        let before = _mm_cvtsi128_si64(_mm512_castsi512_si128(_mm512_permutexvar_epi64(
            pick, before,
        )));
        let bytes = _mm512_castsi512_si128(_mm512_permutexvar_epi64(pick, sel));
        Err(group * 8 + locate_in_group(bytes, rem - before as u64))
    }

    /// # Safety
    ///
    /// The CPU must support AVX2, and `sweep` must have passed
    /// [`super::prune_sweep`]'s length checks.
    #[target_feature(enable = "avx2")]
    pub unsafe fn prune_sweep_avx2(sweep: &Sweep<'_>, on_cross: impl FnMut(usize)) -> PruneSweep {
        // The closures inherit this function's target features, so the
        // fold and the scan inline into the offset loop.
        sweep.run(
            on_cross,
            // SAFETY: AVX2 verified by the caller; equal slice lengths.
            |w, r, s| unsafe { fold_avx2(w, r, s) },
            // SAFETY: every chunk slice is exactly 64 bytes long.
            |w, r, s, rem| unsafe { scan_avx2(w.as_ptr(), r.as_ptr(), s.as_ptr(), rem) },
        )
    }

    /// # Safety
    ///
    /// The CPU must support AVX-512F and AVX-512BW, and `sweep` must have
    /// passed [`super::prune_sweep`]'s length checks.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub unsafe fn prune_sweep_avx512(sweep: &Sweep<'_>, on_cross: impl FnMut(usize)) -> PruneSweep {
        sweep.run(
            on_cross,
            // SAFETY: AVX-512 verified by the caller; equal slice lengths.
            |w, r, s| unsafe { fold_avx512(w, r, s) },
            // SAFETY: every chunk slice is exactly 64 bytes long.
            |w, r, s, rem| unsafe { scan_avx512(w.as_ptr(), r.as_ptr(), s.as_ptr(), rem) },
        )
    }
}

// ---------------------------------------------------------------------------
// aarch64 NEON kernels.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod aarch64 {
    use std::arch::aarch64::*;

    /// # Safety
    ///
    /// The CPU must support NEON. Slice lengths must be equal (checked by
    /// the safe dispatcher).
    #[inline]
    #[target_feature(enable = "neon")]
    pub unsafe fn fold_neon(win: &[u8], read: &[u8], scores: &[u8]) -> u64 {
        let n = read.len();
        let mut sum = 0u64;
        let mut i = 0usize;
        while i + 16 <= n {
            let a = vld1q_u8(win.as_ptr().add(i));
            let b = vld1q_u8(read.as_ptr().add(i));
            let s = vld1q_u8(scores.as_ptr().add(i));
            let eq = vceqq_u8(a, b);
            // Scores where the bases differ, summed across the vector.
            sum += u64::from(vaddlvq_u8(vbicq_u8(s, eq)));
            i += 16;
        }
        while i < n {
            sum += u64::from(win[i] != read[i]) * u64::from(scores[i]);
            i += 1;
        }
        sum
    }

    /// # Safety
    ///
    /// As [`fold_neon`].
    #[target_feature(enable = "neon")]
    pub unsafe fn fold_neon_counted(win: &[u8], read: &[u8], scores: &[u8]) -> (u64, u64) {
        let n = read.len();
        let ones = vdupq_n_u8(1);
        let mut sum = 0u64;
        let mut count = 0u64;
        let mut i = 0usize;
        while i + 16 <= n {
            let a = vld1q_u8(win.as_ptr().add(i));
            let b = vld1q_u8(read.as_ptr().add(i));
            let s = vld1q_u8(scores.as_ptr().add(i));
            let eq = vceqq_u8(a, b);
            sum += u64::from(vaddlvq_u8(vbicq_u8(s, eq)));
            count += u64::from(vaddlvq_u8(vbicq_u8(ones, eq)));
            i += 16;
        }
        while i < n {
            let neq = u64::from(win[i] != read[i]);
            sum += neq * u64::from(scores[i]);
            count += neq;
            i += 1;
        }
        (sum, count)
    }

    /// # Safety
    ///
    /// The CPU must support NEON, and `sweep` must have passed
    /// [`super::prune_sweep`]'s length checks.
    #[target_feature(enable = "neon")]
    pub unsafe fn prune_sweep_neon(
        sweep: &super::Sweep<'_>,
        on_cross: impl FnMut(usize),
    ) -> super::PruneSweep {
        // The portable locator over NEON's fold, one vector per word.
        sweep.run(
            on_cross,
            // SAFETY: NEON verified by the caller; equal slice lengths.
            |w, r, s| unsafe { fold_neon(w, r, s) },
            |w, r, s, rem| {
                super::scan_portable::<16>(|w, r, s| unsafe { fold_neon(w, r, s) }, w, r, s, rem)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in KernelKind::ALL {
            assert_eq!(kind.name().parse::<KernelKind>().unwrap(), kind);
        }
        assert_eq!("AVX-512".parse::<KernelKind>().unwrap(), KernelKind::Avx512);
        assert!(matches!(
            "sse9".parse::<KernelKind>(),
            Err(KernelError::Unknown { .. })
        ));
    }

    #[test]
    fn scalar_and_swar_are_always_available() {
        let available = KernelKind::available();
        assert!(available.contains(&KernelKind::Scalar));
        assert!(available.contains(&KernelKind::Swar));
        assert!(KernelKind::best_available().is_available());
        assert!(available.contains(&active()));
    }

    #[test]
    fn resolve_honors_available_requests() {
        for kind in KernelKind::available() {
            assert_eq!(resolve(Ok(Some(kind))), (kind, None));
        }
        assert_eq!(resolve(Ok(None)), (KernelKind::best_available(), None));
    }

    #[test]
    fn resolve_falls_back_gracefully() {
        // Some kernel is always unavailable on any single CPU (Neon and
        // Avx512 cannot coexist).
        let missing = KernelKind::ALL
            .into_iter()
            .find(|k| !k.is_available())
            .expect("at least one kernel is foreign to this ISA");
        let (kind, err) = resolve(Ok(Some(missing)));
        assert!(kind.is_available());
        assert_eq!(
            err,
            Some(KernelError::Unavailable {
                requested: missing,
                fallback: kind
            })
        );
        // And an unknown name degrades the same way.
        let (kind, err) = resolve(Err(KernelError::Unknown {
            name: "quantum".into(),
        }));
        assert!(kind.is_available());
        assert!(matches!(err, Some(KernelError::Unknown { .. })));
    }

    #[test]
    fn error_messages_name_the_fallback() {
        let err = KernelError::Unavailable {
            requested: KernelKind::Neon,
            fallback: KernelKind::Avx2,
        };
        let text = err.to_string();
        assert!(text.contains("neon") && text.contains("avx2"), "{text}");
    }

    #[test]
    fn empty_and_singleton_folds() {
        for kind in KernelKind::available() {
            assert_eq!(fold_whd(kind, &[], &[], &[]), 0, "{kind}");
            assert_eq!(fold_whd_counted(kind, &[], &[], &[]), (0, 0), "{kind}");
            assert_eq!(fold_whd(kind, &[1], &[2], &[40]), 40, "{kind}");
            assert_eq!(fold_whd_counted(kind, &[1], &[1], &[40]), (0, 0), "{kind}");
        }
    }

    #[test]
    fn max_score_saturation_is_exact() {
        // 255-score mismatches at every lane: the largest per-chunk sums.
        for len in [7usize, 8, 15, 16, 31, 32, 63, 64, 65, 127, 128, 200] {
            let win = vec![1u8; len];
            let read = vec![2u8; len];
            let scores = vec![255u8; len];
            for kind in KernelKind::available() {
                assert_eq!(
                    fold_whd_counted(kind, &win, &read, &scores),
                    (255 * len as u64, len as u64),
                    "{kind} len {len}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = fold_whd(KernelKind::Scalar, &[1, 2], &[1], &[3]);
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases_env(256))]

            /// Every available kernel computes the scalar fold exactly,
            /// at every length alignment (tails included).
            #[test]
            fn all_kernels_match_scalar(
                len in 0usize..=200,
                win_raw in prop::collection::vec(0u8..=5, 200),
                read_raw in prop::collection::vec(0u8..=5, 200),
                scores_raw in prop::collection::vec(0u8..=255, 200),
            ) {
                let win = &win_raw[..len];
                let read = &read_raw[..len];
                let scores = &scores_raw[..len];
                let want = fold_whd_counted(KernelKind::Scalar, win, read, scores);
                for kind in KernelKind::available() {
                    prop_assert_eq!(fold_whd(kind, win, read, scores), want.0, "{} sum", kind);
                    prop_assert_eq!(fold_whd_counted(kind, win, read, scores), want, "{} counted", kind);
                }
            }
        }
    }
}
