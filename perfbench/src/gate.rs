//! The correctness gate run after every timed phase. Each comparison is
//! one checked operation; a mismatch is a failed one.

use ir_core::IndelRealigner;
use ir_fpga::unit::{simulate_target, UnitRun};
use ir_fpga::FpgaParams;
use ir_genome::RealignmentTarget;

/// Checked and failed operations.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    /// Operations whose result was compared against a reference.
    pub attempted: u64,
    /// Comparisons that did not match.
    pub failed: u64,
}

impl Checks {
    /// Records one comparison, reporting a mismatch on stderr.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// `failed / attempted` (0 when nothing was checked).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Checks a fast-path [`UnitRun`] against the cycle-stepping spec
/// ([`simulate_target`]) and its `(best_consensus, realigned_count)`
/// against the software realigner.
pub fn check_unit_run(
    checks: &mut Checks,
    label: &str,
    target: &RealignmentTarget,
    params: &FpgaParams,
    run: &UnitRun,
) {
    let spec = simulate_target(target, params);
    checks.expect(spec == *run, || {
        format!("{label}: oracle UnitRun differs from the stepping spec")
    });
    let software = IndelRealigner::new().realign(target);
    let expected = (software.best_consensus(), software.realigned_count());
    let simulated = (run.best_consensus(), run.realigned_count());
    checks.expect(expected == simulated, || {
        format!("{label}: simulated (best, realigned) = {simulated:?}, software {expected:?}")
    });
}

/// Indices `0, step, 2·step, …` picking about `count` of `len` items.
pub fn spread(len: usize, count: usize) -> impl Iterator<Item = usize> {
    let step = (len / count.max(1)).max(1);
    (0..len).step_by(step).take(count)
}
