//! Spans and counts recorded around calls into each layer.
//!
//! A [`Tracer`] is either on or off. When off, [`Tracer::span`] only runs
//! its closure and, at its end, a [`reference::checkpoint`]. When on, each
//! span also adds its duration on the thread's CPU clock
//! ([`crate::clock`]) to the layer's total; a few layers also keep every
//! duration as a sample, for percentiles.

use crate::clock::CpuInstant;
use crate::reference;
use std::collections::BTreeMap;

/// Span totals (seconds), per-call samples (seconds) and counts of one
/// phase of a run.
#[derive(Debug, Default, Clone)]
pub struct Tracer {
    on: bool,
    spans: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
    peaks: BTreeMap<&'static str, f64>,
    untimed: f64,
}

impl Tracer {
    /// A tracer that records iff `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            ..Tracer::default()
        }
    }

    /// Whether spans and counts are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f`, adding its CPU duration to layer `name` when on. Either
    /// way the end of a span is a [`reference::checkpoint`], whose time
    /// counts as untimed.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let out = if self.on {
            let start = CpuInstant::now();
            let out = f();
            *self.spans.entry(name).or_default() += start.elapsed_secs();
            out
        } else {
            f()
        };
        self.untimed += reference::checkpoint();
        out
    }

    /// Runs `f`, on or off, and keeps its duration out of the cycle time:
    /// for the benchmark's own bookkeeping (copying inputs, hashing and
    /// regrouping outputs), which is not the program's work.
    pub fn untimed<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = CpuInstant::now();
        let out = f();
        self.untimed += start.elapsed_secs() + reference::checkpoint();
        out
    }

    /// Seconds spent in [`Self::untimed`] closures.
    pub fn untimed_secs(&self) -> f64 {
        self.untimed
    }

    /// Adds `secs` to layer `name` when on, for a duration measured by
    /// the caller.
    pub fn add(&mut self, name: &'static str, secs: f64) {
        if self.on {
            *self.spans.entry(name).or_default() += secs;
        }
    }

    /// [`Self::add`] that also keeps `secs` as one sample of `name`.
    pub fn sample(&mut self, name: &'static str, secs: f64) {
        if self.on {
            *self.spans.entry(name).or_default() += secs;
            self.samples.entry(name).or_default().push(secs);
        }
    }

    /// Raises the high-water mark `name` to `v` when on.
    pub fn peak(&mut self, name: &'static str, v: f64) {
        if self.on {
            let slot = self.peaks.entry(name).or_default();
            *slot = slot.max(v);
        }
    }

    /// Adds `n` to count `name` when on.
    pub fn count(&mut self, name: &'static str, n: f64) {
        if self.on {
            *self.counts.entry(name).or_default() += n;
        }
    }

    /// Total seconds recorded under `name` (0 if never recorded).
    pub fn secs(&self, name: &str) -> f64 {
        self.spans.get(name).copied().unwrap_or(0.0)
    }

    /// Whether any span was recorded under `name`.
    pub fn has(&self, name: &str) -> bool {
        self.spans.contains_key(name)
    }

    /// Count `name`, or high-water mark `name` (0 if neither was
    /// recorded).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts
            .get(name)
            .or_else(|| self.peaks.get(name))
            .copied()
            .unwrap_or(0.0)
    }

    /// Total seconds over every span.
    pub fn total_secs(&self) -> f64 {
        self.spans.values().sum()
    }

    /// Every sample kept under `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Folds in every record of `other` whose name passes `keep`: span
    /// totals are added after scaling by `weight` (so several cycles can
    /// be averaged) and samples are appended. Counts are added and
    /// high-water marks maxed only `with_counts`, since counts repeat
    /// exactly across cycles and are taken once.
    pub fn absorb(
        &mut self,
        other: &Tracer,
        weight: f64,
        with_counts: bool,
        keep: impl Fn(&str) -> bool,
    ) {
        for (&k, &v) in other.spans.iter().filter(|(k, _)| keep(k)) {
            *self.spans.entry(k).or_default() += v * weight;
        }
        for (&k, v) in other.samples.iter().filter(|(k, _)| keep(k)) {
            self.samples.entry(k).or_default().extend_from_slice(v);
        }
        if !with_counts {
            return;
        }
        for (&k, &v) in other.counts.iter().filter(|(k, _)| keep(k)) {
            *self.counts.entry(k).or_default() += v;
        }
        for (&k, &v) in other.peaks.iter().filter(|(k, _)| keep(k)) {
            let slot = self.peaks.entry(k).or_default();
            *slot = slot.max(v);
        }
    }

    /// Combines repetitions of one phase: each span total is the median
    /// over `reps`, samples are pooled, and counts come from the last
    /// repetition.
    pub fn median_of(reps: &[Tracer]) -> Tracer {
        let mut out = Tracer::new(true);
        let names: std::collections::BTreeSet<&'static str> =
            reps.iter().flat_map(|t| t.spans.keys().copied()).collect();
        for name in names {
            let totals: Vec<f64> = reps.iter().map(|t| t.secs(name)).collect();
            out.spans.insert(name, median(&totals));
        }
        for t in reps {
            out.absorb(t, 0.0, false, |_| true);
        }
        if let Some(last) = reps.last() {
            out.absorb(last, 0.0, true, |_| true);
        }
        out
    }
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile of `values` by the nearest-rank rule (0 for an
/// empty slice).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("a", || 7), 7);
        t.count("c", 3.0);
        assert!(!t.has("a"));
        assert_eq!(t.counted("c"), 0.0);
    }

    #[test]
    fn untimed_is_kept_on_or_off() {
        for on in [false, true] {
            let mut t = Tracer::new(on);
            // Spans read the CPU clock, so the closure must work, not sleep.
            t.untimed(|| {
                let start = CpuInstant::now();
                while start.elapsed_secs() < 2e-3 {
                    std::hint::spin_loop();
                }
            });
            assert!(t.untimed_secs() >= 2e-3);
            assert_eq!(t.total_secs(), 0.0);
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 99.0), 5.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(median(&[]), 0.0);
    }
}
