//! Host-time benchmark of the INDEL-realignment simulator.
//!
//! Three workloads time calls into the simulator's public layers:
//! workload generation (`ir-workloads`), the WHD kernel and candidate
//! blocks (`ir-core`), the functional oracle and the event engine
//! (`ir-fpga`), the software baselines (`ir-baselines`) and the serving
//! loops (`ir-serve`). A run has four phases:
//!
//! 1. **set-up**, repeated (see [`SETUP_MIN_REPS`]) and reported as the
//!    median: input generation from the seed, system construction, and
//!    the oracle warm-up where the workload has one;
//! 2. the **timed phase**: whole *cycles* of the workload until the
//!    requested seconds have passed; throughput is over every untraced
//!    cycle;
//! 3. the **correctness gate**: sampled results against the stepping spec
//!    and the software realigner (see [`gate`]);
//! 4. with tracing on, **replays** that split layers further (kernel
//!    sweeps, per-target oracle cost, serve batches) and **probes** that
//!    measure, on a sample of the workload's own targets, layers its timed
//!    phase does not call (listed in [`Outcome::probed`], so the output
//!    can label them).
//!
//! With tracing on, even cycles record spans and odd cycles do not; the
//! ratio of their medians is `trace.overhead_frac`. Simulated quantities
//! never become metrics: they feed the [`digest::Digest`] instead.
//!
//! Every workload runs on one thread, and every time is read from that
//! thread's CPU clock ([`clock`]), which on a shared host leaves out the
//! time the thread waited for a CPU. Only the length of the timed phase is
//! wall-clock time. The CPU time of a fixed [`mod@reference`] workload is
//! read all through each cycle and set-up, so the end-to-end metrics can
//! be scaled to the reference machine's speed.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod config_sweep;
pub mod context;
pub mod digest;
pub mod fig9_cold;
pub mod gate;
pub mod metrics;
pub mod probe;
pub mod reference;
pub mod serve_replay;
pub mod trace;

use std::time::Instant;

use ir_genome::RealignmentTarget;

use clock::CpuInstant;
use digest::Digest;
use gate::Checks;
use reference::Window;
use trace::Tracer;

/// Set-up runs at least [`SETUP_MIN_REPS`] times, and more (up to
/// [`SETUP_MAX_REPS`]) until [`SETUP_MIN_SECS`] of it have been measured:
/// a short set-up is noisy, and its first repetition also pays for
/// growing the heap. The first repetition builds the workload; the others
/// run after the timed phase.
pub const SETUP_MIN_REPS: usize = 3;
/// See [`SETUP_MIN_REPS`]. High enough that even the shortest set-up
/// (`fig9-cold`, about 0.5 s) reaches [`SETUP_MIN_SECS`].
pub const SETUP_MAX_REPS: usize = 40;
/// See [`SETUP_MIN_REPS`].
pub const SETUP_MIN_SECS: f64 = 6.0;

/// Input sizes: the benchmark's own, or a small one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` was tuned for.
    Bench,
    /// Inputs small enough for a debug-build test.
    Smoke,
}

/// One workload of the benchmark, after set-up.
pub trait Workload {
    /// Runs one full cycle, feeding every simulated statistic to `digest`,
    /// and returns the number of (target × configuration) simulations it
    /// completed. Copying inputs and hashing or regrouping outputs run
    /// inside [`Tracer::untimed`], so the cycle time is the program's.
    fn cycle(&mut self, tr: &mut Tracer, digest: &mut Digest) -> u64;

    /// The correctness gate, run once after the timed phase. `tr` is on in
    /// traced runs, for replays the gate shares with the layer split.
    fn check(&mut self, checks: &mut Checks, tr: &mut Tracer);

    /// The targets the per-layer replays and probes run on.
    fn sample(&self) -> &[RealignmentTarget];

    /// Human-readable lines describing the simulated results (model
    /// outputs, not measurements).
    fn summary(&self) -> Vec<String>;
}

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The Figure 9 pipeline over Ch1–22 with cold oracles.
    Fig9Cold,
    /// A configuration grid replayed over one warm chromosome.
    ConfigSweep,
    /// One arrival stream through the single-pool service and three fleets.
    ServeReplay,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::Fig9Cold, Kind::ConfigSweep, Kind::ServeReplay];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig9Cold => "fig9-cold",
            Kind::ConfigSweep => "config-sweep",
            Kind::ServeReplay => "serve-replay",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn setup(self, size: Size, seed: u64, tr: &mut Tracer) -> Box<dyn Workload> {
        let threads = context::threads();
        match self {
            Kind::Fig9Cold => Box::new(fig9_cold::Fig9Cold::setup(size, seed, threads, tr)),
            Kind::ConfigSweep => {
                Box::new(config_sweep::ConfigSweep::setup(size, seed, threads, tr))
            }
            Kind::ServeReplay => {
                Box::new(serve_replay::ServeReplay::setup(size, seed, threads, tr))
            }
        }
    }
}

/// Everything one benchmark run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Each set-up repetition.
    pub setup: Timed,
    /// Each untraced cycle.
    pub untraced: Timed,
    /// Each traced cycle.
    pub traced: Timed,
    /// Simulations per cycle.
    pub sims_per_cycle: u64,
    /// The model digest of the first cycle.
    pub digest: u64,
    /// The correctness gate's tally.
    pub checks: Checks,
    /// Per-layer records: set-up medians, traced-cycle means, replays and
    /// probes.
    pub layers: Tracer,
    /// Seconds per traced cycle that no layer span covered.
    pub unattributed_s: f64,
    /// Name prefixes of the per-layer metrics that come from probes of
    /// layers the workload's timed phase does not call.
    pub probed: Vec<&'static str>,
    /// The workload's model summary.
    pub summary: Vec<String>,
}

/// CPU seconds of repeated phases of a run, each with the reference's
/// mean reading through it.
#[derive(Debug, Default)]
pub struct Timed {
    /// CPU seconds of each repetition.
    pub secs: Vec<f64>,
    /// The mean reading of the [`mod@reference`] through each repetition.
    pub reference_s: Vec<f64>,
}

impl Timed {
    fn push(&mut self, secs: f64, reference_s: f64) {
        self.secs.push(secs);
        self.reference_s.push(reference_s);
    }

    /// Each repetition's time scaled to the reference machine's speed
    /// ([`reference::scale`]).
    pub fn scaled(&self) -> Vec<f64> {
        self.secs
            .iter()
            .zip(&self.reference_s)
            .map(|(&s, &r)| reference::scale(s, r))
            .collect()
    }

    /// Number of repetitions.
    pub fn len(&self) -> usize {
        self.secs.len()
    }

    /// Whether nothing was timed.
    pub fn is_empty(&self) -> bool {
        self.secs.is_empty()
    }
}

struct SetUp {
    kind: Kind,
    size: Size,
    seed: u64,
    trace: bool,
    timed: Timed,
    tracers: Vec<Tracer>,
}

impl SetUp {
    fn run(&mut self) -> Box<dyn Workload> {
        let mut tr = Tracer::new(self.trace);
        let window = Window::open();
        let start = CpuInstant::now();
        let workload = self.kind.setup(self.size, self.seed, &mut tr);
        let secs = start.elapsed_secs() - tr.untimed_secs();
        self.timed.push(secs, window.close());
        self.tracers.push(tr);
        workload
    }
}

/// Runs `kind` end to end: set-up, timed phase, gate and (when `trace`)
/// replays and probes, then the remaining set-up repetitions.
pub fn run(kind: Kind, size: Size, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut setup = SetUp {
        kind,
        size,
        seed,
        trace,
        timed: Timed::default(),
        tracers: Vec::new(),
    };
    let mut workload = setup.run();

    let mut untraced = Timed::default();
    let mut traced_cycles = Timed::default();
    let mut cycle_tracers = Vec::new();
    let mut first_digest = None;
    let mut checks = Checks::default();
    let mut sims_per_cycle = 0;
    let start = Instant::now();
    loop {
        let traced = trace && traced_cycles.len() <= untraced.len();
        let mut tr = Tracer::new(traced);
        let mut digest = Digest::default();
        let window = Window::open();
        let cycle_start = CpuInstant::now();
        let sims = workload.cycle(&mut tr, &mut digest);
        let secs = cycle_start.elapsed_secs() - tr.untimed_secs();
        let reference_s = window.close();
        if traced {
            traced_cycles.push(secs, reference_s);
            cycle_tracers.push(tr);
        } else {
            untraced.push(secs, reference_s);
        }
        match first_digest {
            None => {
                first_digest = Some(digest.value());
                sims_per_cycle = sims;
            }
            // Every cycle replays the same inputs, so it must reproduce the
            // same simulated statistics.
            Some(first) => checks.expect(first == digest.value() && sims == sims_per_cycle, || {
                "a repeated cycle changed the model digest".to_string()
            }),
        }
        // Stop at the cycle boundary nearest to the requested length of
        // wall-clock time.
        let done = start.elapsed().as_secs_f64() + secs / 2.0 >= seconds;
        if done && !untraced.is_empty() && (!trace || !traced_cycles.is_empty()) {
            break;
        }
    }

    // Traced cycles averaged; their counts repeat exactly, so taken once.
    let mut cycles = Tracer::new(true);
    for (i, tr) in cycle_tracers.iter().enumerate() {
        cycles.absorb(tr, 1.0 / cycle_tracers.len() as f64, i == 0, |_| true);
    }
    let unattributed_s = if traced_cycles.is_empty() {
        0.0
    } else {
        traced_cycles.secs.iter().sum::<f64>() / traced_cycles.len() as f64 - cycles.total_secs()
    };

    let mut after = Tracer::new(trace);
    workload.check(&mut checks, &mut after);
    let mut probed = Vec::new();
    if trace {
        let mut seen = cycles.clone();
        seen.absorb(&setup.tracers[0], 1.0, false, |_| true);
        probe::replay_core(&mut after, workload.sample());
        probed = probe::fill_missing(
            &mut after,
            &seen,
            &mut checks,
            workload.sample(),
            context::threads(),
        );
    }
    let summary = workload.summary();
    drop(workload);

    // The remaining set-up repetitions run now, one at a time and with the
    // workload dropped, so they sample the machine at a later moment than
    // the first and do not raise the memory peak.
    while setup.timed.len() < SETUP_MIN_REPS
        || (setup.timed.len() < SETUP_MAX_REPS
            && setup.timed.secs.iter().sum::<f64>() < SETUP_MIN_SECS)
    {
        drop(setup.run());
    }
    let mut layers = Tracer::median_of(&setup.tracers);
    layers.absorb(&cycles, 1.0, true, |_| true);
    layers.absorb(&after, 1.0, true, |_| true);

    Outcome {
        setup: setup.timed,
        untraced,
        traced: traced_cycles,
        sims_per_cycle,
        digest: first_digest.expect("at least one cycle ran"),
        checks,
        layers,
        unattributed_s,
        probed,
        summary,
    }
}
