//! Golden tests pinning the discrete-event engine to the cycle-stepping
//! schedulers it replaced. The stepper itself is gone; what it produced
//! is frozen in `tests/fixtures/stepper_runs.txt`, recorded from it on
//! every case below before it was deleted. For every workload, scheduling
//! policy, unit configuration, telemetry setting and seeded fault plan
//! here, the engine must reproduce that record **bit for bit** — the same
//! f64 bits for every accumulated second, the same cycle and comparison
//! counts, the same per-unit busy time, results, timeline, resilience
//! report, telemetry snapshot and Perfetto trace JSON.
//!
//! Each fixture line is `<case> <field> <value>`: scalar fields hold their
//! exact value (f64s as bit patterns), compound fields a 128-bit FNV-1a
//! digest of a canonical rendering ([`fields`]). A failure names the case
//! and the field that diverged. The fixture is data, not a baseline to
//! refresh: a diff means the engine's observable behaviour changed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ir_system::fpga::driver::ResiliencePolicy;
use ir_system::fpga::fault::{FaultPlan, FaultRates};
use ir_system::fpga::{AcceleratedSystem, FpgaParams, FunctionalOracle, Scheduling, SystemRun};
use ir_system::genome::RealignmentTarget;
use ir_system::workloads::{WorkloadConfig, WorkloadGenerator};

const ALL_SCHEDULINGS: [Scheduling; 4] = [
    Scheduling::Synchronous,
    Scheduling::SynchronousUnsorted,
    Scheduling::SynchronousByWorstCase,
    Scheduling::Asynchronous,
];

const FIXTURE: &str = include_str!("fixtures/stepper_runs.txt");

fn workload(count: usize, seed: u64) -> Vec<RealignmentTarget> {
    WorkloadGenerator::new(WorkloadConfig {
        scale: 1e-4,
        read_len: 62,
        min_consensus_len: 80,
        max_consensus_len: 510,
        ..WorkloadConfig::default()
    })
    .targets(count, seed)
}

fn system(params: FpgaParams, sched: Scheduling, telemetry: bool) -> AcceleratedSystem {
    AcceleratedSystem::new(params, sched)
        .expect("paper configurations fit the VU9P")
        .with_telemetry(telemetry)
}

fn config_name(params: &FpgaParams) -> &'static str {
    if params.lanes > 1 {
        "iracc"
    } else {
        "serial"
    }
}

/// 128-bit FNV-1a, rendered as 32 hex digits.
fn digest(text: &str) -> String {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let hash = text
        .bytes()
        .fold(OFFSET, |h, b| (h ^ u128::from(b)).wrapping_mul(PRIME));
    format!("{hash:032x}")
}

/// The canonical `(field, value)` rendering of a run — every field the
/// old live comparison checked, plus the Perfetto trace JSON.
fn fields(run: &SystemRun) -> Vec<(&'static str, String)> {
    let bits = |x: f64| format!("{:016x}", x.to_bits());
    let mut unit_busy = String::new();
    for s in &run.unit_busy_s {
        writeln!(unit_busy, "{}", bits(*s)).unwrap();
    }
    let mut results = String::new();
    for r in &run.results {
        writeln!(
            results,
            "{} {:?} {:?} {} {} {:?} {:?}",
            r.best, r.outcomes, r.cycles, r.comparisons, r.offsets_pruned, r.scores, r.grid
        )
        .unwrap();
    }
    let mut timeline = String::new();
    for e in &run.timeline {
        writeln!(
            timeline,
            "{} {} {} {} {:?}",
            e.unit,
            e.target_index,
            bits(e.start_s),
            bits(e.end_s),
            e.phase
        )
        .unwrap();
    }
    let (counters, trace, trace_json) = match &run.telemetry {
        None => ("none".to_string(), "none".to_string(), "none".to_string()),
        Some(snapshot) => {
            let mut trace = String::new();
            for e in &snapshot.trace.events {
                writeln!(
                    trace,
                    "{:?} {:?} {} {:?} {} {} {:?}",
                    e.track,
                    e.kind,
                    e.name,
                    e.target,
                    bits(e.start_s),
                    bits(e.end_s),
                    e.args
                )
                .unwrap();
            }
            (
                digest(&snapshot.to_csv()),
                digest(&trace),
                digest(&snapshot.chrome_trace_json()),
            )
        }
    };
    vec![
        ("wall_time_s", bits(run.wall_time_s)),
        ("dma_busy_s", bits(run.dma_busy_s)),
        ("command_s", bits(run.command_s)),
        ("compute_cycles", run.compute_cycles.to_string()),
        ("comparisons", run.comparisons.to_string()),
        ("unit_busy_s", digest(&unit_busy)),
        ("results", digest(&results)),
        ("timeline", digest(&timeline)),
        ("resilience", digest(&format!("{:?}", run.resilience))),
        ("counters", counters),
        ("trace", trace),
        ("trace_json", trace_json),
    ]
}

/// The frozen record, keyed by case name, fields in file order.
fn fixture() -> BTreeMap<&'static str, Vec<(&'static str, &'static str)>> {
    let mut cases: BTreeMap<&str, Vec<(&str, &str)>> = BTreeMap::new();
    for line in FIXTURE.lines().filter(|l| !l.starts_with('#')) {
        let mut parts = line.split(' ');
        let (Some(case), Some(field), Some(value), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            panic!("malformed fixture line: {line:?}");
        };
        cases.entry(case).or_default().push((field, value));
    }
    cases
}

/// Asserts every run reproduces its frozen fields exactly.
fn assert_matches_fixture(runs: &[(String, SystemRun)]) {
    let frozen = fixture();
    for (case, run) in runs {
        let want = frozen
            .get(case.as_str())
            .unwrap_or_else(|| panic!("no fixture entry for case {case}"));
        let got = fields(run);
        assert_eq!(
            got.iter().map(|(f, _)| *f).collect::<Vec<_>>(),
            want.iter().map(|(f, _)| *f).collect::<Vec<_>>(),
            "fixture field set ({case})"
        );
        for ((field, value), (_, frozen_value)) in got.iter().zip(want) {
            assert_eq!(value, frozen_value, "{field} diverged ({case})");
        }
    }
}

/// Fault-free runs across every scheduling × both paper configurations,
/// with telemetry enabled so the snapshot and trace are pinned too.
fn fault_free_runs() -> Vec<(String, SystemRun)> {
    let targets = workload(48, 0xFACADE);
    let mut runs = Vec::new();
    for params in [FpgaParams::serial(), FpgaParams::iracc()] {
        for sched in ALL_SCHEDULINGS {
            let run = system(params, sched, true).run(&targets);
            runs.push((
                format!("fault_free/{}/{sched:?}", config_name(&params)),
                run,
            ));
        }
    }
    runs
}

/// Runs under the default fault rates: the plan must draw the same faults
/// in the same order the stepper saw, so the report (which carries the
/// plan's draw counts) and the repaired outputs agree bit for bit.
fn under_faults_runs() -> Vec<(String, SystemRun)> {
    let targets = workload(48, 0xBAD5EED);
    let policy = ResiliencePolicy::default();
    [Scheduling::Synchronous, Scheduling::Asynchronous]
        .into_iter()
        .map(|sched| {
            let mut plan = FaultPlan::with_default_rates(2024);
            let run = system(FpgaParams::iracc(), sched, false)
                .run_resilient(&targets, &mut plan, &policy);
            (format!("under_faults/{sched:?}"), run)
        })
        .collect()
}

fn empty_runs() -> Vec<(String, SystemRun)> {
    ALL_SCHEDULINGS
        .into_iter()
        .map(|sched| {
            let run = system(FpgaParams::serial(), sched, true).run(&[]);
            (format!("empty/{sched:?}"), run)
        })
        .collect()
}

/// splitmix64: spreads the grid index into workload and fault seeds.
fn mix(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The fixed grid: 4 schedulings × serial/IRACC × telemetry on/off ×
/// faults on/off, each cell with its own workload seed, target count
/// (1..=39) and, when faulted, a uniform fault rate up to 0.2.
fn grid_runs() -> Vec<(String, SystemRun)> {
    const RATES: [f64; 4] = [0.02, 0.05, 0.1, 0.2];
    let mut runs = Vec::new();
    let mut i = 0u64;
    for sched in ALL_SCHEDULINGS {
        for params in [FpgaParams::serial(), FpgaParams::iracc()] {
            for telemetry in [false, true] {
                for faults in [false, true] {
                    let seed = mix(i);
                    let count = 1 + (seed >> 40) as usize % 39;
                    let targets = workload(count, seed);
                    let sys = system(params, sched, telemetry);
                    let run = if faults {
                        let rate = RATES[i as usize % RATES.len()];
                        let mut plan = FaultPlan::seeded(mix(seed), FaultRates::uniform(rate));
                        sys.run_resilient(&targets, &mut plan, &ResiliencePolicy::default())
                    } else {
                        sys.run(&targets)
                    };
                    runs.push((
                        format!(
                            "grid/{sched:?}/{}/telemetry_{}/faults_{}",
                            config_name(&params),
                            u8::from(telemetry),
                            u8::from(faults)
                        ),
                        run,
                    ));
                    i += 1;
                }
            }
        }
    }
    runs
}

#[test]
fn engine_matches_legacy_fault_free() {
    assert_matches_fixture(&fault_free_runs());
}

#[test]
fn engine_matches_legacy_under_faults() {
    assert_matches_fixture(&under_faults_runs());
}

/// An empty workload is a legal run and still matches.
#[test]
fn engine_matches_legacy_on_empty_workload() {
    assert_matches_fixture(&empty_runs());
}

/// Every cell of the scheduling × configuration × telemetry × faults
/// grid, with fixed seeds so the stepper's record could be frozen.
#[test]
fn any_seeded_run_is_backend_invariant() {
    let runs = grid_runs();
    assert_eq!(runs.len(), 32);
    assert_matches_fixture(&runs);
}

/// The fixture holds exactly the cases above — no stale entries that no
/// test reads. Each test asserts its own case names are present; with
/// unique names, equal counts then make the two sets equal.
#[test]
fn fixture_covers_exactly_the_recorded_cases() {
    let fault_free = 2 * ALL_SCHEDULINGS.len();
    let under_faults = 2;
    let empty = ALL_SCHEDULINGS.len();
    let grid = 32;
    assert_eq!(fixture().len(), fault_free + under_faults + empty + grid);
}

/// Bitwise comparison of two live runs through the same canonical
/// rendering the fixture uses.
fn assert_runs_bitwise_equal(a: &SystemRun, b: &SystemRun, context: &str) {
    for ((field, x), (_, y)) in fields(a).iter().zip(fields(b)) {
        assert_eq!(x, &y, "{field} diverged ({context})");
    }
}

/// Warming the functional oracle across host threads must be invisible to
/// the simulation: a run over an oracle precomputed with 1, 2 or 4 worker
/// threads is bitwise identical — results, timeline, telemetry — to a run
/// over a cold oracle. This is the determinism contract of
/// `FunctionalOracle::precompute`.
#[test]
fn threaded_oracle_warmup_is_bitwise_invisible() {
    let targets = workload(48, 0x04AC1E);
    for params in [FpgaParams::serial(), FpgaParams::iracc()] {
        for sched in [Scheduling::Synchronous, Scheduling::Asynchronous] {
            let sys = |oracle: &mut FunctionalOracle| {
                system(params, sched, true).run_with_oracle(&targets, oracle)
            };
            let mut cold = FunctionalOracle::new();
            let baseline = sys(&mut cold);
            for threads in [1usize, 2, 4] {
                let mut warm = FunctionalOracle::new();
                warm.precompute(&targets, &params, threads);
                let run = sys(&mut warm);
                assert_runs_bitwise_equal(
                    &run,
                    &baseline,
                    &format!(
                        "{threads}-thread warmup, {sched:?}, {} units",
                        params.num_units
                    ),
                );
            }
        }
    }
}
