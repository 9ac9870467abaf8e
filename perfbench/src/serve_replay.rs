//! `serve-replay`: one seeded Poisson stream of bench-profile targets
//! served by the single-pool `RealignService`, then by `FleetService` at
//! 1 node, 4 nodes and under the autoscaler — the `serve_fleet`
//! cost-vs-SLO sweep. Shards build a fresh oracle per batch and every
//! topology re-evaluates the same targets, so content-keyed oracle reuse
//! and a single serving loop show here.
//!
//! The serve split is made from outside: responses are regrouped by
//! `(node, shard, batch)`, and each batch is replayed through the two
//! calls a clean shard makes — `FunctionalOracle::precompute`, then
//! `AcceleratedSystem::run_with_oracle` — timing each half. Fault
//! injection is off, so a replay is a pure function and must reproduce
//! the responses.

use std::collections::BTreeMap;

use ir_fpga::{AcceleratedSystem, FunctionalOracle};
use ir_genome::RealignmentTarget;
use ir_serve::{
    AutoscalerConfig, FleetConfig, FleetService, RealignService, Request, Response, ServeConfig,
    Shard,
};
use ir_workloads::ArrivalProcess;

use crate::clock::CpuInstant;
use crate::digest::Digest;
use crate::gate::{self, Checks};
use crate::trace::Tracer;
use crate::{Size, Workload};

/// Offered load as a multiple of one node's calibrated capacity, as in
/// `serve_fleet`: above 1, so one node saturates and the wider fleets
/// trade cost for SLO attainment.
const LOAD_FACTOR: f64 = 1.6;

/// Inter-node routing hop on the virtual clock (as in `serve_fleet`).
const HOP_LATENCY_S: f64 = 2e-6;

/// Batches per topology the gate replays through a fresh `Shard`.
const GATE_BATCHES: usize = 4;
/// Requests whose target the gate checks against the stepping spec.
const GATE_TARGETS: usize = 6;
/// Targets the per-layer replays take.
const SAMPLE: usize = 48;

/// One dispatched batch, as the responses describe it.
struct Batch {
    shard: usize,
    /// Request ids in arrival order.
    ids: Vec<u64>,
    /// `(best_consensus, realigned)` per request, in `ids` order.
    results: Vec<(usize, usize)>,
}

struct Served {
    name: &'static str,
    batches: Vec<Batch>,
}

/// The set-up `serve-replay` workload.
pub struct ServeReplay {
    targets: Vec<RealignmentTarget>,
    /// One node's capacity in requests per virtual second.
    capacity_rps: f64,
    rate_rps: f64,
    arrivals: Vec<f64>,
    node: ServeConfig,
    /// Each topology's name and fleet; `None` is the single-pool service.
    topologies: Vec<(&'static str, Option<FleetConfig>)>,
    served: Vec<Served>,
    sample: Vec<RealignmentTarget>,
    summary: Vec<String>,
}

fn topologies(node: &ServeConfig) -> Vec<(&'static str, Option<FleetConfig>)> {
    let fleet = |nodes, autoscale| {
        Some(FleetConfig {
            nodes,
            node: node.clone(),
            hop_latency_s: HOP_LATENCY_S,
            autoscale,
            ..FleetConfig::default()
        })
    };
    // `serve_fleet`'s autoscaler: the stream spans tens of virtual
    // milliseconds, so it must react within a few batch completions.
    let autoscale = AutoscalerConfig {
        min_nodes: 1,
        max_nodes: 8,
        eval_period_s: 1e-3,
        cooldown_s: 2e-3,
        breach_windows: 1,
        clear_windows: 32,
        p99_slo_s: 4e-3,
        ..AutoscalerConfig::default()
    };
    vec![
        ("single", None),
        ("fleet1", fleet(1, None)),
        ("fleet4", fleet(4, None)),
        ("autoscale", fleet(1, Some(autoscale))),
    ]
}

/// One node's capacity on `targets` in requests per virtual second,
/// calibrated as `serve_fleet` does: one shard runs full batches back to
/// back, scaled by the node's shard count.
fn capacity_rps(targets: &[RealignmentTarget], node: &ServeConfig) -> f64 {
    let mut probe = Shard::new(0, node).expect("the serve config fits");
    for chunk in targets.chunks(node.max_batch) {
        probe
            .run_batch(chunk)
            .expect("a calibration batch is non-empty");
    }
    node.shards as f64 * targets.len() as f64 / probe.busy_s()
}

fn span_name(topology: &str) -> &'static str {
    match topology {
        "single" => "serve.run_ms.single",
        "fleet1" => "serve.run_ms.fleet1",
        "fleet4" => "serve.run_ms.fleet4",
        _ => "serve.run_ms.autoscale",
    }
}

/// Regroups one node's responses into its batches.
fn batches_of<'a>(responses: impl Iterator<Item = &'a Response>) -> Vec<Batch> {
    let mut groups: BTreeMap<(usize, u64), Vec<&Response>> = BTreeMap::new();
    for r in responses {
        groups.entry((r.shard, r.batch)).or_default().push(r);
    }
    groups
        .into_iter()
        .map(|((shard, _), mut rs)| {
            rs.sort_by_key(|r| r.id);
            Batch {
                shard,
                ids: rs.iter().map(|r| r.id).collect(),
                results: rs.iter().map(|r| (r.best_consensus, r.realigned)).collect(),
            }
        })
        .collect()
}

fn feed_responses<'a>(digest: &mut Digest, responses: impl Iterator<Item = &'a Response>) {
    for r in responses {
        digest.u64(r.id);
        digest.f64(r.completion_s);
        digest.u64(r.shard as u64);
        digest.u64(r.batch);
        digest.u64(r.best_consensus as u64);
        digest.u64(r.realigned as u64);
    }
}

impl ServeReplay {
    /// Generates the stream and its arrival times.
    pub fn setup(size: Size, seed: u64, threads: usize, tr: &mut Tracer) -> Self {
        let requests = match size {
            Size::Bench => 600,
            Size::Smoke => 48,
        };
        let targets = tr.span("workloads.gen_ms", || {
            ir_bench::bench_workload(1e-3).targets(requests, seed)
        });
        Self::over(targets, seed, threads)
    }

    /// A stream over `targets`, offered at [`LOAD_FACTOR`] times one
    /// node's capacity on them, with arrivals drawn from `seed`.
    pub fn over(targets: Vec<RealignmentTarget>, seed: u64, threads: usize) -> Self {
        let node = ServeConfig {
            threads,
            ..ServeConfig::default()
        };
        let capacity_rps = capacity_rps(&targets, &node);
        let rate_rps = LOAD_FACTOR * capacity_rps;
        let arrivals = ArrivalProcess::poisson(seed, rate_rps).times(targets.len());
        let sample = gate::spread(targets.len(), SAMPLE)
            .map(|i| targets[i].clone())
            .collect();
        ServeReplay {
            topologies: topologies(&node),
            targets,
            capacity_rps,
            rate_rps,
            arrivals,
            node,
            served: Vec::new(),
            sample,
            summary: Vec::new(),
        }
    }

    fn requests(&self) -> Vec<Request> {
        self.targets
            .iter()
            .zip(&self.arrivals)
            .enumerate()
            .map(|(i, (t, &at))| Request::new(i as u64, at, t.clone()))
            .collect()
    }

    fn batch_targets(&self, batch: &Batch) -> Vec<RealignmentTarget> {
        batch
            .ids
            .iter()
            .map(|&id| self.targets[id as usize].clone())
            .collect()
    }

    /// Replays every served batch through the oracle pre-warm and the
    /// engine, timing each half; a replay that disagrees with its
    /// responses is a failed check.
    pub fn replay(&self, tr: &mut Tracer, checks: &mut Checks) {
        let system = AcceleratedSystem::new(self.node.params, self.node.scheduling)
            .expect("the serve config fits");
        let miss_span = if self.node.params.lanes == 1 {
            "oracle.miss_ms.serial"
        } else {
            "oracle.miss_ms.iracc"
        };
        for served in &self.served {
            for batch in &served.batches {
                let targets = self.batch_targets(batch);
                let n = targets.len();
                let mut oracle = FunctionalOracle::new();
                let start = CpuInstant::now();
                tr.span(miss_span, || {
                    oracle.precompute(&targets, &self.node.params, self.node.threads)
                });
                let warmed = oracle.len();
                let run = tr.span("engine.run_ms", || {
                    system.run_with_oracle(&targets, &mut oracle)
                });
                tr.sample("serve.shard_batch", start.elapsed_secs());
                let misses = oracle.len() - warmed;
                tr.count("oracle.misses", (warmed + misses) as f64);
                tr.count("oracle.hits", (n - misses) as f64);
                tr.peak("oracle.entries", oracle.len() as f64);
                tr.count("engine.runs", 1.0);
                tr.count("engine.targets", n as f64);
                let replayed: Vec<(usize, usize)> = run
                    .results
                    .iter()
                    .map(|r| (r.best_consensus(), r.realigned_count()))
                    .collect();
                checks.expect(replayed == batch.results, || {
                    format!(
                        "{} shard {} batch replay differs from its responses",
                        served.name, batch.shard
                    )
                });
            }
        }
    }
}

impl Workload for ServeReplay {
    fn cycle(&mut self, tr: &mut Tracer, digest: &mut Digest) -> u64 {
        let mut completed = 0;
        let mut served = Vec::new();
        let mut lines = Vec::new();
        digest.f64(self.rate_rps);
        for (name, topology) in &self.topologies {
            let requests = tr.untimed(|| self.requests());
            let (done, rejected, dispatched) = match topology {
                None => {
                    let report = tr.span(span_name(name), || {
                        RealignService::new(self.node.clone())
                            .and_then(|mut s| s.run(requests))
                            .expect("single-pool service runs")
                    });
                    let counts = (
                        report.completed(),
                        report.rejections.len() as u64,
                        report.batches,
                    );
                    tr.untimed(|| {
                        digest.bytes(report.to_json().as_bytes());
                        feed_responses(digest, report.responses.iter());
                        lines.push(format!(
                            "{name}: p99 {:.3} ms, SLO {:.4}",
                            report.latency_percentile_s(99.0).unwrap_or(f64::NAN) * 1e3,
                            report.slo_attainment()
                        ));
                        served.push(Served {
                            name,
                            batches: batches_of(report.responses.iter()),
                        });
                        drop(report);
                    });
                    counts
                }
                Some(config) => {
                    let report = tr.span(span_name(name), || {
                        FleetService::new(config.clone())
                            .and_then(|mut f| f.run(requests))
                            .expect("fleet runs")
                    });
                    let counts = (report.completed(), report.rejected(), report.batches());
                    tr.untimed(|| {
                        digest.bytes(report.to_json().as_bytes());
                        let mut batches = Vec::new();
                        for node in &report.node_reports {
                            feed_responses(digest, node.responses.iter());
                            batches.extend(batches_of(node.responses.iter()));
                        }
                        lines.push(format!(
                            "{name}: p99 {:.3} ms, SLO {:.4}, peak {} nodes, \
                             {:.4} USD per M targets",
                            report.latency_percentile_s(99.0).unwrap_or(f64::NAN) * 1e3,
                            report.slo_attainment(),
                            report.peak_nodes,
                            report.cost_per_million_targets_usd()
                        ));
                        served.push(Served { name, batches });
                        drop(report);
                    });
                    counts
                }
            };
            tr.count("serve.batches", dispatched as f64);
            tr.count("serve.responses", done as f64);
            tr.count("serve.rejected", rejected as f64);
            completed += done;
        }
        self.served = served;
        self.summary = vec![format!(
            "model: {} requests at {:.0} req/s = {LOAD_FACTOR} x one node's calibrated \
             capacity of {:.0} req/s; {}",
            self.targets.len(),
            self.rate_rps,
            self.capacity_rps,
            lines.join("; ")
        )];
        completed
    }

    fn check(&mut self, checks: &mut Checks, tr: &mut Tracer) {
        // A sample of batches through a fresh shard, exactly as served.
        for served in &self.served {
            for batch in served.batches.iter().take(GATE_BATCHES) {
                let outcome = Shard::new(batch.shard, &self.node)
                    .expect("the serve config fits")
                    .run_batch(&self.batch_targets(batch))
                    .expect("a replayed batch is non-empty");
                checks.expect(outcome.results == batch.results, || {
                    format!(
                        "{} shard {}: Shard::run_batch differs from its responses",
                        served.name, batch.shard
                    )
                });
            }
        }
        // Sampled requests of the single pool against the stepping spec
        // and the software realigner.
        if let Some(single) = self.served.first() {
            let responses: BTreeMap<u64, (usize, usize)> = single
                .batches
                .iter()
                .flat_map(|b| b.ids.iter().copied().zip(b.results.iter().copied()))
                .collect();
            for i in gate::spread(self.targets.len(), GATE_TARGETS) {
                let target = &self.targets[i];
                let run = FunctionalOracle::new().simulate(target, 0, &self.node.params);
                let label = format!("request {i}");
                gate::check_unit_run(checks, &label, target, &self.node.params, &run);
                if let Some(&served) = responses.get(&(i as u64)) {
                    checks.expect(
                        served == (run.best_consensus(), run.realigned_count()),
                        || format!("{label}: served result differs from the oracle"),
                    );
                }
            }
        }
        if tr.on() {
            self.replay(tr, checks);
        }
    }

    fn sample(&self) -> &[RealignmentTarget] {
        &self.sample
    }

    fn summary(&self) -> Vec<String> {
        self.summary.clone()
    }
}
