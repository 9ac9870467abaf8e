//! The model digest repeats exactly for a seed, tracing leaves it alone,
//! another seed still passes the correctness gate, and every printed
//! metric is one `BENCHMARK.json` lists.

use perfbench::{metrics, run, Kind, Outcome, Size};

/// Shortest possible timed phase: one cycle (two when traced).
const SECONDS: f64 = 1e-3;

fn smoke(kind: Kind, seed: u64, trace: bool) -> Outcome {
    run(kind, Size::Smoke, seed, SECONDS, trace)
}

#[test]
fn same_seed_same_digest_and_another_seed_passes_the_gate() {
    for kind in Kind::ALL {
        let a = smoke(kind, 3, false);
        let b = smoke(kind, 3, false);
        let traced = smoke(kind, 3, true);
        assert_eq!(
            a.digest,
            b.digest,
            "{}: same seed, same digest",
            kind.name()
        );
        assert_eq!(
            a.digest,
            traced.digest,
            "{}: tracing changed the model",
            kind.name()
        );
        let other = smoke(kind, 4, false);
        assert_ne!(
            a.digest,
            other.digest,
            "{}: the seed reaches the inputs",
            kind.name()
        );
        for o in [&a, &traced, &other] {
            assert!(
                o.checks.attempted > 0,
                "{}: nothing was checked",
                kind.name()
            );
            assert_eq!(o.checks.failed, 0, "{}: gate failed", kind.name());
        }
    }
}

#[test]
fn printed_metrics_are_the_listed_ones() {
    let listed = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits beside the package");
    let names_in_file = listed.matches("\"name\": ").count();
    for kind in Kind::ALL {
        let untraced = smoke(kind, 5, false);
        let traced = smoke(kind, 5, true);
        let end_to_end = metrics::end_to_end(&untraced).expect("VmHWM is readable");
        let per_layer = metrics::per_layer(&traced);
        for m in end_to_end.iter().chain(&per_layer) {
            assert!(
                listed.contains(&format!(
                    "\"name\": \"{}\", \"unit\": \"{}\"",
                    m.name, m.unit
                )),
                "{} ({}) is not listed with that unit",
                m.name,
                m.unit
            );
            assert!(
                m.value.is_finite(),
                "{}: {} is not finite",
                kind.name(),
                m.name
            );
        }
        let json = metrics::result_json(&traced, &per_layer).expect("finite metrics");
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
        // Every workload name plus every metric name.
        assert_eq!(
            Kind::ALL.len() + end_to_end.len() + per_layer.len(),
            names_in_file
        );
    }
}
