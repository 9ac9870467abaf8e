//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, last, one JSON line with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). Lines
//! before it give the run context, the model digest, the model summary
//! and the correctness gate's tally.

use std::process::ExitCode;

use perfbench::{context, metrics, run, Kind, Size};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <fig9-cold|config-sweep|serve-replay> \
                     --seed <u64> --seconds <s> --trace <0|1>";

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| s.is_finite() && *s > 0.0);
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", context::describe());
    let o = run(args.kind, Size::Bench, args.seed, args.seconds, args.trace);
    println!(
        "model digest: {:016x} ({} simulations per cycle)",
        o.digest, o.sims_per_cycle
    );
    for line in &o.summary {
        println!("{line}");
    }
    println!(
        "checks: attempted={} failed={} failed_frac={}",
        o.checks.attempted,
        o.checks.failed,
        o.checks.failed_frac()
    );
    for (name, timed) in [
        ("untraced cycles", &o.untraced),
        ("traced cycles", &o.traced),
        ("set-ups", &o.setup),
    ] {
        println!(
            "{name}: cpu {:?} s, reference {:?} s, scaled {:?} s",
            timed.secs,
            timed.reference_s,
            timed.scaled()
        );
    }
    let metrics = if args.trace {
        Ok(metrics::per_layer(&o))
    } else {
        metrics::end_to_end(&o)
    };
    if !o.probed.is_empty() {
        println!(
            "probes: {} — this workload's timed phase does not call these layers; \
             [probe] figures were measured on its sample targets and describe the probe",
            o.probed.join(" ")
        );
    }
    let line = metrics.and_then(|ms| {
        for metric in &ms {
            let probe = o.probed.iter().any(|p| metric.name.starts_with(p));
            println!(
                "  {:<28} {:>16.6} {}{}",
                metric.name,
                metric.value,
                metric.unit,
                if probe { " [probe]" } else { "" }
            );
        }
        metrics::result_json(&o, &ms)
    });
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
