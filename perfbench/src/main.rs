//! Command-line entry point: parses the arguments, refuses to run under
//! environment overrides, runs one workload, and prints the metrics by
//! name with their units. The last line of standard output is the JSON
//! result; the exit code is non-zero when any operation failed. The
//! provenance, metrics and spans are also written to `perfbench/out/`.

use std::path::Path;
use std::process::ExitCode;

use fdbscan_device::json::Json;
use fdbscan_perfbench::metrics::catalog;
use fdbscan_perfbench::workloads::{run, RunConfig, Workload, GUARDED_ENV};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: 1.0,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(config) => config,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> =
        GUARDED_ENV.iter().copied().filter(|v| std::env::var_os(v).is_some()).collect();
    if !set.is_empty() {
        eprintln!("refusing to run: {} changes the measured code path; unset it", set.join(", "));
        return ExitCode::from(2);
    }

    let outcome = run(&config);
    println!("provenance {}", outcome.provenance.to_compact());
    for note in &outcome.notes {
        println!("note: {note}");
    }
    let units = catalog(config.trace);
    let mut metrics = Vec::new();
    for ((name, value), def) in outcome.metrics.iter().zip(units) {
        if *value != 0.0 && value.abs() < 1e-3 {
            println!("{name:<36} {value:>16.6e} {}", def.unit);
        } else {
            println!("{name:<36} {value:>16.6} {}", def.unit);
        }
        metrics.push((
            name.to_string(),
            Json::obj([("value", Json::F64(*value)), ("unit", Json::str(def.unit))]),
        ));
    }
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "{:<36} {error_rate:>16.6} ({} of {} operations)",
        "error_rate", outcome.failed, outcome.attempted
    );

    // Failed, shed and rejected operations all make the run incorrect.
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(outcome.attempted)),
        ("failed", Json::U64(outcome.failed)),
        ("metrics", Json::Obj(metrics.into_iter().collect())),
    ]);
    let record = Json::obj([
        ("provenance", outcome.provenance),
        ("result", result.clone()),
        ("error_rate", Json::F64(error_rate)),
        ("spans", outcome.spans.unwrap_or(Json::Null)),
    ]);
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = out.join(format!(
        "{}-seed{}-trace{}.json",
        config.workload.name(),
        config.seed,
        u8::from(config.trace)
    ));
    if let Err(err) =
        std::fs::create_dir_all(&out).and_then(|_| std::fs::write(&file, record.to_compact()))
    {
        eprintln!("could not write {}: {err}", file.display());
    }
    println!("{}", result.to_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("{} of {} operations failed", outcome.failed, outcome.attempted);
        ExitCode::FAILURE
    }
}
