//! The benchmark command.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --rate 8000 --clients 2 --shards 2 \
//!     --slo-us bitmap-serve=2000,cnn-serve=800000,paper-mix=250000 \
//!     --workload bitmap-serve --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Prints a header, one labelled line per metric, and as its last line
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! traced run (plus an untraced run for the tracing overhead) with
//! `--trace 1`. Exits non-zero, printing no result, on any failure.

use coruscant_perfbench::report::{human_line, json_line};
use coruscant_perfbench::trace::Tracer;
use coruscant_perfbench::{end_to_end, host, run_traced, run_workload, Settings, Workload};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Where traced runs write their spans, relative to the working
/// directory.
const SPAN_DIR: &str = "perfbench/out";

struct Args {
    workload: Workload,
    settings: Settings,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut values: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if values.insert(key.to_string(), value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let mut take = |key: &str| values.remove(key).ok_or_else(|| format!("missing --{key}"));
    let workload_name = take("workload")?;
    let workload = Workload::parse(&workload_name)
        .ok_or_else(|| format!("unknown workload {workload_name}"))?;
    let number = |key: &str, v: String| -> Result<f64, String> {
        v.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x > 0.0)
            .ok_or_else(|| format!("--{key} needs a positive number, got {v}"))
    };
    let seed = take("seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = number("seconds", take("seconds")?)?;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let rate_per_sec = number("rate", take("rate")?)?;
    let count = |key: &str, v: String| -> Result<usize, String> {
        v.parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("--{key} needs a positive integer, got {v}"))
    };
    let clients = count("clients", take("clients")?)?;
    let shards = count("shards", take("shards")?)?;
    let slo_list = take("slo-us")?;
    let slo_us = slo_list
        .split(',')
        .find_map(|entry| entry.strip_prefix(&format!("{}=", workload.name())))
        .ok_or_else(|| format!("--slo-us names no limit for {}", workload.name()))
        .and_then(|v| number("slo-us", v.to_string()))?;
    if let Some(key) = values.keys().next() {
        return Err(format!("unknown option --{key}"));
    }
    Ok(Args {
        workload,
        settings: Settings {
            seed,
            seconds,
            shards,
            clients,
            rate_per_sec,
            slo_us,
        },
        trace,
    })
}

fn run(args: &Args) -> Result<String, String> {
    let s = &args.settings;
    let nproc = host::nproc();
    println!(
        "# perfbench rev {} | nproc {nproc} | workload {} | seed {} | {} s | trace {}",
        host::git_rev(),
        args.workload.name(),
        s.seed,
        s.seconds,
        u8::from(args.trace)
    );
    println!("# geometry: {}", args.workload.geometry());
    println!(
        "# shards {} (server and runtime) | closed-loop clients {} | open-loop rate {}/s | slo {} us",
        s.shards, s.clients, s.rate_per_sec, s.slo_us
    );
    if s.shards != nproc {
        println!(
            "# note: shard count {} differs from nproc {nproc}",
            s.shards
        );
    }

    if !args.trace {
        let run = run_workload(args.workload, s, &Tracer::new(false))?;
        for note in &run.notes {
            println!("# {note}");
        }
        let metrics = end_to_end(&run, host::rss_peak_mb()?);
        for m in &metrics {
            println!("{}", human_line(m));
        }
        return json_line(run.attempted, run.failed, &metrics);
    }

    let t = run_traced(args.workload, s)?;
    for note in &t.traced.notes {
        println!("# {note}");
    }
    for m in &t.metrics {
        println!("{}", human_line(m));
    }
    let path = PathBuf::from(SPAN_DIR).join(format!("spans-{}.jsonl", args.workload.name()));
    t.tracer
        .write_jsonl(
            &path,
            &format!(
                "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{}}}",
                args.workload.name(),
                s.seed,
                s.seconds / 2.0
            ),
        )
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "# wrote {} spans to {}",
        t.tracer.spans().len(),
        path.display()
    );
    json_line(
        t.untraced.attempted + t.traced.attempted,
        t.untraced.failed + t.traced.failed + t.device_failed,
        &t.metrics,
    )
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
