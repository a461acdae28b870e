//! End-to-end and per-layer benchmark of the CORUSCANT serving stack.
//!
//! Three seeded workloads drive the stack from outside through the
//! public APIs of `server`, `qos`, `runtime`, `compiler`, `core`, `mem`
//! and `pipeline`:
//!
//! - `bitmap-serve`: bitmap population-count queries through
//!   `server::Server` (admission and weighted-fair QoS on): an open-loop
//!   phase at a fixed Poisson rate, then a closed-loop capacity phase.
//! - `cnn-serve`: batches of LeNet-5 proxy frames at full precision
//!   through `pipeline::serve::ServingSession`, weights pinned at set-up.
//! - `paper-mix`: single-instruction jobs at Table II geometry straight
//!   into `runtime::Runtime` (blocking submit, then finish).
//!
//! Every output is checked against host arithmetic or the standalone
//! engine. Untraced runs give the end-to-end metrics; a traced run
//! records spans around each layer call and gives the per-layer metrics.

pub mod bitmap;
pub mod cnn;
pub mod host;
pub mod layers;
pub mod mix;
pub mod ops;
pub mod report;
pub mod stats;
pub mod trace;

use report::{ratio, timing, Kind, Metric};
use trace::Tracer;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Bitmap queries through the server.
    BitmapServe,
    /// CNN frames through the pipeline serving session.
    CnnServe,
    /// Table II single-instruction jobs through the runtime.
    PaperMix,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::BitmapServe,
        Workload::CnnServe,
        Workload::PaperMix,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::BitmapServe => "bitmap-serve",
            Workload::CnnServe => "cnn-serve",
            Workload::PaperMix => "paper-mix",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulated geometry, for the header.
    #[must_use]
    pub fn geometry(self) -> String {
        let c = match self {
            Workload::BitmapServe => bitmap::config(),
            Workload::CnnServe => cnn::config(),
            Workload::PaperMix => mix::config(),
        };
        format!(
            "{} banks x {} subarrays x {} tiles, {} PIM DBC/tile, {} wires x {} rows, TRD {}",
            c.banks,
            c.subarrays_per_bank,
            c.tiles_per_subarray,
            c.pim_dbcs_per_tile,
            c.nanowires_per_dbc,
            c.rows_per_dbc,
            c.trd
        )
    }
}

/// The fixed load of one run.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Seeds every input.
    pub seed: u64,
    /// Length of the measured phase(s), seconds.
    pub seconds: f64,
    /// Server and runtime shard count.
    pub shards: usize,
    /// Closed-loop clients (`bitmap-serve` capacity phase).
    pub clients: usize,
    /// Open-loop offered rate, requests per second (`bitmap-serve`).
    pub rate_per_sec: f64,
    /// Latency limit of the workload's `slo_attainment`, microseconds.
    pub slo_us: f64,
}

/// What one workload run measured.
#[derive(Debug, Clone)]
pub struct Run {
    /// Requests, frames or jobs the timed phases offered.
    pub attempted: u64,
    /// Offered operations that failed or returned a wrong output, plus
    /// wrong results of the per-layer checks.
    pub failed: u64,
    /// Median set-up time, seconds (host wall).
    pub setup_s: f64,
    /// Completed operations per host second: the median over the
    /// measured windows (rounds or fixed spans of time).
    pub throughput_per_s: f64,
    /// Median request latency, microseconds (host wall).
    pub latency_p50_us: f64,
    /// Tail request latency, microseconds (host wall).
    pub latency_p99_us: f64,
    /// How the two latencies were reduced from the samples.
    pub latency_note: [String; 2],
    /// Share of offered requests served correctly within the limit.
    pub slo_attainment: f64,
    /// Simulated makespan of the workload's fixed sample, memory cycles.
    pub sim_cycles: u64,
    /// Simulated energy of the same sample, microjoules.
    pub sim_energy_uj: f64,
    /// Per-layer metrics the workload computes itself.
    pub layers: Vec<Metric>,
    /// Human-readable lines: phases, bases, checks.
    pub notes: Vec<String>,
}

/// Runs one workload.
///
/// # Errors
///
/// A description of the first set-up or run failure; wrong outputs are
/// not errors but count in [`Run::failed`].
pub fn run_workload(
    workload: Workload,
    settings: &Settings,
    tracer: &Tracer,
) -> Result<Run, String> {
    match workload {
        Workload::BitmapServe => bitmap::run(settings, tracer),
        Workload::CnnServe => cnn::run(settings, tracer),
        Workload::PaperMix => mix::run(settings, tracer),
    }
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order.
#[must_use]
pub fn end_to_end(run: &Run, rss_peak_mb: f64) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", run.setup_s, "s", Kind::Wall)
            .noted(format!("median of {SETUPS} set-ups")),
        Metric::new("throughput_per_s", run.throughput_per_s, "1/s", Kind::Wall)
            .noted("median over windows"),
        Metric::new("latency_p50_us", run.latency_p50_us, "us", Kind::Wall)
            .noted(run.latency_note[0].clone()),
        Metric::new("slo_attainment", run.slo_attainment, "ratio", Kind::Ratio)
            .noted("base: offered requests"),
        Metric::new(
            "sim_cycles",
            run.sim_cycles as f64,
            "cycles",
            Kind::Simulated,
        ),
        Metric::new("sim_energy_uj", run.sim_energy_uj, "uJ", Kind::Simulated),
        Metric::new("rss_peak_mb", rss_peak_mb, "MiB", Kind::Memory),
    ]
}

/// Per-layer timings read from the span log, as (metric prefix, span
/// name). The prefix is the span name with `_us` after the call, e.g.
/// `mem.store_row.w64` gives `mem.store_row_us.w64`.
fn span_timings() -> Vec<(String, &'static str)> {
    let exec = layers::EXEC_SPANS.iter().flat_map(|(_, names)| *names);
    let rows = layers::STORE_SPANS
        .into_iter()
        .zip(layers::LOAD_SPANS)
        .flat_map(|(store, load)| [store, load]);
    std::iter::once(layers::OPTIMIZE_SPAN)
        .chain(exec)
        .chain(rows)
        .map(|span| {
            let mut parts = span.splitn(3, '.');
            let layer_call = format!(
                "{}.{}_us",
                parts.next().unwrap_or(""),
                parts.next().unwrap_or("")
            );
            let prefix = match parts.next() {
                Some(rest) => format!("{layer_call}.{rest}"),
                None => layer_call,
            };
            (prefix, span)
        })
        .collect()
}

/// Timing metric prefixes the workloads report from their own samples,
/// with units.
const WORKLOAD_TIMINGS: [(&str, &str); 7] = [
    ("server.submit_us", "us"),
    ("server.resolve_us", "us"),
    ("qos.gen_lag_us", "us"),
    ("runtime.submit_us", "us"),
    ("runtime.finish_ms", "ms"),
    ("pipeline.pin_ms", "ms"),
    ("pipeline.submit_us", "us"),
];

/// Scalar per-layer metrics: (name, unit, kind).
const SCALARS: [(&str, &str, Kind); 16] = [
    ("server.shed", "count", Kind::Count),
    ("runtime.sched_us_per_job", "us", Kind::ThreadCpu),
    ("runtime.stage_share.pop", "ratio", Kind::Ratio),
    ("runtime.stage_share.admit", "ratio", Kind::Ratio),
    ("runtime.stage_share.place", "ratio", Kind::Ratio),
    ("runtime.stage_share.dispatch", "ratio", Kind::Ratio),
    ("runtime.stage_share.ack", "ratio", Kind::Ratio),
    ("runtime.cache_hit_ratio", "ratio", Kind::Ratio),
    ("runtime.batch_ratio", "ratio", Kind::Ratio),
    ("compiler.instructions_eliminated", "count", Kind::Count),
    ("device_share", "ratio", Kind::Ratio),
    ("device_us_per_request", "us", Kind::Wall),
    ("e2e.latency_p99_us", "us", Kind::Wall),
    ("trace.overhead", "ratio", Kind::Ratio),
    ("trace.coverage", "ratio", Kind::Ratio),
    ("trace.spans", "count", Kind::Count),
];

/// Every per-layer metric name with its unit and kind, in
/// `BENCHMARK.json` order.
#[must_use]
pub fn per_layer_catalog() -> Vec<(String, &'static str, Kind)> {
    let mut out = Vec::new();
    let mut push_timing = |prefix: &str, unit: &'static str| {
        out.push((format!("{prefix}.p50"), unit, Kind::Wall));
        out.push((format!("{prefix}.tail"), unit, Kind::Wall));
        out.push((format!("{prefix}.n"), "count", Kind::Count));
    };
    for (prefix, unit) in WORKLOAD_TIMINGS {
        push_timing(prefix, unit);
    }
    for (prefix, _) in span_timings() {
        push_timing(&prefix, "us");
    }
    for (name, unit, kind) in SCALARS {
        out.push((name.to_string(), unit, kind));
    }
    out
}

/// Assembles the per-layer metrics of a traced run: span-derived
/// timings, the workload's own metrics, and the tracing overhead against
/// the untraced run. Metrics of a layer the workload bypasses read 0.
///
/// # Errors
///
/// When the workload reports a metric the catalog does not list.
pub fn per_layer(traced: &Run, untraced: &Run, tracer: &Tracer) -> Result<Vec<Metric>, String> {
    let mut measured: Vec<Metric> = traced.layers.clone();
    for (prefix, span) in span_timings() {
        measured.extend(timing(
            &prefix,
            "us",
            Kind::Wall,
            &tracer.durations_us(span),
        ));
    }
    let overhead = 1.0 - ratio(traced.throughput_per_s, untraced.throughput_per_s);
    measured.push(
        Metric::new("trace.overhead", overhead, "ratio", Kind::Ratio).noted(format!(
            "1 - traced/untraced throughput = 1 - {:.1}/{:.1} per s",
            traced.throughput_per_s, untraced.throughput_per_s
        )),
    );
    measured.push(
        Metric::new(
            "e2e.latency_p99_us",
            traced.latency_p99_us,
            "us",
            Kind::Wall,
        )
        .noted(traced.latency_note[1].clone()),
    );
    measured.push(Metric::new(
        "trace.spans",
        tracer.spans().len() as f64,
        "count",
        Kind::Count,
    ));

    let catalog = per_layer_catalog();
    if let Some(stray) = measured
        .iter()
        .find(|m| !catalog.iter().any(|(name, _, _)| *name == m.name))
    {
        return Err(format!(
            "metric {} is not in the per-layer catalog",
            stray.name
        ));
    }
    Ok(catalog
        .into_iter()
        .map(|(name, unit, kind)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| {
                    Metric::new(name, 0.0, unit, kind).noted("layer not exercised by this workload")
                })
        })
        .collect())
}

/// The runtime's scheduler profile and cache/batch counters as per-layer
/// metrics.
#[must_use]
pub fn runtime_layers(stats: &coruscant_runtime::RuntimeStats, submissions: u64) -> Vec<Metric> {
    let sched = &stats.sched;
    let stages = sched.stage_micros() as f64;
    let mut out = vec![Metric::new(
        "runtime.sched_us_per_job",
        ratio(stages, stats.jobs as f64),
        "us",
        Kind::ThreadCpu,
    )
    .noted(format!("{} stage µs over {} jobs", stages, stats.jobs))];
    for (name, micros) in [
        ("pop", sched.pop_micros),
        ("admit", sched.admit_micros),
        ("place", sched.place_micros),
        ("dispatch", sched.dispatch_micros),
        ("ack", sched.ack_micros),
    ] {
        out.push(
            Metric::new(
                format!("runtime.stage_share.{name}"),
                ratio(micros as f64, stages),
                "ratio",
                Kind::Ratio,
            )
            .noted(format!("{micros} of {stages} scheduler thread-CPU µs")),
        );
    }
    out.push(
        Metric::new(
            "runtime.cache_hit_ratio",
            ratio(stats.cache.hits as f64, submissions as f64),
            "ratio",
            Kind::Ratio,
        )
        .noted(format!(
            "{} hits over {submissions} submissions",
            stats.cache.hits
        )),
    );
    out.push(
        Metric::new(
            "runtime.batch_ratio",
            ratio(stats.batch.batched_jobs as f64, stats.jobs as f64),
            "ratio",
            Kind::Ratio,
        )
        .noted(format!(
            "{} batched over {} jobs",
            stats.batch.batched_jobs, stats.jobs
        )),
    );
    out
}

/// A traced invocation: the untraced and traced halves, the spans, and
/// the assembled per-layer metrics.
pub struct Traced {
    /// The untraced half, the base of the tracing overhead.
    pub untraced: Run,
    /// The traced half.
    pub traced: Run,
    /// The traced half's spans, plus the device-layer timings.
    pub tracer: Tracer,
    /// Every per-layer metric, in catalog order.
    pub metrics: Vec<Metric>,
    /// Wrong results of the device-layer timings.
    pub device_failed: u64,
}

/// Runs `workload` untraced and then traced, each for half of
/// `settings.seconds`, times the `core` and `mem` layers at 64 and 512
/// wires, and assembles the per-layer metrics.
///
/// # Errors
///
/// As [`run_workload`] and [`per_layer`].
pub fn run_traced(workload: Workload, settings: &Settings) -> Result<Traced, String> {
    let half = Settings {
        seconds: settings.seconds / 2.0,
        ..settings.clone()
    };
    let untraced = run_workload(workload, &half, &Tracer::new(false))?;
    let tracer = Tracer::new(true);
    let traced = run_workload(workload, &half, &tracer)?;
    let device_failed =
        layers::device(&tracer, [&bitmap::config(), &mix::config()], settings.seed)?;
    let metrics = per_layer(&traced, &untraced, &tracer)?;
    Ok(Traced {
        untraced,
        traced,
        tracer,
        metrics,
        device_failed,
    })
}

/// Runs `f` `times` times and returns the median of the times it reports
/// and the last value it built; earlier values are handed to `discard`.
///
/// # Errors
///
/// Propagates the first failure of `f`.
pub fn repeated_setup<T>(
    times: usize,
    mut f: impl FnMut() -> Result<(T, f64), String>,
    mut discard: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(times);
    let mut kept = None;
    for _ in 0..times {
        let (value, s) = f()?;
        secs.push(s);
        if let Some(old) = kept.replace(value) {
            discard(old)?;
        }
    }
    let value = kept.ok_or("no set-up ran")?;
    Ok((value, stats::median(&secs)))
}

/// Set-ups per run; the median is `setup_s`.
pub const SETUPS: usize = 5;
