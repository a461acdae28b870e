//! `paper-mix`: a seeded mix of single-instruction jobs at Table II
//! geometry (`MemoryConfig::paper()`, 512-wire DBCs), submitted straight
//! to `runtime::Runtime` with blocking `submit`, then `finish`.
//!
//! The mix uses the device layer four ways — carry-chain shifting
//! (adds), TR-only bulk ops, multiply reduction, and row writes beside
//! reads — so a gain for one op kind that costs another shows. It
//! bypasses `server` and `qos`, so a frontend change should not move it.

use crate::ops::{make_job, Job, OpKind};
use crate::report::{ratio, timing, Kind};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::{layers, repeated_setup, runtime_layers, Run, Settings, SETUPS};
use coruscant_core::program::{execute, PimProgram};
use coruscant_mem::MemoryConfig;
use coruscant_qos::SplitMix64;
use coruscant_runtime::{JobNotice, Placement, Runtime, RuntimeOptions, RuntimeReport};
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::Instant;

/// Jobs per round (86 of each kind): one runtime session each.
pub const ROUND: usize = 516;
/// Jobs in the set-up's warm-up round.
pub const WARMUP: usize = 64;

/// Table II geometry.
#[must_use]
pub fn config() -> MemoryConfig {
    MemoryConfig::paper()
}

/// The mix: the op kinds in a fixed rotation, so every seed does the
/// same work in the same bank order and the simulated makespan depends
/// on the code alone; the seed draws every operand.
fn generate(seed: u64, n: usize) -> Vec<Job> {
    let mut rng = SplitMix64::new(seed ^ 0x9A9E_F00D);
    let width = config().nanowires_per_dbc;
    (0..n)
        .map(|i| make_job(OpKind::ALL[i % OpKind::ALL.len()], width, &mut rng))
        .collect()
}

/// One runtime session over `jobs`.
struct Round {
    report: RuntimeReport,
    /// Job ids in `jobs` order.
    ids: Vec<u64>,
    /// Submit call → completion notice, µs, in `jobs` order.
    latency_us: Vec<f64>,
    submit_us: Vec<f64>,
    finish_ms: f64,
    /// Jobs per second over the whole session, start to finish.
    rate: f64,
}

fn round(jobs: &[Job], shards: usize, tracer: &Tracer) -> Result<Round, String> {
    let began = Instant::now();
    let (tx, rx) = mpsc::channel();
    let runtime = Runtime::new(
        config(),
        RuntimeOptions::default()
            .with_shards(shards)
            .with_notify(tx),
    )
    .map_err(|e| format!("runtime start: {e}"))?;
    std::thread::scope(|scope| {
        // The notice feed closes when `finish` drops the runtime.
        let listener = scope.spawn(move || {
            let mut seen = HashMap::new();
            for notice in rx {
                if let JobNotice::Attempt { job_id, .. } = notice {
                    seen.entry(job_id).or_insert_with(Instant::now);
                }
            }
            seen
        });
        let mut ids = Vec::with_capacity(jobs.len());
        let mut called = Vec::with_capacity(jobs.len());
        let mut submit_us = Vec::with_capacity(jobs.len());
        for job in jobs {
            let program = job.program.clone();
            let t = Instant::now();
            let id = runtime
                .submit(program, Placement::Auto)
                .map_err(|e| format!("submit: {e}"))?;
            let end = Instant::now();
            tracer.record("runtime.submit", 0, id + 1, t, end);
            submit_us.push((end - t).as_secs_f64() * 1e6);
            ids.push(id);
            called.push(t);
        }
        let t = Instant::now();
        let report = runtime.finish().map_err(|e| format!("finish: {e}"))?;
        let ended = Instant::now();
        tracer.record("runtime.finish", 0, 0, t, ended);
        let seen = listener.join().expect("notice listener thread");
        let latency_us = ids
            .iter()
            .zip(&called)
            .map(|(id, t)| {
                seen.get(id)
                    .map_or(f64::INFINITY, |at| (*at - *t).as_secs_f64() * 1e6)
            })
            .collect();
        Ok(Round {
            report,
            ids,
            latency_us,
            submit_us,
            finish_ms: (ended - t).as_secs_f64() * 1e3,
            rate: jobs.len() as f64 / (ended - began).as_secs_f64(),
        })
    })
}

/// Wrong or missing readouts of a round.
fn check(jobs: &[Job], round: &Round) -> u64 {
    let by_id: HashMap<u64, &Vec<(String, Vec<u64>)>> = round
        .report
        .outcomes
        .iter()
        .map(|o| (o.job_id, &o.outputs))
        .collect();
    jobs.iter()
        .zip(&round.ids)
        .filter(|(job, id)| {
            by_id
                .get(id)
                .is_none_or(|out| out.len() != 1 || out[0].1 != job.expected)
        })
        .count() as u64
}

/// Runs `paper-mix`.
///
/// # Errors
///
/// When a runtime session fails to start or drain.
pub fn run(settings: &Settings, tracer: &Tracer) -> Result<Run, String> {
    let quiet = Tracer::new(false);
    let (jobs, setup_s) = repeated_setup(
        SETUPS,
        || {
            let t = Instant::now();
            let jobs = generate(settings.seed, ROUND);
            let warm = round(&jobs[..WARMUP], settings.shards, &quiet)?;
            if check(&jobs[..WARMUP], &warm) > 0 {
                return Err("warm-up readouts wrong".into());
            }
            Ok((jobs, t.elapsed().as_secs_f64()))
        },
        |_| Ok(()),
    )?;

    let started = Instant::now();
    let deadline = started + std::time::Duration::from_secs_f64(settings.seconds);
    let mut rounds = Vec::new();
    while Instant::now() < deadline {
        rounds.push(round(&jobs, settings.shards, tracer)?);
    }
    let elapsed = started.elapsed().as_secs_f64();

    let mut failed = 0u64;
    let mut within = 0u64;
    let mut latency_us = Vec::with_capacity(rounds.len() * ROUND);
    for r in &rounds {
        failed += check(&jobs, r);
        for &l in &r.latency_us {
            if l <= settings.slo_us {
                within += 1;
            }
            if l.is_finite() {
                latency_us.push(l);
            }
        }
    }
    // The simulated makespan must repeat exactly across sessions of the
    // same jobs; a difference is a determinism failure.
    let first = &rounds[0].report.stats;
    let diverged = rounds.iter().filter(|r| {
        r.report.stats.makespan_cycles != first.makespan_cycles
            || r.report.stats.controller.energy_pj.to_bits() != first.controller.energy_pj.to_bits()
    });
    failed += diverged.count() as u64;

    // Device-only time: each job replayed on a fresh machine.
    let config = config();
    let mut device_us = Vec::with_capacity(jobs.len());
    for job in &jobs {
        let t = Instant::now();
        let outcome = execute(&job.program, &config).map_err(|e| format!("replay: {e}"))?;
        device_us.push(t.elapsed().as_secs_f64() * 1e6);
        if outcome.outputs.len() != 1 || outcome.outputs[0].1 != job.expected {
            failed += 1;
        }
    }

    let done = (rounds.len() * ROUND) as u64;
    let throughput_per_s = median(&rounds.iter().map(|r| r.rate).collect::<Vec<_>>());
    let latency = Summary::of(&latency_us);
    let mut layers = layers::device_share(
        &device_us,
        "core::program::execute",
        throughput_per_s,
        settings.shards,
    )
    .to_vec();
    let submit_us: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.submit_us.iter().copied())
        .collect();
    let finish_ms: Vec<f64> = rounds.iter().map(|r| r.finish_ms).collect();
    layers.extend(timing("runtime.submit_us", "us", Kind::Wall, &submit_us));
    layers.extend(timing("runtime.finish_ms", "ms", Kind::Wall, &finish_ms));
    let mut total = first.clone();
    for r in &rounds[1..] {
        let s = &r.report.stats;
        total.jobs += s.jobs;
        total.cache.hits += s.cache.hits;
        total.batch.batched_jobs += s.batch.batched_jobs;
        total.sched.pop_micros += s.sched.pop_micros;
        total.sched.admit_micros += s.sched.admit_micros;
        total.sched.place_micros += s.sched.place_micros;
        total.sched.dispatch_micros += s.sched.dispatch_micros;
        total.sched.ack_micros += s.sched.ack_micros;
    }
    layers.extend(runtime_layers(&total, done));
    if tracer.enabled() {
        let programs: Vec<&PimProgram> = jobs.iter().map(|j| &j.program).collect();
        layers.push(layers::compiler(tracer, &config, &programs)?);
    }

    let mut per_kind = String::new();
    for kind in OpKind::ALL {
        let n = jobs.iter().filter(|j| j.kind == kind).count();
        per_kind.push_str(&format!(" {}={n}", kind.name()));
    }
    let notes = vec![
        format!("mix of {ROUND} jobs:{per_kind}"),
        format!(
            "{} rounds (one runtime session each) over {elapsed:.2} s ({:.1}/s whole run); throughput is the median round rate; latency from submit call to completion notice",
            rounds.len(),
            done as f64 / elapsed
        ),
        "sim_*: one round's makespan and energy (identical in every round)".into(),
    ];
    Ok(Run {
        attempted: done,
        failed,
        setup_s,
        throughput_per_s,
        latency_p50_us: latency.p50,
        latency_p99_us: latency.tail,
        latency_note: [
            format!("median of {} jobs", latency.n),
            latency.describe_tail(),
        ],
        slo_attainment: ratio(within as f64, done as f64),
        sim_cycles: first.makespan_cycles,
        sim_energy_uj: first.controller.energy_pj / 1e6,
        layers,
        notes,
    })
}
