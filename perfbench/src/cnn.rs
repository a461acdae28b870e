//! `cnn-serve`: batches of LeNet-5 proxy frames at full precision through
//! `pipeline::serve::ServingSession`, weights pinned during set-up.
//!
//! A few large, dependent jobs: almost all the time is the device
//! simulation's multiplies and carry-chain adds, and the jobs exercise
//! dependency chains and resident pins while the frontend does little.

use crate::report::{ratio, timing, Kind};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::{layers, repeated_setup, runtime_layers, Run, Settings, SETUPS};
use coruscant_core::program::PimProgram;
use coruscant_mem::MemoryConfig;
use coruscant_nn::infer::{proxy_lenet5, run_pim, synth_image, synth_weights, ModelWeights};
use coruscant_nn::models::Network;
use coruscant_nn::quant::Precision;
use coruscant_nn::tensor::Tensor3;
use coruscant_pipeline::serve::ServingSession;
use coruscant_pipeline::Pipeline;
use coruscant_runtime::RuntimeOptions;
use coruscant_server::{Priority, Server, ServerOptions, ServerStats};
use std::time::Instant;

/// Frames per submitted batch.
pub const FRAMES: usize = 8;
/// Seed of the served model's weights.
pub const WEIGHT_SEED: u64 = 3;

/// `bench_nn`'s sixteen-tile geometry (4 banks × 2 × 2, 64 wires).
#[must_use]
pub fn config() -> MemoryConfig {
    MemoryConfig {
        banks: 4,
        subarrays_per_bank: 2,
        tiles_per_subarray: 2,
        dbcs_per_tile: 4,
        pim_dbcs_per_tile: 1,
        nanowires_per_dbc: 64,
        rows_per_dbc: 32,
        trd: 7,
        bus_mhz: 1000,
        memory_cycle_ns: 1.25,
    }
}

/// The seeded model and frames.
struct Inputs {
    net: Network,
    weights: ModelWeights,
    images: Vec<Tensor3>,
}

impl Inputs {
    fn generate(seed: u64) -> Inputs {
        let net = proxy_lenet5();
        // The model is fixed (`bench_nn`'s weight seed); the workload
        // seed picks the frames, so every seed serves the same model.
        let weights = synth_weights(&net, Precision::Full, WEIGHT_SEED);
        let images = (0..FRAMES as u64)
            .map(|i| synth_image(&net, seed.wrapping_mul(1_000_003).wrapping_add(i)))
            .collect();
        Inputs {
            net,
            weights,
            images,
        }
    }
}

/// A started server with the model pinned.
struct Live {
    server: Server,
    session: ServingSession,
}

/// Starts a server and pins the model; returns the pin call's duration.
fn start(inputs: &Inputs, shards: usize, tracer: &Tracer) -> Result<(Live, f64), String> {
    let config = config();
    let pipeline = Pipeline::new(&config, inputs.net.clone(), inputs.weights.clone(), 0)
        .map_err(|e| format!("pipeline: {e}"))?;
    let server = Server::start(
        config,
        ServerOptions {
            runtime: RuntimeOptions::default().with_shards(shards),
            ..ServerOptions::default()
        },
    )
    .map_err(|e| format!("server start: {e}"))?;
    let t = Instant::now();
    let session =
        ServingSession::pin(server.client(), pipeline).map_err(|e| format!("pin: {e}"))?;
    let end = Instant::now();
    tracer.record("pipeline.pin", 0, 0, t, end);
    Ok((Live { server, session }, (end - t).as_secs_f64() * 1e3))
}

/// One served batch.
struct Batch {
    /// Each frame's logits, or the error text.
    logits: Vec<Result<Vec<u64>, String>>,
    /// When each frame's logits arrived.
    done: Vec<Instant>,
    /// When `submit_batch` was called.
    submitted: Instant,
    /// `submit_batch` time per frame, µs.
    submit_us_per_frame: f64,
}

/// Serves the batch once and waits for every frame in order.
fn serve_batch(
    live: &Live,
    images: &[Tensor3],
    tracer: &Tracer,
    first_req: u64,
) -> Result<Batch, String> {
    let t = Instant::now();
    let handles = live
        .session
        .submit_batch(images, Priority::Normal)
        .map_err(|e| format!("submit_batch: {e}"))?;
    let returned = Instant::now();
    tracer.record("pipeline.submit_batch", 0, 0, t, returned);
    let mut logits = Vec::with_capacity(handles.len());
    let mut done = Vec::with_capacity(handles.len());
    for (i, h) in handles.into_iter().enumerate() {
        logits.push(h.wait().map_err(|e| e.to_string()));
        let at = Instant::now();
        tracer.record("request", 0, first_req + i as u64, t, at);
        done.push(at);
    }
    Ok(Batch {
        logits,
        done,
        submitted: t,
        submit_us_per_frame: (returned - t).as_secs_f64() * 1e6 / images.len() as f64,
    })
}

/// Runs `cnn-serve`.
///
/// # Errors
///
/// When set-up fails or the server cannot be drained.
pub fn run(settings: &Settings, tracer: &Tracer) -> Result<Run, String> {
    let mut pin_ms = Vec::new();
    let ((inputs, live), setup_s) = repeated_setup(
        SETUPS,
        || {
            let t = Instant::now();
            let inputs = Inputs::generate(settings.seed);
            let (live, pin) = start(&inputs, settings.shards, tracer)?;
            pin_ms.push(pin);
            // Warm-up: one frame, which also waits out the pin jobs.
            let warm = serve_batch(&live, &inputs.images[..1], &Tracer::new(false), 0)?;
            warm.logits[0]
                .as_ref()
                .map_err(|e| format!("warm-up frame: {e}"))?;
            Ok(((inputs, live), t.elapsed().as_secs_f64()))
        },
        |(_, live)| {
            live.server
                .shutdown()
                .map(drop)
                .map_err(|e| format!("shutdown: {e}"))
        },
    )?;

    let started = Instant::now();
    let deadline = started + std::time::Duration::from_secs_f64(settings.seconds);
    let mut served: Vec<Result<Vec<u64>, String>> = Vec::new();
    let mut latency_us = Vec::new();
    let mut submit_us = Vec::new();
    let mut round_rates = Vec::new();
    while Instant::now() < deadline {
        let batch = serve_batch(&live, &inputs.images, tracer, served.len() as u64 + 1)?;
        let t = batch.submitted;
        submit_us.extend(std::iter::repeat_n(batch.submit_us_per_frame, FRAMES));
        latency_us.extend(batch.done.iter().map(|at| (*at - t).as_secs_f64() * 1e6));
        let last = *batch.done.last().expect("a non-empty batch");
        round_rates.push(FRAMES as f64 / (last - t).as_secs_f64());
        served.extend(batch.logits);
    }
    let elapsed = started.elapsed().as_secs_f64();
    let Live { server, session } = live;
    drop(session);
    let stats: ServerStats = server.shutdown().map_err(|e| format!("shutdown: {e}"))?;

    // Checks, outside the timed region: every frame's logits equal the
    // standalone engine's, whose run time is the device-only time.
    let config = config();
    let mut device_us = Vec::with_capacity(FRAMES);
    let mut expected = Vec::with_capacity(FRAMES);
    for image in &inputs.images {
        let t = Instant::now();
        expected.push(
            run_pim(&config, &inputs.net, &inputs.weights, image)
                .map_err(|e| format!("run_pim: {e}"))?,
        );
        device_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let mut failed = 0u64;
    let mut within = 0u64;
    for (i, logits) in served.iter().enumerate() {
        if logits.as_ref().ok() == Some(&expected[i % FRAMES]) {
            if latency_us[i] <= settings.slo_us {
                within += 1;
            }
        } else {
            failed += 1;
        }
    }

    // Simulated cost of one batch on a fresh pinned server.
    let (sim, pin) = start(&inputs, settings.shards, tracer)?;
    pin_ms.push(pin);
    let batch = serve_batch(&sim, &inputs.images, &Tracer::new(false), 0)?;
    failed += batch
        .logits
        .iter()
        .zip(&expected)
        .filter(|(got, want)| got.as_ref().ok() != Some(want))
        .count() as u64;
    let Live { server, session } = sim;
    drop(session);
    let sim_stats = server.shutdown().map_err(|e| format!("shutdown: {e}"))?;

    let frames = served.len() as u64;
    let latency = Summary::of(&latency_us);
    let throughput_per_s = median(&round_rates);
    let mut layers = layers::device_share(
        &device_us,
        "nn::infer::run_pim",
        throughput_per_s,
        settings.shards,
    )
    .to_vec();
    layers.extend(timing("pipeline.pin_ms", "ms", Kind::Wall, &pin_ms));
    layers.extend(timing("pipeline.submit_us", "us", Kind::Wall, &submit_us));
    layers.extend(runtime_layers(&stats.runtime, stats.accepted));
    if tracer.enabled() {
        let pipeline = Pipeline::new(&config, inputs.net.clone(), inputs.weights.clone(), 0)
            .map_err(|e| format!("pipeline: {e}"))?;
        let pins = pipeline.pin_programs();
        let programs: Vec<&PimProgram> = pins.iter().collect();
        layers.push(layers::compiler(tracer, &config, &programs)?);
    }

    let notes = vec![
        format!(
            "{frames} frames in {} batches of {FRAMES} over {elapsed:.2} s ({:.2}/s whole run); throughput is the median batch rate; latency from batch submission to the frame's logits",
            round_rates.len(),
            frames as f64 / elapsed
        ),
        format!(
            "batch rates/s {}",
            crate::report::list(round_rates.iter().copied())
        ),
        format!(
            "sim_*: one batch of {FRAMES} on a fresh pinned server ({} runtime jobs)",
            sim_stats.runtime.jobs
        ),
    ];
    Ok(Run {
        attempted: frames,
        failed,
        setup_s,
        throughput_per_s,
        latency_p50_us: latency.p50,
        latency_p99_us: latency.tail,
        latency_note: [
            format!("median of {} frames", latency.n),
            latency.describe_tail(),
        ],
        slo_attainment: ratio(within as f64, frames as f64),
        sim_cycles: sim_stats.runtime.makespan_cycles,
        sim_energy_uj: sim_stats.runtime.controller.energy_pj / 1e6,
        layers,
        notes,
    })
}
