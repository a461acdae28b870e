//! `bitmap-serve`: bitmap population-count queries through
//! `server::Server` with admission and weighted-fair QoS on.
//!
//! Each job does ~30 µs of device work on the 64-wire geometry, so the
//! time mostly goes to the server/QoS admission path, the runtime
//! scheduler, the compiled-program cache and the compiler passes. The
//! query pool holds more distinct programs than the runtime's 256-entry
//! cache and requests draw from it with skewed popularity, so both
//! cache hits and misses occur; the pairwise-chain plan gives TR fusion
//! real work on every miss.

use crate::report::{ratio, timing, Kind, Metric};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::{layers, repeated_setup, runtime_layers, Run, Settings, SETUPS};
use coruscant_core::program::{execute, PimProgram};
use coruscant_mem::MemoryConfig;
use coruscant_qos::{ArrivalGen, ArrivalSpec, QosOptions, SplitMix64};
use coruscant_runtime::{BatchOptions, RuntimeOptions};
use coruscant_server::{
    AdmissionOptions, Completion, JobHandle, ServeError, Server, ServerOptions, ServerStats,
    SubmitOptions,
};
use coruscant_workloads::bitmap::BitmapDataset;
use coruscant_workloads::serve::{compile_bitmap_query_with, QueryPlan};
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, OnceLock};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

/// Users in the dataset: 128 chunks of 64, so 4 weeks × 2 plans × 128
/// chunks = 1024 distinct programs against the 256-entry cache.
pub const USERS: usize = 8192;
/// Weekly bitmaps; queries cover weeks 1 to 4.
pub const WEEKS: usize = 4;
/// Zipf exponent of query popularity.
pub const ZIPF_S: f64 = 1.0;
/// Requests served before timing, filling the compiled-program cache.
pub const WARMUP: usize = 512;
/// Open-loop requests replayed untimed for device time and `sim_*`.
pub const REPLAY: usize = 8192;
/// The measured time alternates between open- and closed-loop slices of
/// about this length.
pub const SLICE_S: f64 = 2.5;
/// Share of each slice given to the open loop; the rest is closed loop.
pub const OPEN_SHARE: f64 = 0.6;
/// Nominal width of the windows the end-to-end figures are medians
/// over; each phase is cut into equal windows of about this width.
pub const WINDOW_S: f64 = 0.5;

/// `bench_server`'s eight-bank, 64-wire geometry.
#[must_use]
pub fn config() -> MemoryConfig {
    MemoryConfig {
        banks: 8,
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

/// One distinct query program: a `week`-week conjunction over one chunk.
struct Query {
    week: usize,
    chunk: usize,
    plan: QueryPlan,
    program: PimProgram,
}

/// The dataset, the query pool and its popularity.
struct Inputs {
    dataset: BitmapDataset,
    pool: Vec<Query>,
    /// Cumulative popularity over `pool`, for inverse-CDF draws.
    cdf: Vec<f64>,
}

impl Inputs {
    fn generate(seed: u64, config: &MemoryConfig) -> Result<Inputs, String> {
        let dataset = BitmapDataset::generate(USERS, WEEKS, seed);
        let mut pool = Vec::new();
        for week in 1..=WEEKS {
            for plan in [QueryPlan::Fused, QueryPlan::PairwiseChain] {
                let programs = compile_bitmap_query_with(&dataset, week, config, plan)
                    .map_err(|e| format!("compiling the {week}-week query: {e}"))?;
                pool.extend(
                    programs
                        .into_iter()
                        .enumerate()
                        .map(|(chunk, program)| Query {
                            week,
                            chunk,
                            plan,
                            program,
                        }),
                );
            }
        }
        // Popularity: rank r belongs to query kind r % KINDS, in a fixed
        // kind order, so every seed offers the same mix of weeks and
        // plans; a seeded shuffle picks which chunk of each kind is hot.
        let kinds = WEEKS * 2;
        let chunks = pool.len() / kinds;
        let mut rng = SplitMix64::new(seed ^ 0x5EED_0F2A);
        let mut weight = vec![0.0; pool.len()];
        for k in 0..kinds {
            let mut order: Vec<usize> = (0..chunks).collect();
            for i in (1..chunks).rev() {
                order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
            for (pos, &chunk) in order.iter().enumerate() {
                let rank = pos * kinds + k;
                weight[k * chunks + chunk] = 1.0 / ((rank + 1) as f64).powf(ZIPF_S);
            }
        }
        let mut total = 0.0;
        let cdf = weight
            .iter()
            .map(|w| {
                total += w;
                total
            })
            .collect();
        Ok(Inputs { dataset, pool, cdf })
    }

    /// A pool index drawn by popularity.
    fn draw(&self, rng: &mut SplitMix64) -> usize {
        let total = *self.cdf.last().expect("non-empty pool");
        let x = rng.next_f64() * total;
        self.cdf
            .partition_point(|&c| c <= x)
            .min(self.cdf.len() - 1)
    }

    /// The host AND of `BitmapDataset::operands(week)` over the query's
    /// chunk: the one 64-bit word its readout must equal.
    fn expected(&self, q: &Query) -> Vec<u64> {
        let width = config().nanowires_per_dbc;
        let operands = self.dataset.operands(q.week);
        (0..width / 64)
            .map(|lane| {
                let mut out = 0u64;
                for bit in 0..64 {
                    let g = q.chunk * width + lane * 64 + bit;
                    if g < USERS && operands.iter().all(|w| (w[g / 64] >> (g % 64)) & 1 == 1) {
                        out |= 1 << bit;
                    }
                }
                out
            })
            .collect()
    }
}

/// Whether a completion carries exactly the expected readout.
fn correct(completion: &Completion, expected: &[u64]) -> bool {
    matches!(completion, Ok(done) if done.outputs.len() == 1 && done.outputs[0].1 == expected)
}

/// Stamps the instant the server resolves a handle: the router thread
/// calls the handle's waker right after storing the completion.
#[derive(Default)]
struct Stamp(OnceLock<Instant>);

impl Wake for Stamp {
    fn wake(self: Arc<Self>) {
        let _ = self.0.set(Instant::now());
    }
}

/// One open-loop arrival.
struct Arrival {
    query: usize,
    /// Reserved id of the request's root span.
    root: u64,
    due: Instant,
    called: Instant,
    returned: Instant,
    /// `None` when the server shed the request.
    handle: Option<JobHandle>,
    early: Option<Completion>,
    stamp: Arc<Stamp>,
}

fn server_options(shards: usize) -> ServerOptions {
    ServerOptions {
        runtime: RuntimeOptions::default()
            .with_shards(shards)
            .with_batch(BatchOptions::enabled()),
        admission: AdmissionOptions::enabled(),
        qos: QosOptions::default().enabled(),
    }
}

/// Serves `WARMUP` popularity-drawn requests one at a time, checking
/// each.
fn warm_up(server: &Server, inputs: &Inputs, seed: u64) -> Result<(), String> {
    let client = server.client();
    let mut rng = SplitMix64::new(seed ^ 0x3A4B_0001);
    for _ in 0..WARMUP {
        let q = &inputs.pool[inputs.draw(&mut rng)];
        let done = client
            .submit_with(
                q.program.clone(),
                SubmitOptions::default().for_client("warmup"),
            )
            .map_err(|e| format!("warm-up rejected: {e}"))?
            .wait();
        if !correct(&done, &inputs.expected(q)) {
            return Err(format!("warm-up readout wrong: {done:?}"));
        }
    }
    Ok(())
}

/// What the open-loop phase observed.
struct OpenPhase {
    start: Instant,
    arrivals: Vec<Arrival>,
    completions: Vec<Option<Completion>>,
    resolved: Vec<Option<Instant>>,
}

/// One open-loop slice: seeded Poisson arrivals for `duration`. Request
/// ids continue after `first_req`.
fn open_loop(
    server: &Server,
    inputs: &Inputs,
    settings: &Settings,
    slice: u64,
    duration: Duration,
    tracer: &Tracer,
    first_req: u64,
) -> OpenPhase {
    let client = server.client();
    let options = SubmitOptions::default().for_client("open");
    let stream = settings.seed ^ slice.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut gen = ArrivalGen::new(
        ArrivalSpec::Poisson {
            rate_per_sec: settings.rate_per_sec,
        },
        stream ^ 0x0BE7_A221,
    );
    let mut rng = SplitMix64::new(stream ^ 0x0BE7_D2A3);
    let mut arrivals = Vec::new();
    let start = Instant::now();
    while let Some(offset) = gen.next_offset() {
        if offset >= duration {
            break;
        }
        let query = inputs.draw(&mut rng);
        let program = inputs.pool[query].program.clone();
        let due = start + offset;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let req = first_req + arrivals.len() as u64 + 1;
        let root = tracer.reserve();
        let called = Instant::now();
        let result = client.submit_with(program, options.clone());
        let returned = Instant::now();
        tracer.record("qos.gen_lag", root, req, due, called);
        tracer.record("server.submit", root, req, called, returned);
        let stamp = Arc::new(Stamp::default());
        let (handle, early) = match result {
            Ok(mut handle) => {
                let waker = Waker::from(Arc::clone(&stamp));
                match Pin::new(&mut handle).poll(&mut Context::from_waker(&waker)) {
                    Poll::Ready(done) => {
                        let _ = stamp.0.set(Instant::now());
                        (Some(handle), Some(done))
                    }
                    Poll::Pending => (Some(handle), None),
                }
            }
            Err(_) => (None, None),
        };
        arrivals.push(Arrival {
            query,
            root,
            due,
            called,
            returned,
            handle,
            early,
            stamp,
        });
    }
    // Drain: every accepted handle resolves; the waker stamps the
    // instant, which may trail `wait` returning by a few instructions.
    let mut completions = Vec::with_capacity(arrivals.len());
    let mut resolved = Vec::with_capacity(arrivals.len());
    for (i, a) in arrivals.iter_mut().enumerate() {
        let completion = match (a.early.take(), a.handle.take()) {
            (Some(done), _) => Some(done),
            (None, Some(handle)) => Some(handle.wait()),
            (None, None) => None,
        };
        let at = completion.as_ref().map(|_| loop {
            if let Some(&t) = a.stamp.0.get() {
                break t;
            }
            std::thread::yield_now();
        });
        if let Some(t) = at {
            let req = first_req + i as u64 + 1;
            tracer.record("server.resolve", a.root, req, a.returned, t);
            tracer.record_as(a.root, "request", 0, req, a.due, t);
        }
        completions.push(completion);
        resolved.push(at);
    }
    OpenPhase {
        start,
        arrivals,
        completions,
        resolved,
    }
}

/// One closed-loop request: the query, its completion, and when the
/// client saw it.
type Served = (usize, Completion, Instant);

/// One closed-loop slice: `clients` threads each submit and wait until
/// `duration` ends. Returns the served requests and the slice's start.
fn closed_loop(
    server: &Server,
    inputs: &Inputs,
    settings: &Settings,
    slice: u64,
    duration: Duration,
    tracer: &Tracer,
) -> (Vec<Served>, Instant) {
    let start = Instant::now();
    let end = start + duration;
    let served = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..settings.clients)
            .map(|c| {
                let client = server.client();
                let name = format!("closed-{c}");
                scope.spawn(move || {
                    let stream = settings.seed ^ slice.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let mut rng = SplitMix64::new(stream ^ (0xC105_ED00 + c as u64));
                    let options = SubmitOptions::default().for_client(&name);
                    let mut out = Vec::new();
                    while Instant::now() < end {
                        let query = inputs.draw(&mut rng);
                        let program = inputs.pool[query].program.clone();
                        let called = Instant::now();
                        let completion = match client.submit_with(program, options.clone()) {
                            Ok(handle) => {
                                let returned = Instant::now();
                                let done = handle.wait();
                                let t = Instant::now();
                                let root = tracer.reserve();
                                tracer.record("server.submit", root, 0, called, returned);
                                tracer.record("server.resolve", root, 0, returned, t);
                                tracer.record_as(root, "closed.request", 0, 0, called, t);
                                done
                            }
                            Err(r) => Err(ServeError::Rejected(r)),
                        };
                        out.push((query, completion, Instant::now()));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("closed-loop client thread"))
            .collect::<Vec<_>>()
    });
    (served, start)
}

/// Runs `bitmap-serve`.
///
/// # Errors
///
/// When set-up fails or the server cannot be drained.
pub fn run(settings: &Settings, tracer: &Tracer) -> Result<Run, String> {
    let config = config();
    let ((inputs, server), setup_s) = repeated_setup(
        SETUPS,
        || {
            let t = Instant::now();
            let inputs = Inputs::generate(settings.seed, &config)?;
            let server = Server::start(config.clone(), server_options(settings.shards))
                .map_err(|e| format!("server start: {e}"))?;
            warm_up(&server, &inputs, settings.seed)?;
            Ok(((inputs, server), t.elapsed().as_secs_f64()))
        },
        |(_, server)| {
            server
                .shutdown()
                .map(drop)
                .map_err(|e| format!("shutdown: {e}"))
        },
    )?;

    // Open- and closed-loop slices alternate, so both phases see the
    // same stretches of host speed.
    let slices = ((settings.seconds / SLICE_S).round() as usize).max(1);
    let slice_s = settings.seconds / slices as f64;
    let open_dur = Duration::from_secs_f64(slice_s * OPEN_SHARE);
    let closed_dur = Duration::from_secs_f64(slice_s * (1.0 - OPEN_SHARE));
    let mut opens = Vec::with_capacity(slices);
    let mut closeds = Vec::with_capacity(slices);
    let mut offered = 0;
    for slice in 0..slices as u64 {
        let open = open_loop(&server, &inputs, settings, slice, open_dur, tracer, offered);
        offered += open.arrivals.len() as u64;
        opens.push(open);
        closeds.push(closed_loop(
            &server, &inputs, settings, slice, closed_dur, tracer,
        ));
    }
    let stats: ServerStats = server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    if !stats.balanced() {
        return Err(format!("server accounting unbalanced: {stats:?}"));
    }

    // Checks and reduction, outside the timed phases. Both phases are
    // cut into WINDOW_S windows (by scheduled arrival, or by completion)
    // and each end-to-end figure is the median over the windows.
    let expected: Vec<Vec<u64>> = inputs.pool.iter().map(|q| inputs.expected(q)).collect();
    let slo = Duration::from_secs_f64(settings.slo_us / 1e6);
    let windows_of = |d: Duration| ((d.as_secs_f64() / WINDOW_S).round() as usize).max(1);
    let per_open = windows_of(open_dur);
    let open_width = open_dur.as_secs_f64() / per_open as f64;
    let open_windows = per_open * slices;
    let mut offered_w = vec![0u64; open_windows];
    let mut within_w = vec![0u64; open_windows];
    let mut latency_w: Vec<Vec<f64>> = vec![Vec::new(); open_windows];
    let mut failed = 0u64;
    let mut shed = 0u64;
    let mut within = 0u64;
    let mut latency_us = Vec::with_capacity(offered as usize);
    let mut submit_us = Vec::with_capacity(offered as usize);
    let mut resolve_us = Vec::with_capacity(offered as usize);
    let mut lag_us = Vec::with_capacity(offered as usize);
    let arrivals = opens.iter().enumerate().flat_map(|(i, open)| {
        open.arrivals
            .iter()
            .zip(&open.completions)
            .zip(&open.resolved)
            .map(move |((a, completion), at)| {
                let w = ((a.due - open.start).as_secs_f64() / open_width) as usize;
                (i * per_open + w.min(per_open - 1), a, completion, at)
            })
    });
    for (w, a, completion, at) in arrivals {
        lag_us.push(us(a.called - a.due));
        submit_us.push(us(a.returned - a.called));
        offered_w[w] += 1;
        let (Some(completion), Some(at)) = (completion, at) else {
            shed += 1;
            continue;
        };
        match completion {
            Err(ServeError::Rejected(_)) => shed += 1,
            _ if !correct(completion, &expected[a.query]) => failed += 1,
            _ => {
                let latency = *at - a.due;
                latency_us.push(us(latency));
                latency_w[w].push(us(latency));
                resolve_us.push(us(*at - a.returned));
                if latency <= slo {
                    within += 1;
                    within_w[w] += 1;
                }
            }
        }
    }
    let per_closed = windows_of(closed_dur);
    let closed_width = closed_dur.as_secs_f64() / per_closed as f64;
    let mut done_w = vec![0u64; per_closed * slices];
    let mut closed_done = 0u64;
    let mut closed_shed = 0u64;
    let mut closed_total = 0u64;
    for (i, (served, start)) in closeds.iter().enumerate() {
        for (query, completion, at) in served {
            closed_total += 1;
            match completion {
                Err(ServeError::Rejected(_)) => closed_shed += 1,
                _ if correct(completion, &expected[*query]) => {
                    closed_done += 1;
                    let w = ((*at - *start).as_secs_f64() / closed_width) as usize;
                    if w < per_closed {
                        done_w[i * per_closed + w] += 1;
                    }
                }
                _ => failed += 1,
            }
        }
    }
    let windows: Vec<Summary> = latency_w.iter().map(|l| Summary::of(l)).collect();
    let latency_p50_us = median(&windows.iter().map(|w| w.p50).collect::<Vec<_>>());
    let latency_p99_us = median(&windows.iter().map(|w| w.tail).collect::<Vec<_>>());
    let mut tail_pcts: Vec<String> = windows
        .iter()
        .map(|w| w.tail_pct.map_or("max".into(), |p| format!("p{p}")))
        .collect();
    tail_pcts.dedup();
    let slo_attainment = median(
        &offered_w
            .iter()
            .zip(&within_w)
            .map(|(&o, &w)| ratio(w as f64, o as f64))
            .collect::<Vec<_>>(),
    );
    let throughput_per_s = median(
        &done_w
            .iter()
            .map(|&n| n as f64 / closed_width)
            .collect::<Vec<_>>(),
    );

    // Untimed replays: device-only time per request and the simulated
    // makespan of the first open-loop requests.
    let replay: Vec<&Query> = opens
        .iter()
        .flat_map(|open| &open.arrivals)
        .take(REPLAY)
        .map(|a| &inputs.pool[a.query])
        .collect();
    let mut device_us = Vec::with_capacity(replay.len());
    for q in &replay {
        let t = Instant::now();
        let outcome = execute(&q.program, &config).map_err(|e| format!("replay: {e}"))?;
        device_us.push(us(t.elapsed()));
        if outcome.outputs.len() != 1 || outcome.outputs[0].1 != inputs.expected(q) {
            failed += 1;
        }
    }
    let report = coruscant_runtime::run_batch(
        &config,
        replay.iter().map(|q| q.program.clone()).collect(),
        RuntimeOptions::default().with_shards(settings.shards),
    )
    .map_err(|e| format!("simulation replay: {e}"))?;
    for (outcome, q) in report.outcomes.iter().zip(&replay) {
        if outcome.outputs.len() != 1 || outcome.outputs[0].1 != inputs.expected(q) {
            failed += 1;
        }
    }

    let mut layers = vec![Metric::new(
        "server.shed",
        (shed + closed_shed) as f64,
        "count",
        Kind::Count,
    )
    .noted(format!(
        "{shed} of {offered} open-loop arrivals, {closed_shed} closed-loop"
    ))];
    layers.extend(layers::device_share(
        &device_us,
        "core::program::execute",
        throughput_per_s,
        settings.shards,
    ));
    layers.extend(timing("server.submit_us", "us", Kind::Wall, &submit_us));
    layers.extend(timing("server.resolve_us", "us", Kind::Wall, &resolve_us));
    layers.extend(timing("qos.gen_lag_us", "us", Kind::Wall, &lag_us));
    layers.extend(runtime_layers(&stats.runtime, stats.accepted));
    let latency = Summary::of(&latency_us);
    let covered = Summary::of(&submit_us).p50 + Summary::of(&resolve_us).p50;
    layers.push(
        Metric::new("trace.coverage", ratio(covered, latency.p50), "ratio", Kind::Ratio).noted(
            format!(
                "(median server.submit + median server.resolve) / latency p50 = {covered:.1} / {:.1} µs",
                latency.p50
            ),
        ),
    );
    if tracer.enabled() {
        let programs: Vec<&PimProgram> = inputs.pool.iter().map(|q| &q.program).collect();
        layers.push(layers::compiler(tracer, &config, &programs)?);
    }

    let fused = inputs
        .pool
        .iter()
        .filter(|q| q.plan == QueryPlan::Fused)
        .count();
    let notes = vec![
        format!(
            "pool: {} distinct programs ({fused} fused, {} pairwise-chain), Zipf s={ZIPF_S}, runtime cache 256",
            inputs.pool.len(),
            inputs.pool.len() - fused
        ),
        format!(
            "{slices} slices of {:.2} s open loop then {:.2} s closed loop",
            open_dur.as_secs_f64(),
            closed_dur.as_secs_f64()
        ),
        format!(
            "open loop: Poisson {:.0}/s, {offered} offered, {} served, {shed} shed; latency from scheduled arrival",
            settings.rate_per_sec,
            latency_us.len()
        ),
        format!(
            "open loop whole phase: p50 {:.1} µs, {}, slo attainment {:.4} ({within} of {offered})",
            latency.p50,
            latency.describe_tail(),
            ratio(within as f64, offered as f64)
        ),
        format!(
            "closed loop: {} clients, {closed_done} served ({:.1}/s whole phase); window rates/s {}",
            settings.clients,
            closed_done as f64 / (closed_dur.as_secs_f64() * slices as f64),
            crate::report::list(done_w.iter().map(|&n| n as f64 / closed_width))
        ),
        format!(
            "sim_*: run_batch over the first {} open-loop requests, batching off",
            replay.len()
        ),
    ];
    Ok(Run {
        attempted: offered + closed_total,
        failed,
        setup_s,
        throughput_per_s,
        latency_p50_us,
        latency_p99_us,
        latency_note: [
            format!("median over {open_windows} open-loop windows of {open_width:.2} s"),
            format!(
                "median over the same windows of each window's tail ({})",
                tail_pcts.join(" ")
            ),
        ],
        slo_attainment,
        sim_cycles: report.stats.makespan_cycles,
        sim_energy_uj: report.stats.controller.energy_pj / 1e6,
        layers,
        notes,
    })
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
