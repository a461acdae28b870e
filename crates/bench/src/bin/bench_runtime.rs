//! Emits `BENCH_runtime.json`: the cross-job-optimization perf
//! trajectory — host throughput over a shards × cache × batch grid, the
//! 10k-job repeated-query compile-time campaign, and the scheduler-
//! scaling sweep (1/2/4/8 shards over 1k- and 10k-job streams) with the
//! gated 8v1 capacity ratio.
//!
//! Usage:
//!
//! * `cargo run --release -p coruscant-bench --bin bench_runtime
//!   [output-path]` — full bench (default `BENCH_runtime.json` in the
//!   working directory).
//! * `... --bin bench_runtime -- --smoke` — CI perf-smoke gate only:
//!   best-of-3 runs at 1 and 8 shards; exits nonzero unless
//!   the 8v1 capacity ratio is at least 3×.

use coruscant_bench::{header, runtime_perf, times};
use coruscant_mem::MemoryConfig;

/// The 8v1 capacity ratio the smoke gate requires (the committed bench
/// shows ≥ 4×; the gate leaves headroom for noisy CI hosts).
const SMOKE_MIN_RATIO: f64 = 3.0;

/// Eight banks × 2 subarrays × 2 tiles with one PIM DBC each = 32 PIM
/// units (the geometry the runtime benches use throughout).
fn eight_bank_config() -> MemoryConfig {
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

fn print_smoke(smoke: &runtime_perf::PerfSmoke) {
    header("Scheduler-scaling perf smoke (capacity = jobs / busiest-thread CPU)");
    println!(
        "host cores {} | {} jobs, best of {} | capacity 1 shard {:.0}/s, \
         8 shards {:.0}/s -> {} (wall ratio {:.2})",
        smoke.host_cores,
        smoke.jobs,
        smoke.best_of,
        smoke.capacity_1,
        smoke.capacity_8,
        times(smoke.capacity_ratio_8v1),
        smoke.wall_ratio_8v1
    );
}

fn run_smoke_gate() {
    let smoke = runtime_perf::perf_smoke(&eight_bank_config(), 10_000, 3);
    print_smoke(&smoke);
    if smoke.capacity_ratio_8v1 < SMOKE_MIN_RATIO {
        eprintln!(
            "FAIL: 8v1 capacity ratio {:.2} below the {SMOKE_MIN_RATIO:.1}x gate",
            smoke.capacity_ratio_8v1
        );
        std::process::exit(1);
    }
    println!("PASS: 8v1 capacity ratio >= {SMOKE_MIN_RATIO:.1}x");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        run_smoke_gate();
        return;
    }
    let path = args
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_runtime.json".into());
    let config = eight_bank_config();
    // Four rounds of the 250-chunk stream: the repeats are what let the
    // compiled-program cache hit (750 hits per cache-on cell).
    let bench = runtime_perf::run_full(&config, 16_000, &[1, 2, 4, 8], 4, 10_000, &[1_000, 10_000]);

    header("Runtime cross-job optimization grid (jobs/sec, host wall)");
    println!(
        "{:<8} {:<6} {:<6} {:>10} {:>12} {:>12} {:>10} {:>8}",
        "shards", "cache", "batch", "jobs/s", "device_cyc", "makespan", "hits", "batches"
    );
    for cell in &bench.grid {
        println!(
            "{:<8} {:<6} {:<6} {:>10.0} {:>12} {:>12} {:>10} {:>8}",
            cell.shards,
            cell.cache,
            cell.batch,
            cell.jobs_per_sec,
            cell.device_cycles,
            cell.makespan_cycles,
            cell.cache_hits,
            cell.batches
        );
    }
    let rq = &bench.repeated_query;
    header("Repeated-query compile-time campaign");
    println!(
        "{} jobs: cold submit {:.1} ms, warm submit {:.1} ms -> {} ({} hits)",
        rq.jobs,
        rq.cold_submit_ms,
        rq.warm_submit_ms,
        times(rq.speedup),
        rq.warm_hits
    );

    header("Scheduler-scaling sweep (capacity = jobs / busiest-thread CPU)");
    println!(
        "{:<7} {:>7} {:>11} {:>13} {:>6} {:>20}",
        "shards", "jobs", "wall j/s", "capacity j/s", "occ%", "stage% p/a/pl/d/k"
    );
    for p in &bench.scaling {
        println!(
            "{:<7} {:>7} {:>11.0} {:>13.0} {:>6.1} {:>4.0}/{:.0}/{:.0}/{:.0}/{:.0}",
            p.shards,
            p.jobs,
            p.jobs_per_sec,
            p.capacity_jobs_per_sec,
            p.occupancy_pct,
            p.stage_pct.pop,
            p.stage_pct.admit,
            p.stage_pct.place,
            p.stage_pct.dispatch,
            p.stage_pct.ack
        );
    }
    print_smoke(&bench.perf_smoke);

    let json = serde::json::to_string(&bench);
    std::fs::write(&path, json + "\n").expect("write bench output");
    println!("\nwrote {path}");
}
