//! Per-layer timings taken outside the serving path: `core` instruction
//! execution and `mem` row transfers at 64 and 512 wires, and
//! `compiler` optimization over a workload's distinct programs.

use crate::ops::{make_job, OpKind};
use crate::report::{ratio, Kind, Metric};
use crate::trace::Tracer;
use coruscant_compiler::{CompileOptions, Compiler};
use coruscant_core::dispatch::PimMachine;
use coruscant_core::program::{PimProgram, Step};
use coruscant_mem::{MemoryConfig, Row};
use coruscant_qos::SplitMix64;
use coruscant_racetrack::CostMeter;
use std::time::Instant;

/// Executions timed per operation and width.
pub const DEVICE_REPS: usize = 200;

/// The timed operations (`bulk` is the 7-operand AND) and their span
/// names at 64 and 512 wires.
pub const EXEC_SPANS: [(OpKind, [&str; 2]); 4] = [
    (
        OpKind::Add2,
        ["core.execute.add2.w64", "core.execute.add2.w512"],
    ),
    (
        OpKind::Add5,
        ["core.execute.add5.w64", "core.execute.add5.w512"],
    ),
    (
        OpKind::Mult,
        ["core.execute.mult.w64", "core.execute.mult.w512"],
    ),
    (
        OpKind::And7,
        ["core.execute.bulk.w64", "core.execute.bulk.w512"],
    ),
];
/// `MemoryController::store_row` span names at 64 and 512 wires.
pub const STORE_SPANS: [&str; 2] = ["mem.store_row.w64", "mem.store_row.w512"];
/// `MemoryController::load_row` span names at 64 and 512 wires.
pub const LOAD_SPANS: [&str; 2] = ["mem.load_row.w64", "mem.load_row.w512"];
/// `Compiler::optimize` span name.
pub const OPTIMIZE_SPAN: &str = "compiler.optimize";

/// Times `PimMachine::execute` and the row stores and loads around it on
/// one machine per geometry (`configs` at 64 and 512 wires), checking
/// every result against the host. Returns the wrong results.
///
/// # Errors
///
/// Propagates execution and memory errors.
pub fn device(tracer: &Tracer, configs: [&MemoryConfig; 2], seed: u64) -> Result<u64, String> {
    let mut rng = SplitMix64::new(seed ^ 0xDE71_CE00);
    let mut wrong = 0;
    for (w, config) in configs.into_iter().enumerate() {
        let width = config.nanowires_per_dbc;
        let mut machine = PimMachine::new(config.clone());
        let mut meter = CostMeter::new();
        for _ in 0..DEVICE_REPS {
            for (kind, names) in EXEC_SPANS {
                let job = make_job(kind, width, &mut rng);
                let root = tracer.reserve();
                let began = Instant::now();
                let mut readout = None;
                for step in &job.program.steps {
                    let t = Instant::now();
                    let ctrl = machine.controller_mut();
                    match step {
                        Step::Load { addr, values, lane } => {
                            let row = Row::pack(width, *lane, values);
                            ctrl.store_row(*addr, &row, &mut meter)
                                .map_err(|e| format!("store_row: {e}"))?;
                            tracer.record(STORE_SPANS[w], root, 0, t, Instant::now());
                        }
                        Step::Exec(instr) => {
                            machine
                                .execute(instr)
                                .map_err(|e| format!("execute {}: {e}", kind.name()))?;
                            tracer.record(names[w], root, 0, t, Instant::now());
                        }
                        Step::Readout { addr, lane, .. } => {
                            let row = ctrl
                                .load_row(*addr, &mut meter)
                                .map_err(|e| format!("load_row: {e}"))?;
                            tracer.record(LOAD_SPANS[w], root, 0, t, Instant::now());
                            readout = Some(row.unpack(*lane));
                        }
                    }
                }
                tracer.record_as(root, "device.job", 0, 0, began, Instant::now());
                if readout.as_ref() != Some(&job.expected) {
                    wrong += 1;
                }
            }
        }
    }
    Ok(wrong)
}

/// Times `Compiler::optimize` (the runtime's default pass pipeline) over
/// `programs`, the workload's distinct programs. Returns
/// `compiler.instructions_eliminated`.
///
/// # Errors
///
/// Propagates pass failures.
pub fn compiler(
    tracer: &Tracer,
    config: &MemoryConfig,
    programs: &[&PimProgram],
) -> Result<Metric, String> {
    let compiler = Compiler::new(config.clone(), &CompileOptions::default());
    let mut eliminated = 0;
    for program in programs {
        let t = Instant::now();
        let (_, report) = compiler
            .optimize(program)
            .map_err(|e| format!("optimize: {e}"))?;
        tracer.record(OPTIMIZE_SPAN, 0, 0, t, Instant::now());
        eliminated += report
            .before
            .instructions
            .saturating_sub(report.after.instructions);
    }
    Ok(Metric::new(
        "compiler.instructions_eliminated",
        eliminated as f64,
        "count",
        Kind::Count,
    )
    .noted(format!("over {} distinct programs", programs.len())))
}

/// `device_share` and `device_us_per_request`: the mean device-only time
/// of a request (from an untimed replay through `replay`) over the host
/// time the served run spent per request on all its shards.
#[must_use]
pub fn device_share(
    device_us: &[f64],
    replay: &str,
    throughput_per_s: f64,
    shards: usize,
) -> [Metric; 2] {
    let mean = device_us.iter().sum::<f64>() / device_us.len().max(1) as f64;
    let wall_us = ratio(1e6, throughput_per_s);
    [
        Metric::new("device_share", ratio(mean, shards as f64 * wall_us), "ratio", Kind::Ratio).noted(format!(
            "mean {replay} {mean:.1} µs over {} replays / ({shards} shards x {wall_us:.1} µs wall per served request)",
            device_us.len()
        )),
        Metric::new("device_us_per_request", mean, "us", Kind::Wall)
            .noted(format!("mean of {}", device_us.len())),
    ]
}
