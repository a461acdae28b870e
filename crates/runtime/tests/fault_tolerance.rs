//! Fault-tolerant serving acceptance campaigns (ISSUE 3).
//!
//! Three properties are demonstrated end-to-end, all with seeded fault
//! injection so the campaigns are reproducible:
//!
//! 1. **Detection and retry**: under an accelerated uniform TR fault rate
//!    (orders of magnitude above the paper's `1e-6`), a protected session
//!    serves 100% correct outputs while an unprotected control on the
//!    *same* fault plan demonstrably corrupts results.
//! 2. **Quarantine**: a single poisoned bank is detected, quarantined,
//!    and routed around, with throughput within 20% of a healthy
//!    baseline running the same protection policy.
//! 3. **Model agreement**: the runtime's retry counters match the
//!    analytic expectations in `coruscant_reliability::retry` within
//!    Monte-Carlo tolerance.

use coruscant_core::dispatch::PimMachine;
use coruscant_core::isa::{BlockSize, CpimInstr, CpimOpcode};
use coruscant_core::program::{PimProgram, Step};
use coruscant_mem::{DbcLocation, FaultPlan, MemoryConfig, Row, RowAddress};
use coruscant_racetrack::{CostMeter, FaultConfig};
use coruscant_runtime::{
    run_batch, HealthPolicy, Placement, ProtectionPolicy, Runtime, RuntimeOptions, RuntimeReport,
};

/// Eight banks x 2 subarrays x 2 tiles with one PIM DBC each = 32 PIM
/// units, 64 nanowires per DBC.
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

/// Sixteen banks with exactly one PIM unit each, so bank index == unit
/// index and a poisoned bank maps to exactly one unit.
fn sixteen_bank_config() -> MemoryConfig {
    MemoryConfig {
        banks: 16,
        subarrays_per_bank: 1,
        tiles_per_subarray: 1,
        dbcs_per_tile: 2,
        pim_dbcs_per_tile: 1,
        nanowires_per_dbc: 64,
        rows_per_dbc: 32,
        trd: 7,
        bus_mhz: 1000,
        memory_cycle_ns: 1.25,
    }
}

/// A self-contained add job with a known expected output. Mixed bit
/// patterns keep transverse-read windows away from the all-zeros /
/// all-ones boundary where injected faults clamp away.
fn add_job(a: u64, b: u64) -> PimProgram {
    let loc = DbcLocation::new(0, 0, 0, 0);
    PimProgram {
        steps: vec![
            Step::Load {
                addr: RowAddress::new(loc, 4),
                values: vec![a; 8],
                lane: 8,
            },
            Step::Load {
                addr: RowAddress::new(loc, 5),
                values: vec![b; 8],
                lane: 8,
            },
            Step::Exec(
                CpimInstr::new(
                    CpimOpcode::Add,
                    RowAddress::new(loc, 4),
                    2,
                    BlockSize::new(8).unwrap(),
                    Some(RowAddress::new(loc, 20)),
                )
                .unwrap(),
            ),
            Step::Readout {
                label: "sum".into(),
                addr: RowAddress::new(loc, 20),
                lane: 8,
            },
        ],
    }
}

/// Operand generator: varied, mixed-bit 8-bit values.
fn operands(i: u64) -> (u64, u64) {
    ((0x35 + 7 * i) % 200, (0x5A + 13 * i) % 55)
}

/// A health policy that never escalates — used by uniform-fault
/// campaigns where every bank faults and quarantine would be wrong.
fn no_quarantine() -> HealthPolicy {
    HealthPolicy {
        suspect_after: 10_000,
        quarantine_after: 100_000,
        scrub_on_suspect: false,
        max_inflight_per_bank: 16,
        max_redispatch: 2,
    }
}

fn run_campaign(
    config: &MemoryConfig,
    jobs: u64,
    options: RuntimeOptions,
) -> Result<RuntimeReport, coruscant_runtime::RuntimeError> {
    let runtime = Runtime::new(config.clone(), options)?;
    for i in 0..jobs {
        let (a, b) = operands(i);
        runtime.submit(add_job(a, b), Placement::Auto)?;
    }
    runtime.finish()
}

/// How many corrupted `sum` outputs a report contains.
fn corrupted_outputs(report: &RuntimeReport) -> usize {
    report
        .outcomes
        .iter()
        .filter(|o| {
            let (a, b) = operands(o.job_id);
            o.outputs[0].1 != vec![(a + b) & 0xFF; 8]
        })
        .count()
}

/// The paper's reliability assumption is a TR fault rate of 1e-6; these
/// campaigns accelerate it to 2e-3 per TR draw. An add job performs 64
/// TR draws (the model-check campaign below measures the count), so the
/// per-*operation* fault rate is more than an order of magnitude above
/// the 1e-3 the acceptance criteria demand.
const ACCELERATED_TR_RATE: f64 = 2e-3;

/// Campaign 1: protection on -> 100% correct outputs with faults
/// detected; protection off on the same seeded plan -> corruption.
#[test]
fn protected_campaign_serves_correct_outputs_where_control_corrupts() {
    let config = eight_bank_config();
    let plan = || {
        FaultPlan::uniform(
            FaultConfig::NONE.with_tr_fault_rate(ACCELERATED_TR_RATE),
            0xC0FF_EE01,
        )
        .unwrap()
    };
    let jobs = 64;

    // Unprotected control: same plan, same seed, no verification. The
    // run may also abort with a device error — that, too, demonstrates
    // corruption, but at this rate silent wrong outputs are expected.
    let control = run_campaign(
        &config,
        jobs,
        RuntimeOptions::default()
            .with_faults(plan())
            .with_health(no_quarantine()),
    );
    match control {
        Ok(report) => {
            assert_eq!(report.outcomes.len() as u64, jobs);
            assert!(
                corrupted_outputs(&report) >= 1,
                "the accelerated fault rate must corrupt at least one unprotected output"
            );
            assert_eq!(report.stats.faults.faults_detected, 0);
            assert_eq!(report.stats.faults.protected_jobs, 0);
            assert!(report.outcomes.iter().all(|o| !o.verified));
        }
        Err(err) => panic!("control run failed outright: {err}"),
    }

    // Protected run: re-execute-and-compare with a deep retry budget.
    let report = run_campaign(
        &config,
        jobs,
        RuntimeOptions::default()
            .with_faults(plan())
            .with_health(no_quarantine())
            .with_protection(ProtectionPolicy::Reexecute { max_retries: 6 }),
    )
    .unwrap();
    assert_eq!(report.outcomes.len() as u64, jobs);
    assert_eq!(
        corrupted_outputs(&report),
        0,
        "protection must serve 100% correct outputs"
    );
    assert!(report.outcomes.iter().all(|o| o.verified));
    let f = &report.stats.faults;
    assert_eq!(f.protected_jobs, jobs);
    assert!(
        f.faults_detected > 0,
        "the accelerated rate must trip detection"
    );
    assert!(f.retries > 0, "detected faults must trigger retries");
    assert_eq!(f.unverified_jobs, 0);
    assert!(f.replicas_run >= 2 * jobs, "every job runs at least a pair");
}

/// Campaign 2: NMR(3) voting serves correct outputs and reports
/// overturned votes on the same accelerated plan.
#[test]
fn nmr_campaign_votes_out_injected_faults() {
    let config = eight_bank_config();
    let plan = FaultPlan::uniform(
        FaultConfig::NONE.with_tr_fault_rate(ACCELERATED_TR_RATE),
        0xC0FF_EE02,
    )
    .unwrap();
    let jobs = 32;
    let report = run_campaign(
        &config,
        jobs,
        RuntimeOptions::default()
            .with_faults(plan)
            .with_health(no_quarantine())
            .with_protection(ProtectionPolicy::Nmr { n: 3 }),
    )
    .unwrap();
    assert_eq!(report.outcomes.len() as u64, jobs);
    assert_eq!(corrupted_outputs(&report), 0, "the majority must be right");
    assert!(report.outcomes.iter().all(|o| o.verified));
    let f = &report.stats.faults;
    assert_eq!(f.protected_jobs, jobs);
    assert!(
        f.votes_overturned > 0,
        "at this rate some readout vote must overrule a replica"
    );
    assert_eq!(f.replicas_run, 3 * jobs, "NMR(3) runs three replicas");
    assert_eq!(f.unverified_jobs, 0);
}

/// Campaign 3: one poisoned bank is quarantined; its traffic re-routes
/// and session throughput stays within 20% of a healthy baseline that
/// runs the same protection policy.
#[test]
fn poisoned_bank_is_quarantined_within_throughput_budget() {
    let config = sixteen_bank_config();
    let poisoned_bank = 5;
    let jobs = 160;
    let policy = HealthPolicy {
        suspect_after: 2,
        quarantine_after: 3,
        scrub_on_suspect: true,
        max_inflight_per_bank: 2,
        max_redispatch: 2,
    };
    let options = |plan: FaultPlan| {
        RuntimeOptions::default()
            .with_faults(plan)
            .with_health(policy)
            .with_protection(ProtectionPolicy::Reexecute { max_retries: 1 })
    };

    let healthy = run_campaign(&config, jobs, options(FaultPlan::healthy(0xBAD_BA9C))).unwrap();
    assert_eq!(corrupted_outputs(&healthy), 0);
    assert_eq!(healthy.stats.faults.quarantined_banks, 0);

    let poisoned_plan = FaultPlan::healthy(0xBAD_BA9C)
        .with_bank(poisoned_bank, FaultConfig::NONE.with_tr_fault_rate(0.5))
        .unwrap();
    let poisoned = run_campaign(&config, jobs, options(poisoned_plan)).unwrap();

    assert_eq!(poisoned.outcomes.len() as u64, jobs, "no job is lost");
    assert_eq!(
        corrupted_outputs(&poisoned),
        0,
        "re-routing must keep every served output correct"
    );
    let f = &poisoned.stats.faults;
    assert_eq!(f.quarantined_banks, 1, "exactly the poisoned bank");
    assert!((f.degraded_capacity - 1.0 / 16.0).abs() < 1e-12);
    assert!(f.redispatches >= 1, "unverified jobs moved to other banks");
    assert!(f.faults_detected >= policy.quarantine_after as u64);

    // No completed job stayed on the poisoned bank unverified.
    for o in &poisoned.outcomes {
        assert!(o.verified, "job {} ended unverified", o.job_id);
    }

    // Throughput: within 20% of the healthy baseline under the same
    // protection (the acceptance criterion).
    let ratio = poisoned.stats.jobs_per_us / healthy.stats.jobs_per_us;
    assert!(
        ratio >= 0.8,
        "quarantine must keep throughput within 20% of baseline, got {ratio:.3}"
    );
}

/// An XOR job whose operands are bit-complementary (`0xAA`, `0x55`):
/// every transverse-read window holds exactly one `1`, so an injected
/// ±1 level fault always flips the parity output and is never clamped
/// at a window boundary — the per-draw corruption probability is
/// exactly the per-draw fault probability, which makes the analytic
/// retry model tight (paper Table V: `XOR` flips on every transition).
fn xor_job() -> PimProgram {
    let loc = DbcLocation::new(0, 0, 0, 0);
    PimProgram {
        steps: vec![
            Step::Load {
                addr: RowAddress::new(loc, 4),
                values: vec![0xAA; 8],
                lane: 8,
            },
            Step::Load {
                addr: RowAddress::new(loc, 5),
                values: vec![0x55; 8],
                lane: 8,
            },
            Step::Exec(
                CpimInstr::new(
                    CpimOpcode::Xor,
                    RowAddress::new(loc, 4),
                    2,
                    BlockSize::new(8).unwrap(),
                    Some(RowAddress::new(loc, 20)),
                )
                .unwrap(),
            ),
            Step::Readout {
                label: "xor".into(),
                addr: RowAddress::new(loc, 20),
                lane: 8,
            },
        ],
    }
}

/// Counts the transverse-read fault draws one execution of `program`
/// makes, by running it on a machine where every draw injects and
/// reading the injection counter.
fn measure_tr_draws(config: &MemoryConfig, program: &PimProgram) -> u64 {
    let always = FaultConfig {
        p_over_shift: 0.0,
        p_under_shift: 0.0,
        p_tr_up: 1.0,
        p_tr_down: 0.0,
    };
    let plan = FaultPlan::uniform(always, 1).unwrap();
    let mut machine = PimMachine::with_faults(config.clone(), plan);
    let mut meter = CostMeter::new();
    let width = config.nanowires_per_dbc;
    for step in &program.steps {
        match step {
            Step::Load { addr, values, lane } => {
                let row = Row::pack(width, *lane, values);
                machine
                    .controller_mut()
                    .store_row(*addr, &row, &mut meter)
                    .unwrap();
            }
            Step::Exec(instr) => {
                // The result is garbage (every TR is perturbed); only the
                // draw count matters, and the op sequence is data-blind.
                let _ = machine.execute(instr);
            }
            Step::Readout { addr, .. } => {
                let _ = machine.controller_mut().load_row(*addr, &mut meter);
            }
        }
    }
    machine.controller().injected_fault_count()
}

/// Campaign 4: the runtime's fault counters agree with the analytic
/// re-execution model in `coruscant_reliability::retry`.
#[test]
fn retry_counters_match_analytic_model() {
    use coruscant_reliability::retry;

    let config = eight_bank_config();
    let draws = measure_tr_draws(&config, &xor_job());
    assert!(
        draws >= 32,
        "a row-wide XOR performs many TR draws: {draws}"
    );

    // Pick the per-draw rate so one execution corrupts with p = 0.2.
    let p_exec_target = 0.2_f64;
    let p_draw = 1.0 - (1.0 - p_exec_target).powf(1.0 / draws as f64);
    let max_retries = 4;
    let jobs = 200u64;

    let plan = FaultPlan::uniform(FaultConfig::NONE.with_tr_fault_rate(p_draw), 0xD1CE).unwrap();
    let mut policy = no_quarantine();
    policy.max_redispatch = 0; // keep the per-job counter algebra exact
    let options = RuntimeOptions::default()
        .with_faults(plan)
        .with_health(policy)
        .with_protection(ProtectionPolicy::Reexecute { max_retries });
    let runtime = Runtime::new(config.clone(), options).unwrap();
    for _ in 0..jobs {
        runtime.submit(xor_job(), Placement::Auto).unwrap();
    }
    let report = runtime.finish().unwrap();
    let f = &report.stats.faults;

    // Exact identity of the re-execute policy: every detected fault is a
    // mismatching pair, and a job either recovers (one retry per earlier
    // mismatch) or exhausts the budget (R retries, R+1 mismatches).
    assert_eq!(f.faults_detected, f.retries + f.unverified_jobs);
    assert_eq!(f.replicas_run, 2 * (jobs + f.retries));

    // Statistical agreement with the analytic series.
    let p_exec = retry::p_exec_corrupt(p_draw, draws);
    let p_pair = retry::p_pair_mismatch(p_exec);
    let expect_faults = jobs as f64 * retry::expected_faults_detected(p_pair, max_retries);
    let expect_retries = jobs as f64 * retry::expected_retries(p_pair, max_retries);
    let rel = |observed: u64, expected: f64| (observed as f64 - expected).abs() / expected;
    assert!(
        rel(f.faults_detected, expect_faults) < 0.35,
        "faults {} vs analytic {expect_faults:.1}",
        f.faults_detected
    );
    assert!(
        rel(f.retries, expect_retries) < 0.35,
        "retries {} vs analytic {expect_retries:.1}",
        f.retries
    );
}

/// Configuration validation: an unsupported NMR degree and an invalid
/// health policy are rejected up front.
#[test]
fn invalid_protection_and_health_are_rejected() {
    let config = eight_bank_config();
    let err = Runtime::new(
        config.clone(),
        RuntimeOptions::default().with_protection(ProtectionPolicy::Nmr { n: 4 }),
    )
    .err()
    .expect("even degrees cannot vote");
    assert!(err.to_string().contains("invalid runtime configuration"));

    let bad_health = HealthPolicy {
        suspect_after: 5,
        quarantine_after: 2, // below suspect_after
        ..HealthPolicy::default()
    };
    assert!(Runtime::new(
        config,
        RuntimeOptions::default()
            .with_protection(ProtectionPolicy::Reexecute { max_retries: 1 })
            .with_health(bad_health),
    )
    .is_err());
}

/// A healthy plan with no protection makes the session resilient (acks
/// feed bank health, the in-flight cap gates issue), yet it still
/// completes every job and reports zeroed fault counters — the plumbing
/// itself must not disturb results.
#[test]
fn healthy_plan_on_fault_path_matches_plain_results() {
    let config = eight_bank_config();
    let jobs = 16;
    let plain = run_batch(
        &config,
        (0..jobs)
            .map(|i| {
                let (a, b) = operands(i);
                add_job(a, b)
            })
            .collect(),
        RuntimeOptions::default(),
    )
    .unwrap();
    let fault_path = run_campaign(
        &config,
        jobs,
        RuntimeOptions::default().with_faults(FaultPlan::healthy(3)),
    )
    .unwrap();
    assert_eq!(corrupted_outputs(&fault_path), 0);
    assert_eq!(fault_path.outcomes.len(), plain.outcomes.len());
    let mut a: Vec<_> = plain
        .outcomes
        .iter()
        .map(|o| (o.job_id, o.outputs.clone()))
        .collect();
    let mut b: Vec<_> = fault_path
        .outcomes
        .iter()
        .map(|o| (o.job_id, o.outputs.clone()))
        .collect();
    a.sort();
    b.sort();
    assert_eq!(a, b, "same outputs regardless of scheduler path");
    assert_eq!(fault_path.stats.faults.faults_detected, 0);
    assert_eq!(fault_path.stats.faults.quarantined_banks, 0);
}

/// Resilient sessions stage admitted and released jobs like every other
/// session, so their placement (a program retarget per job) is charged
/// to the `place` stage rather than folded into admission, which only
/// queues each job.
#[test]
fn resilient_session_charges_placement_to_the_place_stage() {
    let report = run_campaign(
        &eight_bank_config(),
        2000,
        RuntimeOptions::default().with_faults(FaultPlan::healthy(5)),
    )
    .unwrap();
    assert_eq!(report.outcomes.len(), 2000);
    let sched = &report.stats.sched;
    assert!(
        sched.place_micros > 0 && sched.place_micros >= sched.admit_micros,
        "placement must show in the place stage: {sched:?}"
    );
}
