//! Supervision-contract regressions: completed work survives a retired
//! shard, the poison quarantine rejects repeat offenders at admission,
//! and abandonment is always observable exactly once.

use coruscant_core::isa::{BlockSize, CpimInstr, CpimOpcode};
use coruscant_core::program::{PimProgram, Step};
use coruscant_mem::{DbcLocation, MemoryConfig, RowAddress};
use coruscant_runtime::{
    install_quiet_hook, ChaosAction, ChaosPlan, CrossingPoint, JobNotice, Placement, Runtime,
    RuntimeError, RuntimeOptions, SuperviseOptions, WatchdogOptions,
};
use serde::json::Value;
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn four_bank_config() -> MemoryConfig {
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

fn add_job(a: u64) -> PimProgram {
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
                values: vec![9; 8],
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

/// Whether job 0's first attempt survives both worker crossing points
/// under `plan` — used to pick seeds that keep early jobs clean.
fn first_attempt_clean(plan: &ChaosPlan, job: u64) -> bool {
    plan.decide(CrossingPoint::WorkerStart, job, 0) == ChaosAction::None
        && plan.decide(CrossingPoint::WorkerReport, job, 0) == ChaosAction::None
}

/// Regression (satellite b): a session whose only shard panics and is
/// retired used to return `WorkerLost`, discarding every job that had
/// already completed. The supervised `finish` must salvage those
/// completions from the scheduler's accounting instead.
#[test]
fn retired_shard_salvages_completed_jobs() {
    install_quiet_hook();
    // Half the jobs panic on start; pick a seed where the first jobs
    // complete before the first panic retires the single shard.
    let plan = (0..1000)
        .map(|seed| ChaosPlan::panics(seed, 500))
        .find(|p| {
            first_attempt_clean(p, 0)
                && first_attempt_clean(p, 1)
                && (2..12).any(|j| !first_attempt_clean(p, j))
        })
        .expect("a suitable seed exists in 0..1000");
    let (tx, rx) = mpsc::channel::<JobNotice>();
    let runtime = Runtime::new(
        four_bank_config(),
        RuntimeOptions::default()
            .with_shards(1)
            .with_chaos(plan)
            .with_notify(tx)
            .with_supervise(SuperviseOptions {
                max_restarts: 0, // first panic retires the shard
                max_job_retries: 0,
                drain_deadline_ms: 2_000,
                ..SuperviseOptions::default()
            }),
    )
    .expect("runtime starts");
    for tag in 0..12 {
        runtime.submit(add_job(tag), Placement::Auto).unwrap();
    }
    let report = runtime
        .finish()
        .expect("a retired shard must not fail the session");
    assert!(
        report.outcomes.iter().any(|o| o.job_id == 0),
        "jobs completed before the crash are salvaged"
    );
    let sup = report.stats.supervision;
    assert_eq!(sup.shards_retired, 1, "the only shard was retired");
    assert!(sup.panics_caught >= 1);
    // Every job resolved exactly once: a final outcome or one
    // abandonment notice.
    let mut resolved: Vec<u64> = report.outcomes.iter().map(|o| o.job_id).collect();
    for notice in rx.try_iter() {
        if let JobNotice::Abandoned { job_id, .. } = notice {
            resolved.push(job_id);
        }
    }
    resolved.sort_unstable();
    assert_eq!(resolved, (0..12).collect::<Vec<u64>>());
}

/// The watchdog's poison registry quarantines a program fingerprint
/// after its attempts hang, and admission then rejects it with
/// [`RuntimeError::Poisoned`].
#[test]
fn poison_quarantine_rejects_at_admission() {
    install_quiet_hook();
    // Every attempt stalls well past the watchdog budget.
    let plan = ChaosPlan::stalls(11, 1000, 2_000);
    let runtime = Runtime::new(
        four_bank_config(),
        RuntimeOptions::default()
            .with_shards(2)
            .with_chaos(plan)
            .with_supervise(SuperviseOptions {
                max_job_retries: 0,
                backoff_base_ms: 1,
                drain_deadline_ms: 3_000,
                ..SuperviseOptions::default()
            })
            .with_watchdog(WatchdogOptions {
                enabled: true,
                base_ms: 50,
                per_step_us: 10,
                slack_pct: 100,
                poison_strikes: 1,
            }),
    )
    .expect("runtime starts");
    runtime
        .submit(add_job(1), Placement::Auto)
        .expect("first submission is admitted");
    // The stall is detected after the ~50ms budget; once the strike
    // lands, re-submitting the same program is refused at admission.
    let deadline = Instant::now() + Duration::from_secs(10);
    let fingerprint = loop {
        match runtime.submit(add_job(1), Placement::Auto) {
            Err(RuntimeError::Poisoned { fingerprint }) => break fingerprint,
            Ok(_) => {
                assert!(
                    Instant::now() < deadline,
                    "program was never quarantined within 10s"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    };
    assert_ne!(fingerprint, 0, "fingerprint is the canonical program hash");
    // A *different* program is still admitted.
    runtime
        .submit(add_job(2), Placement::Auto)
        .expect("quarantine is per-fingerprint, not global");
    let report = runtime.finish().expect("drain succeeds");
    let sup = report.stats.supervision;
    assert!(sup.hung_attempts >= 1, "the stall was classified hung");
    assert!(sup.quarantined_programs >= 1, "the fingerprint was struck");
}

/// Hung abandonment is typed: the `Abandoned` notice carries
/// `hung: true` for watchdog give-ups and the stats count them.
#[test]
fn hung_jobs_abandon_with_hung_flag() {
    install_quiet_hook();
    let plan = ChaosPlan::stalls(23, 1000, 2_000);
    let (tx, rx) = mpsc::channel::<JobNotice>();
    let runtime = Runtime::new(
        four_bank_config(),
        RuntimeOptions::default()
            .with_shards(2)
            .with_chaos(plan)
            .with_notify(tx)
            .with_supervise(SuperviseOptions {
                max_job_retries: 0,
                backoff_base_ms: 1,
                drain_deadline_ms: 3_000,
                ..SuperviseOptions::default()
            })
            .with_watchdog(WatchdogOptions {
                enabled: true,
                base_ms: 50,
                per_step_us: 10,
                slack_pct: 100,
                poison_strikes: u32::MAX,
            }),
    )
    .expect("runtime starts");
    for tag in 0..3 {
        runtime.submit(add_job(tag), Placement::Auto).unwrap();
    }
    let report = runtime.finish().expect("drain succeeds");
    assert!(report.stats.supervision.hung_attempts >= 1);
    assert!(report.stats.supervision.abandoned_jobs >= 1);
    let hung_notices = rx
        .try_iter()
        .filter(|n| matches!(n, JobNotice::Abandoned { hung: true, .. }))
        .count();
    assert!(hung_notices >= 1, "at least one abandonment was typed hung");
}

/// The `key` member of a JSON object.
fn member<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A worker panic in a session with no fault plan, protection policy,
/// watchdog or chaos plan — one whose in-flight cap is off. The shard's
/// work is re-placed from the scheduler's in-flight records and issued
/// under fresh seqs: nothing issues to the shard while it is down, the
/// panicking job is abandoned once its crash-retry budget is spent, and
/// every other job completes with its exact output.
#[test]
fn plain_session_recovers_from_a_worker_panic() {
    // A zero lane width trips `Row::unpack`'s assertion inside the
    // worker.
    let poison = PimProgram {
        steps: vec![Step::Readout {
            label: "row".into(),
            addr: RowAddress::new(DbcLocation::new(0, 0, 0, 0), 4),
            lane: 0,
        }],
    };
    let path = std::env::temp_dir().join(format!(
        "coruscant_plain_panic_{}.jsonl",
        std::process::id()
    ));
    let (tx, rx) = mpsc::channel::<JobNotice>();
    let runtime = Runtime::new(
        four_bank_config(),
        RuntimeOptions {
            trace_path: Some(path.clone()),
            ..RuntimeOptions::default()
        }
        .with_shards(2)
        .with_notify(tx)
        .with_supervise(SuperviseOptions {
            backoff_base_ms: 1,
            ..SuperviseOptions::default()
        }),
    )
    .expect("runtime starts");
    // Unit 0 is bank 0, owned by shard 0: every attempt crashes shard 0.
    let bad = runtime.submit(poison, Placement::Unit(0)).unwrap();
    let good: Vec<(u64, u64)> = (0..48)
        .map(|tag| (runtime.submit(add_job(tag), Placement::Auto).unwrap(), tag))
        .collect();
    let report = runtime
        .finish()
        .expect("a recovered crash does not fail the session");

    let sup = report.stats.supervision;
    let retries = u64::from(SuperviseOptions::default().max_job_retries);
    assert_eq!(sup.panics_caught, retries + 1, "one crash per attempt");
    assert_eq!(sup.abandoned_jobs, 1, "only the panicking job is given up");
    assert!(
        sup.shard_restarts >= retries,
        "shard 0 came back for each retry"
    );
    assert_eq!(sup.shards_retired, 0);
    assert!(rx
        .try_iter()
        .any(|n| matches!(n, JobNotice::Abandoned { job_id, hung: false } if job_id == bad)));
    assert!(report.outcomes.iter().all(|o| o.job_id != bad));
    for (id, tag) in &good {
        let outcome = report
            .outcomes
            .iter()
            .find(|o| o.job_id == *id)
            .unwrap_or_else(|| panic!("job {id} completed"));
        assert_eq!(outcome.outputs[0].1, vec![tag + 9; 8]);
    }

    // The trace shows the recovery: issues skip shard 0 while it is
    // down, and every re-issue is a crash re-placement.
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let number = |event: &Value, key: &str| member(event, key).unwrap().as_u64().unwrap();
    let mut down = false;
    let mut issues = 0u64;
    let mut issued_jobs = std::collections::HashSet::new();
    for line in text.lines() {
        let event = serde::json::parse(line).unwrap();
        if let Some(e) = member(&event, "ShardDown") {
            assert_eq!(number(e, "shard"), 0);
            down = true;
        } else if member(&event, "ShardRestart").is_some() {
            down = false;
        } else if let Some(e) = member(&event, "Issue") {
            assert!(
                !(down && number(e, "shard") == 0),
                "issued to shard 0 while it was down"
            );
            issues += 1;
            issued_jobs.insert(number(e, "job"));
        }
    }
    assert_eq!(issued_jobs.len(), good.len() + 1);
    assert_eq!(
        sup.crash_redispatches,
        issues - issued_jobs.len() as u64,
        "crash_redispatches counts every re-issue: the crashed job's retries plus orphans"
    );
    assert!(sup.crash_redispatches >= retries);
}
