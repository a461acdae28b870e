//! Jobs: programs plus placement, and what the runtime reports back.

use coruscant_core::program::PimProgram;
use coruscant_mem::DbcLocation;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// Where a job's program should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// The scheduler picks the next PIM unit in circular-bank order
    /// (paper §V-C high-throughput dispatch) — or a single fixed unit
    /// when the runtime runs in single-bank mode.
    #[default]
    Auto,
    /// Run on the `idx`-th PIM unit (bank-major indexing, see
    /// [`MemoryController::pim_unit`](coruscant_mem::MemoryController::pim_unit)).
    Unit(usize),
    /// Run on an explicit DBC.
    Fixed(DbcLocation),
    /// Run on the PIM unit currently hosting the resident pin with this
    /// id (see [`Runtime::pin_resident`](crate::Runtime::pin_resident)).
    /// Unlike the other placements the job's program is *not* retargeted
    /// onto a single DBC: its addresses are relocated tile-relative
    /// (DBC index and row preserved) so it can copy pinned weights out
    /// of the tile's storage DBCs. If quarantine moves the residency,
    /// queued and re-dispatched jobs follow it to the new unit.
    Resident(u64),
}

/// One unit of work: a program to run at some placement.
#[derive(Debug, Clone, PartialEq)]
pub struct PimJob {
    /// Runtime-assigned id, returned by `submit`.
    pub id: u64,
    /// The program (addresses are relative to its compiled placement; the
    /// scheduler retargets them onto the chosen unit). Shared behind an
    /// [`Arc`] so retries, NMR replicas, and in-flight records reference
    /// one allocation instead of cloning the step stream.
    pub program: Arc<PimProgram>,
    /// Requested placement.
    pub placement: Placement,
    /// Absolute queueing deadline. Under the EDF issue policy it drives
    /// the within-bank issue order; a job found past its deadline at
    /// issue time is dropped as expired instead of being dispatched.
    /// `None` means no deadline (sorts last under EDF, never expires).
    pub deadline: Option<Instant>,
}

/// The completion record of one job.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JobOutcome {
    /// The job's id.
    pub job_id: u64,
    /// Issue sequence number the scheduler assigned (circular-bank order).
    pub seq: u64,
    /// The PIM unit the job ran on.
    pub unit: DbcLocation,
    /// The bank that unit occupies.
    pub bank: usize,
    /// Labeled readouts, in program order.
    pub outputs: Vec<(String, Vec<u64>)>,
    /// Internal PIM latency of the job's instructions, device cycles.
    pub device_cycles: u64,
    /// Memory cycles the job waited for its bank (and bus) before its
    /// first instruction started.
    pub wait_cycles: u64,
    /// Modeled completion time, memory cycles — as accounted by the
    /// runtime's [`MemoryController`](coruscant_mem::MemoryController).
    pub completion: u64,
    /// Dispatch attempt this outcome came from (0 = first placement;
    /// higher values mean the job was re-dispatched after failing
    /// verification on another bank).
    pub attempt: u32,
    /// Executions of the program this attempt ran (1 unprotected, 2 + 2
    /// per retry under re-execute-and-compare, N under NMR).
    pub replicas: u32,
    /// Faults the attempt's protection detected (mismatching compare
    /// pairs, or voted readouts whose replicas disagreed).
    pub faults_detected: u64,
    /// Extra compare-pairs re-execute-and-compare ran after mismatches.
    pub retries: u32,
    /// Readouts where the NMR majority overruled at least one replica.
    pub votes_overturned: u64,
    /// Whether the outputs were verified by the protection policy
    /// (compare pairs agreed, or an NMR vote completed). Always `false`
    /// when protection is off.
    pub verified: bool,
    /// How many jobs shared the batched execution this outcome came from
    /// (1 = the job ran alone; ≥2 = same-bank batch fusion spliced it
    /// with co-located jobs).
    pub batch: u32,
}
