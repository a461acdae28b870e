//! Single-instruction jobs with host-computed expected readouts: the
//! paper-mix workload and the device-layer timings are built from them.

use coruscant_core::isa::{BlockSize, CpimInstr, CpimOpcode};
use coruscant_core::program::{PimProgram, Step};
use coruscant_mem::{DbcLocation, RowAddress};
use coruscant_qos::SplitMix64;

/// First operand row of the arithmetic and bulk jobs.
const OPERAND_BASE: usize = 4;
/// First operand row of a multiply: above the multiplier's scratch
/// window (rows `0..=TRD`) and partial-product pool, as
/// `workloads::compile::compile_matmul` stages it.
const MULT_BASE: usize = 18;
/// Result row.
const RESULT_ROW: usize = 20;

/// The operation one job performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// 2-operand add of 8-bit values in 16-bit lanes (carry chain).
    Add2,
    /// 5-operand add of 8-bit values in 16-bit lanes.
    Add5,
    /// 8-bit × 8-bit multiply into 16-bit lanes.
    Mult,
    /// 7-operand bulk AND (one transverse read).
    And7,
    /// 7-operand bulk XOR.
    Xor7,
    /// A plain row store and readout, no instruction.
    Row,
}

impl OpKind {
    /// Every kind, in mix order.
    pub const ALL: [OpKind; 6] = [
        OpKind::Add2,
        OpKind::Add5,
        OpKind::Mult,
        OpKind::And7,
        OpKind::Xor7,
        OpKind::Row,
    ];

    /// Short name used in span and metric names.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Add2 => "add2",
            OpKind::Add5 => "add5",
            OpKind::Mult => "mult",
            OpKind::And7 => "and7",
            OpKind::Xor7 => "xor7",
            OpKind::Row => "row",
        }
    }

    /// Operand rows the job loads.
    fn operands(self) -> usize {
        match self {
            OpKind::Add2 | OpKind::Mult => 2,
            OpKind::Add5 => 5,
            OpKind::And7 | OpKind::Xor7 => 7,
            OpKind::Row => 1,
        }
    }

    /// Lane width of loads and readouts.
    fn lane(self) -> usize {
        match self {
            OpKind::Add2 | OpKind::Add5 | OpKind::Mult => 16,
            OpKind::And7 | OpKind::Xor7 | OpKind::Row => 64,
        }
    }
}

/// A job and the readout the host says it must produce.
#[derive(Debug, Clone)]
pub struct Job {
    /// What the job computes.
    pub kind: OpKind,
    /// Loads, at most one instruction, one readout.
    pub program: PimProgram,
    /// The expected readout, lane by lane.
    pub expected: Vec<u64>,
}

/// Builds a `kind` job for a `width`-wire DBC with operands drawn from
/// `rng`.
///
/// # Panics
///
/// Panics if `width` is not a multiple of 64 (no such geometry is used).
pub fn make_job(kind: OpKind, width: usize, rng: &mut SplitMix64) -> Job {
    assert!(
        width.is_multiple_of(64),
        "DBC width must be a multiple of 64"
    );
    let lane = kind.lane();
    let lanes = width / lane;
    let operands: Vec<Vec<u64>> = (0..kind.operands())
        .map(|_| {
            (0..lanes)
                .map(|_| match lane {
                    16 => rng.next_u64() & 0xFF,
                    _ => rng.next_u64(),
                })
                .collect()
        })
        .collect();
    let column = |l: usize| operands.iter().map(move |row| row[l]);
    let expected = (0..lanes)
        .map(|l| match kind {
            OpKind::Add2 | OpKind::Add5 => column(l).sum(),
            OpKind::Mult => column(l).product(),
            OpKind::And7 => column(l).fold(!0, |a, b| a & b),
            OpKind::Xor7 => column(l).fold(0, |a, b| a ^ b),
            OpKind::Row => operands[0][l],
        })
        .collect();

    let loc = DbcLocation::new(0, 0, 0, 0); // nominal; the runtime retargets
    let base = if kind == OpKind::Mult {
        MULT_BASE
    } else {
        OPERAND_BASE
    };
    let mut steps: Vec<Step> = operands
        .into_iter()
        .enumerate()
        .map(|(i, values)| Step::Load {
            addr: RowAddress::new(loc, base + i),
            values,
            lane,
        })
        .collect();
    let opcode = match kind {
        OpKind::Add2 | OpKind::Add5 => Some(CpimOpcode::Add),
        OpKind::Mult => Some(CpimOpcode::Mult),
        OpKind::And7 => Some(CpimOpcode::And),
        OpKind::Xor7 => Some(CpimOpcode::Xor),
        OpKind::Row => None,
    };
    let result_row = match opcode {
        Some(op) => {
            let instr = CpimInstr::new(
                op,
                RowAddress::new(loc, base),
                kind.operands() as u8,
                BlockSize::new(lane).expect("16 and 64 are valid block sizes"),
                Some(RowAddress::new(loc, RESULT_ROW)),
            )
            .expect("the job's instruction encodes");
            steps.push(Step::Exec(instr));
            RESULT_ROW
        }
        None => base,
    };
    steps.push(Step::Readout {
        label: kind.name().into(),
        addr: RowAddress::new(loc, result_row),
        lane,
    });
    Job {
        kind,
        program: PimProgram { steps },
        expected,
    }
}
