//! Lowering LSQCA programs into dense, pre-resolved execution traces.
//!
//! The simulator's inner loop used to re-discover the same static facts about
//! every instruction on every run: its operand lists (`memory_operands`,
//! `register_operands`), whether it occupies a SAM scan resource, whether it
//! is an in-memory operation, its latency class, and — via a 21-arm `match`
//! — which duration rule applies. All of that is a pure function of the
//! instruction variant, so it can be computed **once per program** by a
//! lowering pass and stored in a dense struct-of-arrays [`ExecutionTrace`]:
//!
//! ```text
//! Program ──lower()──▶ ExecutionTrace ──Simulator::execute──▶ ExecutionStats
//!   (enum stream)        (flat SoA columns)                       (identical to
//!                                                                  the interpreter)
//! ```
//!
//! Per record the trace stores the execution kind (the pre-resolved duration
//! dispatch arm, [`ExecKind`]), a flags byte (operand shape, scan-resource,
//! in-memory, classical in/out), the fixed beat component, and the operand
//! slots. The raw opcode is kept in its own column that only the cold error
//! path reads (to reconstruct the offending [`Instruction`] for
//! `SimError::Instruction`).
//!
//! Traces are derived data, exactly like the precompiled latency classes:
//! `CompiledWorkload` stores the trace as its artifact's binary body (see
//! [`ExecutionTrace::encode`]) so a warm cache load *decodes* the trace
//! instead of re-lowering — the process-wide [`lowering_count`] stays flat
//! across warm sweeps, mirroring the zero-compile / zero-simulation
//! assertions. Lowering is lossless, so decoding the body also yields the
//! program.

use crate::instruction::Instruction;
use crate::operand::{ClassicalId, MemAddr, RegId};
use crate::program::Program;
use std::fmt;
use std::sync::OnceLock;

/// Revision of the trace lowering (record layout, opcode numbering, the
/// binary body format of [`ExecutionTrace::encode`], and the static
/// per-opcode metadata baked into each record).
///
/// Compiled-workload artifacts embed this number next to `ISA_VERSION`, and
/// the on-disk cache mixes it into its key: bump it whenever lowering changes
/// what a record contains or means, or how it is serialized, so stale traces
/// are quarantined and relowered instead of silently driving the engine with
/// an older contract.
pub const TRACE_REVISION: u32 = 2;

/// The registry counter behind [`lowering_count`]: every [`lower`] /
/// [`lower_into`] call, including the one inside `CompiledWorkload::compile`.
/// Decoding a cached trace does **not** count. The warm-cache acceptance
/// tests assert this stays flat across a sweep served entirely from disk.
fn lowering_counter() -> &'static lsqca_telemetry::Counter {
    static COUNTER: OnceLock<&'static lsqca_telemetry::Counter> = OnceLock::new();
    COUNTER.get_or_init(|| lsqca_telemetry::counter("trace.lowered"))
}

/// Total trace lowerings performed by this process so far (the registry's
/// `trace.lowered` counter).
pub fn lowering_count() -> u64 {
    lowering_counter().get()
}

/// The pre-resolved duration dispatch arm of one trace record.
///
/// The interpreter's 21-arm duration `match` collapses into these nine
/// execution kinds; everything variant-specific beyond the kind (the fixed
/// beat component, operand shape) lives in the other trace columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ExecKind {
    /// Fixed zero-beat latency, excluded from CPI command counts.
    Negligible,
    /// Fixed non-zero latency (`fixed_beats` holds the duration).
    Fixed,
    /// `LD`: variable-latency load through the memory controller.
    Load,
    /// `ST`: variable-latency store through the memory controller.
    Store,
    /// `PM`: wait for the magic-state supply, then `fixed_beats` to move the
    /// state into the CR.
    Magic,
    /// In-memory unitary: scan seek plus `fixed_beats` of surgery.
    Seek,
    /// In-memory joint measurement: two-qubit scan access plus `fixed_beats`.
    TwoQubitAccess,
    /// The optimized `CX` expansion (peek both, load the cheaper operand,
    /// access the other in memory, store back; `fixed_beats` of surgery).
    Cx,
    /// `SK`: zero-beat, but arms the skip guard for the next instruction.
    Skip,
}

impl ExecKind {
    /// Every kind, in `repr(u8)` discriminant order — `ALL[k as usize] == k`.
    pub const ALL: [ExecKind; 9] = [
        ExecKind::Negligible,
        ExecKind::Fixed,
        ExecKind::Load,
        ExecKind::Store,
        ExecKind::Magic,
        ExecKind::Seek,
        ExecKind::TwoQubitAccess,
        ExecKind::Cx,
        ExecKind::Skip,
    ];

    /// Stable lower-snake name, used to key per-kind telemetry
    /// (`sim.beats.<name>` histograms).
    pub const fn name(self) -> &'static str {
        match self {
            ExecKind::Negligible => "negligible",
            ExecKind::Fixed => "fixed",
            ExecKind::Load => "load",
            ExecKind::Store => "store",
            ExecKind::Magic => "magic",
            ExecKind::Seek => "seek",
            ExecKind::TwoQubitAccess => "two_qubit_access",
            ExecKind::Cx => "cx",
            ExecKind::Skip => "skip",
        }
    }
}

/// Flag bits of one trace record (the `flags` column).
pub mod flags {
    /// Record has a first SAM operand (`mem0`).
    pub const HAS_MEM0: u8 = 1 << 0;
    /// Record has a second SAM operand (`mem1`); implies [`HAS_MEM0`].
    pub const HAS_MEM1: u8 = 1 << 1;
    /// Record has a first CR operand (`reg0`).
    pub const HAS_REG0: u8 = 1 << 2;
    /// Record has a second CR operand (`reg1`); implies [`HAS_REG0`].
    pub const HAS_REG1: u8 = 1 << 3;
    /// Instruction occupies its SAM bank's scan cell / scan line.
    pub const NEEDS_SCAN: u8 = 1 << 4;
    /// Instruction operates on SAM contents in place (`Instruction::is_in_memory`).
    pub const IN_MEMORY: u8 = 1 << 5;
    /// Record reads a classical value (`cio` column; only `SK`).
    pub const HAS_CIN: u8 = 1 << 6;
    /// Record writes a classical value (`cio` column; the measurements).
    pub const HAS_COUT: u8 = 1 << 7;
}

/// A program lowered into dense struct-of-arrays execution records.
///
/// Columns are parallel vectors, one entry per instruction. The hot loop
/// streams `exec` / `flags` / `fixed_beats` / operand columns and never
/// touches `op`, which exists for the cold paths only (error reconstruction
/// and serialization).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ExecutionTrace {
    op: Vec<u8>,
    exec: Vec<ExecKind>,
    flags: Vec<u8>,
    fixed: Vec<u8>,
    mem0: Vec<u32>,
    mem1: Vec<u32>,
    reg0: Vec<u32>,
    reg1: Vec<u32>,
    cio: Vec<u32>,
    /// One past the highest SAM address referenced (0 if none): the engine
    /// presizes its per-address ready table to this bound so the loop indexes
    /// directly instead of bounds-probing per access.
    mem_bound: u32,
    /// One past the highest classical identifier referenced (0 if none).
    classical_bound: u32,
}

impl ExecutionTrace {
    /// An empty trace (also the reusable-scratch starting point for
    /// [`lower_into`]).
    pub fn new() -> Self {
        ExecutionTrace::default()
    }

    /// Number of records (= instructions of the lowered program).
    pub fn len(&self) -> usize {
        self.exec.len()
    }

    /// True if the trace has no records.
    pub fn is_empty(&self) -> bool {
        self.exec.is_empty()
    }

    /// The execution-kind column.
    #[inline]
    pub fn exec_kinds(&self) -> &[ExecKind] {
        &self.exec
    }

    /// The flags column (see [`flags`]).
    #[inline]
    pub fn flag_bits(&self) -> &[u8] {
        &self.flags
    }

    /// The fixed beat component column.
    #[inline]
    pub fn fixed_beats(&self) -> &[u8] {
        &self.fixed
    }

    /// The first SAM operand column (valid where [`flags::HAS_MEM0`] is set).
    #[inline]
    pub fn mem0(&self) -> &[u32] {
        &self.mem0
    }

    /// The second SAM operand column (valid where [`flags::HAS_MEM1`] is set).
    #[inline]
    pub fn mem1(&self) -> &[u32] {
        &self.mem1
    }

    /// The first CR operand column (valid where [`flags::HAS_REG0`] is set).
    #[inline]
    pub fn reg0(&self) -> &[u32] {
        &self.reg0
    }

    /// The second CR operand column (valid where [`flags::HAS_REG1`] is set).
    #[inline]
    pub fn reg1(&self) -> &[u32] {
        &self.reg1
    }

    /// The classical in/out column (valid where [`flags::HAS_CIN`] or
    /// [`flags::HAS_COUT`] is set).
    #[inline]
    pub fn cio(&self) -> &[u32] {
        &self.cio
    }

    /// One past the highest SAM address referenced by any record.
    pub fn mem_bound(&self) -> u32 {
        self.mem_bound
    }

    /// One past the highest classical identifier referenced by any record.
    pub fn classical_bound(&self) -> u32 {
        self.classical_bound
    }

    /// Clears every column, keeping allocated capacity (scratch reuse).
    pub fn clear(&mut self) {
        self.op.clear();
        self.exec.clear();
        self.flags.clear();
        self.fixed.clear();
        self.mem0.clear();
        self.mem1.clear();
        self.reg0.clear();
        self.reg1.clear();
        self.cio.clear();
        self.mem_bound = 0;
        self.classical_bound = 0;
    }

    fn reserve(&mut self, additional: usize) {
        self.op.reserve(additional);
        self.exec.reserve(additional);
        self.flags.reserve(additional);
        self.fixed.reserve(additional);
        self.mem0.reserve(additional);
        self.mem1.reserve(additional);
        self.reg0.reserve(additional);
        self.reg1.reserve(additional);
        self.cio.reserve(additional);
    }

    /// Appends the lowered record for one instruction. This is the **only**
    /// place that matches on the instruction variant; everything downstream
    /// reads the precomputed columns.
    #[inline]
    fn push_instruction(&mut self, instr: &Instruction) {
        use flags::*;
        use ExecKind as E;
        use Instruction::*;
        // (opcode, exec kind, fixed beats, shape flags, m0, m1, r0, r1, cio)
        let (op, exec, fixed, fl, m0, m1, r0, r1, cio) = match *instr {
            Ld { mem, reg } => (
                0,
                E::Load,
                0,
                HAS_MEM0 | HAS_REG0 | NEEDS_SCAN,
                mem.0,
                0,
                reg.0,
                0,
                0,
            ),
            St { reg, mem } => (
                1,
                E::Store,
                0,
                HAS_MEM0 | HAS_REG0 | NEEDS_SCAN,
                mem.0,
                0,
                reg.0,
                0,
                0,
            ),
            PzC { reg } => (2, E::Negligible, 0, HAS_REG0, 0, 0, reg.0, 0, 0),
            PpC { reg } => (3, E::Negligible, 0, HAS_REG0, 0, 0, reg.0, 0, 0),
            Pm { reg } => (4, E::Magic, 1, HAS_REG0, 0, 0, reg.0, 0, 0),
            HdC { reg } => (5, E::Fixed, 3, HAS_REG0, 0, 0, reg.0, 0, 0),
            PhC { reg } => (6, E::Fixed, 2, HAS_REG0, 0, 0, reg.0, 0, 0),
            MxC { reg, out } => (
                7,
                E::Negligible,
                0,
                HAS_REG0 | HAS_COUT,
                0,
                0,
                reg.0,
                0,
                out.0,
            ),
            MzC { reg, out } => (
                8,
                E::Negligible,
                0,
                HAS_REG0 | HAS_COUT,
                0,
                0,
                reg.0,
                0,
                out.0,
            ),
            MxxC { reg1, reg2, out } => (
                9,
                E::Fixed,
                1,
                HAS_REG0 | HAS_REG1 | HAS_COUT,
                0,
                0,
                reg1.0,
                reg2.0,
                out.0,
            ),
            MzzC { reg1, reg2, out } => (
                10,
                E::Fixed,
                1,
                HAS_REG0 | HAS_REG1 | HAS_COUT,
                0,
                0,
                reg1.0,
                reg2.0,
                out.0,
            ),
            Sk { cond } => (11, E::Skip, 0, HAS_CIN, 0, 0, 0, 0, cond.0),
            PzM { mem } => (
                12,
                E::Negligible,
                0,
                HAS_MEM0 | IN_MEMORY,
                mem.0,
                0,
                0,
                0,
                0,
            ),
            PpM { mem } => (
                13,
                E::Negligible,
                0,
                HAS_MEM0 | IN_MEMORY,
                mem.0,
                0,
                0,
                0,
                0,
            ),
            HdM { mem } => (
                14,
                E::Seek,
                3,
                HAS_MEM0 | NEEDS_SCAN | IN_MEMORY,
                mem.0,
                0,
                0,
                0,
                0,
            ),
            PhM { mem } => (
                15,
                E::Seek,
                2,
                HAS_MEM0 | NEEDS_SCAN | IN_MEMORY,
                mem.0,
                0,
                0,
                0,
                0,
            ),
            MxM { mem, out } => (
                16,
                E::Negligible,
                0,
                HAS_MEM0 | IN_MEMORY | HAS_COUT,
                mem.0,
                0,
                0,
                0,
                out.0,
            ),
            MzM { mem, out } => (
                17,
                E::Negligible,
                0,
                HAS_MEM0 | IN_MEMORY | HAS_COUT,
                mem.0,
                0,
                0,
                0,
                out.0,
            ),
            MxxM { reg, mem, out } => (
                18,
                E::TwoQubitAccess,
                1,
                HAS_MEM0 | HAS_REG0 | NEEDS_SCAN | IN_MEMORY | HAS_COUT,
                mem.0,
                0,
                reg.0,
                0,
                out.0,
            ),
            MzzM { reg, mem, out } => (
                19,
                E::TwoQubitAccess,
                1,
                HAS_MEM0 | HAS_REG0 | NEEDS_SCAN | IN_MEMORY | HAS_COUT,
                mem.0,
                0,
                reg.0,
                0,
                out.0,
            ),
            Cx { control, target } => (
                20,
                E::Cx,
                2,
                HAS_MEM0 | HAS_MEM1 | NEEDS_SCAN | IN_MEMORY,
                control.0,
                target.0,
                0,
                0,
                0,
            ),
        };
        // Saturating: a decoded body may name the largest `u32` operand.
        if fl & HAS_MEM0 != 0 {
            self.mem_bound = self.mem_bound.max(m0.saturating_add(1));
        }
        if fl & HAS_MEM1 != 0 {
            self.mem_bound = self.mem_bound.max(m1.saturating_add(1));
        }
        if fl & (HAS_CIN | HAS_COUT) != 0 {
            self.classical_bound = self.classical_bound.max(cio.saturating_add(1));
        }
        self.op.push(op);
        self.exec.push(exec);
        self.flags.push(fl);
        self.fixed.push(fixed);
        self.mem0.push(m0);
        self.mem1.push(m1);
        self.reg0.push(r0);
        self.reg1.push(r1);
        self.cio.push(cio);
    }

    /// Reconstructs the instruction behind record `index` — the cold path for
    /// `SimError::Instruction` and for display; the hot loop never calls this.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn instruction(&self, index: usize) -> Instruction {
        use flags::*;
        let fl = self.flags[index];
        let mut operands = [0u32; 5];
        let mut n = 0;
        if fl & HAS_MEM0 != 0 {
            operands[n] = self.mem0[index];
            n += 1;
        }
        if fl & HAS_MEM1 != 0 {
            operands[n] = self.mem1[index];
            n += 1;
        }
        if fl & HAS_REG0 != 0 {
            operands[n] = self.reg0[index];
            n += 1;
        }
        if fl & HAS_REG1 != 0 {
            operands[n] = self.reg1[index];
            n += 1;
        }
        if fl & (HAS_CIN | HAS_COUT) != 0 {
            operands[n] = self.cio[index];
            n += 1;
        }
        match reconstruct(self.op[index], &operands[..n]) {
            Some(instr) => instr,
            None => unreachable!("trace record {index} holds an invalid opcode"),
        }
    }

    /// Serializes the trace to its binary artifact body: one record per
    /// instruction, the opcode byte followed by its operands as unsigned
    /// LEB128 varints in canonical order (memory operands, register
    /// operands, classical in/out). Each opcode has a fixed arity, so records
    /// need no delimiters.
    ///
    /// Only the opcode and operand slots are stored — every derived column
    /// (execution kind, flags, fixed beats, bounds) is a pure function of
    /// the opcode and is rebuilt by [`ExecutionTrace::decode`]. Lowering is
    /// lossless, so the body is also a complete encoding of the program.
    pub fn encode(&self) -> Vec<u8> {
        use flags::*;
        let mut body = Vec::with_capacity(self.len() * 3);
        for index in 0..self.len() {
            let fl = self.flags[index];
            body.push(self.op[index]);
            let operands = [
                (HAS_MEM0, self.mem0[index]),
                (HAS_MEM1, self.mem1[index]),
                (HAS_REG0, self.reg0[index]),
                (HAS_REG1, self.reg1[index]),
                (HAS_CIN | HAS_COUT, self.cio[index]),
            ];
            for (bits, value) in operands {
                if fl & bits != 0 {
                    push_varint(&mut body, value);
                }
            }
        }
        body
    }

    /// Decodes an [`ExecutionTrace::encode`] body into the program it
    /// encodes (named `name`) and that program's trace, in one pass: each
    /// record is rebuilt into its instruction, which is appended to the
    /// program and to the trace. Does **not** count as a lowering: this is
    /// the warm cache-load path, and the zero-lowering acceptance checks rely
    /// on the distinction.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceDecodeError`] for unknown opcodes, a body that ends
    /// inside a record, and overlong or overflowing varints.
    pub fn decode(
        body: &[u8],
        name: impl Into<String>,
    ) -> Result<(Program, Self), TraceDecodeError> {
        let mut program = Program::new(name);
        let mut trace = ExecutionTrace::new();
        // Every record takes at least two bytes (opcode and one operand).
        program.reserve(body.len() / 2);
        trace.reserve(body.len() / 2);
        let mut pos = 0;
        let mut operands = [0u32; 5];
        while pos < body.len() {
            let index = trace.len();
            let op = body[pos];
            pos += 1;
            let arity = *ARITY.get(usize::from(op)).ok_or_else(|| TraceDecodeError {
                what: format!("record {index}: unknown opcode {op}"),
            })?;
            for slot in &mut operands[..arity] {
                *slot = read_varint(body, &mut pos).map_err(|what| TraceDecodeError {
                    what: format!("record {index}: {what}"),
                })?;
            }
            let instr = reconstruct(op, &operands[..arity])
                .expect("ARITY agrees with reconstruct for every opcode");
            trace.push_instruction(&instr);
            program.push(instr);
        }
        Ok((program, trace))
    }
}

/// Operand count of each opcode (indexed by opcode) — the record shapes
/// [`reconstruct`] accepts.
const ARITY: [usize; 21] = [
    2, 2, 1, 1, 1, 1, 1, 2, 2, 3, 3, 1, 1, 1, 1, 1, 2, 2, 3, 3, 2,
];

/// Appends `value` as an unsigned LEB128 varint.
fn push_varint(body: &mut Vec<u8>, mut value: u32) {
    while value >= 0x80 {
        body.push(value as u8 | 0x80);
        value >>= 7;
    }
    body.push(value as u8);
}

/// Reads the unsigned LEB128 varint at `*pos`, advancing past it. Rejects a
/// body that ends mid-varint, values that overflow `u32`, and non-canonical
/// (zero-padded) encodings, so every accepted body re-encodes to itself.
#[inline]
fn read_varint(body: &[u8], pos: &mut usize) -> Result<u32, &'static str> {
    let mut value = 0u32;
    for shift in (0..32).step_by(7) {
        let byte = *body.get(*pos).ok_or("body ends inside an operand")?;
        *pos += 1;
        let chunk = u32::from(byte & 0x7f);
        if shift == 28 && chunk > 0x0f {
            return Err("operand overflows 32 bits");
        }
        value |= chunk << shift;
        if byte & 0x80 == 0 {
            if byte == 0 && shift > 0 {
                return Err("operand has a non-canonical encoding");
            }
            return Ok(value);
        }
    }
    Err("operand overflows 32 bits")
}

/// Rebuilds an [`Instruction`] from an opcode and its operand values in
/// canonical (encode) order. `None` if the opcode or operand count is
/// invalid — the decode-side shape validation.
#[inline]
fn reconstruct(op: u8, operands: &[u32]) -> Option<Instruction> {
    use Instruction::*;
    let instr = match (op, operands) {
        (0, &[m, r]) => Ld {
            mem: MemAddr(m),
            reg: RegId(r),
        },
        (1, &[m, r]) => St {
            reg: RegId(r),
            mem: MemAddr(m),
        },
        (2, &[r]) => PzC { reg: RegId(r) },
        (3, &[r]) => PpC { reg: RegId(r) },
        (4, &[r]) => Pm { reg: RegId(r) },
        (5, &[r]) => HdC { reg: RegId(r) },
        (6, &[r]) => PhC { reg: RegId(r) },
        (7, &[r, v]) => MxC {
            reg: RegId(r),
            out: ClassicalId(v),
        },
        (8, &[r, v]) => MzC {
            reg: RegId(r),
            out: ClassicalId(v),
        },
        (9, &[r1, r2, v]) => MxxC {
            reg1: RegId(r1),
            reg2: RegId(r2),
            out: ClassicalId(v),
        },
        (10, &[r1, r2, v]) => MzzC {
            reg1: RegId(r1),
            reg2: RegId(r2),
            out: ClassicalId(v),
        },
        (11, &[v]) => Sk {
            cond: ClassicalId(v),
        },
        (12, &[m]) => PzM { mem: MemAddr(m) },
        (13, &[m]) => PpM { mem: MemAddr(m) },
        (14, &[m]) => HdM { mem: MemAddr(m) },
        (15, &[m]) => PhM { mem: MemAddr(m) },
        (16, &[m, v]) => MxM {
            mem: MemAddr(m),
            out: ClassicalId(v),
        },
        (17, &[m, v]) => MzM {
            mem: MemAddr(m),
            out: ClassicalId(v),
        },
        (18, &[m, r, v]) => MxxM {
            reg: RegId(r),
            mem: MemAddr(m),
            out: ClassicalId(v),
        },
        (19, &[m, r, v]) => MzzM {
            reg: RegId(r),
            mem: MemAddr(m),
            out: ClassicalId(v),
        },
        (20, &[c, t]) => Cx {
            control: MemAddr(c),
            target: MemAddr(t),
        },
        _ => return None,
    };
    Some(instr)
}

/// Lowers `program` into a fresh [`ExecutionTrace`]. Counted by
/// [`lowering_count`].
pub fn lower(program: &Program) -> ExecutionTrace {
    let mut trace = ExecutionTrace::new();
    lower_into(program, &mut trace);
    trace
}

/// Lowers `program` into `trace`, reusing its allocated capacity — the
/// scratch-reuse entry point for engines that lower ad-hoc programs per run.
/// Counted by [`lowering_count`].
pub fn lower_into(program: &Program, trace: &mut ExecutionTrace) {
    lowering_counter().inc();
    let _span = lsqca_telemetry::span("trace.lower");
    trace.clear();
    trace.reserve(program.len());
    for instr in program.iter() {
        trace.push_instruction(instr);
    }
}

/// Why a serialized trace was rejected by [`ExecutionTrace::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDecodeError {
    /// Description of the malformed content.
    pub what: String,
}

impl fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed execution trace: {}", self.what)
    }
}

impl std::error::Error for TraceDecodeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::example_instructions;
    use crate::latency::{LatencyClass, LatencyTable};

    fn example_program() -> Program {
        let mut program = Program::new("every-variant");
        for instr in example_instructions() {
            program.push(instr);
        }
        program
    }

    #[test]
    fn lowering_counts_and_decoding_does_not() {
        let program = example_program();
        let body = lower(&program).encode();
        // The counter is process-wide and tests lowering in parallel advance
        // it too. A lowering that counted twice (or a decode that counted at
        // all) would miss on every attempt, so one attempt with the exact
        // delta shows each counts as it should.
        let lower_counts_once_and_decode_never = || {
            let before = lowering_count();
            let trace = lower(&program);
            let decoded = ExecutionTrace::decode(&body, "every-variant").unwrap();
            assert_eq!(decoded, (program.clone(), trace));
            lowering_count() == before + 1
        };
        assert!((0..100).any(|_| lower_counts_once_and_decode_never()));
    }

    #[test]
    fn records_reconstruct_their_instructions() {
        let program = example_program();
        let trace = lower(&program);
        assert_eq!(trace.len(), program.len());
        for (index, instr) in program.iter().enumerate() {
            assert_eq!(trace.instruction(index), *instr, "record {index}");
        }
    }

    #[test]
    fn static_columns_agree_with_instruction_metadata() {
        // The lowering table is the one place that re-derives per-variant
        // facts; this pins every column to the Instruction/LatencyTable
        // metadata so the two can never drift apart silently.
        let table = LatencyTable::paper();
        let program = example_program();
        let trace = lower(&program);
        for (i, instr) in program.iter().enumerate() {
            let fl = trace.flag_bits()[i];
            let mems = instr.memory_operands();
            let regs = instr.register_operands();
            let mem_count =
                usize::from(fl & flags::HAS_MEM0 != 0) + usize::from(fl & flags::HAS_MEM1 != 0);
            let reg_count =
                usize::from(fl & flags::HAS_REG0 != 0) + usize::from(fl & flags::HAS_REG1 != 0);
            assert_eq!(mem_count, mems.len(), "{instr}");
            assert_eq!(reg_count, regs.len(), "{instr}");
            if !mems.is_empty() {
                assert_eq!(trace.mem0()[i], mems[0].0, "{instr}");
            }
            if mems.len() > 1 {
                assert_eq!(trace.mem1()[i], mems[1].0, "{instr}");
            }
            if !regs.is_empty() {
                assert_eq!(trace.reg0()[i], regs[0].0, "{instr}");
            }
            if regs.len() > 1 {
                assert_eq!(trace.reg1()[i], regs[1].0, "{instr}");
            }
            assert_eq!(
                fl & flags::IN_MEMORY != 0,
                instr.is_in_memory(),
                "{instr}: IN_MEMORY"
            );
            assert_eq!(
                fl & flags::HAS_CIN != 0,
                instr.classical_input().is_some(),
                "{instr}: HAS_CIN"
            );
            assert_eq!(
                fl & flags::HAS_COUT != 0,
                instr.classical_output().is_some(),
                "{instr}: HAS_COUT"
            );
            if let Some(v) = instr.classical_input().or(instr.classical_output()) {
                assert_eq!(trace.cio()[i], v.0, "{instr}: cio");
            }
            // Negligible exec kind ⟺ negligible latency class; the engine's
            // CPI bookkeeping relies on this equivalence.
            assert_eq!(
                trace.exec_kinds()[i] == ExecKind::Negligible,
                table.classify(instr) == LatencyClass::Negligible,
                "{instr}: negligible"
            );
            // The scan-resource set is the engine's historical list.
            use Instruction::*;
            let needs_scan = matches!(
                instr,
                Ld { .. }
                    | St { .. }
                    | HdM { .. }
                    | PhM { .. }
                    | MxxM { .. }
                    | MzzM { .. }
                    | Cx { .. }
            );
            assert_eq!(
                fl & flags::NEEDS_SCAN != 0,
                needs_scan,
                "{instr}: NEEDS_SCAN"
            );
        }
    }

    #[test]
    fn bounds_cover_the_highest_operands() {
        use crate::instruction::Instruction::*;
        let mut program = Program::new("bounds");
        program.push(Cx {
            control: MemAddr(7),
            target: MemAddr(41),
        });
        program.push(MzM {
            mem: MemAddr(3),
            out: ClassicalId(9),
        });
        let trace = lower(&program);
        assert_eq!(trace.mem_bound(), 42);
        assert_eq!(trace.classical_bound(), 10);
        assert_eq!(lower(&Program::new("empty")).mem_bound(), 0);
    }

    #[test]
    fn empty_traces_round_trip() {
        let trace = lower(&Program::new("empty"));
        assert!(trace.is_empty());
        assert!(trace.encode().is_empty());
        assert_eq!(
            ExecutionTrace::decode(&[], "empty").unwrap(),
            (Program::new("empty"), trace)
        );
    }

    #[test]
    fn scratch_reuse_clears_previous_contents() {
        let mut trace = lower(&example_program());
        let small = {
            let mut p = Program::new("small");
            p.push(Instruction::HdM { mem: MemAddr(2) });
            p
        };
        lower_into(&small, &mut trace);
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.mem_bound(), 3);
        assert_eq!(trace.classical_bound(), 0);
        assert_eq!(trace, lower(&small));
    }

    #[test]
    fn arity_table_matches_the_record_shapes() {
        for op in 0..=u8::MAX {
            for n in 0..=5 {
                let shape_ok = reconstruct(op, &[7; 5][..n]).is_some();
                assert_eq!(
                    shape_ok,
                    ARITY.get(usize::from(op)) == Some(&n),
                    "op {op}, {n}"
                );
            }
        }
    }

    #[test]
    fn varints_round_trip_at_every_width() {
        for value in [
            0,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            0x1f_ffff,
            0x20_0000,
            u32::MAX,
        ] {
            let mut body = Vec::new();
            push_varint(&mut body, value);
            assert_eq!(
                body.len(),
                (32 - value.leading_zeros()).div_ceil(7).max(1) as usize
            );
            let mut pos = 0;
            assert_eq!(read_varint(&body, &mut pos), Ok(value));
            assert_eq!(pos, body.len());
        }
        let mut program = Program::new("wide");
        program.push(Instruction::Cx {
            control: MemAddr(u32::MAX),
            target: MemAddr(0),
        });
        let trace = lower(&program);
        assert_eq!(
            ExecutionTrace::decode(&trace.encode(), "wide").unwrap(),
            (program, trace.clone())
        );
        assert_eq!(trace.mem_bound(), u32::MAX, "the bound saturates");
    }

    #[test]
    fn records_take_one_opcode_byte_plus_varint_operands() {
        let mut program = Program::new("sizes");
        program.push(Instruction::HdM { mem: MemAddr(5) });
        program.push(Instruction::Ld {
            mem: MemAddr(300),
            reg: RegId(1),
        });
        assert_eq!(lower(&program).encode(), [14, 5, 0, 0xac, 0x02, 1]);
    }

    #[test]
    fn malformed_trace_bodies_are_rejected() {
        let decode_err = |body: &[u8]| ExecutionTrace::decode(body, "").unwrap_err().to_string();
        // Unknown opcode.
        assert!(decode_err(&[0x7f, 0]).contains("unknown opcode 127"));
        // A body that ends inside a record (LD needs two operands).
        assert!(decode_err(&[0, 1]).contains("ends inside an operand"));
        assert!(decode_err(&[14, 0x80]).contains("ends inside an operand"));
        // Overlong, overflowing and zero-padded varints.
        assert!(decode_err(&[14, 0xff, 0xff, 0xff, 0xff, 0x1f]).contains("overflows"));
        assert!(decode_err(&[14, 0x80, 0x80, 0x80, 0x80, 0x80, 0]).contains("overflows"));
        assert!(decode_err(&[14, 0x85, 0]).contains("non-canonical"));
        // The error names the failing record and renders through std Error.
        let err = ExecutionTrace::decode(&[14, 5, 99], "").unwrap_err();
        assert!(err.to_string().contains("record 1"));
        assert!(std::error::Error::source(&err).is_none());
        assert!(err.to_string().contains("malformed execution trace"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Any variant, with operands drawn across every varint width.
    fn any_instruction() -> impl Strategy<Value = Instruction> {
        let operand = || prop_oneof![0u32..0x80, 0u32..0x4000, 0u32..u32::MAX];
        (0u8..21, operand(), operand(), operand()).prop_map(|(op, a, b, c)| {
            reconstruct(op, &[a, b, c][..ARITY[usize::from(op)]]).unwrap()
        })
    }

    proptest! {
        /// The program derived from an encoded body equals the source
        /// program, and the decoded trace equals the lowered one.
        #[test]
        fn bodies_round_trip_programs_and_traces(
            instrs in proptest::collection::vec(any_instruction(), 0..200),
        ) {
            let mut program = Program::new("prop");
            program.extend(instrs);
            let trace = lower(&program);
            let body = trace.encode();
            let (decoded_program, decoded) = ExecutionTrace::decode(&body, "prop").unwrap();
            prop_assert_eq!(decoded_program, program);
            prop_assert_eq!(&decoded, &trace);
            prop_assert_eq!(decoded.encode(), body);
        }

        /// Arbitrary bytes decode to a trace or a typed error, never a
        /// panic; whatever decodes re-encodes to the same bytes.
        #[test]
        fn arbitrary_bytes_never_panic_the_decoder(
            bytes in proptest::collection::vec(0u32..256, 0..64),
        ) {
            let body: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
            if let Ok((_, trace)) = ExecutionTrace::decode(&body, "") {
                prop_assert_eq!(trace.encode(), body);
            }
        }
    }
}
