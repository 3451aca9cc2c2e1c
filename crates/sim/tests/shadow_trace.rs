//! Shadow-equivalence: the trace engine against the reference interpreter.
//!
//! Executing an [`ExecutionTrace`] must be observationally identical to
//! executing the [`Classified`] program it was lowered from — same
//! [`ExecutionStats`], same memory reference trace, same typed error at the
//! same instruction index — over random programs and random floorplan
//! configurations. The interpreter is the executable specification; these
//! properties are the contract that lets the trace engine's dispatch evolve
//! (flag tests, presized ready tables) without semantic drift.

use lsqca_arch::{ArchConfig, FloorplanKind, PolicyKind};
use lsqca_isa::{ClassicalId, ExecutionTrace, Instruction, LatencyTable, MemAddr, Program, RegId};
use lsqca_lattice::QubitTag;
use lsqca_sim::{Classified, SimConfig, Simulator};
use proptest::prelude::*;

/// Qubit space shared by the program and simulator strategies. Small enough
/// that random instructions collide on qubits, banks, and CR slots — the
/// interesting scheduling (and error) cases.
const QUBITS: u32 = 24;

/// Every instruction variant over deliberately small operand spaces, so a
/// ~40-instruction program exercises dependency chains, bank serialization,
/// skip guards, and illegal load/store sequences (typed-error equivalence).
fn any_instruction() -> impl Strategy<Value = Instruction> {
    use Instruction::*;
    (
        0u32..21,
        0u32..QUBITS,
        0u32..QUBITS,
        0u32..6,
        0u32..6,
        0u32..8,
    )
        .prop_map(|(variant, m1, m2, r1, r2, v)| {
            let (mem, mem2) = (MemAddr(m1), MemAddr(m2));
            let (reg, reg2) = (RegId(r1), RegId(r2));
            let out = ClassicalId(v);
            match variant {
                0 => Ld { mem, reg },
                1 => St { reg, mem },
                2 => PzC { reg },
                3 => PpC { reg },
                4 => Pm { reg },
                5 => HdC { reg },
                6 => PhC { reg },
                7 => MxC { reg, out },
                8 => MzC { reg, out },
                9 => MxxC {
                    reg1: reg,
                    reg2,
                    out,
                },
                10 => MzzC {
                    reg1: reg,
                    reg2,
                    out,
                },
                11 => Sk { cond: out },
                12 => PzM { mem },
                13 => PpM { mem },
                14 => HdM { mem },
                15 => PhM { mem },
                16 => MxM { mem, out },
                17 => MzM { mem, out },
                18 => MxxM { reg, mem, out },
                19 => MzzM { reg, mem, out },
                _ => Cx {
                    control: mem,
                    target: mem2,
                },
            }
        })
}

fn any_program() -> impl Strategy<Value = Program> {
    proptest::collection::vec(any_instruction(), 0..40).prop_map(|instructions| {
        let mut program = Program::new("shadow");
        for instruction in instructions {
            program.push(instruction);
        }
        program
    })
}

/// Every floorplan flavour at its legal bank counts, random factory counts,
/// and a hybrid fraction that sometimes carves out a conventional region.
fn any_arch() -> impl Strategy<Value = ArchConfig> {
    (
        prop_oneof![
            (1u32..3).prop_map(|banks| FloorplanKind::PointSam { banks }),
            (1u32..3).prop_map(|banks| FloorplanKind::DualPointSam { banks }),
            (1u32..5).prop_map(|banks| FloorplanKind::LineSam { banks }),
            Just(FloorplanKind::Conventional),
        ],
        1u32..4,
        0u32..3,
    )
        .prop_map(|(floorplan, factories, hybrid_tenths)| {
            ArchConfig::new(floorplan, factories)
                .with_hybrid_fraction(f64::from(hybrid_tenths) * 0.1)
        })
}

fn any_policy() -> impl Strategy<Value = Option<PolicyKind>> {
    prop_oneof![
        Just(None),
        Just(Some(PolicyKind::Static)),
        Just(Some(PolicyKind::Lru)),
        Just(Some(PolicyKind::FreqDecay)),
    ]
}

/// Builds the two identically configured simulators a comparison run needs.
fn pair(
    arch: &ArchConfig,
    hot: &[QubitTag],
    config: SimConfig,
    policy: Option<PolicyKind>,
    budget: Option<u64>,
) -> (Simulator, Simulator) {
    let build = || {
        let mut builder = Simulator::builder(arch, QUBITS)
            .hot_qubits(hot)
            .config(config)
            .instruction_budget(budget);
        if let Some(kind) = policy {
            builder = builder.migration_policy(kind.build());
        }
        builder.build().unwrap()
    };
    (build(), build())
}

proptest! {
    /// The headline property: over random programs, floorplans, hot sets,
    /// migration policies, sim configs, and instruction budgets, the trace
    /// engine's full `Result` — stats, memory trace, or typed error — equals
    /// the interpreter's. Error equality also pins the trace's instruction
    /// reconstruction (the offending `Instruction` in the error is rebuilt
    /// from trace records).
    #[test]
    fn trace_engine_matches_the_interpreter(
        program in any_program(),
        arch in any_arch(),
        hot in proptest::collection::vec(0u32..QUBITS, 0..4),
        policy in any_policy(),
        toggles in (0u32..2, 0u32..2),
        budget in prop_oneof![Just(None), (1u64..60).prop_map(Some)],
    ) {
        let hot: Vec<QubitTag> = hot.into_iter().map(QubitTag).collect();
        let config = SimConfig {
            record_trace: toggles.0 == 1,
            assume_infinite_magic: toggles.1 == 1,
        };
        let (mut reference, mut optimized) = pair(&arch, &hot, config, policy, budget);
        let classes = LatencyTable::paper().classify_program(&program);
        let classified = Classified::new(&program, &classes);
        let expected = reference.execute(&classified);
        let trace = lsqca_isa::lower(&program);
        let actual = optimized.execute(&trace);
        prop_assert_eq!(&expected, &actual);

        // Rerun both on their now-dirty simulators: the auto-reset paths of
        // the two engines must also agree (grown ready tables restored).
        let expected_again = reference.execute(&classified);
        let actual_again = optimized.execute(&trace);
        prop_assert_eq!(&expected, &expected_again);
        prop_assert_eq!(&expected_again, &actual_again);
    }

    /// A trace that round-trips through its binary artifact body executes
    /// identically to the freshly lowered one — the artifact path
    /// (`ExecutionTrace::decode` on cache load) cannot drift from the
    /// in-memory lowering.
    #[test]
    fn decoded_traces_execute_like_lowered_ones(
        program in any_program(),
        arch in any_arch(),
    ) {
        let lowered = lsqca_isa::lower(&program);
        let (decoded_program, decoded) =
            ExecutionTrace::decode(&lowered.encode(), program.name()).unwrap();
        prop_assert_eq!(&decoded_program, &program);
        prop_assert_eq!(&lowered, &decoded);
        let mut a = Simulator::builder(&arch, QUBITS).build().unwrap();
        let mut b = Simulator::builder(&arch, QUBITS).build().unwrap();
        prop_assert_eq!(a.execute(&lowered), b.execute(&decoded));
    }
}
