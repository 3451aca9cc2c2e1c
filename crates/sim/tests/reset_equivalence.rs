//! Reset equivalence: a re-executed simulator against a fresh one.
//!
//! [`Simulator::execute`] promises that every run starts from the pristine
//! architectural state: a simulator that already ran something — even a
//! run that failed part-way — resets first, so it produces the same outcome
//! and ends in the same state (grid cells, position tables, checkout
//! ledgers, vacancy rings, ready tables, policy state) as a fresh simulator.
//! This property pins that contract over random programs, floorplans, hot
//! sets, and migration policies, the same space the trace-engine shadow
//! suite sweeps.

use lsqca_arch::{ArchConfig, FloorplanKind, PolicyKind};
use lsqca_isa::{ClassicalId, Instruction, MemAddr, Program, RegId};
use lsqca_lattice::QubitTag;
use lsqca_sim::Simulator;
use proptest::prelude::*;

/// Qubit space shared by the program and simulator strategies (small enough
/// that random instructions collide on qubits, banks, and CR slots).
const QUBITS: u32 = 24;

/// Every instruction variant over deliberately small operand spaces — the
/// same shape as the shadow-trace suite, so resets are exercised against
/// dependency chains, bank serialization, checkout churn, and illegal
/// sequences (typed-error equivalence included).
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

fn any_program(name: &'static str) -> impl Strategy<Value = Program> {
    proptest::collection::vec(any_instruction(), 0..40).prop_map(move |instructions| {
        let mut program = Program::new(name);
        for instruction in instructions {
            program.push(instruction);
        }
        program
    })
}

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

/// One builder invocation per simulator, so "fresh" always means "the same
/// configuration built from scratch".
fn build(arch: &ArchConfig, hot: &[QubitTag], policy: Option<PolicyKind>) -> Simulator {
    let mut builder = Simulator::builder(arch, QUBITS).hot_qubits(hot);
    if let Some(kind) = policy {
        builder = builder.migration_policy(kind.build());
    }
    builder.build().unwrap()
}

proptest! {
    /// Re-executing equals running fresh: after any prefix, successful or
    /// failing, running a program on the dirty simulator produces exactly
    /// what a fresh simulator produces and leaves the same state behind. An
    /// explicit reset then gives back the state of a fresh build.
    #[test]
    fn rerun_after_any_prefix_equals_a_fresh_run(
        prefix in any_program("prefix"),
        program in any_program("main"),
        arch in any_arch(),
        hot in proptest::collection::vec(0u32..QUBITS, 0..4),
        policy in any_policy(),
    ) {
        let hot: Vec<QubitTag> = hot.into_iter().map(QubitTag).collect();
        let mut reused = build(&arch, &hot, policy);
        let _ = reused.execute(&prefix);
        let mut fresh = build(&arch, &hot, policy);
        prop_assert_eq!(fresh.execute(&program), reused.execute(&program));
        prop_assert!(reused.state_eq(&fresh));
        reused.reset();
        prop_assert!(reused.state_eq(&build(&arch, &hot, policy)));
    }
}
