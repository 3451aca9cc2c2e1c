//! The access-count ranking is derived once per program and every hot set is
//! a prefix of it. These properties pin that memoized path to the
//! sort-and-take selection it replaced, over random programs and circuits and
//! every hot-set size.

use lsqca::analysis::{access_ranking, hot_set_by_access_count, hot_set_size};
use lsqca::experiment::{ExperimentConfig, Workload};
use lsqca::prelude::*;
use proptest::prelude::*;

const QUBITS: u32 = 12;

/// The selection as it was before the ranking was memoized: count every
/// memory reference, sort by count descending then index ascending, take
/// `count`.
fn sort_and_take(program: &Program, count: usize) -> Vec<QubitTag> {
    let mut counts = std::collections::BTreeMap::new();
    for instr in program.iter() {
        for mem in instr.memory_operands() {
            *counts.entry(mem.index()).or_insert(0u64) += 1;
        }
    }
    let mut ranked: Vec<(u64, u32)> = counts.into_iter().map(|(q, n)| (n, q)).collect();
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    ranked
        .into_iter()
        .take(count)
        .map(|(_, q)| QubitTag(q))
        .collect()
}

/// Memory-touching instructions over a small qubit space, so counts tie often.
fn any_program() -> impl Strategy<Value = Program> {
    proptest::collection::vec((0u32..4, 0u32..QUBITS, 0u32..QUBITS), 0..60).prop_map(|ops| {
        let mut program = Program::new("ranked");
        for (kind, a, b) in ops {
            let mem = MemAddr(a);
            program.push(match kind {
                0 => Instruction::HdM { mem },
                1 => Instruction::PhM { mem },
                2 => Instruction::Ld { mem, reg: RegId(0) },
                _ => Instruction::Cx {
                    control: mem,
                    target: MemAddr(b),
                },
            });
        }
        program
    })
}

/// Random circuits mixing one- and two-qubit gates.
fn any_circuit() -> impl Strategy<Value = Circuit> {
    proptest::collection::vec((0u32..4, 0u32..QUBITS, 1u32..QUBITS), 0..40).prop_map(|gates| {
        let mut circuit = Circuit::new("random", QUBITS);
        for (kind, a, offset) in gates {
            let b = (a + offset) % QUBITS;
            match kind {
                0 => circuit.h(a),
                1 => circuit.t(a),
                2 => circuit.s(a),
                _ => circuit.cnot(a, b),
            }
        }
        circuit
    })
}

proptest! {
    #[test]
    fn ranking_prefixes_match_sort_and_take(program in any_program()) {
        let ranking = access_ranking(&program);
        let n = ranking.len();
        prop_assert_eq!(ranking.clone(), sort_and_take(&program, usize::MAX));
        for count in 0..=n + 1 {
            let expected = sort_and_take(&program, count);
            prop_assert_eq!(hot_set_by_access_count(&program, count), expected.clone());
            prop_assert_eq!(ranking[..count.min(n)].to_vec(), expected);
        }
    }

    #[test]
    fn memoized_workload_hot_sets_match_sort_and_take(circuit in any_circuit()) {
        let workload = Workload::from_circuit(circuit);
        let program = workload.compiled().program();
        let n = workload.num_qubits();
        let base = ExperimentConfig::new(FloorplanKind::PointSam { banks: 1 }, 1);
        // Every hot-set size from empty to all qubits, asked repeatedly of
        // the one memoized ranking, and the reconstructed result's size.
        for count in 0..=n + 1 {
            let fraction = f64::from(count) / f64::from(n);
            let config = base.clone().with_hybrid_fraction(fraction);
            let size = hot_set_size(n, fraction);
            prop_assert_eq!(size, count.min(n) as usize);
            let hot = workload.hot_qubits(&config);
            prop_assert_eq!(hot.clone(), sort_and_take(program, size));
            let rebuilt = workload.result_from_stats(&config, ExecutionStats::default());
            prop_assert_eq!(rebuilt.hot_qubits as usize, hot.len());
        }
    }
}
