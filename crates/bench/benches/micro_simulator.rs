//! Microbenchmark: end-to-end simulator throughput and its hot-path pieces.
//!
//! Compiles a mid-sized multiplier once and measures how many code-beat
//! simulations per second the engine sustains on the point-SAM, line-SAM, and
//! conventional floorplans. This is the number that determines how long the
//! paper-scale figure sweeps take.
//!
//! The `micro_hotpath` group additionally compares the allocation-free
//! operand extraction and the dense-index residence table against the legacy
//! `Vec`/`HashMap` reference implementations kept in
//! [`lsqca_bench::hotpath::legacy`], so the speedup stays measurable in-repo.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lsqca::experiment::{ExperimentConfig, Workload};
use lsqca::isa::LatencyTable;
use lsqca::lattice::{CellGrid, Coord, PathScratch};
use lsqca::prelude::*;
use lsqca::workloads::{shift_add_multiplier, MultiplierConfig};
use lsqca_bench::hotpath::{
    bank_grid, command_count_classes, legacy, operand_walk, operand_walk_legacy, relocation_walk,
    relocation_walk_legacy, relocation_working_set, residence_sweep, residence_sweep_legacy,
};

fn multiplier_workload() -> Workload {
    Workload::from_circuit(shift_add_multiplier(MultiplierConfig {
        operand_bits: 16,
        partial_products: None,
    }))
}

fn bench_simulator(c: &mut Criterion) {
    let workload = multiplier_workload();
    let instructions = workload.compiled().program().len();
    println!("simulating {instructions} instructions per iteration");

    let mut group = c.benchmark_group("micro_simulator");
    group.sample_size(10);
    for floorplan in [
        FloorplanKind::PointSam { banks: 1 },
        FloorplanKind::LineSam { banks: 1 },
        FloorplanKind::Conventional,
    ] {
        group.bench_function(floorplan.label(), |b| {
            let config = ExperimentConfig::new(floorplan, 1);
            b.iter(|| workload.run(&config))
        });
    }
    group.finish();
}

fn bench_hotpath(c: &mut Criterion) {
    let workload = multiplier_workload();
    let program = workload.compiled().program().clone();

    let mut group = c.benchmark_group("micro_hotpath");
    group.sample_size(20);

    // Operand extraction: inline `Operands` vs the legacy `Vec` returns.
    // The loop bodies are shared with `hotpath::generate` so the criterion
    // numbers and the BENCH_hotpath.json baseline measure the same thing.
    group.bench_function("operand_extraction_inline", |b| {
        b.iter(|| black_box(operand_walk(&program)))
    });
    group.bench_function("operand_extraction_legacy_vec", |b| {
        b.iter(|| black_box(operand_walk_legacy(&program)))
    });

    // Residence lookup: dense table vs the legacy hash map.
    let arch = ArchConfig::new(FloorplanKind::PointSam { banks: 1 }, 1);
    let memory = MemorySystem::new(&arch, workload.num_qubits().max(1), &[]);
    let map = legacy::residence_map(&memory);
    let tags: Vec<QubitTag> = (0..memory.num_qubits()).map(QubitTag).collect();
    group.bench_function("residence_lookup_dense", |b| {
        b.iter(|| black_box(residence_sweep(&memory, &tags)))
    });
    group.bench_function("residence_lookup_legacy_hashmap", |b| {
        b.iter(|| black_box(residence_sweep_legacy(&map, &tags)))
    });

    // Nearest-vacant query: anchor-registered VacancyIndex vs linear scan.
    let (grid, port) = bank_grid(workload.num_qubits().max(64));
    group.bench_function("nearest_vacant_indexed", |b| {
        b.iter(|| black_box(black_box(&grid).nearest_vacant(port)))
    });
    group.bench_function("nearest_vacant_legacy_scan", |b| {
        b.iter(|| black_box(legacy::nearest_vacant(black_box(&grid), port)))
    });

    // Fused relocation vs the remove → nearest_vacant → place triple walk.
    let working = relocation_working_set(&grid);
    let mut fused_grid = grid.clone();
    group.bench_function("relocate_fused", |b| {
        b.iter(|| black_box(relocation_walk(&mut fused_grid, port, &working)))
    });
    let mut triple_grid = grid.clone();
    group.bench_function("relocate_legacy_triple_walk", |b| {
        b.iter(|| black_box(relocation_walk_legacy(&mut triple_grid, port, &working)))
    });

    // Vacant-path BFS: dense PathScratch vs the legacy HashMap frontier.
    let route = CellGrid::new(grid.width(), grid.height());
    let from = Coord::new(0, route.height() / 2);
    let to = Coord::new(route.width() - 1, route.height() - 1);
    let mut scratch = PathScratch::new();
    group.bench_function("vacant_path_dense", |b| {
        b.iter(|| black_box(route.vacant_path_len_in(from, to, &mut scratch).unwrap()))
    });
    group.bench_function("vacant_path_legacy_hashmap", |b| {
        b.iter(|| black_box(legacy::vacant_path_len(&route, from, to).unwrap()))
    });

    // CPI command count: precompiled class vector vs per-instruction match.
    let table = LatencyTable::paper();
    let classes = table.classify_program(&program);
    group.bench_function("latency_class_precompiled", |b| {
        b.iter(|| black_box(command_count_classes(black_box(&classes))))
    });
    group.bench_function("latency_class_legacy_match", |b| {
        b.iter(|| black_box(legacy::command_count(&table, black_box(&program))))
    });
    group.finish();
}

criterion_group!(benches, bench_simulator, bench_hotpath);
criterion_main!(benches);
