//! Traced in-process replay of the `experiments fig14` / `fig15` quick-scale
//! sweeps, for the sweep benchmark in `sweepbench/`.
//!
//! The replay makes the same calls, in the same order and through the same
//! `lsqca_bench::par::par_map`, as `lsqca_bench::fig14::generate`,
//! `fig15::generate` and `lsqca_bench::stored_run_in`. Every call into a
//! layer's public function is timed here, from outside the library, so the
//! library itself carries no benchmark code. Time inside a sweep point that
//! no timed call covers is reported as `unattributed_s`.
//!
//! ```text
//! sweep-replay setup --fig <fig14|fig15> --cache <dir>
//! sweep-replay sweep --fig <fig14|fig15> --cache <dir> --store <dir>
//!                    --reference-store <dir> --expect <cold|warm> --report-out <file>
//! sweep-replay measure --stdout <file> --stderr <file> -- <program> [args...]
//! sweep-replay calibrate [--publish-into <new dir>]
//! ```
//!
//! `setup` compiles the figure's artifacts into an empty cache. `sweep`
//! replays the figure against `--store`, writes the figure's `--json` report
//! to `--report-out` and checks every visited point against the records in
//! `--reference-store`. `measure` runs a program to completion and reports
//! its wall time, CPU time and peak resident memory. `calibrate` times a fixed
//! piece of work that uses no repository code, to gauge the host's current
//! speed. All modes print one JSON object as the last line of stdout.

use lsqca::experiment::{ExperimentConfig, ExperimentResult, HotSetStrategy, Workload};
use lsqca::prelude::*;
use lsqca::sim::Simulator;
use lsqca::workloads::{BenchmarkConfig, CacheEvent, SelectConfig};
use lsqca_bench::{fig14, fig15, par::par_map, Scale};
use lsqca_json::{Json, ToJson};
use lsqca_store::{ResultStore, StoreEvent};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// The sweep parameters `experiments` uses without `--full`.
const SCALE: Scale = Scale::Quick;
const FACTORIES: [u32; 2] = [1, 4];
const FRACTION_STEP: f64 = 0.25;
const FIG15_TERMS: Option<u64> = Some(200);

/// Seconds spent in, and calls made to, each timed layer function.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Tally {
    load_s: f64,
    load_calls: u64,
    load_bytes: u64,
    compile_s: f64,
    compile_calls: u64,
    result_key_s: f64,
    result_key_calls: u64,
    hot_set_s: f64,
    hot_set_calls: u64,
    result_from_stats_s: f64,
    build_s: f64,
    builds: u64,
    execute_s: f64,
    instructions: u64,
    read_s: f64,
    hits: u64,
    write_s: f64,
    computed: u64,
    quarantined: u64,
    /// Longest single sweep point (a maximum, not a sum).
    slowest_point_s: f64,
}

impl Tally {
    /// Seconds covered by timed layer calls. Calls nested inside the store's
    /// compute closure are not double counted: `write_s` excludes the closure.
    fn covered_s(&self) -> f64 {
        self.load_s
            + self.compile_s
            + self.result_key_s
            + self.hot_set_s
            + self.result_from_stats_s
            + self.build_s
            + self.execute_s
            + self.read_s
            + self.write_s
    }

    fn add(&mut self, o: &Tally) {
        self.load_s += o.load_s;
        self.load_calls += o.load_calls;
        self.load_bytes += o.load_bytes;
        self.compile_s += o.compile_s;
        self.compile_calls += o.compile_calls;
        self.result_key_s += o.result_key_s;
        self.result_key_calls += o.result_key_calls;
        self.hot_set_s += o.hot_set_s;
        self.hot_set_calls += o.hot_set_calls;
        self.result_from_stats_s += o.result_from_stats_s;
        self.build_s += o.build_s;
        self.builds += o.builds;
        self.execute_s += o.execute_s;
        self.instructions += o.instructions;
        self.read_s += o.read_s;
        self.hits += o.hits;
        self.write_s += o.write_s;
        self.computed += o.computed;
        self.quarantined += o.quarantined;
        self.slowest_point_s = self.slowest_point_s.max(o.slowest_point_s);
    }
}

/// Runs `f`, adding its wall time to `slot`.
fn timed<R>(slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed().as_secs_f64();
    out
}

/// The worker count `par_map` uses for `jobs` items (same rule as
/// `lsqca_bench::par`).
fn worker_threads(jobs: usize) -> usize {
    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cap = std::env::var("LSQCA_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(hardware);
    cap.min(hardware).min(jobs.max(1))
}

/// Layer times and thread occupancy of the `par_map` phases of one replay.
#[derive(Debug, Default)]
struct Sweep {
    tally: Tally,
    /// Summed wall time of every `par_map` item.
    busy_s: f64,
    /// Summed `phase wall × worker threads` over the phases.
    capacity_s: f64,
    /// Time spent rendering the figure's report.
    report_s: f64,
}

impl Sweep {
    /// Maps `f` over `items` through `par_map`, timing each item and the
    /// phase as a whole.
    fn phase<T: Sync, R: Send>(
        &mut self,
        items: &[T],
        f: impl Fn(&T, &mut Tally) -> R + Sync,
    ) -> Vec<R> {
        let threads = worker_threads(items.len());
        let start = Instant::now();
        let out = par_map(items, |item| {
            let item_start = Instant::now();
            let mut tally = Tally::default();
            let result = f(item, &mut tally);
            (result, tally, item_start.elapsed().as_secs_f64())
        });
        self.capacity_s += start.elapsed().as_secs_f64() * threads as f64;
        out.into_iter()
            .map(|(result, tally, item_s)| {
                self.tally.add(&tally);
                self.busy_s += item_s;
                result
            })
            .collect()
    }

    /// Time inside the items that no timed layer call covers.
    fn unattributed_s(&self) -> f64 {
        self.busy_s - self.tally.covered_s()
    }

    /// Time the workers had no item to run.
    fn idle_s(&self) -> f64 {
        self.capacity_s - self.busy_s
    }

    /// The figure's `--json` report as `experiments` prints it
    /// (`ToJson::to_json` plus `Json::pretty`), timed as `json.report`.
    fn render<P: ToJson>(&mut self, points: &[P]) -> String {
        timed(&mut self.report_s, || points.to_json().pretty() + "\n")
    }
}

/// One sweep point as the replay saw it.
#[derive(Debug)]
struct Visit {
    key: String,
    stats: Option<ExecutionStats>,
    event: StoreEvent,
}

/// `WorkloadCache::load_or_compile` as `lsqca_bench::cached_workload_with`
/// calls it, timed as a load on a hit and as a compile otherwise.
fn load(
    cache: &WorkloadCache,
    descriptor: &str,
    build: impl FnOnce() -> Circuit,
    tally: &mut Tally,
) -> Workload {
    let config = CompilerConfig::default();
    let start = Instant::now();
    let (artifact, event) = cache.load_or_compile(descriptor, config, build);
    let call_s = start.elapsed().as_secs_f64();
    if event == CacheEvent::Hit {
        tally.load_s += call_s;
        tally.load_calls += 1;
        tally.load_bytes += cache
            .path_for(descriptor, &config)
            .and_then(|path| std::fs::metadata(path).ok())
            .map_or(0, |meta| meta.len());
    } else {
        tally.compile_s += call_s;
        tally.compile_calls += 1;
    }
    Workload::from_artifact(artifact)
}

/// The simulation `Workload::run` performs for `config`, call for call.
fn simulate(workload: &Workload, config: &ExperimentConfig, tally: &mut Tally) -> ExecutionStats {
    let hot = timed(&mut tally.hot_set_s, || workload.hot_qubits(config));
    tally.hot_set_calls += 1;
    let mut simulator = timed(&mut tally.build_s, || {
        let mut arch = ArchConfig::new(config.floorplan, config.factories)
            .with_hybrid_fraction(config.hybrid_fraction.clamp(0.0, 1.0));
        arch.locality_aware_store = config.locality_aware_store;
        let qubits = workload
            .num_qubits()
            .max(workload.compiled().memory_footprint())
            .max(1);
        let mut builder = Simulator::builder(&arch, qubits)
            .hot_qubits(&hot)
            .config(config.sim);
        if let Some(policy) = config.migration {
            builder = builder.migration_policy(policy.build());
        }
        builder.build()
    })
    .unwrap_or_else(|err| panic!("invalid simulator configuration: {err}"));
    tally.builds += 1;
    let outcome = timed(&mut tally.execute_s, || {
        simulator.execute(workload.compiled())
    })
    .unwrap_or_else(|err| panic!("simulation failed: {err}"));
    tally.instructions += outcome.stats.instruction_count;
    outcome.stats
}

/// `lsqca_bench::stored_run_in` for an unsharded run, call for call.
fn stored_point(
    store: &ResultStore,
    workload: &Workload,
    config: &ExperimentConfig,
    tally: &mut Tally,
) -> (ExperimentResult, Visit) {
    let start = Instant::now();
    let key = timed(&mut tally.result_key_s, || workload.result_key(config));
    tally.result_key_calls += 1;
    let mut inner = Tally::default();
    let mut compute_s = 0.0;
    let call = Instant::now();
    let (payload, event) = store.load_or_compute(&key, || {
        let compute = Instant::now();
        let payload = simulate(workload, config, &mut inner).to_json();
        compute_s = compute.elapsed().as_secs_f64();
        payload
    });
    let call_s = call.elapsed().as_secs_f64();
    tally.add(&inner);
    match event {
        StoreEvent::Hit => {
            tally.read_s += call_s;
            tally.hits += 1;
        }
        StoreEvent::Computed => {
            tally.write_s += call_s - compute_s;
            tally.computed += 1;
        }
        StoreEvent::Quarantined(_) => {
            tally.write_s += call_s - compute_s;
            tally.quarantined += 1;
        }
    }
    let stats = ExecutionStats::from_json(&payload).ok();
    let result = timed(&mut tally.result_from_stats_s, || {
        workload.result_from_stats(config, stats.clone().unwrap_or_default())
    });
    tally.slowest_point_s = tally.slowest_point_s.max(start.elapsed().as_secs_f64());
    (result, Visit { key, stats, event })
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Fig {
    Fig14,
    Fig15,
}

/// The per-benchmark workloads of `fig14::generate`.
fn fig14_workloads(sweep: &mut Sweep, cache: &WorkloadCache) -> Vec<Workload> {
    sweep.phase(&Benchmark::ALL, |&benchmark, tally| {
        let cfg = benchmark.config(SCALE.instance_size());
        load(cache, &cfg.descriptor(), || cfg.build(), tally)
    })
}

/// The `(qubits, hybrid fraction, workload)` SELECT instances of
/// `fig15::generate`.
fn fig15_instances(sweep: &mut Sweep, cache: &WorkloadCache) -> Vec<(u32, f64, Workload)> {
    sweep.phase(&fig15::widths(SCALE), |&width, tally| {
        let mut select_cfg = SelectConfig::for_width(width);
        select_cfg.max_terms = FIG15_TERMS;
        let qubits = select_cfg.total_qubits();
        let hybrid_fraction =
            (select_cfg.control_bits() + select_cfg.temporal_bits()) as f64 / qubits as f64;
        let cfg = BenchmarkConfig::Select(select_cfg);
        let workload = load(cache, &cfg.descriptor(), || cfg.build(), tally);
        (qubits, hybrid_fraction, workload)
    })
}

/// `fig14::generate(Quick, &[], &[1, 4], 0.25)`, instrumented.
fn replay_fig14(
    sweep: &mut Sweep,
    cache: &WorkloadCache,
    store: &ResultStore,
) -> (String, Vec<Visit>) {
    let list = Benchmark::ALL;
    let steps = (1.0 / FRACTION_STEP).round() as u32;
    let workloads = fig14_workloads(sweep, cache);

    let mut baseline_keys = Vec::new();
    for i in 0..list.len() {
        for &factories in &FACTORIES {
            baseline_keys.push((i, factories));
        }
    }
    let baselines = sweep.phase(&baseline_keys, |&(i, factories), tally| {
        stored_point(
            store,
            &workloads[i],
            &ExperimentConfig::baseline(factories),
            tally,
        )
    });

    let mut jobs = Vec::new();
    for (i, &benchmark) in list.iter().enumerate() {
        for (f_idx, &factories) in FACTORIES.iter().enumerate() {
            for floorplan in fig14::floorplans() {
                for step in 0..=steps {
                    jobs.push((i, benchmark, f_idx, factories, floorplan, step));
                }
            }
        }
    }
    let grid = sweep.phase(
        &jobs,
        |&(i, benchmark, f_idx, factories, floorplan, step), tally| {
            let fraction = (step as f64 * FRACTION_STEP).min(1.0);
            let config = ExperimentConfig::new(floorplan, factories).with_hybrid_fraction(fraction);
            let (result, visit) = stored_point(store, &workloads[i], &config, tally);
            let baseline = &baselines[i * FACTORIES.len() + f_idx].0;
            let point = fig14::Point {
                benchmark: benchmark.name().to_string(),
                floorplan: floorplan.label(),
                factories,
                fraction,
                density: result.memory_density,
                overhead: result.overhead_vs(baseline),
            };
            (point, visit)
        },
    );

    let (points, grid_visits): (Vec<_>, Vec<_>) = grid.into_iter().unzip();
    let mut visits: Vec<Visit> = baselines.into_iter().map(|(_, visit)| visit).collect();
    visits.extend(grid_visits);
    (sweep.render(&points), visits)
}

/// `fig15::generate(Quick, &[1, 4], Some(200))`, instrumented.
fn replay_fig15(
    sweep: &mut Sweep,
    cache: &WorkloadCache,
    store: &ResultStore,
) -> (String, Vec<Visit>) {
    let widths = fig15::widths(SCALE);
    let instances = fig15_instances(sweep, cache);

    let mut baseline_keys = Vec::new();
    for i in 0..widths.len() {
        for &factories in &FACTORIES {
            baseline_keys.push((i, factories));
        }
    }
    let baselines = sweep.phase(&baseline_keys, |&(i, factories), tally| {
        stored_point(
            store,
            &instances[i].2,
            &ExperimentConfig::baseline(factories),
            tally,
        )
    });

    let mut jobs = Vec::new();
    for (i, &width) in widths.iter().enumerate() {
        for (f_idx, &factories) in FACTORIES.iter().enumerate() {
            for floorplan in fig14::floorplans() {
                jobs.push((i, width, f_idx, factories, floorplan));
            }
        }
    }
    let grid = sweep.phase(&jobs, |&(i, width, f_idx, factories, floorplan), tally| {
        let (qubits, hybrid_fraction, ref workload) = instances[i];
        let baseline = &baselines[i * FACTORIES.len() + f_idx].0;
        let (plain, plain_visit) = stored_point(
            store,
            workload,
            &ExperimentConfig::new(floorplan, factories),
            tally,
        );
        let hybrid_config = ExperimentConfig::new(floorplan, factories)
            .with_hybrid_fraction(hybrid_fraction)
            .with_hot_set(HotSetStrategy::ByRole(vec![
                RegisterRole::Control,
                RegisterRole::Temporal,
            ]));
        let (hybrid, hybrid_visit) = stored_point(store, workload, &hybrid_config, tally);
        let points = [
            fig15::Point {
                instance_width: width,
                qubits,
                floorplan: floorplan.label(),
                factories,
                density: plain.memory_density,
                overhead: plain.overhead_vs(baseline),
            },
            fig15::Point {
                instance_width: width,
                qubits,
                floorplan: format!("Hybrid {}", floorplan.label()),
                factories,
                density: hybrid.memory_density,
                overhead: hybrid.overhead_vs(baseline),
            },
        ];
        (points, [plain_visit, hybrid_visit])
    });

    let mut points = Vec::new();
    let mut visits: Vec<Visit> = baselines.into_iter().map(|(_, visit)| visit).collect();
    for (pair, pair_visits) in grid {
        points.extend(pair);
        visits.extend(pair_visits);
    }
    (sweep.render(&points), visits)
}

/// Every result key recorded in the store directory `dir`.
fn stored_keys(dir: &Path) -> Result<Vec<String>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut keys = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_none_or(|ext| ext != "json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = lsqca_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let key = doc
            .get("key")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: record without a key", path.display()))?;
        keys.push(key.to_string());
    }
    Ok(keys)
}

/// Checks the visited points against the reference store and returns the
/// number of failed points plus a description of each kind of failure.
fn check(visits: &[Visit], reference: &Path, expect_cold: bool) -> (u64, Vec<String>) {
    let mut problems = Vec::new();
    let visited: BTreeSet<&str> = visits.iter().map(|v| v.key.as_str()).collect();
    if visited.len() != visits.len() {
        let shared = visits.len() - visited.len();
        problems.push(format!("{shared} points share a result key"));
    }
    let keys_match = match stored_keys(reference) {
        Ok(keys) => {
            let recorded: BTreeSet<&str> = keys.iter().map(String::as_str).collect();
            if recorded != visited {
                problems.push(format!(
                    "replay visited {} keys, reference store holds {} ({} in common)",
                    visited.len(),
                    recorded.len(),
                    visited.intersection(&recorded).count()
                ));
            }
            recorded == visited
        }
        Err(err) => {
            problems.push(format!("cannot list reference store: {err}"));
            false
        }
    };
    let reference_store = ResultStore::at(reference);
    let (mut mismatched, mut wrong_event, mut bad_points) = (0u64, 0u64, 0u64);
    for visit in visits {
        let recorded = reference_store
            .probe(&visit.key)
            .and_then(|payload| ExecutionStats::from_json(&payload).ok());
        let stats_ok = visit.stats.is_some() && recorded == visit.stats;
        let event_ok = visit.event
            == if expect_cold {
                StoreEvent::Computed
            } else {
                StoreEvent::Hit
            };
        mismatched += u64::from(!stats_ok);
        wrong_event += u64::from(!event_ok);
        bad_points += u64::from(!(stats_ok && event_ok));
    }
    if mismatched > 0 {
        problems.push(format!(
            "{mismatched} points differ from their stored record"
        ));
    }
    if wrong_event > 0 {
        let want = if expect_cold {
            "computed"
        } else {
            "a store hit"
        };
        problems.push(format!("{wrong_event} points were not {want}"));
    }
    let failed = if keys_match {
        bad_points
    } else {
        visits.len() as u64
    };
    (failed, problems)
}

/// Sums of the simulated-time decomposition over the visited points.
fn beats(visits: &[Visit]) -> Json {
    let sum = |f: fn(&ExecutionStats) -> u64| -> u64 {
        visits.iter().filter_map(|v| v.stats.as_ref()).map(f).sum()
    };
    Json::obj([
        ("total_beats", sum(|s| s.total_beats.as_u64()).to_json()),
        (
            "magic_wait_beats",
            sum(|s| s.magic_wait_beats.as_u64()).to_json(),
        ),
        (
            "memory_access_beats",
            sum(|s| s.memory_access_beats.as_u64()).to_json(),
        ),
        (
            "migration_beats",
            sum(|s| s.migration_beats.as_u64()).to_json(),
        ),
    ])
}

fn tally_json(t: &Tally) -> Vec<(&'static str, Json)> {
    vec![
        ("load_s", t.load_s.to_json()),
        ("load_calls", t.load_calls.to_json()),
        ("load_bytes", t.load_bytes.to_json()),
        ("compile_s", t.compile_s.to_json()),
        ("compile_calls", t.compile_calls.to_json()),
        ("result_key_s", t.result_key_s.to_json()),
        ("result_key_calls", t.result_key_calls.to_json()),
        ("hot_set_s", t.hot_set_s.to_json()),
        ("hot_set_calls", t.hot_set_calls.to_json()),
        ("result_from_stats_s", t.result_from_stats_s.to_json()),
        ("build_s", t.build_s.to_json()),
        ("builds", t.builds.to_json()),
        ("execute_s", t.execute_s.to_json()),
        ("instructions", t.instructions.to_json()),
        ("read_s", t.read_s.to_json()),
        ("hits", t.hits.to_json()),
        ("write_s", t.write_s.to_json()),
        ("computed", t.computed.to_json()),
        ("quarantined", t.quarantined.to_json()),
        ("slowest_point_s", t.slowest_point_s.to_json()),
    ]
}

/// `struct timeval` and `struct rusage` of 64-bit Linux.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod rusage {
    #[repr(C)]
    #[derive(Default)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    #[derive(Default)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss_kb: i64,
        rest: [i64; 13],
    }

    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }

    const RUSAGE_SELF: i32 = 0;
    const RUSAGE_CHILDREN: i32 = -1;

    /// User plus system seconds this process has used so far.
    pub fn own_cpu_s() -> std::io::Result<f64> {
        let mut usage = Rusage::default();
        // SAFETY: as in `children`.
        if unsafe { getrusage(RUSAGE_SELF, &mut usage) } != 0 {
            return Err(std::io::Error::last_os_error());
        }
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Ok(secs(&usage.utime) + secs(&usage.stime))
    }

    /// `(user s, system s, peak RSS KiB)` over the children this process
    /// has waited for.
    pub fn children() -> std::io::Result<(f64, f64, u64)> {
        let mut usage = Rusage::default();
        // SAFETY: `usage` is a valid, writable `struct rusage` with the C
        // layout of this target, and `getrusage` writes only within it.
        if unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) } != 0 {
            return Err(std::io::Error::last_os_error());
        }
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Ok((
            secs(&usage.utime),
            secs(&usage.stime),
            u64::try_from(usage.maxrss_kb).unwrap_or(0),
        ))
    }
}

/// Runs `argv` as this process's only child, its output sent to the files
/// `stdout` and `stderr`, and prints its wall, CPU and peak-memory figures.
///
/// The child is started from this small process rather than from the
/// benchmark's Python harness because Linux carries the parent's resident-set
/// high-water mark into a forked child's `ru_maxrss`.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn measure(args: &[String]) -> ExitCode {
    let (stdout, stderr, argv) = match args {
        [o, stdout, e, stderr, dashes, argv @ ..]
            if o == "--stdout" && e == "--stderr" && dashes == "--" && !argv.is_empty() =>
        {
            (stdout, stderr, argv)
        }
        _ => {
            eprintln!("sweep-replay: usage: measure --stdout <file> --stderr <file> -- <program> [args...]");
            return ExitCode::FAILURE;
        }
    };
    let files = std::fs::File::create(stdout).and_then(|o| Ok((o, std::fs::File::create(stderr)?)));
    let (out, err) = match files {
        Ok(files) => files,
        Err(err) => {
            eprintln!("sweep-replay: cannot create output files: {err}");
            return ExitCode::FAILURE;
        }
    };
    let (program, args) = (&argv[0], &argv[1..]);
    let start = Instant::now();
    let status = std::process::Command::new(program)
        .args(args)
        .stdout(out)
        .stderr(err)
        .status();
    let wall_s = start.elapsed().as_secs_f64();
    let status = match status {
        Ok(status) => status,
        Err(err) => {
            eprintln!("sweep-replay: cannot run `{program}`: {err}");
            return ExitCode::FAILURE;
        }
    };
    let (user_s, sys_s, maxrss_kb) = match rusage::children() {
        Ok(usage) => usage,
        Err(err) => {
            eprintln!("sweep-replay: getrusage failed: {err}");
            return ExitCode::FAILURE;
        }
    };
    let exit_code = status
        .code()
        .map_or(Json::Null, |code| Json::I64(code.into()));
    let fields = [
        ("wall_s", wall_s.to_json()),
        ("user_s", user_s.to_json()),
        ("sys_s", sys_s.to_json()),
        ("maxrss_kb", maxrss_kb.to_json()),
        ("exit_code", exit_code),
    ];
    println!("{}", Json::obj(fields).compact());
    ExitCode::SUCCESS
}

/// One thread's share of the calibration work: a byte-wise FNV-1a hash,
/// eight passes over a 4 MiB buffer, the kind of hashing `result_key` does
/// over an artifact. Its time follows the share of CPU the host gives the
/// thread. Returns the hash so none of it is optimised out.
fn calibration_work(seed: u64) -> u64 {
    let mut state = seed | 1;
    let words: Vec<u64> = (0..1 << 19)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        })
        .collect();
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for _ in 0..8 {
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// Store-like publishes the disk part of the calibration makes.
const CALIBRATION_PUBLISHES: usize = 96;

/// Publishes `CALIBRATION_PUBLISHES` small records into the new directory
/// `dir` the way the result store publishes one: write a temporary file,
/// fsync it, rename it into place, fsync the directory. Returns the seconds
/// taken. Nothing is deleted: freeing blocks on a disk mounted with online
/// discard slows the fsyncs that follow.
fn calibration_publishes(dir: &Path) -> std::io::Result<f64> {
    use std::io::Write;
    std::fs::create_dir(dir)?;
    let directory = std::fs::File::open(dir)?;
    let start = Instant::now();
    for i in 0..CALIBRATION_PUBLISHES {
        let tmp = dir.join(format!("{i}.tmp"));
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&[b'x'; 256])?;
        file.sync_all()?;
        std::fs::rename(&tmp, dir.join(format!("{i}.json")))?;
        directory.sync_all()?;
    }
    Ok(start.elapsed().as_secs_f64())
}

/// Runs the fixed calibration work on as many threads as a sweep uses and
/// prints its wall time as `wall_s` and the CPU time it used as `cpu_s`. The
/// work uses the standard library only, so its time follows the host's speed
/// and not the repository's code. With `--publish-into <dir>` it then times
/// store-like publishes into that new directory, printed as `publish_s`, to
/// gauge the disk's fsync latency too.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn calibrate(args: &[String]) -> ExitCode {
    let publish_dir = match args {
        [] => None,
        [flag, dir] if flag == "--publish-into" => Some(Path::new(dir)),
        _ => {
            eprintln!("sweep-replay: usage: calibrate [--publish-into <new dir>]");
            return ExitCode::FAILURE;
        }
    };
    let threads = worker_threads(usize::MAX) as u64;
    let cpu_before = rusage::own_cpu_s();
    let start = Instant::now();
    let digest = std::thread::scope(|scope| {
        let workers: Vec<_> = (1..=threads)
            .map(|seed| scope.spawn(move || calibration_work(seed)))
            .collect();
        workers.into_iter().fold(0, |acc, w| {
            acc ^ w.join().expect("calibration thread panicked")
        })
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = match (cpu_before, rusage::own_cpu_s()) {
        (Ok(before), Ok(after)) => after - before,
        (Err(err), _) | (_, Err(err)) => {
            eprintln!("sweep-replay: getrusage failed: {err}");
            return ExitCode::FAILURE;
        }
    };
    let publish_s = match publish_dir.map(calibration_publishes) {
        None => 0.0,
        Some(Ok(seconds)) => seconds,
        Some(Err(err)) => {
            eprintln!("sweep-replay: calibration publishes failed: {err}");
            return ExitCode::FAILURE;
        }
    };
    let fields = [
        ("wall_s", wall_s.to_json()),
        ("cpu_s", cpu_s.to_json()),
        ("publish_s", publish_s.to_json()),
        ("threads", threads.to_json()),
        ("digest", digest.to_json()),
    ];
    println!("{}", Json::obj(fields).compact());
    ExitCode::SUCCESS
}

/// What the setup and sweep modes were asked to do.
enum Mode {
    Setup,
    Sweep {
        store: PathBuf,
        reference: PathBuf,
        expect_cold: bool,
        report_out: PathBuf,
    },
}

/// Parses `<setup|sweep> --fig <f> --cache <dir> [sweep flags]`.
fn parse_args(args: &[String]) -> Result<(Mode, Fig, PathBuf), String> {
    let sweep = match args.first().map(String::as_str) {
        Some("setup") => false,
        Some("sweep") => true,
        _ => return Err("the mode must be setup, sweep, measure or calibrate".into()),
    };
    let (mut fig, mut cache, mut store, mut reference, mut expect, mut report_out) =
        (None, None, None, None, None, None);
    let mut iter = args.iter().skip(1);
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?
            .clone();
        match flag.as_str() {
            "--fig" => fig = Some(value),
            "--cache" => cache = Some(PathBuf::from(value)),
            "--store" => store = Some(PathBuf::from(value)),
            "--reference-store" => reference = Some(PathBuf::from(value)),
            "--expect" => expect = Some(value),
            "--report-out" => report_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let fig = match fig.as_deref() {
        Some("fig14") => Fig::Fig14,
        Some("fig15") => Fig::Fig15,
        _ => return Err("`--fig` must be fig14 or fig15".into()),
    };
    let cache = cache.ok_or("`--cache` is required")?;
    let mode = if !sweep {
        Mode::Setup
    } else {
        Mode::Sweep {
            store: store.ok_or("sweep needs `--store`")?,
            reference: reference.ok_or("sweep needs `--reference-store`")?,
            expect_cold: match expect.as_deref() {
                Some("cold") => true,
                Some("warm") => false,
                _ => return Err("sweep needs `--expect cold` or `--expect warm`".into()),
            },
            report_out: report_out.ok_or("sweep needs `--report-out`")?,
        }
    };
    Ok((mode, fig, cache))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(mode @ ("measure" | "calibrate")) = args.first().map(String::as_str) {
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        return if mode == "measure" {
            measure(&args[1..])
        } else {
            calibrate(&args[1..])
        };
        #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
        {
            eprintln!("sweep-replay: {mode} needs 64-bit Linux");
            return ExitCode::FAILURE;
        }
    }
    let (mode, fig, cache_dir) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("sweep-replay: {err}");
            return ExitCode::FAILURE;
        }
    };
    let cache = WorkloadCache::at(&cache_dir);
    let mut sweep = Sweep::default();

    let Mode::Sweep {
        store,
        reference,
        expect_cold,
        report_out,
    } = mode
    else {
        match fig {
            Fig::Fig14 => drop(fig14_workloads(&mut sweep, &cache)),
            Fig::Fig15 => drop(fig15_instances(&mut sweep, &cache)),
        }
        let mut fields = tally_json(&sweep.tally);
        fields.push(("wall_s", started.elapsed().as_secs_f64().to_json()));
        println!("{}", Json::obj(fields).compact());
        return ExitCode::SUCCESS;
    };

    let store = ResultStore::at(store);
    let (report, visits) = match fig {
        Fig::Fig14 => replay_fig14(&mut sweep, &cache, &store),
        Fig::Fig15 => replay_fig15(&mut sweep, &cache, &store),
    };
    let wall_s = started.elapsed().as_secs_f64();

    if let Err(err) = std::fs::write(&report_out, report) {
        eprintln!("sweep-replay: cannot write {}: {err}", report_out.display());
        return ExitCode::FAILURE;
    }
    let (failed, problems) = check(&visits, &reference, expect_cold);

    let mut fields = tally_json(&sweep.tally);
    fields.extend([
        ("report_s", sweep.report_s.to_json()),
        ("wall_s", wall_s.to_json()),
        ("busy_s", sweep.busy_s.to_json()),
        ("capacity_s", sweep.capacity_s.to_json()),
        ("idle_s", sweep.idle_s().to_json()),
        ("unattributed_s", sweep.unattributed_s().to_json()),
        ("points", (visits.len() as u64).to_json()),
        ("failed_points", failed.to_json()),
        ("problems", Json::arr(problems.into_iter().map(Json::Str))),
        ("beats", beats(&visits)),
    ]);
    println!("{}", Json::obj(fields).compact());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sleep_ms(ms: u64) {
        std::thread::sleep(Duration::from_millis(ms));
    }

    #[test]
    fn unattributed_is_item_time_outside_timed_calls() {
        let mut sweep = Sweep::default();
        let items = [0u8; 4];
        sweep.phase(&items, |_, tally| {
            timed(&mut tally.result_key_s, || sleep_ms(20));
            sleep_ms(10);
        });
        // Four items, 10 ms each outside any timed call.
        let unattributed = sweep.unattributed_s();
        assert!(unattributed >= 0.040, "{unattributed}");
        assert!(unattributed < 0.040 + 0.060, "{unattributed}");
        assert!(sweep.tally.result_key_s >= 0.080);
        assert!((sweep.busy_s - sweep.tally.covered_s() - unattributed).abs() < 1e-12);
        assert!(sweep.capacity_s >= sweep.busy_s * 0.99);
    }

    #[test]
    fn compute_closure_is_not_counted_twice() {
        let tally = Tally {
            read_s: 1.0,
            write_s: 2.0,
            execute_s: 4.0,
            build_s: 8.0,
            slowest_point_s: 100.0,
            ..Tally::default()
        };
        assert_eq!(tally.covered_s(), 15.0);
        let mut sum = Tally::default();
        sum.add(&tally);
        sum.add(&tally);
        assert_eq!(sum.covered_s(), 30.0);
        assert_eq!(sum.slowest_point_s, 100.0);
    }
}
