//! The two offline workloads: `grid_train` (a cold grid through
//! `Experiment::run`) and `measure_select` (measures over a pre-trained
//! grid, then memory-budget selection by EIS).
//!
//! Untraced runs call `Experiment::run` itself. The traced run repeats the
//! same grid through [`run_traced`], which makes the calls `Experiment::run`
//! makes, in the same order and on the same worker pool, with a span around
//! each layer; its rows must equal the library's bit for bit, and its wall
//! time must stay within [`TRACE_DRIFT_LIMIT`] of the library's.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::Instant;

use embedstab_core::measures::{
    left_singular_basis_with, overlap_distance_from_bases, DistanceMeasure, EisMeasure, KnnMeasure,
    PipLoss, SemanticDisplacement, SvdMethod,
};
use embedstab_core::selection::{budget_selection, ConfigPoint};
use embedstab_core::{MeasureSuite, MeasureValues};
use embedstab_downstream::{NerTask, PairSpec, SentimentTask, Task};
use embedstab_embeddings::{train_embedding, Algo, Embedding};
use embedstab_pipeline::{
    EmbeddingGrid, Experiment, GridOptions, PairKey, Row, RowSink, ScaleParams, World,
};
use embedstab_quant::{bits_per_word, quantize_pair, Precision};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::setup::{self, world_digest, world_traced, WORLD_SEED};
use crate::stats::{mean, median, Digest};
use crate::trace::Spans;
use crate::{Args, Report};

/// Grid repetitions a run makes at least, so the row digest can be
/// compared across repetitions.
const MIN_REPS: usize = 2;

/// `grid_train`'s two-dimension subset of the Small sweep.
const GRID_DIMS: [usize; 2] = [4, 8];

/// `grid_train`'s three precisions (bits).
const GRID_BITS: [u8; 3] = [1, 4, 32];

/// `grid_train`'s row digest for the dev and held-out seeds.
/// Deterministic: a change that moves one changed results, not speed.
const GRID_ROW_DIGESTS: [(u64, u64); 2] = [(1, 0xa958_a531_494e_2f92), (97, 0x121b_7b27_1949_d2da)];

/// `measure_select`'s row digest and mean EIS oracle gap
/// (`BudgetReport::mean_gap`, averaged over sst2 and subj) for the dev and
/// held-out seeds. Deterministic, as above. Other seeds are checked only for
/// agreement across repetitions and between the traced and library runs.
const SELECT_RECORDED: [(u64, u64, f64); 2] = [
    (1, 0x7fa2_5343_a370_f5a3, 0.02601851851851852),
    (97, 0xd0a6_21ee_436d_d094, 0.04148148148148148),
];

/// Largest relative difference between the traced and the library grid's
/// wall time before the traced run is flagged. The traced copy of
/// `Experiment::run` must make the library's calls; when the library
/// changes how it orchestrates them (say, memoizing work) without changing
/// its rows, the flag shows that the copy no longer follows. Tracing itself
/// and host noise moved the two by up to 0.13 on a 2-vCPU VM, and two
/// back-to-back grids by up to 0.28; a host whose speed drifts by a third
/// can move them further, so the difference is flagged (stamp
/// `trace_copy_follows` and a warning), not failed.
const TRACE_DRIFT_LIMIT: f64 = 0.5;

/// Rows of each `measure_select` run re-measured with
/// `MeasureSuite::compute_all`.
const MEASURE_SAMPLE: usize = 3;

/// One grid: which tasks and configurations, with or without measures.
struct Sweep {
    tasks: Vec<&'static str>,
    algos: Vec<Algo>,
    dims: Vec<usize>,
    precisions: Vec<Precision>,
    measures: bool,
}

impl Sweep {
    fn grid_train() -> Sweep {
        Sweep {
            tasks: vec!["sst2", "ner"],
            algos: Algo::MAIN.to_vec(),
            dims: GRID_DIMS.to_vec(),
            precisions: GRID_BITS.iter().map(|&b| Precision::new(b)).collect(),
            measures: false,
        }
    }

    fn measure_select(params: &ScaleParams) -> Sweep {
        Sweep {
            tasks: vec!["sst2", "subj"],
            algos: vec![Algo::Mc],
            dims: params.dims.clone(),
            precisions: params.precisions.clone(),
            measures: true,
        }
    }

    /// Configurations in `Experiment`'s enumeration order:
    /// task x algo x dim x precision x seed.
    fn configs(&self, params: &ScaleParams) -> Vec<(usize, Algo, usize, Precision, u64)> {
        let mut out = Vec::new();
        for task in 0..self.tasks.len() {
            for &algo in &self.algos {
                for &dim in &self.dims {
                    for &prec in &self.precisions {
                        for &seed in &params.seeds {
                            out.push((task, algo, dim, prec, seed));
                        }
                    }
                }
            }
        }
        out
    }

    fn experiment<'w>(&self, world: &'w World) -> Experiment<'w> {
        Experiment::new(world)
            .tasks(self.tasks.iter().copied())
            .algos(self.algos.iter().copied())
            .dims(self.dims.iter().copied())
            .precisions(self.precisions.iter().copied())
            .with_measures(self.measures)
    }
}

/// A row sink recording each row's latency: the time from the start of
/// `Experiment::run` until the row reached its sinks, which is when a
/// streaming consumer of the grid can use it.
struct RowClock {
    started: Instant,
    out: Sender<f64>,
}

impl RowSink for RowClock {
    fn emit(&mut self, _row: &Row) {
        // The receiver outlives the run, so the send cannot fail.
        let _ = self.out.send(self.started.elapsed().as_secs_f64());
    }
}

/// One untraced grid through `Experiment::run`: rows, per-row latencies
/// and wall seconds.
fn run_library(
    world: &World,
    grid: Option<&EmbeddingGrid>,
    sweep: &Sweep,
) -> (Vec<Row>, Vec<f64>, f64) {
    let (tx, rx) = channel();
    let start = Instant::now();
    let clock = RowClock {
        started: start,
        out: tx,
    };
    let mut exp = sweep.experiment(world).sink(clock);
    if let Some(grid) = grid {
        exp = exp.grid(grid);
    }
    let rows = exp.run();
    let wall = start.elapsed().as_secs_f64();
    (rows, rx.try_iter().collect(), wall)
}

type Pairs = BTreeMap<PairKey, (Arc<Embedding>, Arc<Embedding>)>;

fn train_span(algo: Algo) -> &'static str {
    match algo {
        Algo::Cbow => "embeddings.train_s.cbow",
        Algo::Glove => "embeddings.train_s.glove",
        Algo::Mc => "embeddings.train_s.mc",
        Algo::FastTextSg => "embeddings.train_s.ftsg",
    }
}

/// `EmbeddingGrid::build_pairs` (no cache) with a span per layer call.
fn train_pairs_traced(world: &World, keys: &[PairKey], spans: &Spans) -> Pairs {
    let mut jobs = keys.to_vec();
    jobs.sort();
    jobs.dedup();
    jobs.sort_by_key(|&(_, dim, _)| Reverse(dim));
    let trained = spans.pool(&jobs, |&(algo, dim, seed)| {
        let train = |stats| {
            spans.time(train_span(algo), || {
                train_embedding(algo, stats, world.vocab(), dim, seed)
            })
        };
        let x17 = train(&world.stats17);
        let x18 = train(&world.stats18);
        let x18 = spans.time("embeddings.align_s", || x18.align_to(&x17));
        (Arc::new(x17), Arc::new(x18))
    });
    jobs.into_iter().zip(trained).collect()
}

/// The measure suite's parts, built as `MeasureSuite::new(..).with_knn(..)`
/// builds them, so each measure can be timed on its own.
struct TracedSuite {
    eis: EisMeasure,
    knn: KnnMeasure,
}

fn traced_measures(
    suite: &TracedSuite,
    x: &Embedding,
    y: &Embedding,
    spans: &Spans,
) -> MeasureValues {
    let basis = |e: &Embedding| {
        spans.time("core.measures.basis_s", || {
            left_singular_basis_with(e.mat(), SvdMethod::Auto)
        })
    };
    let (ux, uy) = (basis(x), basis(y));
    MeasureValues {
        eis: spans.time("core.measures.eis_s", || {
            suite.eis.distance_from_bases(&ux, &uy)
        }),
        knn_dist: spans.time("core.measures.knn_s", || suite.knn.distance(x, y)),
        semantic_displacement: spans.time("core.measures.displacement_s", || {
            SemanticDisplacement.distance(x, y)
        }),
        pip_loss: spans.time("core.measures.pip_s", || PipLoss.distance(x, y)),
        overlap_dist: spans.time("core.measures.overlap_s", || {
            overlap_distance_from_bases(&ux, &uy)
        }),
    }
}

/// The tasks `Experiment` resolves for these names.
fn resolve_tasks(world: &World, names: &[&str]) -> Vec<Arc<dyn Task>> {
    let p = &world.params;
    names
        .iter()
        .map(|&name| match name {
            "ner" => Arc::new(NerTask::new(
                world.ner.clone(),
                p.lstm_hidden,
                p.lstm_epochs,
            )) as Arc<dyn Task>,
            _ => Arc::new(SentimentTask::new(
                world.sentiment_dataset_arc(name).clone(),
                p.logreg_epochs,
            )) as Arc<dyn Task>,
        })
        .collect()
}

/// `Experiment::run` (no cache, no sharding, default options) made from
/// its layer calls with a span around each. Trains the pairs it needs
/// unless `pairs` supplies them.
///
/// This copy must be updated together with `Experiment::run` (and
/// [`train_pairs_traced`] with `EmbeddingGrid::build_pairs`): the row check
/// catches a copy that computes different results, and the drift flag
/// ([`TRACE_DRIFT_LIMIT`]) one that does different work.
fn run_traced(world: &World, pairs: Option<&Pairs>, sweep: &Sweep, spans: &Spans) -> Vec<Row> {
    let p = &world.params;
    let opts = GridOptions::default();
    let tasks = resolve_tasks(world, &sweep.tasks);
    let configs = sweep.configs(p);
    let trained;
    let pairs = match pairs {
        Some(pairs) => pairs,
        None => {
            let mut keys: Vec<PairKey> = configs.iter().map(|&(_, a, d, _, s)| (a, d, s)).collect();
            if sweep.measures {
                keys.extend(configs.iter().map(|&(_, a, _, _, s)| (a, p.max_dim(), s)));
            }
            trained = train_pairs_traced(world, &keys, spans);
            &trained
        }
    };
    let mut suites = BTreeMap::new();
    if sweep.measures {
        for &(_, algo, _, _, seed) in &configs {
            suites.entry((algo, seed)).or_insert_with(|| {
                let (e17, e18) = &pairs[&(algo, p.max_dim(), seed)];
                let eis = spans.time("core.measures.reference_s", || {
                    EisMeasure::new(
                        &e17.top_rows(p.top_m.min(e17.vocab_size())),
                        &e18.top_rows(p.top_m.min(e18.vocab_size())),
                        opts.alpha,
                    )
                });
                TracedSuite {
                    eis,
                    knn: KnnMeasure::new(opts.knn_k, p.knn_queries, seed),
                }
            });
        }
    }
    spans.pool(&configs, |&(task_idx, algo, dim, prec, seed)| {
        let task = &tasks[task_idx];
        let (x17, x18) = &pairs[&(algo, dim, seed)];
        let (q17, q18) = spans.time("quant.quantize_pair_s", || {
            let (q17, q18) = quantize_pair(x17, x18, prec);
            (q17.embedding, q18.embedding)
        });
        let outcome = spans.time(&format!("downstream.train_eval_s.{}", task.name()), || {
            task.train_eval(&q17, &q18, &PairSpec::new(seed))
        });
        let measures = sweep.measures.then(|| {
            let m = p.top_m.min(q17.vocab_size());
            traced_measures(
                &suites[&(algo, seed)],
                &q17.top_rows(m),
                &q18.top_rows(m),
                spans,
            )
        });
        Row {
            task: task.name().to_string(),
            algo: algo.name().to_string(),
            dim,
            bits: prec.bits(),
            memory: bits_per_word(dim, prec),
            seed,
            disagreement: outcome.disagreement,
            quality17: outcome.quality17,
            quality18: outcome.quality18,
            measures,
        }
    })
}

fn rows_digest(rows: &[Row]) -> u64 {
    let mut d = Digest::new();
    for r in rows {
        d.str(&r.task)
            .str(&r.algo)
            .u64(r.dim as u64)
            .u64(u64::from(r.bits))
            .u64(r.seed)
            .f64(r.disagreement)
            .f64(r.quality17)
            .f64(r.quality18);
        if let Some(m) = &r.measures {
            d.f64(m.eis)
                .f64(m.knn_dist)
                .f64(m.semantic_displacement)
                .f64(m.pip_loss)
                .f64(m.overlap_dist);
        }
    }
    d.finish()
}

/// Checks one grid's rows: the count equals the enumerated configurations,
/// disagreement and quality lie in [0, 1], and measures (when on) are
/// finite. Each row is one checked operation.
fn check_rows(report: &mut Report, rows: &[Row], expected: usize, measures: bool) {
    report.checks.check(rows.len() == expected, || {
        format!("grid returned {} rows, expected {expected}", rows.len())
    });
    let unit = |x: f64| (0.0..=1.0).contains(&x);
    let bad = rows
        .iter()
        .filter(|r| {
            let in_range = unit(r.disagreement) && unit(r.quality17) && unit(r.quality18);
            let finite = match (&r.measures, measures) {
                (Some(m), true) => [
                    m.eis,
                    m.knn_dist,
                    m.semantic_displacement,
                    m.pip_loss,
                    m.overlap_dist,
                ]
                .iter()
                .all(|v| v.is_finite()),
                (None, false) => true,
                _ => false,
            };
            !(in_range && finite)
        })
        .count();
    report.checks.count(rows.len() as u64, bad as u64, || {
        "rows out of range or not finite".into()
    });
}

fn hex(v: u64) -> String {
    format!("\"{v:016x}\"")
}

/// Checks a row digest against the one recorded for `seed`, if any.
fn check_digest(report: &mut Report, seed: u64, recorded: Option<u64>, got: u64) {
    if let Some(want) = recorded {
        report.checks.check(got == want, || {
            format!("seed {seed}: row digest {got:016x} != recorded {want:016x}")
        });
    }
}

/// Flags a traced grid that did not take about as long as the library's,
/// and reports the difference as `trace.overhead_s`.
fn check_drift(report: &mut Report, traced_wall: f64, untraced_wall: f64) {
    let drift = (traced_wall - untraced_wall) / untraced_wall;
    let follows = drift.abs() <= TRACE_DRIFT_LIMIT;
    if !follows {
        eprintln!(
            "perfbench: WARNING: traced wall {traced_wall:.3} s vs library \
             {untraced_wall:.3} s: the traced copy may no longer do the library's work"
        );
    }
    report.set("trace.overhead_s", traced_wall - untraced_wall);
    report.stamp.push(("trace_drift", drift.to_string()));
    report
        .stamp
        .push(("trace_copy_follows", follows.to_string()));
}

/// Fills the per-layer values every grid workload reports from `spans`.
fn layer_values(report: &mut Report, spans: &Spans) {
    report.set_span_secs(spans);
    let train_calls: u64 = Algo::MAIN.iter().map(|&a| spans.calls(train_span(a))).sum();
    report.set("embeddings.train_calls", train_calls as f64);
    for (task, name) in [
        ("sst2", "downstream.train_eval_calls.sst2"),
        ("subj", "downstream.train_eval_calls.subj"),
        ("ner", "downstream.train_eval_calls.ner"),
    ] {
        let calls = spans.calls(&format!("downstream.train_eval_s.{task}"));
        report.set(name, calls as f64);
    }
    report.set("pipeline.pool_busy_frac", spans.pool_busy_frac());
}

pub fn grid_train(args: &Args) -> Report {
    // The seed sets the trainers' and downstream models' seed.
    let mut params = setup::params();
    params.seeds = vec![args.seed];
    let sweep = Sweep::grid_train();
    let expected = sweep.configs(&params).len();
    let mut report = Report::default();
    if args.trace {
        let spans = Spans::default();
        let start = Instant::now();
        let untraced_world = World::build(&params, WORLD_SEED);
        let untraced_setup = start.elapsed().as_secs_f64();
        let world = world_traced(&params, WORLD_SEED, &spans);
        let traced_setup = start.elapsed().as_secs_f64() - untraced_setup;
        report.checks.check(
            world_digest(&world) == world_digest(&untraced_world),
            || "traced world differs from World::build".into(),
        );
        drop(untraced_world);
        let (lib_rows, _, untraced_wall) = run_library(&world, None, &sweep);
        let start = Instant::now();
        let setup_extra = spans.pool_extra();
        let rows = run_traced(&world, None, &sweep, &spans);
        let traced_wall = start.elapsed().as_secs_f64();
        let grid_capacity = traced_wall + spans.pool_extra() - setup_extra;
        check_rows(&mut report, &rows, expected, false);
        report
            .checks
            .check(rows_digest(&rows) == rows_digest(&lib_rows), || {
                "traced grid rows differ from Experiment::run".into()
            });
        let recorded = GRID_ROW_DIGESTS.iter().find(|r| r.0 == args.seed);
        check_digest(
            &mut report,
            args.seed,
            recorded.map(|r| r.1),
            rows_digest(&rows),
        );
        layer_values(&mut report, &spans);
        check_drift(&mut report, traced_wall, untraced_wall);
        report.set_coverage(&spans, traced_setup + traced_wall);
        let intended =
            spans.secs_prefix("embeddings.train_s.") + spans.secs("downstream.train_eval_s.ner");
        report.set("trace.intended_share", intended / grid_capacity);
        report.stamp.push(("row_digest", hex(rows_digest(&rows))));
        return report;
    }
    let (world, setup_s) = setup::repeated(|| World::build(&params, WORLD_SEED));
    report.set("setup_s", setup_s);
    let start = Instant::now();
    let (mut walls, mut row_latencies, mut digests) = (Vec::new(), Vec::new(), Vec::new());
    while walls.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let (rows, latencies, wall) = run_library(&world, None, &sweep);
        check_rows(&mut report, &rows, expected, false);
        walls.push(wall);
        row_latencies.extend(latencies);
        digests.push(rows_digest(&rows));
    }
    report
        .checks
        .check(digests.iter().all(|&d| d == digests[0]), || {
            format!("row digests differ across repetitions: {digests:x?}")
        });
    let recorded = GRID_ROW_DIGESTS.iter().find(|r| r.0 == args.seed);
    check_digest(&mut report, args.seed, recorded.map(|r| r.1), digests[0]);
    report.set("work_s", median(&walls));
    // The mean, not the median: which row lands in the middle depends on
    // how the pool's workers interleave, and the mean averages that out.
    report.set("op_latency_us", mean(&row_latencies) * 1e6);
    report.stamp.push(("rep_walls_s", format!("{walls:?}")));
    report.stamp.push(("row_digest", hex(digests[0])));
    report
}

/// Memory-budget selection by EIS: `BudgetReport::mean_gap` per task,
/// averaged over the tasks.
fn eis_mean_gap(rows: &[Row], tasks: &[&str]) -> f64 {
    let gaps: Vec<f64> = tasks
        .iter()
        .map(|&task| {
            let points: Vec<ConfigPoint> = rows
                .iter()
                .filter(|r| r.task == task)
                .filter_map(|r| {
                    Some(ConfigPoint {
                        dim: r.dim,
                        bits: r.bits,
                        measure: r.measures?.eis,
                        instability: r.disagreement,
                    })
                })
                .collect();
            budget_selection(&points).mean_gap
        })
        .collect();
    gaps.iter().sum::<f64>() / gaps.len() as f64
}

/// Re-measures a seeded sample of rows with `MeasureSuite::compute_all`
/// and checks the values equal the grid's bit for bit.
fn check_measure_sample(
    report: &mut Report,
    world: &World,
    grid: &EmbeddingGrid,
    rows: &[Row],
    seed: u64,
) {
    let p = &world.params;
    let opts = GridOptions::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6d65_6173);
    for _ in 0..MEASURE_SAMPLE {
        let row = &rows[rng.random_range(0..rows.len())];
        let (e17, e18) = grid.pair(Algo::Mc, p.max_dim(), row.seed);
        let suite = MeasureSuite::new(
            &e17.top_rows(p.top_m.min(e17.vocab_size())),
            &e18.top_rows(p.top_m.min(e18.vocab_size())),
            opts.alpha,
            row.seed,
        )
        .with_knn(KnnMeasure::new(opts.knn_k, p.knn_queries, row.seed));
        let (q17, q18) = grid.quantized_pair(Algo::Mc, row.dim, row.seed, Precision::new(row.bits));
        let m = p.top_m.min(q17.vocab_size());
        let direct = suite.compute_all(&q17.top_rows(m), &q18.top_rows(m));
        report.checks.check(row.measures == Some(direct), || {
            format!(
                "{} d={} b={}: grid measures {:?} != compute_all {direct:?}",
                row.task, row.dim, row.bits, row.measures
            )
        });
    }
}

fn mc_keys(params: &ScaleParams) -> Vec<PairKey> {
    let mut keys = Vec::new();
    for &dim in &params.dims {
        for &seed in &params.seeds {
            keys.push((Algo::Mc, dim, seed));
        }
    }
    keys
}

/// Checks a `measure_select` grid's row digest and EIS gap against the
/// values recorded for `seed`, if any. The gap is compared bit for bit.
fn check_select_recorded(report: &mut Report, seed: u64, digest: u64, gap: f64) {
    let Some(&(_, want_digest, want_gap)) = SELECT_RECORDED.iter().find(|r| r.0 == seed) else {
        return;
    };
    check_digest(report, seed, Some(want_digest), digest);
    report
        .checks
        .check(gap.to_bits() == want_gap.to_bits(), || {
            format!("seed {seed}: EIS mean oracle gap {gap} != recorded {want_gap}")
        });
}

pub fn measure_select(args: &Args) -> Report {
    // The seed sets the embeddings' and downstream models' seed.
    let mut params = setup::params();
    params.seeds = vec![args.seed];
    let sweep = Sweep::measure_select(&params);
    let expected = sweep.configs(&params).len();
    let build_grid =
        |world: &World| EmbeddingGrid::build(world, &[Algo::Mc], &params.dims, &params.seeds);
    let mut report = Report::default();
    if args.trace {
        let spans = Spans::default();
        let start = Instant::now();
        let untraced_world = World::build(&params, WORLD_SEED);
        let grid = build_grid(&untraced_world);
        let untraced_setup = start.elapsed().as_secs_f64();
        let world = world_traced(&params, WORLD_SEED, &spans);
        let pairs = train_pairs_traced(&world, &mc_keys(&params), &spans);
        let traced_setup = start.elapsed().as_secs_f64() - untraced_setup;
        report.checks.check(
            world_digest(&world) == world_digest(&untraced_world),
            || "traced world differs from World::build".into(),
        );
        let same_pairs = pairs.iter().all(|(&(a, d, s), (x17, x18))| {
            let (g17, g18) = grid.pair(a, d, s);
            g17 == x17 && g18 == x18
        });
        report
            .checks
            .check(same_pairs && pairs.len() == grid.len(), || {
                "traced pairs differ from EmbeddingGrid::build".into()
            });
        drop(untraced_world);
        let start = Instant::now();
        let (lib_rows, _, _) = run_library(&world, Some(&grid), &sweep);
        let lib_gap = eis_mean_gap(&lib_rows, &sweep.tasks);
        let untraced_wall = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let setup_extra = spans.pool_extra();
        let rows = run_traced(&world, Some(&pairs), &sweep, &spans);
        let gap = spans.time("core.selection_s", || eis_mean_gap(&rows, &sweep.tasks));
        let traced_wall = start.elapsed().as_secs_f64();
        let sweep_capacity = traced_wall + spans.pool_extra() - setup_extra;
        check_rows(&mut report, &rows, expected, true);
        report
            .checks
            .check(rows_digest(&rows) == rows_digest(&lib_rows), || {
                "traced measure rows differ from Experiment::run".into()
            });
        report.checks.check(gap.to_bits() == lib_gap.to_bits(), || {
            format!("traced gap {gap} != untraced gap {lib_gap}")
        });
        check_select_recorded(&mut report, args.seed, rows_digest(&rows), gap);
        layer_values(&mut report, &spans);
        report.set("core.selection.eis_mean_gap", gap);
        check_drift(&mut report, traced_wall, untraced_wall);
        report.set_coverage(&spans, traced_setup + traced_wall);
        let measures = spans.secs_prefix("core.measures.");
        report.set("trace.intended_share", measures / sweep_capacity);
        report.stamp.push(("row_digest", hex(rows_digest(&rows))));
        report.stamp.push(("select_oracle_gap", gap.to_string()));
        return report;
    }
    let ((world, grid), setup_s) = setup::repeated(|| {
        let world = World::build(&params, WORLD_SEED);
        let grid = build_grid(&world);
        (world, grid)
    });
    report.set("setup_s", setup_s);
    let start = Instant::now();
    let (mut walls, mut row_latencies, mut digests, mut gaps) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut last_rows = Vec::new();
    while walls.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let rep = Instant::now();
        let (rows, latencies, _) = run_library(&world, Some(&grid), &sweep);
        let gap = eis_mean_gap(&rows, &sweep.tasks);
        walls.push(rep.elapsed().as_secs_f64());
        check_rows(&mut report, &rows, expected, true);
        row_latencies.extend(latencies);
        digests.push(rows_digest(&rows));
        gaps.push(gap);
        last_rows = rows;
    }
    report
        .checks
        .check(digests.iter().all(|&d| d == digests[0]), || {
            format!("row digests differ across repetitions: {digests:x?}")
        });
    report.checks.check(
        gaps.iter().all(|g| g.to_bits() == gaps[0].to_bits()),
        || format!("EIS mean oracle gaps differ across repetitions: {gaps:?}"),
    );
    check_select_recorded(&mut report, args.seed, digests[0], gaps[0]);
    check_measure_sample(&mut report, &world, &grid, &last_rows, args.seed);
    report.set("work_s", median(&walls));
    report.set("op_latency_us", mean(&row_latencies) * 1e6);
    report.stamp.push(("rep_walls_s", format!("{walls:?}")));
    report.stamp.push(("row_digest", hex(digests[0])));
    report
        .stamp
        .push(("select_oracle_gap", gaps[0].to_string()));
    report
}
