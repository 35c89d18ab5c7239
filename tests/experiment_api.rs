//! Integration tests for the `Experiment` builder: sharding determinism,
//! on-disk pair-cache transparency, row streaming, and task pluggability.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, OnceLock};

use embedstab::core::measures::MeasureKind;
use embedstab::downstream::{PairSpec, Task, TaskOutcome};
use embedstab::embeddings::{Algo, Embedding};
use embedstab::pipeline::{
    run_sentiment_grid, Experiment, GridOptions, JsonlSink, Row, Scale, World,
};
use embedstab::quant::Precision;
use proptest::prelude::*;

/// A reduced tiny world shared by every test in this file (2 dims x
/// 2 precisions x 2 seeds = 8 configurations per task).
fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let mut params = Scale::Tiny.params();
        params.dims = vec![4, 8];
        params.precisions = vec![Precision::new(1), Precision::FULL];
        params.seeds = vec![0, 1];
        World::build(&params, 0)
    })
}

fn experiment() -> Experiment<'static> {
    Experiment::new(world()).tasks(["sst2"]).algos([Algo::Mc])
}

/// The unsharded reference rows, computed once.
fn reference_rows() -> &'static Vec<Row> {
    static ROWS: OnceLock<Vec<Row>> = OnceLock::new();
    ROWS.get_or_init(|| experiment().run())
}

/// Two tasks sharing every embedding pair, with measures on.
fn two_task_experiment() -> Experiment<'static> {
    Experiment::new(world())
        .tasks(["sst2", "subj"])
        .algos([Algo::Mc])
        .with_measures(true)
}

/// The unsharded two-task reference rows, computed once.
fn two_task_rows() -> &'static Vec<Row> {
    static ROWS: OnceLock<Vec<Row>> = OnceLock::new();
    ROWS.get_or_init(|| two_task_experiment().run())
}

/// A sortable, bitwise-exact key for one row, measures included.
type Key = (String, String, usize, u8, u64, [u64; 3], Option<[u64; 5]>);

fn key(r: &Row) -> Key {
    (
        r.task.clone(),
        r.algo.clone(),
        r.dim,
        r.bits,
        r.seed,
        [r.disagreement, r.quality17, r.quality18].map(f64::to_bits),
        r.measures
            .map(|m| MeasureKind::ALL.map(|kind| m.get(kind).to_bits())),
    )
}

fn sorted_keys(rows: &[Row]) -> Vec<Key> {
    let mut keys: Vec<_> = rows.iter().map(key).collect();
    keys.sort();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Sharding is a partition: for every shard count, the union of rows
    /// from shards `0..n` is bitwise identical to the unsharded run.
    #[test]
    fn shard_union_equals_unsharded_run(n in 1usize..=4) {
        let mut union: Vec<Row> = Vec::new();
        for index in 0..n {
            union.extend(experiment().shard(index, n).run());
        }
        prop_assert_eq!(sorted_keys(&union), sorted_keys(reference_rows()));
    }

    /// Shards partition embedding pairs: with two tasks and measures on,
    /// the shard union is bitwise the unsharded run, and each pair's rows
    /// (both tasks) land in exactly one shard.
    #[test]
    fn two_task_shards_partition_pairs(n in 1usize..=4) {
        let mut union: Vec<Row> = Vec::new();
        let mut owners: BTreeMap<(String, usize, u8, u64), BTreeSet<usize>> = BTreeMap::new();
        for index in 0..n {
            let rows = two_task_experiment().shard(index, n).run();
            for r in &rows {
                owners
                    .entry((r.algo.clone(), r.dim, r.bits, r.seed))
                    .or_default()
                    .insert(index);
            }
            union.extend(rows);
        }
        prop_assert_eq!(sorted_keys(&union), sorted_keys(two_task_rows()));
        prop_assert_eq!(owners.len(), 8);
        prop_assert!(owners.values().all(|shards| shards.len() == 1));
    }
}

/// Measures depend on the embedding pair alone: in a two-task run each
/// task's rows carry bitwise the measures of that task's single-task run.
#[test]
fn two_task_measures_equal_single_task_measures() {
    let rows = two_task_rows();
    assert_eq!(rows.len(), 16);
    for task in ["sst2", "subj"] {
        let single = Experiment::new(world())
            .tasks([task])
            .algos([Algo::Mc])
            .with_measures(true)
            .run();
        assert!(single.iter().all(|r| r.measures.is_some()));
        let joint: Vec<Key> = rows.iter().filter(|r| r.task == task).map(key).collect();
        assert_eq!(joint, single.iter().map(key).collect::<Vec<_>>());
    }
}

/// A warm cache directory reproduces the cold run bitwise, and the second
/// run actually hits the cache (every pair file already exists).
#[test]
fn warm_cache_reproduces_cold_run_bitwise() {
    let dir = std::env::temp_dir().join(format!("embedstab_expapi_cache_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cold = experiment().cache_dir(&dir).run();
    let n_files = std::fs::read_dir(&dir).expect("cache dir").count();
    assert!(n_files >= 4, "expected cached pair files, found {n_files}");
    let warm = experiment().cache_dir(&dir).run();
    assert_eq!(sorted_keys(&cold), sorted_keys(&warm));
    // And both match the cache-less reference run.
    assert_eq!(sorted_keys(&cold), sorted_keys(reference_rows()));
    std::fs::remove_dir_all(&dir).ok();
}

/// Sharding and caching compose: two shards against a shared warm cache
/// still reproduce the reference rows.
#[test]
fn sharded_runs_share_a_cache() {
    let dir = std::env::temp_dir().join(format!("embedstab_expapi_shard_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut union = experiment().shard(0, 2).cache_dir(&dir).run();
    union.extend(experiment().shard(1, 2).cache_dir(&dir).run());
    assert_eq!(sorted_keys(&union), sorted_keys(reference_rows()));
    std::fs::remove_dir_all(&dir).ok();
}

/// The legacy entry points are wrappers over the builder: same rows, same
/// order.
#[test]
fn legacy_wrappers_match_builder() {
    let w = world();
    let grid =
        embedstab::pipeline::EmbeddingGrid::build(w, &[Algo::Mc], &w.params.dims, &w.params.seeds);
    let legacy = run_sentiment_grid(
        w,
        &grid,
        "sst2",
        &GridOptions {
            algos: vec![Algo::Mc],
            ..Default::default()
        },
    );
    assert_eq!(sorted_keys(&legacy), sorted_keys(reference_rows()));
}

/// Sinks observe every row exactly once; JSONL rows round-trip through
/// the file.
#[test]
fn sinks_stream_all_rows() {
    let dir = std::env::temp_dir().join(format!("embedstab_expapi_sink_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let jsonl = dir.join("rows.jsonl");
    let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let seen_in_sink = seen.clone();
    let rows = experiment()
        .sink(JsonlSink::new(&jsonl))
        .sink(move |r: &Row| seen_in_sink.lock().unwrap().push(r.task.clone()))
        .run();
    assert_eq!(seen.lock().unwrap().len(), rows.len());
    let from_disk = JsonlSink::load(&jsonl).expect("jsonl readable");
    assert_eq!(sorted_keys(&from_disk), sorted_keys(&rows));
    std::fs::remove_dir_all(&dir).ok();
}

/// A custom `Task` implementation plugs into the same grid loop as the
/// built-ins.
#[test]
fn custom_task_plugs_in() {
    struct NormGapTask;
    impl Task for NormGapTask {
        fn name(&self) -> &str {
            "norm_gap"
        }
        fn train_eval(&self, q17: &Embedding, q18: &Embedding, spec: &PairSpec) -> TaskOutcome {
            let gap = (q17.mean_sq_entry() - q18.mean_sq_entry()).abs();
            TaskOutcome {
                disagreement: gap.min(1.0),
                quality17: spec.seed as f64,
                quality18: 1.0,
            }
        }
    }
    let rows = Experiment::new(world())
        .task(Arc::new(NormGapTask))
        .algos([Algo::Mc])
        .run();
    assert_eq!(rows.len(), 8);
    for r in &rows {
        assert_eq!(r.task, "norm_gap");
        assert_eq!(r.quality17, r.seed as f64, "spec threads through");
    }
}
