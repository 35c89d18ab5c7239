//! Shared analysis helpers for the table/figure reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one artifact of the paper (see
//! DESIGN.md section 4 for the full index). The helpers here aggregate
//! per-seed rows, convert them into the selection-evaluation inputs of
//! `embedstab-core`, and compute the per-(task, algorithm) Spearman
//! tables.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use embedstab_core::measures::MeasureKind;
use embedstab_core::selection::ConfigPoint;
use embedstab_core::stats;
use embedstab_embeddings::Algo;
use embedstab_pipeline::{
    EmbeddingGrid, Experiment, JsonlSink, PairCache, PairKey, ProgressSink, Row, RowSink, Scale,
    World,
};

/// Builds the world for a scale (master seed 0, shared by all binaries so
/// grids agree), honoring the `--world-cache <path>` flag: when present,
/// the world is loaded from (or built once into) the on-disk world cache —
/// how fleet shard processes skip the rebuild that used to dominate
/// sharded runs.
pub fn world_from_args(scale: Scale) -> World {
    let params = scale.params();
    match world_cache_from_args() {
        Some(dir) => World::load_or_build(&params, 0, &dir)
            .unwrap_or_else(|e| panic!("cannot open world cache {}: {e}", dir.display())),
        None => World::build(&params, 0),
    }
}

/// The full-precision pairs of `algos` over the world's dimensions and
/// seeds, loaded from (or trained into) the `--cache-dir <path>` pair
/// cache when the flag is given, so a warm re-run trains nothing.
///
/// # Panics
///
/// Panics if the cache directory cannot be opened.
pub fn pairs_from_args(world: &World, algos: &[Algo]) -> EmbeddingGrid {
    let p = &world.params;
    let keys: Vec<PairKey> = algos
        .iter()
        .flat_map(|&a| {
            p.dims
                .iter()
                .flat_map(move |&d| p.seeds.iter().map(move |&s| (a, d, s)))
        })
        .collect();
    let cache = cache_dir_from_args().map(|dir| {
        PairCache::open(&dir, world.fingerprint())
            .unwrap_or_else(|e| panic!("cannot open cache dir {}: {e}", dir.display()))
    });
    EmbeddingGrid::build_pairs(world, &keys, cache.as_ref())
}

/// Parses `--shard i/n` from the process arguments.
///
/// # Panics
///
/// Panics with a usage message on a malformed value.
pub fn shard_from_args() -> Option<(usize, usize)> {
    let val = flag_value("--shard")?.unwrap_or_default();
    let parsed = val.split_once('/').and_then(|(a, b)| {
        let i = a.parse::<usize>().ok()?;
        let n = b.parse::<usize>().ok()?;
        (n > 0 && i < n).then_some((i, n))
    });
    Some(parsed.unwrap_or_else(|| {
        panic!("bad --shard '{val}'; use i/n with 0 <= i < n, e.g. --shard 0/2")
    }))
}

/// Parses `--cache-dir path` from the process arguments.
pub fn cache_dir_from_args() -> Option<PathBuf> {
    path_flag_from_args("--cache-dir")
}

/// Parses `--world-cache path` from the process arguments.
pub fn world_cache_from_args() -> Option<PathBuf> {
    path_flag_from_args("--world-cache")
}

fn path_flag_from_args(flag: &str) -> Option<PathBuf> {
    let val = flag_value(flag)?.unwrap_or_else(|| panic!("{flag} needs a path"));
    Some(PathBuf::from(val))
}

/// The process argument after `flag`: `None` without the flag,
/// `Some(None)` when the flag comes last.
fn flag_value(flag: &str) -> Option<Option<String>> {
    let mut args = std::env::args().skip_while(|a| a != flag);
    args.next().map(|_| args.next())
}

/// The canonical ordering key for merged rows: one entry per grid
/// configuration, so a sorted run has exactly one row per key.
pub fn row_merge_key(r: &Row) -> (String, String, usize, u8, u64) {
    (r.task.clone(), r.algo.clone(), r.dim, r.bits, r.seed)
}

/// Parses the shard suffix out of a shard row file name
/// (`<stem>.shard<i>of<n>.jsonl`), returning `(stem, i, n)`. Returns
/// `None` for non-shard files (e.g. an already-merged output), malformed
/// suffixes, and out-of-range indices (`i >= n` or `n == 0`).
pub fn parse_shard_suffix(path: &Path) -> Option<(String, usize, usize)> {
    let name = path.file_name()?.to_str()?;
    let rest = name.strip_suffix(".jsonl")?;
    let (stem, shard) = rest.rsplit_once(".shard")?;
    let (i, n) = shard.split_once("of")?;
    let (i, n) = (i.parse::<usize>().ok()?, n.parse::<usize>().ok()?);
    (n > 0 && i < n).then(|| (stem.to_string(), i, n))
}

/// Checks that the shard files among `paths` form complete sets: for every
/// stem, all files agree on the shard count `n` and shards `0..n` are all
/// present. Duplicates are fine (the merge de-duplicates); files without a
/// `shard<i>of<n>` suffix are fine too (merged outputs re-merge as-is).
///
/// This is what keeps a partial fan-in from masquerading as a canonical
/// row file: merging `shard0of2` without `shard1of2` would *silently*
/// produce a file that claims to cover the grid but is missing half the
/// configurations.
///
/// # Errors
///
/// Returns [`std::io::ErrorKind::InvalidInput`] naming the stem and the
/// missing shards (or the conflicting counts) on an incomplete or mixed
/// set.
pub fn check_shard_set<P: AsRef<Path>>(paths: &[P]) -> std::io::Result<()> {
    let mut groups: BTreeMap<String, (usize, Vec<bool>)> = BTreeMap::new();
    for path in paths {
        let Some((stem, i, n)) = parse_shard_suffix(path.as_ref()) else {
            continue;
        };
        let (first_n, seen) = groups.entry(stem.clone()).or_insert((n, vec![false; n]));
        if *first_n != n {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "mixed shard counts for '{stem}': both of{first_n} and of{n} \
                     (merge one fleet at a time, or pass --partial to override)"
                ),
            ));
        }
        seen[i] = true;
    }
    for (stem, (n, seen)) in &groups {
        let missing: Vec<String> = seen
            .iter()
            .enumerate()
            .filter(|(_, &s)| !s)
            .map(|(i, _)| format!("shard{i}of{n}"))
            .collect();
        if !missing.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "incomplete shard set for '{stem}': missing {} \
                     (pass --partial to merge anyway)",
                    missing.join(", ")
                ),
            ));
        }
    }
    Ok(())
}

/// Merges sharded row files (`rows_<task>_<scale>.shard<i>of<n>.jsonl`)
/// into one canonical row list: the concatenation sorted by
/// [`row_merge_key`] and de-duplicated by that key (first occurrence, in
/// input order, wins — re-merging an already-merged file is a no-op).
///
/// The shard set is validated first ([`check_shard_set`]): a gap or a
/// mixed shard count is an error, because the output would wrongly claim
/// to be the canonical full-grid row file. Use
/// [`merge_shard_rows_partial`] to deliberately merge an incomplete set.
///
/// Because shards partition the configuration enumeration disjointly and
/// the pair cache round-trips bitwise, the merge of a full shard set
/// equals the unsharded run's rows exactly — bitwise, not just
/// approximately (the `merge_rows` integration test pins this).
///
/// # Errors
///
/// Returns any I/O error from reading a shard file, or
/// [`std::io::ErrorKind::InvalidInput`] for an incomplete/mixed shard set.
pub fn merge_shard_rows<P: AsRef<Path>>(paths: &[P]) -> std::io::Result<Vec<Row>> {
    check_shard_set(paths)?;
    merge_shard_rows_partial(paths)
}

/// [`merge_shard_rows`] without the completeness check — the `--partial`
/// escape hatch for salvaging rows from a fleet with dead shards. The
/// output is *not* canonical: configurations covered by the missing
/// shards are absent.
pub fn merge_shard_rows_partial<P: AsRef<Path>>(paths: &[P]) -> std::io::Result<Vec<Row>> {
    let mut rows = Vec::new();
    for path in paths {
        rows.extend(JsonlSink::load(path)?);
    }
    // Stable sort + consecutive dedup: the first occurrence per key in
    // input order survives.
    rows.sort_by_cached_key(row_merge_key);
    rows.dedup_by(|a, b| row_merge_key(a) == row_merge_key(b));
    Ok(rows)
}

/// Removes leftover shard row files with shard count `n` from
/// `results_dir`: they are regenerable intermediates, and a stale one
/// from an aborted earlier fleet would otherwise be merged as if the new
/// fleet had produced it.
pub fn clean_stale_shard_rows(results_dir: &Path, n: usize) {
    let Ok(entries) = std::fs::read_dir(results_dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if let Some((_, _, file_n)) = parse_shard_suffix(&path) {
            if file_n == n {
                std::fs::remove_file(&path).ok();
            }
        }
    }
}

/// Fans a fleet's shard row files back in: groups every
/// `<stem>.shard<i>of<n>.jsonl` in `results_dir` with `n == shards` by
/// stem, merges each complete group through the validated
/// [`merge_shard_rows`] path, and writes `<stem>.merged.jsonl` next to
/// them (atomically). Returns `(stem, merged path, row count)` per group,
/// sorted by stem; an empty result means the fleet wrote no row files.
///
/// # Errors
///
/// Any error from reading the directory, an incomplete/mixed shard set
/// ([`check_shard_set`]), or writing a merged file.
pub fn merge_fleet_results(
    results_dir: &Path,
    shards: usize,
) -> std::io::Result<Vec<(String, PathBuf, usize)>> {
    let mut groups: BTreeMap<String, Vec<PathBuf>> = BTreeMap::new();
    for entry in std::fs::read_dir(results_dir)?.flatten() {
        let path = entry.path();
        if let Some((stem, _, n)) = parse_shard_suffix(&path) {
            if n == shards {
                groups.entry(stem).or_default().push(path);
            }
        }
    }
    let mut merged = Vec::new();
    for (stem, mut group) in groups {
        group.sort();
        let rows = merge_shard_rows(&group)?;
        let out = results_dir.join(format!("{stem}.merged.jsonl"));
        embedstab_pipeline::cache::atomic_write(&out, rows_to_jsonl(&rows).as_bytes())?;
        merged.push((stem, out, rows.len()));
    }
    Ok(merged)
}

/// Serializes merged rows back to JSONL (one row per line, trailing
/// newline), the same line format [`JsonlSink`] writes.
pub fn rows_to_jsonl(rows: &[Row]) -> String {
    let mut out = String::new();
    for r in rows {
        out.push_str(&serde_json::to_string(r).expect("row serializes"));
        out.push('\n');
    }
    out
}

/// A row aggregated over seeds for one `(task, algo, dim, bits)`.
#[derive(Clone, Debug)]
pub struct AggRow {
    /// Task name.
    pub task: String,
    /// Algorithm name.
    pub algo: String,
    /// Dimension.
    pub dim: usize,
    /// Precision bits.
    pub bits: u8,
    /// Bits/word.
    pub memory: u64,
    /// Mean disagreement over seeds, in `[0, 1]`.
    pub mean_di: f64,
    /// Standard deviation of disagreement over seeds.
    pub std_di: f64,
    /// Mean '17-side quality over seeds.
    pub mean_quality: f64,
    /// Number of seeds aggregated.
    pub n_seeds: usize,
}

/// Aggregates raw rows over seeds, keyed by `(task, algo, dim, bits)` and
/// sorted by `(task, algo, memory, bits)`.
pub fn aggregate(rows: &[Row]) -> Vec<AggRow> {
    let mut groups: BTreeMap<(String, String, usize, u8), Vec<&Row>> = BTreeMap::new();
    for r in rows {
        groups
            .entry((r.task.clone(), r.algo.clone(), r.dim, r.bits))
            .or_default()
            .push(r);
    }
    let mut out: Vec<AggRow> = groups
        .into_iter()
        .map(|((task, algo, dim, bits), rs)| {
            let dis: Vec<f64> = rs.iter().map(|r| r.disagreement).collect();
            let qs: Vec<f64> = rs.iter().map(|r| r.quality17).collect();
            AggRow {
                task,
                algo,
                dim,
                bits,
                memory: rs[0].memory,
                mean_di: stats::mean(&dis),
                std_di: stats::std_dev(&dis),
                mean_quality: stats::mean(&qs),
                n_seeds: rs.len(),
            }
        })
        .collect();
    out.sort_by(|a, b| {
        (&a.task, &a.algo, a.memory, a.bits).cmp(&(&b.task, &b.algo, b.memory, b.bits))
    });
    out
}

/// Spearman correlation between one measure and disagreement over all rows
/// (the paper computes this per task and algorithm across the
/// dimension-precision grid).
///
/// Returns `None` if any row lacks measures or there are fewer than 3 rows.
pub fn spearman_for(rows: &[Row], kind: MeasureKind) -> Option<f64> {
    if rows.len() < 3 {
        return None;
    }
    let mut xs = Vec::with_capacity(rows.len());
    let mut ys = Vec::with_capacity(rows.len());
    for r in rows {
        xs.push(r.measures?.get(kind));
        ys.push(r.disagreement);
    }
    Some(stats::spearman(&xs, &ys))
}

/// Splits rows by seed and converts each seed's grid into selection
/// inputs for one measure — the paper evaluates selection per seed and
/// averages (Section 5.2).
///
/// Rows without measures are skipped.
pub fn config_points_per_seed(rows: &[Row], kind: MeasureKind) -> Vec<Vec<ConfigPoint>> {
    let mut by_seed: BTreeMap<u64, Vec<ConfigPoint>> = BTreeMap::new();
    for r in rows {
        let Some(m) = r.measures else { continue };
        by_seed.entry(r.seed).or_default().push(ConfigPoint {
            dim: r.dim,
            bits: r.bits,
            measure: m.get(kind),
            instability: r.disagreement,
        });
    }
    by_seed.into_values().collect()
}

/// Filters rows to one algorithm.
pub fn rows_for_algo(rows: &[Row], algo: &str) -> Vec<Row> {
    rows.iter().filter(|r| r.algo == algo).cloned().collect()
}

/// Loads the cached rows of `results/<name>.json`, or `None` on a miss.
/// Several tables share the same (expensive) grid rows; the first binary
/// to run pays, the rest reuse. Pass `--fresh` to any binary to bypass
/// the cache.
fn cached_rows(name: &str) -> Option<Vec<Row>> {
    if std::env::args().any(|a| a == "--fresh") {
        return None;
    }
    let path = Path::new("results").join(format!("{name}.json"));
    let rows = parse_row_cache(&std::fs::read_to_string(&path).ok()?)?;
    eprintln!("[cache] loaded {} rows from {}", rows.len(), path.display());
    Some(rows)
}

/// Parses a row cache file. A file that does not parse, or holds a row
/// without measures, is a miss: row files written before measures were
/// computed once per pair stored every task but the first without them.
fn parse_row_cache(body: &str) -> Option<Vec<Row>> {
    let rows: Vec<Row> = serde_json::from_str(body).ok()?;
    rows.iter().all(|r| r.measures.is_some()).then_some(rows)
}

/// The scale name as a cache-key suffix.
pub fn scale_tag(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Paper => "paper",
    }
}

/// Groups rows by task, keeping each task's rows in run order.
pub fn split_by_task(rows: Vec<Row>) -> BTreeMap<String, Vec<Row>> {
    let mut out: BTreeMap<String, Vec<Row>> = BTreeMap::new();
    for row in rows {
        out.entry(row.task.clone()).or_default().push(row);
    }
    out
}

/// Computes (or loads) the standard full-grid rows, measures included,
/// for the given tasks over the three main algorithms. One [`Experiment`]
/// runs every task that needs computing, so each embedding pair's
/// measures are computed once and shared by all tasks.
///
/// Row caches live under `results/rows_<task>_<scale>.json`.
///
/// Three process flags feed straight into the pipeline:
/// `--cache-dir <path>` shares trained embedding pairs on disk,
/// `--world-cache <path>` loads (or builds once) the world itself from an
/// on-disk [`WorldCache`](embedstab_pipeline::WorldCache), and
/// `--shard i/n` makes this process cover only its slice of the pair grid
/// (rows then stream to
/// `results/rows_<task>_<scale>.shard<i>of<n>.jsonl` instead of the shared
/// JSON row cache, so partial results never poison it).
pub fn standard_rows(scale: Scale, tasks: &[&str]) -> BTreeMap<String, Vec<Row>> {
    let tag = scale_tag(scale);
    let shard = shard_from_args();
    let mut out: BTreeMap<String, Vec<Row>> = BTreeMap::new();
    for &task in tasks.iter().filter(|_| shard.is_none()) {
        if let Some(rows) = cached_rows(&format!("rows_{task}_{tag}")) {
            out.insert(task.to_string(), rows);
        }
    }
    let missed: Vec<&str> = tasks
        .iter()
        .copied()
        .filter(|&t| !out.contains_key(t))
        .collect();
    if missed.is_empty() {
        return out;
    }
    let world = world_from_args(scale);
    let mut exp = Experiment::new(&world)
        .tasks(missed.iter().copied())
        .with_measures(true);
    // Sibling shards share trained pairs, so sharding turns the cache on.
    if let Some(dir) = cache_dir_from_args().or_else(|| shard.map(|_| PathBuf::from("cache"))) {
        exp = exp.cache_dir(dir);
    }
    if let Some((index, n)) = shard {
        let mut files: BTreeMap<String, JsonlSink> = BTreeMap::new();
        for &task in tasks {
            let jsonl = format!("results/rows_{task}_{tag}.shard{index}of{n}.jsonl");
            std::fs::remove_file(&jsonl).ok(); // append sink: start clean
            files.insert(task.to_string(), JsonlSink::new(jsonl));
        }
        exp = exp
            .shard(index, n)
            .sink(move |row: &Row| {
                if let Some(file) = files.get_mut(&row.task) {
                    file.emit(row);
                }
            })
            .sink(ProgressSink::new(format!("{tag} {index}/{n}"), 8));
    }
    eprintln!("[run] {} grid...", missed.join("+"));
    for (task, rows) in split_by_task(exp.run()) {
        let name = format!("rows_{task}_{tag}");
        if shard.is_none() {
            if let Err(e) = embedstab_pipeline::report::save_json(&name, &rows) {
                eprintln!("[cache] warning: could not save {name}: {e}");
            }
        }
        out.insert(task, rows);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use embedstab_core::MeasureValues;

    fn row(task: &str, algo: &str, dim: usize, bits: u8, seed: u64, di: f64) -> Row {
        Row {
            task: task.into(),
            algo: algo.into(),
            dim,
            bits,
            memory: dim as u64 * bits as u64,
            seed,
            disagreement: di,
            quality17: 0.8,
            quality18: 0.8,
            measures: Some(MeasureValues {
                eis: di * 0.9,
                knn_dist: di * 1.1,
                semantic_displacement: 0.5,
                pip_loss: 1.0,
                overlap_dist: 0.5,
            }),
        }
    }

    #[test]
    fn row_cache_without_measures_is_a_miss() {
        let rows = vec![row("mr", "MC", 8, 4, 0, 0.1), row("mr", "MC", 8, 4, 1, 0.2)];
        let body = serde_json::to_string_pretty(&rows).expect("rows serialize");
        let hit = parse_row_cache(&body).expect("rows with measures hit");
        assert_eq!(rows_to_jsonl(&hit), rows_to_jsonl(&rows));
        let mut stale = rows.clone();
        stale[1].measures = None;
        let body = serde_json::to_string_pretty(&stale).expect("rows serialize");
        assert!(parse_row_cache(&body).is_none());
        assert!(parse_row_cache("[{\"task\":").is_none());
    }

    #[test]
    fn aggregate_means_and_stds() {
        let rows = vec![
            row("sst2", "MC", 8, 4, 0, 0.10),
            row("sst2", "MC", 8, 4, 1, 0.20),
            row("sst2", "MC", 16, 4, 0, 0.05),
        ];
        let agg = aggregate(&rows);
        assert_eq!(agg.len(), 2);
        let g = agg.iter().find(|a| a.dim == 8).expect("group");
        assert!((g.mean_di - 0.15).abs() < 1e-12);
        assert_eq!(g.n_seeds, 2);
    }

    #[test]
    fn spearman_uses_requested_measure() {
        // EIS tracks DI perfectly (rank-wise) in the fixture.
        let rows: Vec<Row> = (0..6)
            .map(|i| row("sst2", "MC", 4 << i, 32, 0, 0.02 * (6 - i) as f64))
            .collect();
        let rho = spearman_for(&rows, MeasureKind::Eis).expect("measures present");
        assert!((rho - 1.0).abs() < 1e-9);
    }

    #[test]
    fn config_points_split_by_seed() {
        let rows = vec![
            row("sst2", "MC", 8, 4, 0, 0.1),
            row("sst2", "MC", 8, 8, 0, 0.05),
            row("sst2", "MC", 8, 4, 1, 0.2),
        ];
        let per_seed = config_points_per_seed(&rows, MeasureKind::Knn);
        assert_eq!(per_seed.len(), 2);
        assert_eq!(per_seed[0].len(), 2);
        assert_eq!(per_seed[1].len(), 1);
    }
}
