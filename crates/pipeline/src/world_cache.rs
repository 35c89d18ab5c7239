//! A versioned on-disk cache of fully built [`World`]s.
//!
//! At the `Paper` scale, building the world — sampling two multi-million
//! token corpora, counting two co-occurrence tables, factoring PPMI, and
//! generating five downstream datasets — dominates the cost of a *sharded*
//! grid run, because every shard process used to rebuild it from scratch.
//! The world cache closes that gap: the fleet coordinator (or any first
//! run) builds the world once, serializes it, and every sibling process
//! loads it back **bitwise identical** — the stability protocol's
//! guarantee that a sharded run reproduces the unsharded run exactly
//! survives the round trip (`tests/world_cache.rs` and the bench crate's
//! `fleet` test pin this).
//!
//! The file rides the same conventions as the pair cache
//! ([`crate::cache`]): a magic + format-version + fingerprint header, raw
//! little-endian `f64` bit dumps for every float, and atomic tmp+rename
//! writes so concurrent processes race safely to identical bytes. Note
//! that the co-occurrence tables and the PPMI matrix are **stored, not
//! recomputed** on load: their floats were accumulated in counting order,
//! and recomputation would round differently.
//!
//! The cache key is [`world_fingerprint`], which mixes the master seed and
//! *every* [`ScaleParams`] field — unlike the pair-cache fingerprint
//! ([`World::fingerprint`]), which only covers the five corpus-shaping
//! parameters. A trained pair really is identical across dataset-size
//! changes, but a cached *world* is not: it embeds the sentiment/NER
//! datasets, so reusing one across e.g. a `sentiment_train` change would
//! silently evaluate the wrong data.

use std::fs;
use std::io::{self, Read as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use embedstab_corpus::{codec, Cooc, SparseMatrix, TemporalPair};
use embedstab_downstream::{NerDataset, SentimentDataset};
use embedstab_embeddings::CorpusStats;

use crate::cache::atomic_write;
use crate::scale::ScaleParams;
use crate::world::World;

/// Bump when the world file layout changes; old files are ignored, not
/// misread.
pub const WORLD_CACHE_FORMAT_VERSION: u32 = 1;

const MAGIC: [u8; 4] = *b"ESWC";

/// A stable fingerprint of everything that determines a built [`World`]:
/// the master seed and **all** scale parameters, including the
/// dataset-shaping ones (`sentiment_train`, `ner_test`, ...) and the
/// sweep/downstream knobs. Deliberately conservative: a changed `dims`
/// list rebuilds a world it could in principle have reused, but no cached
/// world is ever wrongly reused across a parameter change (the
/// perturb-each-field test below pins that every field matters).
pub fn world_fingerprint(params: &ScaleParams, master_seed: u64) -> u64 {
    // FNV-1a, like the pair-cache fingerprint, but over a tagged,
    // length-prefixed field list so the two key spaces cannot collide by
    // construction order.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for b in b"world-cache" {
        mix(*b as u64);
    }
    mix(master_seed);
    mix(params.vocab_size as u64);
    mix(params.n_topics as u64);
    mix(params.latent_dim as u64);
    mix(params.corpus_tokens as u64);
    mix(params.window as u64);
    mix(params.dims.len() as u64);
    for &d in &params.dims {
        mix(d as u64);
    }
    mix(params.precisions.len() as u64);
    for &p in &params.precisions {
        mix(p.bits() as u64);
    }
    mix(params.seeds.len() as u64);
    for &s in &params.seeds {
        mix(s);
    }
    mix(params.top_m as u64);
    mix(params.sentiment_train as u64);
    mix(params.sentiment_test as u64);
    mix(params.ner_train as u64);
    mix(params.ner_test as u64);
    mix(params.lstm_hidden as u64);
    mix(params.lstm_epochs as u64);
    mix(params.logreg_epochs as u64);
    mix(params.knn_queries as u64);
    h
}

/// Handle to one world-cache directory.
///
/// Unlike [`PairCache`](crate::cache::PairCache), the handle is not bound
/// to a single fingerprint: one directory can hold worlds for several
/// scales (the fingerprint is in both the file name and the header).
pub struct WorldCache {
    dir: PathBuf,
}

impl WorldCache {
    /// Opens (creating if needed) a world-cache directory.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(WorldCache { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file path for one `(params, master_seed)` world.
    pub fn path(&self, params: &ScaleParams, master_seed: u64) -> PathBuf {
        self.dir.join(format!(
            "world_v{WORLD_CACHE_FORMAT_VERSION}_{:016x}.bin",
            world_fingerprint(params, master_seed)
        ))
    }

    /// True if a world for `(params, master_seed)` is already stored.
    pub fn contains(&self, params: &ScaleParams, master_seed: u64) -> bool {
        self.path(params, master_seed).exists()
    }

    /// Loads the cached world for `(params, master_seed)`, or `None` if
    /// absent, stale-versioned, or corrupt (all treated as misses, never
    /// errors — a rebuild over-writes the bad file).
    pub fn load(&self, params: &ScaleParams, master_seed: u64) -> Option<World> {
        let bytes = fs::read(self.path(params, master_seed)).ok()?;
        decode_world(&bytes, params, master_seed)
    }

    /// Atomically stores a built world under its fingerprint.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing or renaming the file.
    pub fn store(&self, world: &World) -> io::Result<PathBuf> {
        let path = self.path(&world.params, world.master_seed);
        atomic_write(&path, &encode_world(world))?;
        Ok(path)
    }
}

fn encode_world(world: &World) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&WORLD_CACHE_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&world_fingerprint(&world.params, world.master_seed).to_le_bytes());
    world.pair.encode_into(&mut out);
    for stats in [&world.stats17, &world.stats18] {
        stats.cooc_flat.encode_into(&mut out);
        stats.cooc_weighted.encode_into(&mut out);
        stats.ppmi.encode_into(&mut out);
        codec::put_u64_slice(&mut out, &stats.unigram_counts);
    }
    // A dataset count past u32::MAX would truncate into a header that
    // decodes cleanly but describes fewer datasets; real worlds hold two.
    debug_assert!(world.sentiment.len() <= u32::MAX as usize);
    codec::put_u32(&mut out, world.sentiment.len() as u32);
    for ds in &world.sentiment {
        ds.encode_into(&mut out);
    }
    world.ner.encode_into(&mut out);
    out
}

fn decode_world(mut bytes: &[u8], params: &ScaleParams, master_seed: u64) -> Option<World> {
    let r = &mut bytes;
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic).ok()?;
    if magic != MAGIC || codec::take_u32(r)? != WORLD_CACHE_FORMAT_VERSION {
        return None;
    }
    if codec::take_u64(r)? != world_fingerprint(params, master_seed) {
        return None;
    }
    let pair = TemporalPair::decode_from(r)?;
    if pair.model17.vocab_size() != params.vocab_size {
        return None;
    }
    let mut stats = Vec::with_capacity(2);
    for corpus in [&pair.corpus17, &pair.corpus18] {
        let cooc_flat = Cooc::decode_from(r)?;
        let cooc_weighted = Cooc::decode_from(r)?;
        let ppmi = SparseMatrix::decode_from(r)?;
        let unigram_counts = codec::take_u64_slice(r)?;
        if cooc_flat.n() != params.vocab_size
            || cooc_weighted.n() != params.vocab_size
            || ppmi.n_rows() != params.vocab_size
            || unigram_counts.len() != params.vocab_size
        {
            return None;
        }
        stats.push(CorpusStats {
            corpus: Arc::new((*corpus).clone()),
            vocab_size: params.vocab_size,
            window: params.window,
            cooc_flat,
            cooc_weighted,
            ppmi,
            unigram_counts,
        });
    }
    let stats18 = stats.pop().expect("two stats");
    let stats17 = stats.pop().expect("two stats");
    let n_sentiment = codec::take_u32(r)? as usize;
    let mut sentiment = Vec::with_capacity(n_sentiment.min(16));
    for _ in 0..n_sentiment {
        sentiment.push(Arc::new(SentimentDataset::decode_from(r)?));
    }
    let ner = Arc::new(NerDataset::decode_from(r)?);
    if !r.is_empty() {
        return None;
    }
    Some(World {
        params: params.clone(),
        master_seed,
        pair,
        stats17,
        stats18,
        sentiment,
        ner,
    })
}

impl World {
    /// Loads the world for `(params, master_seed)` from `cache_dir`, or —
    /// on a miss — builds it and stores it for the next process. This is
    /// the entry point `fleet_coordinator` and the bench binaries'
    /// `--world-cache` flag ride: the fleet coordinator warms the cache
    /// once and every shard process loads instead of rebuilding.
    ///
    /// A load is logged as `[world] loaded ...` and a build as
    /// `[world] built ...` (the bench crate's `fleet` test asserts on
    /// these markers to prove shards never rebuild). A failed store is a
    /// warning, not an error: the built world is still returned.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the cache directory.
    pub fn load_or_build(
        params: &ScaleParams,
        master_seed: u64,
        cache_dir: impl Into<PathBuf>,
    ) -> io::Result<World> {
        let cache = WorldCache::open(cache_dir)?;
        if let Some(world) = cache.load(params, master_seed) {
            eprintln!(
                "[world] loaded {}",
                cache.path(params, master_seed).display()
            );
            return Ok(world);
        }
        let world = World::build(params, master_seed);
        match cache.store(&world) {
            Ok(path) => eprintln!("[world] built and stored {}", path.display()),
            Err(e) => eprintln!("[world] warning: built but could not store: {e}"),
        }
        Ok(world)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::scratch_dir;
    use crate::scale::Scale;
    use embedstab_quant::Precision;

    fn tiny_params() -> ScaleParams {
        let mut params = Scale::Tiny.params();
        params.corpus_tokens = 4000;
        params.sentiment_train = 60;
        params.sentiment_test = 40;
        params.ner_train = 30;
        params.ner_test = 20;
        params
    }

    /// Every `ScaleParams` field (and the master seed) must move the
    /// world-cache fingerprint — a cached world must never be reused
    /// across a parameter change, dataset sizes included.
    #[test]
    fn fingerprint_covers_every_field() {
        let base = tiny_params();
        let perturbations: Vec<(&str, ScaleParams)> = vec![
            ("vocab_size", {
                let mut p = base.clone();
                p.vocab_size += 1;
                p
            }),
            ("n_topics", {
                let mut p = base.clone();
                p.n_topics += 1;
                p
            }),
            ("latent_dim", {
                let mut p = base.clone();
                p.latent_dim += 1;
                p
            }),
            ("corpus_tokens", {
                let mut p = base.clone();
                p.corpus_tokens += 1;
                p
            }),
            ("window", {
                let mut p = base.clone();
                p.window += 1;
                p
            }),
            ("dims", {
                let mut p = base.clone();
                p.dims.push(99);
                p
            }),
            ("precisions", {
                let mut p = base.clone();
                p.precisions.push(Precision::new(2));
                p
            }),
            ("seeds", {
                let mut p = base.clone();
                p.seeds.push(7);
                p
            }),
            ("top_m", {
                let mut p = base.clone();
                p.top_m += 1;
                p
            }),
            ("sentiment_train", {
                let mut p = base.clone();
                p.sentiment_train += 1;
                p
            }),
            ("sentiment_test", {
                let mut p = base.clone();
                p.sentiment_test += 1;
                p
            }),
            ("ner_train", {
                let mut p = base.clone();
                p.ner_train += 1;
                p
            }),
            ("ner_test", {
                let mut p = base.clone();
                p.ner_test += 1;
                p
            }),
            ("lstm_hidden", {
                let mut p = base.clone();
                p.lstm_hidden += 1;
                p
            }),
            ("lstm_epochs", {
                let mut p = base.clone();
                p.lstm_epochs += 1;
                p
            }),
            ("logreg_epochs", {
                let mut p = base.clone();
                p.logreg_epochs += 1;
                p
            }),
            ("knn_queries", {
                let mut p = base.clone();
                p.knn_queries += 1;
                p
            }),
        ];
        let mut seen = vec![("base", world_fingerprint(&base, 0))];
        seen.push(("master_seed", world_fingerprint(&base, 1)));
        for (field, p) in &perturbations {
            seen.push((field, world_fingerprint(p, 0)));
        }
        for (i, &(fa, a)) in seen.iter().enumerate() {
            for &(fb, b) in &seen[i + 1..] {
                assert_ne!(a, b, "fingerprint collision between {fa} and {fb}");
            }
        }
    }

    /// The pair-cache fingerprint intentionally ignores dataset-shaping
    /// params (a trained pair does not depend on them); the world-cache
    /// fingerprint must not.
    #[test]
    fn world_fingerprint_is_stricter_than_pair_fingerprint() {
        let base = tiny_params();
        let mut bigger = base.clone();
        bigger.sentiment_train += 100;
        let wa = World::build(&base, 0);
        let wb = World::build(&bigger, 0);
        assert_eq!(wa.fingerprint(), wb.fingerprint());
        assert_ne!(
            world_fingerprint(&base, 0),
            world_fingerprint(&bigger, 0),
            "dataset sizes must key the world cache"
        );
    }

    #[test]
    fn store_load_round_trips_the_world() {
        let dir = scratch_dir("world_cache_roundtrip");
        std::fs::remove_dir_all(&dir).ok();
        let params = tiny_params();
        let cache = WorldCache::open(&dir).expect("open");
        assert!(!cache.contains(&params, 3));
        assert!(cache.load(&params, 3).is_none());
        let built = World::build(&params, 3);
        cache.store(&built).expect("store");
        assert!(cache.contains(&params, 3));
        let loaded = cache.load(&params, 3).expect("hit");
        assert_eq!(loaded.master_seed, 3);
        assert_eq!(
            loaded.pair.model17.word_vecs.as_slice(),
            built.pair.model17.word_vecs.as_slice()
        );
        assert_eq!(loaded.pair.corpus18.docs(), built.pair.corpus18.docs());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&loaded.stats17.cooc_flat.row_sums()),
            bits(&built.stats17.cooc_flat.row_sums())
        );
        assert_eq!(
            loaded.stats18.ppmi.to_entries().len(),
            built.stats18.ppmi.to_entries().len()
        );
        assert_eq!(loaded.stats17.unigram_counts, built.stats17.unigram_counts);
        assert_eq!(loaded.sentiment.len(), built.sentiment.len());
        for (l, b) in loaded.sentiment.iter().zip(&built.sentiment) {
            assert_eq!(l.name, b.name);
            assert_eq!(l.train, b.train);
            assert_eq!(l.test, b.test);
        }
        assert_eq!(loaded.ner.train, built.ner.train);
        // A different master seed misses.
        assert!(cache.load(&params, 4).is_none());
        // A truncated file is a miss, not an error (and rebuildable).
        let path = cache.path(&params, 3);
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() / 3]).expect("truncate");
        assert!(cache.load(&params, 3).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_or_build_builds_then_loads() {
        let dir = scratch_dir("world_cache_lob");
        std::fs::remove_dir_all(&dir).ok();
        let params = tiny_params();
        let first = World::load_or_build(&params, 0, &dir).expect("build");
        assert!(WorldCache::open(&dir).expect("open").contains(&params, 0));
        let second = World::load_or_build(&params, 0, &dir).expect("load");
        assert_eq!(
            first.pair.model18.word_vecs.as_slice(),
            second.pair.model18.word_vecs.as_slice()
        );
        assert_eq!(
            first.stats18.cooc_weighted.total().to_bits(),
            second.stats18.cooc_weighted.total().to_bits()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
