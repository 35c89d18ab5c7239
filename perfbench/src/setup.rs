//! The shared set-up: a Small-scale world, built either by `World::build`
//! or, in the traced run, by the same layer calls made one span at a time.

use std::sync::Arc;
use std::time::Instant;

use embedstab_corpus::{
    corpus_state_fingerprint, CoocConfig, CorpusConfig, DriftConfig, LatentModelConfig,
    TemporalPair, TemporalPairConfig,
};
use embedstab_downstream::tasks::ner::NerSpec;
use embedstab_downstream::tasks::sentiment::SentimentSpec;
use embedstab_embeddings::CorpusStats;
use embedstab_pipeline::{Scale, ScaleParams, World};

use crate::stats::Digest;
use crate::trace::Spans;

/// Master seed of every workload's world. The world is pinned so set-up
/// cost and the selection result do not move with `--seed`; the seed drives
/// each workload's own inputs instead.
pub const WORLD_SEED: u64 = 0;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Small scale with one embedding/downstream seed, 0; the grid workloads
/// replace it with `--seed`.
pub fn params() -> ScaleParams {
    let mut p = Scale::Small.params();
    p.seeds = vec![0];
    p
}

/// Runs `build` [`SETUP_REPS`] times and returns the last result with the
/// median wall time. Earlier results are dropped before the next build, so
/// peak memory holds one set-up at a time.
pub fn repeated<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(build());
        secs.push(start.elapsed().as_secs_f64());
    }
    let built = last.expect("SETUP_REPS is positive");
    (built, crate::stats::median(&secs))
}

/// [`World::build`] rebuilt from the layer calls it makes, with a span
/// around each layer. [`world_digest`] checks it against the library's.
pub fn world_traced(params: &ScaleParams, master_seed: u64, spans: &Spans) -> World {
    let dim_scale = (16.0 / params.latent_dim as f64).sqrt();
    let cfg = TemporalPairConfig {
        model: LatentModelConfig {
            vocab_size: params.vocab_size,
            latent_dim: params.latent_dim,
            n_topics: params.n_topics,
            word_noise: 0.6 * dim_scale,
            seed: master_seed,
            ..Default::default()
        },
        drift: DriftConfig {
            drift_sigma: 0.8 * dim_scale,
            seed: master_seed.wrapping_add(1),
            ..Default::default()
        },
        corpus: CorpusConfig {
            n_tokens: params.corpus_tokens,
            seed: master_seed.wrapping_add(2),
            ..Default::default()
        },
        extra_token_frac: 0.02,
    };
    let pair = spans.time("corpus.temporal_pair_build_s", || TemporalPair::build(&cfg));
    let (stats17, stats18) = spans.time("embeddings.corpus_stats_s", || {
        let stats = |corpus: &embedstab_corpus::Corpus| {
            CorpusStats::compute(Arc::new(corpus.clone()), params.vocab_size, params.window)
        };
        (stats(&pair.corpus17), stats(&pair.corpus18))
    });
    let (sentiment, ner) = spans.time("downstream.dataset_gen_s", || {
        let sentiment = SentimentSpec::all_four()
            .into_iter()
            .map(|mut spec| {
                spec.n_train = params.sentiment_train;
                spec.n_valid = (params.sentiment_train / 5).max(20);
                spec.n_test = params.sentiment_test;
                Arc::new(spec.generate(&pair.model17))
            })
            .collect();
        let ner = Arc::new(
            NerSpec {
                n_train: params.ner_train,
                n_valid: (params.ner_train / 5).max(10),
                n_test: params.ner_test,
                ..Default::default()
            }
            .generate(&pair.model17),
        );
        (sentiment, ner)
    });
    World {
        params: params.clone(),
        master_seed,
        pair,
        stats17,
        stats18,
        sentiment,
        ner,
    }
}

/// A content digest of a world: both corpora under the world's counting
/// configuration, the unigram counts and every downstream dataset.
pub fn world_digest(world: &World) -> u64 {
    let cooc = CoocConfig {
        window: world.params.window,
        distance_weighting: false,
    };
    let vocab = world.params.vocab_size;
    let mut d = Digest::new();
    d.u64(corpus_state_fingerprint(&world.pair.corpus17, vocab, &cooc))
        .u64(corpus_state_fingerprint(&world.pair.corpus18, vocab, &cooc))
        .str(&format!(
            "{:?}{:?}{:?}{:?}",
            world.stats17.unigram_counts, world.stats18.unigram_counts, world.sentiment, world.ner
        ));
    d.finish()
}
