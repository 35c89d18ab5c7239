//! The end-to-end experiment harness behind every table/figure
//! reproduction binary.
//!
//! The harness mirrors the paper's three-step pipeline (Artifact
//! Appendix A.5):
//!
//! 1. **Train and compress embeddings** — [`World`] builds the
//!    Wiki'17/Wiki'18 corpus pair and downstream datasets (once per shard
//!    fleet, via the on-disk [`world_cache`] and
//!    [`World::load_or_build`]);
//!    [`EmbeddingGrid`] trains the `algo x dim x seed` grid once (in
//!    parallel, through an optional versioned on-disk [`cache`]), aligns
//!    each '18 embedding to its '17 partner, and hands out quantized pairs
//!    on demand.
//! 2. **Train downstream models and compute metrics** — [`Experiment`]
//!    sweeps pluggable [`Task`](embedstab_downstream::Task)s over the
//!    `task x algo x dim x precision x seed` grid, recording prediction
//!    disagreement, quality, and the five embedding distance measures
//!    (computed once per embedding pair). Runs shard deterministically
//!    across processes by pair ([`Experiment::shard`]) and stream rows as
//!    they complete ([`RowSink`], [`JsonlSink`]).
//! 3. **Run analyses** — `embedstab-core`'s statistics and selection
//!    routines consume the rows; [`report`] renders the paper-style
//!    tables.
//!
//! Scales: [`Scale::Tiny`] for tests, [`Scale::Small`] (default) for the
//! 2-core reproduction runs, [`Scale::Paper`] for a closer-to-paper grid
//! (where sharding + the pair cache pay off).

pub mod cache;
pub mod experiment;
pub mod grid;
pub mod pool;
pub mod report;
pub mod run;
pub mod scale;
pub mod sink;
pub mod store;
pub mod world;
pub mod world_cache;

pub use cache::{PairCache, CACHE_FORMAT_VERSION};
pub use experiment::Experiment;
pub use grid::{EmbeddingGrid, PairKey};
pub use run::{GridOptions, Row};
pub use scale::{Scale, ScaleParams};
pub use sink::{JsonlSink, ProgressSink, RowSink};
pub use store::{content_hash, CacheFamily, CacheKey, CacheStore, StoreError};
pub use world::World;
pub use world_cache::{world_fingerprint, WorldCache, WORLD_CACHE_FORMAT_VERSION};
