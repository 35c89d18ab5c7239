//! The row and options types of a grid run through the
//! [`Experiment`](crate::Experiment) builder.

use embedstab_core::MeasureValues;
use embedstab_embeddings::Algo;
use embedstab_quant::Precision;
use serde::{Deserialize, Serialize};

/// One experiment observation: a downstream task trained on one embedding
/// configuration pair.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Row {
    /// Task name (`sst2`, `mr`, `subj`, `mpqa`, `ner`).
    pub task: String,
    /// Embedding algorithm name.
    pub algo: String,
    /// Embedding dimension.
    pub dim: usize,
    /// Precision in bits.
    pub bits: u8,
    /// Memory in bits/word.
    pub memory: u64,
    /// Seed shared by embedding and downstream training.
    pub seed: u64,
    /// Downstream prediction disagreement in `[0, 1]` (entity tokens only
    /// for NER, as in the paper).
    pub disagreement: f64,
    /// Quality of the '17-side model (accuracy / micro-F1).
    pub quality17: f64,
    /// Quality of the '18-side model.
    pub quality18: f64,
    /// The five embedding distance measures, when requested.
    pub measures: Option<MeasureValues>,
}

/// The options an [`Experiment`](crate::Experiment) runs with.
#[derive(Clone, Debug)]
pub struct GridOptions {
    /// Algorithms to run.
    pub algos: Vec<Algo>,
    /// Also compute the five distance measures per configuration.
    pub with_measures: bool,
    /// EIS eigenvalue exponent (paper default 3).
    pub alpha: f64,
    /// k for the k-NN measure (paper default 5).
    pub knn_k: usize,
    /// Downstream learning-rate override (Appendix E.5 sweeps this).
    pub lr_override: Option<f64>,
    /// Use different model-init/sampling seeds for the '18-side model
    /// (Appendix E.3's relaxed-seed setting).
    pub relax_seeds: bool,
    /// Fine-tune the embeddings during downstream training at the given
    /// learning rate (Appendix E.4); sentiment only.
    pub fine_tune_lr: Option<f64>,
    /// Restrict the grid to these dimensions (default: the scale's sweep).
    pub dims: Option<Vec<usize>>,
    /// Restrict the grid to these precisions (default: the scale's sweep).
    pub precisions: Option<Vec<Precision>>,
}

impl Default for GridOptions {
    fn default() -> Self {
        GridOptions {
            algos: Algo::MAIN.to_vec(),
            with_measures: false,
            alpha: 3.0,
            knn_k: 5,
            lr_override: None,
            relax_seeds: false,
            fine_tune_lr: None,
            dims: None,
            precisions: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use crate::grid::EmbeddingGrid;
    use crate::scale::Scale;
    use crate::world::World;

    fn tiny_setup() -> (World, EmbeddingGrid) {
        let mut params = Scale::Tiny.params();
        params.dims = vec![4, 16];
        params.precisions = vec![Precision::new(1), Precision::FULL];
        params.seeds = vec![0];
        let world = World::build(&params, 0);
        let grid = EmbeddingGrid::build(&world, &[Algo::Mc], &params.dims, &params.seeds);
        (world, grid)
    }

    #[test]
    fn sentiment_grid_produces_rows_with_shape() {
        let (world, grid) = tiny_setup();
        let rows = Experiment::new(&world)
            .grid(&grid)
            .tasks(["sst2"])
            .algos([Algo::Mc])
            .with_measures(true)
            .run();
        assert_eq!(rows.len(), 4); // 2 dims x 2 precisions x 1 seed
        for r in &rows {
            assert!(r.disagreement >= 0.0 && r.disagreement <= 1.0);
            assert!(r.quality17 > 0.4, "degenerate quality {}", r.quality17);
            let m = r.measures.expect("measures requested");
            assert!(m.eis >= 0.0 && m.eis <= 1.0);
        }
        // Identity check on memory accounting.
        assert!(rows.iter().any(|r| r.memory == 4));
        assert!(rows.iter().any(|r| r.memory == 512));
    }

    #[test]
    fn ner_grid_runs() {
        let (world, grid) = tiny_setup();
        let rows = Experiment::new(&world)
            .grid(&grid)
            .tasks(["ner"])
            .algos([Algo::Mc])
            .run();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert_eq!(r.task, "ner");
            assert!(r.disagreement >= 0.0 && r.disagreement <= 1.0);
            assert!(r.measures.is_none());
        }
    }

    #[test]
    #[should_panic(expected = "no sentiment dataset")]
    fn unknown_task_name_panics() {
        let (world, grid) = tiny_setup();
        let _ = Experiment::new(&world).grid(&grid).tasks(["imdb"]).run();
    }

    #[test]
    fn relaxed_seeds_change_results() {
        let (world, grid) = tiny_setup();
        let run = |relax| {
            Experiment::new(&world)
                .grid(&grid)
                .tasks(["sst2"])
                .algos([Algo::Mc])
                .relax_seeds(relax)
                .run()
        };
        let (a, b) = (run(false), run(true));
        // Relaxing seeds adds model randomness, so disagreement shifts for
        // at least one configuration.
        assert!(
            a.iter()
                .zip(&b)
                .any(|(x, y)| x.disagreement != y.disagreement),
            "relaxed seeds had no effect"
        );
    }
}
