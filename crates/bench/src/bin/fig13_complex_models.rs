//! Figure 13 (Appendix E.2): the stability-memory tradeoff survives more
//! complex downstream models — a CNN for SST-2 and a BiLSTM-CRF for NER.

use embedstab_bench::{pairs_from_args, world_from_args};
use embedstab_core::{disagreement, masked_disagreement};
use embedstab_downstream::eval::flatten_tags;
use embedstab_downstream::models::{
    BiLstmCrfTagger, CnnConfig, CnnSentimentModel, LstmConfig, TrainSpec,
};
use embedstab_embeddings::Algo;
use embedstab_pipeline::report::{pct, print_table};
use embedstab_pipeline::Scale;
use embedstab_quant::Precision;

fn main() {
    let scale = Scale::from_args();
    let world = world_from_args(scale);
    let grid = pairs_from_args(&world, &[Algo::Cbow, Algo::Mc]);
    let params = &world.params;
    // The paper trains a representative subset with the CRF on
    // (dims {25,100,800} x precisions {1,4,32}); mirror that subsetting.
    let dims = vec![
        params.dims[0],
        params.dims[params.dims.len() / 2],
        *params.dims.last().expect("dims"),
    ];
    let precisions = [Precision::new(1), Precision::new(4), Precision::FULL];
    let seed = params.seeds[0];

    println!("\n=== Figure 13a: CNN on SST-2 ===");
    let ds = world.sentiment_dataset("sst2");
    let cnn_cfg = CnnConfig::default();
    let spec = TrainSpec {
        lr: 5e-3,
        epochs: (params.logreg_epochs / 3).max(4),
        init_seed: seed,
        sample_seed: seed,
        ..Default::default()
    };
    let mut table = Vec::new();
    for algo in [Algo::Cbow, Algo::Mc] {
        for &dim in &dims {
            for &prec in &precisions {
                let (q17, q18) = grid.quantized_pair(algo, dim, seed, prec);
                let m17 = CnnSentimentModel::train(&q17, &ds.train, &cnn_cfg, &spec);
                let m18 = CnnSentimentModel::train(&q18, &ds.train, &cnn_cfg, &spec);
                let di = disagreement(&m17.predict(&q17, &ds.test), &m18.predict(&q18, &ds.test));
                table.push(vec![
                    algo.name().to_string(),
                    dim.to_string(),
                    prec.bits().to_string(),
                    (dim as u64 * prec.bits() as u64).to_string(),
                    pct(di),
                ]);
            }
        }
    }
    print_table(&["algo", "dim", "bits", "bits/word", "disagree%"], &table);

    println!("\n=== Figure 13b: BiLSTM-CRF on NER ===");
    let ner = &world.ner;
    let lstm_cfg = LstmConfig {
        hidden: params.lstm_hidden,
        epochs: params.lstm_epochs,
        init_seed: seed,
        sample_seed: seed,
        ..Default::default()
    };
    let mut table = Vec::new();
    for algo in [Algo::Cbow, Algo::Mc] {
        for &dim in &dims {
            for &prec in &precisions {
                let (q17, q18) = grid.quantized_pair(algo, dim, seed, prec);
                let m17 = BiLstmCrfTagger::train(&q17, &ner.train, &lstm_cfg);
                let m18 = BiLstmCrfTagger::train(&q18, &ner.train, &lstm_cfg);
                let p17 = m17.predict_all(&q17, &ner.test);
                let p18 = m18.predict_all(&q18, &ner.test);
                let (f17, mask) = flatten_tags(&p17, &ner.test);
                let (f18, _) = flatten_tags(&p18, &ner.test);
                let di = masked_disagreement(&f17, &f18, &mask);
                table.push(vec![
                    algo.name().to_string(),
                    dim.to_string(),
                    prec.bits().to_string(),
                    (dim as u64 * prec.bits() as u64).to_string(),
                    pct(di),
                ]);
            }
        }
    }
    print_table(&["algo", "dim", "bits", "bits/word", "disagree%"], &table);
    println!("\nPaper shape: low-memory configurations stay markedly less stable even");
    println!("under CNN and CRF decoders (Appendix E.2).");
}
