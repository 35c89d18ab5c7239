//! Figure 12 (Appendix E.1): the stability-memory tradeoff for fastText
//! skipgram subword embeddings on SST-2 and NER.

use embedstab_bench::{aggregate, split_by_task};
use embedstab_embeddings::Algo;
use embedstab_pipeline::report::{pct, print_table};
use embedstab_pipeline::{Experiment, Scale, World};

fn main() {
    let scale = Scale::from_args();
    let mut params = scale.params();
    // Subword training is ~an order of magnitude costlier per token than
    // CBOW; one seed and the lower dimensions preserve the trend.
    params.seeds = vec![0];
    if params.dims.len() > 4 {
        params.dims.truncate(params.dims.len() - 1);
    }
    let world = World::build(&params, 0);

    println!("\n=== Figure 12: fastText skipgram memory tradeoff ===");
    let rows = split_by_task(
        Experiment::new(&world)
            .tasks(["sst2", "ner"])
            .algos([Algo::FastTextSg])
            .run(),
    );
    for task in ["sst2", "ner"] {
        println!("\n--- FT-SG, {task} ---");
        let mut table = Vec::new();
        for a in aggregate(&rows[task]) {
            table.push(vec![
                a.bits.to_string(),
                a.dim.to_string(),
                a.memory.to_string(),
                pct(a.mean_di),
            ]);
        }
        print_table(&["bits", "dim", "bits/word", "disagree%"], &table);
    }
    println!("\nPaper shape: instability falls with memory; the dimension trend is");
    println!("weaker for SST-2 at high precision (Appendix E.1).");
}
