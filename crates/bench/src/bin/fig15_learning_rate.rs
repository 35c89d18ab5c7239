//! Figure 15 (Appendix E.5): downstream instability as a function of the
//! downstream model's learning rate, for CBOW and MC on SST-2 and MR at
//! two dimensions.

use embedstab_bench::{aggregate, pairs_from_args, world_from_args};
use embedstab_embeddings::Algo;
use embedstab_pipeline::report::{pct, print_table};
use embedstab_pipeline::{Experiment, Scale};
use embedstab_quant::Precision;

fn main() {
    let scale = Scale::from_args();
    let world = world_from_args(scale);
    let grid = pairs_from_args(&world, &[Algo::Cbow, Algo::Mc]);
    let params = &world.params;
    let dims = vec![
        params.dims[params.dims.len() / 2],
        *params.dims.last().expect("dims"),
    ];
    let lrs = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0];

    println!("\n=== Figure 15: instability vs downstream learning rate (b=32) ===");
    let mut table = Vec::new();
    for task in ["sst2", "mr"] {
        for &lr in &lrs {
            let rows = Experiment::new(&world)
                .grid(&grid)
                .tasks([task])
                .algos([Algo::Cbow, Algo::Mc])
                .lr_override(lr)
                .dims(dims.clone())
                .precisions([Precision::FULL])
                .run();
            for a in aggregate(&rows) {
                table.push(vec![
                    task.to_string(),
                    a.algo.clone(),
                    a.dim.to_string(),
                    format!("{lr:.0e}"),
                    pct(a.mean_di),
                    pct(a.mean_quality),
                ]);
            }
        }
    }
    print_table(
        &["task", "algo", "dim", "lr", "disagree%", "accuracy%"],
        &table,
    );
    println!("\nPaper shape: very small and very large learning rates are the least");
    println!("stable; the accuracy-optimal rates sit in the stable middle (App. E.5).");
}
