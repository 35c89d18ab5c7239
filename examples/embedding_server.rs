//! The embedding-server scenario from the paper's introduction: one
//! embedding is shared by several downstream tasks, so a poor
//! dimension-precision choice amplifies instability across every consumer.
//!
//! Given a fixed memory budget, this example sweeps the candidate
//! (dimension, precision) combinations with the `Experiment` builder —
//! `.filter(...)` restricts the grid to the budget, `.with_measures(true)`
//! ranks candidates by the eigenspace instability measure (no downstream
//! training needed for the ranking!) — then hands the measured candidates
//! to the serving layer: `TenantRegistry::register` picks the tenant's
//! configuration on the budget line through the same
//! `core::selection` ranking path, and every subsequent retrain goes
//! through the `StabilityGate` before it can replace the live snapshot.
//!
//! Run with: `cargo run --release --example embedding_server`

use std::collections::BTreeMap;

use embedstab::core::selection::{pick_lowest_measure, pick_oracle, ConfigPoint};
use embedstab::embeddings::{train_embedding, Algo};
use embedstab::pipeline::cache::scratch_dir;
use embedstab::pipeline::{Experiment, Scale, World};
use embedstab::quant::Precision;
use embedstab::serve::{GateOutcome, Slo, TenantRegistry};

fn main() {
    let mut params = Scale::Tiny.params();
    params.dims = vec![4, 8, 16, 32];
    params.precisions = vec![
        Precision::new(1),
        Precision::new(2),
        Precision::new(4),
        Precision::new(8),
        Precision::FULL,
    ];
    params.seeds = vec![0];
    let world = World::build(&params, 0);

    // Candidates under a 32 bits/word budget: (32,1), (16,2), (8,4), (4,8).
    let budget = 32u64;
    println!("memory budget: {budget} bits/word\n");

    // One experiment serves all three tasks; the filter keeps only the
    // configurations on the budget line.
    let rows = Experiment::new(&world)
        .tasks(["sst2", "subj", "mpqa"])
        .algos([Algo::Cbow])
        .with_measures(true)
        .filter(move |_, dim, prec, _| dim as u64 * prec.bits() as u64 == budget)
        .run();

    // Aggregate the three served tasks per candidate: the EIS comes from
    // the embeddings alone, the mean disagreement from the downstream
    // models the measure is meant to replace.
    let mut by_config: BTreeMap<(usize, u8), (f64, Vec<f64>)> = BTreeMap::new();
    for r in &rows {
        let eis = r.measures.expect("measures requested").eis;
        let e = by_config
            .entry((r.dim, r.bits))
            .or_insert((eis, Vec::new()));
        e.1.push(r.disagreement);
    }
    let mut points = Vec::new();
    println!("dim  bits  EIS      mean disagreement% over 3 served tasks");
    for (&(dim, bits), &(eis, ref dis)) in &by_config {
        let mean_di = dis.iter().sum::<f64>() / dis.len() as f64;
        println!("{dim:>3}  {bits:>4}  {eis:.4}  {:>5.1}", 100.0 * mean_di);
        points.push(ConfigPoint {
            dim,
            bits,
            measure: eis,
            instability: mean_di,
        });
    }

    let picked = pick_lowest_measure(&points).expect("candidates");
    let oracle = pick_oracle(&points).expect("candidates");
    println!(
        "\nEIS picks (dim={}, b={}), oracle is (dim={}, b={}): gap {:.2}% absolute",
        picked.dim,
        picked.bits,
        oracle.dim,
        oracle.bits,
        100.0 * (picked.instability - oracle.instability)
    );

    // The serving layer makes the pick operational: registering the tenant
    // runs the same budget-line ranking, then the stability gate guards
    // every retrain. The SLO ceiling starts from the offline sweep with 2x
    // headroom: gate scores anchor EIS on the live snapshot itself (see
    // the `gate` module docs), so they track sweep values but sit on a
    // slightly different scale.
    let root = scratch_dir("embedding_server_example");
    let _ = std::fs::remove_dir_all(&root);
    let mut registry = TenantRegistry::new(&root);
    let slo = Slo {
        max_predicted_instability: 2.0 * picked.measure,
        memory_budget_bits: budget,
    };
    let tenant = registry
        .register("shared", slo, &points)
        .expect("a candidate sits on the budget line");
    println!(
        "[serve] tenant 'shared' registered: budget line {} bits/word -> (dim={}, b={}), \
         SLO EIS <= {:.4}",
        budget,
        tenant.dim(),
        tenant.precision().bits(),
        slo.max_predicted_instability
    );

    // Wiki'17 bootstraps the live snapshot; the Wiki'18 retrain must pass
    // the gate. Nothing downstream is retrained to make this decision.
    let dim = tenant.dim();
    let e17 = train_embedding(Algo::Cbow, &world.stats17, world.vocab(), dim, 0);
    let e18 = train_embedding(Algo::Cbow, &world.stats18, world.vocab(), dim, 0);
    let boot = registry.submit("shared", &e17).expect("bootstrap");
    println!(
        "[serve] Wiki'17 bootstrap published as {}",
        boot.version().expect("bootstrap is live")
    );
    match registry.submit("shared", &e18).expect("gate") {
        GateOutcome::Promoted {
            version,
            evaluation,
        } => println!(
            "[serve] Wiki'18 retrain scored EIS {:.4} <= SLO -> promoted as {version}",
            evaluation.predicted_instability
        ),
        GateOutcome::Held { evaluation } => println!(
            "[serve] Wiki'18 retrain scored EIS {:.4} > SLO -> held, previous snapshot stays live",
            evaluation.predicted_instability
        ),
        GateOutcome::Bootstrapped { .. } => unreachable!("store already has a live snapshot"),
    }

    // The served lookup path is batched: one cosine top-k call answers a
    // whole batch of nearest-neighbor queries against the live snapshot.
    let live = registry
        .tenant("shared")
        .expect("registered")
        .live()
        .expect("live snapshot");
    let query_ids = [0u32, 1, 2, 3];
    let neighbors = live.nearest_batch(&live.lookup_batch(&query_ids), 2);
    let shown: Vec<String> = query_ids
        .iter()
        .zip(&neighbors)
        .map(|(q, nn)| format!("{q}->{}", nn[1].0))
        .collect();
    println!(
        "[serve] batched 2-NN for {} queries in one call: {}\n",
        query_ids.len(),
        shown.join(" ")
    );

    println!("The server operator chose hyperparameters without training a single");
    println!("downstream model (paper Section 4.2).");
}
