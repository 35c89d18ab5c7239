//! The k-nearest-neighbors measure (Hellrich & Hahn 2016; Antoniak & Mimno
//! 2018; Wendlandt et al. 2018).

use embedstab_embeddings::Embedding;
use embedstab_linalg::CosineIndex;
use rand::{Rng, RngExt, SeedableRng};

use super::DistanceMeasure;

/// The k-NN measure: average overlap of the `k` nearest neighbors (by
/// cosine similarity) of `Q` randomly sampled query words, reported as the
/// distance `1 - overlap`.
///
/// The paper uses `k = 5` (tuned in Appendix D.3) and `Q = 1000`.
///
/// Neighbors come from [`CosineIndex::top_k`], whose scores equal
/// [`vecops::cosine_similarity`](embedstab_linalg::vecops::cosine_similarity)
/// bit for bit, ranked descending with NaN last and ties toward the lower
/// word id. A zero vector scores `0` against everything; only non-finite
/// components give NaN similarities, which rank below every real neighbor.
#[derive(Clone, Debug)]
pub struct KnnMeasure {
    k: usize,
    queries: usize,
    seed: u64,
}

impl KnnMeasure {
    /// Creates the measure with `k` neighbors and `queries` sampled query
    /// words (capped at the vocabulary size at evaluation time).
    ///
    /// # Panics
    ///
    /// Panics if `k` or `queries` is zero.
    pub fn new(k: usize, queries: usize, seed: u64) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(queries > 0, "queries must be positive");
        KnnMeasure { k, queries, seed }
    }

    /// The neighbor count `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Mean top-`k` neighbor overlap in `[0, 1]` (1 = identical neighbor
    /// structure).
    ///
    /// # Panics
    ///
    /// Panics if vocabularies differ or have fewer than 2 words.
    pub fn overlap(&self, x: &Embedding, y: &Embedding) -> f64 {
        assert_eq!(x.vocab_size(), y.vocab_size(), "vocabulary mismatch");
        let n = x.vocab_size();
        assert!(n >= 2, "need at least two words for neighbors");
        let k = self.k.min(n - 1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let queries = sample_distinct(self.queries.min(n), n, &mut rng);
        let nx = neighbors(x, &queries, k);
        let ny = neighbors(y, &queries, k);
        let mut total = 0.0;
        for (a, b) in nx.iter().zip(&ny) {
            let inter = a
                .iter()
                .filter(|(w, _)| b.iter().any(|(v, _)| v == w))
                .count();
            total += inter as f64 / k as f64;
        }
        total / queries.len() as f64
    }
}

/// The `k` nearest neighbors of each query word, the word itself excluded.
fn neighbors(emb: &Embedding, queries: &[u32], k: usize) -> Vec<Vec<(u32, f64)>> {
    let rows: Vec<usize> = queries.iter().map(|&q| q as usize).collect();
    CosineIndex::new(emb.mat())
        .top_k(&emb.mat().select_rows(&rows), k, Some(queries))
        .expect("query rows come from the indexed matrix")
}

impl DistanceMeasure for KnnMeasure {
    fn name(&self) -> &'static str {
        "1 - k-NN"
    }

    fn distance(&self, x: &Embedding, y: &Embedding) -> f64 {
        1.0 - self.overlap(x, y)
    }
}

fn sample_distinct(count: usize, n: usize, rng: &mut impl Rng) -> Vec<u32> {
    if count >= n {
        return (0..n as u32).collect();
    }
    // Partial Fisher-Yates.
    let mut ids: Vec<u32> = (0..n as u32).collect();
    for i in 0..count {
        let j = rng.random_range(i..n);
        ids.swap(i, j);
    }
    ids.truncate(count);
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use embedstab_linalg::{vecops, Mat};

    /// The per-pair scan the kernel replaced, kept as the exactness oracle:
    /// indices of the `k` most cosine-similar words to `q` (excluding `q`).
    fn top_k_neighbors(emb: &Embedding, q: u32, k: usize) -> Vec<u32> {
        let qv = emb.vector(q);
        let mut sims: Vec<(f64, u32)> = (0..emb.vocab_size() as u32)
            .filter(|&w| w != q)
            .map(|w| (vecops::cosine_similarity(qv, emb.vector(w)), w))
            .collect();
        sims.select_nth_unstable_by(k - 1, |a, b| {
            crate::stats::cmp_desc_nan_last(a.0, b.0).then(a.1.cmp(&b.1))
        });
        sims.truncate(k);
        sims.into_iter().map(|(_, w)| w).collect()
    }

    #[test]
    fn identical_embeddings_have_full_overlap() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let e = Embedding::new(Mat::random_normal(30, 5, &mut rng));
        let m = KnnMeasure::new(3, 100, 0);
        assert!((m.overlap(&e, &e) - 1.0).abs() < 1e-12);
        assert_eq!(m.distance(&e, &e), 0.0);
    }

    #[test]
    fn rotation_preserves_neighbors() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let x = Mat::random_normal(30, 5, &mut rng);
        let (q, _) = Mat::random_normal(5, 5, &mut rng).qr();
        let y = x.matmul(&q);
        let m = KnnMeasure::new(3, 100, 0);
        assert!(
            m.overlap(&Embedding::new(x), &Embedding::new(y)) > 0.999,
            "cosine neighbors are rotation-invariant"
        );
    }

    #[test]
    fn unrelated_embeddings_have_low_overlap() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let x = Embedding::new(Mat::random_normal(200, 8, &mut rng));
        let y = Embedding::new(Mat::random_normal(200, 8, &mut rng));
        let m = KnnMeasure::new(5, 100, 0);
        let overlap = m.overlap(&x, &y);
        // Random chance of hitting the same neighbor is ~k/n.
        assert!(overlap < 0.15, "overlap {overlap}");
    }

    #[test]
    fn top_k_excludes_query() {
        let e = Embedding::new(Mat::from_rows(&[&[1.0, 0.0], &[0.9, 0.1], &[0.0, 1.0]]));
        let nbrs = top_k_neighbors(&e, 0, 2);
        assert!(!nbrs.contains(&0));
        assert_eq!(nbrs[0], 1, "closest neighbor of word 0 is word 1");
    }

    #[test]
    fn deterministic_queries() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let x = Embedding::new(Mat::random_normal(60, 4, &mut rng));
        let y = Embedding::new(Mat::random_normal(60, 4, &mut rng));
        let m = KnnMeasure::new(5, 20, 11);
        assert_eq!(m.overlap(&x, &y), m.overlap(&x, &y));
    }

    /// An `n x d` matrix: Gaussian, or sign-quantized to `{-1, 0, 1}` so
    /// that scores tie en masse; with a zero row and a NaN row planted.
    fn degenerate_mat(n: usize, d: usize, seed: u64, signs: bool) -> Mat {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut m = Mat::random_normal(n, d, &mut rng);
        if signs {
            for x in m.as_mut_slice() {
                *x = if x.abs() < 0.3 { 0.0 } else { x.signum() };
            }
        }
        let zero = rng.random_range(0..n);
        let nan = rng.random_range(0..n);
        m.row_mut(zero).fill(0.0);
        m.row_mut(nan)[d - 1] = f64::NAN;
        m
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn kernel_neighbors_equal_the_per_pair_oracle(
            (n, d, k) in proptest::prelude::Strategy::prop_flat_map(
                (2usize..=300, 1usize..=40),
                |(n, d)| (proptest::prelude::Just(n), proptest::prelude::Just(d), 1..n),
            ),
            seed in 0u64..1 << 32,
            signs in 0u8..2,
        ) {
            let e = Embedding::new(degenerate_mat(n, d, seed, signs == 1));
            let words: Vec<u32> = (0..n as u32).collect();
            let got = neighbors(&e, &words, k);
            for (&q, nbrs) in words.iter().zip(&got) {
                let mut want = top_k_neighbors(&e, q, k);
                want.sort_unstable();
                let mut ids: Vec<u32> = nbrs.iter().map(|&(w, _)| w).collect();
                ids.sort_unstable();
                proptest::prop_assert_eq!(ids, want);
                for &(w, s) in nbrs {
                    let exact = vecops::cosine_similarity(e.vector(q), e.vector(w));
                    proptest::prop_assert_eq!(s.to_bits(), exact.to_bits());
                }
            }
        }
    }
}
