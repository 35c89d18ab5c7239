//! Property-based tests for the linear-algebra substrate.

use embedstab_linalg::cosine::cmp_desc_nan_last;
use embedstab_linalg::{align, cholesky, lstsq, orthogonal_procrustes, vecops, CosineIndex, Mat};
use proptest::prelude::*;

/// Strategy: a matrix with bounded entries and shape in the given ranges.
fn mat_strategy(
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) -> impl Strategy<Value = Mat> {
    (rows, cols).prop_flat_map(|(m, n)| {
        proptest::collection::vec(-10.0f64..10.0, m * n)
            .prop_map(move |data| Mat::from_vec(m, n, data))
    })
}

/// Strategy: an `n x d` matrix with n in [2, 300] and d in [1, 40], with
/// entries in [-2, 2] that are either rounded to integers (many exact
/// score ties) or left fractional (rounding-sensitive sums), and with a
/// zero row and a row holding a NaN planted at random positions.
fn degenerate_mat_strategy() -> impl Strategy<Value = Mat> {
    (2usize..=300, 1usize..=40).prop_flat_map(|(n, d)| {
        (
            (proptest::collection::vec(-2.0f64..2.0, n * d), 0u8..2),
            0..n,
            0..n,
            0..d,
        )
            .prop_map(move |((data, round), zero, nan, col)| {
                let data = data
                    .into_iter()
                    .map(|x| if round == 1 { x.round() } else { x })
                    .collect();
                let mut m = Mat::from_vec(n, d, data);
                m.row_mut(zero).fill(0.0);
                m.row_mut(nan)[col] = f64::NAN;
                m
            })
    })
}

/// The ranking `CosineIndex::top_k` promises, by brute force: every row's
/// `cosine_similarity` fully sorted (descending, NaN last, lower id first).
fn brute_top_k(m: &Mat, q: &[f64], k: usize, skip: Option<u32>) -> Vec<(u32, u64)> {
    let mut all: Vec<(u32, f64)> = (0..m.rows() as u32)
        .filter(|&j| Some(j) != skip)
        .map(|j| (j, vecops::cosine_similarity(q, m.row(j as usize))))
        .collect();
    all.sort_by(|a, b| cmp_desc_nan_last(a.1, b.1).then(a.0.cmp(&b.0)));
    all.iter().take(k).map(|&(j, s)| (j, s.to_bits())).collect()
}

/// Strategy: a tall matrix (rows >= cols).
fn tall_mat_strategy() -> impl Strategy<Value = Mat> {
    (1usize..8, 0usize..12).prop_flat_map(|(n, extra)| {
        let m = n + extra;
        proptest::collection::vec(-10.0f64..10.0, m * n)
            .prop_map(move |data| Mat::from_vec(m, n, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn svd_reconstructs(a in mat_strategy(1..20, 1..10)) {
        let svd = a.svd();
        let scale = a.frobenius_norm().max(1.0);
        prop_assert!(svd.reconstruct().sub(&a).frobenius_norm() / scale < 1e-8);
    }

    #[test]
    fn svd_values_sorted_and_nonnegative(a in mat_strategy(1..20, 1..10)) {
        let svd = a.svd();
        for w in svd.s.windows(2) {
            prop_assert!(w[0] + 1e-12 >= w[1]);
        }
        prop_assert!(svd.s.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn svd_frobenius_identity(a in mat_strategy(1..20, 1..10)) {
        // sum of squared singular values equals squared Frobenius norm.
        let svd = a.svd();
        let sum_sq: f64 = svd.s.iter().map(|x| x * x).sum();
        let f = a.frobenius_norm_sq();
        prop_assert!((sum_sq - f).abs() <= 1e-8 * f.max(1.0));
    }

    #[test]
    fn qr_q_orthonormal_and_reconstructs(a in tall_mat_strategy()) {
        let (q, r) = a.qr();
        let eye = Mat::identity(a.cols());
        prop_assert!(q.gram().sub(&eye).frobenius_norm() < 1e-8);
        let scale = a.frobenius_norm().max(1.0);
        prop_assert!(q.matmul(&r).sub(&a).frobenius_norm() / scale < 1e-8);
    }

    #[test]
    fn matmul_associates_with_vectors(
        a in mat_strategy(1..8, 1..8),
        xs in proptest::collection::vec(-5.0f64..5.0, 1..8)
    ) {
        // (A x) computed two ways: matvec vs 1-column matmul.
        prop_assume!(xs.len() == a.cols());
        let x_mat = Mat::from_vec(xs.len(), 1, xs.clone());
        let via_mm = a.matmul(&x_mat);
        let via_mv = a.matvec(&xs);
        for i in 0..a.rows() {
            prop_assert!((via_mm[(i, 0)] - via_mv[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn procrustes_is_orthogonal_and_never_hurts(
        x in mat_strategy(4..15, 2..5),
        seed in 0u64..1000
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        prop_assume!(x.cols() <= x.rows());
        let y = Mat::random_normal(x.rows(), x.cols(), &mut rng);
        let omega = orthogonal_procrustes(&x, &y);
        let eye = Mat::identity(x.cols());
        prop_assert!(omega.gram().sub(&eye).frobenius_norm() < 1e-7);
        let aligned = align(&x, &y);
        prop_assert!(
            x.sub(&aligned).frobenius_norm() <= x.sub(&y).frobenius_norm() + 1e-7
        );
    }

    #[test]
    fn cholesky_roundtrip_on_gram(a in tall_mat_strategy()) {
        // A^T A + eps I is SPD; L L^T must reconstruct it.
        let mut g = a.gram();
        for i in 0..g.rows() {
            g[(i, i)] += 1e-6;
        }
        let l = cholesky(&g).expect("SPD by construction");
        let recon = l.matmul_nt(&l);
        let scale = g.frobenius_norm().max(1.0);
        prop_assert!(recon.sub(&g).frobenius_norm() / scale < 1e-9);
    }

    #[test]
    fn lstsq_residual_orthogonal_to_columns(a in tall_mat_strategy()) {
        prop_assume!(a.rows() > a.cols());
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let y = Mat::random_normal(a.rows(), 1, &mut rng);
        if let Some(w) = lstsq(&a, &y, 1e-9) {
            let resid = y.sub(&a.matmul(&w));
            let at_r = a.matmul_tn(&resid);
            // Normal equations: A^T r ~ 0 (up to the tiny ridge).
            prop_assert!(at_r.frobenius_norm() < 1e-4 * y.frobenius_norm().max(1.0));
        }
    }

    #[test]
    fn transpose_involution(a in mat_strategy(1..12, 1..12)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn cosine_top_k_is_exact(m in degenerate_mat_strategy(), k_frac in 0.0f64..1.2) {
        // k from 1 past the row count, so `k >= rows` is covered too.
        let k = 1 + (k_frac * m.rows() as f64) as usize;
        let index = CosineIndex::new(&m);
        // Every row as a query, once excluding itself, once not.
        let ids: Vec<u32> = (0..m.rows() as u32).collect();
        for exclude in [Some(ids.as_slice()), None] {
            let got = index.top_k(&m, k, exclude).expect("shapes match");
            prop_assert_eq!(got.len(), m.rows());
            for (q, nbrs) in got.iter().enumerate() {
                let bits: Vec<(u32, u64)> = nbrs.iter().map(|&(j, s)| (j, s.to_bits())).collect();
                let skip = exclude.map(|_| q as u32);
                prop_assert_eq!(bits, brute_top_k(&m, m.row(q), k, skip));
            }
        }
    }
}
