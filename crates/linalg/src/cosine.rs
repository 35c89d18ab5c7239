//! Exact cosine top-k: the one nearest-neighbor kernel behind the k-NN
//! instability measure and the serving layer's nearest-word queries.
//!
//! A [`CosineIndex`] is built once per matrix. It holds every row's norm
//! (from [`vecops::norm2`]) and a transposed `dim x rows` copy of the
//! matrix, so scoring a query walks the vocabulary with unit stride: for
//! each component `i = 0..dim` it adds `q[i] * row[i]` into every row's
//! accumulator at once. Each accumulator starts at `0.0` and sums in index
//! order with a plain multiply and add (no `mul_add`), which is exactly
//! [`vecops::dot`]'s order, so every score is **bitwise equal** to
//! [`vecops::cosine_similarity`] of the query and that row: `0` when
//! either norm is `0`, NaN when a component is not finite, otherwise the
//! quotient clamped to `[-1, 1]`. The scores do not depend on the CPU the
//! kernel runs on.
//!
//! Ranking uses [`cmp_desc_nan_last`] with ties broken toward the lower
//! row id, a strict total order, so the top-k set is unique: a partial
//! selection (`select_nth_unstable_by`) on a reused buffer finds it, and
//! only the `k` survivors are sorted.

use std::cmp::Ordering;

use crate::{vecops, Mat};

/// Queries scored together: each pass over a tile of the transposed
/// matrix feeds this many accumulator rows.
const QUERY_BLOCK: usize = 4;

/// Rows scored per tile, so a block's accumulators stay in L1
/// (`QUERY_BLOCK * ROW_TILE * 8` bytes = 8 KiB).
const ROW_TILE: usize = 256;

/// A total order over `f64` that places **every** NaN after every number.
///
/// `f64::total_cmp` alone is not enough for "lowest value wins" scans:
/// runtime-computed NaNs (`0.0 / 0.0`, `inf - inf`) carry the sign bit on
/// x86-64, and `total_cmp` orders negative NaNs *before* `-inf` — so a
/// degenerate value would silently win a `min_by`. Here NaNs of either
/// sign compare greater than all numbers (and equal to each other).
pub fn cmp_nan_last(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.total_cmp(&b),
    }
}

/// The descending companion of [`cmp_nan_last`]: larger numbers first,
/// NaNs of either sign still last (a plain reversed comparison would move
/// them to the front).
pub fn cmp_desc_nan_last(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => b.total_cmp(&a),
    }
}

/// The neighbor ranking: descending score, NaN last, lower id first.
fn rank(a: &(f64, u32), b: &(f64, u32)) -> Ordering {
    cmp_desc_nan_last(a.0, b.0).then(a.1.cmp(&b.1))
}

/// Candidates a selection round lets through past the current top `k`
/// before it compacts the buffer back to `k`.
const SELECT_SLACK: usize = 64;

/// The `k` best rows by [`rank`] (row `skip` left out), best first.
///
/// `cand` is a reused buffer holding every row that can still make the
/// top `k`. Whenever it grows `SELECT_SLACK` past `k`, a selection round
/// (`select_nth_unstable_by`) keeps only the best `k`; the `k`-th of them
/// becomes the bar, and a later row that does not rank before the bar is
/// skipped, since `k` rows already rank ahead of it.
fn select_top_k(
    scores: &[f64],
    k: usize,
    skip: Option<usize>,
    cand: &mut Vec<(f64, u32)>,
) -> Vec<(u32, f64)> {
    cand.clear();
    if k == 0 {
        return Vec::new();
    }
    let mut bar: Option<(f64, u32)> = None;
    for (j, &s) in scores.iter().enumerate() {
        let c = (s, j as u32);
        // `s < b.0` is the cheap common case of "ranks after the bar".
        if Some(j) == skip || bar.is_some_and(|b| s < b.0 || rank(&c, &b) != Ordering::Less) {
            continue;
        }
        cand.push(c);
        if cand.len() == k + SELECT_SLACK {
            cand.select_nth_unstable_by(k - 1, rank);
            cand.truncate(k);
            bar = cand.last().copied();
        }
    }
    if cand.len() > k {
        cand.select_nth_unstable_by(k - 1, rank);
        cand.truncate(k);
    }
    cand.sort_unstable_by(rank);
    cand.iter().map(|&(s, j)| (j, s)).collect()
}

/// Row norms plus a transposed copy of a matrix, for exact cosine top-k
/// queries against its rows. See the [module docs](self).
#[derive(Clone, Debug, PartialEq)]
pub struct CosineIndex {
    rows: usize,
    dim: usize,
    norms: Vec<f64>,
    /// `dim x rows`, row-major: `cols[i * rows + j]` is row `j`'s
    /// component `i`.
    cols: Vec<f64>,
}

impl CosineIndex {
    /// Indexes the rows of `mat`.
    pub fn new(mat: &Mat) -> CosineIndex {
        let (rows, dim) = mat.shape();
        CosineIndex {
            rows,
            dim,
            norms: (0..rows).map(|j| vecops::norm2(mat.row(j))).collect(),
            cols: mat.transpose().into_vec(),
        }
    }

    /// The `k` rows most cosine-similar to each row of `queries`, best
    /// first (descending score, NaN last, ties toward the lower row id),
    /// as `(row id, score)` pairs. Each score is bitwise equal to
    /// [`vecops::cosine_similarity`]`(query, row)`.
    ///
    /// `exclude[qi]`, when given, is a row left out of query `qi`'s
    /// candidates (the k-NN measure excludes the query word itself); an
    /// out-of-range entry excludes nothing. `k` is capped at the number of
    /// candidates, so `k >= rows` ranks them all.
    ///
    /// Returns `None` if the queries' dimension differs from the rows', or
    /// if `exclude` has a length other than `queries.rows()`.
    pub fn top_k(
        &self,
        queries: &Mat,
        k: usize,
        exclude: Option<&[u32]>,
    ) -> Option<Vec<Vec<(u32, f64)>>> {
        if queries.cols() != self.dim || exclude.is_some_and(|e| e.len() != queries.rows()) {
            return None;
        }
        let rows = self.rows;
        if rows == 0 {
            return Some(vec![Vec::new(); queries.rows()]);
        }
        let k = k.min(rows);
        let mut out = Vec::with_capacity(queries.rows());
        let mut scores = vec![0.0; QUERY_BLOCK * rows];
        let mut cand: Vec<(f64, u32)> = Vec::with_capacity((k + SELECT_SLACK).min(rows));
        let query_rows: Vec<&[f64]> = (0..queries.rows()).map(|r| queries.row(r)).collect();
        for (b0, block) in query_rows.chunks(QUERY_BLOCK).enumerate() {
            let scores = &mut scores[..block.len() * rows];
            self.cosine_block(block, scores);
            for (b, row_scores) in scores.chunks_exact(rows).enumerate() {
                let skip = exclude
                    .and_then(|e| e.get(b0 * QUERY_BLOCK + b))
                    .map(|&s| s as usize);
                out.push(select_top_k(row_scores, k, skip, &mut cand));
            }
        }
        Some(out)
    }

    /// Cosine scores of up to [`QUERY_BLOCK`] queries against every row:
    /// `scores[b * rows + j]` for query `b` and row `j`. Needs `rows > 0`.
    fn cosine_block(&self, queries: &[&[f64]], scores: &mut [f64]) {
        let rows = self.rows;
        scores.fill(0.0);
        // Four components per pass over the accumulators; the expression
        // `((a + q0 x0) + q1 x1) + ...` keeps `vecops::dot`'s order.
        let quads = self.cols.chunks_exact(4 * rows);
        let tail = quads.remainder();
        let tail_start = self.dim - self.dim % 4;
        for t in (0..rows).step_by(ROW_TILE) {
            let tile = t..(t + ROW_TILE).min(rows);
            for (g, quad) in quads.clone().enumerate() {
                let i = 4 * g;
                let [c0, c1, c2, c3] = [0, 1, 2, 3].map(|r| &quad[r * rows..][tile.clone()]);
                for (q, acc) in queries.iter().zip(scores.chunks_exact_mut(rows)) {
                    let (q0, q1, q2, q3) = (q[i], q[i + 1], q[i + 2], q[i + 3]);
                    let cols = c0.iter().zip(c1).zip(c2).zip(c3);
                    for (a, (((&x0, &x1), &x2), &x3)) in acc[tile.clone()].iter_mut().zip(cols) {
                        *a = *a + q0 * x0 + q1 * x1 + q2 * x2 + q3 * x3;
                    }
                }
            }
            for (r, col) in tail.chunks_exact(rows).enumerate() {
                let col = &col[tile.clone()];
                for (q, acc) in queries.iter().zip(scores.chunks_exact_mut(rows)) {
                    let qi = q[tail_start + r];
                    for (a, &x) in acc[tile.clone()].iter_mut().zip(col) {
                        *a += qi * x;
                    }
                }
            }
        }
        for (q, acc) in queries.iter().zip(scores.chunks_exact_mut(rows)) {
            let qn = vecops::norm2(q);
            for (s, &wn) in acc.iter_mut().zip(&self.norms) {
                // Computed unconditionally, then discarded for a zero
                // norm, so the loop stays branch-free.
                let cos = (*s / (qn * wn)).clamp(-1.0, 1.0);
                *s = if qn == 0.0 || wn == 0.0 { 0.0 } else { cos };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatched_and_empty_shapes() {
        let index = CosineIndex::new(&Mat::zeros(3, 2));
        assert!(index.top_k(&Mat::zeros(1, 3), 1, None).is_none());
        assert!(index.top_k(&Mat::zeros(2, 2), 1, Some(&[0])).is_none());
        assert_eq!(index.top_k(&Mat::zeros(0, 2), 1, None), Some(Vec::new()));
        let empty = CosineIndex::new(&Mat::zeros(0, 2));
        assert_eq!(
            empty.top_k(&Mat::zeros(2, 2), 1, None),
            Some(vec![vec![]; 2])
        );
        let flat = CosineIndex::new(&Mat::zeros(2, 0));
        assert_eq!(
            flat.top_k(&Mat::zeros(1, 0), 5, None),
            Some(vec![vec![(0, 0.0), (1, 0.0)]])
        );
    }
}
