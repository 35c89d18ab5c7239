//! The stability-memory rule of thumb (paper Section 3.3, Appendix C.4).
//!
//! The paper fits `DI_T ≈ C_T - 1.3 * log2(M)` across tasks and algorithms
//! for memory budgets below 10^3 bits/word, and reports that doubling
//! memory cuts disagreement by ~1.3% absolute (5-37% relative). This module
//! packages that fit over experiment observations.

use crate::stats::{linear_log_fit, LinearLogFit, TrendPoint};

/// One experiment observation feeding the rule-of-thumb fit.
#[derive(Clone, Debug)]
pub struct Observation {
    /// A `(task, algorithm)` group label; each distinct label gets its own
    /// intercept, as in Appendix C.4.
    pub group: String,
    /// Memory in bits/word.
    pub memory_bits: f64,
    /// Downstream disagreement, in percent.
    pub disagreement_pct: f64,
}

/// The fitted rule of thumb.
#[derive(Clone, Debug)]
pub struct RuleOfThumb {
    /// Absolute drop in percent disagreement per doubling of memory
    /// (the paper reports ≈ 1.3).
    pub drop_per_doubling: f64,
    /// Group labels, in intercept order.
    pub groups: Vec<String>,
    /// Per-group intercepts `C_T`.
    pub intercepts: Vec<f64>,
    /// Number of observations used.
    pub n_points: usize,
    /// Smallest observed disagreement (percent) among the fitted points.
    pub min_observed_pct: f64,
    /// Largest observed disagreement (percent) among the fitted points.
    pub max_observed_pct: f64,
}

impl RuleOfThumb {
    /// Predicted disagreement (percent) for a group at a given memory.
    ///
    /// # Panics
    ///
    /// Panics if the group is unknown or memory is not positive.
    pub fn predict(&self, group: &str, memory_bits: f64) -> f64 {
        assert!(memory_bits > 0.0, "memory must be positive");
        let idx = self
            .groups
            .iter()
            .position(|g| g == group)
            .expect("unknown group label");
        self.intercepts[idx] - self.drop_per_doubling * memory_bits.log2()
    }

    /// The relative reduction range `(low, high)` implied by a 1-doubling
    /// drop at the observed extremes: the drop over the largest and over
    /// the smallest observed disagreement (the paper computes 5%-37% from
    /// 25.9% and 3.5%). A doubling cannot remove more than all of the
    /// instability, so both ends are bounded to `(0, 1]`: an observed
    /// disagreement at or below the drop (zero, say) gives 1.
    ///
    /// Returns `None` when the drop is not positive (no reduction).
    pub fn relative_reduction(&self) -> Option<(f64, f64)> {
        let drop = self.drop_per_doubling;
        let at = |pct: f64| if pct > drop { drop / pct } else { 1.0 };
        (drop > 0.0).then(|| (at(self.max_observed_pct), at(self.min_observed_pct)))
    }
}

/// Fits the rule of thumb over observations, keeping only points with
/// `memory_bits <= max_memory_bits` (the paper uses 10^3, after which the
/// instability plateaus).
///
/// Returns `None` if no observations survive the filter.
pub fn fit_rule_of_thumb(
    observations: &[Observation],
    max_memory_bits: f64,
) -> Option<RuleOfThumb> {
    let kept: Vec<&Observation> = observations
        .iter()
        .filter(|o| o.memory_bits <= max_memory_bits)
        .collect();
    if kept.is_empty() {
        return None;
    }
    let mut groups: Vec<String> = Vec::new();
    let mut points: Vec<TrendPoint> = Vec::with_capacity(kept.len());
    for o in &kept {
        let task = match groups.iter().position(|g| g == &o.group) {
            Some(i) => i,
            None => {
                groups.push(o.group.clone());
                groups.len() - 1
            }
        };
        points.push(TrendPoint {
            task,
            x: o.memory_bits,
            y: o.disagreement_pct,
        });
    }
    let LinearLogFit { slope, intercepts } = linear_log_fit(&points, groups.len())?;
    let observed = kept.iter().map(|o| o.disagreement_pct);
    Some(RuleOfThumb {
        drop_per_doubling: slope,
        groups,
        intercepts,
        n_points: kept.len(),
        min_observed_pct: observed.clone().fold(f64::INFINITY, f64::min),
        max_observed_pct: observed.fold(f64::NEG_INFINITY, f64::max),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(group: &str, memory: f64, di: f64) -> Observation {
        Observation {
            group: group.to_string(),
            memory_bits: memory,
            disagreement_pct: di,
        }
    }

    #[test]
    fn recovers_paper_style_trend() {
        // Two task groups obeying DI = C - 1.3 log2(M).
        let mut data = Vec::new();
        for &m in &[25.0, 50.0, 100.0, 200.0, 400.0, 800.0] {
            data.push(obs("sst2/cbow", m, 20.0 - 1.3 * m.log2()));
            data.push(obs("ner/mc", m, 14.0 - 1.3 * m.log2()));
        }
        let fit = fit_rule_of_thumb(&data, 1000.0).expect("fit");
        assert!((fit.drop_per_doubling - 1.3).abs() < 1e-6);
        assert!((fit.predict("sst2/cbow", 100.0) - (20.0 - 1.3 * 100.0f64.log2())).abs() < 1e-6);
        assert_eq!(fit.n_points, 12);
    }

    #[test]
    fn memory_filter_applies() {
        let mut data = Vec::new();
        for &m in &[100.0, 200.0, 400.0] {
            data.push(obs("t", m, 10.0 - m.log2()));
        }
        // Plateau points beyond the cutoff would bias the slope; exclude.
        data.push(obs("t", 4000.0, 10.0 - 400.0f64.log2()));
        let fit = fit_rule_of_thumb(&data, 1000.0).expect("fit");
        assert_eq!(fit.n_points, 3);
        assert!((fit.drop_per_doubling - 1.0).abs() < 1e-6);
    }

    fn fit(drop: f64, min_pct: f64, max_pct: f64) -> RuleOfThumb {
        RuleOfThumb {
            drop_per_doubling: drop,
            groups: vec!["g".into()],
            intercepts: vec![0.0],
            n_points: 2,
            min_observed_pct: min_pct,
            max_observed_pct: max_pct,
        }
    }

    #[test]
    fn relative_reduction_matches_paper_arithmetic() {
        // Paper: 1.3/25.9 ~ 0.05 and 1.3/3.5 ~ 0.37.
        let (low, high) = fit(1.3, 3.5, 25.9).relative_reduction().expect("drop");
        assert!((low - 0.05).abs() < 0.001);
        assert!((high - 0.37).abs() < 0.005);
    }

    #[test]
    fn relative_reduction_is_bounded_by_one() {
        // A zero observed minimum would divide by zero; a doubling
        // removes at most all of the instability.
        assert_eq!(
            fit(1.3, 0.0, 25.9).relative_reduction(),
            Some((1.3 / 25.9, 1.0))
        );
        assert_eq!(fit(1.3, 0.0, 0.5).relative_reduction(), Some((1.0, 1.0)));
    }

    #[test]
    fn non_positive_drop_has_no_reduction() {
        assert_eq!(fit(0.0, 3.5, 25.9).relative_reduction(), None);
        assert_eq!(fit(-0.4, 3.5, 25.9).relative_reduction(), None);
        assert_eq!(fit(f64::NAN, 3.5, 25.9).relative_reduction(), None);
    }

    #[test]
    fn fit_records_observed_extremes() {
        let data = [
            obs("a", 100.0, 9.0),
            obs("a", 200.0, 7.5),
            obs("b", 100.0, 2.0),
        ];
        let fit = fit_rule_of_thumb(&data, 1000.0).expect("fit");
        assert_eq!((fit.min_observed_pct, fit.max_observed_pct), (2.0, 9.0));
    }

    #[test]
    fn empty_after_filter_is_none() {
        assert!(fit_rule_of_thumb(&[obs("t", 2000.0, 1.0)], 1000.0).is_none());
    }
}
