//! Streaming replication statistics (Welford accumulation).
//!
//! Multi-seed replication ([`crate::harness::execute`]) folds the
//! per-seed [`crate::harness::RunSummary`] traces of one experiment cell into
//! per-eval-point mean / standard deviation / min / max. The accumulator is
//! Welford's online algorithm — numerically stable (no catastrophic
//! cancellation of `E[x²] − E[x]²`) and single-pass, so a cell's statistics
//! can be folded seed by seed without buffering every trace. [`Welford`] also
//! supports [`merge`](Welford::merge) (Chan et al.'s parallel update), so
//! partial accumulations can be combined in any order; mean/variance agree
//! with the two-pass computation to ~1e-12 relative error regardless of the
//! merge tree.

use crate::harness::RunSummary;

/// Welford online accumulator for mean / variance / min / max of a stream.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold one observation into the accumulator.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator into this one (Chan et al.'s parallel
    /// combination). The result summarises the concatenation of both streams;
    /// up to floating-point rounding (~1e-12 relative) it does not depend on
    /// how the stream was split or in which order parts are merged.
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n_total = self.n + other.n;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n_total as f64;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n_total as f64;
        self.n = n_total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations folded in.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the stream (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (n − 1 denominator; 0 for fewer than two
    /// observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation (0 for fewer than two observations).
    pub fn std(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (+∞ if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−∞ if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Snapshot the accumulator as a [`SummaryStats`].
    pub fn summary(&self) -> SummaryStats {
        SummaryStats {
            mean: self.mean(),
            std: self.std(),
            min: self.min,
            max: self.max,
            n: self.n,
        }
    }
}

/// Frozen mean / std / min / max of one replicated quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummaryStats {
    /// Mean over the replicates.
    pub mean: f64,
    /// Unbiased sample standard deviation (0 with fewer than two replicates).
    pub std: f64,
    /// Smallest replicate value.
    pub min: f64,
    /// Largest replicate value.
    pub max: f64,
    /// Number of replicates folded in.
    pub n: u64,
}

impl SummaryStats {
    /// `mean ± std` rendered for report tables.
    pub fn fmt_mean_std(&self, precision: usize) -> String {
        format!("{:.p$}±{:.p$}", self.mean, self.std, p = precision)
    }

    /// `mean±std [n/total]` for quantities only some replicates produced
    /// (e.g. time-to-accuracy, which a seed may never reach): the bracket
    /// shows how many of the `total` replicates contributed. `"n/a"` when
    /// none did.
    pub fn fmt_with_count(&self, precision: usize, total: usize) -> String {
        if self.n == 0 {
            "n/a".to_string()
        } else {
            format!("{} [{}/{}]", self.fmt_mean_std(precision), self.n, total)
        }
    }

    /// `mean,std,n` as CSV fields (no leading separator). When no replicate
    /// produced a value the mean/std fields are left blank — an empty cell
    /// parses as missing data, where a literal 0 would read as a measurement.
    pub fn csv_fields(&self, precision: usize) -> String {
        if self.n == 0 {
            ",,0".to_string()
        } else {
            format!(
                "{:.p$},{:.p$},{}",
                self.mean,
                self.std,
                self.n,
                p = precision
            )
        }
    }
}

/// Replication statistics of one evaluation point (one trace row), folded
/// over seeds.
#[derive(Debug, Clone)]
pub struct PointStats {
    /// Global round index of this evaluation point (identical across seeds —
    /// the evaluation cadence is seed-independent).
    pub round: usize,
    /// Virtual-time statistics.
    pub time: SummaryStats,
    /// Loss statistics.
    pub loss: SummaryStats,
    /// Accuracy statistics.
    pub accuracy: SummaryStats,
    /// Cumulative-energy statistics.
    pub energy: SummaryStats,
}

/// One experiment cell's replicated result: the per-seed [`RunSummary`]s plus
/// their per-eval-point fold.
#[derive(Debug, Clone)]
pub struct CellStats {
    /// Mechanism label (from the first replicate's trace).
    pub mechanism: String,
    /// The run seeds, in replication order (`seeds[0]` is the canonical
    /// single-seed run: with one seed everything here degenerates to it).
    pub seeds: Vec<u64>,
    /// The raw per-seed summaries, in seed order.
    pub per_seed: Vec<RunSummary>,
    /// Per-eval-point statistics over the seeds. Traces can differ in length
    /// (a seed may hit `max_virtual_time` early); point `i` folds every seed
    /// whose trace has an `i`-th evaluation, and its `n` records how many.
    pub points: Vec<PointStats>,
}

impl CellStats {
    /// Fold one cell's per-seed summaries into per-eval-point statistics.
    ///
    /// `seeds` and `per_seed` correspond index-wise (one summary per seed).
    pub fn from_summaries(seeds: Vec<u64>, per_seed: Vec<RunSummary>) -> Self {
        assert_eq!(
            seeds.len(),
            per_seed.len(),
            "one RunSummary per seed required"
        );
        assert!(!per_seed.is_empty(), "cannot fold zero replicates");
        let mechanism = per_seed[0].mechanism.clone();
        let max_len = per_seed.iter().map(|s| s.trace.len()).max().unwrap_or(0);
        let mut points = Vec::with_capacity(max_len);
        for i in 0..max_len {
            let mut time = Welford::new();
            let mut loss = Welford::new();
            let mut accuracy = Welford::new();
            let mut energy = Welford::new();
            let mut round = None;
            for s in &per_seed {
                let Some(p) = s.trace.points().get(i) else {
                    continue;
                };
                round.get_or_insert(p.round);
                time.push(p.time);
                loss.push(p.loss);
                accuracy.push(p.accuracy);
                energy.push(p.energy);
            }
            points.push(PointStats {
                round: round.expect("max_len guarantees at least one seed has this point"),
                time: time.summary(),
                loss: loss.summary(),
                accuracy: accuracy.summary(),
                energy: energy.summary(),
            });
        }
        Self {
            mechanism,
            seeds,
            per_seed,
            points,
        }
    }

    /// The canonical (first-seed) replicate.
    pub fn first(&self) -> &RunSummary {
        &self.per_seed[0]
    }

    /// Statistics of `time_to_accuracy(target)` over the seeds that reach the
    /// target (its `n` says how many did).
    pub fn time_to_accuracy_stats(&self, target: f64) -> SummaryStats {
        let mut acc = Welford::new();
        for s in &self.per_seed {
            if let Some(t) = s.time_to_accuracy(target) {
                acc.push(t);
            }
        }
        acc.summary()
    }

    /// Statistics of `energy_to_accuracy(target)` over the seeds that reach
    /// the target.
    pub fn energy_to_accuracy_stats(&self, target: f64) -> SummaryStats {
        let mut acc = Welford::new();
        for s in &self.per_seed {
            if let Some(e) = s.energy_to_accuracy(target) {
                acc.push(e);
            }
        }
        acc.summary()
    }

    /// Statistics of the average round time over the seeds.
    pub fn average_round_time_stats(&self) -> SummaryStats {
        let mut acc = Welford::new();
        for s in &self.per_seed {
            acc.push(s.average_round_time);
        }
        acc.summary()
    }

    /// Statistics of the final accuracy over the seeds.
    pub fn final_accuracy_stats(&self) -> SummaryStats {
        let mut acc = Welford::new();
        for s in &self.per_seed {
            acc.push(s.final_accuracy);
        }
        acc.summary()
    }

    /// Statistics of the final loss over the seeds.
    pub fn final_loss_stats(&self) -> SummaryStats {
        let mut acc = Welford::new();
        for s in &self.per_seed {
            acc.push(s.final_loss);
        }
        acc.summary()
    }

    /// Statistics of the participation rate over the seeds (robustness
    /// metric; exactly 1.0 everywhere for fault-free runs).
    pub fn participation_rate_stats(&self) -> SummaryStats {
        let mut acc = Welford::new();
        for s in &self.per_seed {
            acc.push(s.participation_rate);
        }
        acc.summary()
    }

    /// Statistics of the rounds-survived count over the seeds (robustness
    /// metric: rounds that produced a global update under fault injection).
    pub fn rounds_survived_stats(&self) -> SummaryStats {
        let mut acc = Welford::new();
        for s in &self.per_seed {
            acc.push(s.rounds_survived as f64);
        }
        acc.summary()
    }
}

/// The replication seed stream: `n` run seeds starting at `base`.
///
/// The contract (relied on by the `--seeds N` experiment flags): replicate
/// `r` uses run seed `base + r`, so replicate 0 **is** the historical
/// single-seed run — `--seeds 1` reproduces byte-identical output — and
/// growing `N` only appends new replicates without renumbering old ones.
pub fn replication_seeds(base: u64, n: usize) -> Vec<u64> {
    (0..n as u64).map(|r| base + r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedml::rng::Rng64;

    fn two_pass(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = if xs.len() < 2 {
            0.0
        } else {
            xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0)
        };
        (mean, var.sqrt())
    }

    /// Property: streaming mean/std matches the two-pass computation to
    /// 1e-12 relative error on seeded random streams of varied scale.
    #[test]
    fn welford_matches_two_pass() {
        for case in 0..32u64 {
            let mut rng = Rng64::seed_from(900 + case);
            let n = 2 + rng.index(200);
            let scale = 10f64.powi(rng.index(9) as i32 - 4);
            let offset = (rng.gaussian()) * scale * 10.0;
            let xs: Vec<f64> = (0..n).map(|_| offset + rng.gaussian() * scale).collect();
            let mut w = Welford::new();
            for &x in &xs {
                w.push(x);
            }
            let (mean, std) = two_pass(&xs);
            let tol = 1e-12 * (1.0 + mean.abs().max(std.abs()));
            assert!(
                (w.mean() - mean).abs() <= tol,
                "case {case}: mean {} vs {}",
                w.mean(),
                mean
            );
            assert!(
                (w.std() - std).abs() <= 1e-12 * (1.0 + std.abs()),
                "case {case}: std {} vs {}",
                w.std(),
                std
            );
            assert_eq!(w.count(), n as u64);
            let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(w.min(), lo);
            assert_eq!(w.max(), hi);
        }
    }

    /// Property: merging partial accumulators gives the same result (to
    /// 1e-12) regardless of how the stream is split or the merge order.
    #[test]
    fn welford_merge_is_order_invariant() {
        for case in 0..32u64 {
            let mut rng = Rng64::seed_from(7_000 + case);
            let n = 3 + rng.index(300);
            let xs: Vec<f64> = (0..n).map(|_| rng.gaussian() * 3.0 + 1.5).collect();

            // Reference: one straight pass.
            let mut whole = Welford::new();
            for &x in &xs {
                whole.push(x);
            }

            // Split into up to 5 random parts, accumulate each, then merge in
            // a rotated order.
            let parts = 1 + rng.index(5);
            let mut accs = vec![Welford::new(); parts];
            for (i, &x) in xs.iter().enumerate() {
                accs[i % parts].push(x);
            }
            let rot = rng.index(parts);
            let mut merged = Welford::new();
            for k in 0..parts {
                merged.merge(&accs[(k + rot) % parts]);
            }

            assert_eq!(merged.count(), whole.count(), "case {case}");
            let tol = 1e-12 * (1.0 + whole.mean().abs());
            assert!(
                (merged.mean() - whole.mean()).abs() <= tol,
                "case {case}: merged mean {} vs {}",
                merged.mean(),
                whole.mean()
            );
            assert!(
                (merged.std() - whole.std()).abs() <= 1e-12 * (1.0 + whole.std()),
                "case {case}: merged std {} vs {}",
                merged.std(),
                whole.std()
            );
            assert_eq!(merged.min(), whole.min());
            assert_eq!(merged.max(), whole.max());
        }
    }

    #[test]
    fn welford_edge_cases() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.std(), 0.0);

        let mut one = Welford::new();
        one.push(3.25);
        assert_eq!(one.mean(), 3.25);
        assert_eq!(one.std(), 0.0);
        assert_eq!(one.min(), 3.25);
        assert_eq!(one.max(), 3.25);

        // Merging with an empty accumulator is the identity, both ways.
        let mut a = Welford::new();
        a.push(1.0);
        a.push(2.0);
        let before = a;
        a.merge(&Welford::new());
        assert_eq!(a, before);
        let mut b = Welford::new();
        b.merge(&before);
        assert_eq!(b, before);
    }

    #[test]
    fn summary_stats_formats_mean_std() {
        let mut w = Welford::new();
        w.push(1.0);
        w.push(3.0);
        let s = w.summary();
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.n, 2);
        assert_eq!(s.fmt_mean_std(1), "2.0±1.4");
        assert_eq!(s.fmt_with_count(1, 3), "2.0±1.4 [2/3]");
        assert_eq!(s.csv_fields(1), "2.0,1.4,2");
        let empty = Welford::new().summary();
        assert_eq!(empty.fmt_with_count(1, 3), "n/a");
        assert_eq!(empty.csv_fields(1), ",,0");
    }

    #[test]
    fn replication_seed_stream_is_contiguous_from_base() {
        assert_eq!(replication_seeds(4242, 1), vec![4242]);
        assert_eq!(replication_seeds(4242, 3), vec![4242, 4243, 4244]);
        assert!(replication_seeds(7, 0).is_empty());
    }
}
