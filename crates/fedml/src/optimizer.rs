//! Local training (the worker-side update of Eq. (4)).
//!
//! In the paper every participating worker performs one local update
//! `w_t^i = w_{t-1} − γ ∇f_i(w_{t-1})` per round; in practice (and in the
//! authors' PyTorch simulation) the local update is implemented as one or more
//! epochs of mini-batch SGD over the worker's shard. [`local_update_ws`]
//! provides that general form; with `local_epochs = 1` and a batch at least
//! as large as the shard it is the literal full-gradient step of Eq. (4).

use crate::dataset::Dataset;
use crate::model::Model;
use crate::rng::Rng64;
use crate::workspace::Workspace;
use serde::{Deserialize, Serialize};

/// Configuration of the worker-local SGD update.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Learning rate `γ` of Eq. (4).
    pub learning_rate: f64,
    /// Mini-batch size; batches larger than the shard are clamped to the
    /// shard size (i.e. full-batch gradient descent).
    pub batch_size: usize,
    /// Number of passes over the local shard per round.
    pub local_epochs: usize,
}

impl Default for SgdConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.1,
            batch_size: 32,
            local_epochs: 1,
        }
    }
}

impl SgdConfig {
    /// Validate the configuration, panicking with a descriptive message on
    /// nonsensical values. Called by the mechanism runners at start-up.
    pub fn validate(&self) {
        assert!(
            self.learning_rate > 0.0 && self.learning_rate.is_finite(),
            "learning rate must be a positive finite number"
        );
        assert!(self.batch_size > 0, "batch size must be positive");
        assert!(self.local_epochs > 0, "local epochs must be positive");
    }
}

/// Perform the local update of Eq. (4) generalised to `local_epochs` epochs of
/// mini-batch SGD, mutating `model` in place, and return the average
/// training loss observed over the processed batches. This is the
/// zero-steady-state-allocation hot loop of every mechanism simulation.
///
/// Per mini-batch this performs one fused forward/backward/update pass
/// ([`Model::sgd_batch_ws`], all scratch from `ws`); the shuffle order and
/// batch scratch are drawn from — and returned to — the pool, so after the
/// first batch the loop touches the allocator not at all.
pub fn local_update_ws(
    model: &mut dyn Model,
    shard: &Dataset,
    cfg: &SgdConfig,
    rng: &mut Rng64,
    ws: &mut Workspace,
) -> f64 {
    cfg.validate();
    assert!(!shard.is_empty(), "cannot train on an empty shard");
    let batch = cfg.batch_size.min(shard.len());
    let mut order = ws.take_indices(shard.len());
    order.extend(0..shard.len());
    let mut loss_sum = 0.0;
    let mut batches = 0usize;
    for _ in 0..cfg.local_epochs {
        rng.shuffle(&mut order);
        for chunk in order.chunks(batch) {
            loss_sum += model.sgd_batch_ws(shard, chunk, cfg.learning_rate, ws);
            batches += 1;
        }
    }
    ws.give_indices(order);
    loss_sum / batches as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SyntheticSpec;
    use crate::model::LogisticRegression;

    fn toy() -> Dataset {
        let mut rng = Rng64::seed_from(77);
        SyntheticSpec::mnist_like()
            .with_samples_per_class(10)
            .generate(&mut rng)
    }

    #[test]
    fn local_update_reduces_loss() {
        let data = toy();
        let mut rng = Rng64::seed_from(1);
        let mut ws = Workspace::new();
        let mut m = LogisticRegression::new(data.num_features(), data.num_classes());
        let before = m.evaluate_ws(&data, &mut ws).loss;
        let cfg = SgdConfig {
            learning_rate: 0.3,
            batch_size: 16,
            local_epochs: 3,
        };
        local_update_ws(&mut m, &data, &cfg, &mut rng, &mut ws);
        assert!(m.evaluate_ws(&data, &mut ws).loss < before);
    }

    /// One epoch with a batch covering the shard is the literal Eq. (4)
    /// step `w ← w − γ ∇f_i(w)`, reporting the loss before the step.
    #[test]
    fn full_gradient_step_matches_manual_update() {
        let data = toy();
        let mut ws = Workspace::new();
        let mut m = LogisticRegression::new(data.num_features(), data.num_classes());
        let mut manual = m.clone();
        let loss_before = m.evaluate_ws(&data, &mut ws).loss;
        let cfg = SgdConfig {
            learning_rate: 0.1,
            batch_size: data.len(),
            local_epochs: 1,
        };
        let reported = local_update_ws(&mut m, &data, &cfg, &mut Rng64::seed_from(5), &mut ws);
        assert!((reported - loss_before).abs() < 1e-12);
        let all: Vec<usize> = (0..data.len()).collect();
        manual.sgd_batch_ws(&data, &all, 0.1, &mut ws);
        assert!(m.params().dist_sq(&manual.params()) < 1e-20);
    }

    #[test]
    fn batch_size_larger_than_shard_is_clamped() {
        let data = toy();
        let mut rng = Rng64::seed_from(3);
        let mut m = LogisticRegression::new(data.num_features(), data.num_classes());
        let cfg = SgdConfig {
            learning_rate: 0.1,
            batch_size: 10_000,
            local_epochs: 1,
        };
        // Should not panic and should behave like one full-batch step.
        let loss = local_update_ws(&mut m, &data, &cfg, &mut rng, &mut Workspace::new());
        assert!(loss.is_finite());
    }

    #[test]
    #[should_panic(expected = "learning rate must be a positive finite number")]
    fn validate_rejects_bad_learning_rate() {
        SgdConfig {
            learning_rate: -1.0,
            batch_size: 1,
            local_epochs: 1,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "empty shard")]
    fn local_update_rejects_empty_shard() {
        let data = toy();
        let empty = data.subset(&[]);
        let mut rng = Rng64::seed_from(4);
        let mut m = LogisticRegression::new(data.num_features(), data.num_classes());
        local_update_ws(
            &mut m,
            &empty,
            &SgdConfig::default(),
            &mut rng,
            &mut Workspace::new(),
        );
    }
}
