//! Cross-entropy loss for multi-class classification.
//!
//! The paper uses the standard softmax cross-entropy loss (Eq. (1)–(2)). This
//! module provides it batched: [`softmax_cross_entropy_batch`] turns a
//! batch of logits into the scaled loss gradient every fused training step
//! starts from, and [`eval_logits_batch`] scores a batch for evaluation.

/// Per-sample loss and gradient with respect to the logits,
/// `(-ln p_label, softmax(logits) − onehot(label))`, with `p_label` clamped
/// away from zero: the head of the per-sample reference trainer (tests
/// only).
#[cfg(test)]
pub(crate) fn cross_entropy_with_grad(logits: &[f64], label: usize) -> (f64, Vec<f64>) {
    assert!(label < logits.len(), "label out of range");
    let mut p = crate::linalg::softmax(logits);
    let loss = -(p[label].max(1e-15)).ln();
    p[label] -= 1.0;
    (loss, p)
}

/// Batched softmax cross-entropy: transform a `rows × classes` row-major
/// logits matrix **in place** into the scaled loss gradient
/// `delta = scale · (softmax(z) − onehot(label))` and return the summed
/// (unscaled) per-sample loss.
///
/// This is the head of every batched backward pass: the returned buffer
/// feeds straight into the `∇W = δᵀ · X` GEMM, with the `1/B` batch
/// normalisation folded into `scale` so no separate rescaling pass is
/// needed.
pub fn softmax_cross_entropy_batch(
    logits: &mut [f64],
    labels: &[usize],
    classes: usize,
    scale: f64,
) -> f64 {
    let rows = labels.len();
    assert_eq!(
        logits.len(),
        rows * classes,
        "softmax_cross_entropy_batch dimension mismatch"
    );
    let mut loss_sum = 0.0;
    for (r, &label) in labels.iter().enumerate() {
        assert!(label < classes, "label out of range");
        let row = &mut logits[r * classes..(r + 1) * classes];
        let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv_sum = 1.0 / sum;
        loss_sum -= (row[label] * inv_sum).max(1e-15).ln();
        for v in row.iter_mut() {
            *v *= inv_sum * scale;
        }
        row[label] -= scale;
    }
    loss_sum
}

/// Batched evaluation of a `rows × classes` logits matrix: returns the summed
/// per-sample cross-entropy loss and the number of rows whose argmax matches
/// the label. One pass, no scratch memory — this is the evaluation-path
/// counterpart of [`softmax_cross_entropy_batch`].
pub fn eval_logits_batch(logits: &[f64], labels: &[usize], classes: usize) -> (f64, usize) {
    let rows = labels.len();
    assert_eq!(
        logits.len(),
        rows * classes,
        "eval_logits_batch dimension mismatch"
    );
    let mut loss_sum = 0.0;
    let mut correct = 0usize;
    for (r, &label) in labels.iter().enumerate() {
        assert!(label < classes, "label out of range");
        let row = &logits[r * classes..(r + 1) * classes];
        let mut max = f64::NEG_INFINITY;
        let mut argmax = 0usize;
        for (i, &v) in row.iter().enumerate() {
            if v > max {
                max = v;
                argmax = i;
            }
        }
        // Stable log-sum-exp form of -ln softmax(z)[label].
        let sum_exp: f64 = row.iter().map(|&v| (v - max).exp()).sum();
        loss_sum += sum_exp.ln() + max - row[label];
        if argmax == label {
            correct += 1;
        }
    }
    (loss_sum, correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Summed loss of one row of logits through the evaluation path.
    fn row_loss(logits: &[f64], label: usize) -> f64 {
        eval_logits_batch(logits, &[label], logits.len()).0
    }

    /// The unscaled head delta `softmax − onehot` of one row.
    fn row_delta(logits: &[f64], label: usize) -> Vec<f64> {
        let mut delta = logits.to_vec();
        softmax_cross_entropy_batch(&mut delta, &[label], logits.len(), 1.0);
        delta
    }

    #[test]
    fn loss_is_ln_k_for_uniform_logits() {
        let logits = [0.0; 10];
        let l = row_loss(&logits, 3);
        assert!((l - (10.0f64).ln()).abs() < 1e-12);
        let mut head = logits;
        let l = softmax_cross_entropy_batch(&mut head, &[3], 10, 1.0);
        assert!((l - (10.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn loss_decreases_when_correct_logit_grows() {
        let mut logits = [0.0; 5];
        let l0 = row_loss(&logits, 2);
        logits[2] = 3.0;
        let l1 = row_loss(&logits, 2);
        assert!(l1 < l0);
    }

    #[test]
    fn gradient_sums_to_zero() {
        let g = row_delta(&[0.3, -1.2, 2.0, 0.0], 1);
        let sum: f64 = g.iter().sum();
        assert!(sum.abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = vec![0.5, -0.2, 1.3];
        let label = 2;
        let g = row_delta(&logits, label);
        let eps = 1e-6;
        for i in 0..logits.len() {
            let mut plus = logits.clone();
            plus[i] += eps;
            let mut minus = logits.clone();
            minus[i] -= eps;
            let fd = (row_loss(&plus, label) - row_loss(&minus, label)) / (2.0 * eps);
            assert!(
                (fd - g[i]).abs() < 1e-6,
                "finite difference {fd} != analytic {g:?}[{i}]"
            );
        }
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_out_of_range_label() {
        let _ = softmax_cross_entropy_batch(&mut [0.0, 0.0], &[2], 2, 1.0);
    }

    #[test]
    fn batched_head_matches_per_sample() {
        let logits = vec![0.5, -0.2, 1.3, /* row 2 */ -1.0, 0.0, 2.5];
        let labels = [2usize, 0];
        let scale = 0.5;
        let mut batch = logits.clone();
        let loss_sum = softmax_cross_entropy_batch(&mut batch, &labels, 3, scale);
        let mut expect_loss = 0.0;
        for (r, &label) in labels.iter().enumerate() {
            let row = &logits[r * 3..(r + 1) * 3];
            let (l, g) = cross_entropy_with_grad(row, label);
            expect_loss += l;
            for (c, gv) in g.iter().enumerate() {
                assert!(
                    (batch[r * 3 + c] - gv * scale).abs() < 1e-12,
                    "delta mismatch at ({r},{c})"
                );
            }
        }
        assert!((loss_sum - expect_loss).abs() < 1e-12);
    }

    #[test]
    fn eval_batch_matches_per_sample_loss_and_argmax() {
        let logits = vec![3.0, 1.0, -1.0, /* row 2 */ 0.0, 0.1, 0.0];
        let labels = [0usize, 2];
        let (loss_sum, correct) = eval_logits_batch(&logits, &labels, 3);
        let expect: f64 = labels
            .iter()
            .enumerate()
            .map(|(r, &l)| cross_entropy_with_grad(&logits[r * 3..(r + 1) * 3], l).0)
            .sum();
        assert!((loss_sum - expect).abs() < 1e-12);
        assert_eq!(correct, 1); // row 0 correct, row 1 predicts class 1
    }

    #[test]
    fn eval_batch_is_stable_for_huge_logits() {
        let logits = vec![1000.0, 999.0];
        let (loss, correct) = eval_logits_batch(&logits, &[0], 2);
        assert!(loss.is_finite() && loss > 0.0);
        assert_eq!(correct, 1);
    }
}
