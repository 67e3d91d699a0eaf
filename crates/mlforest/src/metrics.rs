//! Regression quality metrics.

/// Mean absolute percentage error, skipping zero targets.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn mape(predictions: &[f64], targets: &[f64]) -> f64 {
    check(predictions, targets);
    let mut total = 0.0;
    let mut count = 0usize;
    for (p, t) in predictions.iter().zip(targets) {
        if t.abs() > f64::EPSILON {
            total += ((p - t) / t).abs();
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// The paper's percentage "training accuracy" (§5.1 reports 98.51%):
/// `100 · (1 − MAPE)`, floored at zero.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn accuracy_pct(predictions: &[f64], targets: &[f64]) -> f64 {
    (100.0 * (1.0 - mape(predictions, targets))).max(0.0)
}

fn check(predictions: &[f64], targets: &[f64]) {
    assert_eq!(predictions.len(), targets.len(), "prediction/target length mismatch");
    assert!(!predictions.is_empty(), "metrics need at least one sample");
}

/// Mean squared error.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
#[cfg(test)]
pub(crate) fn mse(predictions: &[f64], targets: &[f64]) -> f64 {
    check(predictions, targets);
    predictions.iter().zip(targets).map(|(p, t)| (p - t).powi(2)).sum::<f64>()
        / predictions.len() as f64
}

/// Coefficient of determination R².
///
/// Returns 0.0 when the targets have zero variance (so a perfect constant
/// predictor neither gains nor loses).
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
#[cfg(test)]
pub(crate) fn r2(predictions: &[f64], targets: &[f64]) -> f64 {
    check(predictions, targets);
    let mean = targets.iter().sum::<f64>() / targets.len() as f64;
    let ss_tot: f64 = targets.iter().map(|t| (t - mean).powi(2)).sum();
    if ss_tot == 0.0 {
        return 0.0;
    }
    let ss_res: f64 = predictions.iter().zip(targets).map(|(p, t)| (t - p).powi(2)).sum();
    1.0 - ss_res / ss_tot
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let y = [1.0, 2.0, 3.0];
        assert_eq!(mse(&y, &y), 0.0);
        assert_eq!(r2(&y, &y), 1.0);
        assert_eq!(accuracy_pct(&y, &y), 100.0);
    }

    #[test]
    fn known_errors() {
        let p = [2.0, 4.0];
        let t = [1.0, 2.0];
        assert_eq!(mse(&p, &t), (1.0 + 4.0) / 2.0);
        assert!((mape(&p, &t) - 1.0).abs() < 1e-12);
        assert_eq!(accuracy_pct(&p, &t), 0.0);
    }

    #[test]
    fn r2_of_mean_predictor_is_zero() {
        let t = [1.0, 2.0, 3.0];
        let p = [2.0, 2.0, 2.0];
        assert!(r2(&p, &t).abs() < 1e-12);
    }

    #[test]
    fn r2_degenerate_targets() {
        assert_eq!(r2(&[5.0, 5.0], &[5.0, 5.0]), 0.0);
    }

    #[test]
    fn mape_skips_zero_targets() {
        let p = [10.0, 2.2];
        let t = [0.0, 2.0];
        assert!((mape(&p, &t) - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn length_mismatch_panics() {
        let _ = mse(&[1.0], &[1.0, 2.0]);
    }

    #[cfg(test)]
    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn metric_ranges(
                pairs in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 1..40),
            ) {
                let (p, t): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
                prop_assert!(mse(&p, &t) >= 0.0);
                prop_assert!(r2(&p, &t) <= 1.0 + 1e-12);
                let acc = accuracy_pct(&p, &t);
                prop_assert!((0.0..=100.0).contains(&acc));
            }

            #[test]
            fn mae_bounded_by_rmse(
                pairs in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 2..40),
            ) {
                // Jensen: MAE ≤ sqrt(MSE).
                let (p, t): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
                let mae =
                    p.iter().zip(&t).map(|(p, t)| (p - t).abs()).sum::<f64>() / p.len() as f64;
                prop_assert!(mae <= mse(&p, &t).sqrt() + 1e-9);
            }

            #[test]
            fn shifting_both_preserves_mse(
                pairs in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 2..20),
                shift in -10.0f64..10.0,
            ) {
                let (p, t): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
                let ps: Vec<f64> = p.iter().map(|x| x + shift).collect();
                let ts: Vec<f64> = t.iter().map(|x| x + shift).collect();
                prop_assert!((mse(&p, &t) - mse(&ps, &ts)).abs() < 1e-9);
            }
        }
    }
}
