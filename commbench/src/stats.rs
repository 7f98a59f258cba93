//! The benchmark's own arithmetic: exact-sample quantiles, the success
//! ratio, and the closure checks that make a traced run's per-layer numbers
//! add up. Everything here is pure, so the unit tests below pin it down.

/// Samples a reported percentile must leave above it. A percentile with
/// fewer samples beyond it is decided by a handful of outliers, so the
/// benchmark refuses to report it.
pub const MIN_BEYOND: usize = 10;

/// The exact `q`-quantile of `samples` by the nearest-rank rule: the
/// smallest sample with at least `q · n` samples at or below it. Sorts
/// `samples` in place. Errs when fewer than [`MIN_BEYOND`] samples lie
/// beyond the chosen rank.
pub fn quantile(samples: &mut [f64], q: f64) -> Result<f64, String> {
    if !(0.0..=1.0).contains(&q) {
        return Err(format!("quantile {q} outside [0, 1]"));
    }
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return Err(format!(
            "p{} needs at least {} samples beyond it; {n} samples leave {}",
            q * 100.0,
            MIN_BEYOND,
            n.saturating_sub(rank)
        ));
    }
    samples.sort_by(f64::total_cmp);
    Ok(samples[rank - 1])
}

/// The median of a small set of repeated measurements (set-up times,
/// per-pass walls). Unlike [`quantile`] it needs no samples beyond it: it
/// summarises repetitions, not a latency distribution. The mean of the two
/// middle values for an even count.
pub fn median(values: &[f64]) -> Result<f64, String> {
    if values.is_empty() {
        return Err("median of no values".into());
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Ok(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The share of attempted items that produced a checked result: the
/// complement of the fail ratio. COMMUTER attempts one representative per
/// isomorphism class and fails it when it was skipped or its replay check
/// failed; mail attempts one message per schedule entry and fails it when
/// it was lost, duplicated or dead-lettered.
pub fn ok_ratio(attempted: u64, failed: u64) -> Result<f64, String> {
    if attempted == 0 {
        return Err("nothing attempted".into());
    }
    if failed > attempted {
        return Err(format!("{failed} failures out of {attempted} attempts"));
    }
    Ok((attempted - failed) as f64 / attempted as f64)
}

/// One worker's view of a traced window: the time it spent inside work
/// units and, within them, the time each layer's spans covered.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkerTime {
    /// Seconds inside work units.
    pub busy_s: f64,
    /// Seconds inside layer spans (each layer's self time, summed).
    pub layers_s: f64,
}

/// The closure of a traced window of `wall_s` seconds on `workers.len()`
/// workers: layer self time plus worker idle must account for
/// `workers × wall` within `tolerance` (a share). Returns the unattributed
/// share — time inside units that no layer span covered — or an error when
/// it exceeds the tolerance or a worker claims more busy time than the
/// window holds.
pub fn worker_closure(wall_s: f64, workers: &[WorkerTime], tolerance: f64) -> Result<f64, String> {
    if wall_s <= 0.0 || workers.is_empty() {
        return Err("closure over an empty window".into());
    }
    let capacity = wall_s * workers.len() as f64;
    let mut accounted = 0.0;
    for (i, w) in workers.iter().enumerate() {
        if w.busy_s > wall_s * (1.0 + tolerance) || w.layers_s > w.busy_s * (1.0 + tolerance) {
            return Err(format!(
                "worker {i}: {:.3} s busy, {:.3} s in layers, in a {wall_s:.3} s window",
                w.busy_s, w.layers_s
            ));
        }
        let idle = (wall_s - w.busy_s).max(0.0);
        accounted += w.layers_s + idle;
    }
    let gap = (capacity - accounted).abs() / capacity;
    if gap > tolerance {
        return Err(format!(
            "layer self time plus idle is {accounted:.3} s of {capacity:.3} s \
             ({:.1}% unattributed, limit {:.1}%)",
            gap * 100.0,
            tolerance * 100.0
        ));
    }
    Ok(gap)
}

/// The mail pipeline's closure: every `recv` the qman issued either
/// delivered a message or came back `EAGAIN`.
pub fn recv_closure(recv_calls: u64, delivered: u64, eagain_polls: u64) -> Result<(), String> {
    if recv_calls != delivered + eagain_polls {
        return Err(format!(
            "{recv_calls} recv calls != {delivered} delivered + {eagain_polls} EAGAIN polls"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_the_nearest_rank_sample() {
        let mut samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut samples, 0.5), Ok(50.0));
        assert_eq!(quantile(&mut samples, 0.9), Ok(90.0));
        assert_eq!(quantile(&mut samples, 0.0), Ok(1.0));
        // 100.5 ranks of 201 samples round up to the 101st.
        let mut odd: Vec<f64> = (0..201).map(f64::from).collect();
        assert_eq!(quantile(&mut odd, 0.5), Ok(100.0));
    }

    #[test]
    fn quantile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples leaves exactly 10 above rank 90.
        let mut enough: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(quantile(&mut enough, 0.9).is_ok());
        let mut short: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(quantile(&mut short, 0.9).is_err());
        // p99 needs 1000 samples.
        let mut thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(quantile(&mut thousand, 0.99), Ok(989.0));
        let mut fewer: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(quantile(&mut fewer, 0.99).is_err());
        assert!(quantile(&mut [], 0.5).is_err());
        assert!(quantile(&mut enough, 1.5).is_err());
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Ok(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Ok(2.5));
        assert_eq!(median(&[7.0]), Ok(7.0));
        assert!(median(&[]).is_err());
    }

    #[test]
    fn ok_ratio_counts_failures_against_attempts() {
        // The cold fs sweep: 2,865 tests built of 4,438 representatives.
        let r = ok_ratio(2865 + 1573, 1573).unwrap();
        assert!((r - 2865.0 / 4438.0).abs() < 1e-12);
        assert_eq!(ok_ratio(20_000, 0), Ok(1.0));
        assert_eq!(ok_ratio(5, 5), Ok(0.0));
        assert!(ok_ratio(0, 0).is_err());
        assert!(ok_ratio(3, 4).is_err());
    }

    #[test]
    fn closure_accepts_small_glue_and_idle() {
        // Two workers over 10 s: one busy 9 s (8.8 s in layers), one busy
        // 7 s (6.9 s in layers). Idle 1 + 3; glue 0.3 s of 20 s.
        let workers = [
            WorkerTime {
                busy_s: 9.0,
                layers_s: 8.8,
            },
            WorkerTime {
                busy_s: 7.0,
                layers_s: 6.9,
            },
        ];
        let gap = worker_closure(10.0, &workers, 0.05).unwrap();
        assert!((gap - 0.015).abs() < 1e-9);
    }

    #[test]
    fn closure_rejects_unattributed_time() {
        // A layer left unspanned: 2 s of a 10 s unit belongs to no layer.
        let workers = [WorkerTime {
            busy_s: 10.0,
            layers_s: 8.0,
        }];
        assert!(worker_closure(10.0, &workers, 0.05).is_err());
        // Busy beyond the window means the window was mismeasured.
        let overfull = [WorkerTime {
            busy_s: 12.0,
            layers_s: 12.0,
        }];
        assert!(worker_closure(10.0, &overfull, 0.05).is_err());
        assert!(worker_closure(0.0, &overfull, 0.05).is_err());
        assert!(worker_closure(1.0, &[], 0.05).is_err());
    }

    #[test]
    fn recv_closure_balances_deliveries_and_polls() {
        assert!(recv_closure(1_500, 1_000, 500).is_ok());
        assert!(recv_closure(1_499, 1_000, 500).is_err());
        assert!(recv_closure(1_501, 1_000, 500).is_err());
    }
}
