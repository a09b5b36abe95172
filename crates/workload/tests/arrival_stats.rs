//! Statistical validation of the arrival processes: empirical mean and
//! coefficient of variation against closed-form values, using the same
//! `stats` machinery PMM itself runs on.

use simkit::{Rng, SeedSequence};
use stats::SampleSummary;
use workload::{ArrivalProcess, ArrivalSpec, Mmpp, Poisson, Trace};

/// Empirical `(mean, cv)` of `n` inter-arrival gaps.
fn gap_stats(process: &mut dyn ArrivalProcess, rng: &mut Rng, n: usize) -> (f64, f64) {
    let (mut sum, mut sum_sq) = (0.0, 0.0);
    for _ in 0..n {
        let g = process
            .next_interarrival(rng)
            .expect("process stays alive")
            .as_secs_f64();
        sum += g;
        sum_sq += g * g;
    }
    let mean = sum / n as f64;
    let var = (sum_sq - sum * sum / n as f64) / (n as f64 - 1.0);
    (mean, var.sqrt() / mean)
}

#[test]
fn poisson_gaps_match_exponential_closed_form() {
    let mut rng = SeedSequence::new(2024).stream("poisson-stats");
    let rate = 0.07;
    let n = 200_000;
    let (mean, cv) = gap_stats(&mut Poisson::new(rate), &mut rng, n);
    let expected = 1.0 / rate;
    assert!(
        (mean - expected).abs() / expected < 0.02,
        "mean {mean} vs {expected}"
    );
    // Exponential gaps: CV = 1.
    assert!((cv - 1.0).abs() < 0.02, "cv {cv}");
}

#[test]
fn mmpp_mean_matches_stationary_closed_form() {
    // Asymmetric states: λ = (0.02, 0.20), sojourn means (300 s, 100 s).
    // π₀ = σ₁/(σ₀+σ₁) = 0.75 ⇒ λ̄ = 0.065, mean gap = 1/λ̄.
    let mut m = Mmpp::new([0.02, 0.20], [1.0 / 300.0, 1.0 / 100.0]);
    let closed_form = m.mean_rate();
    assert!((closed_form - 0.065).abs() < 1e-12);
    let mut rng = SeedSequence::new(7).stream("mmpp-stats");
    let n = 200_000;
    let (mean, cv) = gap_stats(&mut m, &mut rng, n);
    // The renewal-reward mean needs a long horizon; 2% is comfortable at n.
    let expected = 1.0 / closed_form;
    assert!(
        (mean - expected).abs() / expected < 0.02,
        "mean {mean} vs {expected}"
    );
    // Markov modulation makes gaps over-dispersed relative to Poisson.
    assert!(cv > 1.1, "MMPP must be burstier than Poisson, cv {cv}");
}

#[test]
fn mmpp_with_equal_rates_degenerates_to_poisson() {
    let mut m = Mmpp::bursty(0.06, 1.0, 600.0);
    let mut rng = SeedSequence::new(3).stream("mmpp-degenerate");
    let (mean, cv) = gap_stats(&mut m, &mut rng, 100_000);
    assert!(
        (mean - 1.0 / 0.06).abs() / (1.0 / 0.06) < 0.02,
        "mean {mean}"
    );
    assert!((cv - 1.0).abs() < 0.03, "cv {cv}");
}

#[test]
fn burstier_ratio_raises_cv_monotonically() {
    let mut last_cv = 0.0;
    for ratio in [1.0, 4.0, 16.0] {
        let mut m = Mmpp::bursty(0.06, ratio, 600.0);
        let mut rng = SeedSequence::new(11).stream("mmpp-ratio");
        let (_, cv) = gap_stats(&mut m, &mut rng, 100_000);
        assert!(
            cv > last_cv,
            "cv must grow with the burst ratio: {cv} after {last_cv}"
        );
        last_cv = cv;
    }
}

#[test]
fn deterministic_has_zero_variance() {
    // Periodic arrivals: a one-gap trace, cycled.
    let mut rng = Rng::new(5);
    let (mean, cv) = gap_stats(&mut Trace::from_gaps(vec![10.0], true), &mut rng, 1_000);
    assert!((mean - 10.0).abs() < 1e-9);
    assert!(cv.abs() < 1e-12);
}

#[test]
fn empirical_means_pass_hypothesis_test_against_closed_form() {
    // Frame the check the way PMM would: a large-sample test that the mean
    // gap differs from the closed-form value must NOT reject.
    for (spec, label) in [
        (ArrivalSpec::poisson(0.05), "poisson"),
        (ArrivalSpec::bursty(0.05, 6.0, 400.0), "mmpp"),
    ] {
        let mut p = spec.build();
        let mut rng = SeedSequence::new(42).stream(label);
        let n = 150_000u64;
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for _ in 0..n {
            let g = p
                .next_interarrival(&mut rng)
                .expect("live process")
                .as_secs_f64();
            sum += g;
            sum_sq += g * g;
        }
        let mean = sum / n as f64;
        let var = (sum_sq - sum * sum / n as f64) / (n - 1) as f64;
        let empirical = SampleSummary::new(mean, var, n);
        let reference = SampleSummary::new(1.0 / spec.mean_rate(), var, n);
        assert!(
            !stats::means_differ_test(empirical, reference, 0.99),
            "{label}: empirical mean {mean} rejected against closed form {}",
            1.0 / spec.mean_rate()
        );
    }
}
