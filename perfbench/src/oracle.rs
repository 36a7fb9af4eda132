//! Output checks that do not trust the code under test.
//!
//! Certified equilibria are re-checked for an ε-Nash gap within their
//! certificate and for row-stochastic strategies; simulated means are
//! compared with the closed-form M/M/1 value; job counts with the
//! target. The large sparse profiles of the sampled solver are checked
//! with this module's own best-reply water-filling, which the self-test
//! compares against `lb_game::equilibrium::epsilon_nash_gap`.

use lb_game::equilibrium::epsilon_nash_gap;
use lb_game::model::SystemModel;
use lb_game::strategy::StrategyProfile;

/// Relative slack allowed on a re-checked gap over its certificate
/// (floating-point reassociation between the two computations).
const GAP_SLACK: f64 = 1e-6;

/// The verdict of one check.
pub type Check = Result<(), String>;

/// Every row is a probability vector.
pub fn row_stochastic(profile: &StrategyProfile) -> Check {
    for (j, s) in profile.strategies().iter().enumerate() {
        let f = s.fractions();
        if f.iter().any(|x| !x.is_finite() || *x < -1e-12) {
            return Err(format!("row {j} has a negative or non-finite entry"));
        }
        let sum: f64 = f.iter().sum();
        if (sum - 1.0).abs() > 1e-9 {
            return Err(format!("row {j} sums to {sum}"));
        }
    }
    Ok(())
}

/// The exact ε-Nash gap of `profile` is within `bound` (absolute).
pub fn gap_within(model: &SystemModel, profile: &StrategyProfile, bound: f64) -> Check {
    row_stochastic(profile)?;
    let gap = epsilon_nash_gap(model, profile).map_err(|e| format!("gap: {e}"))?;
    if gap.is_finite() && gap <= bound * (1.0 + GAP_SLACK) + 1e-12 {
        Ok(())
    } else {
        Err(format!(
            "epsilon_nash_gap {gap:e} exceeds certified {bound:e}"
        ))
    }
}

/// A relative certificate `max_j r_j / D_j ≤ rel` bounds the absolute
/// gap by `rel · max_j D_j`.
pub fn relative_bound(rel: f64, user_times: &[f64]) -> f64 {
    rel * user_times
        .iter()
        .copied()
        .filter(|d| d.is_finite())
        .fold(0.0, f64::max)
}

/// Best-reply cost `Σ x_i / (a_i − x_i)` of routing `demand` over
/// servers with spare rates `a`, by water-filling (the paper's
/// BEST-REPLY): the optimum uses the fastest servers, with
/// `x_i = a_i − c·√a_i` and `c = (Σ a_i − demand) / Σ √a_i`.
fn best_reply_cost(spare: &mut [f64], demand: f64) -> f64 {
    spare.sort_unstable_by(|a, b| b.total_cmp(a));
    // The support is the largest prefix of the fastest servers whose
    // slowest member still gets a positive flow.
    let (mut sum, mut roots) = (0.0, 0.0);
    let mut cost = f64::INFINITY;
    for (k, &a) in spare.iter().take_while(|&&a| a > 0.0).enumerate() {
        sum += a;
        roots += a.sqrt();
        let c = (sum - demand) / roots;
        if c > 0.0 && a.sqrt() > c {
            cost = roots / c - (k + 1) as f64;
        }
    }
    cost
}

/// Largest per-user regret `r_j = D_j − min D_j` of sparse flow rows
/// (`(computer, flow)` pairs, flows summing to the user's rate), as
/// `(max_j r_j, max_j r_j / D_j)`.
pub fn sparse_gap(model: &SystemModel, rows: &[Vec<(u32, f64)>]) -> Result<(f64, f64), String> {
    let mu = model.computer_rates();
    let mut load = vec![0.0; mu.len()];
    for (j, row) in rows.iter().enumerate() {
        let phi = model.user_rate(j);
        let total: f64 = row.iter().map(|&(_, x)| x).sum();
        if (total - phi).abs() > 1e-9 * phi.max(1.0) || row.iter().any(|&(_, x)| x < -1e-12) {
            return Err(format!("user {j} routes {total} of rate {phi}"));
        }
        for &(i, x) in row {
            load[i as usize] += x;
        }
    }
    let (mut gap, mut rel): (f64, f64) = (0.0, 0.0);
    let mut spare = vec![0.0; mu.len()];
    for (j, row) in rows.iter().enumerate() {
        let phi = model.user_rate(j);
        for (s, (m, l)) in spare.iter_mut().zip(mu.iter().zip(&load)) {
            *s = m - l;
        }
        let mut cost = 0.0;
        for &(i, x) in row {
            let free = mu[i as usize] - load[i as usize];
            cost += x / free;
            spare[i as usize] += x;
        }
        let regret = (cost - best_reply_cost(&mut spare, phi)) / phi;
        gap = gap.max(regret);
        rel = rel.max(regret * phi / cost);
    }
    Ok((gap, rel))
}

/// Dense form of [`sparse_gap`], for comparing with the library.
pub fn dense_gap(model: &SystemModel, profile: &StrategyProfile) -> Result<(f64, f64), String> {
    let rows: Vec<Vec<(u32, f64)>> = profile
        .strategies()
        .iter()
        .enumerate()
        .map(|(j, s)| {
            let phi = model.user_rate(j);
            s.fractions()
                .iter()
                .enumerate()
                .filter(|(_, &f)| f > 0.0)
                .map(|(i, &f)| (i as u32, f * phi))
                .collect()
        })
        .collect();
    sparse_gap(model, &rows)
}

/// Two-sided 97.5% quantiles of Student's t for 1..=9 degrees of freedom.
const T975: [f64; 9] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
];

/// Whether the 95% t-interval of `samples` covers `value`.
pub fn ci95_covers(samples: &[f64], value: f64) -> Check {
    let n = samples.len();
    if !(2..=T975.len() + 1).contains(&n) {
        return Err(format!("{n} replications cannot form a 95% interval"));
    }
    let mean = samples.iter().sum::<f64>() / n as f64;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
    let half = T975[n - 2] * (var / n as f64).sqrt();
    covers(mean, half, value)
}

/// Most misses among `n` independent 95% intervals that a right
/// simulator shows but for a chance of one in a million: the smallest
/// `k` with `P(Binomial(n, 0.05) > k) ≤ 1e-6`.
pub fn max_interval_misses(n: u64) -> u64 {
    let (p, tail) = (0.05, 1e-6);
    let mut pmf = (1.0_f64 - p).powf(n as f64);
    let mut cdf = pmf;
    let mut k = 0;
    while k < n && 1.0 - cdf > tail {
        pmf *= (n - k) as f64 / (k + 1) as f64 * p / (1.0 - p);
        k += 1;
        cdf += pmf;
    }
    k
}

/// Whether `mean ± half_width` covers `value`.
pub fn covers(mean: f64, half_width: f64, value: f64) -> Check {
    if mean.is_finite() && (mean - value).abs() <= half_width {
        Ok(())
    } else {
        Err(format!(
            "simulated mean {mean:.6} ± {half_width:.6} misses closed form {value:.6}"
        ))
    }
}

/// Generated jobs are Poisson around the target: allow six standard
/// deviations.
pub fn jobs_near(jobs: u64, target: u64) -> Check {
    let tol = 6.0 * (target as f64).sqrt();
    if (jobs as f64 - target as f64).abs() <= tol {
        Ok(())
    } else {
        Err(format!("generated {jobs} jobs for a target of {target}"))
    }
}
