//! Simulation of the **multicore** variant: computers are M/M/c pools
//! ([`lb_des::multiserver::MultiServerStation`]) instead of single-server
//! M/M/1 stations. Used by the multicore extension experiment to verify
//! the numeric pool-game equilibrium against measured response times.

use crate::scenario::require_run_size;
use lb_des::engine::Engine;
use lb_des::monitor::ResponseTimeMonitor;
use lb_des::multiserver::{MultiServerStation, PoolArrival};
use lb_des::rng::RngStream;
use lb_des::station::Job;
use lb_des::time::SimTime;
use lb_game::error::GameError;
use lb_game::latency::Latency;
use lb_game::multicore::PoolSystem;

/// Measurements from one pooled-system replication.
#[derive(Debug, Clone)]
pub struct PoolSimulationResult {
    /// Mean response time per user.
    pub user_means: Vec<f64>,
    /// Job-averaged system response time.
    pub system_mean: f64,
    /// Jobs generated.
    pub jobs_generated: u64,
}

/// Simulates the pool system under the per-user flow matrix `flows`
/// (rows users, columns pools — e.g. a
/// [`lb_game::multicore::PoolNashOutcome`]'s flows).
///
/// # Errors
///
/// * [`GameError::DimensionMismatch`] when `flows` has the wrong shape.
/// * [`GameError::InfeasibleStrategy`] when a pool would be saturated.
/// * [`GameError::ZeroRunSize`] when `target_jobs` is zero.
pub fn run_pool_replication(
    system: &PoolSystem,
    flows: &[Vec<f64>],
    target_jobs: u64,
    warmup_fraction: f64,
    seed: u64,
) -> Result<PoolSimulationResult, GameError> {
    require_run_size("target_jobs", target_jobs)?;
    let m = system.num_users();
    let n = system.num_pools();
    if flows.len() != m || flows.iter().any(|r| r.len() != n) {
        return Err(GameError::DimensionMismatch {
            expected: m,
            actual: flows.len(),
        });
    }
    let totals = system.pool_totals(flows);
    for (t, p) in totals.iter().zip(system.pools()) {
        if *t >= p.capacity() {
            return Err(GameError::InfeasibleStrategy {
                reason: format!("pool saturated: flow {t} vs capacity {}", p.capacity()),
            });
        }
    }

    let phi = system.total_arrival_rate();
    let horizon_secs = target_jobs as f64 / phi;
    let warmup = SimTime::new(horizon_secs * warmup_fraction);

    #[derive(Debug, Clone, Copy)]
    enum Event {
        Arrival { user: usize },
        Completion { pool: usize, job_id: u64 },
    }

    let mut arrival_streams: Vec<RngStream> =
        (0..m).map(|j| RngStream::new(seed, j as u64)).collect();
    let mut dispatch_streams: Vec<RngStream> = (0..m)
        .map(|j| RngStream::new(seed, (m + j) as u64))
        .collect();
    let mut service_streams: Vec<RngStream> = (0..n)
        .map(|i| RngStream::new(seed, (2 * m + i) as u64))
        .collect();

    let mut pools: Vec<MultiServerStation> = system
        .pools()
        .iter()
        .map(|p| MultiServerStation::new(p.servers))
        .collect();
    let mut monitor = ResponseTimeMonitor::new(m, warmup);
    let mut engine: Engine<Event> = Engine::new();
    engine.set_horizon(SimTime::new(horizon_secs));

    for (j, stream) in arrival_streams.iter_mut().enumerate() {
        let dt = stream.exponential(system.user_rates()[j]);
        engine.schedule_in(dt, Event::Arrival { user: j });
    }

    let mut jobs_generated = 0_u64;
    while let Some(ev) = engine.next_event() {
        match ev {
            Event::Arrival { user } => {
                let dt = arrival_streams[user].exponential(system.user_rates()[user]);
                engine.schedule_in(dt, Event::Arrival { user });

                let pool = dispatch_streams[user].categorical(&flows[user]);
                let service = service_streams[pool].exponential(system.pools()[pool].mu);
                jobs_generated += 1;
                let job = Job {
                    id: jobs_generated,
                    user,
                    arrival: engine.now(),
                    service_time: service,
                };
                if let PoolArrival::StartService(at) = pools[pool].arrive(job, engine.now()) {
                    engine.schedule_at(
                        at,
                        Event::Completion {
                            pool,
                            job_id: job.id,
                        },
                    );
                }
            }
            Event::Completion { pool, job_id } => {
                let (done, next) = pools[pool].complete(job_id, engine.now());
                monitor.record(done.user, done.arrival, engine.now());
                if let Some((promoted, at)) = next {
                    engine.schedule_at(
                        at,
                        Event::Completion {
                            pool,
                            job_id: promoted.id,
                        },
                    );
                }
            }
        }
    }

    Ok(PoolSimulationResult {
        user_means: monitor.user_means(),
        system_mean: monitor.system_mean(),
        jobs_generated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_target_jobs_is_a_typed_error() {
        let system = PoolSystem::new(vec![(4.0, 2)], vec![5.0]).unwrap();
        assert_eq!(
            run_pool_replication(&system, &[vec![5.0]], 0, 0.1, 0).unwrap_err(),
            GameError::ZeroRunSize {
                what: "target_jobs"
            }
        );
    }

    #[test]
    fn simulated_pool_nash_matches_erlang_c_predictions() {
        let system = PoolSystem::new(vec![(4.0, 3), (10.0, 1)], vec![6.0, 8.0]).unwrap();
        let nash = system.nash(1e-6, 300, 1200).unwrap();
        let result = run_pool_replication(&system, &nash.flows, 120_000, 0.1, 99).unwrap();
        for (j, predicted) in nash.user_times.iter().enumerate() {
            let rel = (result.user_means[j] - predicted).abs() / predicted;
            assert!(
                rel < 0.08,
                "user {j}: simulated {} vs predicted {predicted} (rel {rel:.3})",
                result.user_means[j]
            );
        }
        let overall = system.overall_time(&nash.flows);
        let rel = (result.system_mean - overall).abs() / overall;
        assert!(rel < 0.06, "system: {} vs {overall}", result.system_mean);
    }

    #[test]
    fn shape_and_saturation_are_validated() {
        let system = PoolSystem::new(vec![(4.0, 2)], vec![5.0]).unwrap();
        assert!(matches!(
            run_pool_replication(&system, &[vec![5.0, 0.0]], 1000, 0.1, 0),
            Err(GameError::DimensionMismatch { .. })
        ));
        let saturating = vec![vec![8.0]];
        assert!(matches!(
            run_pool_replication(&system, &saturating, 1000, 0.1, 0),
            Err(GameError::InfeasibleStrategy { .. })
        ));
    }

    #[test]
    fn deterministic_per_seed() {
        let system = PoolSystem::new(vec![(4.0, 2), (6.0, 2)], vec![9.0]).unwrap();
        let flows = vec![vec![4.0, 5.0]];
        let a = run_pool_replication(&system, &flows, 30_000, 0.1, 5).unwrap();
        let b = run_pool_replication(&system, &flows, 30_000, 0.1, 5).unwrap();
        assert_eq!(a.user_means, b.user_means);
        assert_eq!(a.jobs_generated, b.jobs_generated);
    }
}
