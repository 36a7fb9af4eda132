//! Per-station sharding: one calendar-free FCFS kernel per station.
//!
//! In the paper's model, stations stop interacting the moment the flow
//! split is fixed: user `j` routes a Poisson stream of rate `φ_j` across
//! the computers with probabilities `s_ji`, and by Poisson splitting and
//! superposition each station `i` then receives an *independent* Poisson
//! stream of rate `λ_i = Σ_j s_ji φ_j`. Nothing a station does can ever
//! influence another station's sample path, so a replication does not
//! need one big serial calendar — each station runs on its own
//! [`RngStream`]s, embarrassingly parallel, and the per-station
//! measurements merge deterministically in station-index order.
//!
//! [`run_station_shard`] is that per-station kernel. A single FCFS server
//! fed by a known arrival sequence needs no event calendar: the Lindley
//! recursion `D_k = max(A_k, D_{k−1}) + S_k` gives every departure
//! directly. The kernel draws arrivals in vectorized blocks
//! ([`RngStream::fill_exponential`]), attributes each to a user with an
//! O(1) Walker [`AliasTable`] draw, and folds the recursion over the
//! block in one pass. It reproduces the [`Engine`](crate::Engine) +
//! [`FcfsStation`](crate::FcfsStation) calendar loop it replaced bit for
//! bit; the tests keep that loop as the oracle (DESIGN.md §14).
//!
//! The splitting argument is exact only for Poisson (exponential
//! interarrival) user sources; the `lb-sim` crate routes non-Poisson
//! arrival models to the classic single-calendar engine instead.

use crate::monitor::ResponseTimeMonitor;
use crate::rng::{AliasTable, Distribution, RngStream, SampleBlock};
use crate::time::SimTime;
use lb_telemetry::{Collector, Span, SpanHandle};
use std::sync::Arc;

/// Default number of arrivals generated per batch block.
pub const DEFAULT_SHARD_BATCH: usize = 1024;

/// Static description of one station shard.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Total Poisson arrival rate at this station, `λ_i = Σ_j s_ji φ_j`.
    pub arrival_rate: f64,
    /// Service-time distribution at this station.
    pub service: Distribution,
    /// Run horizon: arrivals and completions after this time are never
    /// observed.
    pub horizon: SimTime,
    /// Warmup cutoff: jobs arriving before it are simulated but not
    /// measured.
    pub warmup: SimTime,
    /// Number of users (width of the per-user statistics).
    pub users: usize,
    /// Arrivals generated per block (see [`DEFAULT_SHARD_BATCH`]).
    pub batch: usize,
}

/// Everything one station shard measures.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Warmup-aware per-user and system response-time statistics for jobs
    /// served at this station.
    pub monitor: ResponseTimeMonitor,
    /// Arrivals within the horizon (including warmup jobs).
    pub jobs_generated: u64,
    /// Fraction of `[0, horizon]` the server was busy.
    pub utilization: f64,
}

/// Runs one station's FCFS queue to the horizon.
///
/// Every arrival `A_k ≤ horizon` draws its user and service demand `S_k`;
/// the job starts at `max(A_k, D_{k−1})` and departs at `D_k`. Jobs that
/// depart by the horizon are measured; the one still in service at the
/// horizon counts toward utilization up to the horizon.
///
/// `attribution` maps each served job back to the user that generated it
/// (weights `s_ji φ_j` over users), so per-user response statistics
/// survive the sharding. The three streams must be exclusive to this
/// shard; the caller keys them by `(replication, station)` so the shard's
/// results depend only on its own streams — which is what makes the
/// station-index-order merge bit-identical at any thread count.
///
/// `sink` observes every *measured* (post-warmup) response as
/// `(user, response_seconds)` in this station's completion order.
///
/// # Panics
///
/// Panics on a non-positive arrival rate, an attribution table whose
/// width disagrees with `spec.users`, a zero batch size, or a negative
/// or non-finite service demand.
#[allow(clippy::too_many_arguments)]
pub fn run_station_shard<F: FnMut(usize, f64)>(
    spec: &ShardSpec,
    attribution: &AliasTable,
    arrival_rng: &mut RngStream,
    service_rng: &mut RngStream,
    attribution_rng: &mut RngStream,
    collector: Option<&Arc<dyn Collector>>,
    span_parent: Option<&SpanHandle>,
    mut sink: F,
) -> ShardOutcome {
    assert!(
        spec.arrival_rate.is_finite() && spec.arrival_rate > 0.0,
        "shard arrival rate must be positive, got {}",
        spec.arrival_rate
    );
    assert_eq!(
        attribution.len(),
        spec.users,
        "attribution table width disagrees with the user count"
    );
    assert!(spec.batch > 0, "shard batch must be non-empty");

    let shard_span = span_parent.map(|p| {
        p.child(
            "des.shard",
            &[
                ("rate", spec.arrival_rate.into()),
                ("horizon", spec.horizon.as_secs().into()),
            ],
        )
    });
    let shard_handle = shard_span.as_ref().map(Span::handle);

    let horizon = spec.horizon;
    let mut monitor = ResponseTimeMonitor::new(spec.users, spec.warmup);
    let mut service = SampleBlock::new(spec.service, spec.batch);
    let mut gaps = vec![0.0; spec.batch];
    let mut arrival = SimTime::ZERO; // A_k
    let mut departure = SimTime::ZERO; // D_{k−1}
    let mut busy_time = 0.0;
    // Service start of the job still in service at the horizon, if any.
    let mut in_service: Option<SimTime> = None;
    let mut jobs: u64 = 0;

    'blocks: loop {
        // The `sim.batch` span times the vectorized refill alone; the
        // Lindley pass over the block is `des.shard` self time.
        let batch_span = shard_handle.as_ref().map(|p| {
            p.child(
                "sim.batch",
                &[
                    ("from", arrival.as_secs().into()),
                    ("events", (gaps.len() as u64).into()),
                ],
            )
        });
        arrival_rng.fill_exponential(spec.arrival_rate, &mut gaps);
        drop(batch_span);
        for &gap in &gaps {
            arrival = arrival + gap;
            if arrival > horizon {
                break 'blocks;
            }
            jobs += 1;
            let user = attribution.sample(attribution_rng);
            let demand = service.next(service_rng);
            assert!(
                demand.is_finite() && demand >= 0.0,
                "invalid service time {demand}"
            );
            let start = arrival.max(departure);
            departure = start + demand;
            if departure <= horizon {
                busy_time += departure.since(start);
                monitor.record(user, arrival, departure);
                if arrival >= spec.warmup {
                    sink(user, departure - arrival);
                }
            } else if in_service.is_none() {
                in_service = Some(start);
            }
        }
    }

    let utilization = if horizon.as_secs() == 0.0 {
        0.0
    } else {
        let in_progress = in_service.map_or(0.0, |start| horizon.since(start));
        (busy_time + in_progress) / horizon.as_secs()
    };
    // Resource-accounting snapshot: one `account.des` event per shard,
    // emitted inside the shard span so diff/analyze can attribute it.
    // The kernel keeps no calendar, so it schedules and executes no
    // events.
    if let Some(c) = collector.and_then(|c| lb_telemetry::enabled(Some(c))) {
        c.emit(
            "account.des",
            &[
                ("scheduled", 0u64.into()),
                ("executed", 0u64.into()),
                (
                    "rng_draws",
                    (arrival_rng.draws() + service_rng.draws() + attribution_rng.draws()).into(),
                ),
            ],
        );
    }
    if let Some(span) = shard_span {
        span.close_with(&[
            ("jobs", jobs.into()),
            ("measured", monitor.total_count().into()),
            ("util", utilization.into()),
        ]);
    }
    ShardOutcome {
        monitor,
        jobs_generated: jobs,
        utilization,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::station::{Arrival, FcfsStation, Job};
    use lb_telemetry::{FieldValue, MemoryCollector, SamplingCollector, SamplingConfig};
    use proptest::prelude::*;

    /// Everything a shard run observes: its outcome, the sink sequence
    /// and the per-stream draw counts (arrival, service, attribution).
    type Observed = (ShardOutcome, Vec<(usize, f64)>, [u64; 3]);

    fn streams(seed: u64) -> [RngStream; 3] {
        [0, 1, 2].map(|k| RngStream::new(seed, k))
    }

    fn run_traced(
        spec: &ShardSpec,
        attribution: &AliasTable,
        seed: u64,
        collector: Option<&Arc<dyn Collector>>,
    ) -> Observed {
        let root = collector.and_then(|c| Span::root(Some(c), "test.root", &[]));
        let [mut arr, mut svc, mut att] = streams(seed);
        let mut sink = Vec::new();
        let outcome = run_station_shard(
            spec,
            attribution,
            &mut arr,
            &mut svc,
            &mut att,
            collector,
            root.as_ref().map(Span::handle).as_ref(),
            |u, r| sink.push((u, r)),
        );
        (outcome, sink, [arr.draws(), svc.draws(), att.draws()])
    }

    /// The calendar engine the Lindley kernel replaced, kept as its
    /// bit-identity oracle: arrivals are scheduled a block at a time on
    /// an [`Engine`] (the next block as the last one's final arrival is
    /// delivered), and an [`FcfsStation`] is driven by arrival and
    /// completion events until the next event lies past the horizon.
    fn reference_shard(spec: &ShardSpec, attribution: &AliasTable, seed: u64) -> Observed {
        enum Ev {
            Arrive,
            Complete,
        }
        let [mut arr, mut svc, mut att] = streams(seed);
        let mut engine = Engine::new();
        engine.set_horizon(spec.horizon);
        let mut station = FcfsStation::new();
        let mut monitor = ResponseTimeMonitor::new(spec.users, spec.warmup);
        let mut service = SampleBlock::new(spec.service, spec.batch);
        let mut gaps = vec![0.0; spec.batch];
        let (mut block_end, mut outstanding, mut jobs) = (SimTime::ZERO, 0, 0);
        let mut sink = Vec::new();
        let mut refill = |engine: &mut Engine<Ev>, block_end: &mut SimTime| {
            arr.fill_exponential(spec.arrival_rate, &mut gaps);
            for gap in &gaps {
                *block_end = *block_end + *gap;
                engine.schedule_at(*block_end, Ev::Arrive);
            }
            gaps.len()
        };
        outstanding += refill(&mut engine, &mut block_end);
        while let Some(ev) = engine.next_event() {
            let now = engine.now();
            match ev {
                Ev::Arrive => {
                    outstanding -= 1;
                    if outstanding == 0 && block_end <= spec.horizon {
                        outstanding = refill(&mut engine, &mut block_end);
                    }
                    jobs += 1;
                    let job = Job {
                        id: jobs,
                        user: attribution.sample(&mut att),
                        arrival: now,
                        service_time: service.next(&mut svc),
                    };
                    if let Arrival::StartService(done) = station.arrive(job, now) {
                        engine.schedule_at(done, Ev::Complete);
                    }
                }
                Ev::Complete => {
                    let (finished, next) = station.complete(now);
                    monitor.record(finished.user, finished.arrival, now);
                    if finished.arrival >= spec.warmup {
                        sink.push((finished.user, now - finished.arrival));
                    }
                    if let Some((_, done)) = next {
                        engine.schedule_at(done, Ev::Complete);
                    }
                }
            }
        }
        let outcome = ShardOutcome {
            monitor,
            jobs_generated: jobs,
            utilization: station.utilization(spec.horizon),
        };
        (outcome, sink, [arr.draws(), svc.draws(), att.draws()])
    }

    /// Requires two observations to agree bit for bit.
    fn assert_bit_identical((a, sink_a, draws_a): &Observed, (b, sink_b, draws_b): &Observed) {
        let bits = |sink: &[(usize, f64)]| -> Vec<(usize, u64)> {
            sink.iter().map(|(u, r)| (*u, r.to_bits())).collect()
        };
        assert_eq!(a.jobs_generated, b.jobs_generated, "jobs");
        assert_eq!(a.utilization.to_bits(), b.utilization.to_bits(), "util");
        let means = |o: &ShardOutcome| -> Vec<u64> {
            let m = &o.monitor;
            let users =
                (0..m.user_means().len()).flat_map(|u| [m.count(u), m.user_mean(u).to_bits()]);
            users
                .chain([m.total_count(), m.system_mean().to_bits()])
                .collect()
        };
        assert_eq!(means(a), means(b), "monitor counts and means");
        assert_eq!(bits(sink_a), bits(sink_b), "sink sequence");
        assert_eq!(draws_a, draws_b, "per-stream draws");
    }

    fn assert_matches_oracle(spec: &ShardSpec, attribution: &AliasTable, seed: u64) {
        assert_bit_identical(
            &run_traced(spec, attribution, seed, None),
            &reference_shard(spec, attribution, seed),
        );
    }

    /// Service family `pick` (mod 4) with mean service time `1/mu`.
    fn family(pick: u32, mu: f64) -> Distribution {
        match pick % 4 {
            0 => Distribution::Exponential { rate: mu },
            1 => Distribution::Erlang {
                k: 3,
                rate: 3.0 * mu,
            },
            2 => Distribution::HyperExponential {
                p: 0.3,
                rate_a: 0.4 * mu,
                rate_b: 4.0 * mu,
            },
            _ => Distribution::Deterministic { value: 1.0 / mu },
        }
    }

    /// Time zero, then the first six arrival instants on `seed`'s streams
    /// and their departures: horizons that land exactly on an event.
    fn event_instants(seed: u64, rate: f64, service: &Distribution) -> Vec<SimTime> {
        let [mut arr, mut svc, _] = streams(seed);
        let mut gaps = [0.0; 6];
        arr.fill_exponential(rate, &mut gaps);
        let (mut arrival, mut departure) = (SimTime::ZERO, SimTime::ZERO);
        let mut instants = vec![SimTime::ZERO];
        for gap in gaps {
            arrival = arrival + gap;
            departure = arrival.max(departure) + svc.sample(service);
            instants.extend([arrival, departure]);
        }
        instants
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn lindley_kernel_is_bit_identical_to_the_calendar_engine(
            seed in 0u64..u64::MAX,
            rate in 0.2f64..12.0,
            mu in 0.5f64..15.0,
            horizon in 0.0f64..300.0,
            pin in 0usize..26,
            warmup_frac in 0.0f64..1.0,
            batch_pick in 0usize..3,
            service_pick in 0u32..4,
            weights in proptest::collection::vec(0.05f64..1.0, 1..5),
        ) {
            let service = family(service_pick, mu);
            // A random horizon never lands on an event, so half the cases
            // pin it to zero or an event instant: the calendar
            // delivers events at the horizon, and so must the kernel.
            let horizon = event_instants(seed, rate, &service)
                .get(pin)
                .copied()
                .unwrap_or(SimTime::new(horizon));
            let spec = ShardSpec {
                arrival_rate: rate,
                service,
                horizon,
                warmup: SimTime::new(horizon.as_secs() * warmup_frac),
                users: weights.len(),
                batch: [1, 7, 1024][batch_pick],
            };
            assert_matches_oracle(&spec, &AliasTable::new(&weights), seed);
        }
    }

    fn spec(rate: f64, horizon: f64) -> ShardSpec {
        ShardSpec {
            arrival_rate: rate,
            service: Distribution::Exponential { rate: 10.0 },
            horizon: SimTime::new(horizon),
            warmup: SimTime::new(horizon * 0.1),
            users: 3,
            batch: DEFAULT_SHARD_BATCH,
        }
    }

    fn run(spec: &ShardSpec, seed: u64) -> Observed {
        run_traced(spec, &AliasTable::new(&[0.5, 0.3, 0.2]), seed, None)
    }

    #[test]
    fn shard_is_deterministic_per_seed_and_batch_invariant() {
        let base = spec(6.0, 2_000.0);
        let a = run(&base, 42);
        assert_bit_identical(&a, &run(&base, 42));

        let mut c_spec = base.clone();
        c_spec.batch = 7; // pathological block size: same sample path
        let c = run(&c_spec, 42);
        assert_eq!(a.0.jobs_generated, c.0.jobs_generated);
        assert_eq!(a.1, c.1, "batch size must not change the stream");
        assert_eq!(
            a.0.monitor.system_mean().to_bits(),
            c.0.monitor.system_mean().to_bits()
        );
    }

    #[test]
    fn shard_matches_mm1_theory() {
        // λ=6, μ=10 ⇒ E[T] = 1/(μ−λ) = 0.25, ρ = 0.6.
        let (out, sink, _) = run(&spec(6.0, 50_000.0), 7);
        let t = out.monitor.system_mean();
        assert!((t - 0.25).abs() < 0.02, "E[T] {t} vs 0.25");
        assert!(
            (out.utilization - 0.6).abs() < 0.02,
            "ρ {}",
            out.utilization
        );
        // ~λ·horizon arrivals.
        let expected = 6.0 * 50_000.0;
        assert!((out.jobs_generated as f64 - expected).abs() < 0.02 * expected);
        // Attribution tracks the weights.
        let counts: Vec<u64> = (0..3).map(|u| out.monitor.count(u)).collect();
        let total: u64 = counts.iter().sum();
        for (c, w) in counts.iter().zip([0.5, 0.3, 0.2]) {
            let freq = *c as f64 / total as f64;
            assert!((freq - w).abs() < 0.01, "freq {freq} vs {w}");
        }
        // Sink saw exactly the measured jobs, in completion order.
        assert_eq!(sink.len() as u64, out.monitor.total_count());
    }

    #[test]
    fn sampling_collector_does_not_perturb_the_shard() {
        let s = spec(4.0, 1_000.0);
        // Heavy head sampling on the way out; the simulation itself
        // must stay bit-identical because the sampler only filters the
        // event stream after the fact.
        let mem = Arc::new(MemoryCollector::default());
        let sampler: Arc<dyn Collector> = Arc::new(SamplingCollector::new(
            mem.clone(),
            SamplingConfig::new(0xD15C, 1.0 / 32.0),
        ));
        let attribution = AliasTable::new(&[0.5, 0.3, 0.2]);
        let traced = run_traced(&s, &attribution, 9, Some(&sampler));
        sampler.flush();
        assert_bit_identical(&run(&s, 9), &traced);
        // Accounting snapshots are always-keep, so the log still
        // carries the resource totals even at 1/32 sampling.
        assert_eq!(mem.count("account.des"), 1);
    }

    #[test]
    fn tracing_does_not_perturb_the_shard() {
        let s = spec(4.0, 1_000.0);
        let mem = Arc::new(MemoryCollector::default());
        let collector: Arc<dyn Collector> = mem.clone();
        let attribution = AliasTable::new(&[0.5, 0.3, 0.2]);
        let traced = run_traced(&s, &attribution, 9, Some(&collector));
        assert_bit_identical(&run(&s, 9), &traced);
        // The span stream contains the shard span and its sim.batch
        // blocks, all opened and closed.
        assert!(mem.count(lb_telemetry::SPAN_OPEN) >= 3);
        assert_eq!(
            mem.count(lb_telemetry::SPAN_OPEN),
            mem.count(lb_telemetry::SPAN_CLOSE)
        );
        // Exactly one resource-accounting snapshot with exact totals: the
        // kernel keeps no calendar, so it schedules and executes nothing,
        // and its RNG draws match the calendar oracle's draw for draw.
        assert_eq!(mem.count("account.des"), 1);
        let (_, fields) = mem
            .events()
            .into_iter()
            .find(|(name, _)| *name == "account.des")
            .unwrap();
        let get = |key: &str| match fields.iter().find(|(k, _)| *k == key) {
            Some((_, FieldValue::U64(n))) => *n,
            other => panic!("field {key} was {other:?}"),
        };
        assert_eq!(get("scheduled"), 0);
        assert_eq!(get("executed"), 0);
        let (_, _, oracle_draws) = reference_shard(&s, &attribution, 9);
        assert_eq!(get("rng_draws"), oracle_draws.iter().sum::<u64>());
    }
}
