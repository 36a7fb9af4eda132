//! Metrics computed from passes and traces, and the result line.

use crate::oracle;
use crate::trace::{Attribution, Recorder, LAYERS};
use crate::workloads::{Job, Setup};
use crate::{speed, Pass};
use std::collections::{BTreeMap, BTreeSet};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// How many observations the value summarizes.
    pub samples: u64,
}

fn metric(name: &str, unit: &'static str, value: f64, samples: u64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value: if value.is_finite() { value } else { 0.0 },
        samples,
    }
}

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("task_ms_p50", "ms"),
    ("task_ms_p95", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Layer self times must add up to the traced wall time within this
/// share of it.
pub const LAYER_SUM_TOLERANCE: f64 = 0.02;

/// Per-layer metrics of the traced run: `(name, unit, better)`. A layer
/// the workload does not reach reports 0.
pub const PER_LAYER: [(&str, &str, &str); 58] = [
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.layer_sum_frac", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
    ("sim.harness.self_ms", "ms", "lower"),
    ("sim.parallel.self_ms", "ms", "lower"),
    ("sim.shard.self_ms", "ms", "lower"),
    ("des.shard.self_ms", "ms", "lower"),
    ("des.arrivals.self_ms", "ms", "lower"),
    ("game.schemes.self_ms", "ms", "lower"),
    ("game.nash.self_ms", "ms", "lower"),
    ("game.best_reply.self_ms", "ms", "lower"),
    ("game.sampled.self_ms", "ms", "lower"),
    ("distributed.async.self_ms", "ms", "lower"),
    ("distributed.ring.self_ms", "ms", "lower"),
    ("sim.policies.self_ms", "ms", "lower"),
    ("other.self_ms", "ms", "lower"),
    ("sim.jobs", "count", "higher"),
    ("sim.harness.replication_ms", "ms", "lower"),
    ("sim.parallel.worker_busy_frac", "frac", "higher"),
    ("des.shard.ns_per_job", "ns", "lower"),
    ("des.events_scheduled_per_job", "count", "lower"),
    ("des.events_executed_per_job", "count", "lower"),
    ("des.rng_draws_per_job", "count", "lower"),
    ("game.schemes.compute_ms", "ms", "lower"),
    ("game.nash.solve_ms", "ms", "lower"),
    ("game.nash.sweeps_per_solve", "count", "lower"),
    ("game.nash.best_replies_per_solve", "count", "lower"),
    ("game.nash.water_fills_per_solve", "count", "lower"),
    ("game.nash.refreshes_per_solve", "count", "lower"),
    ("game.nash.certified_frac", "frac", "higher"),
    ("game.best_reply.ns_per_water_fill", "ns", "lower"),
    ("game.sampled.solve_ms", "ms", "lower"),
    ("game.sampled.sweeps_per_solve", "count", "lower"),
    ("game.sampled.best_replies_per_solve", "count", "lower"),
    ("distributed.async.run_ms", "ms", "lower"),
    ("distributed.async.updates_per_run", "count", "lower"),
    ("distributed.async.syncs_per_run", "count", "lower"),
    ("distributed.async.host_us_per_delivery", "us", "lower"),
    ("net.sent_per_run", "count", "lower"),
    ("net.bytes_per_run", "B", "lower"),
    ("net.retries_per_run", "count", "lower"),
    ("net.delivered_frac", "frac", "higher"),
    ("distributed.ring.run_ms", "ms", "lower"),
    ("distributed.ring.rounds", "count", "lower"),
    ("distributed.ring.updates", "count", "lower"),
    ("sim.policies.replication_ms", "ms", "lower"),
    ("sim.policies.ns_per_job", "ns", "lower"),
    ("workload.failed_frac", "frac", "lower"),
    ("workload.ci95_miss_frac", "frac", "lower"),
    ("workload.failed", "count", "lower"),
    ("workload.attempted", "count", "higher"),
    ("workload.jobs_per_s", "1/s", "higher"),
    ("workload.solves_per_s", "1/s", "higher"),
    ("workload.certify_virtual_ms_p50", "ms", "lower"),
    ("workload.certify_virtual_ms_p95", "ms", "lower"),
    ("workload.slots", "count", "higher"),
];

/// Nearest-rank `q`-quantile of ascending `sorted` (0 when empty): an
/// observed value, so a percentile of a task mix is one task's time and
/// never a blend of two task classes.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `values`, averaging the middle pair (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median host seconds of `runs`, `(reference seconds around the run,
/// host seconds)` each; with `scaled`, each run's time is first scaled
/// to the nominal host speed by its reference.
pub fn scaled_median(runs: &[(f64, f64)], scaled: bool) -> f64 {
    let times: Vec<f64> = runs
        .iter()
        .map(|&(reference, host)| {
            if scaled && reference > 0.0 {
                host * speed::NOMINAL_S / reference
            } else {
                host
            }
        })
        .collect();
    median(&times)
}

/// Host seconds of each slot that ran: the [`scaled_median`] of its runs.
pub fn slot_medians(setup: &Setup, pass: &Pass, scaled: bool) -> Vec<f64> {
    let mut per_slot: Vec<Vec<(f64, f64)>> = vec![Vec::new(); setup.tasks.len()];
    for (slot, o) in &pass.records {
        let reference = pass.reference_around(o.start_s, o.start_s + o.host_s);
        per_slot[*slot].push((reference, o.host_s));
    }
    per_slot
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| scaled_median(v, scaled))
        .collect()
}

/// Failure tallies of a workload's round.
///
/// A task of the round is one operation, however often a pass repeats
/// it for timing: its inputs and seeds are fixed by the workload seed,
/// so a repeat re-runs the same operation. `attempted` counts the
/// round's tasks and `failed` those with a failure in any run, so both
/// are the same for every run at a seed, whatever its length.
#[derive(Debug, Default)]
pub struct Tally {
    /// Tasks of the round that ran.
    pub attempted: u64,
    /// Tasks that failed, ended uncertified, or whose output was wrong.
    pub failed: u64,
    /// 95% intervals checked against a closed form.
    pub intervals: u64,
    /// Intervals that missed their closed form.
    pub interval_misses: u64,
    /// No returned output was found wrong.
    pub correct: bool,
    /// Tasks per `class: reason`.
    pub classes: BTreeMap<String, u64>,
}

/// Counts the round's tasks, failures and interval misses in `passes`.
///
/// A 95% interval misses the closed form about one time in twenty when
/// the simulator is right, so a miss is not a failure; the round's
/// misses together must stay within what a right simulator shows
/// ([`oracle::max_interval_misses`]), else the output is wrong.
pub fn tally(setup: &Setup, passes: &[&Pass]) -> Tally {
    let mut ran = vec![false; setup.tasks.len()];
    let mut failed = vec![false; setup.tasks.len()];
    let mut intervals = BTreeSet::new();
    let mut misses = BTreeSet::new();
    let mut correct = true;
    let mut reasons: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
    for pass in passes {
        for (slot, o) in &pass.records {
            ran[*slot] = true;
            let class = &setup.tasks[*slot].class;
            for (kind, reason, fails) in [
                ("failed", &o.failure, true),
                ("95% interval missed", &o.miss, false),
                ("WRONG OUTPUT", &o.violation, true),
            ] {
                if let Some(r) = reason {
                    failed[*slot] |= fails;
                    reasons
                        .entry(format!("{class}: {kind}: {r}"))
                        .or_default()
                        .insert(*slot);
                }
            }
            if matches!(setup.tasks[*slot].job, Job::Simulate { .. }) && o.failure.is_none() {
                intervals.insert(*slot);
                if o.miss.is_some() {
                    misses.insert(*slot);
                }
            }
            correct &= o.violation.is_none();
        }
        // Group checks are keyed past the task slots.
        for (g, check) in &pass.group_checks {
            let key = setup.tasks.len() + g;
            intervals.insert(key);
            if let Err(e) = check {
                misses.insert(key);
                let last = setup.groups[*g].slots.last().copied().unwrap_or_default();
                let class = &setup.tasks[last].class;
                reasons
                    .entry(format!(
                        "{class} (5-replication group): 95% interval missed: {e}"
                    ))
                    .or_default()
                    .insert(key);
            }
        }
    }
    let (n, k) = (intervals.len() as u64, misses.len() as u64);
    let most = oracle::max_interval_misses(n);
    if k > most {
        correct = false;
        reasons
            .entry(format!(
                "WRONG OUTPUT: {k} of {n} 95% intervals miss the closed form, \
                 a right simulator misses at most {most}"
            ))
            .or_default()
            .insert(usize::MAX);
    }
    Tally {
        attempted: ran.iter().filter(|&&r| r).count() as u64,
        failed: failed.iter().filter(|&&f| f).count() as u64,
        intervals: n,
        interval_misses: k,
        correct,
        classes: reasons
            .into_iter()
            .map(|(reason, tasks)| (reason, tasks.len() as u64))
            .collect(),
    }
}

/// The end-to-end metrics of an untraced pass: host times, scaled to
/// the nominal host speed around each measurement when `scaled`.
/// `setup_batches` are `(reference seconds around the batch, host
/// seconds per set-up)` of each timed set-up batch.
pub fn end_to_end(
    setup_batches: &[(f64, f64)],
    setup: &Setup,
    pass: &Pass,
    peak_rss_mb: f64,
    scaled: bool,
) -> Vec<Metric> {
    let mut slots = slot_medians(setup, pass, scaled);
    slots.sort_by(f64::total_cmp);
    let k = slots.len() as u64;
    vec![
        metric(
            "setup_s",
            "s",
            scaled_median(setup_batches, scaled),
            setup_batches.len() as u64,
        ),
        metric(
            "wall_s",
            "s",
            slots.iter().sum::<f64>(),
            pass.records.len() as u64,
        ),
        metric("task_ms_p50", "ms", quantile(&slots, 0.5) * 1e3, k),
        metric("task_ms_p95", "ms", quantile(&slots, 0.95) * 1e3, k),
        metric("peak_rss_mb", "MB", peak_rss_mb, 1),
    ]
}

fn is_sim(job: &Job) -> bool {
    matches!(job, Job::Simulate { .. } | Job::Policy { .. })
}

/// Throughput and certificate metrics that apply to some workloads.
pub fn workload_metrics(setup: &Setup, pass: &Pass) -> Vec<Metric> {
    let host: f64 = pass.records.iter().map(|(_, o)| o.host_s).sum();
    let sims: Vec<_> = pass
        .records
        .iter()
        .filter(|(s, _)| is_sim(&setup.tasks[*s].job))
        .collect();
    let jobs: u64 = sims.iter().map(|(_, o)| o.jobs).sum();
    let sim_host: f64 = sims.iter().map(|(_, o)| o.host_s).sum();
    let certified = pass.records.iter().filter(|(_, o)| o.certified).count();
    let mut virt: Vec<f64> = pass
        .records
        .iter()
        .filter_map(|(_, o)| o.virtual_ms)
        .collect();
    virt.sort_by(f64::total_cmp);
    let t = tally(setup, &[pass]);
    let mut slots = slot_medians(setup, pass, false);
    slots.sort_by(f64::total_cmp);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        metric(
            "jobs_per_s",
            "1/s",
            ratio(jobs as f64, sim_host),
            sims.len() as u64,
        ),
        metric(
            "solves_per_s",
            "1/s",
            ratio(certified as f64, host),
            certified as u64,
        ),
        metric(
            "certify_virtual_ms_p50",
            "ms",
            quantile(&virt, 0.5),
            virt.len() as u64,
        ),
        metric(
            "certify_virtual_ms_p95",
            "ms",
            quantile(&virt, 0.95),
            virt.len() as u64,
        ),
        metric(
            "failed_frac",
            "frac",
            ratio(t.failed as f64, t.attempted as f64),
            t.attempted,
        ),
    ]
}

fn sum_of(sums: &BTreeMap<String, u64>, key: &str) -> f64 {
    sums.get(key).copied().unwrap_or(0) as f64
}

/// Per-layer metrics from an untraced and a traced pass of one round.
pub fn per_layer(
    setup: &Setup,
    untraced: &Pass,
    traced: &Pass,
    recorder: &Recorder,
    setup_recorder: &Recorder,
    threads: usize,
) -> Vec<Metric> {
    let a: Attribution = recorder.attribute();
    let setup_spans = setup_recorder.attribute();
    let sums = recorder.sums();
    let counts = recorder.counts();
    let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    let ratio = |x: f64, y: f64| if y > 0.0 { x / y } else { 0.0 };
    let wall_t: f64 = traced.records.iter().map(|(_, o)| o.host_s).sum();
    let wall_u: f64 = untraced.records.iter().map(|(_, o)| o.host_s).sum();
    let layer_sum: f64 = LAYERS.iter().map(|l| a.layer_ns(l)).sum::<f64>() / 1e9;

    let of_kind = |pred: fn(&Job) -> bool| -> Vec<&crate::workloads::Outcome> {
        traced
            .records
            .iter()
            .filter(|(s, _)| pred(&setup.tasks[*s].job))
            .map(|(_, o)| o)
            .collect()
    };
    let nash = of_kind(|j| matches!(j, Job::Nash { .. }));
    let asyncs = of_kind(|j| matches!(j, Job::Async { .. }));
    let rings = of_kind(|j| matches!(j, Job::Ring { .. }));
    let policies = of_kind(|j| matches!(j, Job::Policy { .. }));
    let sims = of_kind(is_sim);

    let des_jobs = sum_of(&sums, "sim.replication.jobs");
    let policy_jobs: f64 = policies.iter().map(|o| o.jobs as f64).sum();
    let solver_runs = count("account.solver");
    let sampled_runs = count("account.sampled");
    let net_runs = count("account.net");
    let delivered = sum_of(&sums, "account.net.delivered");
    let (sc_n, sc_ns) = [&a, &setup_spans]
        .iter()
        .filter_map(|x| x.spans.get("game.schemes"))
        .fold((0u64, 0u64), |(n, t), &(dn, dt)| (n + dn, t + dt));
    let pool_ns = a.total_ns("runner.pool");

    let mut v: BTreeMap<String, (f64, u64)> = BTreeMap::new();
    let mut put = |name: &str, value: f64, samples: u64| {
        v.insert(name.to_string(), (value, samples));
    };
    let rounds = traced.records.len() as u64;
    put("trace.wall_s", wall_t, rounds);
    put(
        "trace.untraced_wall_s",
        wall_u,
        untraced.records.len() as u64,
    );
    // Both rounds at the nominal host speed, so host drift between them
    // does not read as tracing cost.
    put(
        "trace.overhead_ratio",
        ratio(
            wall_t * traced.speed_factor(),
            wall_u * untraced.speed_factor(),
        ),
        rounds,
    );
    put("trace.layer_sum_frac", ratio(layer_sum, wall_t), rounds);
    put("trace.spans", recorder.span_count() as f64, 1);
    for layer in LAYERS {
        put(&format!("{layer}.self_ms"), a.layer_ns(layer) / 1e6, rounds);
    }
    put("sim.jobs", des_jobs + policy_jobs, sims.len() as u64);
    let reps = a.spans.get("sim.replication").map_or(0, |s| s.0);
    put(
        "sim.harness.replication_ms",
        a.mean_ms("sim.replication"),
        reps,
    );
    put(
        "sim.parallel.worker_busy_frac",
        ratio(a.total_ns("runner.worker"), threads as f64 * pool_ns),
        a.spans.get("runner.pool").map_or(0, |s| s.0),
    );
    let shards = a.spans.get("des.shard").map_or(0, |s| s.0);
    put(
        "des.shard.ns_per_job",
        ratio(a.total_ns("des.shard"), des_jobs),
        shards,
    );
    for (name, key) in [
        ("des.events_scheduled_per_job", "account.des.scheduled"),
        ("des.events_executed_per_job", "account.des.executed"),
        ("des.rng_draws_per_job", "account.des.rng_draws"),
    ] {
        put(name, ratio(sum_of(&sums, key), des_jobs), shards);
    }
    put(
        "game.schemes.compute_ms",
        ratio(sc_ns as f64 / 1e6, sc_n as f64),
        sc_n,
    );
    let nash_n = nash.len() as u64;
    put("game.nash.solve_ms", a.mean_ms("game.nash"), nash_n);
    for (name, key) in [
        ("game.nash.sweeps_per_solve", "account.solver.sweeps"),
        (
            "game.nash.best_replies_per_solve",
            "account.solver.best_replies",
        ),
        (
            "game.nash.water_fills_per_solve",
            "account.solver.water_fills",
        ),
        ("game.nash.refreshes_per_solve", "account.solver.refreshes"),
    ] {
        put(
            name,
            ratio(sum_of(&sums, key), solver_runs),
            solver_runs as u64,
        );
    }
    let nash_cert = nash.iter().filter(|o| o.certified).count() as f64;
    put(
        "game.nash.certified_frac",
        ratio(nash_cert, nash_n as f64),
        nash_n,
    );
    put(
        "game.best_reply.ns_per_water_fill",
        ratio(
            a.layer_ns("game.best_reply"),
            sum_of(&sums, "account.solver.water_fills"),
        ),
        solver_runs as u64,
    );
    put(
        "game.sampled.solve_ms",
        a.mean_ms("game.sampled"),
        sampled_runs as u64,
    );
    put(
        "game.sampled.sweeps_per_solve",
        ratio(sum_of(&sums, "account.sampled.sweeps"), sampled_runs),
        sampled_runs as u64,
    );
    put(
        "game.sampled.best_replies_per_solve",
        ratio(sum_of(&sums, "account.sampled.best_replies"), sampled_runs),
        sampled_runs as u64,
    );
    let async_n = asyncs.len() as f64;
    let per_async = |f: fn(&crate::workloads::Outcome) -> u64| {
        ratio(asyncs.iter().map(|o| f(o) as f64).sum(), async_n)
    };
    put(
        "distributed.async.run_ms",
        a.mean_ms("distributed.async"),
        asyncs.len() as u64,
    );
    put(
        "distributed.async.updates_per_run",
        per_async(|o| o.updates),
        asyncs.len() as u64,
    );
    put(
        "distributed.async.syncs_per_run",
        per_async(|o| o.syncs),
        asyncs.len() as u64,
    );
    put(
        "distributed.async.host_us_per_delivery",
        ratio(a.total_ns("distributed.async") / 1e3, delivered),
        asyncs.len() as u64,
    );
    put(
        "net.sent_per_run",
        ratio(sum_of(&sums, "account.net.sent"), net_runs),
        net_runs as u64,
    );
    put(
        "net.bytes_per_run",
        ratio(sum_of(&sums, "account.net.bytes"), net_runs),
        net_runs as u64,
    );
    put(
        "net.retries_per_run",
        ratio(sum_of(&sums, "account.net.retries"), net_runs),
        net_runs as u64,
    );
    put(
        "net.delivered_frac",
        ratio(delivered, sum_of(&sums, "account.net.sent")),
        net_runs as u64,
    );
    let ring_n = rings.len() as f64;
    put(
        "distributed.ring.run_ms",
        a.mean_ms("distributed.ring"),
        rings.len() as u64,
    );
    put(
        "distributed.ring.rounds",
        ratio(rings.iter().map(|o| o.sweeps as f64).sum(), ring_n),
        rings.len() as u64,
    );
    put(
        "distributed.ring.updates",
        ratio(rings.iter().map(|o| o.updates as f64).sum(), ring_n),
        rings.len() as u64,
    );
    put(
        "sim.policies.replication_ms",
        a.mean_ms("sim.policies"),
        policies.len() as u64,
    );
    put(
        "sim.policies.ns_per_job",
        ratio(a.total_ns("sim.policies"), policy_jobs),
        policies.len() as u64,
    );

    let both = tally(setup, &[untraced, traced]);
    put(
        "workload.failed_frac",
        ratio(both.failed as f64, both.attempted as f64),
        both.attempted,
    );
    put(
        "workload.ci95_miss_frac",
        ratio(both.interval_misses as f64, both.intervals as f64),
        both.intervals,
    );
    put("workload.failed", both.failed as f64, both.attempted);
    put("workload.attempted", both.attempted as f64, both.attempted);
    for m in workload_metrics(setup, untraced) {
        if m.name != "failed_frac" {
            put(&format!("workload.{}", m.name), m.value, m.samples);
        }
    }
    put("workload.slots", setup.tasks.len() as f64, 1);

    PER_LAYER
        .iter()
        .map(|(name, unit, _)| {
            let (value, samples) = v.get(*name).copied().unwrap_or((0.0, 0));
            metric(name, unit, value, samples)
        })
        .collect()
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
