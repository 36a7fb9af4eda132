//! The four workloads: inputs made from a seed, and one task per
//! library call (one replication study, one solve or one runtime run).

use crate::oracle;
use crate::trace::Recorder;
use lb_distributed::runtime::RingInit;
use lb_distributed::{AsyncNash, DistributedNash, NetFaultPlan, NetStats};
use lb_game::metrics::evaluate_profile;
use lb_game::model::{paper_user_fractions, SystemModel};
use lb_game::nash::{Initialization, NashSolver};
use lb_game::response::user_response_times;
use lb_game::sampled::SampledNashSolver;
use lb_game::schemes::{
    GlobalOptimalScheme, IndividualOptimalScheme, LoadBalancingScheme, NashScheme,
    ProportionalScheme,
};
use lb_game::strategy::StrategyProfile;
use lb_game::{GameError, StoppingRule};
use lb_sim::policies::{run_policy_replication, DispatchPolicy};
use lb_sim::{simulate_profile_traced, ParallelRunner, SimFidelity, SimulationConfig};
use lb_stats::ReplicationPlan;
use lb_telemetry::Collector;
use std::sync::Arc;
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["paper_des", "solve_mix", "async_chaos", "dispatch_feedback"];

/// Jobs per replication in `paper_des` (five replications per task).
const PAPER_DES_JOBS: u64 = 40_000;
/// Jobs per replication in `dispatch_feedback`.
const DISPATCH_JOBS: u64 = 100_000;
/// Replications per (policy, utilization) cell in `dispatch_feedback`.
const DISPATCH_REPLICATIONS: usize = 5;
/// The fig4 utilization sweep and the fig6 skew sweep (at ρ = 0.6).
const UTILIZATIONS: [f64; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
const SKEWS: [f64; 8] = [1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 20.0];
/// Relative gap the web-scale sampled solve certifies, as in the
/// repository's large-solver bench.
const SAMPLED_EPSILON: f64 = 1e-3;
/// The paper's stopping tolerance, as the figure code pins it.
const PAPER_EPSILON: f64 = 1e-4;

/// SplitMix64: the benchmark's own seeded input generator.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted per use.
    pub fn new(seed: u64, salt: u64) -> Self {
        Self(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let k = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, k);
        }
    }
}

/// A heterogeneous instance of `n` computers and `m` users at load
/// `rho`: computer speeds in Table-1's proportions (6:5:3:2 of rates
/// 10, 20, 50, 100), shuffled, and user shares from the paper's ten
/// fractions, each jittered by ±5% and shuffled. Stratified rather than
/// drawn freely, so instances differ per seed but keep the same
/// heterogeneity.
pub fn hetero_instance(
    n: usize,
    m: usize,
    rho: f64,
    rng: &mut Rng,
) -> Result<SystemModel, GameError> {
    const CLASSES: [(f64, usize); 4] = [(10.0, 6), (20.0, 5), (50.0, 3), (100.0, 2)];
    let mut rates: Vec<f64> = (0..n)
        .map(|i| {
            let slot = i * 16 / n;
            let mut upto = 0;
            let class = CLASSES
                .iter()
                .find(|(_, count)| {
                    upto += count;
                    slot < upto
                })
                .map_or(10.0, |(rate, _)| *rate);
            class
        })
        .collect();
    rng.shuffle(&mut rates);
    let paper = paper_user_fractions();
    let mut fractions: Vec<f64> = (0..m)
        .map(|j| paper[j % paper.len()] * (0.95 + 0.1 * rng.unit()))
        .collect();
    rng.shuffle(&mut fractions);
    SystemModel::with_utilization(rates, &fractions, rho)
}

/// The web-scale family of the repository's large-solver bench: `n`
/// computers at rates `10 + (i + offset) mod 97` with a seeded offset,
/// and `m` near-equal users (±5%) at load `rho`.
pub fn web_scale_instance(
    n: usize,
    m: usize,
    rho: f64,
    rng: &mut Rng,
) -> Result<SystemModel, GameError> {
    let offset = rng.next_u64() % 97;
    let rates = (0..n as u64)
        .map(|i| 10.0 + ((i + offset) % 97) as f64)
        .collect();
    let shares: Vec<f64> = (0..m).map(|_| 0.95 + 0.1 * rng.unit()).collect();
    SystemModel::with_utilization(rates, &shares, rho)
}

/// One of the closed-form schemes timed in `solve_mix`.
#[derive(Debug, Clone, Copy)]
pub enum Scheme {
    /// Global optimal.
    Gos,
    /// Individual (Wardrop) optimal.
    Ios,
    /// Proportional.
    Ps,
}

/// What a task calls.
pub enum Job {
    /// `simulate_profile_traced` at full DES fidelity, checked against
    /// the closed-form mean of the profile.
    Simulate {
        /// Index into [`Setup::models`].
        model: usize,
        /// The scheme's profile.
        profile: StrategyProfile,
        /// Closed-form system response time of `profile`.
        closed_form: f64,
        /// Replications and seeds.
        plan: ReplicationPlan,
        /// Length and fidelity.
        config: SimulationConfig,
    },
    /// A closed-form scheme's `compute`.
    Scheme {
        /// Index into [`Setup::models`].
        model: usize,
        /// Which scheme.
        scheme: Scheme,
    },
    /// The default certified `NashSolver` (the NASH scheme's solver).
    Nash {
        /// Index into [`Setup::models`].
        model: usize,
    },
    /// `SampledNashSolver` with its default certificate.
    Sampled {
        /// Index into [`Setup::models`].
        model: usize,
        /// Solver seed.
        seed: u64,
    },
    /// `AsyncNash` over a faulty virtual network.
    Async {
        /// Index into [`Setup::models`].
        model: usize,
        /// Network faults.
        plan: NetFaultPlan,
        /// Runtime seed.
        seed: u64,
    },
    /// The paper's token ring, `DistributedNash`.
    Ring {
        /// Index into [`Setup::models`].
        model: usize,
        /// NASH_0 or NASH_P start.
        init: RingInit,
    },
    /// One replication of a dispatch policy on the global-calendar DES.
    Policy {
        /// Index into [`Setup::models`].
        model: usize,
        /// The policy.
        policy: DispatchPolicy,
        /// Length of the replication.
        config: SimulationConfig,
        /// Replication seed.
        seed: u64,
        /// CI group of a `Static` replication.
        group: Option<usize>,
    },
}

/// One task of a workload round.
pub struct Task {
    /// Task class, used to name failures.
    pub class: String,
    /// What the task calls.
    pub job: Job,
}

/// Replications checked together against a closed-form mean.
pub struct Group {
    /// Closed-form system response time.
    pub closed_form: f64,
    /// Slots of the group's tasks.
    pub slots: Vec<usize>,
}

/// A workload's generated inputs.
pub struct Setup {
    /// Models the tasks refer to.
    pub models: Vec<SystemModel>,
    /// One round of tasks, run in this order.
    pub tasks: Vec<Task>,
    /// Replication groups checked after their last task.
    pub groups: Vec<Group>,
}

/// Threads passed to every runner and solver, and the tracer if any.
pub struct Ctx<'a> {
    /// Threads for `ParallelRunner`, `SampledNashSolver` and `AsyncNash`.
    pub threads: usize,
    /// The traced run's recorder.
    pub recorder: Option<&'a Arc<Recorder>>,
}

impl Ctx<'_> {
    fn collector(&self) -> Option<Arc<dyn Collector>> {
        self.recorder.map(|r| Arc::clone(r) as Arc<dyn Collector>)
    }

    /// Runs `f` inside a benchmark span named after `layer`.
    fn span<T>(&self, layer: &str, f: impl FnOnce() -> T) -> T {
        let _span = self.recorder.map(|r| r.open(layer));
        f()
    }
}

fn paper_nash_solver() -> NashSolver {
    NashSolver::new(Initialization::Proportional)
        .stopping_rule(StoppingRule::AbsoluteNorm)
        .tolerance(PAPER_EPSILON)
}

fn paper_des(seed: u64, ctx: &Ctx) -> Result<Setup, GameError> {
    let mut rng = Rng::new(seed, 1);
    let mut models = Vec::new();
    let mut tasks = Vec::new();
    let points = UTILIZATIONS
        .iter()
        .map(|&rho| (format!("rho={rho}"), SystemModel::table1_system(rho)))
        .chain(SKEWS.iter().map(|&skew| {
            (
                format!("skew={skew}"),
                SystemModel::skewed_system(skew, 0.6),
            )
        }));
    for (point, model) in points {
        let model = model?;
        let mut nash = paper_nash_solver();
        if let Some(c) = ctx.collector() {
            nash = nash.collector(c);
        }
        let schemes: [Box<dyn LoadBalancingScheme>; 4] = [
            Box::new(NashScheme::with_solver(nash)),
            Box::new(GlobalOptimalScheme::default()),
            Box::new(IndividualOptimalScheme),
            Box::new(ProportionalScheme),
        ];
        for scheme in schemes {
            let profile = ctx.span("game.schemes", || scheme.compute(&model))?;
            let closed_form = evaluate_profile(&model, &profile)?.overall_time;
            tasks.push(Task {
                class: format!("des {} {point}", scheme.name()),
                job: Job::Simulate {
                    model: models.len(),
                    profile,
                    closed_form,
                    plan: ReplicationPlan {
                        base_seed: rng.next_u64(),
                        ..ReplicationPlan::paper()
                    },
                    config: SimulationConfig {
                        target_jobs: PAPER_DES_JOBS,
                        ..SimulationConfig::paper()
                    }
                    .with_fidelity(SimFidelity::Full),
                },
            });
        }
        models.push(model);
    }
    Ok(Setup {
        models,
        tasks,
        groups: Vec::new(),
    })
}

fn solve_mix(seed: u64) -> Result<Setup, GameError> {
    let mut rng = Rng::new(seed, 2);
    let mut models = Vec::new();
    let mut tasks = Vec::new();
    for (n, m) in [(16, 10), (32, 64), (64, 128), (128, 256)] {
        for rho in [0.1, 0.5, 0.9] {
            let model = if (n, m) == (16, 10) {
                SystemModel::table1_system(rho)?
            } else {
                hetero_instance(n, m, rho, &mut rng)?
            };
            let at = format!("n={n} m={m} rho={rho}");
            for scheme in [Scheme::Gos, Scheme::Ios, Scheme::Ps] {
                tasks.push(Task {
                    class: format!("{scheme:?} {at}"),
                    job: Job::Scheme {
                        model: models.len(),
                        scheme,
                    },
                });
            }
            tasks.push(Task {
                class: format!("nash {at}"),
                job: Job::Nash {
                    model: models.len(),
                },
            });
            models.push(model);
        }
    }
    tasks.push(Task {
        class: "sampled n=1000 m=10000 rho=0.6".into(),
        job: Job::Sampled {
            model: models.len(),
            seed: rng.next_u64(),
        },
    });
    models.push(web_scale_instance(1_000, 10_000, 0.6, &mut rng)?);
    Ok(Setup {
        models,
        tasks,
        groups: Vec::new(),
    })
}

fn async_chaos(seed: u64) -> Result<Setup, GameError> {
    let mut rng = Rng::new(seed, 3);
    let mut models = vec![SystemModel::table1_system(0.6)?];
    let mut tasks = Vec::new();
    // Three seeds per Table-1 chaos cell: convergence time depends on
    // the fault draws, and the median task is one of these runs.
    for loss in [0.0, 0.1, 0.2, 0.3] {
        for partition in [false, true] {
            let mut plan = NetFaultPlan::new()
                .loss(loss)
                .duplication(0.05)
                .reordering(0.25)
                .delay_us(50, 2_000);
            if partition {
                plan = plan.partition_at(20_000, 60_000, vec![0, 1, 2]);
            }
            for _ in 0..3 {
                tasks.push(Task {
                    class: format!("async m=10 loss={loss} partition={partition}"),
                    job: Job::Async {
                        model: 0,
                        plan: plan.clone(),
                        seed: rng.next_u64(),
                    },
                });
            }
        }
    }
    for (m, loss) in [(32, 0.1), (48, 0.0), (64, 0.0)] {
        models.push(SystemModel::with_equal_users(
            SystemModel::table1_rates(),
            m,
            0.6,
        )?);
        tasks.push(Task {
            class: format!("async m={m} loss={loss}"),
            job: Job::Async {
                model: models.len() - 1,
                plan: NetFaultPlan::new().loss(loss),
                seed: rng.next_u64(),
            },
        });
    }
    for rho in [0.3, 0.6, 0.9] {
        models.push(SystemModel::table1_system(rho)?);
        for init in [RingInit::Zero, RingInit::Proportional] {
            tasks.push(Task {
                class: format!("ring {init:?} rho={rho}"),
                job: Job::Ring {
                    model: models.len() - 1,
                    init,
                },
            });
        }
    }
    Ok(Setup {
        models,
        tasks,
        groups: Vec::new(),
    })
}

fn dispatch_feedback(seed: u64, ctx: &Ctx) -> Result<Setup, GameError> {
    let mut rng = Rng::new(seed, 4);
    let mut models = Vec::new();
    let mut tasks = Vec::new();
    let mut groups = Vec::new();
    let config = SimulationConfig {
        target_jobs: DISPATCH_JOBS,
        ..SimulationConfig::paper()
    };
    for rho in [0.3, 0.5, 0.7, 0.9] {
        let model = SystemModel::table1_system(rho)?;
        let mut solver = NashSolver::new(Initialization::Proportional);
        if let Some(c) = ctx.collector() {
            solver = solver.collector(c);
        }
        let nash = ctx.span("game.schemes", || {
            NashScheme::with_solver(solver).compute(&model)
        })?;
        let closed_form = evaluate_profile(&model, &nash)?.overall_time;
        let policies = [
            DispatchPolicy::JoinShortestQueue,
            DispatchPolicy::PowerOfD(2),
            DispatchPolicy::ShortestExpectedDelay,
            DispatchPolicy::WeightedRoundRobin(nash.clone()),
            DispatchPolicy::Static(nash),
        ];
        for policy in policies {
            let group = matches!(policy, DispatchPolicy::Static(_)).then(|| {
                groups.push(Group {
                    closed_form,
                    slots: (tasks.len()..tasks.len() + DISPATCH_REPLICATIONS).collect(),
                });
                groups.len() - 1
            });
            for _ in 0..DISPATCH_REPLICATIONS {
                tasks.push(Task {
                    class: format!("{} rho={rho}", policy.name()),
                    job: Job::Policy {
                        model: models.len(),
                        policy: policy.clone(),
                        config,
                        seed: rng.next_u64(),
                        group,
                    },
                });
            }
        }
        models.push(model);
    }
    Ok(Setup {
        models,
        tasks,
        groups,
    })
}

/// Generates `workload`'s inputs from `seed`. Scheme profiles the tasks
/// route by are computed here, inside `game.schemes` spans when traced.
///
/// # Errors
///
/// An unknown workload name, or a library error while building inputs.
pub fn setup(workload: &str, seed: u64, ctx: &Ctx) -> Result<Setup, String> {
    let built = match workload {
        "paper_des" => paper_des(seed, ctx),
        "solve_mix" => solve_mix(seed),
        "async_chaos" => async_chaos(seed),
        "dispatch_feedback" => dispatch_feedback(seed, ctx),
        other => return Err(format!("unknown workload `{other}`")),
    };
    built.map_err(|e| format!("{workload} setup: {e}"))
}

/// What one task did, and what the checks found.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Host seconds inside the library call.
    pub host_s: f64,
    /// When the task started, in seconds into its pass.
    pub start_s: f64,
    /// The operation failed: an error, no convergence or no certificate.
    pub failure: Option<String>,
    /// A statistical check missed (expected at its nominal rate).
    pub miss: Option<String>,
    /// A returned output is wrong.
    pub violation: Option<String>,
    /// Simulated jobs: counted by the program, except on an untraced
    /// replication study, whose result carries no count (the target).
    pub jobs: u64,
    /// A certified equilibrium was returned.
    pub certified: bool,
    /// Simulated network time to the certificate, ms.
    pub virtual_ms: Option<f64>,
    /// System mean of a `Static` replication, for its group check.
    pub system_mean: Option<f64>,
    /// Solver sweeps or ring rounds.
    pub sweeps: u64,
    /// Async updates, or ring best replies.
    pub updates: u64,
    /// Async anti-entropy syncs.
    pub syncs: u64,
    /// Async retries.
    pub retries: u64,
    /// Network statistics of an async run.
    pub net: Option<NetStats>,
}

fn error_class(e: &GameError) -> &'static str {
    match e {
        GameError::DidNotConverge { .. } => "DidNotConverge",
        GameError::RingTimeout { .. } => "RingTimeout",
        _ => "error",
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn check_into(out: &mut Outcome, check: oracle::Check) {
    if let Err(e) = check {
        out.violation = Some(e);
    }
}

/// Gap bound from a relative certificate, with the profile's own
/// response times recomputed by the library.
fn relative_check(model: &SystemModel, profile: &StrategyProfile, rel: f64) -> oracle::Check {
    let times = user_response_times(model, profile).map_err(|e| e.to_string())?;
    oracle::gap_within(model, profile, oracle::relative_bound(rel, &times))
}

/// Runs one task: the timed library call, then its checks.
pub fn run(task: &Task, setup: &Setup, ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    match &task.job {
        Job::Simulate {
            model,
            profile,
            closed_form,
            plan,
            config,
        } => {
            let model = &setup.models[*model];
            let runner = ParallelRunner::new(ctx.threads);
            let collector = ctx.collector();
            let jobs_before = ctx.recorder.map(|r| sim_jobs(r));
            let (result, host_s) = timed(|| {
                ctx.span("sim.harness", || {
                    simulate_profile_traced(
                        &runner,
                        model,
                        profile,
                        plan,
                        *config,
                        collector.as_ref(),
                    )
                })
            });
            out.host_s = host_s;
            let target = u64::from(plan.replications) * config.target_jobs;
            out.jobs = target;
            if let (Some(r), Some(before)) = (ctx.recorder, jobs_before) {
                out.jobs = sim_jobs(r) - before;
                let check = oracle::jobs_near(out.jobs, target);
                check_into(&mut out, check);
            }
            match result {
                Ok(m) => {
                    let s = &m.system_summary;
                    if let Err(e) = oracle::covers(s.mean, s.half_width, *closed_form) {
                        out.miss = Some(e);
                    }
                }
                Err(e) => out.failure = Some(error_class(&e).into()),
            }
        }
        Job::Scheme { model, scheme } => {
            let model = &setup.models[*model];
            let (result, host_s) = timed(|| {
                ctx.span("game.schemes", || match scheme {
                    Scheme::Gos => GlobalOptimalScheme::default().compute(model),
                    Scheme::Ios => IndividualOptimalScheme.compute(model),
                    Scheme::Ps => ProportionalScheme.compute(model),
                })
            });
            out.host_s = host_s;
            match result {
                Ok(p) => check_into(&mut out, oracle::row_stochastic(&p)),
                Err(e) => out.failure = Some(error_class(&e).into()),
            }
        }
        Job::Nash { model } => {
            let model = &setup.models[*model];
            let mut solver = NashSolver::new(Initialization::Proportional);
            if let Some(c) = ctx.collector() {
                solver = solver.collector(c);
            }
            let (result, host_s) = timed(|| ctx.span("game.nash", || solver.solve(model)));
            out.host_s = host_s;
            match result {
                Ok(o) => {
                    out.certified = true;
                    out.sweeps = u64::from(o.iterations());
                    let bound = o.certified_gap().map_or(f64::INFINITY, |c| c.absolute);
                    check_into(&mut out, oracle::gap_within(model, o.profile(), bound));
                }
                Err(e) => {
                    if let GameError::DidNotConverge { iterations, .. } = e {
                        out.sweeps = u64::from(iterations);
                    }
                    out.failure = Some(error_class(&e).into());
                }
            }
        }
        Job::Sampled { model, seed } => {
            let model = &setup.models[*model];
            let mut solver = SampledNashSolver::new()
                .seed(*seed)
                .epsilon(SAMPLED_EPSILON)
                .threads(ctx.threads);
            if let Some(c) = ctx.collector() {
                solver = solver.collector(c);
            }
            let (result, host_s) = timed(|| ctx.span("game.sampled", || solver.solve(model)));
            out.host_s = host_s;
            match result {
                Ok(o) => {
                    out.certified = true;
                    out.sweeps = u64::from(o.iterations());
                    let rel = o.certified_gap().relative;
                    let check = oracle::sparse_gap(model, o.flows()).and_then(|(_, worst_rel)| {
                        if worst_rel <= rel * (1.0 + 1e-6) + 1e-12 {
                            Ok(())
                        } else {
                            Err(format!(
                                "relative regret {worst_rel:e} exceeds certified {rel:e}"
                            ))
                        }
                    });
                    check_into(&mut out, check);
                }
                Err(e) => out.failure = Some(error_class(&e).into()),
            }
        }
        Job::Async { model, plan, seed } => {
            let model = &setup.models[*model];
            let mut runtime = AsyncNash::new()
                .seed(*seed)
                .fault_plan(plan.clone())
                .threads(ctx.threads);
            if let Some(c) = ctx.collector() {
                runtime = runtime.collector(c);
            }
            let (result, host_s) = timed(|| ctx.span("distributed.async", || runtime.run(model)));
            out.host_s = host_s;
            match result {
                Ok(o) => {
                    out.updates = o.updates();
                    out.syncs = o.syncs();
                    out.retries = o.retries();
                    out.net = Some(o.net_stats());
                    match o.certified_gap() {
                        Some(rel) => {
                            out.certified = true;
                            out.virtual_ms = Some(o.virtual_time_us() as f64 / 1e3);
                            let check = o
                                .profile()
                                .map_err(|e| e.to_string())
                                .and_then(|p| relative_check(model, &p, rel));
                            check_into(&mut out, check);
                        }
                        None => out.failure = Some("uncertified".into()),
                    }
                }
                Err(e) => out.failure = Some(error_class(&e).into()),
            }
        }
        Job::Ring { model, init } => {
            let model = &setup.models[*model];
            let mut ring = DistributedNash::new().init(*init);
            if let Some(c) = ctx.collector() {
                ring = ring.collector(c);
            }
            let (result, host_s) = timed(|| ctx.span("distributed.ring", || ring.run(model)));
            out.host_s = host_s;
            match result {
                Ok(o) => {
                    out.sweeps = u64::from(o.rounds());
                    out.updates = u64::from(o.total_updates());
                    if o.converged() {
                        out.certified = true;
                        check_into(&mut out, relative_check(model, o.profile(), PAPER_EPSILON));
                    } else {
                        out.failure = Some("unconverged".into());
                    }
                }
                Err(e) => out.failure = Some(error_class(&e).into()),
            }
        }
        Job::Policy {
            model,
            policy,
            config,
            seed,
            group,
        } => {
            let model = &setup.models[*model];
            let (result, host_s) = timed(|| {
                ctx.span("sim.policies", || {
                    run_policy_replication(model, policy, *config, *seed)
                })
            });
            out.host_s = host_s;
            match result {
                Ok(r) => {
                    out.jobs = r.jobs_generated;
                    check_into(
                        &mut out,
                        oracle::jobs_near(r.jobs_generated, config.target_jobs),
                    );
                    if !r.system_mean.is_finite() {
                        out.violation = Some(format!("system mean {}", r.system_mean));
                    }
                    if group.is_some() {
                        out.system_mean = Some(r.system_mean);
                    }
                }
                Err(e) => out.failure = Some(error_class(&e).into()),
            }
        }
    }
    out
}

/// Jobs the traced simulations have reported so far.
fn sim_jobs(recorder: &Recorder) -> u64 {
    recorder
        .sums()
        .get("sim.replication.jobs")
        .copied()
        .unwrap_or(0)
}
