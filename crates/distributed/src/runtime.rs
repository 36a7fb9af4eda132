//! The fault-tolerant token ring of the distributed NASH algorithm,
//! executed as one sequential loop on a virtual clock.
//!
//! The paper's protocol passes one control token
//! ([`crate::messages::Token`]) round-robin, so exactly one user is
//! active at any instant. The loop does just that: the token visits the
//! live users in index order; the holder observes the computers' load,
//! plays its best reply, publishes its flows and hands the token on.
//! Users see each other only through the load board (a row-major `m × n`
//! matrix of user→computer flows), the paper's run-queue inspection. The
//! ring tail (the highest-indexed live user) owns the convergence test
//! and starts a final terminate lap in which every user reports.
//!
//! # Failure model
//!
//! Faults are injected deterministically via [`crate::fault::FaultPlan`].
//! Time is a virtual clock that starts at zero and advances only by
//! injected delays and failure-detector waits; `round_timeout` and
//! `run_deadline` are measured on it, so a repaired run waits for
//! nothing and replays bit for bit.
//!
//! * A token that dies with its holder ([`FaultAction::PanicHoldingToken`],
//!   [`FaultAction::DropToken`]) is detected one `round_timeout` later:
//!   the holder is declared failed and its board row zeroed, the repair
//!   *epoch* is bumped, and the round (or terminate lap) restarts from
//!   the first live user still owed a report.
//! * A [`FaultAction::DelayForward`] shorter than `round_timeout` only
//!   advances the clock; a longer one is a detected failure after the
//!   slow user's publish (the false positive of timeout detection).
//! * A user that dies after forwarding ([`FaultAction::PanicAfterForward`])
//!   is spliced out at its predecessor's next forward, with no wait.
//! * *Computer* churn ([`CapacityEvent`]s) is applied between rounds:
//!   crashed computers' board columns are zeroed, the [`OverloadPolicy`]
//!   sheds what the survivors cannot carry (logged in the
//!   [`shed trajectory`](DistributedOutcome::shed_trajectory)), and the
//!   token is regenerated under a new epoch. Events at or after the round
//!   that decides termination are ignored.
//! * Passing `run_deadline` ends the run with [`GameError::RingTimeout`].
//!
//! Survivors re-converge on the residual capacity; the outcome names the
//! failed users instead of discarding the partial result.

use crate::capacity::{CapacityEvent, ShedRecord};
use crate::fault::{FaultAction, FaultPlan};
use crate::messages::{Termination, Token};
use crate::observer::{ObservationModel, Observer};
use lb_game::best_reply::water_fill_flows;
use lb_game::error::GameError;
use lb_game::model::SystemModel;
use lb_game::overload::{shed_to_feasible, OverloadPolicy};
use lb_game::stopping::{relative_regret, user_regret};
use lb_game::strategy::{Strategy, StrategyProfile};
use lb_game::StoppingRule;
use lb_stats::IterationTrace;
use lb_telemetry::{Collector, Field, Span};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Initial board state, mirroring the paper's two NASH variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingInit {
    /// NASH_0: the board starts empty.
    Zero,
    /// NASH_P: every user starts with the proportional flow split.
    Proportional,
}

/// Configuration for a distributed NASH run.
#[derive(Clone)]
pub struct DistributedNash {
    init: RingInit,
    observation: ObservationModel,
    tolerance: f64,
    stopping: StoppingRule,
    max_rounds: u32,
    round_timeout: Duration,
    run_deadline: Option<Duration>,
    faults: FaultPlan,
    overload_policy: OverloadPolicy,
    collector: Option<Arc<dyn Collector>>,
}

impl fmt::Debug for DistributedNash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DistributedNash")
            .field("init", &self.init)
            .field("observation", &self.observation)
            .field("tolerance", &self.tolerance)
            .field("stopping", &self.stopping)
            .field("max_rounds", &self.max_rounds)
            .field("round_timeout", &self.round_timeout)
            .field("run_deadline", &self.run_deadline)
            .field("faults", &self.faults)
            .field("overload_policy", &self.overload_policy)
            .field("collector", &self.collector.is_some())
            .finish()
    }
}

impl DistributedNash {
    /// Paper defaults: NASH_P start, exact observation, ε = 1e-4, at most
    /// 500 rounds, a 5 s token timeout, no overall deadline, no faults,
    /// and the [`OverloadPolicy::Reject`] overload policy.
    pub fn new() -> Self {
        Self {
            init: RingInit::Proportional,
            observation: ObservationModel::Exact,
            tolerance: 1e-4,
            stopping: StoppingRule::default(),
            max_rounds: 500,
            round_timeout: Duration::from_secs(5),
            run_deadline: None,
            faults: FaultPlan::new(),
            overload_policy: OverloadPolicy::Reject,
            collector: None,
        }
    }

    /// Selects the initial board state.
    pub fn init(mut self, init: RingInit) -> Self {
        self.init = init;
        self
    }

    /// Selects how users observe available rates.
    pub fn observation(mut self, model: ObservationModel) -> Self {
        self.observation = model;
        self
    }

    /// Sets the convergence tolerance ε. Under the default
    /// [`StoppingRule::CertifiedGap`] this is the certified relative
    /// gap; under the norm rules it is the norm threshold.
    pub fn tolerance(mut self, eps: f64) -> Self {
        self.tolerance = eps;
        if let StoppingRule::CertifiedGap { epsilon } = &mut self.stopping {
            *epsilon = eps;
        }
        self
    }

    /// Selects the ring tail's convergence criterion. Passing
    /// [`StoppingRule::CertifiedGap`] also adopts its ε as the
    /// tolerance, mirroring [`lb_game::nash::NashSolver`].
    pub fn stopping_rule(mut self, rule: StoppingRule) -> Self {
        self.stopping = rule;
        if let StoppingRule::CertifiedGap { epsilon } = rule {
            self.tolerance = epsilon;
        }
        self
    }

    /// Sets the round budget.
    pub fn max_rounds(mut self, rounds: u32) -> Self {
        self.max_rounds = rounds;
        self
    }

    /// Sets the failure detector's patience on the virtual clock: a
    /// token that makes no progress for this long is declared lost, its
    /// holder failed, and the token regenerated. A
    /// [`FaultAction::DelayForward`] at least this long counts as such a
    /// failure.
    pub fn round_timeout(mut self, timeout: Duration) -> Self {
        self.round_timeout = timeout;
        self
    }

    /// Sets a hard deadline for the whole run on the virtual clock. When
    /// injected delays and failure-detector waits reach it, `run` returns
    /// [`GameError::RingTimeout`] instead of continuing to repair.
    pub fn run_deadline(mut self, deadline: Duration) -> Self {
        self.run_deadline = Some(deadline);
        self
    }

    /// Installs a deterministic fault-injection plan (see
    /// [`crate::fault`]).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Selects what the ring does when capacity churn makes the
    /// nominal demand infeasible: abort with [`GameError::Overloaded`]
    /// ([`OverloadPolicy::Reject`], the default) or shed load and keep
    /// running ([`OverloadPolicy::ShedProportional`] /
    /// [`OverloadPolicy::ShedMaxMin`]).
    pub fn overload_policy(mut self, policy: OverloadPolicy) -> Self {
        self.overload_policy = policy;
        self
    }

    /// Attaches a telemetry collector for the `ring.*` event family:
    /// `ring.start`, one `ring.hop` per token forward, `ring.round` per
    /// completed round, plus `ring.splice`, `ring.fault`,
    /// `ring.token_lost`, `ring.capacity`, `ring.shed`, `ring.epoch`,
    /// `ring.report` and `ring.done`. Events are emitted *after* the
    /// state change they describe, so the run's results are identical
    /// with or without a collector.
    pub fn collector(mut self, collector: Arc<dyn Collector>) -> Self {
        self.collector = Some(collector);
        self
    }

    /// Runs the ring to termination and collects the outcome, treating an
    /// exhausted round budget as an error (the historical behavior).
    ///
    /// # Errors
    ///
    /// Those of [`DistributedNash::run_to_outcome`], plus
    /// [`GameError::DidNotConverge`] when the round budget ran out.
    pub fn run(&self, model: &SystemModel) -> Result<DistributedOutcome, GameError> {
        let outcome = self.run_to_outcome(model)?;
        if outcome.termination() == Termination::Exhausted {
            return Err(GameError::DidNotConverge {
                iterations: outcome.rounds(),
                final_norm: outcome.trace().last().unwrap_or(f64::INFINITY),
            });
        }
        Ok(outcome)
    }

    /// Runs the ring to termination and returns the outcome even when
    /// the round budget was exhausted ([`Termination::Exhausted`]), so
    /// callers can inspect the partial state instead of discarding it.
    ///
    /// # Errors
    ///
    /// * [`GameError::ZeroIterationBudget`] when `max_rounds == 0`, and
    ///   [`GameError::ZeroDuration`] when `round_timeout` or
    ///   `run_deadline` is zero — such a run could not be reported
    ///   honestly, so it is rejected before the ring starts.
    /// * [`GameError::RingTimeout`] when the deadline expired or no users
    ///   survived to produce a result.
    /// * [`GameError::InfeasibleStrategy`] when a surviving user's
    ///   reported strategy is not a valid split.
    pub fn run_to_outcome(&self, model: &SystemModel) -> Result<DistributedOutcome, GameError> {
        // No round can both run and be timed with a zero budget or
        // timeout (mirrors the solver-side `max_iterations == 0` check).
        if self.max_rounds == 0 {
            return Err(GameError::ZeroIterationBudget);
        }
        for (what, d) in [
            ("round_timeout", Some(self.round_timeout)),
            ("run_deadline", self.run_deadline),
        ] {
            if d.is_some_and(|d| d.is_zero()) {
                return Err(GameError::ZeroDuration { what });
            }
        }
        let m = model.num_users();
        let n = model.num_computers();
        let init = match self.init {
            RingInit::Zero => "NASH_0",
            RingInit::Proportional => "NASH_P",
        };
        if let Some(c) = lb_telemetry::enabled(self.collector.as_ref()) {
            c.emit(
                "ring.start",
                &[
                    ("init", init.into()),
                    ("users", m.into()),
                    ("computers", n.into()),
                    ("tolerance", self.tolerance.into()),
                    ("stopping", self.stopping.label().into()),
                    ("max_rounds", self.max_rounds.into()),
                ],
            );
        }
        let mut ring = Ring::new(self, model);
        let termination = ring.drive()?;

        let rounds = ring.norms.len() as u32;
        let survivors: Vec<usize> = (0..m).filter(|&j| ring.alive[j]).collect();
        let rows = survivors
            .iter()
            .map(|&j| Strategy::new(ring.row(j).iter().map(|x| x / ring.phi[j]).collect()))
            .collect::<Result<Vec<_>, _>>()?;
        let user_times = survivors.iter().map(|&j| ring.users[j].prev_d).collect();
        let total_updates: u32 = survivors.iter().map(|&j| ring.users[j].updates).sum();
        // Failed users carry zero admitted and shed rates: their loss is
        // reported via `failed_users`, and `phi` is already zero for them.
        let mut shed_rates: Vec<f64> = (0..m)
            .map(|j| (model.user_rate(j) - ring.phi[j]).max(0.0))
            .collect();
        for &j in &ring.failed {
            shed_rates[j] = 0.0;
        }
        let degraded = (0..n)
            .filter(|&i| ring.mu[i] < model.computer_rate(i))
            .collect();
        ring.close_spans(&[], &[]);
        if let Some(run) = ring.run_span.take() {
            run.close_with(&[
                ("rounds", u64::from(rounds).into()),
                ("termination", termination_label(termination).into()),
            ]);
        }
        ring.emit(
            "ring.done",
            &[
                ("rounds", rounds.into()),
                ("termination", termination_label(termination).into()),
                ("failed", ring.failed.len().into()),
                ("survivors", survivors.len().into()),
                ("total_updates", total_updates.into()),
            ],
        );
        Ok(DistributedOutcome {
            profile: StrategyProfile::new(rows)?,
            trace: ring.norms.iter().copied().collect(),
            user_times,
            total_updates,
            failed: std::mem::take(&mut ring.failed),
            survivors,
            termination,
            admitted_rates: std::mem::take(&mut ring.phi),
            shed_rates,
            degraded,
            capacity: std::mem::take(&mut ring.mu),
            shed_log: std::mem::take(&mut ring.shed_log),
        })
    }
}

impl Default for DistributedNash {
    fn default() -> Self {
        Self::new()
    }
}

/// Outcome of a distributed run (converged, exhausted, or repaired after
/// failures — see [`DistributedOutcome::termination`] and
/// [`DistributedOutcome::failed_users`]).
#[derive(Debug, Clone)]
pub struct DistributedOutcome {
    profile: StrategyProfile,
    trace: IterationTrace,
    user_times: Vec<f64>,
    total_updates: u32,
    failed: Vec<usize>,
    survivors: Vec<usize>,
    termination: Termination,
    admitted_rates: Vec<f64>,
    shed_rates: Vec<f64>,
    degraded: Vec<usize>,
    capacity: Vec<f64>,
    shed_log: Vec<ShedRecord>,
}

impl DistributedOutcome {
    /// The equilibrium profile assembled from the *surviving* users'
    /// reports, one row per entry of [`DistributedOutcome::survivors`]
    /// in ascending user index.
    pub fn profile(&self) -> &StrategyProfile {
        &self.profile
    }

    /// Per-round norms (the distributed Figure-2 series).
    pub fn trace(&self) -> &IterationTrace {
        &self.trace
    }

    /// Rounds completed.
    pub fn rounds(&self) -> u32 {
        self.trace.len() as u32
    }

    /// Each surviving user's final self-reported `D_j` (aligned with
    /// [`DistributedOutcome::survivors`]).
    pub fn user_times(&self) -> &[f64] {
        &self.user_times
    }

    /// Total best replies computed across the ring.
    pub fn total_updates(&self) -> u32 {
        self.total_updates
    }

    /// Users declared failed during the run, in detection order.
    pub fn failed_users(&self) -> &[usize] {
        &self.failed
    }

    /// Users that survived to report, in ascending index order.
    pub fn survivors(&self) -> &[usize] {
        &self.survivors
    }

    /// How the ring terminated.
    pub fn termination(&self) -> Termination {
        self.termination
    }

    /// Whether the final completed round met the convergence tolerance.
    pub fn converged(&self) -> bool {
        self.termination == Termination::Converged
    }

    /// Per-user arrival rates the final admission decision shed
    /// (full-length, indexed by user; zero when nothing was shed and for
    /// failed users, whose loss is reported via
    /// [`DistributedOutcome::failed_users`] instead).
    pub fn shed_rates(&self) -> &[f64] {
        &self.shed_rates
    }

    /// Per-user arrival rates the final admission decision admitted
    /// (full-length; equal to the nominal rates when nothing was shed,
    /// zero for failed users).
    pub fn admitted_rates(&self) -> &[f64] {
        &self.admitted_rates
    }

    /// Computers running below their nominal rate at the end of the run
    /// (crashed or degraded), in index order.
    pub fn degraded_computers(&self) -> &[usize] {
        &self.degraded
    }

    /// The capacity vector in force at the end of the run (0 = crashed).
    pub fn final_capacity(&self) -> &[f64] {
        &self.capacity
    }

    /// Every admission-control decision the ring took, in order: a pure
    /// function of the model, the plan and the policy, so byte-identical
    /// across runs.
    pub fn shed_trajectory(&self) -> &[ShedRecord] {
        &self.shed_log
    }
}

/// Static label for telemetry `termination` fields.
fn termination_label(t: Termination) -> &'static str {
    match t {
        Termination::Continue => "continue",
        Termination::Converged => "converged",
        Termination::Exhausted => "exhausted",
    }
}

/// Column sums of the row-major `n`-wide board `flows`, skipping row
/// `skip`: `out_i = Σ_{k ≠ skip} flows[k][i]`, accumulated in row order
/// so every caller sees bit-identical totals.
fn column_sums(flows: &[f64], n: usize, skip: Option<usize>, out: &mut Vec<f64>) {
    out.clear();
    out.resize(n, 0.0);
    for (k, row) in flows.chunks_exact(n).enumerate() {
        if Some(k) == skip {
            continue;
        }
        for (t, &x) in out.iter_mut().zip(row) {
            *t += x;
        }
    }
}

/// A user's protocol state that outlives one token visit.
struct User {
    observer: Observer,
    /// `D_j` after the user's last visit: the norm's reference point.
    prev_d: f64,
    /// Best replies computed.
    updates: u32,
    /// Reported during the terminate lap.
    reported: bool,
    /// Died after forwarding: still in the ring until a predecessor's
    /// forward finds it gone.
    crashed: bool,
}

/// One run's state: load board, ring membership, capacity and admission
/// picture, virtual clock and telemetry span stack.
struct Ring<'a> {
    cfg: &'a DistributedNash,
    /// The nominal system: recovery and re-admission targets.
    model: &'a SystemModel,
    n: usize,
    /// Row-major `m × n` user→computer flows (jobs/s): the load board.
    flows: Vec<f64>,
    users: Vec<User>,
    alive: Vec<bool>,
    failed: Vec<usize>,
    /// Repair epoch: bumped by every token regeneration.
    epoch: u32,
    /// Norm of every completed round.
    norms: Vec<f64>,
    /// Virtual time: advanced only by injected delays and detector waits.
    clock: Duration,
    /// Capacity vector in force (0 = crashed computer).
    mu: Vec<f64>,
    /// Per-user admitted arrival rates in force.
    phi: Vec<f64>,
    shed_log: Vec<ShedRecord>,
    // Board sums reused across visits so the loop stays allocation-free.
    totals: Vec<f64>,
    others: Vec<f64>,
    // Span fields are declared leaf-first so that, if the ring is dropped
    // on an error path, the implicit drop-closes arrive in
    // child-before-parent order.
    /// Open `ring.hold` span: the interval one user holds the token.
    hold_span: Option<Span>,
    /// Open `ring.round` span covering the round in progress.
    round_span: Option<Span>,
    /// Root `ring.run` span for the whole distributed computation.
    run_span: Option<Span>,
}

impl<'a> Ring<'a> {
    fn new(cfg: &'a DistributedNash, model: &'a SystemModel) -> Self {
        let m = model.num_users();
        let n = model.num_computers();
        let mut flows = vec![0.0; m * n];
        if cfg.init == RingInit::Proportional {
            let total: f64 = model.computer_rates().iter().sum();
            for (j, row) in flows.chunks_exact_mut(n).enumerate() {
                let phi = model.user_rate(j);
                for (x, mu) in row.iter_mut().zip(model.computer_rates()) {
                    *x = phi * mu / total;
                }
            }
        }
        let mut ring = Self {
            cfg,
            model,
            n,
            flows,
            users: (0..m)
                .map(|j| User {
                    observer: Observer::new(cfg.observation, j),
                    prev_d: 0.0,
                    updates: 0,
                    reported: false,
                    crashed: false,
                })
                .collect(),
            alive: vec![true; m],
            failed: Vec::new(),
            epoch: 0,
            norms: Vec::new(),
            clock: Duration::ZERO,
            mu: model.computer_rates().to_vec(),
            phi: model.user_rates().to_vec(),
            shed_log: Vec::new(),
            totals: Vec::with_capacity(n),
            others: Vec::with_capacity(n),
            hold_span: None,
            round_span: None,
            run_span: Span::root(
                cfg.collector.as_ref(),
                "ring.run",
                &[("users", m.into()), ("computers", n.into())],
            ),
        };
        // Every D_j of the initial board, before anyone updates.
        for j in 0..m {
            ring.users[j].prev_d = ring.response_time(j);
        }
        ring
    }

    /// Passes the token until every surviving user has reported,
    /// repairing token loss and applying capacity events on the way.
    fn drive(&mut self) -> Result<Termination, GameError> {
        let mut holder = 0;
        let mut token = Token::initial();
        self.begin_hold(holder);
        loop {
            let playing = token.terminate == Termination::Continue;
            if !playing && self.first_owed().is_none() {
                return Ok(token.terminate);
            }
            let fault = match playing {
                true => self.cfg.faults.action(holder, token.round),
                false => None,
            };
            // The token dies with its holder, or was handed to a user
            // that is already gone.
            if self.users[holder].crashed
                || matches!(
                    fault,
                    Some(FaultAction::PanicHoldingToken | FaultAction::DropToken)
                )
            {
                holder = self.repair_token_loss(holder, &mut token)?;
                continue;
            }
            if !playing {
                // Terminate lap: report, and hand on while anyone is owed.
                let user = &mut self.users[holder];
                user.reported = true;
                let fields = [
                    ("user", holder.into()),
                    ("response_time", user.prev_d.into()),
                    ("updates", user.updates.into()),
                ];
                self.emit("ring.report", &fields);
                if self.first_owed().is_some() {
                    holder = self.forward(holder);
                }
                continue;
            }
            self.play(holder, &mut token, fault == Some(FaultAction::StaleRound));
            let tail = !self.alive[holder + 1..].contains(&true);
            if tail && self.complete_round(&mut token)? {
                // Capacity events regenerated the token at the head.
                holder = self.first_owed().unwrap_or(holder);
                self.begin_hold(holder);
                continue;
            }
            if let Some(FaultAction::DelayForward(delay)) = fault {
                if delay >= self.cfg.round_timeout {
                    // Slower than the detector's patience: excluded like
                    // a crash, after its publish.
                    holder = self.repair_token_loss(holder, &mut token)?;
                    continue;
                }
                self.advance(delay)?;
            }
            let next = self.forward(holder);
            if fault == Some(FaultAction::PanicAfterForward) {
                self.users[holder].crashed = true;
            }
            holder = next;
        }
    }

    /// User `j`'s turn with the token: observe, best-respond, publish,
    /// and fold its new `D_j` into the round's norm. A `stale` turn
    /// replays the previous observation instead of reading the board.
    fn play(&mut self, j: usize, token: &mut Token, stale: bool) {
        let n = self.n;
        let phi = self.phi[j];
        // Certified stopping measures the user's *current* strategy
        // against the live board BEFORE it updates — measuring after a
        // best reply is vacuous (a fresh reply has ~zero regret by
        // construction). The regret is read from the true board, so
        // observation noise cannot launder it, and an ε-optimal user
        // skips its update entirely: once every user skips, the board is
        // static, the round's norm is exactly zero, and the state all
        // regrets were measured against is the state the ring returns.
        let mut skip = false;
        if self.cfg.stopping.needs_certificate() {
            column_sums(&self.flows, n, None, &mut self.totals);
            let row = &self.flows[j * n..(j + 1) * n];
            let placed: f64 = row.iter().sum();
            let (regret, dj) = if (placed - phi).abs() <= 1e-9 * phi {
                user_regret(&self.mu, &self.totals, row, phi)
            } else {
                // The row does not carry the admitted demand — an
                // unseeded NASH_0 start, or a stale allocation from
                // before a capacity event changed φ. Nothing can be
                // certified about it, and it must update.
                (f64::INFINITY, f64::INFINITY)
            };
            token.certificate.absorb(regret, dj);
            skip = relative_regret(regret, dj) <= self.cfg.tolerance;
        }
        if !skip {
            let observer = &mut self.users[j].observer;
            let avail = match observer.last_observation().filter(|_| stale) {
                Some(last) => last.to_vec(),
                None => {
                    column_sums(&self.flows, n, Some(j), &mut self.others);
                    observer.observe(&self.mu, &self.others)
                }
            };
            // A (noisy or stale) observation that makes the subproblem
            // look infeasible keeps the current strategy.
            if let Ok(flows) = water_fill_flows(&avail, phi) {
                self.flows[j * n..(j + 1) * n].copy_from_slice(&flows);
                self.users[j].updates += 1;
            }
        }
        let d = self.response_time(j);
        let user = &mut self.users[j];
        token.norm_acc += (d - user.prev_d).abs();
        token.d_acc += d;
        user.prev_d = d;
    }

    /// The tail closes the round the token carries: it records the norm,
    /// applies the stopping rule and, while the ring goes on, the
    /// capacity events scheduled after this round. Returns `true` when
    /// those events regenerated the token.
    fn complete_round(&mut self, token: &mut Token) -> Result<bool, GameError> {
        let norm = token.norm_acc;
        let certificate = token.certificate;
        let converged = match self.cfg.stopping {
            // Regrets are measured pre-update at each user's turn;
            // requiring a quiescent round (norm exactly zero — nobody
            // moved, so the board the regrets were measured against IS
            // the returned state) makes the acceptance a sound ε-Nash
            // certificate.
            StoppingRule::CertifiedGap { epsilon } => {
                certificate.relative <= epsilon && norm == 0.0
            }
            rule => rule.accepts(self.cfg.tolerance, norm, token.d_acc, Some(&certificate)),
        };
        let round = token.round;
        *token = Token::regenerated(round + 1, self.epoch);
        if converged {
            token.terminate = Termination::Converged;
        } else if token.round >= self.cfg.max_rounds {
            token.terminate = Termination::Exhausted;
        }
        self.norms.push(norm);
        let mut fields: Vec<Field> = vec![
            ("round", round.into()),
            ("norm", norm.into()),
            ("epoch", self.epoch.into()),
            ("termination", termination_label(token.terminate).into()),
        ];
        if self.cfg.stopping.needs_certificate() {
            fields.push(("cert_rel", certificate.relative.into()));
        }
        self.emit("ring.round", &fields);
        self.close_spans(&[], &[("norm", norm.into())]);
        let events = self.cfg.faults.capacity_events_at(round);
        if token.terminate != Termination::Continue || events.is_empty() {
            return Ok(false);
        }
        self.apply_capacity_events(round, &events)?;
        *token = Token::regenerated(round + 1, self.epoch);
        Ok(true)
    }

    /// Applies the capacity events scheduled after `round` completed:
    /// update the rate vector, zero crashed computers' board columns,
    /// run the overload policy over the live users' nominal demand, and
    /// bump the epoch so the next round starts under the new rates.
    fn apply_capacity_events(
        &mut self,
        round: u32,
        events: &[CapacityEvent],
    ) -> Result<(), GameError> {
        for &ev in events {
            let i = ev.computer();
            if i >= self.mu.len() {
                return Err(GameError::DimensionMismatch {
                    expected: self.mu.len(),
                    actual: i + 1,
                });
            }
            let kind = match ev {
                CapacityEvent::Crash { .. } => {
                    self.mu[i] = 0.0;
                    // Flow routed to a dead computer is not being served;
                    // leaving it would make every availability estimate
                    // lie about the survivors' headroom.
                    for row in self.flows.chunks_exact_mut(self.n) {
                        row[i] = 0.0;
                    }
                    "crash"
                }
                CapacityEvent::Degrade { rate, .. } => {
                    if !(rate.is_finite() && rate > 0.0) {
                        return Err(GameError::InvalidRate {
                            name: "degraded mu",
                            value: rate,
                        });
                    }
                    self.mu[i] = rate;
                    "degrade"
                }
                CapacityEvent::Recover { .. } => {
                    self.mu[i] = self.model.computer_rate(i);
                    "recover"
                }
            };
            self.emit(
                "ring.capacity",
                &[
                    ("round", round.into()),
                    ("kind", kind.into()),
                    ("computer", i.into()),
                    ("rate", self.mu[i].into()),
                ],
            );
        }
        // Admission control over the *nominal* demand of the live users:
        // recovered capacity re-admits previously shed load automatically.
        let mut nominal = self.model.user_rates().to_vec();
        for &j in &self.failed {
            nominal[j] = 0.0;
        }
        let plan = shed_to_feasible(&self.mu, &nominal, self.cfg.overload_policy)?;
        self.phi = plan.admitted;
        self.bump_epoch(round, "capacity");
        let record = ShedRecord {
            round,
            epoch: self.epoch,
            capacity: self.mu.clone(),
            admitted: self.phi.clone(),
            shed: plan.shed,
        };
        self.emit(
            "ring.shed",
            &[
                ("round", round.into()),
                ("epoch", self.epoch.into()),
                ("capacity_total", self.mu.iter().sum::<f64>().into()),
                ("admitted_total", record.admitted_total().into()),
                ("shed_total", record.shed_total().into()),
            ],
        );
        self.shed_log.push(record);
        Ok(())
    }

    /// The token died at `suspect`. One `round_timeout` later the
    /// failure detector declares the suspect failed, bumps the epoch and
    /// regenerates the token at the returned new holder, the first live
    /// user still owed a report: the head of the ring for an interrupted
    /// round (a fresh Gauss–Seidel sweep of the reduced system), the next
    /// reporter for an interrupted terminate lap.
    fn repair_token_loss(&mut self, suspect: usize, token: &mut Token) -> Result<usize, GameError> {
        self.advance(self.cfg.round_timeout)?;
        let round = self.norms.len() as u32;
        self.emit(
            "ring.token_lost",
            &[
                ("suspect", suspect.into()),
                ("round", round.into()),
                ("epoch", self.epoch.into()),
            ],
        );
        self.close_spans(
            &[("interrupted", true.into())],
            &[("interrupted", true.into()), ("cause", "token_lost".into())],
        );
        self.declare_failed(suspect);
        if !self.alive.contains(&true) {
            return Err(GameError::RingTimeout {
                round,
                waited_ms: self.cfg.round_timeout.as_millis() as u64,
                reason: format!("token lost at user {suspect}; no users survive"),
            });
        }
        self.bump_epoch(round, "token_lost");
        let terminate = token.terminate;
        *token = Token::regenerated(round, self.epoch);
        token.terminate = terminate;
        // A lap with nobody left to visit ends at the loop's next check.
        let Some(next) = self.first_owed() else {
            return Ok(suspect);
        };
        self.begin_hold(next);
        Ok(next)
    }

    /// Hands the token from `from` to its live successor and returns the
    /// new holder. A successor that died after its own forward is found
    /// gone by this send and spliced out at once, with no detector wait.
    fn forward(&mut self, from: usize) -> usize {
        loop {
            let m = self.alive.len();
            let to = (1..=m)
                .map(|k| (from + k) % m)
                .find(|&k| self.alive[k])
                .unwrap_or(from);
            self.emit(
                "ring.hop",
                &[("to", to.into()), ("epoch", self.epoch.into())],
            );
            self.begin_hold(to);
            if !self.users[to].crashed {
                return to;
            }
            self.emit(
                "ring.splice",
                &[("skipped", to.into()), ("epoch", self.epoch.into())],
            );
            self.declare_failed(to);
        }
    }

    /// Removes user `j` from the ring: a dead user sends no jobs, so its
    /// board row is zeroed before the survivors re-converge, and its
    /// admitted rate neither counts toward feasibility nor shows up as
    /// shed load.
    fn declare_failed(&mut self, j: usize) {
        self.alive[j] = false;
        self.failed.push(j);
        self.emit(
            "ring.fault",
            &[
                ("user", j.into()),
                ("round", (self.norms.len() as u64).into()),
                ("epoch", self.epoch.into()),
            ],
        );
        self.flows[j * self.n..(j + 1) * self.n].fill(0.0);
        self.phi[j] = 0.0;
    }

    /// Moves the ring to a new repair epoch after `round`.
    fn bump_epoch(&mut self, round: u32, cause: &'static str) {
        self.epoch += 1;
        let fields = [
            ("epoch", self.epoch.into()),
            ("round", round.into()),
            ("cause", cause.into()),
        ];
        self.emit("ring.epoch", &fields);
    }

    /// Advances the virtual clock, failing once it reaches the deadline.
    fn advance(&mut self, by: Duration) -> Result<(), GameError> {
        self.clock = self.clock.saturating_add(by);
        match self.cfg.run_deadline {
            Some(deadline) if self.clock >= deadline => Err(GameError::RingTimeout {
                round: self.norms.len() as u32,
                waited_ms: deadline.as_millis() as u64,
                reason: "run deadline exceeded".into(),
            }),
            _ => Ok(()),
        }
    }

    /// User `j`'s current flow row.
    fn row(&self, j: usize) -> &[f64] {
        &self.flows[j * self.n..(j + 1) * self.n]
    }

    /// User `j`'s actual expected response time on the *true* board.
    fn response_time(&mut self, j: usize) -> f64 {
        column_sums(&self.flows, self.n, None, &mut self.totals);
        let phi = self.phi[j];
        let mut d = 0.0;
        for (i, &x) in self.row(j).iter().enumerate() {
            if x > 0.0 {
                d += x / phi * lb_queueing::mm1::response_time(self.totals[i], self.mu[i]);
            }
        }
        d
    }

    /// The first live user that has not reported: the head of the ring
    /// until the terminate lap starts.
    fn first_owed(&self) -> Option<usize> {
        (0..self.alive.len()).find(|&j| self.alive[j] && !self.users[j].reported)
    }

    /// Emits a telemetry event if a collector is attached and enabled.
    fn emit(&self, name: &'static str, fields: &[Field]) {
        if let Some(c) = lb_telemetry::enabled(self.cfg.collector.as_ref()) {
            c.emit(name, fields);
        }
    }

    /// Rolls the `ring.hold` span to the token's new holder, opening the
    /// `ring.round` span first if none is open: the holds partition each
    /// round into per-user token-holding intervals. The round index is
    /// the count of completed rounds, so the terminate lap shows up as
    /// one last `ring.round` interval.
    fn begin_hold(&mut self, user: usize) {
        self.hold_span = None;
        let Some(run) = &self.run_span else { return };
        let epoch = self.epoch;
        let fields = [("round", self.norms.len().into()), ("epoch", epoch.into())];
        let round = self
            .round_span
            .get_or_insert_with(|| run.child("ring.round", &fields));
        let fields = [("user", user.into()), ("epoch", epoch.into())];
        self.hold_span = Some(round.child("ring.hold", &fields));
    }

    /// Closes the open hold and round spans, attaching `hold` and
    /// `round` to their close events.
    fn close_spans(&mut self, hold: &[Field], round: &[Field]) {
        if let Some(span) = self.hold_span.take() {
            span.close_with(hold);
        }
        if let Some(span) = self.round_span.take() {
            span.close_with(round);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_game::equilibrium::epsilon_nash_gap;
    use lb_game::nash::{Initialization, NashSolver};

    fn model() -> SystemModel {
        SystemModel::new(vec![10.0, 20.0, 50.0], vec![15.0, 25.0]).unwrap()
    }

    #[test]
    fn zero_round_budget_is_rejected() {
        let err = DistributedNash::new().max_rounds(0).run(&model());
        assert!(matches!(err, Err(GameError::ZeroIterationBudget)));
    }

    #[test]
    fn zero_round_timeout_is_rejected() {
        let err = DistributedNash::new()
            .round_timeout(Duration::ZERO)
            .run(&model());
        assert!(matches!(
            err,
            Err(GameError::ZeroDuration {
                what: "round_timeout"
            })
        ));
    }

    #[test]
    fn zero_run_deadline_is_rejected() {
        let err = DistributedNash::new()
            .run_deadline(Duration::ZERO)
            .run(&model());
        assert!(matches!(
            err,
            Err(GameError::ZeroDuration {
                what: "run_deadline"
            })
        ));
    }

    #[test]
    fn ring_converges_to_epsilon_nash() {
        let m = model();
        let out = DistributedNash::new().run(&m).unwrap();
        let gap = epsilon_nash_gap(&m, out.profile()).unwrap();
        assert!(gap < 1e-3, "gap {gap}");
        assert!(out.rounds() > 0);
        assert_eq!(out.user_times().len(), 2);
        assert!(out.converged());
        assert!(out.failed_users().is_empty());
        assert_eq!(out.survivors(), &[0, 1]);
    }

    #[test]
    fn matches_sequential_solver() {
        let m = model();
        let dist = DistributedNash::new().tolerance(1e-8).run(&m).unwrap();
        let seq = NashSolver::new(Initialization::Proportional)
            .tolerance(1e-8)
            .solve(&m)
            .unwrap();
        let d = dist.profile().max_l1_distance(seq.profile()).unwrap();
        assert!(d < 1e-4, "distributed and sequential differ by {d}");
        // Identical round counts too: the ring replays the same dynamics.
        assert_eq!(dist.rounds(), seq.iterations());
    }

    #[test]
    fn zero_init_matches_sequential_nash0() {
        let m = model();
        let dist = DistributedNash::new()
            .init(RingInit::Zero)
            .tolerance(1e-8)
            .run(&m)
            .unwrap();
        let seq = NashSolver::new(Initialization::Zero)
            .tolerance(1e-8)
            .solve(&m)
            .unwrap();
        assert_eq!(dist.rounds(), seq.iterations());
        let d = dist.profile().max_l1_distance(seq.profile()).unwrap();
        assert!(d < 1e-4);
    }

    #[test]
    fn single_user_ring_works() {
        let m = SystemModel::new(vec![10.0, 20.0], vec![12.0]).unwrap();
        let out = DistributedNash::new().run(&m).unwrap();
        assert!(epsilon_nash_gap(&m, out.profile()).unwrap() < 1e-6);
        // The accepting round is quiescent: the lone user skips it.
        assert_eq!(out.total_updates(), out.rounds() - 1);
    }

    #[test]
    fn ring_spans_nest_run_round_hold_and_all_close() {
        use lb_telemetry::{FieldValue, MemoryCollector, SPAN_CLOSE, SPAN_OPEN};

        let m = model();
        let mem = Arc::new(MemoryCollector::default());
        let out = DistributedNash::new()
            .collector(mem.clone())
            .run(&m)
            .unwrap();

        let events = mem.events();
        let field_u64 = |fields: &[Field], key: &str| -> Option<u64> {
            fields
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| match v {
                    FieldValue::U64(n) => *n,
                    other => panic!("field {key} was {other:?}"),
                })
        };
        let opens: Vec<_> = events.iter().filter(|(n, _)| *n == SPAN_OPEN).collect();
        let closes = events.iter().filter(|(n, _)| *n == SPAN_CLOSE).count();
        assert_eq!(opens.len(), closes, "unbalanced span open/close");

        // One run root; every round span is its child; every hold span is
        // a child of some round span. The completed rounds match the
        // outcome (plus one optional terminate-lap interval).
        let mut run_id = None;
        let mut round_ids = std::collections::BTreeSet::new();
        let (mut rounds, mut holds) = (0usize, 0usize);
        for (_, fields) in &opens {
            let id = field_u64(fields, "span").unwrap();
            let parent = field_u64(fields, "parent");
            let name = match &fields.iter().find(|(k, _)| *k == "name").unwrap().1 {
                FieldValue::Str(s) => s.to_string(),
                other => panic!("name was {other:?}"),
            };
            match name.as_str() {
                "ring.run" => {
                    assert!(run_id.replace(id).is_none(), "two run roots");
                    assert_eq!(parent, None);
                }
                "ring.round" => {
                    rounds += 1;
                    round_ids.insert(id);
                    assert_eq!(parent, run_id, "round not parented under run");
                }
                "ring.hold" => {
                    holds += 1;
                    assert!(
                        round_ids.contains(&parent.unwrap()),
                        "hold not parented under a round"
                    );
                }
                other => panic!("unexpected span {other}"),
            }
        }
        let completed = out.rounds() as usize;
        assert!(
            rounds == completed || rounds == completed + 1,
            "round spans {rounds} vs completed rounds {completed}"
        );
        // Each round holds the token once per user (2 users here), and
        // the terminate lap adds at most one partial lap of holds.
        assert!(holds >= completed * 2, "holds {holds}");
    }

    #[test]
    fn round_budget_is_enforced() {
        let m = SystemModel::table1_system(0.9).unwrap();
        let err = DistributedNash::new()
            .init(RingInit::Zero)
            .tolerance(1e-12)
            .max_rounds(2)
            .run(&m)
            .unwrap_err();
        assert!(matches!(
            err,
            GameError::DidNotConverge { iterations: 2, .. }
        ));
    }

    #[test]
    fn run_to_outcome_keeps_the_exhausted_partial_state() {
        let m = SystemModel::table1_system(0.9).unwrap();
        let out = DistributedNash::new()
            .init(RingInit::Zero)
            .tolerance(1e-12)
            .max_rounds(2)
            .run_to_outcome(&m)
            .unwrap();
        assert_eq!(out.termination(), Termination::Exhausted);
        assert!(!out.converged());
        assert_eq!(out.rounds(), 2);
        // The partial profile is still a feasible strategy profile.
        assert_eq!(out.profile().num_users(), m.num_users());
    }

    #[test]
    fn noisy_observation_still_roughly_equilibrates() {
        let m = SystemModel::table1_system(0.5).unwrap();
        // Noise keeps the true regret above any tight ε forever, so the
        // certified rule would (rightly) never accept — this test is
        // about rough equilibration and pins the paper's norm rule.
        let out = DistributedNash::new()
            .observation(ObservationModel::Noisy {
                rel_std: 0.02,
                seed: 11,
            })
            .stopping_rule(StoppingRule::AbsoluteNorm)
            .tolerance(5e-3)
            .max_rounds(2000)
            .run(&m)
            .unwrap();
        // With 2% observation noise the profile is still a loose eps-Nash.
        let gap = epsilon_nash_gap(&m, out.profile()).unwrap();
        let d_avg: f64 = out.user_times().iter().sum::<f64>() / out.user_times().len() as f64;
        assert!(gap < 0.25 * d_avg, "gap {gap} vs avg time {d_avg}");
    }

    #[test]
    fn collector_sees_hops_rounds_and_done_without_perturbing_the_run() {
        use lb_telemetry::MemoryCollector;

        let m = model();
        let plain = DistributedNash::new().run(&m).unwrap();
        let mem = Arc::new(MemoryCollector::default());
        let traced = DistributedNash::new()
            .collector(mem.clone())
            .run(&m)
            .unwrap();

        // The ring replays the same deterministic dynamics.
        assert_eq!(traced.rounds(), plain.rounds());
        for (a, b) in traced.trace().values().iter().zip(plain.trace().values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        assert_eq!(mem.count("ring.start"), 1);
        assert_eq!(mem.count("ring.round"), traced.rounds() as usize);
        // Every user forwards once per round (tail included), plus the
        // terminate lap's m-1 forwards; the coordinator's own injections
        // are not hops. Just require a healthy lower bound.
        assert!(
            mem.count("ring.hop") >= traced.rounds() as usize * m.num_users() - 1,
            "hops {} for {} rounds",
            mem.count("ring.hop"),
            traced.rounds()
        );
        assert_eq!(mem.count("ring.report"), m.num_users());
        assert_eq!(mem.count("ring.done"), 1);
        assert_eq!(mem.count("ring.fault"), 0);
    }

    #[test]
    fn collector_sees_faults_and_capacity_churn() {
        use crate::fault::FaultPlan;
        use lb_telemetry::MemoryCollector;

        // Four users so the ring survives one crash; degrade then
        // recover computer 1 to trigger capacity/epoch/shed events.
        let m = SystemModel::with_equal_users(vec![10.0, 20.0, 50.0], 4, 0.5).unwrap();
        let mem = Arc::new(MemoryCollector::default());
        let plan = FaultPlan::new()
            .drop_token_at(1, 2)
            .degrade_computer_at(4, 1, 8.0)
            .recover_computer_at(6, 1);
        let out = DistributedNash::new()
            .fault_plan(plan)
            .round_timeout(Duration::from_millis(300))
            .overload_policy(OverloadPolicy::ShedProportional { headroom: 0.9 })
            .collector(mem.clone())
            .run(&m)
            .unwrap();

        assert_eq!(out.failed_users(), &[1]);
        assert_eq!(mem.count("ring.token_lost"), 1);
        assert_eq!(mem.count("ring.fault"), 1);
        assert_eq!(mem.count("ring.capacity"), 2);
        assert_eq!(mem.count("ring.shed"), 2);
        // One epoch bump per repair/capacity application.
        assert_eq!(mem.count("ring.epoch"), 3);
        assert_eq!(mem.count("ring.report"), 3);
        assert_eq!(mem.count("ring.done"), 1);
    }

    #[test]
    fn table1_ring_at_medium_load() {
        let m = SystemModel::table1_system(0.6).unwrap();
        let out = DistributedNash::new().run(&m).unwrap();
        let gap = epsilon_nash_gap(&m, out.profile()).unwrap();
        assert!(gap < 1e-2, "gap {gap}");
        assert_eq!(out.profile().num_users(), 10);
        // Users skip once ε-optimal (the accepting round is fully
        // quiescent), so updates land strictly below users × rounds.
        assert!(out.total_updates() < 10 * out.rounds());
        assert!(out.total_updates() >= 10 * (out.rounds() - 1) / 2);
    }

    #[test]
    fn delays_advance_a_virtual_clock_measured_by_timeout_and_deadline() {
        use crate::fault::FaultPlan;

        let m =
            SystemModel::new(vec![10.0, 20.0, 35.0, 50.0], vec![9.0, 14.0, 19.0, 24.0]).unwrap();
        let ms = Duration::from_millis;
        let ring = |plan: FaultPlan| {
            DistributedNash::new()
                .fault_plan(plan)
                .round_timeout(ms(1000))
        };
        let two_delays = || {
            FaultPlan::new()
                .delay_at(1, 1, ms(200))
                .delay_at(2, 1, ms(200))
        };

        // Two sub-patience delays in one round: nobody is declared failed
        // and the ring replays the faultless dynamics exactly.
        let plain = DistributedNash::new().run(&m).unwrap();
        let out = ring(two_delays()).run(&m).unwrap();
        assert!(out.failed_users().is_empty());
        assert!(out.converged());
        assert_eq!(out.trace().values(), plain.trace().values());

        // The delays add up on one clock: 400 ms passes a 300 ms deadline
        // although each alone is shorter, and stays inside a 500 ms one.
        let err = ring(two_delays()).run_deadline(ms(300)).run(&m);
        match err {
            Err(GameError::RingTimeout { reason, .. }) => {
                assert!(reason.contains("deadline"), "unexpected reason: {reason}")
            }
            other => panic!("expected RingTimeout, got {other:?}"),
        }
        assert!(ring(two_delays()).run_deadline(ms(500)).run(&m).is_ok());

        // A delay as long as the patience is a detected failure.
        let slow = ring(FaultPlan::new().delay_at(1, 1, ms(1000)))
            .run(&m)
            .unwrap();
        assert_eq!(slow.failed_users(), &[1]);

        // Virtual time costs no wall time: an hour-long stall under a
        // two-hour patience is tolerated and the test still returns.
        let hour = Duration::from_secs(3600);
        let out = DistributedNash::new()
            .fault_plan(FaultPlan::new().delay_at(2, 3, hour))
            .round_timeout(2 * hour)
            .run(&m)
            .unwrap();
        assert!(out.failed_users().is_empty());
    }

    #[test]
    fn bad_capacity_events_are_typed_errors() {
        use crate::fault::FaultPlan;

        let run = |plan: FaultPlan| DistributedNash::new().fault_plan(plan).run(&model());
        assert!(matches!(
            run(FaultPlan::new().crash_computer_at(1, 3)),
            Err(GameError::DimensionMismatch {
                expected: 3,
                actual: 4
            })
        ));
        assert!(matches!(
            run(FaultPlan::new().degrade_computer_at(1, 0, f64::NAN)),
            Err(GameError::InvalidRate {
                name: "degraded mu",
                ..
            })
        ));
    }
}
