//! Benchmark for the nash-lb workspace.
//!
//! One client runs one workload's tasks one after another (a closed
//! loop). A task is one library call: a replication study, a solve or a
//! distributed-runtime run. The untraced run cycles through the round of
//! tasks for the requested seconds and reports end-to-end metrics; the
//! traced run (`--trace 1`) runs the round once untraced and once with a
//! [`trace::Recorder`] attached, and reports per-layer metrics.

pub mod oracle;
pub mod report;
pub mod speed;
pub mod trace;
pub mod workloads;

use std::time::Instant;
use workloads::{Ctx, Job, Outcome, Setup};

/// The tasks one pass ran, in order, with the slot each came from.
#[derive(Default)]
pub struct Pass {
    /// `(slot, outcome)` per task run.
    pub records: Vec<(usize, Outcome)>,
    /// `(group, verdict)` of each replication group's 95% interval
    /// against its closed form, checked after the group's last task.
    pub group_checks: Vec<(usize, oracle::Check)>,
    /// [`speed::reference`] samples: (seconds into the pass, host seconds).
    pub reference: Vec<(f64, f64)>,
}

impl Pass {
    /// Median host seconds of the reference samples.
    pub fn reference_median(&self) -> f64 {
        report::median(&self.reference.iter().map(|r| r.1).collect::<Vec<_>>())
    }

    /// Factor scaling this pass's host times to the nominal host speed.
    pub fn speed_factor(&self) -> f64 {
        match self.reference_median() {
            r if r > 0.0 => speed::NOMINAL_S / r,
            _ => 1.0,
        }
    }

    /// Reference host seconds around the span from `start_s` to `end_s`
    /// (seconds into the pass): the mean of the last sample taken before
    /// it and the first taken after it, or the one that exists.
    pub fn reference_around(&self, start_s: f64, end_s: f64) -> f64 {
        let before = self.reference.iter().rev().find(|r| r.0 <= start_s);
        let after = self.reference.iter().find(|r| r.0 >= end_s);
        match (before, after) {
            (Some(b), Some(a)) => (b.1 + a.1) / 2.0,
            (Some(r), None) | (None, Some(r)) => r.1,
            (None, None) => 0.0,
        }
    }
}

/// A timed pass runs a task in a row until the runs took this many host
/// seconds, so that short tasks get many timed runs per round.
pub const VISIT_MIN_S: f64 = 0.05;
/// Most runs of a task in a row.
pub const VISIT_MAX_RUNS: u32 = 64;

/// Runs `setup`'s round in slot order, each task once per round,
/// cycling until every slot ran and `min_seconds` of wall time have
/// passed. Between tasks, at most every [`speed::SAMPLE_EVERY_S`], it
/// times the reference computation.
pub fn run_pass(setup: &Setup, ctx: &Ctx, min_seconds: f64) -> Pass {
    run_pass_with(setup, ctx, min_seconds, 0.0, &mut |_| {})
}

/// [`run_pass`], running each task of a round in a row until the runs
/// took `visit_s` host seconds (or [`VISIT_MAX_RUNS`] runs), and calling
/// `after_reference` with each reference sample's host seconds right
/// after taking it, outside every task's time.
pub fn run_pass_with(
    setup: &Setup,
    ctx: &Ctx,
    min_seconds: f64,
    visit_s: f64,
    after_reference: &mut dyn FnMut(f64),
) -> Pass {
    let slots = setup.tasks.len();
    let mut pass = Pass::default();
    let mut latest: Vec<Option<f64>> = vec![None; slots];
    let start = Instant::now();
    let mut sampled_at: Option<Instant> = None;
    let (mut i, mut visit_host, mut visit_runs) = (0, 0.0, 0);
    while i < slots || start.elapsed().as_secs_f64() < min_seconds {
        if sampled_at.is_none_or(|t| t.elapsed().as_secs_f64() >= speed::SAMPLE_EVERY_S) {
            let at = start.elapsed().as_secs_f64();
            let reference = speed::reference();
            pass.reference.push((at, reference));
            after_reference(reference);
            sampled_at = Some(Instant::now());
        }
        let slot = i % slots;
        let task = &setup.tasks[slot];
        let start_s = start.elapsed().as_secs_f64();
        let mut outcome = workloads::run(task, setup, ctx);
        outcome.start_s = start_s;
        latest[slot] = outcome.system_mean;
        if let Job::Policy { group: Some(g), .. } = &task.job {
            let group = &setup.groups[*g];
            if group.slots.last() == Some(&slot) {
                let samples: Vec<f64> = group.slots.iter().filter_map(|&s| latest[s]).collect();
                let check = oracle::ci95_covers(&samples, group.closed_form);
                pass.group_checks.push((*g, check));
            }
        }
        visit_host += outcome.host_s;
        visit_runs += 1;
        if visit_host >= visit_s || visit_runs >= VISIT_MAX_RUNS {
            (i, visit_host, visit_runs) = (i + 1, 0.0, 0);
        }
        pass.records.push((slot, outcome));
    }
    pass
}

/// Number of logical CPUs the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Threads passed to every runner: the host's CPUs, at most two, so
/// results from larger hosts stay comparable.
pub fn bench_threads() -> usize {
    nproc().min(2)
}
