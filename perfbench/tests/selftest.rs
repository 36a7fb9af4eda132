//! Self-test of the benchmark: traced runs repeat exactly at a
//! seed, layer self times add up to the traced wall time, the oracle's
//! water-filling gap agrees with the library's, and `BENCHMARK.json`
//! names exactly the metrics the benchmark prints.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use lb_game::equilibrium::epsilon_nash_gap;
use lb_game::model::SystemModel;
use lb_game::nash::{Initialization, NashSolver};
use lb_game::schemes::{LoadBalancingScheme, ProportionalScheme};
use perfbench::report::{self, END_TO_END, LAYER_SUM_TOLERANCE, PER_LAYER};
use perfbench::trace::{Recorder, LAYERS};
use perfbench::workloads::{self, hetero_instance, Ctx, Rng, WORKLOADS};
use perfbench::{bench_threads, oracle, run_pass, Pass};
use std::collections::BTreeMap;
use std::sync::Arc;

const SEED: u64 = 7;

/// Everything a traced round counts, excluding host times.
fn counts(pass: &Pass, recorder: &Recorder) -> (BTreeMap<String, u64>, Vec<String>) {
    let per_task = pass
        .records
        .iter()
        .map(|(slot, o)| {
            format!(
                "{slot} {:?} {:?} {:?} jobs={} cert={} virt={:?} mean={:?} sweeps={} updates={} syncs={} retries={} net={:?}",
                o.failure,
                o.miss,
                o.violation,
                o.jobs,
                o.certified,
                o.virtual_ms,
                o.system_mean,
                o.sweeps,
                o.updates,
                o.syncs,
                o.retries,
                o.net
            )
        })
        .chain(pass.group_checks.iter().map(|c| format!("{c:?}")))
        .collect();
    (recorder.sums(), per_task)
}

fn traced_round(workload: &str) -> (BTreeMap<String, u64>, Vec<String>, f64, f64) {
    let plain = Ctx {
        threads: bench_threads(),
        recorder: None,
    };
    let setup = workloads::setup(workload, SEED, &plain).expect("setup");
    let recorder: Arc<Recorder> = Recorder::new();
    let ctx = Ctx {
        threads: bench_threads(),
        recorder: Some(&recorder),
    };
    let pass = run_pass(&setup, &ctx, 0.0);
    assert_eq!(
        pass.records.len(),
        setup.tasks.len(),
        "{workload}: one round"
    );
    for (slot, o) in &pass.records {
        assert!(
            o.violation.is_none(),
            "{workload}: {} returned a wrong output: {:?}",
            setup.tasks[*slot].class,
            o.violation
        );
    }
    let wall: f64 = pass.records.iter().map(|(_, o)| o.host_s).sum();
    let a = recorder.attribute();
    let layers: f64 = LAYERS.iter().map(|l| a.layer_ns(l)).sum::<f64>() / 1e9;
    let (sums, per_task) = counts(&pass, &recorder);
    (sums, per_task, wall, layers)
}

#[test]
fn traced_runs_repeat_exactly_and_layers_add_up_to_wall_time() {
    for workload in WORKLOADS {
        let (sums_a, tasks_a, wall_a, layers_a) = traced_round(workload);
        let (sums_b, tasks_b, wall_b, layers_b) = traced_round(workload);
        assert!(
            !sums_a.is_empty() || workload == "dispatch_feedback",
            "{workload}: no counters"
        );
        assert_eq!(sums_a, sums_b, "{workload}: account totals differ");
        assert_eq!(tasks_a, tasks_b, "{workload}: per-task counts differ");
        for (wall, layers) in [(wall_a, layers_a), (wall_b, layers_b)] {
            assert!(
                (layers / wall - 1.0).abs() <= LAYER_SUM_TOLERANCE,
                "{workload}: layers {layers} s vs traced wall {wall} s"
            );
        }
    }
}

#[test]
fn failures_count_tasks_of_the_round_not_repeats() {
    let plain = Ctx {
        threads: bench_threads(),
        recorder: None,
    };
    let setup = workloads::setup("paper_des", SEED, &plain).expect("setup");
    let start = std::time::Instant::now();
    let once = run_pass(&setup, &plain, 0.0);
    let round_s = start.elapsed().as_secs_f64();
    let longer = run_pass(&setup, &plain, 1.5 * round_s);
    assert!(longer.records.len() > setup.tasks.len(), "repeats tasks");
    let a = report::tally(&setup, &[&once]);
    let b = report::tally(&setup, &[&longer]);
    assert_eq!(a.attempted, setup.tasks.len() as u64);
    assert_eq!(
        (
            a.attempted,
            a.failed,
            a.intervals,
            a.interval_misses,
            &a.classes
        ),
        (
            b.attempted,
            b.failed,
            b.intervals,
            b.interval_misses,
            &b.classes
        )
    );
    assert!(a.correct && b.correct);
}

#[test]
fn water_filling_gap_matches_the_library() {
    let mut rng = Rng::new(SEED, 9);
    let mut models: Vec<SystemModel> = [0.2, 0.6, 0.9]
        .iter()
        .map(|&rho| SystemModel::table1_system(rho).expect("model"))
        .collect();
    models.push(hetero_instance(8, 12, 0.7, &mut rng).expect("model"));
    for model in &models {
        let ps = ProportionalScheme.compute(model).expect("PS");
        let nash = NashSolver::new(Initialization::Proportional)
            .solve(model)
            .expect("NASH")
            .into_profile();
        for profile in [ps, nash] {
            let library = epsilon_nash_gap(model, &profile).expect("gap");
            let (ours, _) = oracle::dense_gap(model, &profile).expect("gap");
            assert!(
                (library - ours).abs() <= 1e-9 * library.max(1e-6),
                "library {library:e} vs oracle {ours:e}"
            );
        }
    }
}

#[test]
fn intervals_and_job_counts_check_what_they_claim() {
    assert!(oracle::ci95_covers(&[1.0, 1.1, 0.9, 1.05, 0.95], 1.0).is_ok());
    assert!(oracle::ci95_covers(&[1.0, 1.01, 0.99, 1.0, 1.0], 1.5).is_err());
    assert_eq!(oracle::max_interval_misses(0), 0);
    assert_eq!(oracle::max_interval_misses(68), 15);
    assert!(oracle::jobs_near(100_000, 100_000).is_ok());
    assert!(oracle::jobs_near(90_000, 100_000).is_err());
    assert_eq!(report::quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0);
    assert_eq!(report::quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.95), 5.0);
    assert_eq!(report::median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
}

#[test]
fn benchmark_json_names_every_printed_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names = text.matches("\"name\":").count();
    assert_eq!(
        names,
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists other metrics than the benchmark prints"
    );
    for name in WORKLOADS
        .iter()
        .chain(END_TO_END.iter().map(|(n, _)| n))
        .chain(PER_LAYER.iter().map(|(n, _, _)| n))
    {
        assert!(
            text.contains(&format!("\"name\": \"{name}\"")),
            "{name} missing from BENCHMARK.json"
        );
    }
}
