//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root, e.g.
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload paper_des --seed 1 --seconds 20 --trace 0`.
//! Prints `#`-prefixed report lines, then one JSON result line.

use perfbench::report::{self, Metric};
use perfbench::trace::Recorder;
use perfbench::workloads::{self, Ctx};
use perfbench::{bench_threads, nproc, run_pass, run_pass_with, speed, VISIT_MIN_S};
use std::process::ExitCode;
use std::time::Instant;

/// Set-up batches timed before the pass; one more is timed after every
/// reference sample of the pass.
const SETUP_FIRST_BATCHES: usize = 21;

/// Set-up batches: `(reference seconds around the batch, host seconds
/// per set-up)`.
#[derive(Default)]
struct SetupTimes(Vec<(f64, f64)>);

impl SetupTimes {
    /// Repeats set-up for about `before`, the reference sample just
    /// taken, and records it with the mean of that sample and one taken
    /// right after.
    fn batch(&mut self, args: &Args, ctx: &Ctx, before: f64) -> Result<workloads::Setup, String> {
        let start = Instant::now();
        let mut reps = 1;
        let mut setup = workloads::setup(&args.workload, args.seed, ctx)?;
        while start.elapsed().as_secs_f64() < before {
            setup = workloads::setup(&args.workload, args.seed, ctx)?;
            reps += 1;
        }
        let each = start.elapsed().as_secs_f64() / f64::from(reps);
        let after = speed::reference();
        self.0.push(((before + after) / 2.0, each));
        Ok(setup)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; choose one of {:?}",
            workloads::WORKLOADS
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set size of this process, in MiB: `VmHWM` of
/// `/proc/self/status`, which starts afresh at `exec` (unlike
/// `getrusage`'s `ru_maxrss`, which keeps the parent's peak). 0 where
/// the file is missing.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The checkout's git revision when `.git` is present, else `unknown`.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l.split(' ').next().unwrap_or_default().to_string())
            })
            .map_or("unknown".into(), |s| s.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// FNV-1a digest of every file under `crates/`, in path order: names
/// the library source the numbers were measured on, with or without git.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for b in file.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn print_metrics(kind: &str, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "# {kind} {} = {} {} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn run(args: &Args) -> Result<(), String> {
    let threads = bench_threads();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# provenance {{\"seed\": {}, \"nproc\": {}, \"threads\": {}, \"profile\": \"{profile}\", \
         \"git_rev\": \"{}\", \"source_fnv64\": \"{}\", \"clients\": 1, \"loop\": \"closed\"}}",
        args.seed,
        nproc(),
        threads,
        git_revision(),
        source_digest()
    );
    let plain = Ctx {
        threads,
        recorder: None,
    };
    let mut setup_times = SetupTimes::default();
    let mut setup = setup_times.batch(args, &plain, speed::reference())?;
    for _ in 1..SETUP_FIRST_BATCHES {
        setup = setup_times.batch(args, &plain, speed::reference())?;
    }
    println!("# round of {} tasks", setup.tasks.len());

    let (tally, metrics) = if args.trace {
        let untraced = run_pass(&setup, &plain, 0.0);
        let setup_recorder = Recorder::new();
        let traced_setup = Ctx {
            threads,
            recorder: Some(&setup_recorder),
        };
        workloads::setup(&args.workload, args.seed, &traced_setup)?;
        let recorder = Recorder::new();
        let traced_ctx = Ctx {
            threads,
            recorder: Some(&recorder),
        };
        let traced = run_pass(&setup, &traced_ctx, 0.0);
        let metrics = report::per_layer(
            &setup,
            &untraced,
            &traced,
            &recorder,
            &setup_recorder,
            threads,
        );
        let sum = metrics
            .iter()
            .find(|m| m.name == "trace.layer_sum_frac")
            .map_or(0.0, |m| m.value);
        println!(
            "# layer self times sum to {:.4} of traced wall_s (tolerance ±{})",
            sum,
            report::LAYER_SUM_TOLERANCE
        );
        let mut tally = report::tally(&setup, &[&untraced, &traced]);
        if (sum - 1.0).abs() > report::LAYER_SUM_TOLERANCE {
            println!("# layer-sum check FAILED");
            tally.correct = false;
        }
        (tally, metrics)
    } else {
        let pass = run_pass_with(
            &setup,
            &plain,
            args.seconds,
            VISIT_MIN_S,
            &mut |reference| {
                // Set-up succeeded above and depends only on the seed.
                let _ = setup_times.batch(args, &plain, reference);
            },
        );
        print_metrics("workload", &report::workload_metrics(&setup, &pass));
        println!(
            "# host speed: reference {} ms (median of n={}, nominal {} ms); \
             end-to-end times are scaled to the nominal speed around each task",
            pass.reference_median() * 1e3,
            pass.reference.len(),
            speed::NOMINAL_S * 1e3
        );
        let rss = peak_rss_mb();
        print_metrics(
            "raw",
            &report::end_to_end(&setup_times.0, &setup, &pass, rss, false),
        );
        let metrics = report::end_to_end(&setup_times.0, &setup, &pass, rss, true);
        (report::tally(&setup, &[&pass]), metrics)
    };
    print_metrics(
        if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        },
        &metrics,
    );
    for (class, n) in &tally.classes {
        println!("# tasks x{n}: {class}");
    }
    println!(
        "{}",
        report::result_json(tally.correct, tally.attempted, tally.failed, &metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
