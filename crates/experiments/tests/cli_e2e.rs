//! End-to-end tests of the `experiments` binary: spawn the real
//! executable, check exit codes, stdout shape, and CSV artifacts.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
}

fn temp_out(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lb_cli_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn table1_prints_and_writes_csv() {
    let out = temp_out("table1");
    let output = bin()
        .args(["table1", "--out", out.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("Table 1"));
    assert!(stdout.contains("processing rate"));
    let csv = std::fs::read_to_string(out.join("table1.csv")).expect("csv written");
    assert!(csv.lines().count() >= 3);
    assert!(csv.contains("100"));
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn fig3_csv_has_the_user_sweep() {
    let out = temp_out("fig3");
    let output = bin()
        .args(["fig3", "--out", out.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let csv = std::fs::read_to_string(out.join("fig3.csv")).unwrap();
    let mut lines = csv.lines();
    assert_eq!(
        lines.next().unwrap(),
        "users,NASH_0 iterations,NASH_P iterations"
    );
    // 8 sweep points, each with NASH_P < NASH_0.
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), 8);
    for row in rows {
        let cells: Vec<u32> = row.split(',').map(|c| c.parse().unwrap()).collect();
        assert!(cells[2] < cells[1], "row {row}");
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn trace_writes_a_schema_valid_log_and_prints_the_report() {
    let out = temp_out("trace");
    let output = bin()
        .args(["trace", "--out", out.to_str().unwrap(), "--verbose"])
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("NASH solver convergence"), "{stdout}");
    assert!(stdout.contains("token-ring fault timeline"), "{stdout}");
    assert!(stdout.contains("event counts"), "{stdout}");
    assert!(stdout.contains("schema v4"), "{stdout}");
    // --verbose mirrors events to stderr as they happen.
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("solver.sweep"), "stderr: {stderr}");
    assert!(stderr.contains("ring.hop"), "stderr: {stderr}");
    // The log parses under the versioned schema.
    let text = std::fs::read_to_string(out.join("trace_table1.jsonl")).unwrap();
    let log = lb_telemetry::parse_log(&text).expect("schema-valid log");
    assert_eq!(log.version, lb_telemetry::SCHEMA_VERSION);
    assert!(log.count("solver.sweep") > 0);
    assert!(log.count("ring.hop") > 0);
    assert!(std::fs::metadata(out.join("trace_metrics.json")).is_ok());
    assert!(std::fs::metadata(out.join("trace_metrics.prom")).is_ok());
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn analyze_profiles_a_trace_and_writes_the_artifacts() {
    let out = temp_out("analyze");
    // First produce a trace, then profile it with an explicit log path
    // and the --out-dir alias.
    let trace = bin()
        .args(["trace", "--out-dir", out.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        trace.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&trace.stderr)
    );
    let log = out.join("trace_table1.jsonl");
    let output = bin()
        .args([
            "analyze",
            log.to_str().unwrap(),
            "--out-dir",
            out.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("span forest"), "{stdout}");
    assert!(stdout.contains("per-name attribution"), "{stdout}");
    assert!(stdout.contains("solver.solve"), "{stdout}");
    // Zero orphans on a clean trace.
    let orphan_line = stdout
        .lines()
        .find(|l| l.contains("orphans"))
        .expect("orphans row");
    assert!(orphan_line.trim_end().ends_with('0'), "{orphan_line}");
    let chrome = std::fs::read_to_string(out.join("trace_table1_chrome.json")).unwrap();
    lb_telemetry::json::parse(&chrome).expect("chrome JSON parses");
    let folded = std::fs::read_to_string(out.join("trace_table1_folded.txt")).unwrap();
    assert!(folded.lines().count() > 5, "{folded}");
    assert!(std::fs::metadata(out.join("trace_table1_spans.csv")).is_ok());
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn watch_serves_replays_and_reports_the_slo_verdicts() {
    let out = temp_out("watch");
    let output = bin()
        .args([
            "watch",
            "--port",
            "0",
            "--iterations",
            "12",
            "--out",
            out.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("[watch] serving http://127.0.0.1:"),
        "{stdout}"
    );
    assert!(stdout.contains("SLO verdicts"), "{stdout}");
    assert!(stdout.contains("OVERLOAD"), "{stdout}");
    assert!(stdout.contains("alert fire(s)"), "{stdout}");
    // The watch trace parses under the versioned schema and carries
    // the live signals.
    let text = std::fs::read_to_string(out.join("watch_trace.jsonl")).unwrap();
    let log = lb_telemetry::parse_log(&text).expect("schema-valid log");
    assert_eq!(log.version, lb_telemetry::SCHEMA_VERSION);
    assert!(log.count("watch.gap") > 0);
    assert!(log.count("xspan.send") > 0);
    assert!(log.count("alert.fire") > 0, "overload must fire an alert");
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn analyze_rejects_a_deeply_nested_trace_without_aborting() {
    // A valid header followed by 50k unclosed `[`: the parser must
    // refuse it with a typed error, not overflow its stack (exit 134).
    let out = temp_out("deep_json");
    std::fs::create_dir_all(&out).unwrap();
    let log = out.join("deep.jsonl");
    let header = r#"{"schema":"lb-telemetry","version":4}"#;
    std::fs::write(&log, format!("{header}\n{}\n", "[".repeat(50_000))).unwrap();
    let output = bin()
        .args(["analyze", log.to_str().unwrap(), "--out-dir"])
        .arg(&out)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("nesting deeper than"), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn unknown_command_fails_with_usage() {
    let output = bin().arg("fig99").output().expect("binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
}

#[test]
fn missing_command_fails() {
    let output = bin().output().expect("binary runs");
    assert!(!output.status.success());
}

#[test]
fn bad_flag_value_fails() {
    let output = bin()
        .args(["fig2", "--jobs", "not-a-number"])
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("--jobs"));
}

/// Runs `fig4 --simulate` with one zero-size knob and checks the run is
/// refused with the typed error before any figure CSV is written.
fn zero_size_simulation_is_refused(tag: &str, flag: &str, knob: &str) {
    let out = temp_out(tag);
    let output = bin()
        .args(["fig4", "--simulate", flag, "0", "--out-dir"])
        .arg(&out)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!("run size `{knob}` must be at least 1")),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(!out.join("fig4_times.csv").exists());
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn zero_replications_is_a_typed_error_not_a_panic() {
    zero_size_simulation_is_refused("zero_reps", "--replications", "replications");
}

#[test]
fn zero_jobs_is_a_typed_error_not_zero_response_times() {
    zero_size_simulation_is_refused("zero_jobs", "--jobs", "target_jobs");
}
