//! No-abort property for the trace parsers: `parse_log` (and through it
//! `LogReader` and `json::parse`) must return — an event log or a typed
//! error — on any corruption of a real trace, and never panic.
//!
//! Each case takes a window of consecutive event lines from the
//! committed `results/trace_table1.jsonl`, renumbers their `seq` so the
//! untouched lines validate, corrupts one to three of them (byte flips,
//! truncation, injected quotes, values swapped for out-of-range or
//! wrongly typed literals) and parses the result behind the trace's
//! valid header.

use lb_telemetry::{json, parse_log, LogReader};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// Literals the swap mutation plants in place of a value: an
/// overflowing float, a negative count, `u64::MAX + 1`, and two wrong
/// JSON types.
const SWAPS: [&str; 5] = ["1e400", "-1", "18446744073709551616", "null", "[]"];

/// The committed trace: its header line and its event lines.
fn trace() -> &'static (String, Vec<String>) {
    static TRACE: OnceLock<(String, Vec<String>)> = OnceLock::new();
    TRACE.get_or_init(|| {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/trace_table1.jsonl"
        );
        let text = std::fs::read_to_string(path).expect("committed trace is readable");
        let mut lines = text.lines().map(str::to_string);
        let header = lines.next().expect("trace has a header");
        (header, lines.collect())
    })
}

#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// Overwrite the byte at `at` (mod length) with `byte`.
    Flip { at: usize, byte: u8 },
    /// Cut the line at `at` (mod length + 1).
    Truncate { at: usize },
    /// Insert a `"` at `at` (mod length + 1).
    Quote { at: usize },
    /// Replace the value after the `nth` `:` (mod count) with a
    /// [`SWAPS`] literal.
    Swap { nth: usize, literal: &'static str },
}

fn mutation() -> impl Strategy<Value = Mutation> {
    (0u8..4, 0usize..4096, 0u8..=255, 0usize..SWAPS.len()).prop_map(|(kind, at, byte, swap)| {
        match kind {
            0 => Mutation::Flip { at, byte },
            1 => Mutation::Truncate { at },
            2 => Mutation::Quote { at },
            _ => Mutation::Swap {
                nth: at,
                literal: SWAPS[swap],
            },
        }
    })
}

fn apply(line: &mut Vec<u8>, m: Mutation) {
    match m {
        Mutation::Flip { at, byte } => {
            if !line.is_empty() {
                let i = at % line.len();
                line[i] = byte;
            }
        }
        Mutation::Truncate { at } => line.truncate(at % (line.len() + 1)),
        Mutation::Quote { at } => line.insert(at % (line.len() + 1), b'"'),
        Mutation::Swap { nth, literal } => {
            let colons: Vec<usize> = (0..line.len()).filter(|&i| line[i] == b':').collect();
            if colons.is_empty() {
                return;
            }
            let start = colons[nth % colons.len()] + 1;
            let end = line[start..]
                .iter()
                .position(|&b| b == b',' || b == b'}')
                .map_or(line.len(), |p| start + p);
            line.splice(start..end, literal.bytes());
        }
    }
}

/// Rewrites the leading `{"seq":N` of a trace line to `{"seq":seq`.
fn renumber(line: &str, seq: usize) -> Vec<u8> {
    let rest = line
        .strip_prefix("{\"seq\":")
        .map(|r| r.trim_start_matches(|c: char| c.is_ascii_digit()));
    match rest {
        Some(rest) => format!("{{\"seq\":{seq}{rest}").into_bytes(),
        None => line.as_bytes().to_vec(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn corrupted_trace_lines_never_panic_the_parser(
        start in 0usize..1_000_000,
        len in 1usize..8,
        mutations in prop::collection::vec((0usize..8, mutation()), 1..=3),
    ) {
        let (header, lines) = trace();
        let start = start % lines.len();
        let end = (start + len).min(lines.len());
        let mut window: Vec<Vec<u8>> = lines[start..end]
            .iter()
            .enumerate()
            .map(|(seq, line)| renumber(line, seq))
            .collect();
        for (k, m) in mutations {
            let i = k % window.len();
            apply(&mut window[i], m);
        }
        let mut log = header.as_bytes().to_vec();
        for line in &window {
            log.push(b'\n');
            log.extend_from_slice(line);
        }
        let text = String::from_utf8_lossy(&log).into_owned();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _ = parse_log(&text);
            // The raw bytes too: a flip may leave invalid UTF-8, which
            // only the streaming reader sees.
            if let Ok(reader) = LogReader::new(&log[..]) {
                reader.for_each(drop);
            }
            for line in text.lines() {
                let _ = json::parse(line);
            }
        }));
        prop_assert!(outcome.is_ok(), "parser panicked on {text:?}");
    }
}

#[test]
fn unmutated_windows_parse_cleanly() {
    // The renumbering keeps intact event lines valid, so the corrupted
    // line — not the window cut — is what the property exercises.
    let (header, lines) = trace();
    let window: Vec<String> = lines
        .iter()
        .filter(|l| l.contains("\"event\":\"ring."))
        .take(6)
        .enumerate()
        .map(|(seq, line)| String::from_utf8(renumber(line, seq)).unwrap())
        .collect();
    assert_eq!(window.len(), 6);
    let text = format!("{header}\n{}\n", window.join("\n"));
    let log = parse_log(&text).unwrap();
    assert_eq!(log.events.len(), 6);
}
