//! Host speed, measured with a fixed reference computation.
//!
//! A shared host drifts in speed: on a shared 2-core host, identical
//! work ran 55% slower four minutes later, every kernel slowing by the
//! same factor. The benchmark therefore times this reference computation
//! between tasks and reports end-to-end times scaled to the nominal
//! reference time, which takes out the host's speed and leaves the
//! library's. The reference is the benchmark's own code (an event-heap
//! M/M/1 queue and a water-filling sweep) and calls no library function,
//! so a change to the library cannot move it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Median time of [`reference`] on the 2-core development host at its
/// fastest; end-to-end times are reported at this host speed.
pub const NOMINAL_S: f64 = 0.00275;

/// Minimum wall time between two reference samples.
pub const SAMPLE_EVERY_S: f64 = 0.25;

/// Runs the reference computation and returns its host seconds.
pub fn reference() -> f64 {
    let start = Instant::now();
    let mut state: u64 = 0x5EED;
    let mut unit = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    // An M/M/1 queue at load 0.8 on an event heap: 60,000 events.
    let mut heap: BinaryHeap<Reverse<(u64, bool)>> = BinaryHeap::new();
    heap.push(Reverse((0, true)));
    let (mut queue, mut acc) = (0u32, 0.0);
    for _ in 0..60_000 {
        let Some(Reverse((bits, arrival))) = heap.pop() else {
            break;
        };
        let now = f64::from_bits(bits);
        if arrival {
            queue += 1;
            let next = now - (1.0 - unit()).ln() / 0.8;
            heap.push(Reverse((next.to_bits(), true)));
        } else {
            queue -= 1;
            acc += now;
        }
        if (arrival && queue == 1) || (!arrival && queue > 0) {
            let done = now - (1.0 - unit()).ln();
            heap.push(Reverse((done.to_bits(), false)));
        }
    }
    // Water-filling sweeps: sort 2,048 rates, prefix sums and roots.
    let mut rates: Vec<f64> = (0..2048).map(|_| unit() * 100.0).collect();
    for _ in 0..20 {
        rates.sort_unstable_by(|a, b| b.total_cmp(a));
        let (mut sum, mut roots) = (0.0, 0.0);
        for a in &rates {
            sum += a;
            roots += a.sqrt();
            acc += (sum - 50.0) / roots;
        }
        for r in rates.iter_mut() {
            *r = (*r * 1.618).fract() * 100.0;
        }
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}
