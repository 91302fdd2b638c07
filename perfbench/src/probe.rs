//! A fixed reference computation that reads how fast the shared host runs
//! right now.
//!
//! The work is the benchmark's own and never calls the program, so a change
//! to the program cannot move it: only the machine can. Its mix (hash
//! maps, small allocations, sorting, float dot products) resembles the
//! tuner's hot path. One pass takes about 0.7 ms on the reference machine.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;

use crate::clock::Stopwatch;

/// The wall time of one pass at the reference speed: a calm reading on the
/// reference machine (see README.md). Wall metrics are reported at this
/// speed.
pub const REFERENCE_PASS_S: f64 = 0.7e-3;

/// Distinct keys, rows and row width of one pass.
const KEYS: u64 = 2048;
const ROWS: usize = 6144;
const DIM: usize = 48;

/// One pass of the reference work; returns a checksum so that nothing is
/// optimised away. The hasher is fixed, so every pass does the same work.
pub fn reference_work() -> f64 {
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut rows: HashMap<u64, Vec<f64>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for _ in 0..ROWS {
        let r = next();
        let row: Vec<f64> = (0..DIM)
            .map(|j| ((r >> (j % 53)) & 0xff) as f64 / 255.0)
            .collect();
        rows.entry(r % KEYS)
            .and_modify(|acc| acc.iter_mut().zip(&row).for_each(|(a, b)| *a += b))
            .or_insert(row);
    }
    let query: Vec<f64> = (0..DIM).map(|j| 1.0 / (j as f64 + 1.0)).collect();
    let mut scores: Vec<f64> = rows
        .values()
        .map(|row| {
            row.iter()
                .zip(&query)
                .map(|(a, b)| a * b)
                .sum::<f64>()
                .sqrt()
        })
        .collect();
    scores.sort_by(f64::total_cmp);
    black_box(scores.iter().rev().take(64).sum())
}

/// Wall seconds of one pass of [`reference_work`].
pub fn time_pass() -> f64 {
    let watch = Stopwatch::start();
    black_box(reference_work());
    watch.secs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pass_does_the_same_work() {
        let first = reference_work();
        assert!(first.is_finite() && first > 0.0);
        assert_eq!(reference_work().to_bits(), first.to_bits());
    }
}
