//! Wall-clock benchmark of whole tuning sessions (see README.md).
//!
//! The pieces the `perfbench` binary composes: instrumented sessions over
//! the committed baseline workloads ([`workload`]), the timing wrappers
//! they are built with ([`wrap`]), an in-memory span-summing recorder
//! ([`spans`]), the reference work that reads the host's speed
//! ([`probe`]), order statistics ([`stats`]) and the result line
//! ([`report`]).

pub mod clock;
pub mod probe;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workload;
pub mod wrap;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock one of the benchmark's metric cells. Every update under these
/// locks is a single push or add, so a guard poisoned by a panicking step
/// still holds valid totals.
pub(crate) fn lock<T>(cell: &Mutex<T>) -> MutexGuard<'_, T> {
    cell.lock().unwrap_or_else(PoisonError::into_inner)
}
