//! Process-wide simulation counters.
//!
//! The thread count is not here: it travels in
//! [`crate::SystemConfig::parallelism`], and the experiment suite sets
//! it through [`crate::experiment::Suite`].

use std::sync::atomic::{AtomicU64, Ordering};

static QUERIES_SIMULATED: AtomicU64 = AtomicU64::new(0);
static CYCLES_SIMULATED: AtomicU64 = AtomicU64::new(0);
static CYCLES_SKIPPED: AtomicU64 = AtomicU64::new(0);

/// Total queries replayed by [`crate::run_design`] since process start.
/// Monotonic; benchmark harnesses read deltas around timed sections to
/// derive queries-per-second.
pub fn queries_simulated() -> u64 {
    QUERIES_SIMULATED.load(Ordering::Relaxed)
}

pub(crate) fn record_queries(n: u64) {
    QUERIES_SIMULATED.fetch_add(n, Ordering::Relaxed);
}

/// DRAM cycles actually stepped (`tick` calls) since process start,
/// summed over every memory system the simulator instantiated.
pub fn cycles_simulated() -> u64 {
    CYCLES_SIMULATED.load(Ordering::Relaxed)
}

/// DRAM cycles the event machinery jumped over without ticking since
/// process start. `skipped / (simulated + skipped)` is the fraction of
/// simulated time that cost nothing — the skip-effectiveness number the
/// timing report records per experiment.
pub fn cycles_skipped() -> u64 {
    CYCLES_SKIPPED.load(Ordering::Relaxed)
}

/// Fold one retired memory system's tick/skip counters into the
/// process-wide totals. Sums are order-independent, so parallel replay
/// reports the same totals as serial.
pub(crate) fn record_mem_cycles(mem: &ansmet_dram::MemorySystem) {
    CYCLES_SIMULATED.fetch_add(mem.cycles_ticked(), Ordering::Relaxed);
    CYCLES_SKIPPED.fetch_add(mem.cycles_skipped(), Ordering::Relaxed);
}
