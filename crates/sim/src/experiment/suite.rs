//! The experiment suite's run context: scale, thread count, and the two
//! memo tables that let experiments share workload preparation and
//! design replays.

use std::cell::RefCell;
use std::sync::Arc;

use ansmet_vecdata::SynthSpec;

use super::Scale;
use crate::config::{Parallelism, SystemConfig};
use crate::design::Design;
use crate::timing::{run_design, RunResult};
use crate::workload::{IndexKind, Workload};

/// A workload request: preparation is deterministic in these values.
type WorkloadKey = (SynthSpec, usize, Option<usize>, IndexKind);
/// A replay: the slot of a suite-built workload, the design, the config.
type ReplayKey = (usize, Design, SystemConfig);

/// One run of the experiment suite.
///
/// Every experiment that prepares a shared workload or replays a design
/// takes a `&Suite`. The suite supplies the system config (with its
/// thread count) and memoizes preparation and replay, so experiments that
/// ask for the same workload or the same `(design, workload, config)`
/// replay share one result. Memo keys compare values; a suite holds a
/// few hundred entries, so lookup is a linear scan.
pub struct Suite {
    /// Experiment scale.
    pub scale: Scale,
    /// Worker threads for query-parallel replay.
    pub threads: usize,
    workloads: RefCell<Vec<(WorkloadKey, Arc<Workload>)>>,
    replays: RefCell<Vec<(ReplayKey, RunResult)>>,
}

impl Suite {
    /// An empty suite at `scale` replaying on `threads` workers.
    pub fn new(scale: Scale, threads: usize) -> Suite {
        Suite {
            scale,
            threads,
            workloads: RefCell::default(),
            replays: RefCell::default(),
        }
    }

    /// The default system config, replaying on the suite's threads.
    pub fn config(&self) -> SystemConfig {
        SystemConfig {
            parallelism: Parallelism::Threads(self.threads),
            ..SystemConfig::default()
        }
    }

    /// Memoized [`Workload::prepare_with_index`]. Preparation is
    /// deterministic (seeded generation, deterministic index build,
    /// exact traces), so a repeated request returns the workload the
    /// suite already built. Callers that mutate a workload clone it.
    pub fn workload(
        &self,
        spec: &SynthSpec,
        k: usize,
        ef: Option<usize>,
        kind: IndexKind,
    ) -> Arc<Workload> {
        let key = (spec.clone(), k, ef, kind);
        if let Some((_, wl)) = self
            .workloads
            .borrow()
            .iter()
            .find(|(have, _)| *have == key)
        {
            return Arc::clone(wl);
        }
        let wl = Arc::new(Workload::prepare_with_index(spec, k, ef, kind));
        self.workloads.borrow_mut().push((key, Arc::clone(&wl)));
        wl
    }

    /// Memoized [`run_design`]. Replay is a pure function of its inputs,
    /// so a repeated `(design, workload, config)` returns the first
    /// result. Only workloads this suite built are memoized; any other
    /// workload replays every time.
    ///
    /// Hits replay nothing, so they add neither to
    /// [`crate::queries_simulated`] nor to the DRAM cycle counters.
    pub fn replay(
        &self,
        design: Design,
        workload: &Arc<Workload>,
        config: &SystemConfig,
    ) -> RunResult {
        let slot = self
            .workloads
            .borrow()
            .iter()
            .position(|(_, wl)| Arc::ptr_eq(wl, workload));
        let Some(slot) = slot else {
            return run_design(design, workload, config);
        };
        let key = (slot, design, config.clone());
        if let Some((_, r)) = self.replays.borrow().iter().find(|(have, _)| *have == key) {
            return r.clone();
        }
        let r = run_design(design, workload, config);
        self.replays.borrow_mut().push((key, r.clone()));
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SynthSpec {
        SynthSpec::sift().scaled(300, 2)
    }

    #[test]
    fn workloads_are_shared_per_key() {
        let suite = Suite::new(Scale::Quick, 1);
        let a = suite.workload(&spec(), 10, Some(20), IndexKind::Hnsw);
        let b = suite.workload(&spec(), 10, Some(20), IndexKind::Hnsw);
        let c = suite.workload(&spec(), 10, Some(30), IndexKind::Hnsw);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(suite.workloads.borrow().len(), 2);
    }

    #[test]
    fn replays_are_keyed_by_config_value() {
        let suite = Suite::new(Scale::Quick, 1);
        let wl = suite.workload(&spec(), 10, Some(20), IndexKind::Hnsw);
        let cfg = suite.config();
        let first = suite.replay(Design::NdpEtOpt, &wl, &cfg);
        assert_eq!(suite.replay(Design::NdpEtOpt, &wl, &suite.config()), first);
        assert_eq!(suite.replays.borrow().len(), 1);
        // Every differing field is a different entry, the thread count too.
        let four = SystemConfig {
            parallelism: Parallelism::Threads(4),
            ..cfg.clone()
        };
        assert_eq!(suite.replay(Design::NdpEtOpt, &wl, &four), first);
        suite.replay(Design::NdpEtOpt, &wl, &cfg.with_conventional_polling());
        suite.replay(Design::NdpBase, &wl, &suite.config());
        assert_eq!(suite.replays.borrow().len(), 4);
    }

    #[test]
    fn foreign_workloads_replay_uncached() {
        let suite = Suite::new(Scale::Quick, 1);
        let own = suite.workload(&spec(), 10, Some(20), IndexKind::Hnsw);
        let foreign = Arc::new((*own).clone());
        let cfg = suite.config();
        let r = suite.replay(Design::NdpEt, &foreign, &cfg);
        assert_eq!(r, run_design(Design::NdpEt, &own, &cfg));
        assert!(suite.replays.borrow().is_empty());
    }
}
