//! System configuration (Table 1) shared by all designs.

use ansmet_dram::DramConfig;
use ansmet_host::CpuModel;
use ansmet_ndp::{ComputeUnit, PartitionScheme, PollingPolicy};

/// How many worker threads the trace replay may use.
///
/// Queries are independent traces replayed on private memory-system
/// state, so any thread count produces bit-identical aggregate results;
/// this knob only trades wall-clock time for cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Use exactly this many worker threads (clamped to at least 1).
    Threads(usize),
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::Threads(1)
    }
}

impl Parallelism {
    /// Resolve to a concrete thread count.
    pub fn resolve(self) -> usize {
        let Parallelism::Threads(n) = self;
        n.max(1)
    }
}

/// Full-system parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// DRAM organization and timing.
    pub dram: DramConfig,
    /// Host CPU model.
    pub cpu: CpuModel,
    /// NDP distance computing unit.
    pub compute: ComputeUnit,
    /// Vector data partitioning across ranks.
    pub partition: PartitionScheme,
    /// Result polling policy for NDP designs (`None` selects the adaptive
    /// policy built from the workload's sampling profile).
    pub polling: Option<PollingPolicy>,
    /// Replicate hot vectors (top HNSW layers / IVF centroids) to all
    /// rank groups.
    pub replicate_hot: bool,
    /// Worker threads for query-parallel trace replay.
    pub parallelism: Parallelism,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            dram: DramConfig::ddr5_4800(),
            cpu: CpuModel::default(),
            compute: ComputeUnit::default(),
            partition: PartitionScheme::Hybrid { subvec_bytes: 1024 },
            polling: None,
            replicate_hot: true,
            parallelism: Parallelism::default(),
        }
    }
}

impl SystemConfig {
    /// Total NDP units (= ranks).
    pub fn ndp_units(&self) -> usize {
        self.dram.total_ranks()
    }

    /// Scale the number of NDP units/ranks (Table 3).
    pub fn with_ndp_units(mut self, units: usize) -> Self {
        self.dram = self.dram.with_total_ranks(units);
        self
    }

    /// Use a specific partitioning scheme (Fig. 12).
    pub fn with_partition(mut self, scheme: PartitionScheme) -> Self {
        self.partition = scheme;
        self
    }

    /// Use conventional fixed-period polling (Fig. 9).
    pub fn with_conventional_polling(mut self) -> Self {
        self.polling = Some(PollingPolicy::conventional_100ns());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = SystemConfig::default();
        assert_eq!(c.ndp_units(), 32);
        assert_eq!(c.cpu.cores, 16);
        assert_eq!(c.cpu.clock_mhz, 3200);
        assert_eq!(c.compute.lanes, 16);
        assert!(matches!(
            c.partition,
            PartitionScheme::Hybrid { subvec_bytes: 1024 }
        ));
    }

    #[test]
    fn ndp_scaling() {
        let c = SystemConfig::default().with_ndp_units(64);
        assert_eq!(c.ndp_units(), 64);
    }
}
