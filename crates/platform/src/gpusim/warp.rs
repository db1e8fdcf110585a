//! Warp-level cost accounting: coalescing, divergence, task scheduling.

/// Lanes per warp (NVIDIA SIMT width).
pub(crate) const WARP_SIZE: usize = 32;

/// Bytes per memory transaction (L2 sector).
const TRANSACTION_BYTES: u64 = 32;

/// Cost counters of one warp task.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TaskCounters {
    /// Warp-instruction cycles issued.
    pub cycles: u64,
    /// Memory transactions that missed on-chip storage (reach DRAM).
    pub dram_transactions: u64,
    /// All memory transactions (including on-chip hits).
    pub transactions: u64,
    /// Extra cycles spent on serialized divergent paths.
    pub divergent_steps: u64,
}

/// Where a memory access is served from; decides whether it costs DRAM
/// bandwidth or only issue cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MemSpace {
    /// Off-chip HBM.
    Dram,
    /// On-chip L2 (hit).
    L2,
    /// Per-SM shared memory.
    Shared,
}

/// The accounting context a kernel task runs against.
///
/// Kernels perform their real (functional) work in ordinary Rust and call
/// these methods to account the SIMT cost of each step, mirroring how the
/// hand-written CUDA kernels in the paper behave.
#[derive(Debug, Default)]
pub(crate) struct WarpCtx {
    counters: TaskCounters,
}

impl WarpCtx {
    /// Fresh context for one task.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Issues `n` warp-wide ALU instructions.
    #[inline]
    pub(crate) fn alu(&mut self, n: u64) {
        self.counters.cycles += n;
    }

    /// A warp-wide memory access to the given per-lane byte addresses.
    /// Consecutive addresses coalesce into few transactions; scattered
    /// addresses fan out to one transaction per 32-byte sector touched.
    pub(crate) fn access(&mut self, addrs: &[u64], space: MemSpace) {
        debug_assert!(addrs.len() <= WARP_SIZE);
        self.counters.cycles += 1; // issue cycle
        if addrs.is_empty() {
            return;
        }
        match space {
            MemSpace::Shared => {
                // Bank conflicts ignored: decode kernels access
                // distinct banks by construction (keys are per-lane).
            }
            _ => {
                let tx = coalesce(addrs);
                self.counters.transactions += tx;
                if space == MemSpace::Dram {
                    self.counters.dram_transactions += tx;
                }
                // Waiting on more transactions costs issue slots.
                self.counters.cycles += tx.saturating_sub(1);
            }
        }
    }

    /// A divergent region: lanes take paths of the given instruction
    /// lengths; SIMT serializes over the distinct paths, so the cost is
    /// the sum of path lengths (not the max).
    pub(crate) fn diverge(&mut self, path_lengths: &[u64]) {
        let sum: u64 = path_lengths.iter().sum();
        let max = path_lengths.iter().copied().max().unwrap_or(0);
        self.counters.cycles += sum;
        self.counters.divergent_steps += sum - max;
    }

    /// Consumes the context, yielding its counters.
    pub(crate) fn finish(self) -> TaskCounters {
        self.counters
    }
}

/// Number of 32-byte transactions needed to service the addresses.
pub(crate) fn coalesce(addrs: &[u64]) -> u64 {
    let mut sectors: Vec<u64> = addrs.iter().map(|a| a / TRANSACTION_BYTES).collect();
    sectors.sort_unstable();
    sectors.dedup();
    sectors.len() as u64
}

/// Aggregate statistics of a kernel launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Total warp-instruction cycles across tasks.
    pub cycles: u64,
    /// Bytes moved over DRAM (transactions × 32).
    pub dram_bytes: u64,
    /// Total memory transactions.
    pub transactions: u64,
    /// Cycles lost to divergence serialization.
    pub divergent_steps: u64,
    /// Longest single task (critical path floor).
    pub longest_task_cycles: u64,
    /// Task count.
    pub tasks: usize,
}

impl KernelStats {
    /// Folds one task's counters into the launch statistics.
    pub(crate) fn absorb(&mut self, c: TaskCounters) {
        self.cycles += c.cycles;
        self.dram_bytes += c.dram_transactions * TRANSACTION_BYTES;
        self.transactions += c.transactions;
        self.divergent_steps += c.divergent_steps;
        self.longest_task_cycles = self.longest_task_cycles.max(c.cycles);
        self.tasks += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn coalesced_access_is_one_transaction_per_sector() {
        // 32 consecutive u8 addresses: one 32-byte sector.
        let addrs: Vec<u64> = (0..32).collect();
        assert_eq!(coalesce(&addrs), 1);
        // 32 consecutive f32 addresses: 128 bytes = 4 sectors.
        let addrs: Vec<u64> = (0..32).map(|i| i * 4).collect();
        assert_eq!(coalesce(&addrs), 4);
        // Fully scattered: one sector each.
        let addrs: Vec<u64> = (0..32).map(|i| i * 4096).collect();
        assert_eq!(coalesce(&addrs), 32);
    }

    #[test]
    fn duplicate_addresses_coalesce() {
        let addrs = vec![64u64; 32];
        assert_eq!(coalesce(&addrs), 1);
    }

    #[test]
    fn access_counts_cycles_and_transactions() {
        let mut ctx = WarpCtx::new();
        let addrs: Vec<u64> = (0..32).map(|i| i * 4).collect();
        ctx.access(&addrs, MemSpace::Dram);
        let c = ctx.finish();
        assert_eq!(c.transactions, 4);
        assert_eq!(c.dram_transactions, 4);
        assert_eq!(c.cycles, 1 + 3); // issue + extra transactions
    }

    #[test]
    fn l2_hits_cost_no_dram() {
        let mut ctx = WarpCtx::new();
        let addrs: Vec<u64> = (0..32).map(|i| i * 256).collect();
        ctx.access(&addrs, MemSpace::L2);
        let c = ctx.finish();
        assert_eq!(c.dram_transactions, 0);
        assert_eq!(c.transactions, 32);
    }

    #[test]
    fn shared_access_is_single_cycle() {
        let mut ctx = WarpCtx::new();
        let addrs: Vec<u64> = (0..32).map(|i| i * 1024).collect();
        ctx.access(&addrs, MemSpace::Shared);
        let c = ctx.finish();
        assert_eq!(c.cycles, 1);
        assert_eq!(c.transactions, 0);
    }

    #[test]
    fn divergence_serializes_paths() {
        let mut ctx = WarpCtx::new();
        ctx.diverge(&[10, 20, 30]);
        let c = ctx.finish();
        assert_eq!(c.cycles, 60);
        assert_eq!(c.divergent_steps, 30); // 60 - max(30)
    }

    #[test]
    fn stats_absorb() {
        let mut s = KernelStats::default();
        s.absorb(TaskCounters {
            cycles: 10,
            dram_transactions: 2,
            transactions: 3,
            divergent_steps: 1,
        });
        s.absorb(TaskCounters {
            cycles: 25,
            dram_transactions: 0,
            transactions: 0,
            divergent_steps: 0,
        });
        assert_eq!(s.cycles, 35);
        assert_eq!(s.dram_bytes, 64);
        assert_eq!(s.longest_task_cycles, 25);
        assert_eq!(s.tasks, 2);
    }

    proptest! {
        /// Coalescing bounds: between ceil(span/32) and lane count.
        #[test]
        fn coalesce_bounds(addrs in prop::collection::vec(0u64..1_000_000, 1..32)) {
            let tx = coalesce(&addrs);
            prop_assert!(tx >= 1);
            prop_assert!(tx <= addrs.len() as u64);
            let lo = *addrs.iter().min().unwrap() / 32;
            let hi = *addrs.iter().max().unwrap() / 32;
            prop_assert!(tx <= hi - lo + 1);
        }

        /// Coalescing is permutation-invariant.
        #[test]
        fn coalesce_is_order_independent(mut addrs in prop::collection::vec(0u64..10_000, 1..32)) {
            let a = coalesce(&addrs);
            addrs.reverse();
            prop_assert_eq!(a, coalesce(&addrs));
        }

        /// More scattered access never costs fewer transactions: scaling all
        /// addresses apart cannot reduce the sector count.
        #[test]
        fn spreading_addresses_never_coalesces_better(base in prop::collection::vec(0u64..1000, 2..32)) {
            let tight = coalesce(&base);
            let spread: Vec<u64> = base.iter().map(|&a| a * 64).collect();
            prop_assert!(coalesce(&spread) >= tight);
        }
    }
}
