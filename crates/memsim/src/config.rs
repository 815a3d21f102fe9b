//! Machine configuration.

use dss_shmem::MAX_PROCS;

/// Coherence protocol variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Protocol {
    /// The paper's three-state invalidation protocol.
    #[default]
    Msi,
    /// MESI extension: a sole-sharer read installs the line Exclusive, so
    /// the first write to it needs no coherence transaction. Used by the
    /// protocol ablation, not by the paper's experiments.
    Mesi,
}

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: u64,
    /// Line size in bytes (power of two).
    pub line: u64,
    /// Associativity (1 = direct mapped).
    pub assoc: u32,
}

impl CacheConfig {
    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (size not divisible into
    /// `assoc` ways of `line`-byte lines, or non-power-of-two values).
    pub fn sets(&self) -> u64 {
        assert!(self.assoc >= 1, "associativity must be at least 1");
        assert!(
            self.line.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            self.size.is_multiple_of(self.line * self.assoc as u64),
            "inconsistent cache geometry"
        );
        let sets = self.size / (self.line * self.assoc as u64);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }

    /// Validates the geometry: `line` and the resulting set count must be
    /// powers of two (the cache indexes by shift and mask), and the size must
    /// divide evenly into `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics on any violation, with a message naming the offending field.
    pub fn validate(&self) {
        let _ = self.sets();
    }
}

/// Round-trip latencies in processor cycles, as the paper specifies: "on a
/// primary cache miss, the round-trip latency time for a request satisfied by
/// the secondary cache, local memory, and remote node in a 2-hop or 3-hop
/// transaction is 16, 80, 249, and 351 cycles respectively".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Latencies {
    /// L1 miss satisfied by the local L2.
    pub l2: u64,
    /// Satisfied by local memory (this node is home, line clean).
    pub local: u64,
    /// Satisfied by a remote home node (2-hop).
    pub remote2: u64,
    /// Dirty in a third node (3-hop).
    pub remote3: u64,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            l2: 16,
            local: 80,
            remote2: 249,
            remote3: 351,
        }
    }
}

impl Latencies {
    /// Latencies adjusted for the line-transfer time of a given L2 line
    /// size. The paper quotes its round-trip numbers for the 64-byte
    /// baseline; transferring a longer line over the same 16-byte-per-cycle
    /// data path adds (and a shorter line removes) `line/16` cycles.
    pub fn for_line_size(self, l2_line: u64) -> Latencies {
        let adjust = |base: u64| (base + l2_line / 16).saturating_sub(4).max(1);
        Latencies {
            l2: adjust(self.l2),
            local: adjust(self.local),
            remote2: adjust(self.remote2),
            remote3: adjust(self.remote3),
        }
    }
}

/// Full machine configuration. [`MachineConfig::baseline`] reproduces the
/// paper's 4-processor CC-NUMA: 4 KB direct-mapped L1 with 32-byte lines,
/// 128 KB 2-way L2 with 64-byte lines, a 16-entry write buffer, and the
/// latencies above.
///
/// Configurations are built by starting from [`MachineConfig::baseline`] and
/// chaining `with_*` deviations — the single construction surface every
/// experiment uses:
///
/// ```
/// use dss_memsim::{MachineConfig, Protocol};
///
/// let cfg = MachineConfig::baseline()
///     .with_line_size(128)
///     .with_cache_sizes(16 * 1024, 512 * 1024)
///     .with_processors(2)
///     .with_data_prefetch(4)
///     .with_protocol(Protocol::Mesi);
/// cfg.validate();
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineConfig {
    /// Number of processors (nodes).
    pub nprocs: usize,
    /// Primary cache.
    pub l1: CacheConfig,
    /// Secondary cache.
    pub l2: CacheConfig,
    /// Write-buffer entries per processor.
    pub write_buffer: usize,
    /// Latency parameters.
    pub lat: Latencies,
    /// Cycles between successive spin-lock polls.
    pub spin_interval: u64,
    /// Sequential prefetch degree for database data (0 = off). When on, each
    /// access to database data prefetches this many subsequent L1 lines into
    /// the primary cache.
    pub prefetch_data_lines: u32,
    /// Coherence protocol (the paper's experiments use MSI).
    pub protocol: Protocol,
}

impl MachineConfig {
    /// The paper's baseline architecture.
    pub fn baseline() -> Self {
        MachineConfig {
            nprocs: 4,
            l1: CacheConfig {
                size: 4 * 1024,
                line: 32,
                assoc: 1,
            },
            l2: CacheConfig {
                size: 128 * 1024,
                line: 64,
                assoc: 2,
            },
            write_buffer: 16,
            lat: Latencies::default(),
            spin_interval: 20,
            prefetch_data_lines: 0,
            protocol: Protocol::Msi,
        }
    }

    /// The baseline with a different L2 line size; the L1 line is kept at
    /// half the L2 line, as in all the paper's experiments, and miss
    /// latencies gain the longer line's transfer time
    /// (see [`Latencies::for_line_size`]).
    ///
    /// # Panics
    ///
    /// Panics if `l2_line` is smaller than 16 bytes.
    pub fn with_line_size(mut self, l2_line: u64) -> Self {
        assert!(
            l2_line >= 16,
            "L2 lines below 16 bytes are not meaningful here"
        );
        self.l2.line = l2_line;
        self.l1.line = l2_line / 2;
        self.lat = Latencies::default().for_line_size(l2_line);
        self
    }

    /// The baseline with different cache capacities.
    pub fn with_cache_sizes(mut self, l1_size: u64, l2_size: u64) -> Self {
        self.l1.size = l1_size;
        self.l2.size = l2_size;
        self
    }

    /// The baseline with a different node count (the processor-scaling
    /// extension; the paper fixes four).
    ///
    /// # Panics
    ///
    /// Panics if `nprocs` is zero or above [`MAX_PROCS`].
    pub fn with_processors(mut self, nprocs: usize) -> Self {
        self.nprocs = nprocs;
        self.check_processors();
        self
    }

    fn check_processors(&self) {
        assert!(self.nprocs >= 1, "a machine needs at least one processor");
        assert!(
            self.nprocs <= MAX_PROCS,
            "{} processors exceed MAX_PROCS = {MAX_PROCS}",
            self.nprocs
        );
    }

    /// Enables the paper's Section 6 prefetcher (4 L1 lines of database data).
    pub fn with_data_prefetch(mut self, lines: u32) -> Self {
        self.prefetch_data_lines = lines;
        self
    }

    /// Selects the coherence protocol (ablation; the paper uses MSI).
    pub fn with_protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on a processor count outside `1..=MAX_PROCS`, or on
    /// inconsistent geometry (also checked lazily by `sets`):
    /// non-power-of-two line sizes or set counts, zero associativity, or L1
    /// lines longer than L2 lines.
    pub fn validate(&self) {
        self.check_processors();
        assert!(
            self.l1.line <= self.l2.line,
            "L1 lines must not exceed L2 lines"
        );
        self.l1.validate();
        self.l2.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper() {
        let c = MachineConfig::baseline();
        c.validate();
        assert_eq!(c.nprocs, 4);
        assert_eq!(c.l1.sets(), 128); // 4 KB / 32 B direct mapped
        assert_eq!(c.l2.sets(), 1024); // 128 KB / 64 B / 2-way
        assert_eq!(
            c.lat,
            Latencies {
                l2: 16,
                local: 80,
                remote2: 249,
                remote3: 351
            }
        );
        assert_eq!(c.write_buffer, 16);
    }

    #[test]
    fn line_size_sweep_keeps_ratio() {
        for l2_line in [16u64, 32, 64, 128, 256] {
            let c = MachineConfig::baseline().with_line_size(l2_line);
            c.validate();
            assert_eq!(c.l1.line * 2, c.l2.line);
        }
    }

    #[test]
    fn cache_size_sweep_validates() {
        for (l1, l2) in [(4u64, 128u64), (16, 512), (64, 2048), (256, 8192)] {
            let c = MachineConfig::baseline().with_cache_sizes(l1 * 1024, l2 * 1024);
            c.validate();
        }
    }

    #[test]
    #[should_panic(expected = "inconsistent cache geometry")]
    fn bad_geometry_rejected() {
        CacheConfig {
            size: 1000,
            line: 32,
            assoc: 1,
        }
        .sets();
    }

    #[test]
    #[should_panic(expected = "17 processors exceed MAX_PROCS = 16")]
    fn more_processors_than_max_procs_rejected() {
        MachineConfig::baseline().with_processors(MAX_PROCS + 1);
    }

    #[test]
    #[should_panic(expected = "exceed MAX_PROCS")]
    fn validate_rejects_more_processors_than_max_procs() {
        let mut c = MachineConfig::baseline();
        c.nprocs = MAX_PROCS + 1;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "line size must be a power of two")]
    fn non_power_of_two_line_rejected() {
        let mut c = MachineConfig::baseline();
        c.l1.line = 48;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "set count must be a power of two")]
    fn non_power_of_two_sets_rejected() {
        CacheConfig {
            size: 96 * 1024,
            line: 64,
            assoc: 2,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "associativity must be at least 1")]
    fn zero_associativity_rejected() {
        CacheConfig {
            size: 4 * 1024,
            line: 32,
            assoc: 0,
        }
        .validate();
    }

    #[test]
    fn transfer_time_anchors_at_the_baseline() {
        // The paper's quoted numbers are for 64-byte lines; other sizes
        // shift by the line-transfer time.
        let base = Latencies::default();
        assert_eq!(base.for_line_size(64), base);
        let wide = base.for_line_size(256);
        assert_eq!(wide.remote2, 249 - 4 + 16);
        let narrow = base.for_line_size(16);
        assert_eq!(narrow.l2, 16 - 4 + 1);
        assert!(narrow.local < base.local && base.local < wide.local);
    }

    #[test]
    fn protocol_selection() {
        let c = MachineConfig::baseline();
        assert_eq!(c.protocol, Protocol::Msi);
        assert_eq!(c.with_protocol(Protocol::Mesi).protocol, Protocol::Mesi);
    }
}
