//! Synthetic IP-flow records: the Gigascope/CMON network-monitoring
//! workload (substituting for the proprietary ISP traces of §3's "massive
//! data streams" era).
//!
//! Sources are Zipf-distributed (a few talkers dominate), destinations
//! and ports mix Zipf and uniform components, and byte counts are
//! heavy-tailed — the properties that make per-group sketching necessary.

use sketches_hash::rng::{Rng64, Xoshiro256PlusPlus};

use crate::zipf::ZipfGenerator;

/// One synthetic flow record (an IPFIX-style 5-tuple plus byte count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowRecord {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Protocol (6 = TCP, 17 = UDP).
    pub proto: u8,
    /// Bytes transferred.
    pub bytes: u64,
}

/// Generator of synthetic flow streams.
#[derive(Debug)]
pub struct FlowWorkload {
    src_gen: ZipfGenerator,
    dst_gen: ZipfGenerator,
    port_gen: ZipfGenerator,
    rng: Xoshiro256PlusPlus,
}

impl FlowWorkload {
    /// Creates a workload with `hosts` source/destination hosts.
    ///
    /// # Panics
    /// Panics if `hosts == 0` (generator invariant).
    #[must_use]
    pub fn new(hosts: u64, seed: u64) -> Self {
        Self {
            #[expect(
                clippy::expect_used,
                reason = "hosts.max(1) and 1024 are positive, the only ZipfGenerator requirement"
            )]
            src_gen: ZipfGenerator::new(hosts.max(1), 1.1, seed).expect("validated"),
            #[expect(
                clippy::expect_used,
                reason = "hosts.max(1) is positive, the only ZipfGenerator requirement"
            )]
            dst_gen: ZipfGenerator::new(hosts.max(1), 0.9, seed ^ 1).expect("validated"),
            #[expect(
                clippy::expect_used,
                reason = "1024 is positive, the only ZipfGenerator requirement"
            )]
            port_gen: ZipfGenerator::new(1024, 1.3, seed ^ 2).expect("validated"),
            rng: Xoshiro256PlusPlus::new(seed ^ 3),
        }
    }

    /// Draws the next flow record.
    pub fn next_flow(&mut self) -> FlowRecord {
        let src = self.src_gen.sample() as u32;
        let dst = self.dst_gen.sample() as u32;
        // Pareto-ish byte counts: 64 · e^{3·Exp(1)} capped.
        let bytes = (64.0 * (3.0 * self.rng.exp()).exp()).min(1e9) as u64;
        FlowRecord {
            src_ip: 0x0A00_0000 | src,            // 10.x.x.x
            dst_ip: 0xC0A8_0000 | (dst & 0xFFFF), // 192.168.x.x
            src_port: 1024 + (self.rng.gen_range(60_000) as u16),
            dst_port: self.port_gen.sample() as u16,
            proto: if self.rng.gen_bool(0.8) { 6 } else { 17 },
            bytes,
        }
    }

    /// Generates a stream of `len` records.
    pub fn stream(&mut self, len: usize) -> Vec<FlowRecord> {
        (0..len).map(|_| self.next_flow()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn fields_are_plausible() {
        let mut w = FlowWorkload::new(1000, 1);
        for f in w.stream(5_000) {
            assert_eq!(f.src_ip >> 24, 10);
            assert_eq!(f.dst_ip >> 16, 0xC0A8);
            assert!(f.src_port >= 1024);
            assert!(f.proto == 6 || f.proto == 17);
            assert!(f.bytes >= 64);
        }
    }

    #[test]
    fn sources_are_skewed() {
        let mut w = FlowWorkload::new(10_000, 2);
        let mut counts: HashMap<u32, u64> = HashMap::new();
        for f in w.stream(50_000) {
            *counts.entry(f.src_ip).or_insert(0) += 1;
        }
        let mut v: Vec<u64> = counts.values().copied().collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u64 = v.iter().take(10).sum();
        assert!(
            top10 > 50_000 / 4,
            "top 10 talkers only {top10} of 50k flows — not skewed"
        );
    }

    #[test]
    fn byte_counts_heavy_tailed() {
        let mut w = FlowWorkload::new(100, 3);
        let flows = w.stream(20_000);
        let mean = flows.iter().map(|f| f.bytes as f64).sum::<f64>() / flows.len() as f64;
        let mut bytes: Vec<u64> = flows.iter().map(|f| f.bytes).collect();
        bytes.sort_unstable();
        let median = bytes[bytes.len() / 2] as f64;
        assert!(mean > 3.0 * median, "mean {mean:.0} vs median {median:.0}");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = FlowWorkload::new(100, 9);
        let mut b = FlowWorkload::new(100, 9);
        assert_eq!(a.stream(50), b.stream(50));
    }
}
