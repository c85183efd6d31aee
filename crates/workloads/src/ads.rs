//! Synthetic ad-impression logs: the online-advertising reach workload of
//! §3 (substituting for cookie-level ad-serving logs à la Aggregate
//! Knowledge).
//!
//! Users have stable demographic attributes; campaigns reach overlapping
//! user segments with Zipfian per-user impression counts, so the
//! interesting queries are *distinct-user* counts sliced by demographic —
//! exactly what HLL/KMV union/intersection answers (experiment E8).

use sketches_hash::mix::mix64_seeded;
use sketches_hash::rng::{Rng64, Xoshiro256PlusPlus};

use crate::zipf::ZipfGenerator;

/// Demographic buckets (deliberately coarse, like real reach reports).
pub const AGE_GROUPS: [&str; 4] = ["18-24", "25-34", "35-54", "55+"];
/// Region buckets.
pub const REGIONS: [&str; 4] = ["NA", "EU", "APAC", "LATAM"];

/// One ad impression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdImpression {
    /// Stable user (cookie) id.
    pub user_id: u64,
    /// Campaign the impression belongs to.
    pub campaign_id: u32,
    /// Index into [`AGE_GROUPS`].
    pub age_group: u8,
    /// Index into [`REGIONS`].
    pub region: u8,
}

/// Generator of impression streams over a fixed user base.
#[derive(Debug)]
pub struct AdWorkload {
    users: u64,
    campaigns: u32,
    user_gen: ZipfGenerator,
    rng: Xoshiro256PlusPlus,
    seed: u64,
}

impl AdWorkload {
    /// Creates a workload with `users` cookies and `campaigns` campaigns.
    ///
    /// # Panics
    /// Panics if `users == 0` or `campaigns == 0`.
    #[must_use]
    pub fn new(users: u64, campaigns: u32, seed: u64) -> Self {
        assert!(users > 0 && campaigns > 0);
        Self {
            users,
            campaigns,
            // Per-user impression counts are heavy-tailed.
            #[expect(
                clippy::expect_used,
                reason = "users > 0 asserted above, the only ZipfGenerator requirement"
            )]
            user_gen: ZipfGenerator::new(users, 0.8, seed).expect("validated"),
            rng: Xoshiro256PlusPlus::new(seed ^ 0xAD5),
            seed,
        }
    }

    /// Deterministic demographic attributes of a user.
    #[must_use]
    pub fn demographics_of(&self, user_id: u64) -> (u8, u8) {
        let h = mix64_seeded(user_id, self.seed ^ 0xDE30);
        ((h & 3) as u8, ((h >> 2) & 3) as u8)
    }

    /// Whether `user_id` is in `campaign`'s target segment (campaigns
    /// reach a deterministic pseudo-random ~40% of users, so campaigns
    /// overlap).
    #[must_use]
    pub fn targeted(&self, user_id: u64, campaign: u32) -> bool {
        let h = mix64_seeded(user_id, self.seed ^ (u64::from(campaign) << 20));
        h % 100 < 40
    }

    /// Draws the next impression.
    pub fn next_impression(&mut self) -> AdImpression {
        loop {
            let user_id = self.user_gen.sample() - 1; // 0-based
            let campaign_id = self.rng.gen_range(u64::from(self.campaigns)) as u32;
            if !self.targeted(user_id, campaign_id) {
                continue;
            }
            let (age_group, region) = self.demographics_of(user_id);
            return AdImpression {
                user_id,
                campaign_id,
                age_group,
                region,
            };
        }
    }

    /// Generates a stream of `len` impressions.
    pub fn stream(&mut self, len: usize) -> Vec<AdImpression> {
        (0..len).map(|_| self.next_impression()).collect()
    }

    /// Number of users in the base.
    #[must_use]
    pub fn users(&self) -> u64 {
        self.users
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn demographics_are_stable() {
        let w = AdWorkload::new(1000, 4, 1);
        for u in 0..100 {
            assert_eq!(w.demographics_of(u), w.demographics_of(u));
            let (a, r) = w.demographics_of(u);
            assert!(a < 4 && r < 4);
        }
    }

    #[test]
    fn impressions_respect_targeting() {
        let mut w = AdWorkload::new(10_000, 8, 2);
        for imp in w.stream(5_000) {
            assert!(w.targeted(imp.user_id, imp.campaign_id));
            assert!(imp.user_id < 10_000);
            assert!(imp.campaign_id < 8);
        }
    }

    #[test]
    fn campaigns_overlap_but_differ() {
        let w = AdWorkload::new(50_000, 2, 3);
        let in0: HashSet<u64> = (0..50_000).filter(|&u| w.targeted(u, 0)).collect();
        let in1: HashSet<u64> = (0..50_000).filter(|&u| w.targeted(u, 1)).collect();
        let inter = in0.intersection(&in1).count();
        // ~40% each, ~16% overlap.
        assert!((in0.len() as f64 / 50_000.0 - 0.4).abs() < 0.02);
        assert!((inter as f64 / 50_000.0 - 0.16).abs() < 0.02);
        assert_ne!(in0, in1);
    }

    #[test]
    fn repeat_impressions_happen() {
        // Reach measurement is only interesting with duplicates.
        let mut w = AdWorkload::new(1_000, 1, 4);
        let imps = w.stream(20_000);
        let distinct: HashSet<u64> = imps.iter().map(|i| i.user_id).collect();
        assert!(distinct.len() < imps.len() / 2, "too few duplicates");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = AdWorkload::new(1000, 4, 9);
        let mut b = AdWorkload::new(1000, 4, 9);
        assert_eq!(a.stream(100), b.stream(100));
    }
}
