//! Ad-reach measurement with slice-and-dice (§3 of the survey: "how many
//! individuals were their adverts reaching?").
//!
//! Builds one HyperLogLog per (campaign × demographic) cell from a
//! synthetic impression log, then answers reach queries — per campaign,
//! per demographic slice, and cross-campaign overlap — by merging
//! sketches, exactly the Aggregate-Knowledge-style architecture.
//!
//! Run with: `cargo run --release --example ad_reach`

#![allow(
    clippy::expect_used,
    reason = "an example is a fail-fast walkthrough, not library code"
)]

use std::collections::HashMap;
use std::collections::HashSet;

use sketches::cardinality::hll::intersection_estimate;
use sketches::prelude::*;
use sketches_workloads::ads::{AdWorkload, AGE_GROUPS, REGIONS};

fn main() -> SketchResult<()> {
    let users = 500_000u64;
    let campaigns = 4u32;
    let mut workload = AdWorkload::new(users, campaigns, 2026);
    let impressions = workload.stream(2_000_000);
    println!(
        "{} impressions over {} users, {} campaigns\n",
        impressions.len(),
        users,
        campaigns
    );

    // One sketch per (campaign, age group) cell; p=13 → ±1.15%.
    let mut cells: HashMap<(u32, u8), HyperLogLog> = HashMap::new();
    let mut exact: HashMap<(u32, u8), HashSet<u64>> = HashMap::new();
    for imp in &impressions {
        let key = (imp.campaign_id, imp.age_group);
        cells
            .entry(key)
            .or_insert_with(|| HyperLogLog::new(13, 7).expect("valid precision"))
            .update(&imp.user_id);
        exact.entry(key).or_default().insert(imp.user_id);
    }

    println!("== Campaign reach by age group (estimate vs exact) ==");
    println!(
        "{:>10} {:>8} {:>10} {:>10} {:>7}",
        "campaign", "age", "estimate", "exact", "err%"
    );
    for c in 0..campaigns {
        for (a, age) in AGE_GROUPS.iter().enumerate() {
            let key = (c, a as u8);
            let est = cells.get(&key).map_or(0.0, CardinalityEstimator::estimate);
            let truth = exact.get(&key).map_or(0, HashSet::len);
            let err = if truth > 0 {
                (est - truth as f64).abs() / truth as f64 * 100.0
            } else {
                0.0
            };
            println!("{c:>10} {age:>8} {est:>10.0} {truth:>10} {err:>6.2}%");
        }
    }

    // Slice-and-dice: total campaign reach = merge of its cells (the merge
    // is exactly the union sketch — no double counting).
    println!("\n== Total campaign reach (merged across age groups) ==");
    let mut campaign_sketches: Vec<HyperLogLog> = Vec::new();
    for c in 0..campaigns {
        let mut merged = HyperLogLog::new(13, 7)?;
        for a in 0..AGE_GROUPS.len() as u8 {
            if let Some(cell) = cells.get(&(c, a)) {
                merged.merge(cell)?;
            }
        }
        let truth: usize = (0..AGE_GROUPS.len() as u8)
            .flat_map(|a| exact.get(&(c, a)).into_iter().flatten())
            .collect::<HashSet<_>>()
            .len();
        println!(
            "  campaign {c}: estimate {:>9.0}   exact {:>9}   ({} bytes of sketch)",
            merged.estimate(),
            truth,
            merged.space_bytes()
        );
        campaign_sketches.push(merged);
    }

    // Cross-campaign overlap by inclusion-exclusion.
    println!("\n== Overlap: users reached by BOTH campaign 0 and 1 ==");
    let overlap = intersection_estimate(&campaign_sketches[0], &campaign_sketches[1])?;
    let exact_overlap = {
        let set0: HashSet<u64> = (0..AGE_GROUPS.len() as u8)
            .flat_map(|a| exact.get(&(0, a)).into_iter().flatten().copied())
            .collect();
        (0..AGE_GROUPS.len() as u8)
            .flat_map(|a| exact.get(&(1, a)).into_iter().flatten())
            .filter(|u| set0.contains(u))
            .collect::<HashSet<_>>()
            .len()
    };
    println!("  estimate {overlap:.0}   exact {exact_overlap}");

    // Regions work the same way — show one merged slice for flavour.
    println!(
        "\n== Reach of campaign 0 in {} (recomputed from the raw log) ==",
        REGIONS[0]
    );
    let mut na = HyperLogLog::new(13, 7)?;
    let mut na_exact = HashSet::new();
    for imp in &impressions {
        if imp.campaign_id == 0 && imp.region == 0 {
            na.update(&imp.user_id);
            na_exact.insert(imp.user_id);
        }
    }
    println!("  estimate {:.0}   exact {}", na.estimate(), na_exact.len());

    Ok(())
}
