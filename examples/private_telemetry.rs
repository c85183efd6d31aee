//! Privacy-preserving telemetry (§3 of the survey's "private data
//! analysis" era): collect each user's default browser under local
//! differential privacy, two ways — Google's RAPPOR and Apple's private
//! Count-Mean-Sketch — and compare the decoded frequencies to the truth
//! no server ever saw.
//!
//! Run with: `cargo run --release --example private_telemetry`

#![allow(
    clippy::expect_used,
    reason = "an example is a fail-fast walkthrough, not library code"
)]

use sketches::hash::rng::Xoshiro256PlusPlus;
use sketches::privacy::{PrivateCmsClient, PrivateCmsServer, RapporAggregator, RapporClient};
use sketches_workloads::zipf::ZipfGenerator;

const BROWSERS: [&str; 8] = [
    "chrome", "safari", "edge", "firefox", "opera", "brave", "vivaldi", "lynx",
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let population = 200_000;
    // Zipf-distributed browser shares.
    let mut pick = ZipfGenerator::new(BROWSERS.len() as u64, 1.2, 11)?;
    let users: Vec<&str> = (0..population)
        .map(|_| BROWSERS[(pick.sample() - 1) as usize])
        .collect();
    let mut truth = [0usize; 8];
    for &u in &users {
        truth[BROWSERS.iter().position(|&b| b == u).expect("known")] += 1;
    }
    println!("{population} users; the server never sees a single raw answer.\n");

    // --- RAPPOR (Bloom filter + permanent randomized response) ---
    let f = 0.25; // flip parameter
    let rappor_client = RapporClient::new(256, 2, f, 99)?;
    let mut rappor_server = RapporAggregator::new(256, 2, f, 99)?;
    let mut rng = Xoshiro256PlusPlus::new(123);
    for &u in &users {
        rappor_server.collect(&rappor_client.report(u, &mut rng))?;
    }
    println!(
        "== RAPPOR (ε ≈ {:.1} per one-time report) ==",
        rappor_client.epsilon()
    );
    println!(
        "{:>10} {:>10} {:>10} {:>7}",
        "browser", "estimate", "truth", "err%"
    );
    for (i, &b) in BROWSERS.iter().enumerate() {
        let est = rappor_server.estimate(b);
        let t = truth[i] as f64;
        println!(
            "{b:>10} {est:>10.0} {t:>10.0} {:>6.1}%",
            if t > 0.0 {
                (est - t).abs() / t * 100.0
            } else {
                0.0
            }
        );
    }

    // --- Apple-style private Count-Mean-Sketch ---
    let epsilon = 4.0;
    let cms_client = PrivateCmsClient::new(16, 1024, epsilon, 77)?;
    let mut cms_server = PrivateCmsServer::new(16, 1024, epsilon, 77)?;
    for &u in &users {
        cms_server.collect(&cms_client.report(u, &mut rng))?;
    }
    println!("\n== Private Count-Mean-Sketch (ε = {epsilon}) ==");
    println!(
        "{:>10} {:>10} {:>10} {:>7}",
        "browser", "estimate", "truth", "err%"
    );
    for (i, &b) in BROWSERS.iter().enumerate() {
        let est = cms_server.estimate(b);
        let t = truth[i] as f64;
        println!(
            "{b:>10} {est:>10.0} {t:>10.0} {:>6.1}%",
            if t > 0.0 {
                (est - t).abs() / t * 100.0
            } else {
                0.0
            }
        );
    }

    println!(
        "\nA browser nobody uses decodes to ≈0: RAPPOR {:.0}, CMS {:.0}",
        rappor_server.estimate("netscape"),
        cms_server.estimate("netscape")
    );
    Ok(())
}
