//! Attack × healer matrix: every adversary against every healing
//! strategy on the same graphs, one table per metric.
//!
//! This is the bird's-eye comparison the paper's Section 4 narrates:
//! DASH/SDASH keep degree increase tiny under every attack; the naive
//! strategies pay more the smarter the adversary gets.
//!
//! ```text
//! cargo run --release --example attack_matrix [n]
//! ```

use selfheal::core::spec::{AdversarySpec, HealerSpec};
use selfheal::experiments::runner::run_trial;
use selfheal::metrics::Table;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(256);
    let seed = 77;
    let attacks = [
        AdversarySpec::MaxNode,
        AdversarySpec::NeighborOfMax,
        AdversarySpec::Random,
        AdversarySpec::MinDegree,
    ];
    let healers = HealerSpec::figure_set();

    println!("attack x healer matrix on BA({n}, 3), full kill-sweeps, seed {seed}\n");

    let mut degree = Table::new(
        std::iter::once("attack \\ healer".to_string())
            .chain(healers.iter().map(|h| h.name().to_string())),
    );
    let mut messages = degree.clone();
    for attack in attacks {
        let mut drow = vec![attack.name().to_string()];
        let mut mrow = drow.clone();
        for healer in healers {
            let stats = run_trial(n, healer, attack, seed);
            drow.push(stats.max_delta.to_string());
            mrow.push(stats.max_msgs_sent.to_string());
        }
        degree.row(drow);
        messages.row(mrow);
    }

    println!(
        "maximum degree increase (bound for DASH: {:.1})",
        2.0 * (n as f64).log2()
    );
    println!("{}", degree.render());
    println!("maximum ID-maintenance messages sent by one node");
    println!("{}", messages.render());
}
