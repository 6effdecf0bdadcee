//! Quickstart: describe a whole scenario declaratively — graph, healer,
//! adversary, seed, auditing, backend — run it through the one spec
//! front door, and verify the paper's guarantees held.
//!
//! The same text lives in checked-in `.scn` files under `specs/` and
//! runs from the CLI:
//!
//! ```text
//! cargo run --release --example quickstart
//! cargo run --release -p selfheal-experiments -- run --spec specs/rack_partition.scn
//! ```

use selfheal::prelude::*;

fn main() {
    let n = 512;

    // 1. One declarative, replayable description of the whole run: a
    //    Barabási–Albert power-law network (the paper's testbed), DASH
    //    healing, the strongest attack the paper found (delete a random
    //    neighbor of the hub), every Theorem 1 bound audited per event.
    let spec: ScenarioSpec = format!(
        "graph = ba({n}, 3)\n\
         healer = dash\n\
         adversary = neighbor-of-max\n\
         seed = 2008\n\
         audit = theorems\n"
    )
    .parse()
    .expect("well-formed spec");
    println!("running spec:\n{spec}");

    // 2. The spec round-trips through its text form — what runs is
    //    exactly what a .scn file would say.
    assert_eq!(spec.to_string().parse::<ScenarioSpec>().unwrap(), spec);

    // 3. Let the adversary delete every single node.
    let outcome = spec.run().expect("valid spec");
    let report = &outcome.report;

    // 4. The paper's Theorem 1, observed.
    let bound = 2.0 * (n as f64).log2();
    println!("rounds:                 {}", report.rounds);
    println!(
        "max degree increase:    {} (bound 2 log2 n = {bound:.1})",
        report.max_delta_ever
    );
    println!(
        "max ID changes/node:    {} (2 ln n = {:.1})",
        report.max_id_changes,
        2.0 * (n as f64).ln()
    );
    println!("max messages/node:      {}", report.max_traffic);
    println!("healing edges added:    {}", report.total_edges_added);
    println!(
        "amortized broadcast:    {:.2} hops (log2 n = {:.1})",
        report.amortized_latency(),
        (n as f64).log2()
    );
    println!("theorem violations:     {}", report.violations.len());

    assert!(
        outcome.is_clean(),
        "a Theorem 1 bound or invariant broke: {:?}",
        report.violations
    );
    assert!(
        (report.max_delta_ever as f64) <= bound,
        "degree bound exceeded!"
    );
    println!("\nall Theorem 1 guarantees held while deleting the entire network.");
}
