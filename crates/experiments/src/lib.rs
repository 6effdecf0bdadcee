//! # selfheal-experiments
//!
//! The harness that regenerates every table and figure in the paper's
//! evaluation (Section 4) plus validation experiments for both theorems:
//!
//! | experiment | paper artifact | module |
//! |---|---|---|
//! | E1 | Fig. 8 — max degree increase vs n | [`fig8`] |
//! | E2 | Fig. 9(a) — ID changes per node | [`fig9`] |
//! | E3 | Fig. 9(b) — messages per node | [`fig9`] |
//! | E4 | Fig. 10 — stretch vs n | [`fig10`] |
//! | E5 | Theorem 1 bound validation | [`theorem1`] |
//! | E6 | Theorem 2 LEVELATTACK lower bound | [`lowerbound`] |
//! | E7 | attack comparison (Section 4.2's narrative) | [`attacks`] |
//! | E8 | simultaneous deletions (footnote 1) | [`batchexp`] |
//! | E9 | parallel sweep fleet + theorem auditors | [`sweep`] |
//! | E10 | exhaustive prover + schedule explorer | [`verify`] |
//! | E11 | million-node healing throughput | [`scale`] |
//! | E12 | full healer registry ranked at equal budgets | [`familyrank`] |
//! | E13 | healing-as-a-service multi-tenant soak | [`servebench`] |
//!
//! Run them all with the `run-experiments` binary:
//!
//! ```text
//! run-experiments all --quick            # CI-sized
//! run-experiments fig8 --full --csv out/ # paper-sized + CSV dumps
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod attacks;
pub mod batchexp;
pub mod config;
pub mod familyrank;
pub mod fig10;
pub mod fig8;
pub mod fig9;
pub mod lowerbound;
pub mod render;
pub mod runner;
pub mod scale;
pub mod servebench;
pub mod specrun;
pub mod sweep;
pub mod theorem1;
pub mod verify;

pub use config::Scale;
