//! # bgp-eval
//!
//! The evaluation harness: regenerates **every table and figure** in the
//! paper's evaluation from the simulated substrate, through the real MRT
//! pipeline where the paper used collector archives.
//!
//! | Artifact | Module | Binary |
//! |----------|--------|--------|
//! | Table 1 — data sets overview            | [`table1`]   | `table1` |
//! | Table 2 — scenario classification       | [`table2`]   | `table2` |
//! | Figure 2 — ROC threshold sweeps         | [`fig2`]     | `fig2` |
//! | Table 3 — real-data classification      | [`table3`]   | `table3` |
//! | Figure 3 — stability over days          | [`fig3`]     | `fig3` |
//! | Figure 4 — longitudinal view            | [`fig4`]     | `fig4` |
//! | Figure 5 — community types at peers     | [`fig5`]     | `fig5` |
//! | Figure 6 — customer-cone CDFs           | [`fig6`]     | `fig6` |
//! | Table 4 — PEERING validation            | [`table4`]   | `table4` |
//! | Tables 5/6 — confusion matrices         | [`tables56`] | `tables56` |
//!
//! Scale is controlled by `BGP_EVAL_SCALE` (`small` / `paper` / `full`,
//! default `paper` ≈ 7.3k ASes — a 1:10 model of the paper's substrate).
//!
//! Every experiment classifies through `InferenceEngine::run`, which
//! executes on the compiled columnar store (`bgp_infer::compiled`) —
//! experiments that re-run the engine many times (threshold sweeps,
//! multi-seed tables) inherit its speedup with byte-identical results.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod report;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod tables56;
pub mod world;

/// Commonly used items.
pub mod prelude {
    pub use crate::report::Table;
    pub use crate::world::{realistic_roles, truth_map, AmbientCommunities, EvalScale, World};
}
