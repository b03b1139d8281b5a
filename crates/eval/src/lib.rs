//! Experiment harness reproducing the paper's evaluation (Sec. IV).
//!
//! One module per figure, each with a `paper()` configuration matching the
//! published parameters and a `fast()` configuration for smoke tests:
//!
//! - [`fig3`] — clustering accuracy (WPR vs `b`) and bandwidth-prediction
//!   error CDFs; tree metric vs the Vivaldi/Euclidean baseline.
//! - [`fig4`] — the decentralization tradeoff: RR vs `k`.
//! - [`fig5`] — the effect of treeness: WPR vs `f_b`, raw and normalized
//!   by `(·)^{f_a*}` with `α = 3.2`.
//! - [`fig6`] — scalability: mean routing hops vs system size.
//! - [`robustness`] — extension: query success and re-convergence
//!   under injected message loss and host crashes.
//!
//! Shared machinery: [`metrics`] (WPR/RR accumulators, bucketing),
//! [`report`] (plain-text tables), [`setup`] (dataset selection and
//! approach builders). Rounds run in parallel with deterministic per-round
//! seeds, so results are reproducible regardless of thread scheduling.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ext_convergence;
pub mod ext_embedding;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod metrics;
pub mod report;
pub mod robustness;
pub mod setup;

pub use ext_convergence::{run_convergence, ConvergenceConfig, ConvergenceResult};
pub use ext_embedding::{run_embedding, EmbeddingConfig, EmbeddingResult};
pub use fig3::{run_fig3, Fig3Config, Fig3Result};
pub use fig4::{run_fig4, Fig4Config, Fig4Result};
pub use fig5::{run_fig5, Fig5Config, Fig5Result};
pub use fig6::{run_fig6, Fig6Config, Fig6Result};
pub use report::{Series, Table};
pub use robustness::{run_robustness, RobustnessCell, RobustnessConfig, RobustnessResult};
pub use setup::DatasetKind;
