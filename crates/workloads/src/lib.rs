//! # treegion-workloads
//!
//! Synthetic workload substrate standing in for the paper's SPECint95 +
//! training-input profiles (see DESIGN.md, "Substitutions"). Two layers:
//!
//! * [`spec_suite`] + [`generate`] — eight seeded, deterministic program
//!   generators, one per SPECint95 benchmark, calibrated toward the
//!   region statistics the paper reports (Tables 1/2/4) and the control
//!   shapes it analyses per program;
//! * [`shapes`] — hand-built CFGs for the paper's figures (1, 7, 9, 10),
//!   used by the examples (`worked_example`, `heuristic_showdown`,
//!   `tail_duplication`) and the heuristic-pathology tests.
//!
//! ## Example
//!
//! ```
//! use treegion_workloads::{generate, BenchmarkSpec};
//!
//! let module = generate(&BenchmarkSpec::tiny(42));
//! assert_eq!(module.functions().len(), 2);
//! for f in module.functions() {
//!     treegion_ir::verify_function(f)?;
//! }
//! # Ok::<(), treegion_ir::VerifyError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod gen;
pub mod shapes;
mod spec;

pub use gen::{generate, generate_fuzz, generate_suite};
pub use spec::{spec_suite, BenchmarkSpec};
