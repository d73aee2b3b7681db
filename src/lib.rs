//! # vulfi-suite — the whole reproduction under one roof
//!
//! Facade crate for the VULFI reproduction workspace. The real code lives
//! in the member crates; this crate re-exports them for the workspace-level
//! examples (`examples/`) and integration tests (`tests/`), and is a
//! convenient single dependency for downstream experimentation:
//!
//! - [`vir`] — the LLVM-like vector IR,
//! - [`vexec`] — the interpreter / virtual vector machine,
//! - [`spmdc`] — the mini-ISPC compiler,
//! - [`vulfi`] — the fault injector and campaign driver,
//! - [`detectors`] — the compilation-aware error detectors,
//! - [`vbench`] — the paper's benchmark suite.
//!
//! ```
//! use vulfi_suite::prelude::*;
//!
//! let w = vbench::benchmark("vector copy", VectorIsa::Avx, Scale::Test).unwrap();
//! let prog = vulfi::prepare(&w, SiteCategory::Control).unwrap();
//! let c = vulfi::run_campaign(&prog, &w, 10, 1).unwrap();
//! assert_eq!(c.counts.total(), 10);
//! ```

pub use detectors;
pub use spmdc;
pub use vbench;
pub use vexec;
pub use vir;
pub use vulfi;

/// The names most sessions start with.
pub mod prelude {
    pub use detectors::{CheckPlacement, DetectorConfig, WithDetectors};
    pub use spmdc::VectorIsa;
    pub use vbench::{self, Scale};
    pub use vexec::{Interp, NoHost, RtVal, Scalar};
    pub use vir::analysis::SiteCategory;
    pub use vulfi::{self, workload::Workload};
}
