//! # vbench — the VULFI paper's benchmark suite, rebuilt
//!
//! The nine study benchmarks of paper Table I and the three §IV-E
//! micro-benchmarks, re-implemented in SPMD-C and compiled to VIR for both
//! AVX (8-lane) and SSE (4-lane) targets:
//!
//! | Suite  | Benchmarks |
//! |--------|------------|
//! | Parvec | Fluidanimate (SPH density), Swaptions (Monte-Carlo pricing) |
//! | ISPC   | Blackscholes, Sorting (odd-even transposition), Stencil (2D 5-point), Ray tracing (sphere caster) |
//! | SCL    | Chebyshev (coefficients), Jacobi (2D relaxation), ConjugateGradient (1D Poisson) |
//! | Micro  | vector copy (paper Fig. 6), dot product, vector sum |
//!
//! Each benchmark is a [`workload::SpmdWorkload`]: a compiled kernel plus
//! a deterministic input family, pluggable straight into
//! `vulfi::campaign`. Unit tests pin every kernel against a scalar Rust
//! reference implementation.

pub mod micro;
pub mod suite;
pub mod suite_ext;
pub mod suite_ispc;
pub mod suite_parvec;
pub mod suite_scl;
pub mod util;
pub mod workload;

pub use suite::{
    benchmark, micro_benchmark, micro_benchmarks, study_benchmark, study_benchmarks, MICRO_NAMES,
    STUDY_NAMES,
};
pub use util::{DetRng, Scale};
pub use workload::SpmdWorkload;
