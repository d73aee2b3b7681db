//! # vulfi — Vector-oriented fault injector, in Rust
//!
//! This crate is the primary contribution of the reproduced paper,
//! *"Towards Resiliency Evaluation of Vector Programs"*: an IR-level fault
//! injector that understands **vector registers** and **masked vector
//! operations**.
//!
//! Pipeline (paper Fig. 1):
//!
//! 1. Compile the target program to [`vir`] (via `spmdc` for ISPC-style
//!    sources or `vir::parser` for hand-written IR).
//! 2. [`sites`] — enumerate static fault sites (every instruction Lvalue
//!    plus store value operands; one site per vector lane) and classify
//!    each by its forward slice into **pure-data / control / address**
//!    (§II-C).
//! 3. [`instrument`] — splice runtime-API calls at every selected site,
//!    cloning vector registers lane by lane with mask plumbing (§II-D,
//!    Figs. 4-5).
//! 4. [`runtime`] — at execution time, count dynamic fault sites (active
//!    lanes only) and flip exactly one random bit at one uniformly chosen
//!    dynamic site (§II-B).
//! 5. [`campaign`] — run golden/faulty pairs, classify SDC / Benign /
//!    Crash, aggregate 100-experiment campaigns, and repeat until the
//!    ±3 pp @95% stopping rule of [`stats`] fires (§IV).
//!
//! ```
//! use vulfi::campaign::{prepare, run_campaign};
//! use vulfi::workload::{OutputRegion, SetupResult, Workload};
//! use vir::analysis::SiteCategory;
//! # use vexec::{Memory, RtVal, Scalar, Trap};
//! # struct W { m: vir::Module }
//! # impl Workload for W {
//! #   fn name(&self) -> &str { "demo" }
//! #   fn entry(&self) -> &str { "scale" }
//! #   fn module(&self) -> &vir::Module { &self.m }
//! #   fn num_inputs(&self) -> u64 { 1 }
//! #   fn setup(&self, mem: &mut Memory, _i: u64) -> Result<SetupResult, Trap> {
//! #     let a = mem.alloc_f32_slice(&[1.0, 2.0, 3.0, 4.0])?;
//! #     Ok(SetupResult { args: vec![RtVal::Scalar(Scalar::ptr(a)), RtVal::Scalar(Scalar::i32(4))],
//! #                      outputs: vec![OutputRegion { addr: a, bytes: 16 }] })
//! #   }
//! # }
//! # let src = "define void @scale(ptr %a, i32 %n) {\nentry:\n  br label %h\nh:\n  %i = phi i32 [ 0, %entry ], [ %i2, %b ]\n  %c = icmp slt i32 %i, %n\n  br i1 %c, label %b, label %x\nb:\n  %p = getelementptr float, ptr %a, i32 %i\n  %v = load float, ptr %p\n  %d = fmul float %v, 2.0\n  store float %d, ptr %p\n  %i2 = add i32 %i, 1\n  br label %h\nx:\n  ret void\n}\n";
//! # let w = W { m: vir::parser::parse_module(src).unwrap() };
//! let prog = prepare(&w, SiteCategory::PureData).unwrap();
//! let result = run_campaign(&prog, &w, 20, 42).unwrap();
//! assert_eq!(result.counts.total(), 20);
//! ```

pub mod analyze;
pub mod campaign;
pub mod fault;
pub mod faultlog;
pub mod instrument;
pub mod report;
pub mod runtime;
pub mod sites;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workload;

pub use analyze::{
    analyze_function, analyze_module, check_soundness, BenignReason, BitClass, PrunePlan,
    SiteReport, SoundnessReport, SoundnessViolation, VulnReport,
};
pub use campaign::{
    build_prune_context, campaign_seed, experiment_rng, prepare, prepare_with, run_campaign,
    run_experiment, run_experiment_range, run_experiment_range_pruned, run_study, CampaignError,
    CampaignResult, Experiment, Outcome, OutcomeCounts, Prepared, PruneContext, ResourceLimits,
    StudyConfig, StudyResult,
};
pub use fault::{FaultModel, MODEL_KINDS};
pub use faultlog::{
    drain_engine_faults, engine_faults, record_engine_fault, set_strict, strict, EngineFault,
};
pub use instrument::{instrument_module, InstrumentOptions, Instrumented};
pub use report::{StudyReport, SuiteReport};
pub use runtime::{DetectorStats, InjectionRecord, RunMode, VulfiHost};
pub use sites::{category_mix, enumerate_sites, CategoryMix, SiteKind, StaticSite};
pub use spec::{StudySpec, SPEC_CATEGORIES, SPEC_ISAS, SPEC_SCALES};
pub use stats::{study_converged, two_proportion_z_test, wilson_interval_95, StudySummary, ZTest};
pub use trace::{run_experiment_range_traced, ExperimentTrace, TraceInjection};
pub use workload::{OutputRegion, SetupResult, Workload};
