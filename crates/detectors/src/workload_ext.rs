//! Wrapping a [`Workload`] with detector-augmented code.
//!
//! [`WithDetectors`] clones a workload's module, runs the detector passes
//! over its kernel, and exposes the result as a new `Workload`, so the
//! standard `vulfi::campaign` driver measures detection rates without any
//! special-casing (paper §IV-E's methodology).

use vexec::{Memory, Trap};
use vir::Module;
use vulfi::workload::{SetupResult, Workload};

use crate::foreach_pass::{insert_foreach_detectors, CheckPlacement};
use crate::uniform_pass::insert_uniform_detectors;

/// Which detector families to insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorConfig {
    pub foreach_invariants: bool,
    pub uniform_broadcast: bool,
    pub placement: CheckPlacement,
}

impl Default for DetectorConfig {
    fn default() -> DetectorConfig {
        DetectorConfig {
            foreach_invariants: true,
            uniform_broadcast: false,
            placement: CheckPlacement::OnExit,
        }
    }
}

/// A workload whose module has detectors inserted. It owns its inner
/// workload; pass `&w` to wrap a borrowed one.
pub struct WithDetectors<W: Workload> {
    inner: W,
    module: Module,
    /// Detector blocks / checker calls inserted.
    pub foreach_detectors: usize,
    pub uniform_detectors: usize,
}

impl<W: Workload> WithDetectors<W> {
    pub fn new(inner: W, cfg: DetectorConfig) -> Result<WithDetectors<W>, String> {
        let mut module = inner.module().clone();
        let mut foreach_detectors = 0;
        let mut uniform_detectors = 0;
        if cfg.foreach_invariants {
            foreach_detectors =
                insert_foreach_detectors(&mut module, inner.entry(), cfg.placement)?;
        }
        if cfg.uniform_broadcast {
            uniform_detectors = insert_uniform_detectors(&mut module, inner.entry())?;
        }
        Ok(WithDetectors {
            inner,
            module,
            foreach_detectors,
            uniform_detectors,
        })
    }
}

impl<W: Workload> Workload for WithDetectors<W> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn entry(&self) -> &str {
        self.inner.entry()
    }

    fn module(&self) -> &Module {
        &self.module
    }

    fn num_inputs(&self) -> u64 {
        self.inner.num_inputs()
    }

    fn setup(&self, mem: &mut Memory, input: u64) -> Result<SetupResult, Trap> {
        self.inner.setup(mem, input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmdc::{compile, VectorIsa};
    use vexec::{RtVal, Scalar};
    use vulfi::workload::OutputRegion;

    struct Copy {
        m: Module,
    }

    impl Workload for Copy {
        fn name(&self) -> &str {
            "vector copy"
        }
        fn entry(&self) -> &str {
            "vcopy_ispc"
        }
        fn module(&self) -> &Module {
            &self.m
        }
        fn num_inputs(&self) -> u64 {
            2
        }
        fn setup(&self, mem: &mut Memory, input: u64) -> Result<SetupResult, Trap> {
            let n = 12 + input as usize * 5;
            let vals: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
            let a1 = mem.alloc_f32_slice(&vals)?;
            let a2 = mem.alloc_f32_slice(&vec![0.0; n])?;
            Ok(SetupResult {
                args: vec![
                    RtVal::Scalar(Scalar::ptr(a1)),
                    RtVal::Scalar(Scalar::ptr(a2)),
                    RtVal::Scalar(Scalar::i32(n as i32)),
                ],
                outputs: vec![OutputRegion {
                    addr: a2,
                    bytes: (n * 4) as u64,
                }],
            })
        }
    }

    fn copy_workload() -> Copy {
        let src = r#"
export void vcopy_ispc(uniform float a1[], uniform float a2[], uniform int n) {
    foreach (i = 0 ... n) {
        a2[i] = a1[i];
    }
}
"#;
        Copy {
            m: compile(src, VectorIsa::Avx, "vcopy").unwrap(),
        }
    }

    #[test]
    fn wrapper_inserts_detectors_and_preserves_behavior() {
        let w = copy_workload();
        let wd = WithDetectors::new(&w, DetectorConfig::default()).unwrap();
        assert_eq!(wd.foreach_detectors, 1);
        assert_eq!(wd.name(), "vector copy");
        assert_eq!(wd.num_inputs(), 2);
        // Golden runs of both versions produce the same dynamic behavior
        // modulo the detector calls.
        let plain = vulfi::campaign::measure_dyn_insts(w.module(), w.entry(), &w, 0).unwrap();
        let with = vulfi::campaign::measure_dyn_insts(wd.module(), wd.entry(), &wd, 0).unwrap();
        assert!(with > plain, "detector adds instructions");
        let overhead = (with - plain) as f64 / plain as f64;
        assert!(
            overhead < 0.25,
            "exit-only detector overhead small, got {overhead}"
        );
    }

    #[test]
    fn detection_rates_flow_through_campaigns() {
        use vir::analysis::SiteCategory;
        let w = copy_workload();
        let wd = WithDetectors::new(&w, DetectorConfig::default()).unwrap();
        let prog = vulfi::prepare(&wd, SiteCategory::Control).unwrap();
        let c = vulfi::run_campaign(&prog, &wd, 120, 99).unwrap();
        // Control faults hit the loop counter; a good fraction of the SDCs
        // must be detected by the foreach invariants (paper Fig. 12 shows
        // ~57% for vector copy).
        assert!(c.counts.sdc > 0, "{:?}", c.counts);
        assert!(
            c.counts.detected > 0,
            "foreach invariants never fired: {:?}",
            c.counts
        );
    }

    #[test]
    fn pure_data_faults_are_never_detected_by_foreach_invariants() {
        use vir::analysis::SiteCategory;
        let w = copy_workload();
        let wd = WithDetectors::new(&w, DetectorConfig::default()).unwrap();
        let prog = vulfi::prepare(&wd, SiteCategory::PureData).unwrap();
        let c = vulfi::run_campaign(&prog, &wd, 80, 5).unwrap();
        // Paper Fig. 12 / §IV-E: loop-iterator faults can never be
        // pure-data, so pure-data campaigns see zero detections.
        assert_eq!(c.counts.detected, 0, "{:?}", c.counts);
    }
}
