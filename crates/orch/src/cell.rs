//! One study cell: how a [`StudySpec`] becomes a program and a key.
//! `vulfi study`, `vulfi gauntlet` and `vulfi serve` (submit and
//! promotion) all build through [`Cell::build`], so two paths given the
//! same spec name the same study by construction.

use spmdc::VectorIsa;
use vbench::Scale;
use vulfi::{Prepared, StudyConfig, StudySpec, Workload};

use crate::key::{study_key_with, StudyKey};
use crate::run::{fresh_manifest, open_study, run_manifest, RunOptions, RunOutcome};
use crate::store::{Manifest, Store, StudyStore};
use crate::OrchError;

/// A built study cell: the workload, its prepared program, and its key.
pub struct Cell {
    pub spec: StudySpec,
    pub cfg: StudyConfig,
    /// The benchmark, detector-wrapped when the spec asks for it.
    pub workload: Box<dyn Workload + Send>,
    /// Instrumented for the spec's category, injecting the spec's model.
    /// Callers may still set `limits`; nothing else may change.
    pub prog: Prepared,
    pub key: StudyKey,
}

impl Cell {
    /// Compile, wrap, instrument and key the cell `spec` names.
    pub fn build(spec: &StudySpec) -> Result<Cell, String> {
        spec.validate()?;
        // `validate` admits only these spellings.
        let isa = if spec.isa == "sse" {
            VectorIsa::Sse4
        } else {
            VectorIsa::Avx
        };
        let paper = spec.scale == "paper";
        let scale = if paper { Scale::Paper } else { Scale::Test };
        let bench = vbench::benchmark(&spec.bench, isa, scale)
            .ok_or_else(|| format!("unknown benchmark '{}' (see `vulfi list`)", spec.bench))?;
        let workload: Box<dyn Workload + Send> = if spec.detectors {
            Box::new(detectors::WithDetectors::new(
                bench,
                detectors::DetectorConfig::default(),
            )?)
        } else {
            Box::new(bench)
        };
        let cfg = spec.study_config();
        let mut prog =
            vulfi::prepare(&*workload, spec.site_category()?).map_err(|e| e.to_string())?;
        prog.model = cfg.model;
        // The scale joined the key after test-scale stores existed; like
        // `fault-model:` and `prune:on` it is named only when it is not
        // the default, so every test-scale key stays as it was.
        let scale_part: &[&str] = if paper { &["scale:paper"] } else { &[] };
        let key = study_key_with(&prog, workload.name(), &spec.isa, &cfg, scale_part);
        Ok(Cell {
            spec: spec.clone(),
            cfg,
            workload,
            prog,
            key,
        })
    }

    /// The cell's study in `store`, created with its manifest if new.
    pub fn open(&self, store: &Store) -> Result<StudyStore, OrchError> {
        open_study(store, &self.manifest())
    }

    /// Run (or resume) the cell through `store`, in shards of the spec's
    /// `shard_size` whatever `opts.shard_size` says; see
    /// [`crate::run_study_persistent`].
    pub fn run(&self, store: &Store, opts: RunOptions) -> Result<RunOutcome, OrchError> {
        let opts = RunOptions {
            shard_size: self.spec.shard_size,
            ..opts
        };
        run_manifest(&self.manifest(), &self.prog, &*self.workload, store, opts)
    }

    fn manifest(&self) -> Manifest {
        fresh_manifest(
            self.key.clone(),
            self.workload.name(),
            &self.spec.isa,
            &self.prog,
            &self.cfg,
            self.spec.shard_size,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::study_key;

    fn spec(scale: &str) -> StudySpec {
        StudySpec {
            bench: "vector sum".to_string(),
            scale: scale.to_string(),
            ..StudySpec::default()
        }
    }

    #[test]
    fn scale_is_part_of_the_key_but_test_scale_keys_are_unchanged() {
        let test = Cell::build(&spec("test")).unwrap();
        let paper = Cell::build(&spec("paper")).unwrap();
        assert_ne!(
            test.key, paper.key,
            "paper and test scale must not share a study"
        );
        assert_eq!(
            test.key,
            study_key(&test.prog, "vector sum", "avx", &test.cfg),
            "a test-scale cell keeps the key every earlier store used"
        );
    }

    #[test]
    fn build_applies_the_spec_model_and_detectors() {
        let mut s = spec("test");
        s.model = "multi-bit-burst:2".to_string();
        s.detectors = true;
        let cell = Cell::build(&s).unwrap();
        assert_eq!(
            cell.prog.model,
            vulfi::FaultModel::MultiBitBurst { width: 2 }
        );
        assert_eq!(cell.prog.model, cell.cfg.model);
        let plain = Cell::build(&spec("test")).unwrap();
        assert_ne!(
            vir::printer::print_module(cell.workload.module()),
            vir::printer::print_module(plain.workload.module()),
            "detectors must be woven into the module"
        );

        s.bench = "no such bench".to_string();
        let e = Cell::build(&s).err().unwrap();
        assert!(e.contains("unknown benchmark"), "{e}");
    }
}
