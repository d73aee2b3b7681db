//! Serializable study specifications — the wire format a client submits
//! to an injection service.
//!
//! `vulfi study` builds a spec from its CLI flags; a long-running service
//! instead receives a [`StudySpec`] as JSON. Either way the spec is
//! checked with [`StudySpec::validate`] and expanded into the benchmark
//! name plus a [`StudyConfig`]. The spec deliberately carries *names*
//! (benchmark, ISA, category, scale) rather than compiled artifacts:
//! whoever executes it rebuilds the instrumented module from those names
//! deterministically, and the content-addressed study key pins the
//! identity.

use vir::analysis::SiteCategory;

use crate::fault::FaultModel;
use crate::StudyConfig;

/// Every string field a [`StudySpec`] constrains, with its accepted
/// values — kept in one place so validation errors can enumerate them.
pub const SPEC_ISAS: [&str; 2] = ["avx", "sse"];
pub const SPEC_CATEGORIES: [&str; 3] = ["pure-data", "control", "address"];
pub const SPEC_SCALES: [&str; 2] = ["test", "paper"];

/// A complete, self-contained description of one study submission.
///
/// All fields are required on the wire (the vendored serde has no
/// defaulting); [`StudySpec::default`] gives the canonical starting
/// point, matching `vulfi study`'s CLI defaults.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StudySpec {
    /// Benchmark name (see `vulfi list`).
    pub bench: String,
    /// Vector ISA lowering: `"avx"` or `"sse"`.
    pub isa: String,
    /// Fault-site category: `"pure-data"`, `"control"`, or `"address"`.
    pub category: String,
    /// Input scale: `"test"` or `"paper"`.
    pub scale: String,
    /// Experiments per campaign.
    pub experiments: usize,
    /// Hard cap on campaigns (the ±3 pp stopping rule may use fewer).
    pub campaigns: usize,
    pub seed: u64,
    /// Experiments per schedulable shard.
    pub shard_size: usize,
    /// Insert SDC detectors into the workload before instrumenting.
    pub detectors: bool,
    /// Fault model, e.g. `"single-bit-flip"` or `"multi-bit-burst:2"`
    /// (see [`crate::MODEL_KINDS`]).
    pub model: String,
    /// Statically discharge provably-benign injections without running
    /// them (single-bit-flip model only).
    pub prune: bool,
}

impl Default for StudySpec {
    fn default() -> StudySpec {
        StudySpec {
            bench: String::new(),
            isa: "avx".to_string(),
            category: "pure-data".to_string(),
            scale: "test".to_string(),
            experiments: 25,
            campaigns: 8,
            seed: 42,
            shard_size: 25,
            detectors: false,
            model: FaultModel::default().name(),
            prune: false,
        }
    }
}

impl StudySpec {
    /// Reject anything a worker could not execute, with errors that name
    /// the accepted values. (Benchmark-name existence is checked by the
    /// executor, which owns the benchmark registry.)
    pub fn validate(&self) -> Result<(), String> {
        if self.bench.trim().is_empty() {
            return Err("spec.bench must name a benchmark (see `vulfi list`)".to_string());
        }
        if !SPEC_ISAS.contains(&self.isa.as_str()) {
            return Err(format!("spec.isa '{}' not in {SPEC_ISAS:?}", self.isa));
        }
        self.site_category()?;
        if !SPEC_SCALES.contains(&self.scale.as_str()) {
            return Err(format!(
                "spec.scale '{}' not in {SPEC_SCALES:?}",
                self.scale
            ));
        }
        if self.experiments == 0 {
            return Err("spec.experiments must be positive".to_string());
        }
        if self.campaigns == 0 {
            return Err("spec.campaigns must be positive".to_string());
        }
        if self.shard_size == 0 {
            return Err("spec.shard_size must be positive".to_string());
        }
        let model = self.fault_model()?;
        if self.prune && model != FaultModel::SingleBitFlip {
            return Err(format!(
                "spec.prune requires the single-bit-flip model, not '{}'",
                self.model
            ));
        }
        Ok(())
    }

    /// The fault model as the injector's enum.
    pub fn fault_model(&self) -> Result<FaultModel, String> {
        FaultModel::parse(&self.model).map_err(|e| format!("spec.model: {e}"))
    }

    /// The category as the injector's enum.
    pub fn site_category(&self) -> Result<SiteCategory, String> {
        match self.category.as_str() {
            "pure-data" => Ok(SiteCategory::PureData),
            "control" => Ok(SiteCategory::Control),
            "address" => Ok(SiteCategory::Address),
            other => Err(format!(
                "spec.category '{other}' not in {SPEC_CATEGORIES:?}"
            )),
        }
    }

    /// Expand into the campaign-layer configuration. Margin and
    /// minimum-campaign defaults come from [`StudyConfig::default`]
    /// (the paper's §IV-D stopping rule).
    pub fn study_config(&self) -> StudyConfig {
        StudyConfig {
            experiments_per_campaign: self.experiments,
            max_campaigns: self.campaigns,
            seed: self.seed,
            model: self.fault_model().unwrap_or_default(),
            prune: self.prune,
            ..StudyConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> StudySpec {
        StudySpec {
            bench: "vector sum".to_string(),
            ..StudySpec::default()
        }
    }

    #[test]
    fn roundtrips_as_json() {
        let s = spec();
        let text = serde_json::to_string(&s).unwrap();
        let back: StudySpec = serde_json::from_str(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn validate_accepts_defaults_and_names_bad_fields() {
        spec().validate().unwrap();

        let mut s = spec();
        s.bench = "  ".to_string();
        assert!(s.validate().unwrap_err().contains("bench"));

        let mut s = spec();
        s.isa = "mips".to_string();
        let e = s.validate().unwrap_err();
        assert!(e.contains("mips") && e.contains("avx"), "{e}");

        let mut s = spec();
        s.category = "weird".to_string();
        let e = s.validate().unwrap_err();
        assert!(e.contains("weird") && e.contains("pure-data"), "{e}");

        let mut s = spec();
        s.scale = "huge".to_string();
        assert!(s.validate().is_err());

        let mut s = spec();
        s.prune = true;
        s.validate().unwrap();
        s.model = "multi-bit-burst:2".to_string();
        let e = s.validate().unwrap_err();
        assert!(e.contains("prune"), "{e}");

        let mut s = spec();
        s.model = "cosmic-ray".to_string();
        let e = s.validate().unwrap_err();
        assert!(
            e.contains("cosmic-ray") && e.contains("single-bit-flip"),
            "{e}"
        );

        for zeroed in [
            |s: &mut StudySpec| s.experiments = 0,
            |s: &mut StudySpec| s.campaigns = 0,
            |s: &mut StudySpec| s.shard_size = 0,
        ] {
            let mut s = spec();
            zeroed(&mut s);
            assert!(s.validate().is_err());
        }
    }

    #[test]
    fn config_expansion_matches_cli_defaults() {
        let cfg = spec().study_config();
        assert_eq!(cfg.experiments_per_campaign, 25);
        assert_eq!(cfg.max_campaigns, 8);
        assert_eq!(cfg.seed, 42);
        // Stopping-rule knobs come from the paper defaults.
        assert_eq!(cfg.target_margin, StudyConfig::default().target_margin);
        assert_eq!(cfg.min_campaigns, StudyConfig::default().min_campaigns);
        assert_eq!(spec().site_category().unwrap(), SiteCategory::PureData);
        assert_eq!(cfg.model, FaultModel::SingleBitFlip);

        let mut s = spec();
        s.model = "stuck-at:7=1".to_string();
        assert_eq!(
            s.study_config().model,
            FaultModel::StuckAt {
                bit: 7,
                value: true
            }
        );
    }
}
