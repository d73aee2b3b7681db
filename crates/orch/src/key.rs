//! Content-addressed study identity.
//!
//! A study is identified by everything that determines its results: the
//! instrumented module's printed IR (which embeds the ISA lowering and
//! the injection category's instrumentation), the entry function, the
//! fault-site category, the workload and ISA names, the full
//! [`StudyConfig`] including the seed, and a spec's non-test input
//! scale. Two invocations with the same key are bit-identical
//! experiments, so the store can cache and resume them freely; changing
//! any ingredient changes the key and lands in a fresh directory.

use vulfi::{Prepared, StudyConfig};

/// A 128-bit content hash, rendered as 32 hex chars (the store directory
/// name).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StudyKey(pub String);

impl serde::Serialize for StudyKey {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.0.clone())
    }
}

impl serde::Deserialize for StudyKey {
    fn from_value(v: &serde::Value) -> Result<StudyKey, serde::DeError> {
        String::from_value(v).map(StudyKey)
    }
}

impl std::fmt::Display for StudyKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv1a(basis: u64, bytes: &[u8]) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Compute the study key of a prepared program under a configuration.
pub fn study_key(prog: &Prepared, workload_name: &str, isa: &str, cfg: &StudyConfig) -> StudyKey {
    study_key_with(prog, workload_name, isa, cfg, &[])
}

/// [`study_key`] plus canon parts that are passed only when not at their
/// default (`Cell`'s `scale:paper`), so keys minted without them stay.
pub(crate) fn study_key_with(
    prog: &Prepared,
    workload_name: &str,
    isa: &str,
    cfg: &StudyConfig,
    extra: &[&str],
) -> StudyKey {
    let module_text = vir::printer::print_module(&prog.module);
    let mut canon = String::new();
    for part in [
        "vulfi-orch-study-v1",
        workload_name,
        isa,
        prog.category.name(),
        &prog.entry,
        &cfg.experiments_per_campaign.to_string(),
        &format!("{:016x}", cfg.target_margin.to_bits()),
        &cfg.min_campaigns.to_string(),
        &cfg.max_campaigns.to_string(),
        &cfg.seed.to_string(),
        &module_text,
    ] {
        canon.push_str(part);
        canon.push('\0');
    }
    // The fault model joined the config after stores full of
    // single-bit-flip studies already existed; appending it only when
    // non-default keeps every pre-existing key (and cached study) valid
    // while guaranteeing a different model never collides with one.
    if cfg.model != vulfi::FaultModel::default() {
        canon.push_str(&format!("fault-model:{}", cfg.model.name()));
        canon.push('\0');
    }
    // Same pattern for pruning: a pruned study stores synthetic records
    // for discharged experiments, so it must never share a directory
    // with a full run — but unpruned keys stay byte-identical to every
    // key minted before pruning existed.
    if cfg.prune {
        canon.push_str("prune:on");
        canon.push('\0');
    }
    for part in extra {
        canon.push_str(part);
        canon.push('\0');
    }
    // Two independent FNV-1a streams (distinct offset bases) give 128
    // bits — ample for a results cache keyed by experiment content.
    let lo = fnv1a(0xcbf2_9ce4_8422_2325, canon.as_bytes());
    let hi = fnv1a(0x6c62_272e_07bb_0142, canon.as_bytes());
    StudyKey(format!("{hi:016x}{lo:016x}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vir::analysis::SiteCategory;
    use vulfi::prepare;

    fn prep(category: SiteCategory) -> Prepared {
        let w = vbench::micro_benchmark("vector sum", spmdc_isa(), vbench::Scale::Test).unwrap();
        prepare(&w, category).unwrap()
    }

    fn spmdc_isa() -> spmdc::VectorIsa {
        spmdc::VectorIsa::Avx
    }

    #[test]
    fn key_is_stable_and_sensitive() {
        let cfg = StudyConfig::default();
        let a = study_key(&prep(SiteCategory::PureData), "vector sum", "avx", &cfg);
        let b = study_key(&prep(SiteCategory::PureData), "vector sum", "avx", &cfg);
        assert_eq!(a, b, "same ingredients → same key");
        assert_eq!(a.0.len(), 32);

        let other_cat = study_key(&prep(SiteCategory::Control), "vector sum", "avx", &cfg);
        assert_ne!(a, other_cat, "category must change the key");

        let mut cfg2 = cfg;
        cfg2.seed ^= 1;
        let other_seed = study_key(&prep(SiteCategory::PureData), "vector sum", "avx", &cfg2);
        assert_ne!(a, other_seed, "seed must change the key");
    }

    #[test]
    fn fault_model_changes_key_but_default_is_legacy_stable() {
        let cfg = StudyConfig::default();
        let base = study_key(&prep(SiteCategory::PureData), "vector sum", "avx", &cfg);

        let mut burst = cfg;
        burst.model = vulfi::FaultModel::MultiBitBurst { width: 2 };
        let burst_key = study_key(&prep(SiteCategory::PureData), "vector sum", "avx", &burst);
        assert_ne!(base, burst_key, "fault model must change the key");

        let mut stuck = cfg;
        stuck.model = vulfi::FaultModel::StuckAt {
            bit: 0,
            value: false,
        };
        let stuck_key = study_key(&prep(SiteCategory::PureData), "vector sum", "avx", &stuck);
        assert_ne!(burst_key, stuck_key, "distinct models must not collide");

        // The default model appends nothing to the canon, so keys of
        // stores written before the model existed still resolve.
        let mut explicit = cfg;
        explicit.model = vulfi::FaultModel::SingleBitFlip;
        let explicit_key = study_key(
            &prep(SiteCategory::PureData),
            "vector sum",
            "avx",
            &explicit,
        );
        assert_eq!(base, explicit_key);
    }

    #[test]
    fn prune_changes_key_but_off_is_legacy_stable() {
        let cfg = StudyConfig::default();
        let base = study_key(&prep(SiteCategory::PureData), "vector sum", "avx", &cfg);

        let mut pruned = cfg;
        pruned.prune = true;
        let pruned_key = study_key(&prep(SiteCategory::PureData), "vector sum", "avx", &pruned);
        assert_ne!(base, pruned_key, "pruning must change the key");

        // prune=false appends nothing: pre-pruning keys still resolve.
        let mut explicit = cfg;
        explicit.prune = false;
        let off_key = study_key(
            &prep(SiteCategory::PureData),
            "vector sum",
            "avx",
            &explicit,
        );
        assert_eq!(base, off_key);
    }
}
