//! Workload generation: every study spec the benchmark runs is a pure
//! function of the workload seed, so the same seed gives the same inputs.

use vir::analysis::SiteCategory;
use vulfi::{FaultModel, StudyConfig, StudySpec};

/// SplitMix64 finaliser over `a` and `b`: the one seed-derivation step.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub const CATEGORIES: [SiteCategory; 3] = [
    SiteCategory::PureData,
    SiteCategory::Control,
    SiteCategory::Address,
];

/// The non-default fault models the micro-variant workload runs, one cell
/// each.
pub const MODELS: [&str; 6] = [
    "multi-bit-burst:2",
    "stuck-at:3=1",
    "temporal-pair:100",
    "mask-corrupt",
    "address-line:12",
    "memory-cell",
];

/// How a cell's study is run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Variant {
    Plain,
    /// `StudyConfig::prune`: statically discharged experiments.
    Prune,
    /// Trace store on (`RunOptions::trace`).
    Trace,
    /// A non-default fault model.
    Model(FaultModel),
}

impl Variant {
    pub fn name(&self) -> String {
        match self {
            Variant::Plain => "plain".to_string(),
            Variant::Prune => "prune".to_string(),
            Variant::Trace => "trace".to_string(),
            Variant::Model(m) => m.name(),
        }
    }
}

/// One persistent study of a batch workload.
#[derive(Debug, Clone)]
pub struct Cell {
    pub bench: &'static str,
    pub isa: &'static str,
    pub category: SiteCategory,
    pub variant: Variant,
    pub cfg: StudyConfig,
}

impl Cell {
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.bench,
            self.isa,
            self.category.name(),
            self.variant.name()
        )
    }
}

/// Study shape of a Table I cell: the paper's ±3 pp stopping rule
/// (`StudyConfig::default` margin and minimum) under a campaign cap.
pub const TABLE1_EXPERIMENTS: usize = 4;
pub const TABLE1_CAMPAIGNS: usize = 5;
/// Study shape of a micro-variant cell.
pub const MICRO_EXPERIMENTS: usize = 20;
pub const MICRO_CAMPAIGNS: usize = 5;

fn cfg(
    experiments: usize,
    campaigns: usize,
    seed: u64,
    model: FaultModel,
    prune: bool,
) -> StudyConfig {
    StudyConfig {
        experiments_per_campaign: experiments,
        max_campaigns: campaigns,
        seed,
        model,
        prune,
        ..StudyConfig::default()
    }
}

/// Round `round` of `table1-study`: the nine Table I kernels on AVX
/// crossed with the three site categories.
pub fn table1_cells(seed: u64, round: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for bench in vbench::STUDY_NAMES {
        for category in CATEGORIES {
            let study_seed = mix(mix(seed, round), cells.len() as u64);
            cells.push(Cell {
                bench,
                isa: "avx",
                category,
                variant: Variant::Plain,
                cfg: cfg(
                    TABLE1_EXPERIMENTS,
                    TABLE1_CAMPAIGNS,
                    study_seed,
                    FaultModel::SingleBitFlip,
                    false,
                ),
            });
        }
    }
    cells
}

/// Round `round` of `micro-variants`: the three §IV-E micros on AVX and
/// SSE, each under every variant. All variants of one (micro, ISA) share
/// a study seed, so the prune and trace cells must merge to exactly the
/// plain cell's result.
pub fn micro_cells(seed: u64, round: u64) -> Vec<Cell> {
    let mut variants = vec![Variant::Plain, Variant::Prune, Variant::Trace];
    variants.extend(
        MODELS
            .iter()
            .map(|m| Variant::Model(FaultModel::parse(m).expect("benchmark model names parse"))),
    );
    let mut cells = Vec::new();
    for (b, bench) in vbench::MICRO_NAMES.into_iter().enumerate() {
        for (i, isa) in ["avx", "sse"].into_iter().enumerate() {
            let study_seed = mix(mix(seed, round), (2 * b + i) as u64);
            for variant in &variants {
                let (model, prune) = match variant {
                    Variant::Model(m) => (*m, false),
                    Variant::Prune => (FaultModel::SingleBitFlip, true),
                    _ => (FaultModel::SingleBitFlip, false),
                };
                cells.push(Cell {
                    bench,
                    isa,
                    category: SiteCategory::PureData,
                    variant: *variant,
                    cfg: cfg(MICRO_EXPERIMENTS, MICRO_CAMPAIGNS, study_seed, model, prune),
                });
            }
        }
    }
    cells
}

/// Share of closed-loop submits that re-send an already completed spec.
pub const RESEND_PERCENT: u64 = 20;

/// What a closed-loop client sends as its `k`-th submit.
#[derive(Debug, Clone, PartialEq)]
pub enum Submit {
    /// A spec never sent before; `fresh` numbers the client's fresh specs.
    Fresh { fresh: u64, spec: StudySpec },
    /// Re-send the client's earlier fresh spec number `fresh` (already
    /// completed, since the loop is closed): a content-addressed cache hit.
    Resend { fresh: u64 },
}

/// The `fresh`-th new spec of `client`: a small micro study (100
/// experiments) whose identity depends only on the seed and coordinates.
pub fn serve_spec(seed: u64, client: u64, fresh: u64) -> StudySpec {
    let h = mix(mix(mix(seed, 0x5e7e), client), fresh);
    StudySpec {
        bench: vbench::MICRO_NAMES[(h % 3) as usize].to_string(),
        isa: ["avx", "sse"][((h >> 8) % 2) as usize].to_string(),
        category: vulfi::SPEC_CATEGORIES[((h >> 16) % 3) as usize].to_string(),
        experiments: 25,
        campaigns: 4,
        seed: h >> 24,
        ..StudySpec::default()
    }
}

/// The `k`-th submit of `client`, given how many fresh specs it has sent
/// so far. The first submit is always fresh.
pub fn serve_submit(seed: u64, client: u64, k: u64, fresh_sent: u64) -> Submit {
    let h = mix(mix(mix(seed, 0xcace), client), k);
    if fresh_sent > 0 && h % 100 < RESEND_PERCENT {
        Submit::Resend {
            fresh: (h >> 8) % fresh_sent,
        }
    } else {
        Submit::Fresh {
            fresh: fresh_sent,
            spec: serve_spec(seed, client, fresh_sent),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_a_pure_function_of_the_seed() {
        let key = |cells: Vec<Cell>| -> Vec<(String, u64)> {
            cells.iter().map(|c| (c.label(), c.cfg.seed)).collect()
        };
        assert_eq!(key(table1_cells(7, 0)), key(table1_cells(7, 0)));
        assert_ne!(key(table1_cells(7, 0)), key(table1_cells(8, 0)));
        assert_ne!(key(table1_cells(7, 0)), key(table1_cells(7, 1)));
        assert_eq!(key(micro_cells(7, 2)), key(micro_cells(7, 2)));
        assert_eq!(table1_cells(1, 0).len(), 27);
        assert_eq!(micro_cells(1, 0).len(), 3 * 2 * 9);
        let stream = |seed| {
            let mut fresh = 0;
            (0..50)
                .map(|k| {
                    let s = serve_submit(seed, 1, k, fresh);
                    if let Submit::Fresh { .. } = s {
                        fresh += 1;
                    }
                    s
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(stream(3), stream(3));
        assert_ne!(stream(3), stream(4));
    }

    #[test]
    fn variants_of_one_micro_share_a_study_seed() {
        let cells = micro_cells(5, 0);
        for group in cells.chunks(9) {
            assert!(group.iter().all(|c| c.cfg.seed == group[0].cfg.seed));
            assert_eq!(group[0].variant, Variant::Plain);
            assert!(group[1].cfg.prune);
        }
        for spec in (0..20).map(|f| serve_spec(9, 0, f)) {
            spec.validate().unwrap();
        }
    }

    #[test]
    fn resends_name_an_earlier_fresh_spec() {
        let mut fresh = 0;
        let mut resends = 0;
        for k in 0..1000 {
            match serve_submit(11, 0, k, fresh) {
                Submit::Fresh { fresh: f, .. } => {
                    assert_eq!(f, fresh);
                    fresh += 1;
                }
                Submit::Resend { fresh: f } => {
                    assert!(f < fresh);
                    resends += 1;
                }
            }
        }
        assert!((100..300).contains(&resends), "{resends}");
    }
}
