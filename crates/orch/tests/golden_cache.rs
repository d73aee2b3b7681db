//! "Cached = uncached": a study run through `run_study_persistent` on
//! several threads, on one `Prepared` whose golden cache every model,
//! variant and shard shares, stores exactly the records (and trace
//! spans) that a fresh `Prepared` per experiment produces.

use std::path::PathBuf;

use vir::analysis::SiteCategory;
use vulfi::{
    build_prune_context, campaign_seed, prepare, run_experiment_range, run_experiment_range_pruned,
    run_experiment_range_traced, Experiment, ExperimentTrace, FaultModel, StudyConfig,
};
use vulfi_orch::{run_study_persistent, set_jobs, RunOptions, Store, TraceStore};

const MODELS: [FaultModel; 7] = [
    FaultModel::SingleBitFlip,
    FaultModel::MultiBitBurst { width: 3 },
    FaultModel::StuckAt {
        bit: 5,
        value: true,
    },
    FaultModel::MaskCorrupt,
    FaultModel::AddressLine { bit: 2 },
    FaultModel::TemporalPair { gap: 4 },
    FaultModel::MemoryCell,
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Variant {
    Plain,
    Prune,
    Trace,
}

const CATEGORY: SiteCategory = SiteCategory::PureData;

fn workload() -> vbench::SpmdWorkload {
    vbench::micro_benchmark("dot product", spmdc::VectorIsa::Sse4, vbench::Scale::Test).unwrap()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vulfi_golden_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Experiment `i` of campaign `c`, on a program prepared just for it.
fn oracle(
    w: &vbench::SpmdWorkload,
    model: FaultModel,
    variant: Variant,
    cfg: &StudyConfig,
    c: usize,
    i: usize,
) -> (Experiment, Option<ExperimentTrace>) {
    let mut prog = prepare(w, CATEGORY).unwrap();
    prog.model = model;
    let seed = campaign_seed(cfg.seed, c);
    let (mut e, mut t) = match variant {
        Variant::Plain => (
            run_experiment_range(&prog, w, seed, i..i + 1).unwrap(),
            vec![],
        ),
        Variant::Prune => {
            let ctx = build_prune_context(&prog, w).unwrap();
            let e = run_experiment_range_pruned(&prog, w, &ctx, seed, i..i + 1).unwrap();
            (e, vec![])
        }
        Variant::Trace => run_experiment_range_traced(&prog, w, seed, i..i + 1).unwrap(),
    };
    (e.remove(0), t.pop())
}

#[test]
fn cached_study_records_equal_fresh_prepared_oracle() {
    set_jobs(2);
    let w = workload();
    let mut prog = prepare(&w, CATEGORY).unwrap();
    let mut mask_injections = 0;
    for (m, model) in MODELS.into_iter().enumerate() {
        for variant in [Variant::Plain, Variant::Prune, Variant::Trace] {
            let cfg = StudyConfig {
                experiments_per_campaign: 6,
                target_margin: 50.0,
                min_campaigns: 2,
                max_campaigns: 2,
                seed: 0xCA_C4E0 + m as u64,
                model,
                prune: variant == Variant::Prune,
            };
            // One program for everything: only its model changes.
            prog.model = model;
            let name = format!("{m}_{variant:?}");
            let store = Store::open(temp_dir(&format!("store_{name}"))).unwrap();
            let trace_root = temp_dir(&format!("trace_{name}"));
            let opts = RunOptions {
                shard_size: 2,
                trace: (variant == Variant::Trace).then(|| trace_root.clone()),
                ..RunOptions::default()
            };
            let out = run_study_persistent(&prog, &w, "dot product", "sse", &cfg, &store, opts);
            if variant == Variant::Prune && model != FaultModel::SingleBitFlip {
                let err = out.err().expect("pruning rejects non-bit-flip models");
                assert!(err.0.contains("single-bit-flip"), "{err}");
                continue;
            }
            let out = out.unwrap();
            assert!(out.result.is_some(), "{name}: study must complete");
            let shards = store.study(&out.key).shards().unwrap();
            let spans: Vec<ExperimentTrace> = if variant == Variant::Trace {
                let log = TraceStore::open(&trace_root).unwrap().study(&out.key);
                log.shards()
                    .unwrap()
                    .into_iter()
                    .flat_map(|s| s.traces)
                    .collect()
            } else {
                Vec::new()
            };
            let mut k = 0;
            for rec in &shards {
                for (i, got) in (rec.start..rec.end).zip(&rec.experiments) {
                    let (want, want_span) = oracle(&w, model, variant, &cfg, rec.campaign, i);
                    assert_eq!(got, &want, "{name}: c{}:{i}", rec.campaign);
                    if model == FaultModel::MaskCorrupt && got.injection.is_some() {
                        mask_injections += 1;
                    }
                    if let Some(mut want_span) = want_span {
                        let mut got_span = spans[k].clone();
                        (got_span.wall_ns, want_span.wall_ns) = (0, 0);
                        assert_eq!(got_span, want_span, "{name}: span c{}:{i}", rec.campaign);
                    }
                    k += 1;
                }
            }
            assert_eq!(k, 12, "{name}: every experiment checked");
            let _ = std::fs::remove_dir_all(store.root());
            let _ = std::fs::remove_dir_all(&trace_root);
        }
    }
    assert!(
        mask_injections > 0,
        "the workload must exercise the mask-corruption census"
    );
}
