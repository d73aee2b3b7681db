//! Property tests: the merged study result is a pure function of the
//! study config — shard size, thread count and the order in which shards
//! complete must never leak into it, nor into the stored shard list.

use proptest::prelude::*;
use std::sync::OnceLock;

use vir::analysis::SiteCategory;
use vulfi::{prepare, run_study, Prepared, StudyConfig, StudyResult};
use vulfi_orch::{
    merge, plan_shards, run_shard, run_study_persistent, set_jobs, RunOptions, ShardRecord, Store,
};

fn workload() -> &'static vbench::SpmdWorkload {
    static W: OnceLock<vbench::SpmdWorkload> = OnceLock::new();
    W.get_or_init(|| {
        vbench::micro_benchmark("dot product", spmdc::VectorIsa::Sse4, vbench::Scale::Test).unwrap()
    })
}

fn prog() -> &'static Prepared {
    static P: OnceLock<Prepared> = OnceLock::new();
    P.get_or_init(|| prepare(workload(), SiteCategory::PureData).unwrap())
}

fn bits(r: &StudyResult) -> (Vec<u64>, u64, bool) {
    (
        r.samples.iter().map(|x| x.to_bits()).collect(),
        r.counts.sdc << 32 | r.counts.crash << 16 | r.counts.benign,
        r.converged,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn merged_result_ignores_shard_size_and_threads(
        shard_size in 1usize..40,
        jobs in 1usize..5,
        seed in 0u64..4,
    ) {
        let cfg = StudyConfig {
            experiments_per_campaign: 8,
            target_margin: 50.0,
            min_campaigns: 4,
            max_campaigns: 4,
            seed: 0x5EED_0000 + seed,
            ..StudyConfig::default()
        };
        let reference = run_study(prog(), workload(), &cfg).unwrap();

        set_jobs(jobs);
        let dir = std::env::temp_dir().join(format!(
            "vulfi_orch_prop_{}_{}_{}_{}",
            std::process::id(), shard_size, jobs, seed
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let out = run_study_persistent(
            prog(),
            workload(),
            "dot product",
            "sse",
            &cfg,
            &store,
            RunOptions { shard_size, max_shards: None, progress: None, trace: None },
        )
        .unwrap();
        set_jobs(0);
        let merged = out.result.expect("all shards ran; study must be complete");
        prop_assert_eq!(bits(&merged), bits(&reference));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A shard record without its informational wall time.
fn untimed(records: Vec<ShardRecord>) -> Vec<ShardRecord> {
    records
        .into_iter()
        .map(|r| ShardRecord { wall_ns: 0, ..r })
        .collect()
}

fn same(a: &[ShardRecord], b: &[ShardRecord]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            (x.campaign, x.start, x.end, &x.experiments)
                == (y.campaign, y.start, y.end, &y.experiments)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Shards appended in any completion order read back in canonical
    /// `(campaign, start, end)` order and merge identically.
    #[test]
    fn shard_completion_order_never_leaks(
        shard_size in 1usize..6,
        order_keys in prop::collection::vec(any::<u64>(), 32),
        seed in 0u64..4,
    ) {
        let cfg = StudyConfig {
            experiments_per_campaign: 8,
            target_margin: 50.0,
            min_campaigns: 3,
            max_campaigns: 3,
            seed: 0x0DE2_0000 + seed,
            ..StudyConfig::default()
        };
        let plan = plan_shards(&cfg, shard_size);
        let records: Vec<ShardRecord> = plan
            .iter()
            .map(|job| run_shard(prog(), workload(), &cfg, *job, false, None).unwrap().0)
            .collect();
        // Shuffle: complete shards in the order of their random keys.
        let mut completion: Vec<usize> = (0..records.len()).collect();
        completion.sort_by_key(|&i| order_keys[i % order_keys.len()] ^ i as u64);

        let dir = std::env::temp_dir().join(format!(
            "vulfi_orch_order_{}_{}_{}",
            std::process::id(), shard_size, seed
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let key = vulfi_orch::study_key(prog(), "dot product", "sse", &cfg);
        let study = store.study(&key);
        for &i in &completion {
            study.append_shard(&records[i]).unwrap();
        }
        let read = untimed(study.shards().unwrap());
        prop_assert!(same(&read, &untimed(records)), "shards() must be canonical");
        let merged = merge(&cfg, prog().category, &read).expect("complete");
        let reference = run_study(prog(), workload(), &cfg).unwrap();
        prop_assert_eq!(bits(&merged), bits(&reference));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
