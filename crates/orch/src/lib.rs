//! # vulfi-orch — persistent, resumable campaign orchestration
//!
//! `vulfi::run_study` answers "what is this workload's SDC rate?" in one
//! blocking call. This crate wraps the same experiment machinery in the
//! operational layer a long evaluation needs:
//!
//! - **Content-addressed studies** ([`key`]): a study's identity is the
//!   hash of its instrumented IR, category, ISA, seed, and full
//!   configuration, so re-running a finished study is a cache hit and
//!   changing any input lands in a fresh directory. [`Cell::build`] is
//!   the one path from a [`vulfi::StudySpec`] to a program and its key.
//! - **Crash-tolerant persistence** ([`store`]): shards append to a
//!   checksummed JSONL log; the manifest is replaced atomically. Killing
//!   a run loses at most the in-flight shards, a flipped byte is detected
//!   rather than merged, and [`Store::fsck`] quarantines a damaged log
//!   and salvages every intact record.
//! - **Deterministic sharding** ([`plan`]): every experiment's RNG
//!   derives from its `(campaign, index)` coordinates, so any partition
//!   into shards, on any thread count, merges to the bit-identical
//!   result of an uninterrupted sequential run.
//! - **Live observability** ([`observe`]): experiments/sec, ETA, and
//!   running SDC/Benign/Crash counts after every shard.
//! - **Offline analytics** ([`analytics`]): read-only reports over the
//!   stores — study diffing with Wilson intervals and two-proportion
//!   z-tests, site × lane × bit vulnerability heatmaps, lane-occupancy
//!   profiles, and a self-contained HTML report renderer.
//!
//! ```no_run
//! # use vulfi_orch::{run_study_persistent, RunOptions, Store};
//! # fn demo(prog: &vulfi::Prepared, w: &dyn vulfi::Workload) -> Result<(), vulfi_orch::OrchError> {
//! let store = Store::open("results/store")?;
//! let cfg = vulfi::StudyConfig::default();
//! let out = run_study_persistent(prog, w, "Stencil", "avx", &cfg, &store, RunOptions::default())?;
//! if let Some(result) = out.result {
//!     println!("SDC {:.1}% ± {:.1}", result.summary.mean, result.summary.margin_95);
//! }
//! # Ok(()) }
//! ```

pub mod alerts;
pub mod analytics;
pub mod cell;
pub mod crc;
pub mod events;
pub mod key;
pub mod lease;
pub mod metrics;
pub mod observe;
pub mod plan;
pub mod queue;
pub mod run;
pub mod scenario;
pub mod store;
pub mod telemetry;
pub mod traceexport;
pub mod tracestore;

pub use alerts::{
    evaluate_rule, parse_alert_rules, render_alerts_json, render_alerts_text, AlertEngine,
    AlertKind, AlertRule, AlertState, AlertTransition, ALERT_KINDS,
};

pub use analytics::{
    analysis_cells, diff_stores, heatmaps, heatmaps_filtered, html_from_stores, load_cells,
    render_diff_text, render_heatmap_text, render_html, AnalysisCell, AnalysisSiteRow, DiffCell,
    DiffReport, LaneBitCell, MetricRow, OccupancyBucket, OccupancyProfile, ReportInputs, SiteRow,
    StudyCell, WorkloadHeatmap,
};
pub use cell::Cell;
pub use crc::crc32;
pub use events::{summarize_events, JobLifecycle, OpsEvent, OpsKind, OpsLog, OpsSummary};
pub use key::{study_key, StudyKey};
pub use lease::{Lease, LeaseBoard, LeaseStats};
pub use metrics::{
    parse_prometheus, render_json, render_prometheus, Metrics, MetricsSnapshot, PromSample,
};
pub use observe::{humanize, Progress, ProgressSnapshot};
pub use plan::{covered_experiments, merge, merged_dyn_insts, missing_jobs, plan_shards, ShardJob};
pub use queue::{JobQueue, JobRecord, JobState};
pub use run::{
    run_shard, run_study_persistent, set_jobs, verify_soundness, ProgressFn, RunOptions, RunOutcome,
};
pub use scenario::{
    cell_verdict, check_invariant, parse_scenario, render_verdicts, render_verdicts_json,
    CellVerdict, GauntletReport, Invariant, InvariantVerdict, Scenario,
};
pub use store::{FsckReport, Manifest, ShardRecord, Store, StudyFsck, StudyStore};
pub use telemetry::{
    histogram_quantile, now_unix_ms, sparkline_svg, Sampler, SamplerInputs, TelemetryLog,
    TelemetryRing, TelemetrySample, DEFAULT_RING_CAPACITY,
};
pub use traceexport::{
    render_chrome, spans_from_ops, spans_from_traces, validate_chrome, ChromeSpan, LayerCounts,
};
pub use tracestore::{
    summarize, CategorySummary, PropagationPercentiles, SiteSdcSummary, TraceLog, TraceShard,
    TraceStore, TraceSummary,
};

/// Orchestration-layer error (I/O, storage corruption, or a campaign
/// failure bubbled up from the experiment runner).
#[derive(Debug, Clone, PartialEq)]
pub struct OrchError(pub String);

impl std::fmt::Display for OrchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "orchestration error: {}", self.0)
    }
}

impl std::error::Error for OrchError {}
