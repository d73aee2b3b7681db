//! The shard runner: fan missing shards out over rayon, persist each as
//! it completes, and merge the store back into a study result.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use rayon::prelude::*;
use vulfi::{
    build_prune_context, campaign_seed, run_experiment_range, run_experiment_range_pruned,
    run_experiment_range_traced, Prepared, PruneContext, SoundnessReport, StudyConfig, StudyResult,
    Workload,
};

use crate::key::{study_key, StudyKey};
use crate::observe::{Progress, ProgressSnapshot};
use crate::plan::{merge, merged_dyn_insts, missing_jobs, plan_shards, ShardJob};
use crate::store::{Manifest, ShardRecord, Store, StudyStore};
use crate::tracestore::{TraceShard, TraceStore};
use crate::OrchError;

/// Callback invoked (serialized, under the runner's lock) after every
/// completed shard, and once more with the final state before the
/// runner returns — consumers always observe the finished snapshot
/// (`done == total` on a completed study) even if the last shard's
/// callback was lost or no shard ran at all.
pub type ProgressFn = Box<dyn Fn(&ProgressSnapshot) + Send + Sync>;

pub struct RunOptions {
    /// Experiments per shard.
    pub shard_size: usize,
    /// Stop after executing this many shards in this invocation, leaving
    /// the rest pending in the store (tests use this to simulate a killed
    /// run; incremental batch jobs can use it as a work quantum).
    pub max_shards: Option<usize>,
    pub progress: Option<ProgressFn>,
    /// Record per-experiment trace spans under this trace-store root
    /// (`vulfi study --trace <dir>`). Tracing is observational: the
    /// persisted results and the study key are bit-identical with or
    /// without it.
    pub trace: Option<PathBuf>,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            shard_size: 25,
            max_shards: None,
            progress: None,
            trace: None,
        }
    }
}

/// What a [`run_study_persistent`] invocation did.
pub struct RunOutcome {
    pub key: StudyKey,
    pub total_shards: usize,
    /// Shards already in the store, skipped by this invocation.
    pub reused_shards: usize,
    pub executed_shards: usize,
    /// Shards still missing (nonzero only under `max_shards` cutoffs).
    pub pending_shards: usize,
    /// `Some` once every campaign the stopping rule needs is stored.
    pub result: Option<StudyResult>,
    /// Wall time of this invocation.
    pub wall_ns: u64,
    /// Golden-run dynamic instructions over the campaigns the merged
    /// result used (0 while partial).
    pub dyn_insts: u64,
    pub progress: ProgressSnapshot,
}

/// Execute one shard of a study: derive the campaign seed, run the
/// experiment range (traced when asked), and bump the global metrics —
/// the single execution path shared by the in-process runner below and
/// the `vulfi serve` worker pool. Callers append the returned record to
/// the store themselves (the runner under its sink lock; a service
/// worker after its lease).
///
/// Determinism contract: the record depends only on
/// `(prog, workload, cfg.seed, job)` — never on who ran it, when, or
/// how many times (`wall_ns` is informational and excluded from result
/// merging).
pub fn run_shard(
    prog: &Prepared,
    workload: &dyn Workload,
    cfg: &StudyConfig,
    job: ShardJob,
    traced: bool,
    prune: Option<&PruneContext>,
) -> Result<(ShardRecord, Vec<vulfi::ExperimentTrace>), OrchError> {
    if prog.model != cfg.model {
        return Err(OrchError(format!(
            "prepared program injects '{}' but the study config says '{}'",
            prog.model, cfg.model
        )));
    }
    let shard_start = Instant::now();
    let seed = campaign_seed(cfg.seed, job.campaign);
    let (experiments, spans) = if let Some(ctx) = prune {
        if traced {
            return Err(OrchError(
                "tracing and pruning are mutually exclusive (a discharged experiment \
                 has no execution to trace)"
                    .to_string(),
            ));
        }
        run_experiment_range_pruned(prog, workload, ctx, seed, job.start..job.end)
            .map(|e| (e, Vec::new()))
    } else if traced {
        run_experiment_range_traced(prog, workload, seed, job.start..job.end)
    } else {
        run_experiment_range(prog, workload, seed, job.start..job.end).map(|e| (e, Vec::new()))
    }
    .map_err(|e| OrchError(e.to_string()))?;
    let metrics = crate::metrics::global();
    for e in &experiments {
        metrics.inc_experiment(prog.category, e.outcome);
        metrics.inc_experiment_model(prog.model, e.outcome);
    }
    for s in &spans {
        if let Some(p) = s.propagation {
            metrics.observe_propagation(prog.category, p);
        }
    }
    Ok((
        ShardRecord {
            campaign: job.campaign,
            start: job.start,
            end: job.end,
            experiments,
            wall_ns: shard_start.elapsed().as_nanos() as u64,
        },
        spans,
    ))
}

/// Run (or resume) a study through `store`.
///
/// Experiments already persisted under this study's content key are
/// never re-executed; everything else fans out over rayon in shard
/// units, each appended to the store the moment it completes. Results
/// are bit-identical to `vulfi::run_study` with the same config
/// regardless of shard size, thread count, or how many times the run
/// was interrupted and resumed.
pub fn run_study_persistent(
    prog: &Prepared,
    workload: &dyn Workload,
    workload_name: &str,
    isa: &str,
    cfg: &StudyConfig,
    store: &Store,
    opts: RunOptions,
) -> Result<RunOutcome, OrchError> {
    let key = study_key(prog, workload_name, isa, cfg);
    let manifest = fresh_manifest(key, workload_name, isa, prog, cfg, opts.shard_size);
    run_manifest(&manifest, prog, workload, store, opts)
}

/// The manifest of a study not yet in any store.
pub(crate) fn fresh_manifest(
    key: StudyKey,
    workload_name: &str,
    isa: &str,
    prog: &Prepared,
    cfg: &StudyConfig,
    shard_size: usize,
) -> Manifest {
    Manifest {
        key,
        workload: workload_name.to_string(),
        isa: isa.to_string(),
        category: prog.category,
        entry: prog.entry.clone(),
        cfg: *cfg,
        total_shards: plan_shards(cfg, shard_size).len() as u64,
        complete: false,
    }
}

/// Open `m.key`'s study, creating it with manifest `m` when new.
pub(crate) fn open_study(store: &Store, m: &Manifest) -> Result<StudyStore, OrchError> {
    let study = store.study(&m.key);
    if !study.exists() {
        study.write_manifest(m)?;
    }
    Ok(study)
}

/// [`run_study_persistent`] for the study manifest `m` describes.
pub(crate) fn run_manifest(
    m: &Manifest,
    prog: &Prepared,
    workload: &dyn Workload,
    store: &Store,
    opts: RunOptions,
) -> Result<RunOutcome, OrchError> {
    let started = Instant::now();
    let cfg = &m.cfg;
    if prog.model != cfg.model {
        // The model rides on both the prepared program (the injector
        // reads it) and the config (the key hashes it); letting them
        // diverge would cache results under the wrong key.
        return Err(OrchError(format!(
            "prepared program injects '{}' but the study config says '{}'",
            prog.model, cfg.model
        )));
    }
    if cfg.prune && opts.trace.is_some() {
        return Err(OrchError(
            "--trace and --prune are mutually exclusive: a statically discharged \
             experiment has no execution to trace"
                .to_string(),
        ));
    }
    let key = m.key.clone();
    let study = open_study(store, m)?;
    let plan = plan_shards(cfg, opts.shard_size);

    // Open the trace sidecar first so a bad --trace path fails before
    // any work, and heal its own kill artifact the same way as the
    // result log below.
    let trace_log = match &opts.trace {
        Some(root) => {
            let tstore = TraceStore::open(root)?;
            let tlog = tstore.study(&key);
            tlog.trim_torn_tail()?;
            Some(tlog)
        }
        None => None,
    };

    let done = study.shards()?;
    // Heal the expected kill artifact (a torn trailing line) now, so the
    // appends below cannot bury it mid-file where it would read as
    // corruption. Real corruption errored out of `shards()` above.
    study.trim_torn_tail()?;
    let mut missing = missing_jobs(&plan, &done, cfg);
    let reused_shards = plan.len() - missing.len();
    if let Some(cap) = opts.max_shards {
        missing.truncate(cap);
    }

    // The prune context (static analysis; building it also caches every
    // input's golden site log on `prog`) is shared by every shard, and
    // only needed when something will actually execute — a fully cached
    // study resumes without it.
    let prune_ctx = if cfg.prune && !missing.is_empty() {
        Some(build_prune_context(prog, workload).map_err(|e| OrchError(e.to_string()))?)
    } else {
        None
    };

    let progress = Progress::resume(cfg, &done);

    // One lock serializes the append-only logs, the progress counters,
    // and the user's callback; experiment execution itself runs outside
    // it.
    let sink = Mutex::new((&study, progress));
    let executed_shards = missing.len();
    let metrics = crate::metrics::global();
    let faults_before = vulfi::engine_faults().len() as u64;
    let results: Result<Vec<()>, OrchError> = missing
        .into_par_iter()
        .map(|job| {
            let (rec, spans) = run_shard(
                prog,
                workload,
                cfg,
                job,
                trace_log.is_some(),
                prune_ctx.as_ref(),
            )?;
            // Recover the guard on poison: a panic in another worker (or
            // in a user callback) must not cascade into losing this
            // shard's append — the counters it protects stay coherent
            // because every mutation below is completed before unlock.
            let mut guard = sink
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let (study, progress) = &mut *guard;
            let append_start = Instant::now();
            study.append_shard(&rec)?;
            metrics.observe_shard_append(append_start.elapsed().as_nanos() as u64);
            if let Some(tlog) = &trace_log {
                // The result shard is already durable; the trace append
                // rides in the same critical section so a kill tears at
                // most the trace line (which resume trims) and never
                // interleaves two writers.
                tlog.append_shard(&TraceShard {
                    campaign: job.campaign,
                    start: job.start,
                    end: job.end,
                    workload: m.workload.clone(),
                    category: prog.category.name().to_string(),
                    isa: m.isa.clone(),
                    model: prog.model.name(),
                    traces: spans,
                })?;
            }
            progress.add_shard(&rec);
            if let Some(cb) = &opts.progress {
                // A panicking observer must not kill the study: the
                // shard is already persisted; reporting is best-effort.
                let snap = progress.snapshot();
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cb(&snap)));
            }
            Ok(())
        })
        .collect();
    results?;
    metrics.add_engine_faults((vulfi::engine_faults().len() as u64).saturating_sub(faults_before));

    let (_, progress) = sink
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let done = study.shards()?;
    let result = merge(cfg, prog.category, &done);
    let pending_shards = missing_jobs(&plan, &done, cfg).len();
    let dyn_insts = result
        .as_ref()
        .map(|r| merged_dyn_insts(cfg, r, &done))
        .unwrap_or(0);
    if result.is_some() {
        let mut manifest = study.read_manifest()?;
        if !manifest.complete {
            manifest.complete = true;
            study.write_manifest(&manifest)?;
        }
    }
    let final_snapshot = progress.snapshot();
    if let Some(cb) = &opts.progress {
        // Always emit the final state, even when every shard was reused
        // (the per-shard callback never fired) — consumers of the stream
        // can rely on the last snapshot reporting `done == total` for a
        // completed study.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cb(&final_snapshot)));
    }
    Ok(RunOutcome {
        key,
        total_shards: plan.len(),
        reused_shards,
        executed_shards,
        pending_shards,
        result,
        wall_ns: started.elapsed().as_nanos() as u64,
        dyn_insts,
        progress: final_snapshot,
    })
}

/// Cross-validate the static analyzer against a fully-executed study
/// (`--prune=verify`): re-run the analysis on the workload, then check
/// every stored single-bit-flip injection record against the benign
/// predictions. The executed study shares its key with an unpruned run,
/// so verification is free on a warm store; any violation means the
/// analyzer predicted "provably benign" for a flip that misbehaved —
/// an analyzer bug, never sampling noise.
pub fn verify_soundness(
    workload: &dyn Workload,
    done: &[ShardRecord],
) -> Result<SoundnessReport, OrchError> {
    let report = vulfi::analyze_module(workload.module(), workload.entry()).map_err(OrchError)?;
    let plan = vulfi::PrunePlan::from_report(&report);
    Ok(vulfi::check_soundness(
        &plan,
        done.iter().flat_map(|s| &s.experiments),
    ))
}

/// Set the global worker count (`--jobs N`; 0 = all cores).
pub fn set_jobs(n: usize) {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global();
}
