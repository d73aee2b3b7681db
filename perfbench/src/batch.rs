//! The two batch workloads, `table1-study` and `micro-variants`.
//!
//! Untraced runs go through the system's own driver,
//! `vulfi_orch::run_study_persistent`, one fresh store per cell. The
//! traced run drives the same studies shard by shard through the public
//! `orch`/`core` API under spans, so each layer's time is seen from the
//! outside; its merged results must equal the untraced run's byte for
//! byte.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use spmdc::VectorIsa;
use vbench::{Scale, SpmdWorkload};
use vulfi::{Prepared, StudyConfig, StudyResult, VulfiHost, Workload};
use vulfi_orch::{
    merge, missing_jobs, plan_shards, run_study_persistent, study_key, RunOptions, ShardRecord,
    Store, TraceShard, TraceStore,
};

use crate::check::{result_digest, Recorded, Tally, DEFAULT_SEED};
use crate::inputs::{micro_cells, table1_cells, Cell, Variant};
use crate::report::{measured, metric, peak_rss_mb, Outcome};
use crate::spans::{Span, Tracer};
use crate::stats::{median, percentile, samples_beyond, sorted};

/// Set-up repeats before the timed phase. One more follows every round,
/// outside the timed phase, so that `setup_s` (the median) samples the
/// machine across the run, not at one moment: its speed swings by tens of
/// percent over seconds.
const SETUP_REPEATS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Batch {
    Table1,
    Micro,
}

impl Batch {
    pub fn name(self) -> &'static str {
        match self {
            Batch::Table1 => "table1-study",
            Batch::Micro => "micro-variants",
        }
    }

    pub fn cells(self, seed: u64, round: u64) -> Vec<Cell> {
        match self {
            Batch::Table1 => table1_cells(seed, round),
            Batch::Micro => micro_cells(seed, round),
        }
    }

    /// Distinct rounds a run cycles through. Round `r` runs the studies
    /// of round `r % distinct_rounds()` again in fresh stores: the repeat
    /// must merge to the same results, and checking it costs nothing.
    pub fn distinct_rounds(self) -> u64 {
        match self {
            Batch::Table1 => 8,
            Batch::Micro => 4,
        }
    }

    fn recorded(self) -> Result<Recorded, String> {
        Recorded::parse(match self {
            Batch::Table1 => include_str!("../digests/table1-study.txt"),
            Batch::Micro => include_str!("../digests/micro-variants.txt"),
        })
    }
}

pub fn isa(name: &str) -> VectorIsa {
    match name {
        "sse" => VectorIsa::Sse4,
        _ => VectorIsa::Avx,
    }
}

/// Compile one benchmark (`vbench`, through `spmdc`) at test scale.
pub fn build(bench: &str, isa_name: &str) -> SpmdWorkload {
    vbench::study_benchmark(bench, isa(isa_name), Scale::Test)
        .or_else(|| vbench::micro_benchmark(bench, isa(isa_name), Scale::Test))
        .expect("benchmark names come from vbench's own name lists")
}

/// Compiled workloads and prepared programs for one set of cells. Cells
/// keep their position in every round, so position `i` maps to the same
/// program each round; only study seeds change.
pub struct Setup {
    workloads: Vec<SpmdWorkload>,
    progs: Vec<(usize, Prepared)>,
}

impl Setup {
    fn cell(&self, i: usize) -> (&SpmdWorkload, &Prepared) {
        let (w, prog) = &self.progs[i];
        (&self.workloads[*w], prog)
    }
}

/// Workload build, `prepare`, prune context and study key for every
/// cell: everything before the first experiment.
fn set_up(cells: &[Cell], tr: &Tracer) -> Result<Setup, String> {
    let mut index: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    let mut workloads = Vec::new();
    let mut progs = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let study = i as u64;
        let w = *index.entry((cell.bench, cell.isa)).or_insert_with(|| {
            let (w, _) = tr.span("vbench.build", None, study, |_| build(cell.bench, cell.isa));
            workloads.push(w);
            workloads.len() - 1
        });
        let workload = &workloads[w];
        let (prog, _) = tr.span("core.prepare", None, study, |_| {
            vulfi::prepare(workload, cell.category)
        });
        let mut prog = prog.map_err(|e| format!("{}: {e}", cell.label()))?;
        prog.model = cell.cfg.model;
        if cell.cfg.prune {
            let (ctx, _) = tr.span("core.prune_ctx", None, study, |_| {
                vulfi::build_prune_context(&prog, workload)
            });
            ctx.map_err(|e| format!("{}: {e}", cell.label()))?;
        }
        tr.span("orch.key", None, study, |_| {
            study_key(&prog, workload.name(), cell.isa, &cell.cfg)
        });
        progs.push((w, prog));
    }
    Ok(Setup { workloads, progs })
}

/// Set up `repeats` times and keep the last; returns it with every wall.
fn set_up_repeated(
    cells: &[Cell],
    tr: &Tracer,
    repeats: usize,
) -> Result<(Setup, Vec<f64>), String> {
    let mut walls = Vec::new();
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        let s = set_up(cells, tr)?;
        walls.push(t.elapsed().as_secs_f64());
        last = Some(s);
    }
    Ok((last.expect("at least one set-up ran"), walls))
}

/// One round's merged results (`None` where the study errored) and the
/// cost of getting them.
struct Round {
    results: Vec<Option<StudyResult>>,
    wall: Duration,
    /// Per-cell call latency, start to merged result.
    latencies_ms: Vec<f64>,
    experiments: u64,
}

/// A round through `run_study_persistent`, the system's own driver.
fn round_untraced(setup: &Setup, cells: &[Cell], root: &Path) -> Result<Round, String> {
    let mut round = Round {
        results: Vec::new(),
        wall: Duration::ZERO,
        latencies_ms: Vec::new(),
        experiments: 0,
    };
    let started = Instant::now();
    for (i, cell) in cells.iter().enumerate() {
        let (w, prog) = setup.cell(i);
        let store = Store::open(root.join(format!("c{i}"))).map_err(|e| e.to_string())?;
        let opts = RunOptions {
            trace: (cell.variant == Variant::Trace).then(|| root.join(format!("c{i}-trace"))),
            ..RunOptions::default()
        };
        let t = Instant::now();
        let out = run_study_persistent(prog, w, w.name(), cell.isa, &cell.cfg, &store, opts);
        round.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let result = match out {
            Ok(o) => {
                round.experiments += o.progress.executed;
                o.result
            }
            Err(e) => {
                eprintln!("perfbench: {} failed: {e}", cell.label());
                None
            }
        };
        round.results.push(result);
    }
    round.wall = started.elapsed();
    Ok(round)
}

/// One executed (or discharged) experiment of the traced driver.
struct ExpSample {
    cell: usize,
    input: u64,
    ns: u64,
    discharged: bool,
}

/// A round driven shard by shard: plan, per-experiment
/// `run_experiment_range(i..i+1)` calls under a shard span on `threads`
/// workers, then append, read back and merge.
fn round_traced(
    setup: &Setup,
    cells: &[Cell],
    root: &Path,
    tr: &Tracer,
    threads: usize,
) -> Result<(Round, Vec<ExpSample>, u64), String> {
    let mut round = Round {
        results: Vec::new(),
        wall: Duration::ZERO,
        latencies_ms: Vec::new(),
        experiments: 0,
    };
    let samples = Mutex::new(Vec::new());
    let mut log_bytes = 0;
    let started = Instant::now();
    for (i, cell) in cells.iter().enumerate() {
        let (w, prog) = setup.cell(i);
        let study_id = i as u64;
        let (out, dur) = tr.span("study", None, study_id, |sid| {
            traced_study(tr, sid, study_id, w, prog, cell, root, i, threads, &samples)
        });
        round.latencies_ms.push(dur.as_secs_f64() * 1e3);
        match out {
            Ok((result, executed, bytes)) => {
                round.experiments += executed;
                log_bytes += bytes;
                round.results.push(result);
            }
            Err(e) => {
                eprintln!("perfbench: traced {} failed: {e}", cell.label());
                round.results.push(None);
            }
        }
    }
    round.wall = started.elapsed();
    let samples = samples
        .into_inner()
        .expect("sample buffer lock poisoned by a panicking worker");
    Ok((round, samples, log_bytes))
}

#[allow(clippy::too_many_arguments)]
fn traced_study(
    tr: &Tracer,
    sid: u64,
    study_id: u64,
    w: &SpmdWorkload,
    prog: &Prepared,
    cell: &Cell,
    root: &Path,
    i: usize,
    threads: usize,
    samples: &Mutex<Vec<ExpSample>>,
) -> Result<(Option<StudyResult>, u64, u64), String> {
    let cfg = &cell.cfg;
    let err = |e: vulfi_orch::OrchError| e.to_string();
    let store = Store::open(root.join(format!("c{i}"))).map_err(err)?;
    let (key, _) = tr.span("orch.key", Some(sid), study_id, |_| {
        study_key(prog, w.name(), cell.isa, cfg)
    });
    let study = store.study(&key);
    let plan = plan_shards(cfg, RunOptions::default().shard_size);
    let done = study.shards().map_err(err)?;
    let missing = missing_jobs(&plan, &done, cfg);
    let prune = if cfg.prune {
        let (ctx, _) = tr.span("core.prune_ctx", Some(sid), study_id, |_| {
            vulfi::build_prune_context(prog, w)
        });
        Some(ctx.map_err(|e| e.to_string())?)
    } else {
        None
    };
    let trace_log = if cell.variant == Variant::Trace {
        let ts = TraceStore::open(root.join(format!("c{i}-trace"))).map_err(err)?;
        Some(ts.study(&key))
    } else {
        None
    };
    let cursor = AtomicUsize::new(0);
    let sink = Mutex::new(());
    let failure: Mutex<Option<String>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                while let Some(job) = missing.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    let (res, _) = tr.span("orch.shard", Some(sid), study_id, |shard| {
                        let shard_start = Instant::now();
                        let seed = vulfi::campaign_seed(cfg.seed, job.campaign);
                        let mut experiments = Vec::new();
                        let mut traces = Vec::new();
                        let mut local = Vec::new();
                        for x in job.start..job.end {
                            let (r, dur) =
                                tr.span("core.experiment", Some(shard), study_id, |_| {
                                    match (&prune, cell.variant) {
                                        (Some(ctx), _) => vulfi::run_experiment_range_pruned(
                                            prog,
                                            w,
                                            ctx,
                                            seed,
                                            x..x + 1,
                                        )
                                        .map(|e| (e, Vec::new())),
                                        (None, Variant::Trace) => {
                                            vulfi::run_experiment_range_traced(
                                                prog,
                                                w,
                                                seed,
                                                x..x + 1,
                                            )
                                        }
                                        _ => vulfi::run_experiment_range(prog, w, seed, x..x + 1)
                                            .map(|e| (e, Vec::new())),
                                    }
                                });
                            let (mut e, mut t) = r.map_err(|e| e.to_string())?;
                            for exp in &e {
                                local.push(ExpSample {
                                    cell: i,
                                    input: exp.input,
                                    ns: dur.as_nanos() as u64,
                                    discharged: prune.is_some()
                                        && exp.injection.is_none()
                                        && exp.dynamic_sites > 0,
                                });
                            }
                            experiments.append(&mut e);
                            traces.append(&mut t);
                        }
                        let rec = ShardRecord {
                            campaign: job.campaign,
                            start: job.start,
                            end: job.end,
                            experiments,
                            wall_ns: shard_start.elapsed().as_nanos() as u64,
                        };
                        let _guard = sink.lock().expect("append lock poisoned");
                        tr.span("orch.append", Some(shard), study_id, |_| {
                            study.append_shard(&rec)
                        })
                        .0
                        .map_err(err)?;
                        if let Some(tlog) = &trace_log {
                            let ts = TraceShard {
                                campaign: job.campaign,
                                start: job.start,
                                end: job.end,
                                workload: w.name().to_string(),
                                category: prog.category.name().to_string(),
                                isa: cell.isa.to_string(),
                                model: prog.model.name(),
                                traces,
                            };
                            tr.span("orch.trace_append", Some(shard), study_id, |_| {
                                tlog.append_shard(&ts)
                            })
                            .0
                            .map_err(err)?;
                        }
                        samples
                            .lock()
                            .expect("sample buffer lock poisoned")
                            .append(&mut local);
                        Ok::<(), String>(())
                    });
                    if let Err(e) = res {
                        failure
                            .lock()
                            .expect("failure slot poisoned")
                            .get_or_insert(e);
                        return;
                    }
                }
            });
        }
    });
    if let Some(e) = failure.into_inner().expect("failure slot poisoned") {
        return Err(e);
    }
    let (done, _) = tr.span("orch.shards_read", Some(sid), study_id, |_| study.shards());
    let done = done.map_err(err)?;
    let (result, _) = tr.span("orch.merge", Some(sid), study_id, |_| {
        merge(cfg, prog.category, &done)
    });
    let executed = done.iter().map(|r| r.experiments.len() as u64).sum();
    let bytes = std::fs::metadata(study.dir().join("shards.jsonl")).map_or(0, |m| m.len());
    Ok((result, executed, bytes))
}

/// Expected digests: the recorded ones at the default seed, otherwise an
/// untimed `vulfi::run_study` of the same spec. A pruned or traced cell
/// is checked against the unpruned, untraced study, so discharged
/// experiments must reproduce the full counts.
struct References {
    recorded: Recorded,
    computed: HashMap<(usize, &'static str, String, u64), String>,
}

impl References {
    fn new(batch: Batch) -> Result<References, String> {
        Ok(References {
            recorded: batch.recorded()?,
            computed: HashMap::new(),
        })
    }

    fn expected(
        &mut self,
        seed: u64,
        round: u64,
        i: usize,
        cell: &Cell,
        setup: &Setup,
    ) -> Result<String, String> {
        if seed == DEFAULT_SEED {
            if let Some(d) = self.recorded.get(round, i as u64) {
                return Ok(d.to_string());
            }
        }
        let (w, prog) = setup.cell(i);
        let (wi, _) = setup.progs[i];
        // Cells on one workload that share category, model and seed run
        // the same study whatever the variant.
        let k = (wi, prog.category.name(), prog.model.name(), cell.cfg.seed);
        if let Some(d) = self.computed.get(&k) {
            return Ok(d.clone());
        }
        let cfg = StudyConfig {
            prune: false,
            ..cell.cfg
        };
        let r = vulfi::run_study(prog, w, &cfg).map_err(|e| format!("{}: {e}", cell.label()))?;
        let d = result_digest(&r);
        self.computed.insert(k, d.clone());
        Ok(d)
    }
}

/// Check one round's results; returns the tally of its cells.
fn check_round(
    refs: &mut References,
    seed: u64,
    round: u64,
    cells: &[Cell],
    setup: &Setup,
    results: &[Option<String>],
) -> Result<Tally, String> {
    let mut tally = Tally::default();
    for (i, (cell, got)) in cells.iter().zip(results).enumerate() {
        tally.attempted += 1;
        let Some(got) = got else {
            tally.errored += 1;
            continue;
        };
        let want = refs.expected(seed, round, i, cell, setup)?;
        if *got != want {
            eprintln!(
                "perfbench: output mismatch in round {round} cell {i} ({}): got {got}, want {want}",
                cell.label()
            );
            tally.mismatched += 1;
        }
    }
    Ok(tally)
}

fn digests(results: &[Option<StudyResult>]) -> Vec<Option<String>> {
    results
        .iter()
        .map(|r| r.as_ref().map(result_digest))
        .collect()
}

/// Untraced run: repeat rounds until `seconds` of timed work, then check.
pub fn run(batch: Batch, seed: u64, seconds: f64, out: &Path) -> Result<Outcome, String> {
    let silent = Tracer::new(false);
    let first = batch.cells(seed, 0);
    let (setup, mut setup_walls) = set_up_repeated(&first, &silent, SETUP_REPEATS)?;
    let mut timed = Duration::ZERO;
    let mut round_walls = Vec::new();
    let mut round_rates = Vec::new();
    let mut latencies = Vec::new();
    let mut experiments = 0;
    let mut got = Vec::new();
    let mut round = 0;
    while round == 0 || timed.as_secs_f64() < seconds {
        let cells = batch.cells(seed, round % batch.distinct_rounds());
        let dir = out.join(format!("r{round}"));
        let r = round_untraced(&setup, &cells, &dir)?;
        let _ = std::fs::remove_dir_all(&dir);
        timed += r.wall;
        round_walls.push(r.wall.as_secs_f64());
        round_rates.push(r.experiments as f64 / r.wall.as_secs_f64());
        latencies.extend(r.latencies_ms);
        experiments += r.experiments;
        got.push(digests(&r.results));
        round += 1;
        setup_walls.extend(set_up_repeated(&first, &silent, 1)?.1);
    }
    let rss = peak_rss_mb();
    let mut refs = References::new(batch)?;
    let mut tally = Tally::default();
    for (r, results) in got.iter().enumerate() {
        let r = r as u64 % batch.distinct_rounds();
        let cells = batch.cells(seed, r);
        tally.add(&check_round(&mut refs, seed, r, &cells, &setup, results)?);
    }
    let lat = sorted(&latencies);
    let metrics = vec![
        // Medians over rounds: a burst of load from outside the process
        // spoils one round, not the run.
        metric(
            "exp_per_s",
            median(&round_rates).expect("at least one round"),
            "exp/s",
        ),
        metric(
            "time_to_verdict_s",
            median(&round_walls).expect("at least one round"),
            "s",
        ),
        metric(
            "setup_s",
            median(&setup_walls).expect("at least one set-up"),
            "s",
        ),
        metric("peak_rss_mb", rss, "MiB"),
        metric("submit_to_merged_ms.p50", pct(&lat, 0.5), "ms"),
        metric("submit_to_merged_ms.p90", pct(&lat, 0.9), "ms"),
    ];
    let details = vec![
        ("rounds".to_string(), serde_json::Value::from(round)),
        (
            "round_walls_s".to_string(),
            serde_json::Value::from(round_walls.clone()),
        ),
        (
            "experiments".to_string(),
            serde_json::Value::from(experiments),
        ),
        (
            "submit_to_merged_samples".to_string(),
            serde_json::Value::from(lat.len() as u64),
        ),
        (
            "samples_beyond_p90".to_string(),
            serde_json::Value::from(samples_beyond(lat.len(), 0.9) as u64),
        ),
    ];
    Ok(Outcome {
        metrics,
        tally,
        details,
        spans: Vec::new(),
    })
}

fn pct(sorted: &[f64], q: f64) -> f64 {
    percentile(sorted, q).unwrap_or(0.0)
}

/// Golden-run probe of one (cell, input): the full golden cost (fresh
/// interpreter, setup, run, output snapshot) and the `Interp::run` part
/// alone with its dynamic instruction count.
fn golden_probe(prog: &Prepared, w: &SpmdWorkload, input: u64) -> Result<(u64, u64, u64), String> {
    let t0 = Instant::now();
    let mut interp = vexec::Interp::new(&prog.module);
    let setup = w
        .setup(&mut interp.mem, input)
        .map_err(|t| format!("setup of {}: {t}", w.name()))?;
    let mut host = VulfiHost::profile();
    let t1 = Instant::now();
    let r = interp
        .run(&prog.entry, &setup.args, &mut host)
        .map_err(|t| format!("golden run of {}: {t}", w.name()))?;
    let run_ns = t1.elapsed().as_nanos() as u64;
    vulfi::workload::snapshot_outputs(&interp.mem, &setup.outputs, &r.ret)
        .map_err(|t| format!("snapshot of {}: {t}", w.name()))?;
    Ok((t0.elapsed().as_nanos() as u64, run_ns, r.dyn_insts))
}

/// Durations of every span called `name`, ascending, in units of `per_ns`.
pub fn durations(spans: &[Span], name: &str, per_ns: f64) -> Vec<f64> {
    sorted(
        &spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * per_ns)
            .collect::<Vec<_>>(),
    )
}

/// Traced run: one untraced round, the same round traced, golden probes,
/// then the per-layer metrics.
pub fn run_traced(batch: Batch, seed: u64, out: &Path, threads: usize) -> Result<Outcome, String> {
    let tr = Tracer::new(true);
    let cells = batch.cells(seed, 0);
    let (setup, _) = set_up_repeated(&cells, &tr, SETUP_REPEATS)?;
    let mut traced_out = None;
    // Untraced, traced, untraced again: the overhead compares the traced
    // wall with the mean of the untraced walls on either side of it.
    let mut plain_wall = Duration::ZERO;
    let mut plain = None;
    for pass in 0..2 {
        let dir = out.join(format!("untraced{pass}"));
        let r = round_untraced(&setup, &cells, &dir)?;
        let _ = std::fs::remove_dir_all(&dir);
        plain_wall += r.wall / 2;
        plain.get_or_insert(r);
        if pass == 0 {
            let dir = out.join("traced");
            let t = round_traced(&setup, &cells, &dir, &tr, threads)?;
            let _ = std::fs::remove_dir_all(&dir);
            traced_out = Some(t);
        }
    }
    let plain = plain.expect("two untraced rounds ran");
    let (traced, exps, log_bytes) = traced_out.expect("the traced round ran");

    let mut tally = check_round(
        &mut References::new(batch)?,
        seed,
        0,
        &cells,
        &setup,
        &digests(&plain.results),
    )?;
    // The traced results must be byte-identical to the untraced ones.
    let text = |r: &Option<StudyResult>| r.as_ref().map(|r| serde_json::to_string(r).ok());
    let identical = plain
        .results
        .iter()
        .zip(&traced.results)
        .filter(|(a, b)| text(a) != text(b))
        .count() as u64;
    if identical > 0 {
        eprintln!("perfbench: {identical} traced result(s) differ from the untraced run");
        tally.mismatched += identical;
    }

    // Golden probes, once per (cell, input), outside the experiment loop.
    let mut golden_full: HashMap<(usize, u64), u64> = HashMap::new();
    let (mut run_ns, mut dyn_insts) = (0u64, 0u64);
    for (i, _) in cells.iter().enumerate() {
        let (w, prog) = setup.cell(i);
        for input in 0..w.num_inputs().max(1) {
            let (probe, _) = tr.span("vexec.golden", None, i as u64, |_| {
                golden_probe(prog, w, input)
            });
            let (full, run, insts) = probe?;
            golden_full.insert((i, input), full);
            run_ns += run;
            dyn_insts += insts;
        }
    }
    let exp_ns: u64 = exps.iter().map(|e| e.ns).sum();
    let golden_ns: u64 = exps
        .iter()
        .filter(|e| !e.discharged)
        .map(|e| golden_full.get(&(e.cell, e.input)).copied().unwrap_or(0))
        .sum();
    let prune_cells: Vec<bool> = cells.iter().map(|c| c.cfg.prune).collect();
    let in_prune = exps.iter().filter(|e| prune_cells[e.cell]).count() as u64;
    let discharged = exps.iter().filter(|e| e.discharged).count() as u64;
    let mut counts = vulfi::OutcomeCounts::default();
    for r in traced.results.iter().flatten() {
        counts.merge(&r.counts);
    }

    let spans = tr.take();
    let (ms, us) = (1e-6, 1e-3);
    let p = |name: &str, per: f64, q: f64| percentile(&durations(&spans, name, per), q);
    let ratio = |a: u64, b: u64| (b > 0).then(|| a as f64 / b as f64);
    let metrics = measured(vec![
        ("vbench.build_ms", p("vbench.build", ms, 0.5), "ms"),
        ("core.prepare_ms", p("core.prepare", ms, 0.5), "ms"),
        ("core.prune_ctx_ms", p("core.prune_ctx", ms, 0.5), "ms"),
        (
            "core.experiment_us.p50",
            p("core.experiment", us, 0.5),
            "us",
        ),
        (
            "core.experiment_us.p99",
            p("core.experiment", us, 0.99),
            "us",
        ),
        ("core.golden_share", ratio(golden_ns, exp_ns), "ratio"),
        ("core.discharged_frac", ratio(discharged, in_prune), "ratio"),
        ("core.sdc", Some(counts.sdc as f64), "count"),
        ("core.benign", Some(counts.benign as f64), "count"),
        ("core.crash", Some(counts.crash as f64), "count"),
        ("vexec.ns_per_dyn_inst", ratio(run_ns, dyn_insts), "ns"),
        ("vexec.golden_dyn_insts", Some(dyn_insts as f64), "count"),
        ("orch.shard_ms.p50", p("orch.shard", ms, 0.5), "ms"),
        ("orch.shard_ms.p99", p("orch.shard", ms, 0.99), "ms"),
        ("orch.append_us.p50", p("orch.append", us, 0.5), "us"),
        ("orch.append_us.p99", p("orch.append", us, 0.99), "us"),
        (
            "orch.trace_append_us.p50",
            p("orch.trace_append", us, 0.5),
            "us",
        ),
        ("orch.shards_read_ms", p("orch.shards_read", ms, 0.5), "ms"),
        ("orch.merge_ms", p("orch.merge", ms, 0.5), "ms"),
        ("orch.key_ms", p("orch.key", ms, 0.5), "ms"),
        (
            "orch.bytes_per_exp",
            ratio(log_bytes, traced.experiments),
            "B",
        ),
        (
            "bench.trace_overhead_frac",
            Some(traced.wall.as_secs_f64() / plain_wall.as_secs_f64() - 1.0),
            "ratio",
        ),
    ]);
    let details = vec![
        (
            "experiments".to_string(),
            serde_json::Value::from(traced.experiments),
        ),
        (
            "untraced_wall_s".to_string(),
            serde_json::Value::from(plain_wall.as_secs_f64()),
        ),
        (
            "traced_wall_s".to_string(),
            serde_json::Value::from(traced.wall.as_secs_f64()),
        ),
    ];
    Ok(Outcome {
        metrics,
        tally,
        details,
        spans,
    })
}

/// Digests of every distinct round at the default seed, computed by
/// `vulfi::run_study` (the reference every later run is held to).
pub fn record_digests(batch: Batch) -> Result<String, String> {
    let rounds = batch.distinct_rounds();
    let silent = Tracer::new(false);
    let setup = set_up(&batch.cells(DEFAULT_SEED, 0), &silent)?;
    let mut refs = References {
        recorded: Recorded::parse("")?,
        computed: HashMap::new(),
    };
    let mut entries = BTreeMap::new();
    for round in 0..rounds {
        for (i, cell) in batch.cells(DEFAULT_SEED, round).iter().enumerate() {
            let d = refs.expected(DEFAULT_SEED, round, i, cell, &setup)?;
            entries.insert((round, i as u64), d);
        }
    }
    Ok(Recorded::render(
        &format!(
            "{}: merged-result digests at seed {DEFAULT_SEED}, `round cell digest`.\n\
             Regenerate with `perfbench digests --workload {}`.",
            batch.name(),
            batch.name()
        ),
        &entries,
    ))
}
