//! The fault-injection campaign driver (paper §IV-B, §IV-D).
//!
//! - An **experiment** pairs a golden run (no faults; records the output
//!   and the dynamic-fault-site count N) with a faulty run (one bit flip
//!   at a dynamic site drawn uniformly from 1..=N) on one randomly chosen
//!   input. The outcome is **SDC** (outputs differ), **Benign**
//!   (identical), or **Crash** (trap / fault-induced hang).
//! - A **campaign** is 100 independent experiments; its SDC rate is one
//!   statistical sample.
//! - A **study** repeats campaigns until the ±3 pp @95% stopping rule of
//!   `stats::study_converged` fires (the paper observed 20 campaigns
//!   suffice everywhere).
//!
//! Every driver (plain, pruned, traced, any fault model) runs one
//! pipeline: draw input → cached golden → draw target and entropy →
//! optional static discharge → faulty run → classify → optional capture.
//! The golden run is cached per (`Prepared`, input).
//!
//! Experiments are embarrassingly parallel; campaigns fan out over rayon.

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use vexec::{Interp, Program, Trap};
use vir::analysis::SiteCategory;
use vir::Module;

use crate::analyze::{analyze_module, PrunePlan};
use crate::fault::FaultModel;
use crate::faultlog::{panic_message, record_engine_fault, strict, EngineFault};
use crate::instrument::{instrument_module, InstrumentOptions, Instrumented};
use crate::runtime::{InjectionRecord, VulfiHost};
use crate::sites::StaticSite;
use crate::stats::{study_converged, StudySummary};
use crate::trace::TraceCapture;
use crate::workload::{snapshot_outputs, SetupResult, Workload};

/// Outcome classification of one experiment (paper §IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Outcome {
    /// Silent data corruption: faulty output differs from golden output.
    Sdc,
    /// No observable difference.
    Benign,
    /// System failure, program crash, hang — anything the user would
    /// notice without comparing outputs.
    Crash,
}

/// One completed experiment.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Experiment {
    pub outcome: Outcome,
    /// Did an inserted detector flag the run?
    pub detected: bool,
    pub injection: Option<InjectionRecord>,
    /// Input index used.
    pub input: u64,
    /// Dynamic fault sites observed in the golden run.
    pub dynamic_sites: u64,
    /// Golden-run dynamic instruction count.
    pub golden_dyn_insts: u64,
}

/// A campaign-level failure (workload bug, not a fault outcome).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignError(pub String);

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "campaign error: {}", self.0)
    }
}

impl std::error::Error for CampaignError {}

/// Resource ceilings applied to the **faulty** run of every experiment.
///
/// The golden run is never limited: it defines correct behaviour, and a
/// trap there is a workload bug ([`CampaignError`]), not an outcome. The
/// faulty run, by contrast, executes under an injected bit flip and can
/// be driven into runaway loops or allocation storms; each ceiling
/// converts such a runaway into a contained [`Outcome::Crash`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ResourceLimits {
    /// Hang-budget multiplier over the golden run's dynamic instruction
    /// count (deterministic; the primary hang containment).
    pub hang_factor: u64,
    /// Flat slack added to the hang budget.
    pub hang_slack: u64,
    /// Wall-clock watchdog for the faulty run, in milliseconds. `0`
    /// disables it — the default, because wall time is inherently
    /// non-deterministic: a study run with a wall limit is only
    /// bit-reproducible if no experiment ever comes near the limit. Use
    /// it as a backstop when the instruction budget alone leaves single
    /// experiments unacceptably slow in real time.
    pub wall_ms: u64,
    /// Memory ceiling for program-driven allocation in the faulty run,
    /// in bytes. `0` keeps the engine default (64 MiB). Deterministic.
    pub mem_bytes: u64,
}

impl Default for ResourceLimits {
    fn default() -> ResourceLimits {
        ResourceLimits {
            hang_factor: HANG_FACTOR,
            hang_slack: HANG_SLACK,
            wall_ms: 0,
            mem_bytes: 0,
        }
    }
}

/// An instrumented program ready for injection runs.
///
/// A `Prepared` also owns the **golden cache**: one slot per workload
/// input, filled by the first experiment that draws the input, and the
/// module's decoded bytecode, filled by the first run. Both caches
/// assume the program's module, entry, sites and category — and the
/// workload it was prepared from — stay fixed; `model` and `limits` may
/// change freely, because no cached fact depends on them.
pub struct Prepared {
    pub module: Module,
    pub entry: String,
    pub sites: Vec<StaticSite>,
    pub category: SiteCategory,
    /// Resource ceilings for faulty runs (defaults preserve historical
    /// behaviour: hang budget only).
    pub limits: ResourceLimits,
    /// Fault model applied by every experiment (default: the paper's
    /// single bit flip).
    pub model: FaultModel,
    /// Per-input golden runs; sized on first use, so `prepare` does no
    /// extra work.
    golden: OnceLock<Box<[GoldenSlot]>>,
    /// `module` decoded to register bytecode on first use and shared by
    /// every golden and faulty run.
    program: OnceLock<Arc<Program>>,
}

/// One input's cached golden run. A trap is cached as the error every
/// experiment drawing the input returns; a panic is never cached, so each
/// experiment re-runs and records it.
type GoldenSlot = Mutex<Option<Result<Arc<Golden>, CampaignError>>>;

/// Instrument `workload`'s module for the given category.
pub fn prepare(workload: &dyn Workload, category: SiteCategory) -> Result<Prepared, CampaignError> {
    prepare_with(workload, InstrumentOptions::new(category))
}

/// Instrument with explicit options (used by the mask-awareness ablation).
pub fn prepare_with(
    workload: &dyn Workload,
    opts: InstrumentOptions,
) -> Result<Prepared, CampaignError> {
    let mut module = workload.module().clone();
    let Instrumented { sites } =
        instrument_module(&mut module, workload.entry(), opts).map_err(CampaignError)?;
    Ok(Prepared {
        module,
        entry: workload.entry().to_string(),
        sites,
        category: opts.category,
        limits: ResourceLimits::default(),
        model: FaultModel::default(),
        golden: OnceLock::new(),
        program: OnceLock::new(),
    })
}

/// Hang-budget multiplier over the golden run's dynamic instruction count.
const HANG_FACTOR: u64 = 10;
const HANG_SLACK: u64 = 100_000;

/// What one golden run of one input established. Everything except the
/// two logs is always recorded; the logs are kept only once something
/// asks for them ([`Extras`]).
struct Golden {
    /// Output snapshot every faulty run is compared against.
    outputs: Vec<u8>,
    dyn_insts: u64,
    /// Dynamic value-fault sites (active lanes of instrumented calls).
    value_sites: u64,
    /// Event censuses of the engine-level fault models.
    engine: vexec::EngineCensus,
    /// Ordered `(site_id, lane)` of every dynamic value site — the
    /// census the pruner replays to predict an injection coordinate.
    site_log: Option<Vec<(u32, u32)>>,
    /// Architectural event fingerprints a traced faulty run is compared
    /// against.
    events: Option<Arc<[u64]>>,
}

/// The optional golden logs a caller needs.
#[derive(Clone, Copy)]
struct Extras {
    site_log: bool,
    events: bool,
}

impl Golden {
    /// Size of `model`'s target distribution for this input.
    fn targets(&self, model: FaultModel) -> u64 {
        match model {
            FaultModel::MaskCorrupt => self.engine.masked_ops,
            FaultModel::AddressLine { .. } => self.engine.mem_accesses,
            FaultModel::MemoryCell => self.dyn_insts,
            _ => self.value_sites,
        }
    }
}

impl Prepared {
    /// A fresh interpreter over the program, decoding it on first use.
    fn interp(&self) -> Interp<'_> {
        let program = self
            .program
            .get_or_init(|| Arc::new(Program::decode(&self.module)));
        Interp::with_program(&self.module, Arc::clone(program))
    }

    /// The golden run of `input`, from the cache or run now. Racing
    /// callers on one input wait for a single fill; a caller needing a
    /// log the slot lacks re-runs the golden run keeping every log
    /// already stored.
    fn golden(
        &self,
        workload: &dyn Workload,
        input: u64,
        want: Extras,
    ) -> Result<Arc<Golden>, CampaignError> {
        let slots = self.golden.get_or_init(|| {
            (0..workload.num_inputs().max(1))
                .map(|_| Mutex::default())
                .collect()
        });
        let Some(slot) = slots.get(input as usize) else {
            return golden_run(self, workload, input, want).map(Arc::new);
        };
        // A panicking golden run poisons the lock before the slot is
        // written, so a poisoned slot still holds a valid state.
        let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
        let (has_log, has_events) = match &*slot {
            Some(Err(e)) => return Err(e.clone()),
            Some(Ok(g))
                if (g.site_log.is_some() || !want.site_log)
                    && (g.events.is_some() || !want.events) =>
            {
                return Ok(Arc::clone(g))
            }
            Some(Ok(g)) => (g.site_log.is_some(), g.events.is_some()),
            None => (false, false),
        };
        let keep = Extras {
            site_log: want.site_log || has_log,
            events: want.events || has_events,
        };
        let fresh = golden_run(self, workload, input, keep).map(Arc::new);
        *slot = Some(fresh.clone());
        fresh
    }
}

fn setup(
    workload: &dyn Workload,
    interp: &mut Interp,
    input: u64,
) -> Result<SetupResult, CampaignError> {
    workload
        .setup(&mut interp.mem, input)
        .map_err(|t| CampaignError(format!("setup failed: {t}")))
}

/// The one golden run: unlimited, never injecting, counting value sites
/// and every engine model's events, and recording the requested logs.
fn golden_run(
    prog: &Prepared,
    workload: &dyn Workload,
    input: u64,
    want: Extras,
) -> Result<Golden, CampaignError> {
    let mut tracer = want.events.then(vexec::DivergenceTracer::record);
    // Counting mode tallies every model's census; the model argument
    // only selects what `events()` would report.
    let mut counter = vexec::EngineInjector::count(vexec::EngineModel::MemoryCell);
    let mut host = if want.site_log {
        VulfiHost::profile_logging()
    } else {
        VulfiHost::profile()
    };
    let mut interp = prog.interp();
    let setup = setup(workload, &mut interp, input)?;
    if let Some(t) = tracer.as_mut() {
        interp.set_trace_sink(t);
    }
    interp.set_engine_injector(&mut counter);
    let run = interp
        .run(&prog.entry, &setup.args, &mut host)
        .map_err(|t| CampaignError(format!("golden run of {} trapped: {t}", workload.name())))?;
    let outputs = snapshot_outputs(&interp.mem, &setup.outputs, &run.ret)
        .map_err(|t| CampaignError(format!("golden snapshot failed: {t}")))?;
    drop(interp);
    Ok(Golden {
        outputs,
        dyn_insts: run.dyn_insts,
        value_sites: host.dynamic_sites,
        engine: counter.census(),
        site_log: host.site_log,
        events: tracer.map(|t| t.into_stream().into()),
    })
}

/// Run one fault-injection experiment.
///
/// The experiment body is wrapped in `std::panic::catch_unwind`: an
/// engine (or workload) panic on faulted state is classified as
/// [`Outcome::Crash`] and recorded in the engine-fault log
/// ([`crate::engine_faults`]) instead of unwinding through the campaign.
/// Under [`crate::set_strict`] the panic aborts the campaign as a
/// [`CampaignError`] instead.
pub fn run_experiment(
    prog: &Prepared,
    workload: &dyn Workload,
    rng: &mut ChaCha8Rng,
) -> Result<Experiment, CampaignError> {
    run_experiment_tagged(prog, workload, rng, None, None, None)
}

/// The experiment pipeline every driver shares, with panic provenance
/// `(campaign_seed, index)`, an optional static-discharge plan, and an
/// optional propagation-trace capture (see [`crate::trace`]). Tracing
/// never changes the experiment result: the capture only observes.
pub(crate) fn run_experiment_tagged(
    prog: &Prepared,
    workload: &dyn Workload,
    rng: &mut ChaCha8Rng,
    provenance: Option<(u64, usize)>,
    prune: Option<&PrunePlan>,
    mut capture: Option<&mut TraceCapture>,
) -> Result<Experiment, CampaignError> {
    // Draw the input OUTSIDE the isolated body: a panicking experiment
    // must still produce a deterministic record, identical whether it ran
    // via run_study or any shard partition.
    let input = rng.gen_range(0..workload.num_inputs().max(1));
    let body = std::panic::AssertUnwindSafe(|| {
        run_experiment_body(prog, workload, rng, input, prune, capture.as_deref_mut())
    });
    match std::panic::catch_unwind(body) {
        Ok(result) => result,
        Err(payload) => {
            let fault = EngineFault {
                workload: workload.name().to_string(),
                experiment: provenance,
                input,
                message: panic_message(payload.as_ref()),
            };
            if strict() {
                return Err(CampaignError(format!("strict mode: {fault}")));
            }
            // A capture interrupted mid-experiment holds partial state;
            // reset it to describe what is actually known: the engine
            // died, which the outside world sees as a crash.
            if let Some(cap) = capture {
                *cap = TraceCapture {
                    trap: Some(format!("engine panic: {}", fault.message)),
                    ..TraceCapture::default()
                };
            }
            record_engine_fault(fault);
            // The engine died mid-experiment: from the outside that is a
            // crash of the faulted program. No injection record or site
            // counts survive the unwind, so the record carries zeros.
            Ok(Experiment {
                outcome: Outcome::Crash,
                detected: false,
                injection: None,
                input,
                dynamic_sites: 0,
                golden_dyn_insts: 0,
            })
        }
    }
}

fn run_experiment_body(
    prog: &Prepared,
    workload: &dyn Workload,
    rng: &mut ChaCha8Rng,
    input: u64,
    prune: Option<&PrunePlan>,
    capture: Option<&mut TraceCapture>,
) -> Result<Experiment, CampaignError> {
    let want = Extras {
        site_log: prune.is_some(),
        events: capture.is_some(),
    };
    let golden = prog.golden(workload, input, want)?;
    let n_targets = golden.targets(prog.model);
    let mut record = Experiment {
        outcome: Outcome::Benign,
        detected: false,
        injection: None,
        input,
        dynamic_sites: n_targets,
        golden_dyn_insts: golden.dyn_insts,
    };
    if n_targets == 0 {
        // Nothing to inject into under this category/model for this
        // input.
        if let Some(cap) = capture {
            *cap = TraceCapture::default();
        }
        return Ok(record);
    }
    let target = rng.gen_range(1..=n_targets);
    let bit_entropy: u64 = rng.gen();

    if let Some(plan) = prune {
        // Replay the single-bit flip's `bit = entropy % width` choice
        // against the golden site log; a coordinate the plan proves
        // benign is discharged without running. The record carries no
        // injection: nothing was executed.
        let &(site, lane) = golden
            .site_log
            .as_ref()
            .and_then(|log| log.get((target - 1) as usize))
            .ok_or_else(|| CampaignError(format!("golden site log misses target {target}")))?;
        let width = plan.width(site).unwrap_or(64).max(1);
        if plan.is_benign(site, lane, (bit_entropy % width as u64) as u32) {
            return Ok(record);
        }
    }

    // --- Faulty run -------------------------------------------------------
    // Value models corrupt through the instrumented host; engine models
    // (mask registers, address lines, memory cells) through an
    // `EngineInjector` on the interpreter, with the host still serving
    // detector checks. Both use the same (target, entropy) draws.
    let engine_model = prog.model.engine_model();
    let mut injector = engine_model.map(|m| vexec::EngineInjector::inject(m, target, bit_entropy));
    let mut host = match engine_model {
        Some(_) => VulfiHost::profile(),
        None => VulfiHost::inject_model(target, bit_entropy, prog.model),
    };
    let mut tracer = capture
        .as_ref()
        .and(golden.events.clone())
        .map(vexec::DivergenceTracer::compare);
    let mut interp = prog.interp();
    interp.set_budget(
        golden
            .dyn_insts
            .saturating_mul(prog.limits.hang_factor)
            .saturating_add(prog.limits.hang_slack),
    );
    let setup = setup(workload, &mut interp, input)?;
    // Ceilings go on after setup: workload-provided buffers are
    // legitimate; the ceilings bound what the *faulted program* does.
    if prog.limits.wall_ms > 0 {
        interp.set_wall_limit(std::time::Duration::from_millis(prog.limits.wall_ms));
    }
    if prog.limits.mem_bytes > 0 {
        interp.set_memory_limit(prog.limits.mem_bytes);
    }
    if let Some(t) = tracer.as_mut() {
        interp.set_trace_sink(t);
    }
    if let Some(inj) = injector.as_mut() {
        interp.set_engine_injector(inj);
    }
    let result = interp.run(&prog.entry, &setup.args, &mut host);
    let faulty_dyn_insts = interp.executed();
    record.outcome = match &result {
        Err(Trap::HostError(m)) => return Err(CampaignError(format!("runtime bug: {m}"))),
        Err(_) => Outcome::Crash,
        Ok(r) => {
            let out = snapshot_outputs(&interp.mem, &setup.outputs, &r.ret)
                .map_err(|t| CampaignError(format!("faulty snapshot failed: {t}")))?;
            if out == golden.outputs {
                Outcome::Benign
            } else {
                Outcome::Sdc
            }
        }
    };
    drop(interp);
    record.detected = host.detectors.detected();

    // Engine faults have no static site or lane; site_id 0 marks the
    // synthetic provenance, occurrence is the index in the event census.
    let injected_at = match injector.and_then(|i| i.injection()) {
        Some(inj) => {
            record.injection = Some(InjectionRecord {
                site_id: 0,
                lane: 0,
                occurrence: inj.event,
                bit: inj.bit,
                bits_before: inj.bits_before,
                bits_after: inj.bits_after,
                model: prog.model,
            });
            Some(inj.at_dyn_inst)
        }
        None => {
            record.injection = host.injection;
            host.injection_at
        }
    };
    if let Some(cap) = capture {
        let divergence = tracer.and_then(|mut t| {
            // A clean exit that consumed fewer events than golden is a
            // divergence by omission at the end of the run.
            if result.is_ok() {
                t.finish(faulty_dyn_insts);
            }
            t.divergence().map(|d| d.dyn_index)
        });
        *cap = TraceCapture {
            injected_at,
            divergence,
            faulty_dyn_insts,
            trap: result.as_ref().err().map(|t| t.to_string()),
        };
    }
    Ok(record)
}

/// Aggregate outcome counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct OutcomeCounts {
    pub sdc: u64,
    pub benign: u64,
    pub crash: u64,
    /// SDC experiments flagged by a detector.
    pub sdc_detected: u64,
    /// All experiments flagged by a detector.
    pub detected: u64,
}

impl OutcomeCounts {
    pub fn total(&self) -> u64 {
        self.sdc + self.benign + self.crash
    }

    pub fn add(&mut self, e: &Experiment) {
        match e.outcome {
            Outcome::Sdc => self.sdc += 1,
            Outcome::Benign => self.benign += 1,
            Outcome::Crash => self.crash += 1,
        }
        if e.detected {
            self.detected += 1;
            if e.outcome == Outcome::Sdc {
                self.sdc_detected += 1;
            }
        }
    }

    pub fn merge(&mut self, other: &OutcomeCounts) {
        self.sdc += other.sdc;
        self.benign += other.benign;
        self.crash += other.crash;
        self.sdc_detected += other.sdc_detected;
        self.detected += other.detected;
    }

    pub fn sdc_rate(&self) -> f64 {
        percent(self.sdc, self.total())
    }

    pub fn benign_rate(&self) -> f64 {
        percent(self.benign, self.total())
    }

    pub fn crash_rate(&self) -> f64 {
        percent(self.crash, self.total())
    }

    /// Fraction of SDC experiments the detector flagged (paper Fig. 12's
    /// "SDC detection rate").
    pub fn sdc_detection_rate(&self) -> f64 {
        percent(self.sdc_detected, self.sdc)
    }
}

fn percent(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// One campaign: `n` independent experiments (paper: 100).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CampaignResult {
    pub counts: OutcomeCounts,
    pub experiments: Vec<Experiment>,
}

impl CampaignResult {
    pub fn sdc_rate(&self) -> f64 {
        self.counts.sdc_rate()
    }
}

/// Seed of campaign `c` within a study seeded `study_seed`.
///
/// Every driver (run_study, the orchestrator's shard scheduler) derives
/// campaign seeds through this one function so results are bit-identical
/// regardless of how experiments are grouped into shards or threads.
pub fn campaign_seed(study_seed: u64, c: usize) -> u64 {
    study_seed.wrapping_add((c as u64) << 32)
}

/// RNG of experiment `i` within a campaign seeded `campaign_seed`.
pub fn experiment_rng(campaign_seed: u64, i: usize) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(
        campaign_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i as u64),
    )
}

/// Run experiments `range` of the campaign seeded `campaign_seed`,
/// sequentially. This is the shard-level entry point: concatenating the
/// results of any partition of `0..n` into ranges equals the experiment
/// list of [`run_campaign`] with the same seed.
pub fn run_experiment_range(
    prog: &Prepared,
    workload: &dyn Workload,
    campaign_seed: u64,
    range: std::ops::Range<usize>,
) -> Result<Vec<Experiment>, CampaignError> {
    run_range(prog, workload, campaign_seed, range, None)
}

fn run_range(
    prog: &Prepared,
    workload: &dyn Workload,
    campaign_seed: u64,
    range: std::ops::Range<usize>,
    prune: Option<&PrunePlan>,
) -> Result<Vec<Experiment>, CampaignError> {
    range
        .map(|i| {
            let mut rng = experiment_rng(campaign_seed, i);
            run_experiment_tagged(
                prog,
                workload,
                &mut rng,
                Some((campaign_seed, i)),
                prune,
                None,
            )
        })
        .collect()
}

/// What [`run_experiment_range_pruned`] needs beyond the golden cache:
/// the static benign-coordinate plan. The per-input `(site, lane)` logs
/// the plan is replayed against live in the [`Prepared`]'s golden cache.
#[derive(Debug, Clone)]
pub struct PruneContext {
    pub plan: PrunePlan,
}

fn require_single_bit_flip(prog: &Prepared) -> Result<(), CampaignError> {
    if prog.model == FaultModel::SingleBitFlip {
        Ok(())
    } else {
        Err(CampaignError(format!(
            "pruning supports only the single-bit-flip model, not {}",
            prog.model
        )))
    }
}

/// Build the prune context: analyze the uninstrumented module, then make
/// sure every input's golden run is cached with its `(site, lane)` log.
///
/// Only the paper's single-bit-flip model is supported: the prediction
/// replays the model's `bit = entropy % width` choice, and multi-bit or
/// stuck-at corruptions would need their own replay logic.
pub fn build_prune_context(
    prog: &Prepared,
    workload: &dyn Workload,
) -> Result<PruneContext, CampaignError> {
    require_single_bit_flip(prog)?;
    let report = analyze_module(workload.module(), workload.entry()).map_err(CampaignError)?;
    let want = Extras {
        site_log: true,
        events: false,
    };
    for input in 0..workload.num_inputs().max(1) {
        prog.golden(workload, input, want)?;
    }
    Ok(PruneContext {
        plan: PrunePlan::from_report(&report),
    })
}

/// [`run_experiment_range`] with static pruning: each experiment's draws
/// are replayed against the golden site log to find the coordinate the
/// injector would corrupt; if the plan proves it benign, a synthetic
/// [`Outcome::Benign`] record is emitted without executing the faulty
/// run. Every other experiment runs exactly as the unpruned driver would
/// — same RNG stream, same golden — so the executed subset is
/// bit-identical to a full run. Pruned records carry `injection: None`
/// (nothing was executed, so there is no corruption to record); outcome,
/// detection, input, and site counts match what the full run would have
/// produced.
pub fn run_experiment_range_pruned(
    prog: &Prepared,
    workload: &dyn Workload,
    ctx: &PruneContext,
    campaign_seed: u64,
    range: std::ops::Range<usize>,
) -> Result<Vec<Experiment>, CampaignError> {
    require_single_bit_flip(prog)?;
    run_range(prog, workload, campaign_seed, range, Some(&ctx.plan))
}

/// Run one campaign of `n` experiments in parallel. `seed` makes the
/// campaign reproducible.
pub fn run_campaign(
    prog: &Prepared,
    workload: &dyn Workload,
    n: usize,
    seed: u64,
) -> Result<CampaignResult, CampaignError> {
    let experiments: Result<Vec<Experiment>, CampaignError> = (0..n)
        .into_par_iter()
        .map(|i| {
            let mut rng = experiment_rng(seed, i);
            run_experiment_tagged(prog, workload, &mut rng, Some((seed, i)), None, None)
        })
        .collect();
    let experiments = experiments?;
    let mut counts = OutcomeCounts::default();
    for e in &experiments {
        counts.add(e);
    }
    Ok(CampaignResult {
        counts,
        experiments,
    })
}

/// Study configuration (defaults follow the paper's §IV-D setup).
#[derive(Debug, Clone, Copy)]
pub struct StudyConfig {
    /// Experiments per campaign (paper: 100).
    pub experiments_per_campaign: usize,
    /// Stop when the 95% margin of error is within this many percentage
    /// points (paper: 3.0).
    pub target_margin: f64,
    /// Minimum campaigns before testing convergence.
    pub min_campaigns: usize,
    /// Hard cap on campaigns (paper observed 20 suffice).
    pub max_campaigns: usize,
    pub seed: u64,
    /// Fault model every experiment applies.
    pub model: FaultModel,
    /// Skip injections the static analyzer proves benign, accounting
    /// them as [`Outcome::Benign`] without execution (single-bit-flip
    /// model only). Changes the study identity: pruned records carry no
    /// injection payload for discharged experiments.
    pub prune: bool,
}

impl Default for StudyConfig {
    fn default() -> StudyConfig {
        StudyConfig {
            experiments_per_campaign: 100,
            target_margin: 3.0,
            min_campaigns: 4,
            max_campaigns: 20,
            seed: 0xDEAD_BEEF,
            model: FaultModel::default(),
            prune: false,
        }
    }
}

// Manual serde mirroring the derive, except `model` is omitted when it is
// the default single-bit flip (and defaulted when absent), so manifests
// written before the fault-model library existed keep parsing and
// default-model manifests stay byte-identical. `prune` follows the same
// pattern: omitted when false.
impl serde::Serialize for StudyConfig {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            (
                "experiments_per_campaign".to_string(),
                self.experiments_per_campaign.to_value(),
            ),
            ("target_margin".to_string(), self.target_margin.to_value()),
            ("min_campaigns".to_string(), self.min_campaigns.to_value()),
            ("max_campaigns".to_string(), self.max_campaigns.to_value()),
            ("seed".to_string(), self.seed.to_value()),
        ];
        if self.model != FaultModel::default() {
            fields.push(("model".to_string(), self.model.to_value()));
        }
        if self.prune {
            fields.push(("prune".to_string(), self.prune.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl serde::Deserialize for StudyConfig {
    fn from_value(v: &serde::Value) -> Result<StudyConfig, serde::DeError> {
        Ok(StudyConfig {
            experiments_per_campaign: serde::field(v, "experiments_per_campaign")?,
            target_margin: serde::field(v, "target_margin")?,
            min_campaigns: serde::field(v, "min_campaigns")?,
            max_campaigns: serde::field(v, "max_campaigns")?,
            seed: serde::field(v, "seed")?,
            model: match v.get("model") {
                Some(m) => FaultModel::from_value(m)?,
                None => FaultModel::default(),
            },
            prune: match v.get("prune") {
                Some(p) => bool::from_value(p)?,
                None => false,
            },
        })
    }
}

/// A completed study for one (workload, category) cell.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct StudyResult {
    pub category: SiteCategory,
    /// Per-campaign SDC rates (the statistical samples).
    pub samples: Vec<f64>,
    pub summary: StudySummary,
    pub counts: OutcomeCounts,
    pub converged: bool,
}

/// Run campaigns until the stopping rule fires (or `max_campaigns`).
pub fn run_study(
    prog: &Prepared,
    workload: &dyn Workload,
    cfg: &StudyConfig,
) -> Result<StudyResult, CampaignError> {
    let mut samples = Vec::new();
    let mut counts = OutcomeCounts::default();
    let mut converged = false;
    for c in 0..cfg.max_campaigns {
        let campaign = run_campaign(
            prog,
            workload,
            cfg.experiments_per_campaign,
            campaign_seed(cfg.seed, c),
        )?;
        samples.push(campaign.sdc_rate());
        counts.merge(&campaign.counts);
        if study_converged(&samples, cfg.target_margin, cfg.min_campaigns) {
            converged = true;
            break;
        }
    }
    Ok(StudyResult {
        category: prog.category,
        summary: StudySummary::from_samples(&samples),
        samples,
        counts,
        converged,
    })
}

/// Measure the dynamic instruction count of a golden run (used for Table I
/// and for detector-overhead measurements).
pub fn measure_dyn_insts(
    module: &Module,
    entry: &str,
    workload: &dyn Workload,
    input: u64,
) -> Result<u64, CampaignError> {
    let mut interp = Interp::new(module);
    let setup = setup(workload, &mut interp, input)?;
    let mut host = VulfiHost::profile();
    let r = interp
        .run(entry, &setup.args, &mut host)
        .map_err(|t| CampaignError(format!("golden run trapped: {t}")))?;
    Ok(r.dyn_insts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{OutputRegion, SetupResult};
    use vexec::{Memory, RtVal, Scalar};

    /// A tiny but real workload: scale an array in-place.
    struct ScaleWorkload {
        module: Module,
    }

    impl ScaleWorkload {
        fn new() -> ScaleWorkload {
            let src = r#"
define void @scale(ptr %a, i32 %n) {
entry:
  br label %header
header:
  %i = phi i32 [ 0, %entry ], [ %i2, %body ]
  %cond = icmp slt i32 %i, %n
  br i1 %cond, label %body, label %exit
body:
  %p = getelementptr float, ptr %a, i32 %i
  %v = load float, ptr %p
  %d = fmul float %v, 2.0
  store float %d, ptr %p
  %i2 = add i32 %i, 1
  br label %header
exit:
  ret void
}
"#;
            ScaleWorkload {
                module: vir::parser::parse_module(src).unwrap(),
            }
        }
    }

    impl Workload for ScaleWorkload {
        fn name(&self) -> &str {
            "scale"
        }
        fn entry(&self) -> &str {
            "scale"
        }
        fn module(&self) -> &Module {
            &self.module
        }
        fn num_inputs(&self) -> u64 {
            3
        }
        fn setup(&self, mem: &mut Memory, input: u64) -> Result<SetupResult, vexec::Trap> {
            let n = 8 + input * 4;
            let vals: Vec<f32> = (0..n).map(|i| (i as f32) + input as f32).collect();
            let a = mem.alloc_f32_slice(&vals)?;
            Ok(SetupResult {
                args: vec![
                    RtVal::Scalar(Scalar::ptr(a)),
                    RtVal::Scalar(Scalar::i32(n as i32)),
                ],
                outputs: vec![OutputRegion {
                    addr: a,
                    bytes: n * 4,
                }],
            })
        }
    }

    #[test]
    fn experiments_are_reproducible() {
        let w = ScaleWorkload::new();
        let prog = prepare(&w, SiteCategory::PureData).unwrap();
        let run = |seed: u64| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            run_experiment(&prog, &w, &mut rng).unwrap()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.injection, b.injection);
        assert!(a.dynamic_sites > 0);
    }

    #[test]
    fn pure_data_faults_never_crash_scale() {
        // Pure-data sites in @scale are the loaded/multiplied values; bit
        // flips there corrupt data but cannot redirect control or
        // addresses.
        let w = ScaleWorkload::new();
        let prog = prepare(&w, SiteCategory::PureData).unwrap();
        let c = run_campaign(&prog, &w, 40, 7).unwrap();
        assert_eq!(c.counts.crash, 0, "{:?}", c.counts);
        assert!(c.counts.sdc > 0, "flipped data must show up as SDC");
    }

    #[test]
    fn address_faults_crash_sometimes() {
        let w = ScaleWorkload::new();
        let prog = prepare(&w, SiteCategory::Address).unwrap();
        let c = run_campaign(&prog, &w, 60, 11).unwrap();
        assert!(
            c.counts.crash > 0,
            "address-category flips should produce crashes: {:?}",
            c.counts
        );
    }

    #[test]
    fn control_faults_can_hang_and_are_classified_crash() {
        let w = ScaleWorkload::new();
        let prog = prepare(&w, SiteCategory::Control).unwrap();
        let c = run_campaign(&prog, &w, 60, 13).unwrap();
        // Control flips hit %i/%i2/%cond: early exit (SDC), runaway loop
        // (crash via hang budget or OOB), or benign.
        assert!(c.counts.total() == 60);
        assert!(c.counts.sdc + c.counts.crash > 0, "{:?}", c.counts);
    }

    #[test]
    fn campaign_outcome_counts_sum() {
        let w = ScaleWorkload::new();
        let prog = prepare(&w, SiteCategory::PureData).unwrap();
        let c = run_campaign(&prog, &w, 25, 3).unwrap();
        assert_eq!(c.counts.total(), 25);
        assert_eq!(c.experiments.len(), 25);
        let rate = c.sdc_rate();
        assert!((0.0..=100.0).contains(&rate));
    }

    #[test]
    fn study_converges_on_stable_workload() {
        let w = ScaleWorkload::new();
        let prog = prepare(&w, SiteCategory::PureData).unwrap();
        let cfg = StudyConfig {
            experiments_per_campaign: 30,
            target_margin: 10.0,
            min_campaigns: 4,
            max_campaigns: 10,
            seed: 5,
            model: FaultModel::default(),
            prune: false,
        };
        let s = run_study(&prog, &w, &cfg).unwrap();
        assert!(s.samples.len() >= 4);
        assert_eq!(s.counts.total(), s.samples.len() as u64 * 30,);
        assert!(s.summary.mean >= 0.0);
    }

    #[test]
    fn sharded_ranges_equal_whole_campaign() {
        let w = ScaleWorkload::new();
        let prog = prepare(&w, SiteCategory::PureData).unwrap();
        let seed = campaign_seed(0xDEAD_BEEF, 2);
        let whole = run_campaign(&prog, &w, 30, seed).unwrap();
        // Any partition of 0..30 must reproduce the same experiments.
        let mut pieced = Vec::new();
        for range in [0..7, 7..8, 8..21, 21..30] {
            pieced.extend(run_experiment_range(&prog, &w, seed, range).unwrap());
        }
        assert_eq!(whole.experiments, pieced);
    }

    #[test]
    fn experiment_serde_roundtrip() {
        let w = ScaleWorkload::new();
        let prog = prepare(&w, SiteCategory::PureData).unwrap();
        let mut rng = experiment_rng(99, 0);
        let e = run_experiment(&prog, &w, &mut rng).unwrap();
        let text = serde_json::to_string(&e).unwrap();
        let back: Experiment = serde_json::from_str(&text).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn measure_dyn_insts_deterministic() {
        let w = ScaleWorkload::new();
        let a = measure_dyn_insts(w.module(), "scale", &w, 0).unwrap();
        let b = measure_dyn_insts(w.module(), "scale", &w, 0).unwrap();
        assert_eq!(a, b);
        let c = measure_dyn_insts(w.module(), "scale", &w, 2).unwrap();
        assert!(c > a, "bigger input → more dynamic instructions");
    }

    #[test]
    fn every_fault_model_runs_deterministic_campaigns() {
        let w = ScaleWorkload::new();
        for model in [
            FaultModel::SingleBitFlip,
            FaultModel::MultiBitBurst { width: 3 },
            FaultModel::StuckAt {
                bit: 30,
                value: true,
            },
            FaultModel::MaskCorrupt,
            FaultModel::AddressLine { bit: 4 },
            FaultModel::TemporalPair { gap: 8 },
            FaultModel::MemoryCell,
        ] {
            let mut prog = prepare(&w, SiteCategory::PureData).unwrap();
            prog.model = model;
            let a = run_campaign(&prog, &w, 12, 3).unwrap();
            let b = run_campaign(&prog, &w, 12, 3).unwrap();
            assert_eq!(
                a.experiments, b.experiments,
                "{model} must be deterministic"
            );
            assert_eq!(a.counts.total(), 12, "{model}");
            for e in &a.experiments {
                if let Some(inj) = &e.injection {
                    assert_eq!(inj.model, model);
                }
            }
        }
    }

    #[test]
    fn engine_models_corrupt_engine_state() {
        let w = ScaleWorkload::new();
        // @scale has no masked intrinsics: the mask-corruption census is
        // empty and every experiment is benign by construction.
        let mut prog = prepare(&w, SiteCategory::PureData).unwrap();
        prog.model = FaultModel::MaskCorrupt;
        let c = run_campaign(&prog, &w, 10, 5).unwrap();
        assert_eq!(c.counts.benign, 10, "{:?}", c.counts);
        assert!(c.experiments.iter().all(|e| e.injection.is_none()));

        // Address-line flips on a strided loop must hit the guard pages
        // at least sometimes.
        let mut prog = prepare(&w, SiteCategory::PureData).unwrap();
        prog.model = FaultModel::AddressLine { bit: 20 };
        let c = run_campaign(&prog, &w, 30, 5).unwrap();
        assert!(c.counts.crash > 0, "{:?}", c.counts);
        assert!(c
            .experiments
            .iter()
            .any(|e| e.injection.as_ref().is_some_and(|i| i.site_id == 0)));

        // Memory-cell upsets corrupt live data: some must surface as SDC.
        let mut prog = prepare(&w, SiteCategory::PureData).unwrap();
        prog.model = FaultModel::MemoryCell;
        let c = run_campaign(&prog, &w, 30, 5).unwrap();
        assert!(c.counts.sdc > 0, "{:?}", c.counts);
    }

    // --- Static pruning ---------------------------------------------------

    /// A workload with provably-dead bits: %w's high 24 bits die in the
    /// truncation, so the analyzer discharges a solid fraction of the
    /// pure-data fault space.
    struct NarrowWorkload {
        module: Module,
    }

    impl NarrowWorkload {
        fn new() -> NarrowWorkload {
            let src = r#"
define void @narrow(ptr %a, i32 %n) {
entry:
  br label %header
header:
  %i = phi i32 [ 0, %entry ], [ %i2, %body ]
  %cond = icmp slt i32 %i, %n
  br i1 %cond, label %body, label %exit
body:
  %p = getelementptr i32, ptr %a, i32 %i
  %v = load i32, ptr %p
  %w = add i32 %v, 5
  %t = trunc i32 %w to i8
  %z = zext i8 %t to i32
  store i32 %z, ptr %p
  %i2 = add i32 %i, 1
  br label %header
exit:
  ret void
}
"#;
            NarrowWorkload {
                module: vir::parser::parse_module(src).unwrap(),
            }
        }
    }

    impl Workload for NarrowWorkload {
        fn name(&self) -> &str {
            "narrow"
        }
        fn entry(&self) -> &str {
            "narrow"
        }
        fn module(&self) -> &Module {
            &self.module
        }
        fn num_inputs(&self) -> u64 {
            2
        }
        fn setup(&self, mem: &mut Memory, input: u64) -> Result<SetupResult, vexec::Trap> {
            let n = 6 + input * 2;
            let vals: Vec<f32> = (0..n).map(|i| f32::from_bits(i as u32 * 37 + 1)).collect();
            let a = mem.alloc_f32_slice(&vals)?;
            Ok(SetupResult {
                args: vec![
                    RtVal::Scalar(Scalar::ptr(a)),
                    RtVal::Scalar(Scalar::i32(n as i32)),
                ],
                outputs: vec![OutputRegion {
                    addr: a,
                    bytes: n * 4,
                }],
            })
        }
    }

    #[test]
    fn pruned_range_matches_full_run_on_executed_subset() {
        let w = NarrowWorkload::new();
        let prog = prepare(&w, SiteCategory::PureData).unwrap();
        let ctx = build_prune_context(&prog, &w).unwrap();
        assert!(
            ctx.plan.benign_coordinates() > 0,
            "the truncation must discharge coordinates"
        );
        let seed = campaign_seed(0xBEE5, 0);
        let full = run_experiment_range(&prog, &w, seed, 0..60).unwrap();
        let pruned = run_experiment_range_pruned(&prog, &w, &ctx, seed, 0..60).unwrap();
        assert_eq!(full.len(), pruned.len());
        let mut discharged = 0;
        let mut executed = 0;
        for (f, p) in full.iter().zip(&pruned) {
            if p.injection.is_some() || f.injection.is_none() {
                // Executed (or empty-census) experiments must be
                // bit-identical to the full run.
                assert_eq!(f, p);
                executed += 1;
            } else {
                // Discharged: the full run must agree the flip was benign.
                discharged += 1;
                assert_eq!(f.outcome, Outcome::Benign, "unsound prune: {f:?}");
                assert!(!f.detected);
                assert_eq!(p.outcome, Outcome::Benign);
                assert!(!p.detected);
                assert_eq!(p.input, f.input);
                assert_eq!(p.dynamic_sites, f.dynamic_sites);
                assert_eq!(p.golden_dyn_insts, f.golden_dyn_insts);
            }
        }
        assert!(discharged > 0, "pruning must discharge something here");
        assert!(executed > 0, "pruning must not discharge everything");
        // Sharding still composes: any partition reproduces the whole.
        let mut pieced = Vec::new();
        for range in [0..13, 13..14, 14..45, 45..60] {
            pieced.extend(run_experiment_range_pruned(&prog, &w, &ctx, seed, range).unwrap());
        }
        assert_eq!(pruned, pieced);
    }

    #[test]
    fn executed_predictions_cross_validate_as_sound() {
        let w = NarrowWorkload::new();
        let prog = prepare(&w, SiteCategory::PureData).unwrap();
        let ctx = build_prune_context(&prog, &w).unwrap();
        let seed = campaign_seed(0xBEE5, 1);
        let full = run_experiment_range(&prog, &w, seed, 0..80).unwrap();
        let report = crate::analyze::check_soundness(&ctx.plan, &full);
        assert!(report.checked > 0);
        assert!(report.predicted_benign > 0, "{report:?}");
        assert!(
            report.is_sound(),
            "predicted-benign flips produced non-benign outcomes: {:?}",
            report.violations
        );
        assert_eq!(report.misprediction_pct(), 0.0);
    }

    #[test]
    fn prune_rejects_non_bit_flip_models() {
        let w = NarrowWorkload::new();
        let mut prog = prepare(&w, SiteCategory::PureData).unwrap();
        prog.model = FaultModel::MultiBitBurst { width: 3 };
        let err = build_prune_context(&prog, &w).unwrap_err();
        assert!(err.0.contains("single-bit-flip"), "{err}");
    }

    #[test]
    fn study_config_serde_keeps_prune_backward_compatible() {
        let cfg = StudyConfig::default();
        let text = serde_json::to_string(&cfg).unwrap();
        assert!(!text.contains("prune"), "default must omit prune: {text}");
        let back: StudyConfig = serde_json::from_str(&text).unwrap();
        assert!(!back.prune);

        let pruned = StudyConfig {
            prune: true,
            ..StudyConfig::default()
        };
        let text = serde_json::to_string(&pruned).unwrap();
        assert!(text.contains("prune"), "{text}");
        let back: StudyConfig = serde_json::from_str(&text).unwrap();
        assert!(back.prune);
    }

    // --- Fault containment -----------------------------------------------

    /// Serialises tests that depend on the process-global strict flag or
    /// the engine-fault log.
    static CONTAINMENT_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn gate() -> std::sync::MutexGuard<'static, ()> {
        CONTAINMENT_GATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A workload whose `setup` panics for one specific input: a stand-in
    /// for any engine panic on malformed faulted state.
    struct PanicWorkload {
        inner: ScaleWorkload,
    }

    impl Workload for PanicWorkload {
        fn name(&self) -> &str {
            "panicky scale"
        }
        fn entry(&self) -> &str {
            self.inner.entry()
        }
        fn module(&self) -> &Module {
            self.inner.module()
        }
        fn num_inputs(&self) -> u64 {
            self.inner.num_inputs()
        }
        fn setup(&self, mem: &mut Memory, input: u64) -> Result<SetupResult, vexec::Trap> {
            if input == 1 {
                panic!("deliberate test panic on input 1");
            }
            self.inner.setup(mem, input)
        }
    }

    #[test]
    fn engine_panic_is_contained_as_crash_with_provenance() {
        let _g = gate();
        crate::faultlog::drain_engine_faults();
        let w = PanicWorkload {
            inner: ScaleWorkload::new(),
        };
        let prog = prepare(&w, SiteCategory::PureData).unwrap();
        let seed = campaign_seed(0x51C, 0);
        let c = run_campaign(&prog, &w, 30, seed).unwrap();
        assert_eq!(c.counts.total(), 30, "every experiment must be recorded");
        let panicked: Vec<_> = c
            .experiments
            .iter()
            .enumerate()
            .filter(|(_, e)| e.input == 1)
            .collect();
        assert!(!panicked.is_empty(), "input 1 must be drawn at least once");
        for (_, e) in &panicked {
            assert_eq!(e.outcome, Outcome::Crash);
            assert_eq!(e.injection, None);
            assert_eq!(e.dynamic_sites, 0);
        }
        // Provenance: one log entry per panicking experiment, carrying
        // (campaign seed, index) and the panic message.
        let faults = crate::faultlog::drain_engine_faults();
        assert_eq!(faults.len(), panicked.len());
        for (i, _) in &panicked {
            assert!(
                faults.iter().any(|f| f.experiment == Some((seed, *i))
                    && f.message.contains("deliberate test panic")
                    && f.workload == "panicky scale"),
                "missing provenance for experiment {i}: {faults:?}"
            );
        }
        // Containment is deterministic: the same campaign replays
        // bit-identically, panics included.
        let c2 = run_campaign(&prog, &w, 30, seed).unwrap();
        assert_eq!(c.experiments, c2.experiments);
        crate::faultlog::drain_engine_faults();
    }

    #[test]
    fn strict_mode_aborts_on_engine_panic() {
        let _g = gate();
        let w = PanicWorkload {
            inner: ScaleWorkload::new(),
        };
        let prog = prepare(&w, SiteCategory::PureData).unwrap();
        crate::faultlog::set_strict(true);
        let result = run_campaign(&prog, &w, 30, campaign_seed(0x51C, 0));
        crate::faultlog::set_strict(false);
        let err = result.expect_err("strict mode must abort the campaign");
        assert!(err.0.contains("strict mode"), "{err}");
        assert!(err.0.contains("deliberate test panic"), "{err}");
        crate::faultlog::drain_engine_faults();
    }

    /// A loop that touches only `a[0]`: control flips cannot go out of
    /// bounds, so a runaway loop must be stopped by the hang budget or
    /// the wall-clock watchdog — nothing else.
    struct SpinWorkload {
        module: Module,
    }

    impl SpinWorkload {
        fn new() -> SpinWorkload {
            let src = r#"
define void @spin(ptr %a, i32 %n) {
entry:
  br label %header
header:
  %i = phi i32 [ 0, %entry ], [ %i2, %body ]
  %cond = icmp slt i32 %i, %n
  br i1 %cond, label %body, label %exit
body:
  %v = load float, ptr %a
  %d = fadd float %v, 1.0
  store float %d, ptr %a
  %i2 = add i32 %i, 1
  br label %header
exit:
  ret void
}
"#;
            SpinWorkload {
                module: vir::parser::parse_module(src).unwrap(),
            }
        }
    }

    impl Workload for SpinWorkload {
        fn name(&self) -> &str {
            "spin"
        }
        fn entry(&self) -> &str {
            "spin"
        }
        fn module(&self) -> &Module {
            &self.module
        }
        fn num_inputs(&self) -> u64 {
            1
        }
        fn setup(&self, mem: &mut Memory, _input: u64) -> Result<SetupResult, vexec::Trap> {
            let a = mem.alloc_f32_slice(&[0.0])?;
            Ok(SetupResult {
                args: vec![
                    RtVal::Scalar(Scalar::ptr(a)),
                    RtVal::Scalar(Scalar::i32(24)),
                ],
                outputs: vec![OutputRegion { addr: a, bytes: 4 }],
            })
        }
    }

    /// Like `SpinWorkload`, but every iteration `alloca`s a fresh buffer,
    /// so a runaway loop is an allocation storm.
    struct GrowWorkload {
        module: Module,
    }

    impl GrowWorkload {
        fn new() -> GrowWorkload {
            let src = r#"
define void @grow(ptr %a, i32 %n) {
entry:
  br label %header
header:
  %i = phi i32 [ 0, %entry ], [ %i2, %body ]
  %cond = icmp slt i32 %i, %n
  br i1 %cond, label %body, label %exit
body:
  %buf = alloca float, i32 64
  %v = load float, ptr %a
  store float %v, ptr %buf
  %i2 = add i32 %i, 1
  br label %header
exit:
  ret void
}
"#;
            GrowWorkload {
                module: vir::parser::parse_module(src).unwrap(),
            }
        }
    }

    impl Workload for GrowWorkload {
        fn name(&self) -> &str {
            "grow"
        }
        fn entry(&self) -> &str {
            "grow"
        }
        fn module(&self) -> &Module {
            &self.module
        }
        fn num_inputs(&self) -> u64 {
            1
        }
        fn setup(&self, mem: &mut Memory, _input: u64) -> Result<SetupResult, vexec::Trap> {
            let a = mem.alloc_f32_slice(&[0.0])?;
            Ok(SetupResult {
                args: vec![
                    RtVal::Scalar(Scalar::ptr(a)),
                    RtVal::Scalar(Scalar::i32(16)),
                ],
                outputs: vec![OutputRegion { addr: a, bytes: 4 }],
            })
        }
    }

    #[test]
    fn hang_budget_contains_runaway_loops_as_crash() {
        let w = SpinWorkload::new();
        let prog = prepare(&w, SiteCategory::Control).unwrap();
        assert_eq!(prog.limits, ResourceLimits::default());
        let c = run_campaign(&prog, &w, 60, 17).unwrap();
        assert_eq!(c.counts.total(), 60);
        // @spin touches only a[0]; any crash here is the hang budget.
        assert!(
            c.counts.crash > 0,
            "control flips must drive the loop past the budget: {:?}",
            c.counts
        );
    }

    #[test]
    fn wall_clock_watchdog_contains_runaway_loops_as_crash() {
        let w = SpinWorkload::new();
        let mut prog = prepare(&w, SiteCategory::Control).unwrap();
        // Push the instruction budget out of reach so only the watchdog
        // can stop a runaway loop, then give it a tight real-time leash.
        prog.limits.hang_factor = u64::MAX;
        prog.limits.hang_slack = u64::MAX;
        prog.limits.wall_ms = 30;
        let c = run_campaign(&prog, &w, 60, 17).unwrap();
        assert_eq!(c.counts.total(), 60);
        assert!(
            c.counts.crash > 0,
            "the watchdog must contain the runaway loops: {:?}",
            c.counts
        );
    }

    #[test]
    fn memory_ceiling_contains_allocation_storms_as_crash() {
        let w = GrowWorkload::new();
        let mut prog = prepare(&w, SiteCategory::Control).unwrap();
        // No instruction or wall limit: only the memory ceiling can stop
        // a runaway allocation loop (64 floats per iteration).
        prog.limits.hang_factor = u64::MAX;
        prog.limits.hang_slack = u64::MAX;
        prog.limits.mem_bytes = 1 << 20;
        let c = run_campaign(&prog, &w, 60, 17).unwrap();
        assert_eq!(c.counts.total(), 60);
        assert!(
            c.counts.crash > 0,
            "the memory ceiling must contain the allocation storms: {:?}",
            c.counts
        );
    }
}
