//! The injection daemon: accept loop, journal-backed job table, worker
//! pool.
//!
//! ## Execution model
//!
//! The daemon runs **one study at a time**, in submission order, with
//! every worker thread collaborating on it through a shared
//! [`LeaseBoard`]. There is **one prepared cell per active study**: the
//! worker that promotes a queued job builds its [`Cell`] from the
//! [`StudySpec`] names (never from bytes shipped over the wire) — the
//! compiled, instrumented program, its key, and its prune context when
//! the study is pruned — and every worker runs shards on that one
//! program, sharing its decoded bytecode and its per-input golden cache.
//! The key cross-check runs once, at promotion: a key re-derived from
//! the spec that disagrees with the submitted one fails the job instead
//! of contaminating the store.
//!
//! ## Crash and restart semantics
//!
//! Every durable structure is an append-only checksummed log:
//!
//! - the journal (`<store>/events/ops.jsonl`) is the one job log: bind
//!   folds it once into the in-memory job table, every lifecycle
//!   transition is one append, and a job seen `Running` at startup
//!   belonged to a dead daemon and is re-queued;
//! - shard results land in the study store the moment each shard
//!   finishes — the append *is* the checkpoint, so a `kill -9` loses at
//!   most in-flight shards;
//! - the lease board is deliberately **not** persisted: it is rebuilt
//!   from `missing_jobs` against the store, so recovery re-runs exactly
//!   the shards that never landed. Determinism (experiment RNG keyed by
//!   `(campaign, index)`) makes any re-run byte-identical, which is why
//!   the merged result of a killed-and-restarted service matches a
//!   plain `vulfi study` bit for bit.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use serde::Value;
use vulfi::{PruneContext, StudySpec};
use vulfi_orch::{
    load_cells, merge, missing_jobs, parse_alert_rules, plan_shards, render_alerts_json, run_shard,
    sparkline_svg, AlertEngine, AlertState, Cell, JobRecord, JobState, Journal, LeaseBoard,
    OpsEvent, OpsKind, Progress, Sampler, SamplerInputs, Store, StudyKey, StudyStore, TelemetryLog,
    TelemetryRing, DEFAULT_RING_CAPACITY,
};

use crate::http::{read_request, respond, respond_error, respond_json, Request};

/// How the daemon is launched (`vulfi serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 asks the OS for an ephemeral port (the real
    /// one is printed and written to `<store>/serve.addr`).
    pub addr: String,
    /// Store root shared with `vulfi study` / `vulfi results`.
    pub store: PathBuf,
    /// Worker threads collaborating on the active study.
    pub workers: usize,
    /// Shard lease TTL: how long a silent worker may hold a shard before
    /// it is re-queued for the others.
    pub lease_ttl: Duration,
    /// Telemetry sampling interval. `Duration::ZERO` disables the
    /// sampler entirely — no thread, no ring, no `<store>/telemetry/`
    /// writes (the zero-cost-when-off contract).
    pub telemetry_interval: Duration,
    /// Alert rules file (TOML or JSON) evaluated by the sampler thread
    /// on every tick. `None` means no rules: telemetry still records,
    /// nothing can fire.
    pub alert_rules: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7070".to_string(),
            store: PathBuf::from("results/store"),
            workers: 2,
            lease_ttl: Duration::from_secs(60),
            telemetry_interval: Duration::from_secs(1),
            alert_rules: None,
        }
    }
}

/// Set by SIGINT/SIGTERM; polled by the accept loop.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// Route SIGINT and SIGTERM into a graceful shutdown: the accept loop
/// stops taking connections and the workers finish (and durably append)
/// their current shards before exiting.
#[cfg(unix)]
pub fn install_shutdown_signals() {
    extern "C" fn on_signal(_sig: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
pub fn install_shutdown_signals() {}

/// The study every worker is currently collaborating on.
struct ActiveStudy {
    job: u64,
    /// Built once at promotion; every worker runs shards on `cell.prog`.
    cell: Cell,
    /// The static-analysis context of a pruned study.
    prune: Option<PruneContext>,
    board: Mutex<LeaseBoard>,
    /// Guards the shard log append *and* the progress fold, so the
    /// status endpoint always sees counts consistent with the store.
    progress: Mutex<Progress>,
    /// Held across the job's terminal transition, so exactly one worker
    /// journals it.
    closing: Mutex<()>,
    /// Set only once the terminal transition is in the journal.
    finished: AtomicBool,
}

/// The telemetry hub: everything the sampler thread mutates each tick
/// and the `/alerts` + dashboard handlers read. One mutex, always
/// acquired *after* (never while holding) the journal/active locks.
struct Telemetry {
    log: TelemetryLog,
    ring: TelemetryRing,
    sampler: Sampler,
    engine: AlertEngine,
    /// Latest verdicts, refreshed every tick.
    states: Vec<AlertState>,
}

struct Shared {
    store: Store,
    /// The journal and its folded job table. Appends are serialized here
    /// so concurrent workers never interleave half-lines.
    journal: Mutex<Journal>,
    active: Mutex<Option<Arc<ActiveStudy>>>,
    /// Held by the worker promoting a job, so one cell is built per
    /// study; never taken by the accept thread.
    promoting: Mutex<()>,
    shutdown: AtomicBool,
    lease_ttl: Duration,
    /// `None` when sampling is disabled: no thread runs and nothing in
    /// the experiment path ever touches telemetry.
    telemetry: Option<Mutex<Telemetry>>,
    telemetry_interval: Duration,
}

/// Ignore mutex poisoning: a panicking worker already failed its job via
/// `catch_unwind`; the data under these locks is updated atomically per
/// shard, so the daemon keeps serving.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Shared {
    /// Append one narrative event (lease, shard, merge, fault, alert).
    /// These move no job between states, so a failing append is
    /// reported but never fails the job.
    fn ops_emit(&self, ev: OpsEvent) {
        if let Err(e) = relock(&self.journal).append(ev) {
            eprintln!("vulfi-serve: journal: {e}");
        }
    }

    /// The in-flight study, promoting the oldest queued job when nothing
    /// is active. Returns `None` when the queue is empty.
    ///
    /// Promotion marks the job started, then builds its [`Cell`] outside
    /// the `journal` and `active` locks, which the accept thread's
    /// handlers take. A job with no spec or key, whose cell cannot be
    /// built, whose re-derived key contradicts the submitted one, or
    /// whose shard log cannot be read fails, and the next job is tried.
    fn current_or_next(&self) -> Result<Option<Arc<ActiveStudy>>, String> {
        let _promoting = relock(&self.promoting);
        loop {
            if let Some(a) = relock(&self.active).as_ref() {
                if !a.finished.load(Ordering::SeqCst) {
                    return Ok(Some(a.clone()));
                }
            }
            let next = relock(&self.journal).table().next_queued().cloned();
            let Some(job) = next else {
                *relock(&self.active) = None;
                return Ok(None);
            };
            let wait_ns = relock(&self.journal)
                .started(job.id)
                .map_err(|e| e.to_string())?;
            vulfi_orch::metrics::global().observe_queue_wait(wait_ns);
            match self.promote(&job) {
                Ok(a) => return Ok(Some(a)),
                Err(e) => self.fail_job(job.id, &e)?,
            }
        }
    }

    /// Build the cell `job`'s spec names (and its prune context when the
    /// study is pruned), check it is the study the job was submitted as,
    /// and make it the active study. Submit and promotion derive the key by
    /// the same [`Cell::build`]; a mismatch means the build is not
    /// deterministic, and running anyway would file results under the
    /// wrong study.
    fn promote(&self, job: &JobRecord) -> Result<Arc<ActiveStudy>, String> {
        let (Some(spec), Some(submitted)) = (&job.spec, &job.key) else {
            return Err(format!(
                "job {} has no spec or study key: its submit event is missing from the \
                 journal; resubmit the study",
                job.id
            ));
        };
        let cell = Cell::build(spec)?;
        if &cell.key.0 != submitted {
            return Err(format!(
                "promotion-derived key {} contradicts submitted key {submitted} — refusing to \
                 contaminate the store",
                cell.key
            ));
        }
        let prune = if cell.cfg.prune {
            Some(
                vulfi::build_prune_context(&cell.prog, &*cell.workload)
                    .map_err(|e| e.to_string())?,
            )
        } else {
            None
        };
        let study = self.store.study(&cell.key);
        let done = study.shards().map_err(|e| e.to_string())?;
        // Heal the expected kill artifact (torn trailing shard line)
        // before anyone appends past it.
        study.trim_torn_tail().map_err(|e| e.to_string())?;
        let plan = plan_shards(&cell.cfg, cell.spec.shard_size);
        let missing = missing_jobs(&plan, &done, &cell.cfg);
        let a = Arc::new(ActiveStudy {
            job: job.id,
            board: Mutex::new(LeaseBoard::new(missing, self.lease_ttl)),
            progress: Mutex::new(Progress::resume(&cell.cfg, &done)),
            cell,
            prune,
            closing: Mutex::new(()),
            finished: AtomicBool::new(false),
        });
        *relock(&self.active) = Some(a.clone());
        Ok(a)
    }

    /// Fail the active study, unless a worker has already journaled its
    /// end, and clear it so the queue can advance.
    fn fail_active(&self, active: &ActiveStudy, error: &str) {
        let _closing = relock(&active.closing);
        if active.finished.load(Ordering::SeqCst) {
            return;
        }
        match self.fail_job(active.job, error) {
            Ok(()) => self.finish(active),
            Err(e) => eprintln!("vulfi-serve: {e}"),
        }
    }

    fn fail_job(&self, job: u64, error: &str) -> Result<(), String> {
        relock(&self.journal)
            .failed(job, error)
            .map_err(|e| format!("recording failure of job {job}: {e}"))
    }

    /// Mark `active` finished, once its terminal transition is in the
    /// journal, and clear it.
    fn finish(&self, active: &ActiveStudy) {
        active.finished.store(true, Ordering::SeqCst);
        let mut g = relock(&self.active);
        if g.as_ref().is_some_and(|a| a.job == active.job) {
            *g = None;
        }
    }
}

/// Parse a submitted JSON object into a [`StudySpec`], overlaying the
/// provided fields onto [`StudySpec::default`]. Unknown fields are
/// rejected — a typo'd `"expermients"` must not silently run the
/// default-sized study.
pub fn spec_from_value(doc: &Value) -> Result<StudySpec, String> {
    let obj = doc
        .as_object()
        .ok_or_else(|| "study spec must be a JSON object".to_string())?;
    // The defaults' own encoding names every spec field and its JSON kind.
    let Value::Object(mut fields) = serde::Serialize::to_value(&StudySpec::default()) else {
        unreachable!("a struct serializes to an object")
    };
    for (k, v) in obj {
        let (_, slot) = fields
            .iter_mut()
            .find(|(name, _)| name == k)
            .ok_or_else(|| format!("unknown spec field '{k}'"))?;
        let (fits, kind) = match slot {
            Value::Str(_) => (v.as_str().is_some(), "a string"),
            Value::Bool(_) => (v.as_bool().is_some(), "a boolean"),
            _ => (v.as_u64().is_some(), "a non-negative integer"),
        };
        if !fits {
            return Err(format!("spec.{k} must be {kind}"));
        }
        *slot = v.clone();
    }
    serde::Deserialize::from_value(&Value::Object(fields)).map_err(|e| format!("spec: {e}"))
}

/// A bound-but-not-yet-running daemon. Splitting bind from run lets
/// callers learn the ephemeral port before the accept loop blocks.
pub struct Daemon {
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: usize,
    addr_file: PathBuf,
}

/// Remote control over a running daemon (tests use this instead of unix
/// signals).
#[derive(Clone)]
pub struct DaemonHandle {
    shared: Arc<Shared>,
}

impl DaemonHandle {
    /// Ask the daemon to shut down gracefully.
    pub fn stop(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }
}

impl Daemon {
    /// Open the store and journal, recover orphaned jobs, and bind the
    /// listener. Writes the actual bound address to `<store>/serve.addr`
    /// so shell scripts can discover an ephemeral port.
    pub fn bind(cfg: &ServeConfig) -> Result<Daemon, String> {
        let store = Store::open(&cfg.store).map_err(|e| e.to_string())?;
        let old_queue = cfg.store.join("queue").join("events.jsonl");
        if old_queue.exists() {
            return Err(format!(
                "{} is a job queue log from an older daemon; the journal now holds \
                 the job table. Move that file aside and restart (completed studies \
                 stay cached by key; resubmit unfinished ones)",
                old_queue.display()
            ));
        }
        let mut journal = Journal::open(&cfg.store).map_err(|e| e.to_string())?;
        let orphans = journal.recover().map_err(|e| e.to_string())?;
        if !orphans.is_empty() {
            eprintln!(
                "vulfi-serve: re-queued {} job(s) orphaned by a previous daemon: {:?}",
                orphans.len(),
                orphans
            );
        }
        // Alert rules are parsed at bind time so a typo'd file refuses
        // to start the daemon instead of silently never firing.
        let rules = match &cfg.alert_rules {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("alert rules {}: {e}", path.display()))?;
                parse_alert_rules(&text)
                    .map_err(|e| format!("alert rules {}: {e}", path.display()))?
            }
            None => Vec::new(),
        };
        let telemetry = if cfg.telemetry_interval.is_zero() {
            None
        } else {
            let log = TelemetryLog::open(&cfg.store).map_err(|e| e.to_string())?;
            // Resume the window (and the sampler's rate baseline) from
            // the persisted tail, so a restart continues the history a
            // dead daemon left behind.
            let ring = log.ring(DEFAULT_RING_CAPACITY).map_err(|e| e.to_string())?;
            let sampler = match ring.latest() {
                Some(last) => Sampler::resume_from(last.clone()),
                None => Sampler::new(),
            };
            Some(Mutex::new(Telemetry {
                log,
                ring,
                sampler,
                engine: AlertEngine::new(rules),
                states: Vec::new(),
            }))
        };
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
        listener.set_nonblocking(true).map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let addr_file = cfg.store.join("serve.addr");
        std::fs::write(&addr_file, addr.to_string())
            .map_err(|e| format!("{}: {e}", addr_file.display()))?;
        Ok(Daemon {
            listener,
            shared: Arc::new(Shared {
                store,
                journal: Mutex::new(journal),
                active: Mutex::new(None),
                promoting: Mutex::new(()),
                shutdown: AtomicBool::new(false),
                lease_ttl: cfg.lease_ttl,
                telemetry,
                telemetry_interval: cfg.telemetry_interval,
            }),
            workers: cfg.workers.max(1),
            addr_file,
        })
    }

    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener.local_addr().map_err(|e| e.to_string())
    }

    pub fn handle(&self) -> DaemonHandle {
        DaemonHandle {
            shared: self.shared.clone(),
        }
    }

    /// Serve until shut down (signal, `POST /shutdown`, or
    /// [`DaemonHandle::stop`]), then drain the workers. In-flight shards
    /// finish and append before workers exit; anything never started is
    /// re-run by the next daemon via queue recovery.
    pub fn run(self) -> Result<(), String> {
        let mut workers = Vec::new();
        for i in 0..self.workers {
            let shared = self.shared.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("vulfi-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .map_err(|e| e.to_string())?,
            );
        }
        if self.shared.telemetry.is_some() {
            let shared = self.shared.clone();
            workers.push(
                std::thread::Builder::new()
                    .name("vulfi-telemetry".to_string())
                    .spawn(move || telemetry_loop(&shared))
                    .map_err(|e| e.to_string())?,
            );
        }
        loop {
            if SIGNALLED.load(Ordering::SeqCst) {
                self.shared.shutdown.store(true, Ordering::SeqCst);
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    let _ = stream.set_nonblocking(false);
                    handle_connection(&self.shared, &mut stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => {
                    eprintln!("vulfi-serve: accept: {e}");
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
        for w in workers {
            let _ = w.join();
        }
        // A present serve.addr means "a daemon may be listening here";
        // remove it on the clean path only.
        let _ = std::fs::remove_file(&self.addr_file);
        Ok(())
    }
}

/// One telemetry tick: fold the metrics registry plus the daemon
/// gauges into a sample, persist it, refresh the ring, evaluate the
/// alert rules, and turn firing/resolved transitions into ops events.
fn telemetry_tick(shared: &Arc<Shared>) {
    let Some(tel) = &shared.telemetry else { return };
    // Gather the gauges first, releasing the journal/active locks before
    // touching the telemetry lock (fixed acquisition order).
    let queue_depth = relock(&shared.journal)
        .table()
        .jobs
        .iter()
        .filter(|j| j.state == JobState::Queued)
        .count() as u64;
    let (active_leases, lease_expired) = match relock(&shared.active).clone() {
        Some(a) => {
            let s = relock(&a.board).stats();
            let outstanding = s
                .granted
                .saturating_sub(s.completed)
                .saturating_sub(s.abandoned)
                .saturating_sub(s.expired);
            (outstanding, s.expired)
        }
        None => (0, 0),
    };
    let snapshot = vulfi_orch::metrics::global().snapshot();
    let transitions = {
        let mut t = relock(tel);
        let sample = t.sampler.sample_now(
            &snapshot,
            SamplerInputs {
                queue_depth,
                active_leases,
                lease_expired,
            },
        );
        // Persistence is observability: a full disk degrades to an
        // in-memory window, it never stops the sampler.
        if let Err(e) = t.log.append(&sample) {
            eprintln!("vulfi-serve: telemetry log: {e}");
        }
        t.ring.push(sample);
        let Telemetry {
            ring,
            engine,
            states,
            ..
        } = &mut *t;
        let (new_states, transitions) = engine.evaluate(ring.samples());
        *states = new_states;
        transitions
    };
    for tr in transitions {
        let kind = if tr.firing {
            OpsKind::AlertFiring
        } else {
            OpsKind::AlertResolved
        };
        shared.ops_emit(
            OpsEvent::new(kind).detail(format!("alert '{}' value {:.4}", tr.rule, tr.value)),
        );
    }
}

/// The sampler thread: tick immediately (a restarted daemon resumes
/// its persisted history with no gap wider than one interval), then on
/// every interval until shutdown. Sleeps in short slices so shutdown
/// is never delayed by a long interval.
fn telemetry_loop(shared: &Arc<Shared>) {
    let interval = shared.telemetry_interval;
    loop {
        telemetry_tick(shared);
        let mut slept = Duration::ZERO;
        while slept < interval {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let slice = (interval - slept).min(Duration::from_millis(20));
            std::thread::sleep(slice);
            slept += slice;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// One worker thread: collaborate on the active study (or promote the
/// next queued job), isolating panics to the job they occurred in.
fn worker_loop(shared: &Arc<Shared>, idx: usize) {
    let name = format!("worker-{idx}");
    while !shared.shutdown.load(Ordering::SeqCst) {
        match shared.current_or_next() {
            Ok(Some(active)) => run_active(shared, &active, &name),
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                eprintln!("vulfi-serve: {name}: {e}");
                std::thread::sleep(Duration::from_millis(200));
            }
        }
    }
}

/// Work on `active`, failing the job on an error or a panic.
fn run_active(shared: &Arc<Shared>, active: &Arc<ActiveStudy>, worker: &str) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        work_on(shared, active, worker)
    }));
    match outcome {
        Ok(Ok(())) => {}
        Ok(Err(e)) => shared.fail_active(active, &e),
        Err(_) => shared.fail_active(active, "worker panicked"),
    }
}

/// Execute shards of `active` until the study drains or shutdown is
/// requested, on the cell promotion built for every worker.
fn work_on(shared: &Arc<Shared>, active: &Arc<ActiveStudy>, worker: &str) -> Result<(), String> {
    let cell = &active.cell;
    let study = shared.store.study(&cell.key);
    let event = |kind| {
        OpsEvent::new(kind)
            .job(active.job)
            .key(&cell.key.0)
            .worker(worker)
    };
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            // Leave the job Running; the next daemon re-queues it and
            // re-runs only the shards that never landed.
            return Ok(());
        }
        if active.finished.load(Ordering::SeqCst) {
            return Ok(());
        }
        let leased = relock(&active.board).lease(worker);
        let Some(job) = leased else {
            if relock(&active.board).drained() {
                return finish_study(shared, active, &study);
            }
            // Stragglers hold leases; wait for them (or for the reaper)
            // instead of spinning.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        let (c, start, end) = (job.campaign as u64, job.start as u64, job.end as u64);
        shared.ops_emit(event(OpsKind::LeaseGranted).shard(c, start, end));
        let shard_start = Instant::now();
        let faults_before = vulfi::engine_faults().len();
        let (rec, _spans) = run_shard(
            &cell.prog,
            &*cell.workload,
            &cell.cfg,
            job,
            false,
            active.prune.as_ref(),
        )
        .map_err(|e| e.to_string())?;
        {
            let mut p = relock(&active.progress);
            study.append_shard(&rec).map_err(|e| e.to_string())?;
            p.add_shard(&rec);
        }
        relock(&active.board).complete(worker, job);
        let shard_ns = shard_start.elapsed().as_nanos() as u64;
        vulfi_orch::metrics::global().observe_shard_duration(shard_ns);
        shared.ops_emit(
            event(OpsKind::ShardDone)
                .shard(c, start, end)
                .wall_ns(shard_ns),
        );
        let faults = vulfi::engine_faults().len().saturating_sub(faults_before);
        if faults > 0 {
            shared.ops_emit(
                event(OpsKind::EngineFault).detail(format!("{faults} engine fault(s) absorbed")),
            );
        }
    }
}

/// First worker to see the board drained merges and completes the job;
/// everyone else observes `finished` and moves on. An error here leaves
/// the job unfinished, so the caller's `fail_active` journals the failure.
fn finish_study(
    shared: &Arc<Shared>,
    active: &Arc<ActiveStudy>,
    study: &StudyStore,
) -> Result<(), String> {
    let _closing = relock(&active.closing);
    if active.finished.load(Ordering::SeqCst) {
        return Ok(());
    }
    let cell = &active.cell;
    let done = study.shards().map_err(|e| e.to_string())?;
    if merge(&cell.cfg, cell.prog.category, &done).is_none() {
        // Drained board but incomplete merge: the store lost records
        // between planning and now (external interference). Surface it.
        return Err("board drained but merge incomplete".to_string());
    }
    let mut m = study.read_manifest().map_err(|e| e.to_string())?;
    if !m.complete {
        m.complete = true;
        study.write_manifest(&m).map_err(|e| e.to_string())?;
    }
    shared.ops_emit(
        OpsEvent::new(OpsKind::Merged)
            .job(active.job)
            .key(&cell.key.0),
    );
    relock(&shared.journal)
        .completed(active.job)
        .map_err(|e| e.to_string())?;
    shared.finish(active);
    Ok(())
}

fn opt_str(o: &Option<String>) -> Value {
    match o {
        Some(s) => Value::Str(s.clone()),
        None => Value::Null,
    }
}

fn job_doc(j: &JobRecord) -> Value {
    // A job whose submit line a salvage lost has no spec; it fails at
    // promotion, and its spec fields read as the defaults.
    let spec = j.spec.clone().unwrap_or_default();
    serde_json::json!({
        "id": j.id,
        "state": j.state.name(),
        "key": opt_str(&j.key),
        "tenant": opt_str(&j.tenant),
        "error": opt_str(&j.error),
        "bench": spec.bench,
        "isa": spec.isa,
        "category": spec.category,
        "experiments": spec.experiments as u64,
        "campaigns": spec.campaigns as u64,
        "seed": spec.seed,
        "detectors": spec.detectors,
        "submitted_unix_ms": j.submitted_unix_ms,
        "updated_unix_ms": j.updated_unix_ms,
    })
}

fn handle_connection(shared: &Arc<Shared>, stream: &mut TcpStream) {
    let req = match read_request(stream) {
        Ok(r) => r,
        Err(e) => return respond_error(stream, 400, &e),
    };
    let path = req.path.split('?').next().unwrap_or("").to_string();
    let parts: Vec<&str> = path.trim_matches('/').split('/').collect();
    match (req.method.as_str(), parts.as_slice()) {
        ("GET", ["healthz"]) => respond_json(stream, 200, &serde_json::json!({ "ok": true })),
        ("GET", ["metrics"]) => {
            let text = vulfi_orch::render_prometheus(&vulfi_orch::metrics::global().snapshot());
            respond(stream, 200, "text/plain; version=0.0.4", text.as_bytes());
        }
        ("GET", ["jobs"]) => {
            let docs: Vec<Value> = relock(&shared.journal)
                .table()
                .jobs
                .iter()
                .map(job_doc)
                .collect();
            respond_json(
                stream,
                200,
                &serde_json::json!({ "jobs": Value::Array(docs) }),
            );
        }
        ("GET", ["dashboard"]) => handle_dashboard(shared, stream),
        ("GET", ["alerts"]) => handle_alerts(shared, stream),
        ("POST", ["studies"]) => handle_submit(shared, &req, stream),
        ("GET", ["studies", key]) => handle_status(shared, key, stream),
        ("GET", ["studies", key, "report"]) => handle_report(shared, key, stream),
        ("GET", ["studies", key, "events"]) => handle_events(shared, key, stream),
        ("POST", ["shutdown"]) => {
            shared.shutdown.store(true, Ordering::SeqCst);
            respond_json(stream, 200, &serde_json::json!({ "ok": true }));
        }
        (_, ["studies"])
        | (_, ["studies", ..])
        | (_, ["jobs"])
        | (_, ["metrics"])
        | (_, ["dashboard"])
        | (_, ["alerts"])
        | (_, ["shutdown"])
        | (_, ["healthz"]) => respond_error(
            stream,
            405,
            &format!("{} not allowed on {path}", req.method),
        ),
        _ => respond_error(stream, 404, &format!("no route for {path}")),
    }
}

/// `POST /studies`: validate, build the cell (compiling the workload) to
/// realize its key and manifest, and durably enqueue. Responds 202 with `{job, key, state}` — the key
/// is usable immediately for status polling and is stable across
/// resubmission of the same spec (a completed study is a cache hit: the
/// worker finds no missing shards and completes the job instantly).
fn handle_submit(shared: &Arc<Shared>, req: &Request, stream: &mut TcpStream) {
    let doc = match req.json() {
        Ok(d) => d,
        Err(e) => return respond_error(stream, 400, &e),
    };
    // `Cell::build` validates the spec; its errors name the bad field.
    let cell = match spec_from_value(&doc).and_then(|s| Cell::build(&s)) {
        Ok(c) => c,
        Err(e) => return respond_error(stream, 400, &e),
    };
    if let Err(e) = cell.open(&shared.store) {
        return respond_error(stream, 500, &e.to_string());
    }
    let key = &cell.key.0;
    let tenant = req.header("x-vulfi-tenant").map(str::to_string);
    let submitted = relock(&shared.journal).submit(&cell.spec, key, tenant.as_deref());
    match submitted {
        Ok(job) => respond_json(
            stream,
            202,
            &serde_json::json!({ "job": job, "key": key.clone(), "state": "queued" }),
        ),
        Err(e) => respond_error(stream, 500, &e.to_string()),
    }
}

/// `GET /studies/:key`: queue state plus live progress folded from the
/// store (running SDC/Benign/Crash counts, ETA) and the merged result
/// once complete.
fn handle_status(shared: &Arc<Shared>, key_str: &str, stream: &mut TcpStream) {
    // Latest submission wins: the same key can be submitted repeatedly.
    let job = relock(&shared.journal)
        .table()
        .jobs
        .iter()
        .rev()
        .find(|j| j.key.as_deref() == Some(key_str))
        .cloned();
    let key = StudyKey(key_str.to_string());
    let study = shared.store.study(&key);
    if job.is_none() && !study.exists() {
        return respond_error(stream, 404, &format!("no study {key_str}"));
    }

    let mut fields: Vec<(String, Value)> = vec![("key".to_string(), Value::Str(key_str.into()))];
    if let Some(j) = &job {
        fields.push(("job".to_string(), job_doc(j)));
        fields.push(("state".to_string(), Value::Str(j.state.name().to_string())));
    }
    if study.exists() {
        match study_status_fields(shared, &key, &study) {
            Ok(mut extra) => fields.append(&mut extra),
            Err(e) => return respond_error(stream, 500, &e),
        }
        if job.is_none() {
            // Present in the store but never queued here (e.g. written
            // by `vulfi study` against the same store).
            let state = if fields.iter().any(|(k, _)| k == "result") {
                "completed"
            } else {
                "partial"
            };
            fields.push(("state".to_string(), Value::Str(state.to_string())));
        }
    }
    respond_json(stream, 200, &Value::Object(fields));
}

/// The store-derived half of a status document: manifest identity,
/// covered/total experiments, outcome counts, live progress when this
/// study is active, and the merged result when complete.
fn study_status_fields(
    shared: &Arc<Shared>,
    key: &StudyKey,
    study: &StudyStore,
) -> Result<Vec<(String, Value)>, String> {
    let m = study.read_manifest().map_err(|e| e.to_string())?;
    let shards = study.shards().map_err(|e| e.to_string())?;
    let stored = Progress::resume(&m.cfg, &shards);
    let mut fields: Vec<(String, Value)> = vec![
        ("workload".to_string(), Value::Str(m.workload.clone())),
        ("isa".to_string(), Value::Str(m.isa.clone())),
        (
            "category".to_string(),
            Value::Str(m.category.name().to_string()),
        ),
        ("covered".to_string(), Value::from(stored.resumed)),
        ("total".to_string(), Value::from(stored.total)),
        (
            "counts".to_string(),
            serde_json::to_value(&stored.counts).unwrap(),
        ),
    ];
    let active = relock(&shared.active).clone();
    if let Some(a) = active.filter(|a| a.cell.key.0 == key.0) {
        let snap = relock(&a.progress).snapshot();
        fields.push((
            "progress".to_string(),
            serde_json::to_value(&snap).map_err(|e| e.to_string())?,
        ));
    }
    if let Some(r) = merge(&m.cfg, m.category, &shards) {
        fields.push((
            "result".to_string(),
            serde_json::json!({
                "mean_sdc": r.summary.mean,
                "margin_95": r.summary.margin_95,
                "campaigns": r.summary.campaigns as u64,
                "converged": r.converged,
                "samples": r.samples.clone(),
                "counts": serde_json::to_value(&r.counts).unwrap(),
            }),
        ));
    }
    Ok(fields)
}

/// `GET /studies/:key/events`: this study's slice of the operational
/// event log, oldest first, for machine consumption.
fn handle_events(shared: &Arc<Shared>, key_str: &str, stream: &mut TcpStream) {
    let events = match relock(&shared.journal).events() {
        Ok(evs) => evs,
        Err(e) => return respond_error(stream, 500, &e.to_string()),
    };
    let slice: Vec<Value> = events
        .iter()
        .filter(|ev| ev.key.as_deref() == Some(key_str))
        .map(|ev| serde_json::to_value(ev).unwrap_or(Value::Null))
        .collect();
    respond_json(
        stream,
        200,
        &serde_json::json!({ "key": key_str, "events": Value::Array(slice) }),
    );
}

/// `GET /alerts`: every rule's latest verdict as JSON (the same
/// payload `vulfi alerts check --json` renders offline). With sampling
/// disabled, an explicit `"telemetry": "disabled"` document rather
/// than a 404 — monitors should see "off", not "missing".
fn handle_alerts(shared: &Arc<Shared>, stream: &mut TcpStream) {
    match &shared.telemetry {
        Some(tel) => {
            let states = relock(tel).states.clone();
            match render_alerts_json(&states) {
                Ok(json) => respond(stream, 200, "application/json", json.as_bytes()),
                Err(e) => respond_error(stream, 500, &e.to_string()),
            }
        }
        None => respond_json(
            stream,
            200,
            &serde_json::json!({
                "telemetry": "disabled",
                "firing": 0u64,
                "alerts": Vec::<Value>::new(),
            }),
        ),
    }
}

/// Minimal HTML escaping for dashboard cells (same contract as the
/// analytics report renderer).
fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

fn dash_row(out: &mut String, cells: &[String]) {
    out.push_str("<tr>");
    for c in cells {
        out.push_str(&format!("<td>{c}</td>"));
    }
    out.push_str("</tr>\n");
}

/// `GET /dashboard`: a self-contained, auto-refreshing HTML view of the
/// daemon — job table, active-study progress, lease board, and headline
/// metrics. Zero JavaScript, zero external assets: the page is the
/// markup, and `<meta http-equiv="refresh">` is the update loop.
fn handle_dashboard(shared: &Arc<Shared>, stream: &mut TcpStream) {
    let jobs = relock(&shared.journal).table().jobs.clone();
    let mut out = String::new();
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">");
    out.push_str("<meta http-equiv=\"refresh\" content=\"2\">");
    out.push_str("<title>vulfi serve</title>\n<style>\n");
    out.push_str(
        "body{font:14px/1.45 system-ui,sans-serif;margin:2em auto;max-width:1080px;color:#222}\n\
         table{border-collapse:collapse;width:100%;margin:0.5em 0 1.5em}\n\
         th,td{border:1px solid #ddd;padding:4px 8px;text-align:left;font-variant-numeric:tabular-nums}\n\
         th{background:#f5f5f5}\n\
         .muted{color:#888}\n\
         .firing{color:#b00}\n\
         svg.spark{vertical-align:middle}\n\
         .bar{background:#eee;height:10px;width:160px;display:inline-block}\n\
         .bar span{background:#4a90d9;height:10px;display:block}\n",
    );
    out.push_str("</style></head><body>\n<h1>vulfi serve</h1>\n");

    out.push_str("<section id=\"jobs\">\n<h2>Jobs</h2>\n");
    if jobs.is_empty() {
        out.push_str("<p class=\"muted\">no jobs submitted yet</p>\n");
    } else {
        out.push_str(
            "<table><tr><th>id</th><th>state</th><th>bench</th><th>isa</th><th>experiments</th>\
             <th>key</th><th>tenant</th><th>error</th></tr>\n",
        );
        for j in &jobs {
            let key = j.key.as_deref().unwrap_or("?");
            let spec = j.spec.clone().unwrap_or_default();
            dash_row(
                &mut out,
                &[
                    j.id.to_string(),
                    esc(j.state.name()),
                    esc(&spec.bench),
                    esc(&spec.isa),
                    format!("{}", (spec.experiments * spec.campaigns) as u64),
                    esc(&key[..12.min(key.len())]),
                    esc(j.tenant.as_deref().unwrap_or("-")),
                    esc(j.error.as_deref().unwrap_or("-")),
                ],
            );
        }
        out.push_str("</table>\n");
    }
    out.push_str("</section>\n");

    out.push_str("<section id=\"active\">\n<h2>Active study</h2>\n");
    let active = relock(&shared.active).clone();
    match active.filter(|a| !a.finished.load(Ordering::SeqCst)) {
        Some(a) => {
            let snap = relock(&a.progress).snapshot();
            let stats = relock(&a.board).stats();
            let pct = if snap.total > 0 {
                (snap.done as f64 / snap.total as f64 * 100.0).min(100.0)
            } else {
                0.0
            };
            out.push_str(&format!(
                "<p>job {} · <code>{}</code> · {}/{} experiments \
                 <span class=\"bar\"><span style=\"width:{:.0}%\"></span></span> {:.1}%</p>\n",
                a.job,
                esc(&a.cell.key.0[..12.min(a.cell.key.0.len())]),
                snap.done,
                snap.total,
                pct,
                pct
            ));
            let eta = if snap.eta_secs.is_finite() {
                format!("{:.0}s", snap.eta_secs)
            } else {
                "?".to_string()
            };
            out.push_str(&format!(
                "<p>{:.0} exp/s · ETA {eta} · SDC {} / Benign {} / Crash {}</p>\n",
                snap.experiments_per_sec, snap.counts.sdc, snap.counts.benign, snap.counts.crash
            ));
            out.push_str(&format!(
                "<p class=\"muted\">leases: {} granted, {} completed, {} abandoned, {} expired</p>\n",
                stats.granted, stats.completed, stats.abandoned, stats.expired
            ));
        }
        None => out.push_str("<p class=\"muted\">idle — no active study</p>\n"),
    }
    out.push_str("</section>\n");

    out.push_str("<section id=\"alerts\">\n<h2>Alerts</h2>\n");
    match &shared.telemetry {
        Some(tel) => {
            let states = relock(tel).states.clone();
            if states.is_empty() {
                out.push_str("<p class=\"muted\">no alert rules loaded</p>\n");
            } else {
                out.push_str(
                    "<table><tr><th>rule</th><th>series</th><th>threshold</th>\
                     <th>state</th><th>value</th></tr>\n",
                );
                for s in &states {
                    let state = if s.firing {
                        "<strong class=\"firing\">FIRING</strong>".to_string()
                    } else {
                        "ok".to_string()
                    };
                    dash_row(
                        &mut out,
                        &[
                            esc(&s.rule.name),
                            esc(s.rule.kind.name()),
                            format!("{}", s.rule.threshold),
                            state,
                            format!("{:.4}", s.value),
                        ],
                    );
                }
                out.push_str("</table>\n");
            }
        }
        None => out.push_str("<p class=\"muted\">telemetry disabled</p>\n"),
    }
    out.push_str("</section>\n");

    out.push_str("<section id=\"telemetry\">\n<h2>Telemetry</h2>\n");
    match &shared.telemetry {
        Some(tel) => {
            let t = relock(tel);
            let series: [(&str, Vec<f64>); 5] = [
                ("exp/s", t.ring.series(|s| s.exp_per_sec)),
                ("SDC rate (%)", t.ring.series(|s| s.sdc_rate)),
                ("queue depth", t.ring.series(|s| s.queue_depth as f64)),
                ("queue wait p99 (s)", t.ring.series(|s| s.queue_wait_p99_s)),
                ("engine faults/s", t.ring.series(|s| s.engine_fault_rate)),
            ];
            drop(t);
            out.push_str("<table><tr><th>series</th><th>last 10 min</th><th>latest</th></tr>\n");
            for (name, values) in &series {
                dash_row(
                    &mut out,
                    &[
                        name.to_string(),
                        sparkline_svg(values, 160, 28),
                        values
                            .last()
                            .map(|v| format!("{v:.2}"))
                            .unwrap_or_else(|| "-".to_string()),
                    ],
                );
            }
            out.push_str("</table>\n");
        }
        None => out.push_str("<p class=\"muted\">telemetry disabled</p>\n"),
    }
    out.push_str("</section>\n");

    out.push_str("<section id=\"metrics\">\n<h2>Metrics</h2>\n");
    let m = vulfi_orch::metrics::global().snapshot();
    out.push_str("<table><tr><th>series</th><th>value</th></tr>\n");
    dash_row(
        &mut out,
        &[
            "experiments".to_string(),
            vulfi_orch::humanize(m.experiments_total()),
        ],
    );
    dash_row(
        &mut out,
        &["shard appends".to_string(), m.shard_appends.to_string()],
    );
    dash_row(
        &mut out,
        &[
            "shard duration (sum s)".to_string(),
            format!("{:.2}", m.shard_duration_seconds.sum),
        ],
    );
    dash_row(
        &mut out,
        &[
            "queue wait (sum s)".to_string(),
            format!("{:.2}", m.queue_wait_seconds.sum),
        ],
    );
    dash_row(
        &mut out,
        &["engine faults".to_string(), m.engine_faults.to_string()],
    );
    dash_row(
        &mut out,
        &["store retries".to_string(), m.store_retries.to_string()],
    );
    out.push_str("</table>\n</section>\n</body></html>\n");
    respond(stream, 200, "text/html; charset=utf-8", out.as_bytes());
}

/// `GET /studies/:key/report`: the analytics cell for a completed study
/// (same numbers as `vulfi report html`), or 404 while still partial.
fn handle_report(shared: &Arc<Shared>, key_str: &str, stream: &mut TcpStream) {
    let (cells, warnings) = match load_cells(&shared.store) {
        Ok(x) => x,
        Err(e) => return respond_error(stream, 500, &e.to_string()),
    };
    match cells.iter().find(|c| c.key == key_str) {
        Some(cell) => {
            let doc = serde_json::json!({
                "cell": serde_json::to_value(cell).unwrap(),
                "warnings": serde_json::to_value(&warnings).unwrap(),
            });
            respond_json(stream, 200, &doc);
        }
        None => respond_error(
            stream,
            404,
            &format!("no completed study {key_str} in the store"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;

    fn bind_at(root: &std::path::Path) -> Result<Daemon, String> {
        Daemon::bind(&ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            store: root.to_path_buf(),
            workers: 1,
            telemetry_interval: Duration::ZERO,
            ..ServeConfig::default()
        })
    }

    fn state_of(jobs: &[JobRecord], id: u64) -> Option<JobState> {
        jobs.iter().find(|j| j.id == id).map(|j| j.state)
    }

    /// The study's manifest cannot be read back when its shards have all
    /// landed: the job must end `failed` — in the live table, in the
    /// journal a restart replays, and over HTTP — not stay `running`.
    #[test]
    fn a_manifest_failure_at_finish_fails_the_job() {
        let root = std::env::temp_dir().join(format!("vulfi_daemon_finish_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let daemon = bind_at(&root).unwrap();
        let shared = &daemon.shared;
        let cell = Cell::build(&StudySpec {
            bench: "vector sum".to_string(),
            experiments: 4,
            campaigns: 2,
            shard_size: 2,
            ..StudySpec::default()
        })
        .unwrap();
        cell.open(&shared.store).unwrap();
        let job = relock(&shared.journal)
            .submit(&cell.spec, &cell.key.0, None)
            .unwrap();
        let active = shared.current_or_next().unwrap().expect("job promoted");
        assert_eq!(active.job, job);

        let manifest = root.join(&cell.key.0).join("manifest.json");
        std::fs::remove_file(&manifest).unwrap();
        std::fs::create_dir(&manifest).unwrap();
        run_active(shared, &active, "w0");

        let live = relock(&shared.journal).table().clone();
        assert_eq!(state_of(&live.jobs, job), Some(JobState::Failed));
        assert!(active.finished.load(Ordering::SeqCst));
        assert!(relock(&shared.active).is_none(), "the queue can advance");
        let replayed = Journal::open(&root).unwrap();
        assert_eq!(replayed.table(), &live);

        // GET /jobs, served on the bound listener.
        let addr = daemon.local_addr().unwrap().to_string();
        let client = std::thread::spawn(move || Client::new(addr).get("/jobs"));
        let mut stream = loop {
            match daemon.listener.accept() {
                Ok((s, _)) => break s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Err(e) => panic!("accept: {e}"),
            }
        };
        stream.set_nonblocking(false).unwrap();
        handle_connection(shared, &mut stream);
        drop(stream);
        let (status, doc) = client.join().unwrap().unwrap();
        assert_eq!(status, 200);
        let jobs = doc.get("jobs").and_then(|v| v.as_array()).unwrap();
        let served = jobs
            .iter()
            .find(|j| j.get("id").and_then(|v| v.as_u64()) == Some(job))
            .unwrap();
        assert_eq!(served.get("state").and_then(|v| v.as_str()), Some("failed"));
        let error = served.get("error").and_then(|v| v.as_str()).unwrap();
        assert!(error.contains("manifest"), "{error}");
    }

    /// Bind refuses, naming the way out, a store whose job state it
    /// cannot trust: a queue log from an older daemon, or a journal with
    /// mid-file corruption.
    #[test]
    fn bind_refuses_an_old_queue_log_and_a_corrupt_journal() {
        let root = std::env::temp_dir().join(format!("vulfi_daemon_refuse_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("queue")).unwrap();
        std::fs::write(root.join("queue").join("events.jsonl"), "").unwrap();
        let err = bind_at(&root).err().expect("an old queue log is refused");
        assert!(err.contains("queue/events.jsonl"), "{err}");
        assert!(err.contains("Move that file aside"), "{err}");
        std::fs::remove_dir_all(root.join("queue")).unwrap();

        let mut journal = Journal::open(&root).unwrap();
        for key in ["aaaa", "bbbb", "cccc"] {
            journal.submit(&StudySpec::default(), key, None).unwrap();
        }
        let mut bytes = std::fs::read(journal.path()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(journal.path(), &bytes).unwrap();
        let err = bind_at(&root).err().expect("a corrupt journal is refused");
        assert!(err.contains("vulfi store fsck --repair"), "{err}");
        Store::open(&root).unwrap().fsck(true).unwrap();
        let daemon = bind_at(&root).expect("bind succeeds after repair");
        let jobs = relock(&daemon.shared.journal).table().jobs.clone();
        assert!(!jobs.is_empty() && jobs.len() < 3, "salvaged: {jobs:?}");
    }
}
