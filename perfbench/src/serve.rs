//! The `serve-closed-loop` workload: an in-process `vulfi_serve::Daemon`
//! with one worker per core, driven by as many closed-loop clients. Each
//! client submits a small micro study, polls `GET /studies/:key` at a
//! fixed interval until the merged result appears, and only then submits
//! again; a seeded share of submits re-send a spec the client already
//! completed, which the content-addressed store answers as a cache hit.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use serde_json::Value;
use vbench::SpmdWorkload;
use vulfi::{OutcomeCounts, Prepared, StudySpec, VulfiHost, Workload};
use vulfi_orch::{summarize_events, OpsKind, OpsLog, Store};
use vulfi_serve::{Client, Daemon, ServeConfig};

use crate::batch::build;
use crate::batch::durations;
use crate::check::{served_digest, Recorded, Tally, DEFAULT_SEED};
use crate::inputs::{serve_spec, serve_submit, Submit};
use crate::report::{measured, metric, peak_rss_mb, Outcome};
use crate::spans::Tracer;
use crate::stats::{median, percentile, samples_beyond, sorted};

/// Status poll interval: well under the ~50 ms median submit→merged
/// latency, so polling adds little to what it measures.
pub const POLL: Duration = Duration::from_millis(5);
/// Every run yields at least this many results, so that ten or more
/// samples lie beyond p90.
pub const MIN_STUDIES: u64 = 100;
/// A study with no result after this long counts as errored.
const STUDY_TIMEOUT: Duration = Duration::from_secs(60);
/// Set-up repeats before the loop, and as many again after it: `setup_s`
/// is the median of both, so that it samples the machine at more than
/// one moment of the run.
const SETUP_REPEATS: usize = 13;
/// Digests recorded per client at the default seed.
pub const RECORDED_PER_CLIENT: u64 = 256;
pub const RECORDED_CLIENTS: u64 = 4;

/// The daemon as a client sees it; tests substitute a scripted fake.
pub trait Endpoint: Sync {
    fn submit(&self, spec: &Value) -> Result<(u16, Value), String>;
    fn status(&self, key: &str) -> Result<(u16, Value), String>;
}

impl Endpoint for Client {
    fn submit(&self, spec: &Value) -> Result<(u16, Value), String> {
        self.post("/studies", spec, &[])
    }
    fn status(&self, key: &str) -> Result<(u16, Value), String> {
        self.get(&format!("/studies/{key}"))
    }
}

/// One study a client saw through to its merged result.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    pub client: u64,
    pub fresh: u64,
    pub key: String,
    pub digest: String,
    pub counts: OutcomeCounts,
    pub cache_hit: bool,
    pub latency_ms: f64,
    /// Since the first submit of the loop.
    pub done_at: Duration,
}

/// One client's accounting.
#[derive(Debug, Default)]
pub struct ClientLog {
    pub tally: Tally,
    pub served: Vec<Served>,
    pub submit_rtt_ms: Vec<f64>,
    pub status_rtt_ms: Vec<f64>,
    /// Status polls per study that produced a result.
    pub polls: Vec<u64>,
}

/// When the loop stops: after `min_time` and `min_results` results, or
/// at `hard_stop` whatever the count.
pub struct Stop {
    pub min_time: Duration,
    pub min_results: u64,
    pub hard_stop: Duration,
}

/// How one study ended.
enum End {
    Result {
        key: String,
        digest: String,
        counts: OutcomeCounts,
        polls: u64,
    },
    Refused,
    Errored,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Submit one spec and poll until its merged result appears.
#[allow(clippy::too_many_arguments)]
fn one_study(
    ep: &dyn Endpoint,
    spec: &StudySpec,
    poll: Duration,
    stop: &Stop,
    start: Instant,
    tr: &Tracer,
    sid: u64,
    study_id: u64,
    log: &mut ClientLog,
) -> End {
    let body = serde_json::to_value(spec).expect("the vendored serializer is infallible");
    let (reply, rtt) = tr.span("serve.submit", Some(sid), study_id, |_| ep.submit(&body));
    log.submit_rtt_ms.push(ms(rtt));
    let key = match reply {
        Ok((code, doc)) if (200..300).contains(&code) => {
            match doc.get("key").and_then(Value::as_str) {
                Some(k) => k.to_string(),
                None => return End::Errored,
            }
        }
        Ok((code, doc)) => {
            eprintln!(
                "perfbench: submit refused ({code}): {}",
                Client::error_of(&doc)
            );
            return End::Refused;
        }
        Err(e) => {
            eprintln!("perfbench: submit failed: {e}");
            return End::Errored;
        }
    };
    let submitted = Instant::now();
    let mut polls = 0;
    loop {
        std::thread::sleep(poll);
        polls += 1;
        let (reply, rtt) = tr.span("serve.status", Some(sid), study_id, |_| ep.status(&key));
        log.status_rtt_ms.push(ms(rtt));
        match reply {
            Ok((200, doc)) => {
                if let Some(r) = doc.get("result") {
                    let counts = r.get("counts").and_then(|c| serde_json::from_value(c).ok());
                    return match (served_digest(r), counts) {
                        (Some(digest), Some(counts)) => End::Result {
                            key,
                            digest,
                            counts,
                            polls,
                        },
                        _ => End::Errored,
                    };
                }
                if doc.get("state").and_then(Value::as_str) == Some("failed") {
                    eprintln!("perfbench: study {key} failed");
                    return End::Errored;
                }
            }
            Ok((code, doc)) => {
                eprintln!(
                    "perfbench: status of {key} refused ({code}): {}",
                    Client::error_of(&doc)
                );
                return End::Refused;
            }
            Err(e) => {
                eprintln!("perfbench: status of {key}: {e}");
                return End::Errored;
            }
        }
        if submitted.elapsed() >= STUDY_TIMEOUT || start.elapsed() >= stop.hard_stop {
            eprintln!("perfbench: study {key} has no result after {polls} polls");
            return End::Errored;
        }
    }
}

/// Run one closed-loop client until `stop` says so.
#[allow(clippy::too_many_arguments)]
pub fn client_loop(
    ep: &dyn Endpoint,
    client: u64,
    seed: u64,
    start: Instant,
    stop: &Stop,
    results: &AtomicU64,
    poll: Duration,
    tr: &Tracer,
) -> ClientLog {
    let mut log = ClientLog::default();
    // Per fresh spec sent so far: has it produced a result?
    let mut completed: Vec<bool> = Vec::new();
    for k in 0.. {
        let elapsed = start.elapsed();
        let enough = elapsed >= stop.min_time && results.load(Ordering::SeqCst) >= stop.min_results;
        if enough || elapsed >= stop.hard_stop {
            break;
        }
        let (fresh, cache_hit) = match serve_submit(seed, client, k, completed.len() as u64) {
            Submit::Fresh { fresh, .. } => {
                completed.push(false);
                (fresh, false)
            }
            Submit::Resend { fresh } => (fresh, completed[fresh as usize]),
        };
        let spec = serve_spec(seed, client, fresh);
        log.tally.attempted += 1;
        let study_id = (client << 32) | k;
        let open = tr.open();
        let sid = open.id();
        let end = one_study(ep, &spec, poll, stop, start, tr, sid, study_id, &mut log);
        let latency = tr.close(open, "serve.study", None, study_id);
        match end {
            End::Result {
                key,
                digest,
                counts,
                polls,
            } => {
                completed[fresh as usize] = true;
                log.polls.push(polls);
                log.served.push(Served {
                    client,
                    fresh,
                    key,
                    digest,
                    counts,
                    cache_hit,
                    latency_ms: ms(latency),
                    done_at: start.elapsed(),
                });
                results.fetch_add(1, Ordering::SeqCst);
            }
            End::Refused => log.tally.non_2xx += 1,
            End::Errored => log.tally.errored += 1,
        }
    }
    log
}

/// Bind a daemon on an ephemeral port over a fresh store (store, queue,
/// ops log and telemetry open).
fn bind(root: &Path, threads: usize) -> Result<Daemon, String> {
    Daemon::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        store: root.to_path_buf(),
        workers: threads,
        ..ServeConfig::default()
    })
}

/// The serve workload's set-up: bind the daemon, then compile and
/// prepare every (micro, ISA, category) its specs draw from, which the
/// output check reuses. Binding alone takes a fraction of a millisecond,
/// too little to time steadily; the compile step is the same `vbench` /
/// `core` set-up the batch workloads time.
fn set_up(root: &Path, threads: usize, tr: &Tracer) -> Result<(Daemon, Programs), String> {
    let (daemon, _) = tr.span("serve.bind", None, 0, |_| bind(root, threads));
    let daemon = daemon?;
    let mut programs = Programs::default();
    for bench in vbench::MICRO_NAMES {
        for isa in ["avx", "sse"] {
            for category in vulfi::SPEC_CATEGORIES {
                let spec = StudySpec {
                    bench: bench.to_string(),
                    isa: isa.to_string(),
                    category: category.to_string(),
                    ..StudySpec::default()
                };
                programs.get(&spec, tr)?;
            }
        }
    }
    Ok((daemon, programs))
}

/// Set up `SETUP_REPEATS` times under `out`; keep the last, return it
/// with every wall.
fn set_up_repeated(out: &Path, threads: usize) -> Result<(Daemon, Programs, Vec<f64>), String> {
    let silent = Tracer::new(false);
    let mut walls = Vec::new();
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        let root = out.join(format!("setup{i}"));
        let t = Instant::now();
        let (d, p) = set_up(&root, threads, &silent)?;
        walls.push(t.elapsed().as_secs_f64());
        if let Some((prev, _, prev_root)) = last.replace((d, p, root)) {
            drop(prev);
            let _ = std::fs::remove_dir_all(prev_root);
        }
    }
    let (d, p, _) = last.expect("SETUP_REPEATS is positive");
    Ok((d, p, walls))
}

/// One closed loop against a running daemon; returns the client logs
/// and the wall time from the first submit until every client stopped.
fn closed_loop(
    daemon: Daemon,
    seed: u64,
    threads: usize,
    stop: &Stop,
    tr: &Tracer,
) -> Result<(Vec<ClientLog>, Duration), String> {
    let addr = daemon.local_addr()?.to_string();
    let handle = daemon.handle();
    let results = AtomicU64::new(0);
    std::thread::scope(|s| {
        let d = s.spawn(move || daemon.run());
        let start = Instant::now();
        let clients: Vec<_> = (0..threads as u64)
            .map(|c| {
                let ep = Client::new(addr.clone());
                let results = &results;
                s.spawn(move || client_loop(&ep, c, seed, start, stop, results, POLL, tr))
            })
            .collect();
        let logs: Vec<ClientLog> = clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let wall = start.elapsed();
        handle.stop();
        d.join().expect("daemon thread panicked")?;
        Ok((logs, wall))
    })
}

/// Compiled workloads and prepared programs, built on first use.
#[derive(Default)]
struct Programs {
    workloads: HashMap<(String, String), SpmdWorkload>,
    progs: HashMap<(String, String, String), Prepared>,
}

impl Programs {
    fn get(&mut self, spec: &StudySpec, tr: &Tracer) -> Result<(&SpmdWorkload, &Prepared), String> {
        let wk = (spec.bench.clone(), spec.isa.clone());
        if !self.workloads.contains_key(&wk) {
            let (w, _) = tr.span("vbench.build", None, 0, |_| build(&spec.bench, &spec.isa));
            self.workloads.insert(wk.clone(), w);
        }
        let w = &self.workloads[&wk];
        let pk = (spec.bench.clone(), spec.isa.clone(), spec.category.clone());
        if !self.progs.contains_key(&pk) {
            let category = spec.site_category()?;
            let (p, _) = tr.span("core.prepare", None, 0, |_| vulfi::prepare(w, category));
            let mut p = p.map_err(|e| e.to_string())?;
            p.model = spec.fault_model()?;
            self.progs.insert(pk.clone(), p);
        }
        Ok((w, &self.progs[&pk]))
    }
}

/// Check every served result: its key must be the one the benchmark
/// derives for the spec, and its digest the recorded one (default seed)
/// or that of an untimed `vulfi::run_study`. A re-sent spec must give its
/// first result again.
fn check(
    seed: u64,
    logs: &[ClientLog],
    programs: &mut Programs,
    tr: &Tracer,
) -> Result<u64, String> {
    let recorded = Recorded::parse(include_str!("../digests/serve-closed-loop.txt"))?;
    let mut expected: BTreeMap<(u64, u64), (String, String)> = BTreeMap::new();
    let mut mismatched = 0;
    for s in logs.iter().flat_map(|l| &l.served) {
        let (key, digest) = match expected.entry((s.client, s.fresh)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(slot) => {
                let spec = serve_spec(seed, s.client, s.fresh);
                let cfg = spec.study_config();
                let (w, prog) = programs.get(&spec, tr)?;
                let (key, _) = tr.span("orch.key", None, 0, |_| {
                    vulfi_orch::study_key(prog, w.name(), &spec.isa, &cfg)
                });
                let digest = match recorded.get(s.client, s.fresh) {
                    Some(d) if seed == DEFAULT_SEED => d.to_string(),
                    _ => {
                        let r = vulfi::run_study(prog, w, &cfg).map_err(|e| e.to_string())?;
                        crate::check::result_digest(&r)
                    }
                };
                slot.insert((key.0, digest))
            }
        };
        if *key != s.key || *digest != s.digest {
            eprintln!(
                "perfbench: served study {} (client {} spec {}) got {}, want key {key} digest {digest}",
                s.key, s.client, s.fresh, s.digest
            );
            mismatched += 1;
        }
    }
    Ok(mismatched)
}

fn tally_of(logs: &[ClientLog], mismatched: u64) -> Tally {
    let mut t = Tally::default();
    for l in logs {
        t.add(&l.tally);
    }
    t.mismatched += mismatched;
    t
}

fn served(logs: &[ClientLog]) -> impl Iterator<Item = &Served> {
    logs.iter().flat_map(|l| &l.served)
}

/// Result times since the first submit, ascending.
fn done_times(logs: &[ClientLog]) -> Vec<f64> {
    sorted(
        &served(logs)
            .map(|s| s.done_at.as_secs_f64())
            .collect::<Vec<_>>(),
    )
}

/// Time until the `n`-th result (or the last, if fewer arrived).
fn time_to_nth(logs: &[ClientLog], n: u64) -> f64 {
    let done = done_times(logs);
    let idx = (n as usize).min(done.len()).saturating_sub(1);
    done.get(idx).copied().unwrap_or(0.0)
}

/// Median time to `n` more verdicts: the loop's results cut into
/// consecutive blocks of `n`, each timed from the end of the one before.
fn time_per_block(logs: &[ClientLog], n: u64) -> f64 {
    let done = done_times(logs);
    let mut blocks = Vec::new();
    let mut from = 0.0;
    for chunk in done.chunks_exact(n.max(1) as usize) {
        let end = chunk[chunk.len() - 1];
        blocks.push(end - from);
        from = end;
    }
    median(&blocks).unwrap_or_else(|| time_to_nth(logs, n))
}

fn experiments_of(spec: &StudySpec) -> u64 {
    (spec.experiments * spec.campaigns) as u64
}

/// Untraced run: the closed loop for `seconds` (and at least
/// [`MIN_STUDIES`] results), then the output check.
pub fn run(seed: u64, seconds: f64, out: &Path, threads: usize) -> Result<Outcome, String> {
    let silent = Tracer::new(false);
    let (daemon, mut programs, mut setup_walls) = set_up_repeated(&out.join("before"), threads)?;
    let stop = Stop {
        min_time: Duration::from_secs_f64(seconds),
        min_results: MIN_STUDIES,
        hard_stop: Duration::from_secs_f64(seconds + 60.0),
    };
    let (logs, wall) = closed_loop(daemon, seed, threads, &stop, &silent)?;
    let rss = peak_rss_mb();
    setup_walls.extend(set_up_repeated(&out.join("after"), threads)?.2);
    let setup_s = median(&setup_walls).expect("at least one set-up");
    let mismatched = check(seed, &logs, &mut programs, &silent)?;
    let tally = tally_of(&logs, mismatched);
    let executed: u64 = served(&logs)
        .filter(|s| !s.cache_hit)
        .map(|s| experiments_of(&serve_spec(seed, s.client, s.fresh)))
        .sum();
    let lat = sorted(&served(&logs).map(|s| s.latency_ms).collect::<Vec<_>>());
    let hits = served(&logs).filter(|s| s.cache_hit).count() as u64;
    let metrics = vec![
        metric("exp_per_s", executed as f64 / wall.as_secs_f64(), "exp/s"),
        metric("time_to_verdict_s", time_per_block(&logs, MIN_STUDIES), "s"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", rss, "MiB"),
        metric(
            "submit_to_merged_ms.p50",
            percentile(&lat, 0.5).unwrap_or(0.0),
            "ms",
        ),
        metric(
            "submit_to_merged_ms.p90",
            percentile(&lat, 0.9).unwrap_or(0.0),
            "ms",
        ),
    ];
    let details = vec![
        ("studies".to_string(), Value::from(lat.len() as u64)),
        ("cache_hits".to_string(), Value::from(hits)),
        ("experiments".to_string(), Value::from(executed)),
        ("clients".to_string(), Value::from(threads as u64)),
        ("poll_interval_ms".to_string(), Value::from(ms(POLL))),
        (
            "submit_to_merged_samples".to_string(),
            Value::from(lat.len() as u64),
        ),
        (
            "samples_beyond_p90".to_string(),
            Value::from(samples_beyond(lat.len(), 0.9) as u64),
        ),
    ];
    let _ = std::fs::remove_dir_all(out);
    Ok(Outcome {
        metrics,
        tally,
        details,
        spans: Vec::new(),
    })
}

/// Traced run: the same closed loop to [`MIN_STUDIES`] results untraced
/// and then traced on a fresh daemon, followed by the store replay and
/// golden probes that give the per-layer numbers.
pub fn run_traced(seed: u64, out: &Path, threads: usize) -> Result<Outcome, String> {
    let stop = Stop {
        min_time: Duration::ZERO,
        min_results: MIN_STUDIES,
        hard_stop: Duration::from_secs(60),
    };
    let tr = Tracer::new(true);
    let silent = Tracer::new(false);
    let (daemon, mut programs) = set_up(&out.join("untraced"), threads, &tr)?;
    let (logs_u, _) = closed_loop(daemon, seed, threads, &stop, &silent)?;
    let root = out.join("traced");
    let (daemon, _) = set_up(&root, threads, &tr)?;
    let (logs, _) = closed_loop(daemon, seed, threads, &stop, &tr)?;
    let ttv_u = time_to_nth(&logs_u, MIN_STUDIES);
    let ttv_t = time_to_nth(&logs, MIN_STUDIES);

    let mismatched =
        check(seed, &logs_u, &mut programs, &tr)? + check(seed, &logs, &mut programs, &tr)?;
    let mut tally = tally_of(&logs_u, 0);
    tally.add(&tally_of(&logs, mismatched));

    // The daemon's own account of each job, read back after the run.
    let events = OpsLog::open(&root)
        .and_then(|l| l.events())
        .map_err(|e| e.to_string())?;
    let summary = summarize_events(&events);
    let queue_wait: Vec<f64> = summary
        .jobs
        .iter()
        .filter_map(|j| j.queue_wait_ms.map(|w| w as f64))
        .collect();
    let shard_wall_ns: u64 = summary.jobs.iter().map(|j| j.shard_wall_ns).sum();
    let shard_ms = sorted(
        &events
            .iter()
            .filter(|e| e.kind == OpsKind::ShardDone)
            .filter_map(|e| e.wall_ns.map(|ns| ns as f64 / 1e6))
            .collect::<Vec<_>>(),
    );

    // Store replay: read each fresh study's shards back, append them to a
    // second store and merge there.
    let store = Store::open(&root).map_err(|e| e.to_string())?;
    let replay = Store::open(out.join("replay")).map_err(|e| e.to_string())?;
    let mut keys = BTreeSet::new();
    let (mut log_bytes, mut logged_exps) = (0u64, 0u64);
    let mut counts = OutcomeCounts::default();
    for s in served(&logs).filter(|s| !s.cache_hit) {
        counts.merge(&s.counts);
        if !keys.insert(s.key.clone()) {
            continue;
        }
        let key = vulfi_orch::StudyKey(s.key.clone());
        let study = store.study(&key);
        let (done, _) = tr.span("orch.shards_read", None, 0, |_| study.shards());
        let done = done.map_err(|e| e.to_string())?;
        let target = replay.study(&key);
        for rec in &done {
            tr.span("orch.append", None, 0, |_| target.append_shard(rec))
                .0
                .map_err(|e| e.to_string())?;
            logged_exps += rec.experiments.len() as u64;
        }
        let cfg = serve_spec(seed, s.client, s.fresh).study_config();
        let manifest = study.read_manifest().map_err(|e| e.to_string())?;
        tr.span("orch.merge", None, 0, |_| {
            vulfi_orch::merge(&cfg, manifest.category, &done)
        });
        log_bytes += std::fs::metadata(study.dir().join("shards.jsonl")).map_or(0, |m| m.len());
    }

    // Golden probes per served (benchmark, ISA, category), per input.
    let (mut run_ns, mut dyn_insts) = (0u64, 0u64);
    let mut templates = BTreeSet::new();
    for s in served(&logs).filter(|s| !s.cache_hit) {
        let spec = serve_spec(seed, s.client, s.fresh);
        if !templates.insert((spec.bench.clone(), spec.isa.clone(), spec.category.clone())) {
            continue;
        }
        let (w, prog) = programs.get(&spec, &tr)?;
        for input in 0..w.num_inputs().max(1) {
            let mut interp = vexec::Interp::new(&prog.module);
            let setup = w.setup(&mut interp.mem, input).map_err(|t| t.to_string())?;
            let mut host = VulfiHost::profile();
            let (r, dur) = tr.span("vexec.golden", None, 0, |_| {
                interp.run(&prog.entry, &setup.args, &mut host)
            });
            run_ns += dur.as_nanos() as u64;
            dyn_insts += r.map_err(|t| t.to_string())?.dyn_insts;
        }
    }
    let _ = std::fs::remove_dir_all(out);

    let spans = tr.take();
    let (ms_, us) = (1e-6, 1e-3);
    let p = |name: &str, per: f64, q: f64| percentile(&durations(&spans, name, per), q);
    let from_logs = |f: fn(&ClientLog) -> &Vec<f64>| {
        sorted(
            &logs
                .iter()
                .flat_map(|l| f(l).iter().copied())
                .collect::<Vec<_>>(),
        )
    };
    let polls: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.polls.iter().map(|&p| p as f64))
        .collect();
    let latency_ns: f64 = served(&logs).map(|s| s.latency_ms * 1e6).sum();
    let hit_ms = sorted(
        &served(&logs)
            .filter(|s| s.cache_hit)
            .map(|s| s.latency_ms)
            .collect::<Vec<_>>(),
    );
    let ratio = |a: f64, b: f64| (b > 0.0).then(|| a / b);
    let metrics = measured(vec![
        ("vbench.build_ms", p("vbench.build", ms_, 0.5), "ms"),
        ("core.prepare_ms", p("core.prepare", ms_, 0.5), "ms"),
        ("core.sdc", Some(counts.sdc as f64), "count"),
        ("core.benign", Some(counts.benign as f64), "count"),
        ("core.crash", Some(counts.crash as f64), "count"),
        (
            "vexec.ns_per_dyn_inst",
            ratio(run_ns as f64, dyn_insts as f64),
            "ns",
        ),
        ("vexec.golden_dyn_insts", Some(dyn_insts as f64), "count"),
        ("orch.shard_ms.p50", percentile(&shard_ms, 0.5), "ms"),
        ("orch.shard_ms.p99", percentile(&shard_ms, 0.99), "ms"),
        ("orch.append_us.p50", p("orch.append", us, 0.5), "us"),
        ("orch.append_us.p99", p("orch.append", us, 0.99), "us"),
        ("orch.shards_read_ms", p("orch.shards_read", ms_, 0.5), "ms"),
        ("orch.merge_ms", p("orch.merge", ms_, 0.5), "ms"),
        ("orch.key_ms", p("orch.key", ms_, 0.5), "ms"),
        (
            "orch.bytes_per_exp",
            ratio(log_bytes as f64, logged_exps as f64),
            "B",
        ),
        (
            "serve.submit_rtt_ms.p50",
            percentile(&from_logs(|l| &l.submit_rtt_ms), 0.5),
            "ms",
        ),
        (
            "serve.status_rtt_ms.p50",
            percentile(&from_logs(|l| &l.status_rtt_ms), 0.5),
            "ms",
        ),
        (
            "serve.polls_per_study",
            ratio(polls.iter().sum(), polls.len() as f64),
            "count",
        ),
        ("serve.queue_wait_ms.p50", median(&queue_wait), "ms"),
        (
            "serve.exec_share",
            ratio(shard_wall_ns as f64, latency_ns),
            "ratio",
        ),
        ("serve.cache_hit_ms.p50", percentile(&hit_ms, 0.5), "ms"),
        (
            "bench.trace_overhead_frac",
            ratio(ttv_t, ttv_u).map(|r| r - 1.0),
            "ratio",
        ),
    ]);
    let details = vec![
        (
            "studies".to_string(),
            Value::from(served(&logs).count() as u64),
        ),
        ("cache_hits".to_string(), Value::from(hit_ms.len() as u64)),
        ("untraced_time_to_100_s".to_string(), Value::from(ttv_u)),
        ("traced_time_to_100_s".to_string(), Value::from(ttv_t)),
        ("poll_interval_ms".to_string(), Value::from(ms(POLL))),
    ];
    Ok(Outcome {
        metrics,
        tally,
        details,
        spans,
    })
}

/// Digests of the first [`RECORDED_PER_CLIENT`] fresh specs of the first
/// [`RECORDED_CLIENTS`] clients at the default seed.
pub fn record_digests() -> Result<String, String> {
    let silent = Tracer::new(false);
    let mut programs = Programs::default();
    let mut entries = BTreeMap::new();
    for client in 0..RECORDED_CLIENTS {
        for fresh in 0..RECORDED_PER_CLIENT {
            let spec = serve_spec(DEFAULT_SEED, client, fresh);
            let (w, prog) = programs.get(&spec, &silent)?;
            let r = vulfi::run_study(prog, w, &spec.study_config()).map_err(|e| e.to_string())?;
            entries.insert((client, fresh), crate::check::result_digest(&r));
        }
    }
    Ok(Recorded::render(
        &format!(
            "serve-closed-loop: merged-result digests at seed {DEFAULT_SEED}, `client fresh digest`.\n\
             Regenerate with `perfbench digests --workload serve-closed-loop`."
        ),
        &entries,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A scripted daemon: submit `k` (0-based, in order) replies with
    /// `submits[k]`; status polls of key `kN` return a result after
    /// `ready[N]` polls, or `failed` / 500 when scripted so.
    struct Fake {
        submits: Vec<u16>,
        ready: Vec<Result<u64, u16>>,
        calls: Mutex<(usize, HashMap<String, u64>)>,
    }

    impl Endpoint for Fake {
        fn submit(&self, _spec: &Value) -> Result<(u16, Value), String> {
            let mut c = self.calls.lock().unwrap();
            let k = c.0;
            c.0 += 1;
            let code = self.submits.get(k).copied().unwrap_or(202);
            Ok((
                code,
                serde_json::json!({ "key": format!("k{k}"), "error": "scripted" }),
            ))
        }
        fn status(&self, key: &str) -> Result<(u16, Value), String> {
            let mut c = self.calls.lock().unwrap();
            let n = c.1.entry(key.to_string()).or_default();
            *n += 1;
            let idx: usize = key[1..].parse().unwrap();
            match self.ready.get(idx).copied().unwrap_or(Ok(1)) {
                Err(500) => Ok((500, serde_json::json!({ "error": "scripted" }))),
                Err(_) => Ok((200, serde_json::json!({ "state": "failed" }))),
                Ok(after) if *n >= after => Ok((
                    200,
                    serde_json::json!({ "state": "completed", "result": serde_json::json!({
                        "counts": serde_json::to_value(&OutcomeCounts { sdc: 1, ..OutcomeCounts::default() }).unwrap(),
                        "samples": vec![100.0f64],
                        "converged": true,
                    }) }),
                )),
                Ok(_) => Ok((200, serde_json::json!({ "state": "running" }))),
            }
        }
    }

    #[test]
    fn closed_loop_accounting_counts_every_attempt_once() {
        // Submit 1 is refused, study 2 fails, study 3's status is a 500,
        // study 0 needs 3 polls, everything else 1.
        let fake = Fake {
            submits: vec![202, 503],
            ready: vec![Ok(3), Ok(1), Err(0), Err(500)],
            calls: Mutex::new((0, HashMap::new())),
        };
        let stop = Stop {
            min_time: Duration::ZERO,
            min_results: 4,
            hard_stop: Duration::from_secs(30),
        };
        let results = AtomicU64::new(0);
        let tr = Tracer::new(true);
        let log = client_loop(
            &fake,
            0,
            1,
            Instant::now(),
            &stop,
            &results,
            Duration::ZERO,
            &tr,
        );
        // Attempts 0..=6: 0 ok, 1 refused, 2 failed, 3 status 500, 4..=6 ok.
        assert_eq!(log.served.len(), 4);
        assert_eq!(results.load(Ordering::SeqCst), 4);
        assert_eq!(
            (
                log.tally.attempted,
                log.tally.non_2xx,
                log.tally.errored,
                log.tally.mismatched
            ),
            (7, 2, 1, 0)
        );
        assert_eq!(log.polls, vec![3, 1, 1, 1]);
        assert_eq!(log.submit_rtt_ms.len(), 7);
        // Polls: 3 + 1 (failed) + 1 (500) + 3 × 1.
        assert_eq!(log.status_rtt_ms.len(), 8);
        assert!(log.served.iter().all(|s| s.digest.len() == 16));
        let spans = tr.take();
        assert_eq!(spans.iter().filter(|s| s.name == "serve.study").count(), 7);
        assert_eq!(spans.iter().filter(|s| s.name == "serve.status").count(), 8);
        assert_eq!(time_to_nth(std::slice::from_ref(&log), 2), {
            let mut d: Vec<f64> = log.served.iter().map(|s| s.done_at.as_secs_f64()).collect();
            d.sort_by(f64::total_cmp);
            d[1]
        });
    }
}
