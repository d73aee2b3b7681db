//! Chaos harness: the fault injector must survive the faults it
//! injects — and the ones the world injects into *it*.
//!
//! Three adversaries, all bounded and deterministic:
//!
//! 1. A workload that panics inside the engine for some inputs: the
//!    study must absorb it as a recorded Crash outcome, stay resumable,
//!    and still merge bit-identically to an uninterrupted run.
//! 2. A killer/corrupter that stops the runner mid-study, then truncates
//!    or byte-flips `shards.jsonl` between resumes: every resume either
//!    reproduces the uninterrupted study bit-for-bit or fails loudly and
//!    is healed by fsck — merged results are never silently altered.
//! 3. A panicking progress observer: reporting is best-effort and must
//!    not take the study down with it.

use std::path::PathBuf;
use std::sync::Mutex;

use proptest::prelude::*;
use vir::analysis::SiteCategory;
use vulfi::workload::{SetupResult, Workload};
use vulfi::{prepare, run_study, StudyConfig, StudyResult};
use vulfi_orch::{merge, run_study_persistent, RunOptions, Store};

/// Serialises tests that touch process-global state (the strict flag and
/// the engine-fault log).
static GLOBALS_GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    GLOBALS_GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn workload() -> vbench::SpmdWorkload {
    vbench::micro_benchmark("vector sum", spmdc::VectorIsa::Avx, vbench::Scale::Test).unwrap()
}

fn cfg() -> StudyConfig {
    StudyConfig {
        experiments_per_campaign: 12,
        target_margin: 50.0,
        min_campaigns: 4,
        max_campaigns: 5,
        seed: 0x000C_4A05,
        ..StudyConfig::default()
    }
}

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vulfi_chaos_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Bit-identical comparison of two study results.
fn assert_identical(a: &StudyResult, b: &StudyResult) {
    assert_eq!(a.category, b.category);
    assert_eq!(a.converged, b.converged);
    assert_eq!(a.counts, b.counts);
    let bits = |xs: &[f64]| -> Vec<u64> { xs.iter().map(|x| x.to_bits()).collect() };
    assert_eq!(
        bits(&a.samples),
        bits(&b.samples),
        "sample rates must match bit-for-bit"
    );
    assert_eq!(a.summary.mean.to_bits(), b.summary.mean.to_bits());
    assert_eq!(a.summary.std_dev.to_bits(), b.summary.std_dev.to_bits());
    assert_eq!(a.summary.margin_95.to_bits(), b.summary.margin_95.to_bits());
    assert_eq!(a.summary.campaigns, b.summary.campaigns);
}

/// A real workload that panics inside `setup` for one of its inputs —
/// the stand-in for any engine panic on malformed faulted state.
struct PanicWorkload {
    inner: vbench::SpmdWorkload,
}

impl Workload for PanicWorkload {
    fn name(&self) -> &str {
        "panicky vector sum"
    }
    fn entry(&self) -> &str {
        self.inner.entry()
    }
    fn module(&self) -> &vir::Module {
        self.inner.module()
    }
    fn num_inputs(&self) -> u64 {
        self.inner.num_inputs()
    }
    fn setup(&self, mem: &mut vexec::Memory, input: u64) -> Result<SetupResult, vexec::Trap> {
        if input == 1 {
            panic!("chaos: deliberate engine panic on input 1");
        }
        self.inner.setup(mem, input)
    }
}

#[test]
fn panicking_experiments_stay_contained_resumable_and_bit_identical() {
    let _g = gate();
    vulfi::drain_engine_faults();
    let w = PanicWorkload { inner: workload() };
    let cfg = cfg();
    let prog = prepare(&w, SiteCategory::PureData).unwrap();

    // Uninterrupted single-process reference: the panics are contained
    // as Crash outcomes and the study completes.
    let reference = run_study(&prog, &w, &cfg).unwrap();
    assert!(
        reference.counts.crash > 0,
        "panicking experiments must be counted as crashes: {:?}",
        reference.counts
    );
    let faults = vulfi::drain_engine_faults();
    assert!(!faults.is_empty(), "absorbed panics must be logged");
    for f in &faults {
        assert_eq!(f.workload, "panicky vector sum");
        assert_eq!(f.input, 1);
        assert!(f.experiment.is_some(), "campaign provenance must be kept");
        assert!(f.message.contains("chaos: deliberate"), "{}", f.message);
    }

    // Kill after 2 shards, then resume: same result, bit for bit.
    let store = Store::open(temp_store("panic")).unwrap();
    let first = run_study_persistent(
        &prog,
        &w,
        w.name(),
        "avx",
        &cfg,
        &store,
        RunOptions {
            shard_size: 5,
            max_shards: Some(2),
            progress: None,
            trace: None,
        },
    )
    .unwrap();
    assert!(first.result.is_none());
    let second = run_study_persistent(
        &prog,
        &w,
        w.name(),
        "avx",
        &cfg,
        &store,
        RunOptions {
            shard_size: 5,
            max_shards: None,
            progress: None,
            trace: None,
        },
    )
    .unwrap();
    assert_identical(&second.result.unwrap(), &reference);
    vulfi::drain_engine_faults();
}

#[test]
fn strict_mode_aborts_instead_of_recording() {
    let _g = gate();
    let w = PanicWorkload { inner: workload() };
    let cfg = cfg();
    let prog = prepare(&w, SiteCategory::PureData).unwrap();
    vulfi::set_strict(true);
    let result = run_study(&prog, &w, &cfg);
    vulfi::set_strict(false);
    let err = result.expect_err("strict mode must abort");
    assert!(err.0.contains("strict mode"), "{err}");
    vulfi::drain_engine_faults();
}

#[test]
fn panicking_progress_observer_does_not_lose_the_study() {
    let w = workload();
    let cfg = cfg();
    let prog = prepare(&w, SiteCategory::PureData).unwrap();
    let reference = run_study(&prog, &w, &cfg).unwrap();

    let store = Store::open(temp_store("observer")).unwrap();
    let out = run_study_persistent(
        &prog,
        &w,
        "vector sum",
        "avx",
        &cfg,
        &store,
        RunOptions {
            shard_size: 5,
            max_shards: None,
            progress: Some(Box::new(|_| panic!("chaos: observer down"))),
            trace: None,
        },
    )
    .unwrap();
    assert_identical(&out.result.unwrap(), &reference);
}

/// Tiny deterministic RNG for the chaos schedule (xorshift64*).
struct Chaos(u64);

/// Flip one bit of one byte of a log: first draw the line, then the
/// byte within it. Records carry wall times, so an offset drawn over the
/// whole file would make which line gets hit — and so whether the flip
/// is a healable torn tail or mid-file corruption — depend on timing.
fn flip_a_byte(chaos: &mut Chaos, bytes: &mut [u8]) {
    let starts: Vec<usize> = std::iter::once(0)
        .chain(
            bytes
                .iter()
                .enumerate()
                .filter(|&(i, &b)| b == b'\n' && i + 1 < bytes.len())
                .map(|(i, _)| i + 1),
        )
        .collect();
    let line = chaos.below(starts.len() as u64) as usize;
    let end = starts.get(line + 1).copied().unwrap_or(bytes.len());
    let pos = starts[line] + chaos.below((end - starts[line]) as u64) as usize;
    bytes[pos] ^= 1 << chaos.below(8);
}

impl Chaos {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// Kill the runner mid-study, then truncate or byte-flip the shard log,
/// every round, for many rounds: each resume must either reproduce the
/// reference bit-identically or fail loudly and be healed by fsck.
#[test]
fn kill_corrupt_fsck_resume_loop_always_converges_bit_identically() {
    let w = workload();
    let cfg = cfg();
    let prog = prepare(&w, SiteCategory::PureData).unwrap();
    let reference = run_study(&prog, &w, &cfg).unwrap();

    let store = Store::open(temp_store("killloop")).unwrap();
    let key = vulfi_orch::study_key(&prog, "vector sum", "avx", &cfg);
    let log = store.root().join(&key.0).join("shards.jsonl");
    let mut chaos = Chaos(0xDEAD_05EC);
    let mut repairs = 0usize;

    for round in 0..12 {
        // Partial progress, "killed" after a couple of shards.
        let partial = run_study_persistent(
            &prog,
            &w,
            "vector sum",
            "avx",
            &cfg,
            &store,
            RunOptions {
                shard_size: 5,
                max_shards: Some(2),
                progress: None,
                trace: None,
            },
        );
        // The previous round's corruption may only surface now — that is
        // the loud path; anything else must have succeeded.
        if let Err(e) = partial {
            assert!(e.0.contains("fsck"), "unexpected failure: {e}");
            let report = store.fsck(true).unwrap();
            assert!(report.studies.iter().any(|s| s.quarantined.is_some()));
            repairs += 1;
        }

        // Corrupt the log: truncate the tail, flip one byte, or leave it.
        if log.is_file() {
            let mut bytes = std::fs::read(&log).unwrap();
            if !bytes.is_empty() {
                match chaos.below(3) {
                    0 => {
                        let cut = 1 + chaos.below(40.min(bytes.len() as u64 - 1)) as usize;
                        bytes.truncate(bytes.len() - cut);
                    }
                    1 => flip_a_byte(&mut chaos, &mut bytes),
                    _ => {}
                }
                std::fs::write(&log, &bytes).unwrap();
            }
        }

        // Recover: loud error → fsck heals; then resume to completion.
        if store.study(&key).shards().is_err() {
            let report = store.fsck(true).unwrap();
            assert!(report.studies.iter().any(|s| s.quarantined.is_some()));
            repairs += 1;
        }
        let out = run_study_persistent(
            &prog,
            &w,
            "vector sum",
            "avx",
            &cfg,
            &store,
            RunOptions {
                shard_size: 5,
                max_shards: None,
                progress: None,
                trace: None,
            },
        )
        .unwrap();
        assert_identical(
            out.result
                .as_ref()
                .unwrap_or_else(|| panic!("round {round}: study must complete after recovery")),
            &reference,
        );
    }
    // The schedule is deterministic; make sure it actually exercised the
    // quarantine path, not just torn tails.
    assert!(repairs > 0, "chaos schedule never hit the fsck path");
}

/// The journal under the same adversary as the shard store: a daemon
/// killed mid-append leaves a torn tail the next open heals; a flipped
/// byte stops the next daemon at open, loudly, naming `vulfi store fsck
/// --repair`, and the store-wide fsck that command runs quarantines and
/// salvages the journal. After that, startup recovery re-queues whatever
/// the surviving events left running, every readable state folds to
/// internally consistent jobs, and the live table always equals a fresh
/// replay.
#[test]
fn journal_survives_kill_corrupt_fsck_resume_loop() {
    use vulfi::StudySpec;
    use vulfi_orch::{JobState, Journal, OpsEvent, OpsKind};

    let root = temp_store("journal");
    let mut chaos = Chaos(0x0051_ED0C);
    let mut repairs = 0usize;

    for round in 0..12u64 {
        // A "new daemon": a torn tail heals, mid-file corruption is loud.
        let mut journal = match Journal::open(&root) {
            Ok(j) => j,
            Err(e) => {
                assert!(e.to_string().contains("vulfi store fsck --repair"), "{e}");
                let report = Store::open(&root).unwrap().fsck(true).unwrap();
                let j = report
                    .studies
                    .iter()
                    .find(|s| s.key.0 == "journal")
                    .expect("store fsck must cover the journal");
                assert!(j.quarantined.is_some(), "repair must quarantine");
                assert!(!Store::open(&root).unwrap().fsck(false).unwrap().dirty());
                repairs += 1;
                Journal::open(&root).expect("the daemon must start after repair")
            }
        };
        journal.recover().unwrap();
        assert!(
            journal
                .table()
                .jobs
                .iter()
                .all(|j| j.state != JobState::Running),
            "startup recovery re-queues every orphan"
        );

        // This daemon runs one job; every other daemon dies before the
        // job completes.
        let key = format!("study{round}");
        let id = journal.submit(&StudySpec::default(), &key, None).unwrap();
        journal.started(id).unwrap();
        let ev = |kind| OpsEvent::new(kind).job(id).key(&key).worker("w0");
        journal
            .append(ev(OpsKind::LeaseGranted).shard(0, 0, 5))
            .unwrap();
        journal
            .append(ev(OpsKind::ShardDone).shard(0, 0, 5).wall_ns(1_000_000))
            .unwrap();
        let finished = round % 2 == 0;
        if finished {
            journal.append(ev(OpsKind::Merged)).unwrap();
            journal.completed(id).unwrap();
        }
        let job = journal.table().job(id).expect("a fresh submit must fold");
        let want = if finished {
            JobState::Completed
        } else {
            JobState::Running
        };
        assert_eq!(job.state, want);
        assert_eq!(job.merged, finished);
        for j in &journal.table().jobs {
            assert!(
                j.shards >= u64::from(!j.workers.is_empty()),
                "workers imply shards: {j:?}"
            );
        }
        assert_eq!(Journal::open(&root).unwrap().table(), journal.table());

        // Chaos: torn trailing append (killed daemon), a flipped byte,
        // or nothing.
        let path = journal.path();
        let mut bytes = std::fs::read(&path).unwrap();
        match chaos.below(3) {
            0 => bytes.extend_from_slice(b"\n{\"unix_ms\":1,\"kind\":\"Subm"),
            1 => flip_a_byte(&mut chaos, &mut bytes),
            _ => {}
        }
        std::fs::write(&path, &bytes).unwrap();
    }
    // The deterministic schedule must exercise the quarantine path.
    assert!(repairs > 0, "chaos schedule never hit the fsck path");
}

/// The telemetry series is a CheckedLog like the others: a sampler
/// killed mid-append leaves a torn tail the next open heals, a flipped
/// byte is loud and quarantined by fsck, and the ring always resumes
/// from whatever samples survived.
#[test]
fn telemetry_log_survives_kill_corrupt_fsck_resume_loop() {
    use vulfi_orch::{Metrics, Sampler, SamplerInputs, TelemetryLog};

    let root = temp_store("telemetry");
    let mut chaos = Chaos(0x7E1E_0E7E);
    let mut repairs = 0usize;
    let metrics = Metrics::new();
    let mut clock = 1_000_000u64;

    for round in 0..12u64 {
        // Reopen (a "restarted daemon"): heals torn tails, never
        // refuses to start over mid-file corruption.
        let log = TelemetryLog::open(&root).unwrap();
        if log.samples().is_err() {
            let report = log.fsck(true).unwrap();
            assert!(report.quarantined.is_some(), "repair must quarantine");
            repairs += 1;
        }

        // Resume exactly as the daemon does: continue the sampler from
        // the persisted tail so rates stay deltas, not resets.
        let before = log.samples().unwrap();
        let mut sampler = match before.last() {
            Some(last) => Sampler::resume_from(last.clone()),
            None => Sampler::new(),
        };
        metrics.add_engine_faults(round + 1);
        for _ in 0..3 {
            clock += 1_000;
            let sample = sampler.sample_at(clock, &metrics.snapshot(), SamplerInputs::default());
            log.append(&sample).unwrap();
        }

        // The ring reloads the persisted tail and ends on this round's
        // newest sample.
        let ring = log.ring(1024).unwrap();
        assert_eq!(ring.len(), before.len() + 3);
        assert_eq!(ring.latest().unwrap().unix_ms, clock);

        // Chaos: torn trailing append (killed sampler), a flipped byte,
        // or nothing.
        let path = log.path();
        let mut bytes = std::fs::read(&path).unwrap();
        match chaos.below(3) {
            0 => bytes.extend_from_slice(b"\n{\"unix_ms\":12,\"exp"),
            1 => {
                let pos = chaos.below(bytes.len() as u64) as usize;
                bytes[pos] ^= 1 << chaos.below(8);
            }
            _ => {}
        }
        std::fs::write(&path, &bytes).unwrap();
    }
    assert!(repairs > 0, "chaos schedule never hit the fsck path");
}

/// Telemetry must observe, never perturb: a study run while a sampler
/// thread drains the metrics registry as fast as it can must produce
/// the bit-identical result — and byte-identical store files — of the
/// same study with no sampler at all.
#[test]
fn concurrent_telemetry_sampling_preserves_bit_identical_studies() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use vulfi_orch::{Sampler, SamplerInputs, TelemetryLog};

    let _g = gate();
    vulfi::drain_engine_faults();
    let w = workload();
    let cfg = cfg();
    let prog = prepare(&w, SiteCategory::PureData).unwrap();
    let opts = || RunOptions {
        shard_size: 4,
        max_shards: None,
        progress: None,
        trace: None,
    };

    // Reference: sampling off.
    let quiet = temp_store("tel_off");
    let store = Store::open(&quiet).unwrap();
    let off = run_study_persistent(&prog, &w, "vector sum", "avx", &cfg, &store, opts())
        .unwrap()
        .result
        .expect("study completes");

    // Same study with a pedal-to-the-floor sampler appending telemetry
    // into the same store root the whole time.
    let sampled = temp_store("tel_on");
    let store = Store::open(&sampled).unwrap();
    let stop = std::sync::Arc::new(AtomicBool::new(false));
    let sampler_stop = stop.clone();
    let sampler_root = sampled.clone();
    let sampler = std::thread::spawn(move || -> u64 {
        let log = TelemetryLog::open(&sampler_root).unwrap();
        let mut s = Sampler::new();
        let mut n = 0u64;
        while !sampler_stop.load(Ordering::Relaxed) {
            let snap = vulfi_orch::metrics::global().snapshot();
            log.append(&s.sample_now(&snap, SamplerInputs::default()))
                .unwrap();
            n += 1;
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        n
    });
    let on = run_study_persistent(&prog, &w, "vector sum", "avx", &cfg, &store, opts())
        .unwrap()
        .result
        .expect("sampled study completes");
    stop.store(true, Ordering::Relaxed);
    let samples = sampler.join().unwrap();
    assert!(samples > 0, "sampler never sampled");

    assert_identical(&off, &on);
    // Store-level: the sampler wrote only under <store>/telemetry/. The
    // manifest is fully deterministic, so it must match byte for byte;
    // shard records must match field for field once the two documented
    // nondeterministic axes (wall time, parallel append order) are
    // normalized out.
    let key = vulfi_orch::study_key(&prog, "vector sum", "avx", &cfg);
    let a = std::fs::read(quiet.join(&key.0).join("manifest.json")).unwrap();
    let b = std::fs::read(sampled.join(&key.0).join("manifest.json")).unwrap();
    assert_eq!(a, b, "manifest.json diverged with sampling on");
    let normalize = |root: &PathBuf| {
        let mut recs = Store::open(root).unwrap().study(&key).shards().unwrap();
        recs.sort_by_key(|r| (r.campaign, r.start));
        for r in &mut recs {
            r.wall_ns = 0;
        }
        recs
    };
    let (a, b) = (normalize(&quiet), normalize(&sampled));
    assert_eq!(a.len(), b.len(), "shard count diverged with sampling on");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(
            (x.campaign, x.start, x.end),
            (y.campaign, y.start, y.end),
            "shard coordinates diverged"
        );
        assert_eq!(x.experiments, y.experiments, "experiments diverged");
    }
    assert!(
        sampled.join("telemetry").join("series.jsonl").exists(),
        "sampler must have persisted its series"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// One random mutation (truncation or bit flip at an arbitrary
    /// offset) of a complete study's shard log: the store must never
    /// silently change the merged result. Either the surviving records
    /// still merge bit-identically, or reading fails loudly and
    /// fsck + resume reproduces the reference exactly.
    #[test]
    fn random_corruption_is_loud_or_harmless(
        case_seed in 0u64..1000,
        flip in 0u64..2,
    ) {
        let w = workload();
        let cfg = StudyConfig {
            experiments_per_campaign: 8,
            target_margin: 50.0,
            min_campaigns: 4,
            max_campaigns: 4,
            seed: 0x0BAD_C0DE,
            ..StudyConfig::default()
        };
        let prog = prepare(&w, SiteCategory::PureData).unwrap();
        let reference = run_study(&prog, &w, &cfg).unwrap();

        let dir = std::env::temp_dir().join(format!(
            "vulfi_chaos_prop_{}_{}_{}",
            std::process::id(), case_seed, flip
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let opts = || RunOptions { shard_size: 3, max_shards: None, progress: None, trace: None };
        run_study_persistent(&prog, &w, "vector sum", "avx", &cfg, &store, opts()).unwrap();

        let key = vulfi_orch::study_key(&prog, "vector sum", "avx", &cfg);
        let log = store.root().join(&key.0).join("shards.jsonl");
        let mut bytes = std::fs::read(&log).unwrap();
        let mut chaos = Chaos(0x9E37_79B9 ^ case_seed);
        if flip == 0 {
            let pos = chaos.below(bytes.len() as u64) as usize;
            bytes[pos] ^= 1 << chaos.below(8);
        } else {
            let cut = 1 + chaos.below(bytes.len() as u64 - 1) as usize;
            bytes.truncate(bytes.len() - cut);
        }
        std::fs::write(&log, &bytes).unwrap();

        match store.study(&key).shards() {
            Ok(recs) => {
                // Readable after corruption (at worst a skipped torn
                // tail): whatever merges must already be the reference,
                // never a silently altered result.
                if let Some(r) = merge(&cfg, prog.category, &recs) {
                    assert_identical(&r, &reference);
                }
            }
            Err(e) => {
                prop_assert!(e.0.contains("fsck"), "loud error must point at fsck: {}", e);
                store.fsck(true).unwrap();
            }
        }
        let out = run_study_persistent(&prog, &w, "vector sum", "avx", &cfg, &store, opts()).unwrap();
        assert_identical(&out.result.unwrap(), &reference);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
