//! The per-input golden cache on `Prepared`: one golden run per
//! (program, input) however experiments race, failures never cached as
//! successes, and nothing stale served when the fault model changes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use rand::Rng;
use vexec::{Memory, RtVal, Scalar, Trap};
use vir::analysis::SiteCategory;
use vulfi::workload::{OutputRegion, SetupResult};
use vulfi::{
    campaign_seed, experiment_rng, prepare, run_campaign, run_experiment_range, FaultModel,
    Outcome, Workload,
};

const INPUTS: u64 = 3;

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

/// What input 1 does instead of running normally.
#[derive(Clone, Copy, PartialEq)]
enum Input1 {
    Runs,
    /// Hands the kernel a dangling pointer: the golden run traps.
    Traps,
    /// Panics in setup, i.e. inside the golden run.
    Panics,
}

/// Scale-by-two over a small buffer, counting `setup` calls per input.
struct Counting {
    module: vir::Module,
    input1: Input1,
    setups: [AtomicU64; INPUTS as usize],
}

impl Counting {
    fn new(input1: Input1) -> Counting {
        let src = r#"
define void @scale(ptr %a, i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %inext, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %p = getelementptr float, ptr %a, i32 %i
  %v = load float, ptr %p
  %d = fmul float %v, 2.0
  store float %d, ptr %p
  %inext = add i32 %i, 1
  br label %head
exit:
  ret void
}
"#;
        Counting {
            module: vir::parser::parse_module(src).unwrap(),
            input1,
            setups: Default::default(),
        }
    }

    fn setups(&self, input: u64) -> u64 {
        self.setups[input as usize].load(Ordering::SeqCst)
    }
}

impl Workload for Counting {
    fn name(&self) -> &str {
        "counting scale"
    }
    fn entry(&self) -> &str {
        "scale"
    }
    fn module(&self) -> &vir::Module {
        &self.module
    }
    fn num_inputs(&self) -> u64 {
        INPUTS
    }
    fn setup(&self, mem: &mut Memory, input: u64) -> Result<SetupResult, Trap> {
        self.setups[input as usize].fetch_add(1, Ordering::SeqCst);
        if input == 1 && self.input1 == Input1::Panics {
            panic!("deliberate golden-run panic on input 1");
        }
        let n = 6 + input * 2;
        let data: Vec<f32> = (0..n).map(|i| i as f32 + input as f32).collect();
        let a = mem.alloc_f32_slice(&data)?;
        let ptr = if input == 1 && self.input1 == Input1::Traps {
            0
        } else {
            a
        };
        Ok(SetupResult {
            args: vec![
                RtVal::Scalar(Scalar::ptr(ptr)),
                RtVal::Scalar(Scalar::i32(n as i32)),
            ],
            outputs: vec![OutputRegion {
                addr: a,
                bytes: n * 4,
            }],
        })
    }
}

/// The input experiment `i` of the campaign seeded `seed` draws.
fn drawn_input(seed: u64, i: usize) -> u64 {
    experiment_rng(seed, i).gen_range(0..INPUTS)
}

#[test]
fn racing_shards_share_one_golden_run_per_input() {
    let w = Counting::new(Input1::Runs);
    let prog = prepare(&w, SiteCategory::PureData).unwrap();
    let seed = campaign_seed(0x60_1D, 0);
    let threads = 4;
    let per = 10;
    let barrier = Barrier::new(threads);
    let results = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for t in 0..threads {
            let (w, prog, barrier, results) = (&w, &prog, &barrier, &results);
            s.spawn(move || {
                barrier.wait();
                let exps = run_experiment_range(prog, w, seed, t * per..(t + 1) * per).unwrap();
                results.lock().unwrap().extend(exps);
            });
        }
    });
    let results = results.into_inner().unwrap();
    assert_eq!(results.len(), threads * per);
    for input in 0..INPUTS {
        // Every experiment on the input ran one faulty setup; the golden
        // run added exactly one more, however the threads raced.
        let faulty = results
            .iter()
            .filter(|e| e.input == input && e.dynamic_sites > 0)
            .count() as u64;
        let drawn = results.iter().any(|e| e.input == input);
        assert_eq!(
            w.setups(input),
            faulty + drawn as u64,
            "input {input}: golden runs must be shared"
        );
    }

    // The warm cache changes nothing: a fresh program replays the same
    // records.
    let fresh = prepare(&w, SiteCategory::PureData).unwrap();
    let mut expected = run_experiment_range(&fresh, &w, seed, 0..threads * per).unwrap();
    let mut got = results;
    let key = |e: &vulfi::Experiment| format!("{e:?}");
    expected.sort_by_key(key);
    got.sort_by_key(key);
    assert_eq!(got, expected);
}

#[test]
fn golden_trap_fails_every_experiment_drawing_the_input() {
    let w = Counting::new(Input1::Traps);
    let prog = prepare(&w, SiteCategory::PureData).unwrap();
    let seed = campaign_seed(0x7A_A9, 0);
    let mut trapped = 0;
    for i in 0..40 {
        let r = run_experiment_range(&prog, &w, seed, i..i + 1);
        if drawn_input(seed, i) == 1 {
            let err = r.expect_err("a trapping golden run is a campaign error");
            assert!(
                err.0.contains("golden run of counting scale trapped"),
                "{err}"
            );
            trapped += 1;
        } else {
            assert_eq!(r.unwrap().len(), 1);
        }
    }
    assert!(trapped > 1, "input 1 must be drawn repeatedly");
    // The trap is deterministic, so its error is cached: one golden run.
    assert_eq!(w.setups(1), 1);
}

#[test]
fn panicking_golden_run_is_absorbed_per_experiment_and_never_cached() {
    vulfi::drain_engine_faults();
    let w = Counting::new(Input1::Panics);
    let prog = prepare(&w, SiteCategory::PureData).unwrap();
    let seed = campaign_seed(0x9A_71C, 0);
    let a = run_campaign(&prog, &w, 30, seed).unwrap();
    let b = run_campaign(&prog, &w, 30, seed).unwrap();
    assert_eq!(a.experiments, b.experiments, "containment is deterministic");
    let panicked: Vec<usize> = (0..30).filter(|&i| drawn_input(seed, i) == 1).collect();
    assert!(!panicked.is_empty(), "input 1 must be drawn");
    for &i in &panicked {
        let e = &a.experiments[i];
        assert_eq!((e.outcome, e.injection.is_none()), (Outcome::Crash, true));
        assert_eq!((e.dynamic_sites, e.golden_dyn_insts), (0, 0));
    }
    // Both campaigns re-ran the golden run for every such experiment, and
    // each left its own engine-fault record.
    assert_eq!(w.setups(1), 2 * panicked.len() as u64);
    let faults: Vec<_> = vulfi::drain_engine_faults()
        .into_iter()
        .filter(|f| f.workload == "counting scale")
        .collect();
    assert_eq!(faults.len(), 2 * panicked.len());
    for &i in &panicked {
        let n = faults
            .iter()
            .filter(|f| f.experiment == Some((seed, i)) && f.message.contains("deliberate"))
            .count();
        assert_eq!(
            n, 2,
            "experiment {i} must record its panic in both campaigns"
        );
    }
}

#[test]
fn changing_the_model_on_a_reused_program_serves_nothing_stale() {
    let w = Counting::new(Input1::Runs);
    let seed = campaign_seed(0x30_DE1, 0);
    let mut reused = prepare(&w, SiteCategory::PureData).unwrap();
    // Walk the models forwards then backwards so every model runs on a
    // cache warmed by another.
    for model in MODELS.iter().chain(MODELS.iter().rev()) {
        reused.model = *model;
        let got = run_experiment_range(&reused, &w, seed, 0..24).unwrap();
        let mut fresh = prepare(&w, SiteCategory::PureData).unwrap();
        fresh.model = *model;
        let expected = run_experiment_range(&fresh, &w, seed, 0..24).unwrap();
        assert_eq!(got, expected, "{model} on a reused program");
    }
}
