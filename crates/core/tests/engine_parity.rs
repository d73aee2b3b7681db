//! Engine parity: the interpreter's observable behaviour on every real
//! workload, frozen as a committed fixture and compared byte-for-byte.
//!
//! The fixture `fixtures/engine_parity.txt` was recorded from the
//! tree-walking interpreter the bytecode engine replaced. Every line is
//! one record, `<cell> <kind> <json>`, covering:
//!
//! - every Table I kernel × {pure-data, control, address} on AVX under
//!   the single-bit flip, traced: each `ExperimentTrace` (faulty
//!   dyn-insts, `injection.at_dyn_inst`, propagation, trap string);
//! - the three micro-benchmarks × {AVX, SSE} × all seven fault models
//!   (traced), plus the pruned single-bit-flip driver;
//! - each input's golden run: dyn-insts, value-site count, engine-model
//!   census, architectural event stream and output snapshot digests;
//! - the dynamic `InstMix` and hotspot ranking of two cells (one bare,
//!   one instrumented).
//!
//! `wall_ns` is the only excluded field (it is wall time). Re-record the
//! fixture (only when a behaviour change is intended) with:
//!
//! ```text
//! VULFI_BLESS_PARITY=1 cargo test -p vulfi --test engine_parity
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use spmdc::VectorIsa;
use vbench::Scale;
use vexec::{DivergenceTracer, EngineInjector, EngineModel, Interp};
use vir::analysis::SiteCategory;
use vulfi::workload::snapshot_outputs;
use vulfi::{
    build_prune_context, campaign_seed, prepare, run_experiment_range_pruned,
    run_experiment_range_traced, FaultModel, VulfiHost, Workload,
};

/// Experiments per cell: enough to hit SDC, Benign and Crash on most
/// cells while keeping the debug-build test well under a minute.
const EXPERIMENTS: usize = 6;

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

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/engine_parity.txt")
}

/// FNV-1a over bytes: a compact, stable digest for long streams.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1_0000_01b3)
    })
}

fn cell_seed(cell: &str) -> u64 {
    campaign_seed(fnv(cell.bytes()) & 0xffff, 1)
}

/// One golden line per input: the facts every experiment is judged by.
fn golden_lines(out: &mut String, cell: &str, prog: &vulfi::Prepared, w: &dyn Workload) {
    for input in 0..w.num_inputs() {
        let mut counter = EngineInjector::count(EngineModel::MemoryCell);
        let mut tracer = DivergenceTracer::record();
        let mut host = VulfiHost::profile_logging();
        let mut interp = Interp::new(&prog.module);
        let setup = w.setup(&mut interp.mem, input).expect("setup");
        interp.set_trace_sink(&mut tracer);
        interp.set_engine_injector(&mut counter);
        let run = interp.run(&prog.entry, &setup.args, &mut host);
        let (dyn_insts, snapshot) = match &run {
            Ok(r) => (
                r.dyn_insts,
                fnv(snapshot_outputs(&interp.mem, &setup.outputs, &r.ret).expect("snapshot")),
            ),
            Err(t) => panic!("golden run of {cell} input {input} trapped: {t}"),
        };
        drop(interp);
        let census = counter.census();
        let events = tracer.into_stream();
        let sites = host.site_log.unwrap_or_default();
        writeln!(
            out,
            "{cell} golden {{\"input\":{input},\"dyn_insts\":{dyn_insts},\"value_sites\":{},\
             \"masked_ops\":{},\"mem_accesses\":{},\"events\":{},\"events_fnv\":{},\
             \"site_log_fnv\":{},\"snapshot_fnv\":{snapshot}}}",
            host.dynamic_sites,
            census.masked_ops,
            census.mem_accesses,
            events.len(),
            fnv(events.iter().flat_map(|e| e.to_le_bytes())),
            fnv(sites
                .iter()
                .flat_map(|&(s, l)| s.to_le_bytes().into_iter().chain(l.to_le_bytes()))),
        )
        .unwrap();
    }
}

fn traced_lines(out: &mut String, cell: &str, prog: &vulfi::Prepared, w: &dyn Workload) {
    let (experiments, traces) =
        run_experiment_range_traced(prog, w, cell_seed(cell), 0..EXPERIMENTS).expect("traced");
    for (e, mut t) in experiments.into_iter().zip(traces) {
        t.wall_ns = 0;
        let e = serde_json::to_string(&e).unwrap();
        let t = serde_json::to_string(&t).unwrap();
        writeln!(out, "{cell} experiment {e}").unwrap();
        writeln!(out, "{cell} trace {t}").unwrap();
    }
}

/// The dynamic instruction mix and hotspot ranking of input 0, with
/// both profilers on (the engine's slow, fully observed path).
fn mix_line(out: &mut String, cell: &str, module: &vir::Module, w: &dyn Workload) {
    let mut interp = Interp::new(module);
    interp.enable_profiling();
    interp.enable_hotspots();
    let setup = w.setup(&mut interp.mem, 0).expect("setup");
    interp
        .run(w.entry(), &setup.args, &mut VulfiHost::profile())
        .expect("profiled run");
    let mix = interp.take_mix().expect("profiling enabled");
    let hot: Vec<_> = interp
        .take_hotspots()
        .expect("hotspots enabled")
        .hotspots()
        .into_iter()
        .map(|h| (h.opcode, h.count, h.sites))
        .collect();
    writeln!(out, "{cell} mix {mix:?}").unwrap();
    writeln!(out, "{cell} hotspots {hot:?}").unwrap();
}

fn isa_name(isa: VectorIsa) -> &'static str {
    match isa {
        VectorIsa::Avx => "avx",
        VectorIsa::Sse4 => "sse",
    }
}

/// Every record, in a fixed order.
fn parity_document() -> String {
    let mut out = String::new();
    for w in vbench::study_benchmarks(VectorIsa::Avx, Scale::Test) {
        for category in SiteCategory::ALL {
            let cell = format!("{}/avx/{}", w.name().replace(' ', "_"), category.name());
            let prog = prepare(&w, category).expect("prepare");
            golden_lines(&mut out, &cell, &prog, &w);
            traced_lines(&mut out, &cell, &prog, &w);
        }
    }
    for isa in [VectorIsa::Avx, VectorIsa::Sse4] {
        for w in vbench::micro_benchmarks(isa, Scale::Test) {
            let base = format!("{}/{}/pure-data", w.name().replace(' ', "_"), isa_name(isa));
            let mut prog = prepare(&w, SiteCategory::PureData).expect("prepare");
            golden_lines(&mut out, &base, &prog, &w);
            for model in MODELS {
                prog.model = model;
                let cell = format!("{base}/{model}");
                traced_lines(&mut out, &cell, &prog, &w);
            }
            prog.model = FaultModel::SingleBitFlip;
            let ctx = build_prune_context(&prog, &w).expect("prune context");
            let cell = format!("{base}/prune");
            let pruned =
                run_experiment_range_pruned(&prog, &w, &ctx, cell_seed(&cell), 0..EXPERIMENTS)
                    .expect("pruned");
            for e in pruned {
                let e = serde_json::to_string(&e).unwrap();
                writeln!(out, "{cell} experiment {e}").unwrap();
            }
        }
    }
    let bare = vbench::study_benchmark("Blackscholes", VectorIsa::Avx, Scale::Test).unwrap();
    mix_line(&mut out, "Blackscholes/avx/bare", bare.module(), &bare);
    let sum = vbench::micro_benchmark("vector sum", VectorIsa::Sse4, Scale::Test).unwrap();
    let prog = prepare(&sum, SiteCategory::PureData).expect("prepare");
    mix_line(&mut out, "vector_sum/sse/pure-data", &prog.module, &sum);
    out
}

#[test]
fn engine_matches_the_recorded_tree_walker() {
    let doc = parity_document();
    let path = fixture_path();
    if std::env::var_os("VULFI_BLESS_PARITY").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &doc).unwrap();
        return;
    }
    let want =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    for (n, (got, exp)) in doc.lines().zip(want.lines()).enumerate() {
        assert_eq!(got, exp, "first divergence at fixture line {}", n + 1);
    }
    assert_eq!(
        doc.lines().count(),
        want.lines().count(),
        "record count differs from the fixture"
    );
    assert!(
        doc == want,
        "fixture differs (line endings or trailing text)"
    );
}
