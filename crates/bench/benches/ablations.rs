//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. **Mask-aware vs mask-oblivious injection** (§II-D) — runtime cost and
//!    dynamic-site population of honoring execution masks.
//! 2. **Exit-only vs every-iteration invariant checks** (§III-A) — the
//!    overhead side of the detection-latency trade-off.
//! 3. **Campaign throughput** — experiments/second of the end-to-end
//!    driver, the number that bounds full-study wall time.

use criterion::{criterion_group, criterion_main, Criterion};
use detectors::{CheckPlacement, DetectorConfig, WithDetectors};
use spmdc::VectorIsa;
use vbench::{benchmark, Scale};
use vexec::Interp;
use vir::analysis::SiteCategory;
use vulfi::instrument::TargetMode;
use vulfi::workload::Workload;
use vulfi::{prepare_with, run_campaign, InstrumentOptions, VulfiHost};

fn mask_awareness(c: &mut Criterion) {
    let w = benchmark("vector copy", VectorIsa::Avx, Scale::Test).unwrap();
    let mut group = c.benchmark_group("ablation/mask");
    group.sample_size(20);
    for (label, aware) in [("aware", true), ("oblivious", false)] {
        let prog = prepare_with(
            &w,
            InstrumentOptions {
                category: SiteCategory::PureData,
                mask_aware: aware,
                mode: Default::default(),
            },
        )
        .unwrap();
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut interp = Interp::new(&prog.module);
                let setup = w.setup(&mut interp.mem, 0).unwrap();
                let mut host = VulfiHost::profile();
                interp.run(&prog.entry, &setup.args, &mut host).unwrap();
                criterion::black_box(host.dynamic_sites)
            })
        });
    }
    group.finish();
}

fn check_placement(c: &mut Criterion) {
    let w = benchmark("vector sum", VectorIsa::Avx, Scale::Test).unwrap();
    let mut group = c.benchmark_group("ablation/check_placement");
    group.sample_size(20);
    for (label, placement) in [
        ("exit_only", CheckPlacement::OnExit),
        ("every_iteration", CheckPlacement::EveryIteration),
    ] {
        let cfg = DetectorConfig {
            foreach_invariants: true,
            uniform_broadcast: false,
            placement,
        };
        let wd = WithDetectors::new(&w, cfg).unwrap();
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut interp = Interp::new(wd.module());
                let setup = wd.setup(&mut interp.mem, 0).unwrap();
                let mut host = VulfiHost::profile();
                interp.run(wd.entry(), &setup.args, &mut host).unwrap();
                criterion::black_box(host.detectors.checks)
            })
        });
    }
    group.finish();
}

fn campaign_throughput(c: &mut Criterion) {
    let w = benchmark("dot product", VectorIsa::Avx, Scale::Test).unwrap();
    let prog = prepare_with(
        &w,
        InstrumentOptions {
            category: SiteCategory::PureData,
            mask_aware: true,
            mode: Default::default(),
        },
    )
    .unwrap();
    let mut group = c.benchmark_group("ablation/campaign");
    group.sample_size(10);
    group.bench_function("25_experiments", |b| {
        b.iter(|| {
            let r = run_campaign(&prog, &w, 25, 99).unwrap();
            criterion::black_box(r.counts)
        })
    });
    group.finish();
}

fn target_mode(c: &mut Criterion) {
    // Lvalue (paper §II-B) vs source-operand fault models: runtime cost of
    // the denser operand-site instrumentation.
    let w = benchmark("vector copy", VectorIsa::Avx, Scale::Test).unwrap();
    let mut group = c.benchmark_group("ablation/target_mode");
    group.sample_size(20);
    for (label, mode) in [
        ("lvalue", TargetMode::Lvalue),
        ("source_operands", TargetMode::SourceOperands),
    ] {
        let prog = prepare_with(
            &w,
            InstrumentOptions {
                category: SiteCategory::PureData,
                mask_aware: true,
                mode,
            },
        )
        .unwrap();
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut interp = Interp::new(&prog.module);
                let setup = w.setup(&mut interp.mem, 0).unwrap();
                let mut host = VulfiHost::profile();
                interp.run(&prog.entry, &setup.args, &mut host).unwrap();
                criterion::black_box(host.dynamic_sites)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    mask_awareness,
    check_placement,
    campaign_throughput,
    target_mode
);
criterion_main!(benches);
