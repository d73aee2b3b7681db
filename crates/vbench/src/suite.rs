//! The benchmark registry: the nine study programs of paper Table I plus
//! the three §IV-E micro-benchmarks, each buildable for AVX and SSE.

use spmdc::VectorIsa;

use crate::micro;
use crate::suite_ext;
use crate::suite_ispc;
use crate::suite_parvec;
use crate::suite_scl;
use crate::util::Scale;
use crate::workload::SpmdWorkload;

/// Names of the nine study benchmarks, in the paper's Table I order.
pub const STUDY_NAMES: [&str; 9] = [
    "Fluidanimate",
    "Swaptions",
    "Blackscholes",
    "Sorting",
    "Stencil",
    "Ray tracing",
    "Chebyshev",
    "Jacobi",
    "ConjugateGradient",
];

/// Names of the three micro-benchmarks, in the paper's Fig. 12 order.
pub const MICRO_NAMES: [&str; 3] = ["vector copy", "dot product", "vector sum"];

/// Build all nine study benchmarks for one target.
pub fn study_benchmarks(isa: VectorIsa, scale: Scale) -> Vec<SpmdWorkload> {
    vec![
        suite_parvec::fluidanimate(isa, scale),
        suite_parvec::swaptions(isa, scale),
        suite_ispc::blackscholes(isa, scale),
        suite_ispc::sorting(isa, scale),
        suite_ispc::stencil(isa, scale),
        suite_ispc::raytracing(isa, scale),
        suite_scl::chebyshev(isa, scale),
        suite_scl::jacobi(isa, scale),
        suite_scl::conjugate_gradient(isa, scale),
    ]
}

/// Build one study benchmark by its Table I name.
pub fn study_benchmark(name: &str, isa: VectorIsa, scale: Scale) -> Option<SpmdWorkload> {
    Some(match name {
        "Fluidanimate" => suite_parvec::fluidanimate(isa, scale),
        "Swaptions" => suite_parvec::swaptions(isa, scale),
        "Blackscholes" => suite_ispc::blackscholes(isa, scale),
        "Sorting" => suite_ispc::sorting(isa, scale),
        "Stencil" => suite_ispc::stencil(isa, scale),
        "Ray tracing" => suite_ispc::raytracing(isa, scale),
        "Chebyshev" => suite_scl::chebyshev(isa, scale),
        "Jacobi" => suite_scl::jacobi(isa, scale),
        "ConjugateGradient" => suite_scl::conjugate_gradient(isa, scale),
        "Mandelbrot" => suite_ext::mandelbrot(isa, scale),
        _ => return None,
    })
}

/// Build the three micro-benchmarks for one target.
pub fn micro_benchmarks(isa: VectorIsa, scale: Scale) -> Vec<SpmdWorkload> {
    micro::micro_benchmarks(isa, scale)
}

/// Extension benchmarks beyond the paper's Table I (currently:
/// Mandelbrot, exercising divergent varying `while` loops).
pub fn extension_benchmarks(isa: VectorIsa, scale: Scale) -> Vec<SpmdWorkload> {
    vec![suite_ext::mandelbrot(isa, scale)]
}

/// Build one micro-benchmark by name.
pub fn micro_benchmark(name: &str, isa: VectorIsa, scale: Scale) -> Option<SpmdWorkload> {
    Some(match name {
        "vector copy" => micro::vector_copy(isa, scale),
        "dot product" => micro::dot_product(isa, scale),
        "vector sum" => micro::vector_sum(isa, scale),
        _ => return None,
    })
}

/// Build any benchmark by name: the study suite first, then the micros.
/// Every name-driven path (CLI, gauntlet, serve) resolves through here.
pub fn benchmark(name: &str, isa: VectorIsa, scale: Scale) -> Option<SpmdWorkload> {
    study_benchmark(name, isa, scale).or_else(|| micro_benchmark(name, isa, scale))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vexec::{Interp, NoHost};
    use vulfi::workload::Workload;

    #[test]
    fn all_nine_compile_on_both_targets() {
        for isa in VectorIsa::ALL {
            let all = study_benchmarks(isa, Scale::Test);
            assert_eq!(all.len(), 9);
            for (w, name) in all.iter().zip(STUDY_NAMES) {
                assert_eq!(w.name(), name);
                vir::verify::verify_module(w.module())
                    .unwrap_or_else(|e| panic!("{name}/{isa}: {e}"));
            }
        }
    }

    #[test]
    fn all_nine_run_all_inputs_golden() {
        for isa in VectorIsa::ALL {
            for w in study_benchmarks(isa, Scale::Test) {
                for input in 0..w.num_inputs() {
                    let mut interp = Interp::new(w.module());
                    let setup = w.setup(&mut interp.mem, input).unwrap();
                    interp
                        .run(w.entry(), &setup.args, &mut NoHost)
                        .unwrap_or_else(|t| {
                            panic!("{}/{isa} input {input} trapped: {t}", w.name())
                        });
                }
            }
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(study_benchmark("Stencil", VectorIsa::Avx, Scale::Test).is_some());
        assert!(study_benchmark("NoSuch", VectorIsa::Avx, Scale::Test).is_none());
        assert!(micro_benchmark("dot product", VectorIsa::Sse4, Scale::Test).is_some());
        assert!(micro_benchmark("nope", VectorIsa::Sse4, Scale::Test).is_none());
        assert!(benchmark("Stencil", VectorIsa::Avx, Scale::Test).is_some());
        assert!(benchmark("dot product", VectorIsa::Sse4, Scale::Test).is_some());
        assert!(benchmark("nope", VectorIsa::Avx, Scale::Test).is_none());
    }

    #[test]
    fn every_study_benchmark_has_vector_instructions() {
        // The whole point of the suite: these are *vector* programs.
        for w in study_benchmarks(VectorIsa::Avx, Scale::Test) {
            let f = w.module().function(w.entry()).unwrap();
            let has_vec = f.placed_insts().any(|(_, i)| f.inst_is_vector(i));
            assert!(has_vec, "{} has no vector instructions", w.name());
        }
    }
}
