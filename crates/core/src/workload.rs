//! The workload abstraction: how the campaign driver sets up a benchmark
//! program, runs it, and observes its output.
//!
//! A fault-injection experiment "involves executing a benchmark program
//! twice using a randomly selected program input chosen from a predefined
//! set of inputs" (paper §IV-B). [`Workload::setup`] must therefore be
//! *deterministic per input index*: the golden and faulty runs of one
//! experiment call it with the same index and must see identical memory.

use vexec::{Memory, RtVal, Trap};
use vir::Module;

/// A memory region whose final contents are the program's observable
/// output (compared bit-exactly for SDC classification).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputRegion {
    pub addr: u64,
    pub bytes: u64,
}

/// Everything the driver needs to launch one run.
#[derive(Debug, Clone)]
pub struct SetupResult {
    /// Arguments for the entry function.
    pub args: Vec<RtVal>,
    /// Output regions to snapshot after the run.
    pub outputs: Vec<OutputRegion>,
}

/// A benchmark program plus its input family.
pub trait Workload: Sync {
    /// Human-readable name ("Blackscholes", ...).
    fn name(&self) -> &str;

    /// The vectorized kernel targeted for fault injection.
    fn entry(&self) -> &str;

    /// The compiled, *uninstrumented* module.
    fn module(&self) -> &Module;

    /// Size of the predefined input set.
    fn num_inputs(&self) -> u64;

    /// Deterministically materialize input `input` (`< num_inputs`) into
    /// `mem` and describe the run.
    fn setup(&self, mem: &mut Memory, input: u64) -> Result<SetupResult, Trap>;
}

/// A borrowed workload is a workload, so wrappers that own their inner
/// workload (e.g. a detector-augmented one) also accept a reference.
impl<W: Workload + ?Sized> Workload for &W {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn entry(&self) -> &str {
        (**self).entry()
    }

    fn module(&self) -> &Module {
        (**self).module()
    }

    fn num_inputs(&self) -> u64 {
        (**self).num_inputs()
    }

    fn setup(&self, mem: &mut Memory, input: u64) -> Result<SetupResult, Trap> {
        (**self).setup(mem, input)
    }
}

/// Snapshot the observable output of a finished run: the concatenated
/// output-region bytes plus the returned value's raw bits.
pub fn snapshot_outputs(
    mem: &Memory,
    outputs: &[OutputRegion],
    ret: &Option<RtVal>,
) -> Result<Vec<u8>, Trap> {
    let mut buf = Vec::new();
    for r in outputs {
        buf.extend_from_slice(&mem.snapshot(r.addr, r.bytes)?);
    }
    if let Some(v) = ret {
        for lane in v.lanes() {
            buf.extend_from_slice(&lane.bits.to_le_bytes());
        }
    }
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vexec::Scalar;

    #[test]
    fn snapshot_concatenates_regions_and_ret() {
        let mut mem = Memory::default();
        let a = mem.alloc_f32_slice(&[1.0, 2.0]).unwrap();
        let b = mem.alloc_i32_slice(&[3]).unwrap();
        let regions = [
            OutputRegion { addr: a, bytes: 8 },
            OutputRegion { addr: b, bytes: 4 },
        ];
        let ret = Some(RtVal::Scalar(Scalar::f32(5.0)));
        let snap = snapshot_outputs(&mem, &regions, &ret).unwrap();
        assert_eq!(snap.len(), 8 + 4 + 8);
        assert_eq!(&snap[..4], &1.0f32.to_le_bytes());
        assert_eq!(&snap[8..12], &3i32.to_le_bytes());
    }

    #[test]
    fn snapshot_differs_on_corruption() {
        let mut mem = Memory::default();
        let a = mem.alloc_f32_slice(&[1.0, 2.0]).unwrap();
        let regions = [OutputRegion { addr: a, bytes: 8 }];
        let before = snapshot_outputs(&mem, &regions, &None).unwrap();
        mem.write_scalar(a + 4, Scalar::f32(2.0000002)).unwrap();
        let after = snapshot_outputs(&mem, &regions, &None).unwrap();
        assert_ne!(before, after, "bit-exact comparison catches tiny SDCs");
    }
}
