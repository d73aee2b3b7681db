//! Engine-level fault injection: corruptions the interpreter applies to
//! its own state, below the instrumented `vulfi.inject` hook.
//!
//! The instrumented injection API can only corrupt the lane values the
//! instrumentation pass chose to expose. Three fault models target state
//! that never flows through those calls:
//!
//! - **mask corruption** — overwrite the whole mask register of a masked
//!   load/store intrinsic;
//! - **address lines** — flip one bit of the pointer operand of a
//!   guarded memory access, before the bounds check;
//! - **memory cells** — flip one bit of one live guarded byte between
//!   two dynamic instructions.
//!
//! An [`EngineInjector`] is installed on the interpreter via
//! [`Interp::set_engine_injector`](crate::Interp::set_engine_injector)
//! and driven by hooks on the memory-access, masked-intrinsic, and
//! instruction-step paths. With no injector installed the hooks cost a
//! single `Option` test, preserving the default model's bit-identical
//! behaviour. In **counting mode** (`target == 0`) the injector only
//! tallies event censuses — golden runs use this to size the target
//! distribution — and never perturbs execution. Every injector tallies
//! the censuses of *all* models ([`EngineCensus`]), so one golden run
//! sizes the target distribution of whichever model a faulty run uses.

use vir::ScalarTy;

use crate::mem::Memory;
use crate::value::Scalar;

/// Which engine state the injector corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineModel {
    /// Overwrite the mask register of the target-th masked intrinsic
    /// with an entropy-derived lane pattern.
    MaskCorrupt,
    /// Flip `bit` of the address operand of the target-th guarded
    /// memory access (plain or masked, load or store).
    AddressLine { bit: u32 },
    /// Flip one bit of one live guarded byte once the dynamic
    /// instruction clock reaches the target.
    MemoryCell,
}

/// What an active injector actually did, for provenance records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineInjection {
    /// 1-based index of the corrupted event in the model's census (the
    /// dynamic instruction index for [`EngineModel::MemoryCell`]).
    pub event: u64,
    /// Dynamic instruction count at the moment of corruption.
    pub at_dyn_inst: u64,
    /// Primary bit coordinate: flipped address bit, first corrupted
    /// mask lane, or bit-in-byte for a memory cell.
    pub bit: u32,
    /// State before corruption: the address, the packed active-lane
    /// mask, or the byte value.
    pub bits_before: u64,
    /// Same encoding, after corruption.
    pub bits_after: u64,
    /// Corrupted memory address (the faulted access address, or the
    /// flipped cell); 0 for mask corruption.
    pub addr: u64,
}

/// Event tallies of every engine model's census, as seen by one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCensus {
    /// Masked-intrinsic executions ([`EngineModel::MaskCorrupt`]).
    pub masked_ops: u64,
    /// Guarded memory accesses ([`EngineModel::AddressLine`]).
    pub mem_accesses: u64,
}

/// One experiment's engine-fault state: counts every model's events and,
/// in inject mode, corrupts exactly the target-th event of its model.
#[derive(Debug)]
pub struct EngineInjector {
    model: EngineModel,
    /// 1-based target event; 0 = count-only.
    target: u64,
    entropy: u64,
    census: EngineCensus,
    injection: Option<EngineInjection>,
}

impl EngineInjector {
    /// Counting mode: tally the event census without perturbing
    /// anything (golden runs).
    pub fn count(model: EngineModel) -> EngineInjector {
        EngineInjector {
            model,
            target: 0,
            entropy: 0,
            census: EngineCensus::default(),
            injection: None,
        }
    }

    /// Inject mode: corrupt the `target`-th event (1-based) using
    /// `entropy` for every random choice.
    pub fn inject(model: EngineModel, target: u64, entropy: u64) -> EngineInjector {
        EngineInjector {
            model,
            target: target.max(1),
            entropy,
            census: EngineCensus::default(),
            injection: None,
        }
    }

    /// Events of this model's census seen so far (always 0 for
    /// [`EngineModel::MemoryCell`], whose census is the instruction
    /// clock).
    pub fn events(&self) -> u64 {
        match self.model {
            EngineModel::MaskCorrupt => self.census.masked_ops,
            EngineModel::AddressLine { .. } => self.census.mem_accesses,
            EngineModel::MemoryCell => 0,
        }
    }

    /// Every model's census seen so far.
    pub fn census(&self) -> EngineCensus {
        self.census
    }

    /// The corruption applied, once it has happened.
    pub fn injection(&self) -> Option<EngineInjection> {
        self.injection
    }

    /// Hook: a guarded memory access is about to use `addr`. Returns
    /// the (possibly corrupted) address.
    pub fn on_mem_access(&mut self, at_dyn_inst: u64, addr: u64) -> u64 {
        self.census.mem_accesses += 1;
        let EngineModel::AddressLine { bit } = self.model else {
            return addr;
        };
        if self.target == 0 || self.events() != self.target || self.injection.is_some() {
            return addr;
        }
        let bit = bit % 64;
        let flipped = addr ^ (1u64 << bit);
        self.injection = Some(EngineInjection {
            event: self.events(),
            at_dyn_inst,
            bit,
            bits_before: addr,
            bits_after: flipped,
            addr: flipped,
        });
        flipped
    }

    /// Hook: a masked intrinsic is about to use the mask register
    /// `lanes` (bit patterns of element type `elem`). Corrupts it in
    /// place when this is the target event.
    pub fn on_mask_lanes(&mut self, at_dyn_inst: u64, elem: ScalarTy, lanes: &mut [u64]) {
        self.census.masked_ops += 1;
        if self.model != EngineModel::MaskCorrupt
            || self.target == 0
            || self.events() != self.target
            || self.injection.is_some()
            || lanes.is_empty()
        {
            return;
        }
        let packed = |ls: &[u64]| -> u64 {
            ls.iter()
                .enumerate()
                .filter(|(_, &bits)| Scalar { ty: elem, bits }.mask_active())
                .fold(0u64, |acc, (i, _)| acc | (1u64 << (i as u64 & 63)))
        };
        let before = packed(lanes);
        // Lane i is active iff entropy bit i is set; active lanes get the
        // all-ones pattern (ISPC's "on" mask), inactive lanes zero.
        for (i, b) in lanes.iter_mut().enumerate() {
            *b = if (self.entropy >> (i as u64 & 63)) & 1 == 1 {
                elem.bit_mask()
            } else {
                0
            };
        }
        let after = packed(lanes);
        self.injection = Some(EngineInjection {
            event: self.events(),
            at_dyn_inst,
            bit: (before ^ after).trailing_zeros() % 64,
            bits_before: before,
            bits_after: after,
            addr: 0,
        });
    }

    /// Hook: the dynamic instruction clock advanced to `at_dyn_inst`.
    /// Memory-cell corruption fires here.
    pub fn on_step(&mut self, at_dyn_inst: u64, mem: &mut Memory) {
        if self.model != EngineModel::MemoryCell {
            return;
        }
        if self.target == 0 || at_dyn_inst != self.target || self.injection.is_some() {
            return;
        }
        let bit = ((self.entropy >> 32) % 8) as u32;
        if let Some((addr, before, after)) = mem.corrupt_byte(self.entropy, bit) {
            self.injection = Some(EngineInjection {
                event: at_dyn_inst,
                at_dyn_inst,
                bit,
                bits_before: before as u64,
                bits_after: after as u64,
                addr,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `-1` / `0` i32 mask lanes.
    fn mask(active: &[bool]) -> Vec<u64> {
        active
            .iter()
            .map(|&on| Scalar::i32(if on { -1 } else { 0 }).bits)
            .collect()
    }

    #[test]
    fn counting_mode_never_perturbs() {
        let mut inj = EngineInjector::count(EngineModel::AddressLine { bit: 3 });
        assert_eq!(inj.on_mem_access(1, 0x1_0040), 0x1_0040);
        assert_eq!(inj.on_mem_access(2, 0x1_0044), 0x1_0044);
        assert_eq!(inj.events(), 2);
        assert!(inj.injection().is_none());

        let mut inj = EngineInjector::count(EngineModel::MaskCorrupt);
        let mut lanes = mask(&[true, false]);
        inj.on_mask_lanes(1, ScalarTy::I32, &mut lanes);
        assert_eq!(lanes, mask(&[true, false]));
        assert_eq!(inj.events(), 1);
        // Off-model hooks don't count toward the model's census, only
        // toward the all-model tally.
        assert_eq!(inj.on_mem_access(2, 7), 7);
        assert_eq!(inj.events(), 1);
        assert_eq!(
            inj.census(),
            EngineCensus {
                masked_ops: 1,
                mem_accesses: 1
            }
        );
    }

    #[test]
    fn address_line_flips_exactly_the_target_access() {
        let mut inj = EngineInjector::inject(EngineModel::AddressLine { bit: 2 }, 2, 0);
        assert_eq!(inj.on_mem_access(1, 0x100), 0x100, "first access untouched");
        assert_eq!(inj.on_mem_access(2, 0x100), 0x104, "second access flipped");
        assert_eq!(inj.on_mem_access(3, 0x100), 0x100, "one-shot");
        let rec = inj.injection().unwrap();
        assert_eq!((rec.event, rec.bit), (2, 2));
        assert_eq!((rec.bits_before, rec.bits_after), (0x100, 0x104));
        assert_eq!(rec.at_dyn_inst, 2);
    }

    #[test]
    fn mask_corrupt_rewrites_lanes_from_entropy() {
        // Entropy 0b0101: lanes 0 and 2 active after corruption.
        let mut inj = EngineInjector::inject(EngineModel::MaskCorrupt, 1, 0b0101);
        let mut lanes = mask(&[true, true, false, false]);
        inj.on_mask_lanes(5, ScalarTy::I32, &mut lanes);
        assert_eq!(lanes, mask(&[true, false, true, false]));
        let rec = inj.injection().unwrap();
        assert_eq!(rec.bits_before, 0b0011);
        assert_eq!(rec.bits_after, 0b0101);
        assert_eq!(rec.bit, 1, "lowest differing lane");
        // Subsequent masks pass through.
        let mut lanes = mask(&[true, true, false, false]);
        inj.on_mask_lanes(6, ScalarTy::I32, &mut lanes);
        assert_eq!(lanes, mask(&[true, true, false, false]));
    }

    #[test]
    fn memory_cell_flips_one_bit_of_one_live_byte() {
        let mut mem = Memory::default();
        let a = mem.alloc(16).unwrap();
        mem.write_scalar(a, Scalar::i32(0)).unwrap();
        // entropy: byte index 1, bit (entropy>>32)%8 = 3.
        let entropy = 1u64 | (3u64 << 32);
        let mut inj = EngineInjector::inject(EngineModel::MemoryCell, 4, entropy);
        inj.on_step(3, &mut mem);
        assert!(inj.injection().is_none(), "before the target instruction");
        inj.on_step(4, &mut mem);
        let rec = inj.injection().unwrap();
        assert_eq!(rec.addr, a + 1);
        assert_eq!(rec.bits_after, rec.bits_before ^ (1 << 3));
        let back = mem.read_scalar(ScalarTy::I32, a).unwrap();
        assert_eq!(back.bits, rec.bits_after << 8);
        // One-shot: a later step never fires again.
        inj.on_step(5, &mut mem);
        assert_eq!(inj.injection().unwrap(), rec);
    }

    #[test]
    fn corrupt_byte_walks_regions_deterministically() {
        let mut mem = Memory::default();
        let a = mem.alloc(4).unwrap();
        let b = mem.alloc(4).unwrap();
        // k=5 → second region, byte 1.
        let (addr, before, after) = mem.corrupt_byte(5, 0).unwrap();
        assert_eq!(addr, b + 1);
        assert_eq!(after, before ^ 1);
        // k wraps mod the allocated total.
        let (addr2, _, _) = mem.corrupt_byte(8, 0).unwrap();
        assert_eq!(addr2, a);
        assert!(Memory::default().corrupt_byte(0, 0).is_none());
    }
}
