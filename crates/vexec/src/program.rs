//! The decoded program: a module lowered once into flat register
//! bytecode.
//!
//! Decoding resolves everything the interpreter would otherwise look up
//! per dynamic instruction:
//!
//! - **Dense slots.** Every SSA value owns `lanes` consecutive `u64`
//!   words of its function's frame (one for a scalar, eight for an
//!   AVX `<8 x float>`), so vector lanes live inline in the register
//!   file and no arithmetic or lane move allocates.
//! - **Constant pool.** Constant operands are materialized once into a
//!   pool at the end of the frame template; an operand is just a slot
//!   offset whether it names a value or a constant.
//! - **Per-edge phi moves.** Each control-flow edge carries the copies
//!   its target block's phis perform, so a branch is a jump plus a short
//!   move list.
//! - **Resolved callees.** A call is decoded once as a defined function
//!   (by index), an intrinsic (parsed once), or a host call carrying its
//!   name for `HostEnv` dispatch; host arguments are passed without a
//!   heap allocation.
//!
//! The semantics are those of verified VIR (see `vir::verify`). A
//! construct whose execution would trap regardless of runtime values
//! (a phi outside the block header, a call to an unknown `llvm.*`
//! name, an out-of-range shuffle index, ...) decodes to a `Fail` op
//! raising that trap at the instruction's position in the dynamic
//! stream, so the trap and the dynamic-instruction count at which it
//! fires are exactly what executing the instruction would produce.

use std::collections::HashMap;

use vir::intrinsics::{self, Intrinsic};
use vir::{
    BinOp, BlockId, CastOp, ConstData, Constant, FCmpPred, Function, ICmpPred, Inst, InstId,
    InstKind, Module, Operand, ScalarTy, Terminator, Type,
};

use crate::mem::Trap;
use crate::profile::HotLoc;

/// A word offset into a function's frame.
pub(crate) type Slot = u32;

/// A typed register operand: `n` lanes of `ty` starting at `off`.
/// `vector` distinguishes `<1 x T>` from `T` where a runtime value has
/// to be materialized (host arguments, return values).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Val {
    pub off: Slot,
    pub n: u16,
    pub vector: bool,
    pub ty: ScalarTy,
}

/// One bytecode instruction: 20 bytes, operands as frame slots. Every
/// op retires exactly one dynamic instruction; phis retire on the edge
/// that enters their block.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    Bin {
        op: BinOp,
        ty: ScalarTy,
        n: u16,
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    ICmp {
        pred: ICmpPred,
        ty: ScalarTy,
        n: u16,
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    FCmp {
        pred: FCmpPred,
        ty: ScalarTy,
        n: u16,
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    /// Scalar condition: copy one whole arm.
    Select {
        n: u16,
        dst: Slot,
        cond: Slot,
        on_true: Slot,
        on_false: Slot,
    },
    /// Vector condition: blend per lane on bit 0 of each condition lane.
    Blend {
        n: u16,
        dst: Slot,
        cond: Slot,
        on_true: Slot,
        on_false: Slot,
    },
    Cast {
        op: CastOp,
        from: ScalarTy,
        to: ScalarTy,
        n: u16,
        dst: Slot,
        src: Slot,
    },
    Alloca {
        elem_size: u32,
        count_ty: ScalarTy,
        count: Slot,
        dst: Slot,
    },
    Load {
        ty: ScalarTy,
        n: u16,
        dst: Slot,
        ptr: Slot,
    },
    Store {
        ty: ScalarTy,
        n: u16,
        val: Slot,
        ptr: Slot,
    },
    Gep {
        elem_size: u32,
        idx_ty: ScalarTy,
        idx: Slot,
        dst: Slot,
        base: Slot,
    },
    /// One word from `src` to `dst`: an `extractelement` whose index is
    /// a constant.
    Copy {
        dst: Slot,
        src: Slot,
    },
    Extract {
        n: u16,
        dst: Slot,
        vec: Slot,
        idx: Slot,
    },
    Insert {
        n: u16,
        dst: Slot,
        vec: Slot,
        elt: Slot,
        idx: Slot,
    },
    /// `insertelement` at a constant lane.
    InsertAt {
        n: u16,
        lane: u16,
        dst: Slot,
        vec: Slot,
        elt: Slot,
    },
    /// Lane `i` of the result comes from `Func::shuffles[table][i]`
    /// (`None`: an undef lane, zero).
    Shuffle {
        dst: Slot,
        table: u32,
    },
    /// Any call: `Func::calls[site]` says what is called.
    Call {
        site: u32,
    },
    /// Raise `Func::traps[trap]`.
    Fail {
        trap: u32,
    },
    Br {
        edge: u32,
    },
    CondBr {
        cond: Slot,
        on_true: u32,
        on_false: u32,
    },
    Ret {
        val: Option<Val>,
    },
    Unreachable,
}

/// What a call site calls, resolved once at decode time.
#[derive(Debug, Clone)]
pub(crate) enum Callee {
    /// A function defined in the module, by index.
    Func(u32),
    Intrinsic(Intrinsic),
    /// A host function (the `vulfi.inject.*` / `vulfi.check.*` runtime
    /// or anything else declared), dispatched through `HostEnv` by its
    /// name, `Func::names[name]`.
    Host {
        name: u32,
        void: bool,
    },
}

/// A decoded call: callee, arguments `Func::args[args..][..nargs]` and
/// the result register.
#[derive(Debug, Clone)]
pub(crate) struct CallSite {
    pub callee: Callee,
    pub args: u32,
    pub nargs: u32,
    pub dst: Option<Val>,
}

/// A control-flow edge into `block`: its phis retire (`nphis` dynamic
/// instructions, profiled with `Func::meta[phi_meta..]`), then `moves`
/// copy the incoming values, then execution continues at `pc`.
#[derive(Debug, Clone)]
pub(crate) struct Edge {
    pub block: u32,
    pub pc: u32,
    pub phi_meta: u32,
    pub nphis: u16,
    /// Index of the first phi with no incoming value for this edge: it
    /// traps when it retires.
    pub missing: Option<u16>,
    pub moves: std::ops::Range<u32>,
    /// A move reads a slot another move of this edge writes: copy
    /// through scratch so every phi sees the incoming frame.
    pub parallel: bool,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Move {
    pub dst: Slot,
    pub src: Slot,
    pub n: u16,
}

/// Which lanes the instruction-mix profiler counts as active.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Active {
    /// Every lane (or a scalar instruction).
    Full,
    /// A masked memory intrinsic: mask-sign-bit lanes of this operand.
    Mask { mask: Val },
    /// A vector select: condition lanes with bit 0 set.
    Cond { cond: Slot, n: u16 },
}

/// Profiling facts of one static instruction or terminator, read only
/// when the mix or hotspot profiler is on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Meta {
    pub loc: HotLoc,
    pub opcode: &'static str,
    pub vector: bool,
    pub width: u32,
    pub active: Active,
}

/// One decoded function.
#[derive(Debug, Clone)]
pub(crate) struct Func {
    pub name: String,
    pub params: Vec<Val>,
    /// SSA values in the source function (the arity ceiling a call is
    /// checked against).
    pub values: usize,
    /// Frame layout: `words` zeroed value words, then `pool` (constants,
    /// and result words of instructions without a result value).
    pub words: usize,
    pub pool: Vec<u64>,
    /// Where execution starts.
    pub start: u32,
    pub code: Vec<Op>,
    /// Only in an observable program: `meta[pc]` profiles `code[pc]`,
    /// and phi metas follow the code's.
    pub meta: Vec<Meta>,
    pub edges: Vec<Edge>,
    pub moves: Vec<Move>,
    pub calls: Vec<CallSite>,
    pub args: Vec<Val>,
    pub shuffles: Vec<Vec<Option<Slot>>>,
    /// Distinct host callee names.
    pub names: Vec<String>,
    pub traps: Vec<Trap>,
}

/// A module decoded into register bytecode, ready to run any number of
/// times. Decode once per module and share it (see
/// [`Interp::with_program`](crate::Interp::with_program)); decoding
/// costs about as much as one run of a small workload.
#[derive(Debug, Clone)]
pub struct Program {
    pub(crate) funcs: Vec<Func>,
    /// Carries the profiling metadata the mix and hotspot profilers
    /// read (see [`Program::decode_observable`]).
    pub(crate) observable: bool,
}

impl Program {
    /// Decode every function of `module`.
    pub fn decode(module: &Module) -> Program {
        Program::decode_with(module, false)
    }

    /// [`Program::decode`] plus the per-instruction profiling metadata.
    /// The interpreter re-decodes with this when a profiler is enabled,
    /// so shared programs stay small.
    pub(crate) fn decode_observable(module: &Module) -> Program {
        Program::decode_with(module, true)
    }

    fn decode_with(module: &Module, observable: bool) -> Program {
        let index: HashMap<&str, u32> = module
            .functions
            .iter()
            .enumerate()
            .rev()
            .map(|(i, f)| (f.name.as_str(), i as u32))
            .collect();
        Program {
            funcs: module
                .functions
                .iter()
                .map(|f| Decoder::new(&index, f, observable).decode())
                .collect(),
            observable,
        }
    }

    /// Index of the function named `name`.
    pub(crate) fn func(&self, name: &str) -> Option<usize> {
        self.funcs.iter().position(|f| f.name == name)
    }
}

/// Per-function decoding state.
struct Decoder<'a> {
    index: &'a HashMap<&'a str, u32>,
    f: &'a Function,
    observable: bool,
    func: Func,
    /// Slot of every SSA value.
    slots: Vec<Slot>,
    consts: HashMap<(Type, Vec<u64>), Slot>,
    /// First body pc of each block, once laid out.
    block_pc: Vec<u32>,
}

impl<'a> Decoder<'a> {
    fn new(index: &'a HashMap<&'a str, u32>, f: &'a Function, observable: bool) -> Self {
        let mut slots = Vec::with_capacity(f.values.len());
        let mut words = 0u32;
        for v in &f.values {
            slots.push(words);
            words += u32::from(width(v.ty));
        }
        Decoder {
            index,
            f,
            observable,
            func: Func {
                name: f.name.clone(),
                params: Vec::new(),
                values: f.values.len(),
                words: words as usize,
                pool: Vec::new(),
                start: 0,
                code: Vec::new(),
                meta: Vec::new(),
                edges: Vec::new(),
                moves: Vec::new(),
                calls: Vec::new(),
                args: Vec::new(),
                shuffles: Vec::new(),
                names: Vec::new(),
                traps: Vec::new(),
            },
            slots,
            consts: HashMap::new(),
            block_pc: vec![0; f.blocks.len()],
        }
    }

    fn decode(mut self) -> Func {
        let f = self.f;
        self.func.params = (0..f.params.len())
            .map(|i| self.val(&Operand::Value(f.param_value(i))))
            .collect();
        let mut edges = Vec::new();
        for (b, block) in f.blocks.iter().enumerate() {
            let nphis = block
                .insts
                .iter()
                .take_while(|&&i| f.inst(i).is_phi())
                .count();
            if b == f.entry().index() {
                self.func.start = self.func.code.len() as u32;
                if nphis > 0 {
                    // Entering the function runs the entry block's phis
                    // with no predecessor: the first one traps.
                    let op = self.trap(Trap::HostError("phi in entry block at runtime".into()));
                    self.push(op, block.insts[0]);
                }
            }
            self.block_pc[b] = self.func.code.len() as u32;
            for &iid in &block.insts[nphis..] {
                let op = self.inst(f.inst(iid));
                self.push(op, iid);
            }
            let from = BlockId(b as u32);
            let op = match &block.term {
                Terminator::Br(to) => Op::Br {
                    edge: self.edge(from, *to, &mut edges),
                },
                Terminator::CondBr {
                    cond,
                    on_true,
                    on_false,
                } => Op::CondBr {
                    cond: self.slot(cond),
                    on_true: self.edge(from, *on_true, &mut edges),
                    on_false: self.edge(from, *on_false, &mut edges),
                },
                Terminator::Ret(val) => Op::Ret {
                    val: val.as_ref().map(|v| self.val(v)),
                },
                Terminator::Unreachable => Op::Unreachable,
            };
            if self.observable {
                self.func.meta.push(Meta {
                    loc: HotLoc::Term(b as u32),
                    opcode: match &block.term {
                        Terminator::Br(_) => "br",
                        Terminator::CondBr { .. } => "condbr",
                        Terminator::Ret(_) => "ret",
                        // Never profiled: it traps before it retires.
                        Terminator::Unreachable => "unreachable",
                    },
                    vector: false,
                    width: 1,
                    active: Active::Full,
                });
            }
            self.func.code.push(op);
        }
        // Phi metas follow the code's; edges learn their target pc and
        // where their block's phi metas start.
        let mut phi_meta_at = vec![0u32; f.blocks.len()];
        if self.observable {
            for (b, block) in f.blocks.iter().enumerate() {
                phi_meta_at[b] = self.func.meta.len() as u32;
                for &iid in block.insts.iter().take_while(|&&i| f.inst(i).is_phi()) {
                    let meta = self.meta(f.inst(iid), HotLoc::Inst(iid.0));
                    self.func.meta.push(meta);
                }
            }
        }
        for e in &mut edges {
            e.pc = self.block_pc[e.block as usize];
            e.phi_meta = phi_meta_at[e.block as usize];
        }
        self.func.edges = edges;
        self.func
    }

    /// Append `op`, decoded from instruction `iid`.
    fn push(&mut self, op: Op, iid: InstId) {
        if self.observable {
            let meta = self.meta(self.f.inst(iid), HotLoc::Inst(iid.0));
            self.func.meta.push(meta);
        }
        self.func.code.push(op);
    }

    fn trap(&mut self, trap: Trap) -> Op {
        self.func.traps.push(trap);
        Op::Fail {
            trap: self.func.traps.len() as u32 - 1,
        }
    }

    /// Decode the edge `from → to`, returning its index.
    fn edge(&mut self, from: BlockId, to: BlockId, edges: &mut Vec<Edge>) -> u32 {
        let f = self.f;
        let start = self.func.moves.len() as u32;
        let mut missing = None;
        let mut nphis = 0u16;
        for &iid in f
            .block(to)
            .insts
            .iter()
            .take_while(|&&i| f.inst(i).is_phi())
        {
            let inst = f.inst(iid);
            let InstKind::Phi { incomings } = &inst.kind else {
                break;
            };
            match (incomings.iter().find(|(b, _)| *b == from), inst.result) {
                (Some((_, op)), Some(res)) if missing.is_none() => {
                    let src = self.val(op);
                    self.func.moves.push(Move {
                        dst: self.slots[res.index()],
                        src: src.off,
                        n: src.n.min(width(f.value(res).ty)),
                    });
                }
                (None, _) if missing.is_none() => missing = Some(nphis),
                _ => {}
            }
            nphis += 1;
        }
        let moves = start..self.func.moves.len() as u32;
        let ms = &self.func.moves[moves.start as usize..moves.end as usize];
        let parallel = ms.iter().enumerate().any(|(i, m)| {
            ms.iter()
                .enumerate()
                .any(|(j, w)| i != j && m.src < w.dst + w.n as u32 && w.dst < m.src + m.n as u32)
        });
        edges.push(Edge {
            block: to.0,
            pc: 0,
            phi_meta: 0,
            nphis,
            missing,
            moves,
            parallel,
        });
        edges.len() as u32 - 1
    }

    /// `n` fresh pool words; returns their slot.
    fn words(&mut self, n: usize) -> Slot {
        let s = (self.func.words + self.func.pool.len()) as Slot;
        self.func.pool.resize(self.func.pool.len() + n, 0);
        s
    }

    /// Slot of an operand; constants are interned into the pool.
    fn slot(&mut self, op: &Operand) -> Slot {
        match op {
            Operand::Value(v) => self.slots[v.index()],
            Operand::Const(c) => {
                let lanes = const_lanes(c);
                if let Some(&s) = self.consts.get(&(c.ty, lanes.clone())) {
                    return s;
                }
                let s = self.words(0);
                self.func.pool.extend_from_slice(&lanes);
                self.consts.insert((c.ty, lanes), s);
                s
            }
        }
    }

    fn val(&mut self, op: &Operand) -> Val {
        let ty = self.f.operand_type(op);
        typed(self.slot(op), ty)
    }

    fn result(&self, inst: &Inst) -> Option<Val> {
        inst.result
            .map(|r| typed(self.slots[r.index()], self.f.value(r).ty))
    }

    /// Result slot of a value-producing op. One without a result value
    /// (only in unverified IR) writes to pool words of its own.
    fn dst(&mut self, inst: &Inst) -> Slot {
        if let Some(v) = self.result(inst) {
            return v.off;
        }
        let f = self.f;
        let n = inst
            .operands()
            .iter()
            .map(|op| width(f.operand_type(op)))
            .chain([width(inst.ty), 1])
            .max()
            .unwrap_or(1);
        self.words(n as usize)
    }

    fn inst(&mut self, inst: &Inst) -> Op {
        let f = self.f;
        let lanes = |op: &Operand| width(f.operand_type(op));
        let elem = |op: &Operand| f.operand_type(op).elem().unwrap_or(ScalarTy::I64);
        let dst = self.dst(inst);
        match &inst.kind {
            InstKind::Bin { op, lhs, rhs } => Op::Bin {
                op: *op,
                ty: elem(lhs),
                n: lanes(lhs).min(lanes(rhs)),
                dst,
                a: self.slot(lhs),
                b: self.slot(rhs),
            },
            InstKind::ICmp { pred, lhs, rhs } => Op::ICmp {
                pred: *pred,
                ty: elem(lhs),
                n: lanes(lhs).min(lanes(rhs)),
                dst,
                a: self.slot(lhs),
                b: self.slot(rhs),
            },
            InstKind::FCmp { pred, lhs, rhs } => Op::FCmp {
                pred: *pred,
                ty: elem(lhs),
                n: lanes(lhs).min(lanes(rhs)),
                dst,
                a: self.slot(lhs),
                b: self.slot(rhs),
            },
            InstKind::Select {
                cond,
                on_true,
                on_false,
            } => {
                let (c, t, e) = (self.slot(cond), self.slot(on_true), self.slot(on_false));
                if !f.operand_type(cond).is_vector() {
                    return Op::Select {
                        n: lanes(on_true),
                        dst,
                        cond: c,
                        on_true: t,
                        on_false: e,
                    };
                }
                let n = lanes(cond);
                if lanes(on_true) < n || lanes(on_false) < n {
                    return self.trap(Trap::EngineFault(
                        "select arms narrower than the condition vector".into(),
                    ));
                }
                Op::Blend {
                    n,
                    dst,
                    cond: c,
                    on_true: t,
                    on_false: e,
                }
            }
            InstKind::Cast { op, val } => {
                let Some(to) = inst.ty.elem() else {
                    return self.trap(Trap::EngineFault("cast to void type".into()));
                };
                Op::Cast {
                    op: *op,
                    from: elem(val),
                    to,
                    // A scalar result keeps lane 0 only.
                    n: if inst.ty.is_vector() { lanes(val) } else { 1 },
                    dst,
                    src: self.slot(val),
                }
            }
            InstKind::Alloca { elem: ty, count } => Op::Alloca {
                elem_size: size(*ty),
                count_ty: elem(count),
                count: self.slot(count),
                dst,
            },
            InstKind::Load { ptr } => match inst.ty {
                Type::Void => self.trap(Trap::EngineFault("load of void type".into())),
                ty => Op::Load {
                    ty: ty.elem().unwrap_or(ScalarTy::I64),
                    n: width(ty),
                    dst,
                    ptr: self.slot(ptr),
                },
            },
            InstKind::Store { val, ptr } => Op::Store {
                ty: elem(val),
                n: lanes(val),
                val: self.slot(val),
                ptr: self.slot(ptr),
            },
            InstKind::Gep {
                elem: ty,
                base,
                index,
            } => Op::Gep {
                elem_size: size(*ty),
                idx_ty: elem(index),
                idx: self.slot(index),
                dst,
                base: self.slot(base),
            },
            InstKind::ExtractElement { vec, idx } => {
                let n = lanes(vec);
                if n == 0 {
                    return self.trap(Trap::EngineFault("extractelement from empty vector".into()));
                }
                let vec = self.slot(vec);
                match const_index(idx, n) {
                    Some(k) => Op::Copy {
                        dst,
                        src: vec + k as u32,
                    },
                    None => Op::Extract {
                        n,
                        dst,
                        vec,
                        idx: self.slot(idx),
                    },
                }
            }
            InstKind::InsertElement { vec, elt, idx } => {
                let n = lanes(vec);
                if n == 0 {
                    return self.trap(Trap::EngineFault("insertelement into empty vector".into()));
                }
                let (vec, elt) = (self.slot(vec), self.slot(elt));
                match const_index(idx, n) {
                    Some(lane) => Op::InsertAt {
                        n,
                        lane,
                        dst,
                        vec,
                        elt,
                    },
                    None => Op::Insert {
                        n,
                        dst,
                        vec,
                        elt,
                        idx: self.slot(idx),
                    },
                }
            }
            InstKind::ShuffleVector { a, b, mask } => {
                let (na, nb) = (lanes(a) as i64, lanes(b) as i64);
                if na == 0 {
                    return self.trap(Trap::EngineFault("shufflevector of empty vector".into()));
                }
                let (sa, sb) = (self.slot(a), self.slot(b));
                let mut table = Vec::with_capacity(mask.len());
                for &mi in mask {
                    let m = mi as i64;
                    table.push(if m < 0 {
                        None
                    } else if m < na {
                        Some(sa + m as u32)
                    } else if m < na + nb {
                        Some(sb + (m - na) as u32)
                    } else {
                        return self.trap(Trap::EngineFault(format!(
                            "shufflevector mask index {mi} out of range for {na} + {nb} lanes"
                        )));
                    });
                }
                self.func.shuffles.push(table);
                Op::Shuffle {
                    dst,
                    table: self.func.shuffles.len() as u32 - 1,
                }
            }
            InstKind::Phi { .. } => self.trap(Trap::HostError("phi outside block header".into())),
            InstKind::Call { callee, args } => self.call(inst, callee, args),
        }
    }

    fn call(&mut self, inst: &Inst, callee: &str, args: &[Operand]) -> Op {
        let callee = if let Some(&func) = self.index.get(callee) {
            Callee::Func(func)
        } else if let Some(intr) = intrinsics::parse(callee) {
            let need = match intr {
                Intrinsic::MaskLoad { .. } => 2,
                Intrinsic::MaskStore { .. } => 3,
                Intrinsic::Math { op, .. } => op.arity(),
                _ => 1,
            };
            if args.len() < need {
                return self.trap(Trap::EngineFault(format!(
                    "intrinsic expects {need} arguments, got {}",
                    args.len()
                )));
            }
            Callee::Intrinsic(intr)
        } else if callee.starts_with("llvm.") {
            return self.trap(Trap::UnknownFunction(callee.to_string()));
        } else {
            let name = match self.func.names.iter().position(|n| n == callee) {
                Some(i) => i,
                None => {
                    self.func.names.push(callee.to_string());
                    self.func.names.len() - 1
                }
            };
            Callee::Host {
                name: name as u32,
                void: inst.ty.is_void(),
            }
        };
        let start = self.func.args.len() as u32;
        for a in args {
            let v = self.val(a);
            self.func.args.push(v);
        }
        self.func.calls.push(CallSite {
            callee,
            args: start,
            nargs: args.len() as u32,
            dst: self.result(inst),
        });
        Op::Call {
            site: self.func.calls.len() as u32 - 1,
        }
    }

    /// Profiling facts of `inst`, mirroring the paper's §II-A vector
    /// definition: a vector operand or result makes it a vector
    /// instruction.
    fn meta(&mut self, inst: &Inst, loc: HotLoc) -> Meta {
        let f = self.f;
        let ops = inst.operands();
        let widest = ops
            .iter()
            .map(|op| f.operand_type(op).lanes())
            .chain(std::iter::once(inst.ty.lanes()))
            .max()
            .unwrap_or(1);
        let vector = inst.ty.is_vector() || ops.iter().any(|op| f.operand_type(op).is_vector());
        let active = match &inst.kind {
            InstKind::Call { callee, args } if vector => match intrinsics::parse(callee) {
                Some(Intrinsic::MaskLoad { lanes, .. } | Intrinsic::MaskStore { lanes, .. }) => {
                    match args.get(1) {
                        Some(m) => {
                            let mut mask = self.val(m);
                            mask.n = mask.n.min(u16::try_from(lanes).unwrap_or(u16::MAX));
                            Active::Mask { mask }
                        }
                        None => Active::Full,
                    }
                }
                _ => Active::Full,
            },
            InstKind::Select { cond, .. } if f.operand_type(cond).is_vector() => Active::Cond {
                cond: self.slot(cond),
                n: width(f.operand_type(cond)),
            },
            _ => Active::Full,
        };
        Meta {
            loc,
            opcode: inst.opcode(),
            vector,
            width: widest,
            active,
        }
    }
}

/// Words a value of type `ty` occupies (void takes none).
fn width(ty: Type) -> u16 {
    u16::try_from(ty.lanes()).expect("vector types are at most 65535 lanes wide")
}

/// Bytes of one element of type `ty`, for `alloca` and `getelementptr`.
fn size(ty: Type) -> u32 {
    u32::try_from(ty.size_bytes()).expect("element types are under 4 GiB")
}

/// A register operand of type `ty` at `off`.
fn typed(off: Slot, ty: Type) -> Val {
    Val {
        off,
        n: width(ty),
        vector: ty.is_vector(),
        ty: ty.elem().unwrap_or(ScalarTy::I64),
    }
}

/// The lane a constant index selects — `index mod lanes`, exactly as a
/// dynamic index would — or `None` for a dynamic index.
fn const_index(idx: &Operand, n: u16) -> Option<u16> {
    let c = idx.constant()?;
    let bits = c.scalar_bits()? & c.ty.elem()?.bit_mask();
    Some((bits % n as u64) as u16)
}

/// The per-lane bit patterns a constant materializes to (`n` words for
/// `n` lanes; scalars take one).
fn const_lanes(c: &Constant) -> Vec<u64> {
    let (elem, n) = match c.ty {
        Type::Scalar(s) => (s, 1),
        Type::Vector(s, n) => (s, n as usize),
        Type::Void => return Vec::new(),
    };
    let mut lanes = match &c.data {
        ConstData::Vector(v) if c.ty.is_vector() => v.clone(),
        ConstData::Vector(v) => v.iter().take(1).copied().collect(),
        ConstData::Scalar(b) => vec![*b; n],
        ConstData::Zero | ConstData::Undef => vec![0; n],
    };
    lanes.resize(n, 0);
    for b in &mut lanes {
        *b &= elem.bit_mask();
    }
    lanes
}
