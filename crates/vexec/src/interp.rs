//! The VIR interpreter: a virtual vector machine.
//!
//! Executes one module function (plus anything it calls) against the
//! guarded [`Memory`] model. All "crash" conditions of the paper's outcome
//! taxonomy surface as [`Trap`]s: invalid memory references, division by
//! zero, runaway execution (hang budget), unknown calls.
//!
//! The engine runs the module's [`Program`]: flat register bytecode
//! decoded once (see [`crate::program`]). Registers are dense `u64`
//! words with vector lanes inline, so no instruction allocates; phis
//! are per-edge moves; callees were resolved at decode time.
//!
//! Host functions — VULFI's runtime injection API, the detector runtime,
//! and anything else declared but not defined — are dispatched through the
//! [`HostEnv`] trait, mirroring how an instrumented native binary links
//! against the fault-injection runtime library.

use std::sync::Arc;
use std::time::{Duration, Instant};

use vir::intrinsics::{Intrinsic, MathOp};
use vir::{BinOp, CastOp, FCmpPred, ICmpPred, Module, ScalarTy};

use crate::fault::EngineInjector;
use crate::mem::{Memory, Trap};
use crate::profile::{HotProfile, InstMix};
use crate::program::{Active, Callee, Edge, Func, Meta, Op, Program, Val};
use crate::trace::{fold_bits, TraceEvent, TraceSink};
use crate::value::{RtVal, Scalar};

/// Host-function dispatcher.
pub trait HostEnv {
    /// Handle a call to an external function. Return `Ok(None)` for void
    /// functions. `mem` allows host functions to inspect program memory.
    fn call(&mut self, name: &str, args: &[RtVal], mem: &mut Memory)
        -> Result<Option<RtVal>, Trap>;
}

/// A host environment that rejects every call.
pub struct NoHost;

impl HostEnv for NoHost {
    fn call(&mut self, name: &str, _: &[RtVal], _: &mut Memory) -> Result<Option<RtVal>, Trap> {
        Err(Trap::UnknownFunction(name.to_string()))
    }
}

/// Result of a completed execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecResult {
    pub ret: Option<RtVal>,
    /// Dynamic instruction count (instructions + terminators executed).
    pub dyn_insts: u64,
}

/// Maximum call depth.
const MAX_DEPTH: usize = 64;

/// How many instructions run between wall-clock deadline checks. A power
/// of two so the check compiles to a mask test; large enough that
/// `Instant::now()` never shows up in profiles, small enough that a
/// runaway loop overshoots its deadline by microseconds, not seconds.
const WALL_CHECK_MASK: u64 = (1 << 13) - 1;

/// Host-call arguments built on the stack (instrumented injection sites
/// pass four scalars).
const INLINE_ARGS: usize = 4;

/// Where a called function's arguments come from.
enum ArgSrc<'a> {
    /// The entry call's runtime values.
    Values(&'a [RtVal]),
    /// A call site's operands in the caller's frame.
    Regs(&'a [u64], &'a [Val]),
}

impl ArgSrc<'_> {
    fn len(&self) -> usize {
        match self {
            ArgSrc::Values(v) => v.len(),
            ArgSrc::Regs(_, a) => a.len(),
        }
    }
}

/// The interpreter. One instance executes programs from one module.
pub struct Interp<'m> {
    pub module: &'m Module,
    pub mem: Memory,
    program: Arc<Program>,
    budget: u64,
    executed: u64,
    deadline: Option<Instant>,
    mix: Option<InstMix>,
    hot: Option<HotProfile>,
    /// Either profiler is on: every retired instruction is noted.
    observed: bool,
    trace: Option<&'m mut dyn TraceSink>,
    fault: Option<&'m mut EngineInjector>,
    /// Frame buffers by call depth, reused across calls.
    frames: Vec<Vec<u64>>,
    /// Scratch words for parallel phi copies and corrupted masks.
    scratch: Vec<u64>,
}

impl<'m> Interp<'m> {
    /// An interpreter over `module`, decoding it first. Callers that run
    /// one module many times decode once with [`Program::decode`] and
    /// use [`Interp::with_program`].
    pub fn new(module: &'m Module) -> Interp<'m> {
        Interp::with_program(module, Arc::new(Program::decode(module)))
    }

    /// An interpreter running `program`, which must have been decoded
    /// from `module`.
    pub fn with_program(module: &'m Module, program: Arc<Program>) -> Interp<'m> {
        debug_assert_eq!(program.funcs.len(), module.functions.len());
        Interp {
            module,
            mem: Memory::default(),
            program,
            budget: u64::MAX / 2,
            executed: 0,
            deadline: None,
            mix: None,
            hot: None,
            observed: false,
            trace: None,
            fault: None,
            frames: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Install an engine-level fault injector (see [`crate::fault`]).
    ///
    /// Value-register fault models never need this; it exists for the
    /// models that corrupt interpreter state the instrumented injection
    /// API cannot reach: mask registers, address operands, and guarded
    /// memory cells. With no injector installed the hooks cost a single
    /// `Option` test, exactly like the trace sink.
    pub fn set_engine_injector(&mut self, inj: &'m mut EngineInjector) {
        self.fault = Some(inj);
    }

    /// Route a guarded-access address through the engine injector.
    fn fault_addr(&mut self, addr: u64) -> u64 {
        match self.fault.as_deref_mut() {
            Some(inj) => inj.on_mem_access(self.executed, addr),
            None => addr,
        }
    }

    /// Install an architectural-event observer (see [`crate::trace`]).
    ///
    /// The sink only observes; execution, results, and dynamic
    /// instruction counts are bit-identical with or without one. When no
    /// sink is installed the hooks cost a single `Option` test on paths
    /// that already touch memory or control flow.
    pub fn set_trace_sink(&mut self, sink: &'m mut dyn TraceSink) {
        self.trace = Some(sink);
    }

    fn note_event(&mut self, ev: TraceEvent) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.event(self.executed, ev);
        }
    }

    /// Enable dynamic instruction-mix profiling (Table I / Fig. 10 style
    /// dynamic composition). Adds per-instruction bookkeeping cost.
    pub fn enable_profiling(&mut self) {
        self.observable();
        self.mix = Some(InstMix::default());
    }

    /// Take the collected profile, if profiling was enabled.
    pub fn take_mix(&mut self) -> Option<InstMix> {
        self.mix.take()
    }

    /// Enable hot-path profiling: per-site dynamic counts with batched
    /// wall-time attribution (see [`HotProfile`]). Independent of
    /// [`Interp::enable_profiling`]; both may be on at once. Like the
    /// mix and the trace sink, the hooks are purely observational —
    /// execution stays bit-identical (property-tested below).
    pub fn enable_hotspots(&mut self) {
        self.observable();
        self.hot = Some(HotProfile::default());
    }

    /// Switch to a program carrying profiling metadata (shared programs
    /// are decoded without it).
    fn observable(&mut self) {
        if !self.program.observable {
            self.program = Arc::new(Program::decode_observable(self.module));
        }
    }

    /// Take the collected hotspot profile (trailing partial wall-time
    /// batch flushed), if hotspot profiling was enabled.
    pub fn take_hotspots(&mut self) -> Option<HotProfile> {
        let mut h = self.hot.take()?;
        h.finish();
        Some(h)
    }

    /// Record one retired instruction with the profilers.
    #[cold]
    #[inline(never)]
    fn note(&mut self, fi: usize, f: &Func, m: &Meta, regs: &[u64]) {
        if let Some(hot) = &mut self.hot {
            hot.record(fi, &f.name, m.loc, m.opcode);
        }
        let Some(mix) = &mut self.mix else {
            return;
        };
        if !m.vector {
            mix.record(m.opcode, false);
            return;
        }
        // Active-lane count: masked memory ops consult their mask operand
        // (sign bits) and vector selects their condition (bit 0, the
        // select semantics); everything else executes all lanes.
        let active = match m.active {
            Active::Full => m.width,
            Active::Mask { mask } => lanes(regs, mask)
                .iter()
                .filter(|&&bits| Scalar { ty: mask.ty, bits }.mask_active())
                .count() as u32,
            Active::Cond { cond, n } => regs[cond as usize..][..n as usize]
                .iter()
                .filter(|&&b| b & 1 == 1)
                .count() as u32,
        };
        mix.record_vector_lanes(m.opcode, active.min(m.width), m.width);
    }

    /// Cap the number of dynamic instructions; exceeding it traps with
    /// [`Trap::HangBudget`]. Campaigns set this from the golden run to
    /// detect fault-induced infinite loops.
    pub fn set_budget(&mut self, budget: u64) {
        self.budget = budget;
    }

    /// Arm the wall-clock watchdog: execution trap with
    /// [`Trap::WallClock`] once `limit` of real time has elapsed
    /// (checked every few thousand instructions). Unlike the instruction
    /// budget this is **not deterministic** — it exists as a last-resort
    /// containment bound for faulted executions whose per-instruction
    /// cost explodes (e.g. allocation churn), and should be set
    /// generously above any plausible honest runtime.
    pub fn set_wall_limit(&mut self, limit: Duration) {
        self.deadline = Some(Instant::now() + limit);
    }

    /// Cap the simulated memory: allocations beyond `bytes` trap with
    /// [`Trap::OutOfMemory`]. Convenience forwarding to
    /// [`Memory::set_limit`].
    pub fn set_memory_limit(&mut self, bytes: u64) {
        self.mem.set_limit(bytes);
    }

    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Execute `func` with `args`.
    pub fn run(
        &mut self,
        func: &str,
        args: &[RtVal],
        host: &mut dyn HostEnv,
    ) -> Result<ExecResult, Trap> {
        let program = Arc::clone(&self.program);
        let fi = program
            .func(func)
            .ok_or_else(|| Trap::UnknownFunction(func.to_string()))?;
        let params = program.funcs[fi].params.len();
        if params != args.len() {
            return Err(Trap::HostError(format!(
                "@{func} expects {params} arguments, got {}",
                args.len()
            )));
        }
        self.observed = self.mix.is_some() || self.hot.is_some();
        let ret = self.call(&program, fi, ArgSrc::Values(args), host, 0)?;
        if self.trace.is_some() {
            let bits = match &ret {
                None => 0,
                Some(v) => v
                    .lanes()
                    .into_iter()
                    .fold(0, |acc, s| fold_bits(acc, s.bits)),
            };
            self.note_event(TraceEvent::Ret { bits });
        }
        Ok(ExecResult {
            ret,
            dyn_insts: self.executed,
        })
    }

    #[inline(always)]
    fn tick(&mut self) -> Result<(), Trap> {
        self.executed += 1;
        if self.executed > self.budget {
            return Err(Trap::HangBudget);
        }
        if self.executed & WALL_CHECK_MASK == 0 {
            if let Some(deadline) = self.deadline {
                if Instant::now() >= deadline {
                    return Err(Trap::WallClock);
                }
            }
        }
        if let Some(inj) = self.fault.as_deref_mut() {
            inj.on_step(self.executed, &mut self.mem);
        }
        Ok(())
    }

    /// Call function `fi` at call depth `depth` in a fresh frame.
    fn call(
        &mut self,
        program: &Program,
        fi: usize,
        args: ArgSrc,
        host: &mut dyn HostEnv,
        depth: usize,
    ) -> Result<Option<RtVal>, Trap> {
        if depth >= MAX_DEPTH {
            return Err(Trap::StackOverflow);
        }
        let f = &program.funcs[fi];
        if args.len() > f.values {
            return Err(Trap::EngineFault(format!(
                "call to @{} with {} arguments but only {} value slots",
                f.name,
                args.len(),
                f.values
            )));
        }
        if self.frames.len() <= depth {
            self.frames.resize_with(depth + 1, Vec::new);
        }
        let mut regs = std::mem::take(&mut self.frames[depth]);
        regs.clear();
        regs.resize(f.words, 0);
        regs.extend_from_slice(&f.pool);
        for (i, p) in f.params.iter().enumerate() {
            match &args {
                ArgSrc::Values(vs) => {
                    if let Some(v) = vs.get(i) {
                        write_val(&mut regs, *p, v);
                    }
                }
                ArgSrc::Regs(src, vals) => {
                    if let Some(a) = vals.get(i) {
                        let n = a.n.min(p.n) as usize;
                        regs[p.off as usize..][..n].copy_from_slice(&lanes(src, *a)[..n]);
                    }
                }
            }
        }
        let ret = self.exec(program, fi, &mut regs, host, depth);
        self.frames[depth] = regs;
        ret
    }

    /// Enter a block over `e`: retire its phis, then copy their incoming
    /// values as one parallel assignment. Returns the block's first pc.
    fn enter(&mut self, fi: usize, f: &Func, e: &Edge, regs: &mut [u64]) -> Result<usize, Trap> {
        for j in 0..e.nphis {
            self.tick()?;
            if self.observed {
                self.note(fi, f, &f.meta[(e.phi_meta + j as u32) as usize], regs);
            }
            if e.missing == Some(j) {
                return Err(Trap::HostError("phi missing incoming edge".into()));
            }
        }
        let moves = &f.moves[e.moves.start as usize..e.moves.end as usize];
        if e.parallel {
            self.scratch.clear();
            for m in moves {
                self.scratch
                    .extend_from_slice(&regs[m.src as usize..][..m.n as usize]);
            }
            let mut k = 0;
            for m in moves {
                let n = m.n as usize;
                regs[m.dst as usize..][..n].copy_from_slice(&self.scratch[k..k + n]);
                k += n;
            }
        } else {
            for m in moves {
                if m.n == 1 {
                    regs[m.dst as usize] = regs[m.src as usize];
                } else {
                    let src = m.src as usize;
                    regs.copy_within(src..src + m.n as usize, m.dst as usize);
                }
            }
        }
        Ok(e.pc as usize)
    }

    /// Run function `fi`'s code over its frame `regs` until it returns.
    fn exec(
        &mut self,
        program: &Program,
        fi: usize,
        regs: &mut [u64],
        host: &mut dyn HostEnv,
        depth: usize,
    ) -> Result<Option<RtVal>, Trap> {
        let f = &program.funcs[fi];
        let mut pc = f.start as usize;
        loop {
            let op = &f.code[pc];
            self.tick()?;
            // `unreachable` traps before it retires into any profile.
            if self.observed && !matches!(op, Op::Unreachable) {
                self.note(fi, f, &f.meta[pc], regs);
            }
            match *op {
                Op::Bin {
                    op,
                    ty,
                    n,
                    dst,
                    a,
                    b,
                } => {
                    for i in 0..n as usize {
                        let x = Scalar {
                            ty,
                            bits: regs[a as usize + i],
                        };
                        let y = Scalar {
                            ty,
                            bits: regs[b as usize + i],
                        };
                        regs[dst as usize + i] = eval_bin(op, x, y)?.bits;
                    }
                }
                Op::ICmp {
                    pred,
                    ty,
                    n,
                    dst,
                    a,
                    b,
                } => {
                    for i in 0..n as usize {
                        let x = Scalar {
                            ty,
                            bits: regs[a as usize + i],
                        };
                        let y = Scalar {
                            ty,
                            bits: regs[b as usize + i],
                        };
                        regs[dst as usize + i] = eval_icmp(pred, x, y) as u64;
                    }
                }
                Op::FCmp {
                    pred,
                    ty,
                    n,
                    dst,
                    a,
                    b,
                } => {
                    for i in 0..n as usize {
                        let x = Scalar {
                            ty,
                            bits: regs[a as usize + i],
                        };
                        let y = Scalar {
                            ty,
                            bits: regs[b as usize + i],
                        };
                        regs[dst as usize + i] = eval_fcmp(pred, x, y) as u64;
                    }
                }
                Op::Select {
                    n,
                    dst,
                    cond,
                    on_true,
                    on_false,
                } => {
                    let src = if regs[cond as usize] & 1 == 1 {
                        on_true
                    } else {
                        on_false
                    } as usize;
                    regs.copy_within(src..src + n as usize, dst as usize);
                }
                Op::Blend {
                    n,
                    dst,
                    cond,
                    on_true,
                    on_false,
                } => {
                    for i in 0..n as usize {
                        let arm = if regs[cond as usize + i] & 1 == 1 {
                            on_true
                        } else {
                            on_false
                        };
                        regs[dst as usize + i] = regs[arm as usize + i];
                    }
                }
                Op::Cast {
                    op,
                    from,
                    to,
                    n,
                    dst,
                    src,
                } => {
                    for i in 0..n as usize {
                        let v = Scalar {
                            ty: from,
                            bits: regs[src as usize + i],
                        };
                        regs[dst as usize + i] = eval_cast(op, v, to).bits;
                    }
                }
                Op::Alloca {
                    elem_size,
                    count_ty,
                    count,
                    dst,
                } => {
                    let n = Scalar {
                        ty: count_ty,
                        bits: regs[count as usize],
                    }
                    .as_i64();
                    if n < 0 {
                        return Err(Trap::OutOfMemory);
                    }
                    regs[dst as usize] = self.mem.alloc(elem_size as u64 * n as u64)?;
                }
                Op::Load { ty, n, dst, ptr } => {
                    let addr = self.fault_addr(regs[ptr as usize]);
                    for i in 0..n as usize {
                        regs[dst as usize + i] =
                            self.mem.read_scalar(ty, addr + i as u64 * ty.bytes())?.bits;
                    }
                }
                Op::Store { ty, n, val, ptr } => {
                    let addr = self.fault_addr(regs[ptr as usize]);
                    let vals = &regs[val as usize..][..n as usize];
                    for (i, &bits) in vals.iter().enumerate() {
                        self.mem
                            .write_scalar(addr + i as u64 * ty.bytes(), Scalar { ty, bits })?;
                    }
                    if self.trace.is_some() {
                        let bits = vals.iter().fold(0, |acc, &b| fold_bits(acc, b));
                        self.note_event(TraceEvent::Store { addr, bits });
                    }
                }
                Op::Gep {
                    elem_size,
                    idx_ty,
                    idx,
                    dst,
                    base,
                } => {
                    let i = Scalar {
                        ty: idx_ty,
                        bits: regs[idx as usize],
                    }
                    .as_i64();
                    regs[dst as usize] =
                        regs[base as usize].wrapping_add((elem_size as i64).wrapping_mul(i) as u64);
                }
                Op::Copy { dst, src } => regs[dst as usize] = regs[src as usize],
                Op::Extract { n, dst, vec, idx } => {
                    let i = (regs[idx as usize] % n as u64) as usize;
                    regs[dst as usize] = regs[vec as usize + i];
                }
                Op::Insert {
                    n,
                    dst,
                    vec,
                    elt,
                    idx,
                } => {
                    let i = (regs[idx as usize] % n as u64) as usize;
                    insert(regs, n, dst, vec, elt, i);
                }
                Op::InsertAt {
                    n,
                    lane,
                    dst,
                    vec,
                    elt,
                } => insert(regs, n, dst, vec, elt, lane as usize),
                Op::Shuffle { dst, table } => {
                    for (i, src) in f.shuffles[table as usize].iter().enumerate() {
                        regs[dst as usize + i] = src.map_or(0, |s| regs[s as usize]);
                    }
                }
                Op::Call { site } => self.call_site(program, f, site, regs, host, depth)?,
                Op::Fail { trap } => return Err(f.traps[trap as usize].clone()),
                Op::Br { edge } => {
                    pc = self.enter(fi, f, &f.edges[edge as usize], regs)?;
                    continue;
                }
                Op::CondBr {
                    cond,
                    on_true,
                    on_false,
                } => {
                    let edge = if regs[cond as usize] & 1 == 1 {
                        on_true
                    } else {
                        on_false
                    };
                    let e = &f.edges[edge as usize];
                    self.note_event(TraceEvent::Branch { block: e.block });
                    pc = self.enter(fi, f, e, regs)?;
                    continue;
                }
                Op::Ret { val } => return Ok(val.map(|v| load(regs, v))),
                Op::Unreachable => return Err(Trap::Unreachable),
            }
            pc += 1;
        }
    }

    /// Execute call site `site` of `f`, writing its result register.
    fn call_site(
        &mut self,
        program: &Program,
        f: &Func,
        site: u32,
        regs: &mut [u64],
        host: &mut dyn HostEnv,
        depth: usize,
    ) -> Result<(), Trap> {
        let site = &f.calls[site as usize];
        let args = &f.args[site.args as usize..][..site.nargs as usize];
        let ret = match &site.callee {
            Callee::Func(func) => self.call(
                program,
                *func as usize,
                ArgSrc::Regs(regs, args),
                host,
                depth + 1,
            )?,
            Callee::Intrinsic(intr) => {
                if self.intrinsic(*intr, args, regs, site.dst)? {
                    return Ok(());
                }
                None
            }
            Callee::Host { name, void } => {
                let name = &f.names[*name as usize];
                // Mirror the dynamic-instruction clock into memory so
                // host environments (e.g. the fault injector) can
                // timestamp their actions without a wider interface.
                self.mem.set_host_clock(self.executed);
                let ret = call_host(host, name, regs, args, &mut self.mem)?;
                if ret.is_none() && !void {
                    return Err(Trap::HostError(format!(
                        "host @{name} returned nothing for a non-void call"
                    )));
                }
                ret
            }
        };
        if let Some(d) = site.dst {
            let v = ret
                .ok_or_else(|| Trap::HostError("non-void instruction produced no value".into()))?;
            write_val(regs, d, &v);
        }
        Ok(())
    }

    /// The mask lanes a masked intrinsic uses: the operand's, or a
    /// corrupted copy when the engine injector takes this event.
    fn mask(&mut self, regs: &[u64], mask: Val) -> Vec<u64> {
        let mut m = std::mem::take(&mut self.scratch);
        m.clear();
        m.extend_from_slice(lanes(regs, mask));
        if let Some(inj) = self.fault.as_deref_mut() {
            inj.on_mask_lanes(self.executed, mask.ty, &mut m);
        }
        m
    }

    /// Execute an intrinsic, writing its result (if any) to `dst`.
    /// Returns whether the intrinsic produces a value.
    fn intrinsic(
        &mut self,
        intr: Intrinsic,
        args: &[Val],
        regs: &mut [u64],
        dst: Option<Val>,
    ) -> Result<bool, Trap> {
        match intr {
            Intrinsic::MaskLoad { lanes, elem } => {
                let addr = self.fault_addr(regs[args[0].off as usize]);
                let mask = self.mask(regs, args[1]);
                let active = |i: usize| {
                    Scalar {
                        ty: args[1].ty,
                        bits: mask[i],
                    }
                    .mask_active()
                };
                for i in 0..lanes as usize {
                    let bits = if active(i) {
                        let lane = addr + i as u64 * elem.bytes();
                        self.mem.read_scalar(elem, lane)?.bits
                    } else {
                        0
                    };
                    put(regs, dst, i, bits);
                }
                self.scratch = mask;
                Ok(true)
            }
            Intrinsic::MaskStore { lanes, elem } => {
                let addr = self.fault_addr(regs[args[0].off as usize]);
                let mask = self.mask(regs, args[1]);
                let val = args[2];
                let active = |i: usize| {
                    Scalar {
                        ty: args[1].ty,
                        bits: mask[i],
                    }
                    .mask_active()
                };
                for i in 0..lanes as usize {
                    if active(i) {
                        let bits = regs[val.off as usize + i];
                        self.mem.write_scalar(
                            addr + i as u64 * elem.bytes(),
                            Scalar { ty: val.ty, bits },
                        )?;
                    }
                }
                if self.trace.is_some() {
                    // Fold which lanes were active along with their bits,
                    // so a mask flip with identical data still registers.
                    let mut bits = 0;
                    for i in 0..lanes as usize {
                        if active(i) {
                            let lane = regs[val.off as usize + i];
                            bits = fold_bits(fold_bits(bits, i as u64), lane);
                        }
                    }
                    self.note_event(TraceEvent::Store { addr, bits });
                }
                self.scratch = mask;
                Ok(false)
            }
            Intrinsic::Math { op, ty } => {
                let elem = ty.elem().unwrap_or(ScalarTy::F64);
                let a = args[0];
                let float = |regs: &[u64], v: Val, i: usize| scalar_at(regs, v, i).as_float();
                let unary: fn(f64) -> f64 = match op {
                    MathOp::Sqrt => f64::sqrt,
                    MathOp::Exp => f64::exp,
                    MathOp::Log => f64::ln,
                    MathOp::Sin => f64::sin,
                    MathOp::Cos => f64::cos,
                    MathOp::Fabs => f64::abs,
                    MathOp::Floor => f64::floor,
                    MathOp::Ceil => f64::ceil,
                    MathOp::Pow | MathOp::MinNum | MathOp::MaxNum => {
                        let g: fn(f64, f64) -> f64 = match op {
                            MathOp::Pow => f64::powf,
                            MathOp::MinNum => f64::min,
                            _ => f64::max,
                        };
                        let b = args[1];
                        // A scalar result keeps the first lane pair.
                        let n = if ty.is_vector() { a.n.min(b.n) } else { 1 };
                        for i in 0..n as usize {
                            let r = g(float(regs, a, i), float(regs, b, i));
                            put(regs, dst, i, Scalar::from_float(elem, r).bits);
                        }
                        return Ok(true);
                    }
                };
                if ty.is_vector() {
                    for i in 0..a.n as usize {
                        let r = unary(float(regs, a, i));
                        put(regs, dst, i, Scalar::from_float(elem, r).bits);
                    }
                } else {
                    // A scalar result keeps the last lane.
                    let r = unary(float(regs, a, a.n as usize - 1));
                    put(regs, dst, 0, Scalar::from_float(elem, r).bits);
                }
                Ok(true)
            }
            Intrinsic::Movmsk { lanes } => {
                let mut bits: u64 = 0;
                for i in 0..lanes as usize {
                    if scalar_at(regs, args[0], i).mask_active() {
                        bits |= 1 << i;
                    }
                }
                put(regs, dst, 0, Scalar::i32(bits as i32).bits);
                Ok(true)
            }
            Intrinsic::MaskAny { lanes } => {
                let any = (0..lanes as usize).any(|i| scalar_at(regs, args[0], i).is_true());
                put(regs, dst, 0, any as u64);
                Ok(true)
            }
            Intrinsic::MaskAll { lanes } => {
                let all = (0..lanes as usize).all(|i| scalar_at(regs, args[0], i).is_true());
                put(regs, dst, 0, all as u64);
                Ok(true)
            }
        }
    }
}

/// The words of register operand `v`.
fn lanes(regs: &[u64], v: Val) -> &[u64] {
    &regs[v.off as usize..][..v.n as usize]
}

/// Lane `i` of `v`; a scalar answers every lane with its one value.
fn scalar_at(regs: &[u64], v: Val, i: usize) -> Scalar {
    let i = if v.vector { i } else { 0 };
    Scalar {
        ty: v.ty,
        bits: lanes(regs, v)[i],
    }
}

/// Write lane `i` of an intrinsic's result register, if it has one.
fn put(regs: &mut [u64], dst: Option<Val>, i: usize, bits: u64) {
    if let Some(d) = dst {
        if i < d.n as usize {
            regs[d.off as usize + i] = bits;
        }
    }
}

/// Materialize `v` as a runtime value.
fn load(regs: &[u64], v: Val) -> RtVal {
    if v.vector {
        RtVal::Vector(v.ty, lanes(regs, v).to_vec())
    } else {
        RtVal::Scalar(scalar_at(regs, v, 0))
    }
}

/// Store runtime value `v` into register `dst` (bits masked to the
/// register's element type).
fn write_val(regs: &mut [u64], dst: Val, v: &RtVal) {
    let words = &mut regs[dst.off as usize..][..dst.n as usize];
    match v {
        RtVal::Scalar(s) => words[0] = s.bits & dst.ty.bit_mask(),
        RtVal::Vector(_, ls) => {
            for (w, b) in words.iter_mut().zip(ls) {
                *w = b & dst.ty.bit_mask();
            }
        }
    }
}

/// Lane `lane` of `vec` replaced by `elt`, into `dst`.
fn insert(regs: &mut [u64], n: u16, dst: u32, vec: u32, elt: u32, lane: usize) {
    let e = regs[elt as usize];
    let vec = vec as usize;
    regs.copy_within(vec..vec + n as usize, dst as usize);
    regs[dst as usize + lane] = e;
}

/// Dispatch a host call, passing up to [`INLINE_ARGS`] arguments in a
/// stack array.
fn call_host(
    host: &mut dyn HostEnv,
    name: &str,
    regs: &[u64],
    args: &[Val],
    mem: &mut Memory,
) -> Result<Option<RtVal>, Trap> {
    if args.len() <= INLINE_ARGS {
        let argv: [RtVal; INLINE_ARGS] = std::array::from_fn(|i| match args.get(i) {
            Some(&a) => load(regs, a),
            None => RtVal::Scalar(Scalar::i1(false)),
        });
        host.call(name, &argv[..args.len()], mem)
    } else {
        let argv: Vec<RtVal> = args.iter().map(|&a| load(regs, a)).collect();
        host.call(name, &argv, mem)
    }
}

/// One scalar binary operation. Integer ops wrap; division by zero traps;
/// shift amounts at or beyond the width produce 0 (sign-fill for `ashr`),
/// giving bit-flipped shift amounts a *defined* faulty semantics instead of
/// UB.
pub fn eval_bin(op: BinOp, a: Scalar, b: Scalar) -> Result<Scalar, Trap> {
    let ty = a.ty;
    let bits = ty.bits();
    let out = match op {
        BinOp::Add => a.bits.wrapping_add(b.bits),
        BinOp::Sub => a.bits.wrapping_sub(b.bits),
        BinOp::Mul => a.bits.wrapping_mul(b.bits),
        BinOp::SDiv => {
            if b.as_i64() == 0 {
                return Err(Trap::DivByZero);
            }
            a.as_i64().wrapping_div(b.as_i64()) as u64
        }
        BinOp::UDiv => {
            if b.bits == 0 {
                return Err(Trap::DivByZero);
            }
            a.bits / b.bits
        }
        BinOp::SRem => {
            if b.as_i64() == 0 {
                return Err(Trap::DivByZero);
            }
            a.as_i64().wrapping_rem(b.as_i64()) as u64
        }
        BinOp::URem => {
            if b.bits == 0 {
                return Err(Trap::DivByZero);
            }
            a.bits % b.bits
        }
        BinOp::And => a.bits & b.bits,
        BinOp::Or => a.bits | b.bits,
        BinOp::Xor => a.bits ^ b.bits,
        BinOp::Shl => {
            let amt = b.bits;
            if amt >= bits as u64 {
                0
            } else {
                a.bits << amt
            }
        }
        BinOp::LShr => {
            let amt = b.bits;
            if amt >= bits as u64 {
                0
            } else {
                a.bits >> amt
            }
        }
        BinOp::AShr => {
            let amt = b.bits;
            if amt >= bits as u64 {
                if a.as_i64() < 0 {
                    u64::MAX
                } else {
                    0
                }
            } else {
                (a.as_i64() >> amt) as u64
            }
        }
        BinOp::FAdd => return Ok(Scalar::from_float(ty, a.as_float() + b.as_float())),
        BinOp::FSub => return Ok(Scalar::from_float(ty, a.as_float() - b.as_float())),
        BinOp::FMul => return Ok(Scalar::from_float(ty, a.as_float() * b.as_float())),
        BinOp::FDiv => return Ok(Scalar::from_float(ty, a.as_float() / b.as_float())),
        BinOp::FRem => return Ok(Scalar::from_float(ty, a.as_float() % b.as_float())),
    };
    Ok(Scalar::new(ty, out))
}

/// One scalar integer comparison.
pub fn eval_icmp(pred: ICmpPred, a: Scalar, b: Scalar) -> bool {
    match pred {
        ICmpPred::Eq => a.bits == b.bits,
        ICmpPred::Ne => a.bits != b.bits,
        ICmpPred::Slt => a.as_i64() < b.as_i64(),
        ICmpPred::Sle => a.as_i64() <= b.as_i64(),
        ICmpPred::Sgt => a.as_i64() > b.as_i64(),
        ICmpPred::Sge => a.as_i64() >= b.as_i64(),
        ICmpPred::Ult => a.bits < b.bits,
        ICmpPred::Ule => a.bits <= b.bits,
        ICmpPred::Ugt => a.bits > b.bits,
        ICmpPred::Uge => a.bits >= b.bits,
    }
}

/// One scalar float comparison.
pub fn eval_fcmp(pred: FCmpPred, a: Scalar, b: Scalar) -> bool {
    let (x, y) = (a.as_float(), b.as_float());
    let unordered = x.is_nan() || y.is_nan();
    match pred {
        FCmpPred::Oeq => !unordered && x == y,
        FCmpPred::One => !unordered && x != y,
        FCmpPred::Olt => !unordered && x < y,
        FCmpPred::Ole => !unordered && x <= y,
        FCmpPred::Ogt => !unordered && x > y,
        FCmpPred::Oge => !unordered && x >= y,
        FCmpPred::Ord => !unordered,
        FCmpPred::Uno => unordered,
        FCmpPred::Ueq => unordered || x == y,
        FCmpPred::Une => unordered || x != y,
    }
}

/// One scalar cast. Out-of-range `fptosi` (including NaN) produces 0 — a
/// defined semantics so that bit-flipped floats keep execution
/// deterministic.
pub fn eval_cast(op: CastOp, v: Scalar, to: ScalarTy) -> Scalar {
    match op {
        CastOp::Trunc | CastOp::Bitcast | CastOp::PtrToInt | CastOp::IntToPtr | CastOp::ZExt => {
            Scalar::new(to, v.bits)
        }
        CastOp::SExt => Scalar::new(to, v.as_i64() as u64),
        CastOp::FpToSi => {
            let f = v.as_float();
            let i = if f.is_nan() || f < i64::MIN as f64 || f > i64::MAX as f64 {
                0
            } else {
                f as i64
            };
            Scalar::new(to, i as u64)
        }
        CastOp::SiToFp => Scalar::from_float(to, v.as_i64() as f64),
        CastOp::FpExt | CastOp::FpTrunc => Scalar::from_float(to, v.as_float()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vir::parser::parse_module;

    fn run_i32(src: &str, func: &str, args: &[RtVal]) -> Result<i64, Trap> {
        let m = parse_module(src).unwrap();
        vir::verify::verify_module(&m).unwrap();
        let mut interp = Interp::new(&m);
        let r = interp.run(func, args, &mut NoHost)?;
        Ok(r.ret.unwrap().scalar().as_i64())
    }

    #[test]
    fn runs_sum_loop() {
        let src = r#"
define i32 @sum(i32 %n) {
entry:
  br label %header
header:
  %i = phi i32 [ 0, %entry ], [ %i2, %body ]
  %acc = phi i32 [ 0, %entry ], [ %acc2, %body ]
  %cond = icmp slt i32 %i, %n
  br i1 %cond, label %body, label %exit
body:
  %acc2 = add i32 %acc, %i
  %i2 = add i32 %i, 1
  br label %header
exit:
  ret i32 %acc
}
"#;
        assert_eq!(
            run_i32(src, "sum", &[RtVal::Scalar(Scalar::i32(10))]).unwrap(),
            45
        );
        assert_eq!(
            run_i32(src, "sum", &[RtVal::Scalar(Scalar::i32(0))]).unwrap(),
            0
        );
    }

    #[test]
    fn vector_arithmetic_elementwise() {
        let src = r#"
define <4 x i32> @vadd(<4 x i32> %a, <4 x i32> %b) {
entry:
  %s = add <4 x i32> %a, %b
  ret <4 x i32> %s
}
"#;
        let m = parse_module(src).unwrap();
        let mut interp = Interp::new(&m);
        let a = RtVal::from_lanes(ScalarTy::I32, (0..4).map(Scalar::i32));
        let b = RtVal::from_lanes(ScalarTy::I32, (10..14).map(Scalar::i32));
        let r = interp.run("vadd", &[a, b], &mut NoHost).unwrap();
        let lanes: Vec<i64> = r.ret.unwrap().lanes().iter().map(|s| s.as_i64()).collect();
        assert_eq!(lanes, vec![10, 12, 14, 16]);
    }

    #[test]
    fn div_by_zero_traps() {
        let src = r#"
define i32 @d(i32 %a, i32 %b) {
entry:
  %q = sdiv i32 %a, %b
  ret i32 %q
}
"#;
        let e = run_i32(
            src,
            "d",
            &[RtVal::Scalar(Scalar::i32(1)), RtVal::Scalar(Scalar::i32(0))],
        );
        assert_eq!(e, Err(Trap::DivByZero));
    }

    #[test]
    fn hang_budget_traps() {
        let src = r#"
define void @spin() {
entry:
  br label %entry2
entry2:
  br label %entry2
}
"#;
        let m = parse_module(src).unwrap();
        let mut interp = Interp::new(&m);
        interp.set_budget(1000);
        let e = interp.run("spin", &[], &mut NoHost);
        assert_eq!(e.unwrap_err(), Trap::HangBudget);
    }

    #[test]
    fn wall_clock_watchdog_traps_infinite_loop() {
        let src = r#"
define void @spin() {
entry:
  br label %entry2
entry2:
  br label %entry2
}
"#;
        let m = parse_module(src).unwrap();
        let mut interp = Interp::new(&m);
        // Budget effectively unbounded: only the wall clock can stop this.
        interp.set_wall_limit(std::time::Duration::from_millis(20));
        let started = std::time::Instant::now();
        let e = interp.run("spin", &[], &mut NoHost);
        assert_eq!(e.unwrap_err(), Trap::WallClock);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(10),
            "watchdog must fire promptly"
        );
    }

    #[test]
    fn memory_ceiling_traps_alloca() {
        let src = r#"
define void @gulp(i32 %n) {
entry:
  %p = alloca float, i32 %n
  ret void
}
"#;
        let m = parse_module(src).unwrap();
        let mut interp = Interp::new(&m);
        interp.set_memory_limit(1024);
        let e = interp.run("gulp", &[RtVal::Scalar(Scalar::i32(4096))], &mut NoHost);
        assert_eq!(e.unwrap_err(), Trap::OutOfMemory);
        // Under the ceiling, the same program is fine.
        let mut interp = Interp::new(&m);
        interp.set_memory_limit(1024);
        interp
            .run("gulp", &[RtVal::Scalar(Scalar::i32(8))], &mut NoHost)
            .unwrap();
    }

    #[test]
    fn engine_faults_trap_instead_of_panicking() {
        // A call with mismatched arity inside the module (bypassing the
        // top-level arity check) must trap, not panic.
        let src = r#"
define i32 @callee(i32 %a) {
entry:
  ret i32 %a
}
"#;
        let m = parse_module(src).unwrap();
        let mut interp = Interp::new(&m);
        // Top-level arity mismatch is a HostError (caller bug)...
        let e = interp.run("callee", &[], &mut NoHost);
        assert!(matches!(e, Err(Trap::HostError(_))));
        // ...but an intrinsic short on arguments is an EngineFault.
        let src = r#"
define float @short() {
entry:
  %r = call float @llvm.sqrt.f32()
  ret float %r
}
"#;
        let m = parse_module(src).unwrap();
        let e = Interp::new(&m).run("short", &[], &mut NoHost);
        assert!(matches!(e, Err(Trap::EngineFault(_))), "{e:?}");
    }

    /// Trap `Display` strings are persisted in trace records: pin the
    /// text of every trap the engine raises, each raised for real.
    #[test]
    fn trap_display_strings_are_pinned() {
        let src = r#"
declare i32 @ext.none(i32)

define i32 @past(ptr %a) {
entry:
  %p = getelementptr i32, ptr %a, i32 100
  %v = load i32, ptr %p
  ret i32 %v
}

define i32 @div(i32 %a) {
entry:
  %q = sdiv i32 %a, 0
  ret i32 %q
}

define void @dead() {
entry:
  unreachable
}

define float @bogus(float %x) {
entry:
  %r = call float @llvm.bogus.f32(float %x)
  ret float %r
}

define i32 @host(i32 %x) {
entry:
  %r = call i32 @ext.none(i32 %x)
  ret i32 %r
}

define void @spin() {
entry:
  br label %loop
loop:
  br label %loop
}

define i32 @forever(i32 %x) {
entry:
  %r = call i32 @forever(i32 %x)
  ret i32 %r
}

define void @gulp(i32 %n) {
entry:
  %p = alloca float, i32 %n
  ret void
}

define float @short() {
entry:
  %r = call float @llvm.sqrt.f32()
  ret float %r
}
"#;
        struct Silent;
        impl HostEnv for Silent {
            fn call(&mut self, _: &str, _: &[RtVal], _: &mut Memory) -> HostResult {
                Ok(None)
            }
        }
        type HostResult = Result<Option<RtVal>, Trap>;
        let m = parse_module(src).unwrap();
        let i32v = |v| RtVal::Scalar(Scalar::i32(v));
        let trap = |f: &str, args: &[RtVal], setup: &dyn Fn(&mut Interp)| {
            let mut interp = Interp::new(&m);
            setup(&mut interp);
            interp.run(f, args, &mut NoHost).unwrap_err().to_string()
        };
        let none = |_: &mut Interp| {};
        let mut interp = Interp::new(&m);
        let base = interp.mem.alloc_i32_slice(&[1, 2, 3]).unwrap();
        let oob = interp
            .run("past", &[RtVal::Scalar(Scalar::ptr(base))], &mut NoHost)
            .unwrap_err();
        let silent = Interp::new(&m)
            .run("host", &[i32v(1)], &mut Silent)
            .unwrap_err();
        let cases = [
            (
                oob.to_string(),
                "out-of-bounds access of 4 bytes at 0x10190",
            ),
            (trap("div", &[i32v(7)], &none), "integer division by zero"),
            (trap("dead", &[], &none), "executed unreachable"),
            (
                trap("bogus", &[RtVal::Scalar(Scalar::f32(1.0))], &none),
                "call to unknown function @llvm.bogus.f32",
            ),
            (
                trap("host", &[i32v(1)], &none),
                "call to unknown function @ext.none",
            ),
            (
                trap("missing", &[], &none),
                "call to unknown function @missing",
            ),
            (
                trap("spin", &[], &|i: &mut Interp| i.set_budget(50)),
                "dynamic instruction budget exhausted",
            ),
            (trap("forever", &[i32v(1)], &none), "call stack overflow"),
            (
                trap("gulp", &[i32v(4096)], &|i: &mut Interp| {
                    i.set_memory_limit(1024)
                }),
                "simulated memory exhausted",
            ),
            (
                trap("spin", &[], &|i: &mut Interp| {
                    i.set_wall_limit(Duration::from_millis(1))
                }),
                "wall-clock watchdog fired",
            ),
            (
                trap("short", &[], &none),
                "engine fault: intrinsic expects 1 arguments, got 0",
            ),
            (
                trap("div", &[], &none),
                "host error: @div expects 1 arguments, got 0",
            ),
            (
                silent.to_string(),
                "host error: host @ext.none returned nothing for a non-void call",
            ),
        ];
        for (got, want) in cases {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn memory_ops_and_gep() {
        let src = r#"
define i32 @second(ptr %a) {
entry:
  %p = getelementptr i32, ptr %a, i32 1
  %v = load i32, ptr %p
  ret i32 %v
}
"#;
        let m = parse_module(src).unwrap();
        let mut interp = Interp::new(&m);
        let base = interp.mem.alloc_i32_slice(&[7, 42, 9]).unwrap();
        let r = interp
            .run("second", &[RtVal::Scalar(Scalar::ptr(base))], &mut NoHost)
            .unwrap();
        assert_eq!(r.ret.unwrap().scalar().as_i64(), 42);
    }

    #[test]
    fn oob_load_traps() {
        let src = r#"
define i32 @past(ptr %a) {
entry:
  %p = getelementptr i32, ptr %a, i32 100
  %v = load i32, ptr %p
  ret i32 %v
}
"#;
        let m = parse_module(src).unwrap();
        let mut interp = Interp::new(&m);
        let base = interp.mem.alloc_i32_slice(&[1, 2, 3]).unwrap();
        let e = interp.run("past", &[RtVal::Scalar(Scalar::ptr(base))], &mut NoHost);
        assert!(matches!(e, Err(Trap::OutOfBounds { .. })));
    }

    #[test]
    fn masked_load_skips_inactive_lanes_and_oob() {
        // Mask covers only the first 2 lanes; the other 6 would be OOB but
        // must not be touched — the whole point of masked tails.
        let src = r#"
declare <8 x float> @llvm.x86.avx.maskload.ps.256(ptr, <8 x float>)

define <8 x float> @tail(ptr %a, <8 x float> %m) {
entry:
  %v = call <8 x float> @llvm.x86.avx.maskload.ps.256(ptr %a, <8 x float> %m)
  ret <8 x float> %v
}
"#;
        let m = parse_module(src).unwrap();
        let mut interp = Interp::new(&m);
        let base = interp.mem.alloc_f32_slice(&[1.5, 2.5]).unwrap();
        let on = f32::from_bits(0xffff_ffff);
        let mask = RtVal::from_lanes(
            ScalarTy::F32,
            (0..8).map(|i| {
                if i < 2 {
                    Scalar::f32(on)
                } else {
                    Scalar::f32(0.0)
                }
            }),
        );
        let r = interp
            .run(
                "tail",
                &[RtVal::Scalar(Scalar::ptr(base)), mask],
                &mut NoHost,
            )
            .unwrap();
        let lanes = r.ret.unwrap();
        assert_eq!(lanes.lane(0).as_f32(), 1.5);
        assert_eq!(lanes.lane(1).as_f32(), 2.5);
        for i in 2..8 {
            assert_eq!(lanes.lane(i).as_f32(), 0.0);
        }
    }

    #[test]
    fn masked_store_writes_only_active_lanes() {
        let src = r#"
declare void @llvm.x86.avx.maskstore.ps.256(ptr, <8 x float>, <8 x float>)

define void @st(ptr %a, <8 x float> %m, <8 x float> %v) {
entry:
  call void @llvm.x86.avx.maskstore.ps.256(ptr %a, <8 x float> %m, <8 x float> %v)
  ret void
}
"#;
        let m = parse_module(src).unwrap();
        let mut interp = Interp::new(&m);
        let base = interp.mem.alloc_f32_slice(&[0.0; 8]).unwrap();
        let on = f32::from_bits(0xffff_ffff);
        let mask = RtVal::from_lanes(
            ScalarTy::F32,
            (0..8).map(|i| {
                if i % 2 == 0 {
                    Scalar::f32(on)
                } else {
                    Scalar::f32(0.0)
                }
            }),
        );
        let val = RtVal::from_lanes(ScalarTy::F32, (0..8).map(|i| Scalar::f32(i as f32 + 1.0)));
        interp
            .run(
                "st",
                &[RtVal::Scalar(Scalar::ptr(base)), mask, val],
                &mut NoHost,
            )
            .unwrap();
        let out = interp.mem.read_f32_slice(base, 8).unwrap();
        assert_eq!(out, vec![1.0, 0.0, 3.0, 0.0, 5.0, 0.0, 7.0, 0.0]);
    }

    #[test]
    fn math_intrinsics() {
        let src = r#"
define float @hyp(float %a, float %b) {
entry:
  %aa = fmul float %a, %a
  %bb = fmul float %b, %b
  %s = fadd float %aa, %bb
  %r = call float @llvm.sqrt.f32(float %s)
  ret float %r
}
"#;
        let m = parse_module(src).unwrap();
        let mut interp = Interp::new(&m);
        let r = interp
            .run(
                "hyp",
                &[
                    RtVal::Scalar(Scalar::f32(3.0)),
                    RtVal::Scalar(Scalar::f32(4.0)),
                ],
                &mut NoHost,
            )
            .unwrap();
        assert_eq!(r.ret.unwrap().scalar().as_f32(), 5.0);
    }

    #[test]
    fn function_calls_and_recursion_limit() {
        let src = r#"
define i32 @inc(i32 %x) {
entry:
  %r = add i32 %x, 1
  ret i32 %r
}

define i32 @twice(i32 %x) {
entry:
  %a = call i32 @inc(i32 %x)
  %b = call i32 @inc(i32 %a)
  ret i32 %b
}

define i32 @forever(i32 %x) {
entry:
  %r = call i32 @forever(i32 %x)
  ret i32 %r
}
"#;
        assert_eq!(
            run_i32(src, "twice", &[RtVal::Scalar(Scalar::i32(5))]).unwrap(),
            7
        );
        let e = run_i32(src, "forever", &[RtVal::Scalar(Scalar::i32(5))]);
        assert_eq!(e, Err(Trap::StackOverflow));
    }

    #[test]
    fn host_calls_dispatch() {
        struct Doubler;
        impl HostEnv for Doubler {
            fn call(
                &mut self,
                name: &str,
                args: &[RtVal],
                _mem: &mut Memory,
            ) -> Result<Option<RtVal>, Trap> {
                assert_eq!(name, "ext.double");
                Ok(Some(RtVal::Scalar(Scalar::i32(
                    args[0].scalar().as_i64() as i32 * 2,
                ))))
            }
        }
        let src = r#"
declare i32 @ext.double(i32)

define i32 @f(i32 %x) {
entry:
  %r = call i32 @ext.double(i32 %x)
  ret i32 %r
}
"#;
        let m = parse_module(src).unwrap();
        let mut interp = Interp::new(&m);
        let r = interp
            .run("f", &[RtVal::Scalar(Scalar::i32(21))], &mut Doubler)
            .unwrap();
        assert_eq!(r.ret.unwrap().scalar().as_i64(), 42);
    }

    #[test]
    fn dyn_inst_count_is_deterministic() {
        let src = r#"
define i32 @sum(i32 %n) {
entry:
  br label %header
header:
  %i = phi i32 [ 0, %entry ], [ %i2, %body ]
  %acc = phi i32 [ 0, %entry ], [ %acc2, %body ]
  %cond = icmp slt i32 %i, %n
  br i1 %cond, label %body, label %exit
body:
  %acc2 = add i32 %acc, %i
  %i2 = add i32 %i, 1
  br label %header
exit:
  ret i32 %acc
}
"#;
        let m = parse_module(src).unwrap();
        let count = |n: i32| {
            let mut interp = Interp::new(&m);
            interp
                .run("sum", &[RtVal::Scalar(Scalar::i32(n))], &mut NoHost)
                .unwrap()
                .dyn_insts
        };
        assert_eq!(count(10), count(10));
        assert!(count(20) > count(10));
    }

    #[test]
    fn shuffles_and_inserts() {
        let src = r#"
define <8 x float> @bcast(float %x) {
entry:
  %i = insertelement <8 x float> undef, float %x, i32 0
  %b = shufflevector <8 x float> %i, <8 x float> undef, <8 x i32> <i32 0, i32 0, i32 0, i32 0, i32 0, i32 0, i32 0, i32 0>
  ret <8 x float> %b
}
"#;
        let m = parse_module(src).unwrap();
        let mut interp = Interp::new(&m);
        let r = interp
            .run("bcast", &[RtVal::Scalar(Scalar::f32(2.5))], &mut NoHost)
            .unwrap();
        let v = r.ret.unwrap();
        for i in 0..8 {
            assert_eq!(v.lane(i).as_f32(), 2.5);
        }
    }

    #[test]
    fn shift_overflow_defined() {
        assert_eq!(
            eval_bin(BinOp::Shl, Scalar::i32(1), Scalar::i32(40))
                .unwrap()
                .bits,
            0
        );
        assert_eq!(
            eval_bin(BinOp::AShr, Scalar::i32(-1), Scalar::i32(99))
                .unwrap()
                .as_i64(),
            -1
        );
        assert_eq!(
            eval_bin(BinOp::LShr, Scalar::i32(-1), Scalar::i32(99))
                .unwrap()
                .bits,
            0
        );
    }

    #[test]
    fn fcmp_nan_semantics() {
        let nan = Scalar::f32(f32::NAN);
        let one = Scalar::f32(1.0);
        assert!(!eval_fcmp(FCmpPred::Oeq, nan, one));
        assert!(eval_fcmp(FCmpPred::Une, nan, one));
        assert!(eval_fcmp(FCmpPred::Uno, nan, nan));
        assert!(eval_fcmp(FCmpPred::Ord, one, one));
    }

    #[test]
    fn casts() {
        assert_eq!(
            eval_cast(CastOp::SExt, Scalar::i8(-1), ScalarTy::I32).as_i64(),
            -1
        );
        assert_eq!(
            eval_cast(CastOp::ZExt, Scalar::i8(-1), ScalarTy::I32).as_i64(),
            255
        );
        assert_eq!(
            eval_cast(CastOp::Trunc, Scalar::i32(0x1ff), ScalarTy::I8).as_u64(),
            0xff
        );
        assert_eq!(
            eval_cast(CastOp::SiToFp, Scalar::i32(-3), ScalarTy::F32).as_f32(),
            -3.0
        );
        assert_eq!(
            eval_cast(CastOp::FpToSi, Scalar::f32(2.9), ScalarTy::I32).as_i64(),
            2
        );
        assert_eq!(
            eval_cast(CastOp::FpToSi, Scalar::f32(f32::NAN), ScalarTy::I32).as_i64(),
            0
        );
        assert_eq!(
            eval_cast(CastOp::Bitcast, Scalar::f32(1.0), ScalarTy::I32).as_u64(),
            0x3f80_0000
        );
    }
}

#[cfg(test)]
mod profiling_tests {
    use super::*;
    use vir::parser::parse_module;

    /// Masked store with 3 of 8 lanes active, plus a full-width fmul.
    const MASKED: &str = r#"
declare void @llvm.x86.avx.maskstore.ps.256(ptr, <8 x float>, <8 x float>)

define void @k(ptr %a, <8 x float> %m, <8 x float> %v) {
entry:
  %d = fmul <8 x float> %v, %v
  call void @llvm.x86.avx.maskstore.ps.256(ptr %a, <8 x float> %m, <8 x float> %d)
  ret void
}
"#;

    fn masked_args(interp: &mut Interp) -> Vec<RtVal> {
        let base = interp.mem.alloc_f32_slice(&[0.0; 8]).unwrap();
        let on = f32::from_bits(0xffff_ffff);
        let mask = RtVal::from_lanes(
            ScalarTy::F32,
            (0..8).map(|i| {
                if i < 3 {
                    Scalar::f32(on)
                } else {
                    Scalar::f32(0.0)
                }
            }),
        );
        let val = RtVal::from_lanes(ScalarTy::F32, (0..8).map(|i| Scalar::f32(i as f32)));
        vec![RtVal::Scalar(Scalar::ptr(base)), mask, val]
    }

    #[test]
    fn occupancy_tracks_masked_lanes() {
        let m = parse_module(MASKED).unwrap();
        let mut interp = Interp::new(&m);
        interp.enable_profiling();
        let args = masked_args(&mut interp);
        interp.run("k", &args, &mut NoHost).unwrap();
        let mix = interp.take_mix().unwrap();
        // fmul runs all 8 lanes; the maskstore only 3.
        assert_eq!(mix.lanes_total, 16);
        assert_eq!(mix.lanes_active, 11);
        assert_eq!(mix.occupancy_histogram(), vec![(3, 1), (8, 1)]);
        assert!((mix.avg_active_lanes() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn occupancy_tracks_vector_select_condition() {
        let src = r#"
define <4 x i32> @sel(<4 x i1> %c, <4 x i32> %a, <4 x i32> %b) {
entry:
  %r = select <4 x i1> %c, <4 x i32> %a, <4 x i32> %b
  ret <4 x i32> %r
}
"#;
        let m = parse_module(src).unwrap();
        let mut interp = Interp::new(&m);
        interp.enable_profiling();
        let c = RtVal::from_lanes(ScalarTy::I1, [true, false, true, false].map(Scalar::i1));
        let a = RtVal::from_lanes(ScalarTy::I32, (0..4).map(Scalar::i32));
        let b = RtVal::from_lanes(ScalarTy::I32, (4..8).map(Scalar::i32));
        interp.run("sel", &[c, a, b], &mut NoHost).unwrap();
        let mix = interp.take_mix().unwrap();
        assert_eq!(mix.occupancy_histogram(), vec![(2, 1)]);
    }

    /// Run `MASKED` over arbitrary lanes and mask bits, with the given
    /// profilers on: the result, the output memory and the profiles.
    fn run_masked(
        lanes: &[u32],
        mask_bits: u8,
        mix: bool,
        hotspots: bool,
    ) -> (ExecResult, Vec<u32>, Option<InstMix>, Option<HotProfile>) {
        let m = parse_module(MASKED).unwrap();
        let mut interp = Interp::new(&m);
        if mix {
            interp.enable_profiling();
        }
        if hotspots {
            interp.enable_hotspots();
        }
        let base = interp.mem.alloc_f32_slice(&[0.0; 8]).unwrap();
        let on = f32::from_bits(0xffff_ffff);
        let mask = RtVal::from_lanes(
            ScalarTy::F32,
            (0..8).map(|i| {
                if mask_bits & (1 << i) != 0 {
                    Scalar::f32(on)
                } else {
                    Scalar::f32(0.0)
                }
            }),
        );
        let val = RtVal::from_lanes(
            ScalarTy::F32,
            lanes.iter().map(|&b| Scalar::f32(f32::from_bits(b))),
        );
        let args = vec![RtVal::Scalar(Scalar::ptr(base)), mask, val];
        let r = interp.run("k", &args, &mut NoHost).unwrap();
        let snapshot: Vec<u32> = interp
            .mem
            .read_f32_slice(base, 8)
            .unwrap()
            .into_iter()
            .map(f32::to_bits)
            .collect();
        (r, snapshot, interp.take_mix(), interp.take_hotspots())
    }

    /// The hotspot profile attributes every executed instruction to a
    /// static site: counts must reconcile exactly with the dynamic
    /// instruction count, and opcodes rank by dynamic frequency.
    #[test]
    fn hotspots_attribute_counts_to_sites() {
        let src = r#"
define i32 @loop(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i2, %head ]
  %acc = phi i32 [ 0, %entry ], [ %acc2, %head ]
  %acc2 = add i32 %acc, %i
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, %n
  br i1 %c, label %head, label %exit
exit:
  ret i32 %acc2
}
"#;
        let m = parse_module(src).unwrap();
        vir::verify::verify_module(&m).unwrap();
        let mut interp = Interp::new(&m);
        interp.enable_hotspots();
        let r = interp
            .run("loop", &[RtVal::Scalar(Scalar::i32(10))], &mut NoHost)
            .unwrap();
        let hot = interp.take_hotspots().unwrap();
        assert_eq!(
            hot.total(),
            r.dyn_insts,
            "every dynamic instruction must land at exactly one site"
        );
        let table = hot.hotspots();
        // 10 iterations × (2 phis + 2 adds + 1 icmp) dominate the mix:
        // add leads with 20 dynamic executions over 2 static sites.
        assert_eq!(
            (table[0].opcode, table[0].count, table[0].sites),
            ("add", 20, 2)
        );
        let folded = hot.folded();
        assert!(folded.contains("loop;add 20"), "{folded}");
        assert!(folded.contains("loop;condbr"), "{folded}");
        // Terminators and body instructions are distinct sites.
        assert!(hot
            .sites()
            .iter()
            .any(|s| matches!(s.loc, crate::profile::HotLoc::Term(_))));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Mix profiling must be purely observational over arbitrary
        /// inputs: results, memory, and dynamic instruction counts stay
        /// bit-identical with it on or off — the same contract the
        /// hotspot profiler and the trace sink hold to — and the mix
        /// counts the active mask lanes.
        #[test]
        fn profiling_is_observational_bit_for_bit(
            lanes in proptest::prop::collection::vec(proptest::prelude::any::<u32>(), 8),
            mask_bits in proptest::prelude::any::<u8>(),
        ) {
            let (plain, mem_plain, _, _) = run_masked(&lanes, mask_bits, false, false);
            let (profiled, mem_profiled, mix, _) = run_masked(&lanes, mask_bits, true, false);
            proptest::prop_assert_eq!(plain.dyn_insts, profiled.dyn_insts);
            proptest::prop_assert_eq!(plain, profiled);
            proptest::prop_assert_eq!(mem_plain, mem_profiled);
            let mix = mix.expect("profiling enabled");
            proptest::prop_assert_eq!(mix.total, 3, "fmul + maskstore call + ret");
            proptest::prop_assert_eq!(mix.lanes_active, 8 + mask_bits.count_ones() as u64);
        }

        /// Hotspot profiling must be purely observational over arbitrary
        /// inputs: results, memory, and dynamic instruction counts stay
        /// bit-identical with it on or off — the same contract the mix
        /// profiler and the trace sink hold to.
        #[test]
        fn hotspot_profiling_is_observational_bit_for_bit(
            lanes in proptest::prop::collection::vec(proptest::prelude::any::<u32>(), 8),
            mask_bits in proptest::prelude::any::<u8>(),
        ) {
            let (plain, mem_plain, _, _) = run_masked(&lanes, mask_bits, false, false);
            let (hot, mem_hot, _, profile) = run_masked(&lanes, mask_bits, false, true);
            proptest::prop_assert_eq!(plain.dyn_insts, hot.dyn_insts);
            proptest::prop_assert_eq!(plain, hot);
            proptest::prop_assert_eq!(mem_plain, mem_hot);
            let profile = profile.expect("hotspots enabled");
            proptest::prop_assert_eq!(profile.total(), 3, "fmul + maskstore call + ret");
        }
    }
}

#[cfg(test)]
mod intrinsic_tests {
    use super::*;
    use vir::parser::parse_module;

    fn run_ret(src: &str, func: &str, args: &[RtVal]) -> RtVal {
        let m = parse_module(src).unwrap();
        vir::verify::verify_module(&m).unwrap();
        let mut interp = Interp::new(&m);
        interp.run(func, args, &mut NoHost).unwrap().ret.unwrap()
    }

    #[test]
    fn movmsk_collects_sign_bits() {
        let src = r#"
define i32 @m(<8 x float> %v) {
entry:
  %r = call i32 @llvm.x86.avx.movmsk.ps.256(<8 x float> %v)
  ret i32 %r
}
"#;
        let v = RtVal::from_lanes(
            ScalarTy::F32,
            [1.0f32, -1.0, 2.0, -0.5, 0.0, -0.0, 3.0, -9.0]
                .iter()
                .map(|&x| Scalar::f32(x)),
        );
        let r = run_ret(src, "m", &[v]);
        // Negative lanes: 1, 3, 5 (-0.0 has the sign bit set!), 7.
        assert_eq!(r.scalar().as_i64(), 0b1010_1010);
    }

    #[test]
    fn mask_any_and_all() {
        let src = r#"
define i1 @any(<4 x i1> %m) {
entry:
  %r = call i1 @llvm.vulfi.mask.any.v4i1(<4 x i1> %m)
  ret i1 %r
}

define i1 @all(<4 x i1> %m) {
entry:
  %r = call i1 @llvm.vulfi.mask.all.v4i1(<4 x i1> %m)
  ret i1 %r
}
"#;
        let mk =
            |bits: [bool; 4]| RtVal::from_lanes(ScalarTy::I1, bits.iter().map(|&b| Scalar::i1(b)));
        let m = parse_module(src).unwrap();
        let run = |f: &str, v: RtVal| {
            Interp::new(&m)
                .run(f, &[v], &mut NoHost)
                .unwrap()
                .ret
                .unwrap()
                .scalar()
                .is_true()
        };
        assert!(run("any", mk([false, true, false, false])));
        assert!(!run("any", mk([false, false, false, false])));
        assert!(run("all", mk([true, true, true, true])));
        assert!(!run("all", mk([true, true, false, true])));
    }

    #[test]
    fn minnum_maxnum_and_pow() {
        let src = r#"
define float @f(float %a, float %b) {
entry:
  %mn = call float @llvm.minnum.f32(float %a, float %b)
  %mx = call float @llvm.maxnum.f32(float %a, float %b)
  %p = call float @llvm.pow.f32(float %mx, float 2.0)
  %r = fadd float %mn, %p
  ret float %r
}
"#;
        let r = run_ret(
            src,
            "f",
            &[
                RtVal::Scalar(Scalar::f32(-3.0)),
                RtVal::Scalar(Scalar::f32(4.0)),
            ],
        );
        assert_eq!(r.scalar().as_f32(), -3.0 + 16.0);
    }

    #[test]
    fn vector_math_is_elementwise() {
        let src = r#"
define <4 x float> @s(<4 x float> %v) {
entry:
  %r = call <4 x float> @llvm.sqrt.v4f32(<4 x float> %v)
  ret <4 x float> %r
}
"#;
        let v = RtVal::from_lanes(
            ScalarTy::F32,
            [1.0f32, 4.0, 9.0, 16.0].iter().map(|&x| Scalar::f32(x)),
        );
        let r = run_ret(src, "s", &[v]);
        let lanes: Vec<f32> = r.lanes().iter().map(|s| s.as_f32()).collect();
        assert_eq!(lanes, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn unknown_intrinsic_traps_cleanly() {
        let src = r#"
define void @f() {
entry:
  call void @llvm.x86.avx.maskstore.ps.256(ptr null, <8 x float> zeroinitializer, <8 x float> zeroinitializer)
  ret void
}
"#;
        // All lanes masked off: the null pointer is never dereferenced.
        let m = parse_module(src).unwrap();
        let mut interp = Interp::new(&m);
        interp.run("f", &[], &mut NoHost).unwrap();
    }
}
