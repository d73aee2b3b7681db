//! Execution tracing: the zero-cost-when-off hook layer behind the
//! propagation profiler.
//!
//! The interpreter reports **architectural events** — the points where a
//! program's execution becomes externally observable — to an optional
//! [`TraceSink`]:
//!
//! - every memory store (plain or masked), as `(address, value bits)`;
//! - every conditional-branch decision, as the chosen block;
//! - the entry function's return value.
//!
//! When no sink is installed the hook is a single `Option` test on paths
//! that already do memory or control work, and the interpreter's results
//! are bit-identical to an untraced run: the sink only *observes*.
//!
//! [`DivergenceTracer`] is the sink the fault-injection campaign uses: a
//! golden run records the event stream as a sequence of hashes; the
//! faulty run replays against it and notes the first mismatch — the
//! **first architectural divergence**, whose distance from the injection
//! point is the paper-style propagation profile.

use std::sync::Arc;

/// One architectural event, reported as it retires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A store retired: `bits` folds every written lane (and, for masked
    /// stores, which lanes were active).
    Store { addr: u64, bits: u64 },
    /// A conditional branch chose `block`.
    Branch { block: u32 },
    /// The entry function returned `bits` (folded lanes; 0 for void).
    Ret { bits: u64 },
}

impl TraceEvent {
    /// Stable 64-bit fingerprint of the event (FNV-1a over tag+payload).
    pub fn fingerprint(self) -> u64 {
        let (tag, a, b) = match self {
            TraceEvent::Store { addr, bits } => (1u64, addr, bits),
            TraceEvent::Branch { block } => (2u64, block as u64, 0),
            TraceEvent::Ret { bits } => (3u64, bits, 0),
        };
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for word in [tag, a, b] {
            for byte in word.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x1_0000_01b3);
            }
        }
        h
    }
}

/// Observer of architectural events. Implementations must not affect
/// execution — the interpreter's behaviour is identical with any sink
/// (or none) installed.
pub trait TraceSink {
    /// Called as each architectural event retires. `dyn_index` is the
    /// dynamic instruction count at the event.
    fn event(&mut self, dyn_index: u64, ev: TraceEvent);
}

/// Fold a sequence of lane bit patterns into one 64-bit value (order
/// sensitive), used to summarize vector stores/returns as one event.
pub fn fold_bits(acc: u64, bits: u64) -> u64 {
    // One FNV-1a step per word keeps the fold cheap and well mixed.
    let mut h = acc ^ 0x9e37_79b9_7f4a_7c15;
    for byte in bits.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// The point where a compared run first left the golden event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divergence {
    /// Dynamic instruction count at the diverging event.
    pub dyn_index: u64,
    /// Ordinal of the diverging event in this run's event stream.
    pub event_index: u64,
}

enum TracerMode {
    /// Collect the event fingerprint stream (golden run).
    Record,
    /// Replay against a recorded stream, noting the first mismatch
    /// (faulty run). The stream is shared: one golden recording serves
    /// every faulty run of its input.
    Compare { golden: Arc<[u64]>, cursor: usize },
}

/// A [`TraceSink`] that records a golden run's event stream, then finds
/// where a faulty run first diverges from it.
pub struct DivergenceTracer {
    mode: TracerMode,
    stream: Vec<u64>,
    events: u64,
    divergence: Option<Divergence>,
}

impl DivergenceTracer {
    /// Golden-run mode: record every event fingerprint.
    pub fn record() -> DivergenceTracer {
        DivergenceTracer {
            mode: TracerMode::Record,
            stream: Vec::new(),
            events: 0,
            divergence: None,
        }
    }

    /// Faulty-run mode: compare against `golden` (from
    /// [`DivergenceTracer::into_stream`]).
    pub fn compare(golden: impl Into<Arc<[u64]>>) -> DivergenceTracer {
        DivergenceTracer {
            mode: TracerMode::Compare {
                golden: golden.into(),
                cursor: 0,
            },
            stream: Vec::new(),
            events: 0,
            divergence: None,
        }
    }

    /// The recorded fingerprint stream (record mode).
    pub fn into_stream(self) -> Vec<u64> {
        self.stream
    }

    /// Events observed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// First divergence from the golden stream, if any (compare mode).
    ///
    /// A compared run that runs *past* the end of the golden stream, or
    /// ends before consuming all of it, diverged in event count; the
    /// overrun case is caught here, the underrun by
    /// [`DivergenceTracer::finish`].
    pub fn divergence(&self) -> Option<Divergence> {
        self.divergence
    }

    /// Close out a compare-mode run that ended normally: a run that
    /// consumed fewer events than the golden stream diverged by
    /// *omission* at its end. `dyn_index` should be the final dynamic
    /// instruction count.
    pub fn finish(&mut self, dyn_index: u64) {
        if self.divergence.is_some() {
            return;
        }
        if let TracerMode::Compare { golden, cursor } = &self.mode {
            if *cursor < golden.len() {
                self.divergence = Some(Divergence {
                    dyn_index,
                    event_index: self.events,
                });
            }
        }
    }
}

impl TraceSink for DivergenceTracer {
    fn event(&mut self, dyn_index: u64, ev: TraceEvent) {
        let fp = ev.fingerprint();
        self.events += 1;
        match &mut self.mode {
            TracerMode::Record => self.stream.push(fp),
            TracerMode::Compare { golden, cursor } => {
                if self.divergence.is_none() {
                    let matches = golden.get(*cursor) == Some(&fp);
                    *cursor += 1;
                    if !matches {
                        self.divergence = Some(Divergence {
                            dyn_index,
                            event_index: self.events - 1,
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u64) -> TraceEvent {
        TraceEvent::Store { addr: n, bits: n }
    }

    #[test]
    fn identical_streams_do_not_diverge() {
        let mut g = DivergenceTracer::record();
        for i in 0..5 {
            g.event(i * 10, ev(i));
        }
        let stream = g.into_stream();
        assert_eq!(stream.len(), 5);

        let mut c = DivergenceTracer::compare(stream);
        for i in 0..5 {
            c.event(i * 10, ev(i));
        }
        c.finish(50);
        assert_eq!(c.divergence(), None);
    }

    #[test]
    fn first_mismatch_is_reported_once() {
        let mut g = DivergenceTracer::record();
        for i in 0..4 {
            g.event(i, ev(i));
        }
        let mut c = DivergenceTracer::compare(g.into_stream());
        c.event(100, ev(0));
        c.event(101, ev(1));
        c.event(102, ev(99)); // diverges here
        c.event(103, ev(3)); // would match again; must not clear it
        let d = c.divergence().unwrap();
        assert_eq!(d.dyn_index, 102);
        assert_eq!(d.event_index, 2);
    }

    #[test]
    fn extra_events_past_golden_end_diverge() {
        let mut g = DivergenceTracer::record();
        g.event(0, ev(0));
        let mut c = DivergenceTracer::compare(g.into_stream());
        c.event(10, ev(0));
        c.event(20, ev(1)); // golden stream exhausted
        assert_eq!(c.divergence().unwrap().dyn_index, 20);
    }

    #[test]
    fn missing_tail_events_diverge_at_finish() {
        let mut g = DivergenceTracer::record();
        g.event(0, ev(0));
        g.event(1, ev(1));
        let mut c = DivergenceTracer::compare(g.into_stream());
        c.event(10, ev(0));
        assert_eq!(c.divergence(), None, "not yet: run may still catch up");
        c.finish(42);
        let d = c.divergence().unwrap();
        assert_eq!(d.dyn_index, 42);
        assert_eq!(d.event_index, 1);
    }

    #[test]
    fn interp_hooks_observe_without_perturbing() {
        use crate::{Interp, NoHost, RtVal, Scalar};
        let src = r#"
define float @acc(ptr %p, float %x) {
entry:
  %c = fcmp ogt float %x, 0.0
  br i1 %c, label %pos, label %neg
pos:
  store float %x, ptr %p
  br label %done
neg:
  store float 0.0, ptr %p
  br label %done
done:
  %r = load float, ptr %p
  ret float %r
}
"#;
        let m = vir::parser::parse_module(src).unwrap();
        let run = |x: f32, sink: Option<&mut DivergenceTracer>| -> (f32, u64) {
            let mut interp = Interp::new(&m);
            let p = interp.mem.alloc(4).unwrap();
            if let Some(s) = sink {
                interp.set_trace_sink(s);
            }
            let args = [RtVal::Scalar(Scalar::ptr(p)), RtVal::Scalar(Scalar::f32(x))];
            let out = interp.run("acc", &args, &mut NoHost).unwrap();
            (out.ret.unwrap().scalar().as_f32(), out.dyn_insts)
        };

        // Untraced and traced runs agree on result and dynamic count.
        let (r_plain, n_plain) = run(2.5, None);
        let mut golden = DivergenceTracer::record();
        let (r_traced, n_traced) = run(2.5, Some(&mut golden));
        assert_eq!(r_plain, r_traced);
        assert_eq!(n_plain, n_traced);
        // branch + store + ret observed.
        assert_eq!(golden.events(), 3);
        let stream = golden.into_stream();

        // Same input replays cleanly.
        let mut same = DivergenceTracer::compare(stream.clone());
        run(2.5, Some(&mut same));
        same.finish(n_plain);
        assert_eq!(same.divergence(), None);

        // A different input diverges at the branch decision.
        let mut diff = DivergenceTracer::compare(stream);
        run(-1.0, Some(&mut diff));
        diff.finish(n_plain);
        let d = diff.divergence().unwrap();
        assert_eq!(d.event_index, 0, "branch is the first observable event");
    }

    #[test]
    fn fingerprints_separate_kinds_and_payloads() {
        let a = TraceEvent::Store { addr: 1, bits: 2 }.fingerprint();
        let b = TraceEvent::Store { addr: 2, bits: 1 }.fingerprint();
        let c = TraceEvent::Branch { block: 1 }.fingerprint();
        let d = TraceEvent::Ret { bits: 1 }.fingerprint();
        assert_ne!(a, b);
        assert_ne!(c, d);
        assert_ne!(a, c);
    }
}
