//! Output checking: result digests, the recorded default-seed digests, and
//! the failure tally behind `failed` / `failed_frac`.

use std::collections::BTreeMap;

use vulfi::{OutcomeCounts, StudyResult};

/// The seed whose merged results are pinned by the files in `digests/`.
/// Any other seed is checked against an untimed `vulfi::run_study`.
pub const DEFAULT_SEED: u64 = 1;

/// FNV-1a over the parts of a merged result that must repeat exactly:
/// outcome counts, per-campaign SDC samples (bit patterns) and the
/// convergence flag. Shard order and wall times never enter it.
pub fn digest(counts: &OutcomeCounts, samples: &[f64], converged: bool) -> String {
    let mut text = format!(
        "{},{},{},{},{};",
        counts.sdc, counts.benign, counts.crash, counts.sdc_detected, counts.detected
    );
    for s in samples {
        text.push_str(&format!("{:016x},", s.to_bits()));
    }
    text.push_str(if converged { "c" } else { "n" });
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

pub fn result_digest(r: &StudyResult) -> String {
    digest(&r.counts, &r.samples, r.converged)
}

/// Digest of the `result` object `GET /studies/:key` returns.
pub fn served_digest(result: &serde_json::Value) -> Option<String> {
    let counts: OutcomeCounts = serde_json::from_value(result.get("counts")?).ok()?;
    let samples: Vec<f64> = serde_json::from_value(result.get("samples")?).ok()?;
    let converged = result.get("converged")?.as_bool()?;
    Some(digest(&counts, &samples, converged))
}

/// Recorded digests of one workload at [`DEFAULT_SEED`], keyed by the
/// two coordinates that locate a study: (round, cell) for the batch
/// workloads, (client, fresh spec) for the serve workload.
pub struct Recorded(BTreeMap<(u64, u64), String>);

impl Recorded {
    /// Parse `a b digest` lines; `#` starts a comment.
    pub fn parse(text: &str) -> Result<Recorded, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let (Some(a), Some(b), Some(d), None) = (f.first(), f.get(1), f.get(2), f.get(3))
            else {
                return Err(format!("digest line {}: expected `a b digest`", n + 1));
            };
            let num = |s: &str| {
                s.parse::<u64>()
                    .map_err(|e| format!("digest line {}: {e}", n + 1))
            };
            map.insert((num(a)?, num(b)?), d.to_string());
        }
        Ok(Recorded(map))
    }

    pub fn get(&self, a: u64, b: u64) -> Option<&str> {
        self.0.get(&(a, b)).map(String::as_str)
    }

    pub fn render(header: &str, entries: &BTreeMap<(u64, u64), String>) -> String {
        let mut out = String::new();
        for line in header.lines() {
            out.push_str(&format!("# {line}\n"));
        }
        for ((a, b), d) in entries {
            out.push_str(&format!("{a} {b} {d}\n"));
        }
        out
    }
}

/// Operations attempted and the ways they failed. Each operation fails
/// at most once: it stops at its first failure.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Tally {
    pub attempted: u64,
    /// A study that returned an error (or, served, reported `failed` or
    /// never finished).
    pub errored: u64,
    /// A non-2xx HTTP reply.
    pub non_2xx: u64,
    /// A result that differs from the reference.
    pub mismatched: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.errored + self.non_2xx + self.mismatched
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.errored += other.errored;
        self.non_2xx += other.non_2xx;
        self.mismatched += other.mismatched;
    }

    pub fn to_json(self) -> serde_json::Value {
        serde_json::json!({
            "attempted": self.attempted,
            "errored": self.errored,
            "non_2xx": self.non_2xx,
            "mismatched": self.mismatched,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_frac_counts_each_failure_kind_once() {
        let mut t = Tally {
            attempted: 10,
            ..Tally::default()
        };
        assert_eq!(t.failed_frac(), 0.0);
        t.errored += 1; // a study that errored
        t.non_2xx += 1; // a refused submit
        t.mismatched += 1; // a result that failed the output check
        assert_eq!(t.failed(), 3);
        assert!((t.failed_frac() - 0.3).abs() < 1e-12);
        let mut sum = Tally::default();
        sum.add(&t);
        sum.add(&t);
        assert_eq!((sum.attempted, sum.failed()), (20, 6));
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    #[test]
    fn digests_see_counts_samples_and_convergence() {
        let c = OutcomeCounts {
            sdc: 3,
            benign: 5,
            crash: 2,
            ..OutcomeCounts::default()
        };
        let base = digest(&c, &[30.0, 40.0], true);
        assert_eq!(base, digest(&c, &[30.0, 40.0], true));
        assert_ne!(base, digest(&c, &[30.0, 40.0], false));
        assert_ne!(base, digest(&c, &[40.0, 30.0], true));
        let c2 = OutcomeCounts { crash: 3, ..c };
        assert_ne!(base, digest(&c2, &[30.0, 40.0], true));
        let served = serde_json::json!({
            "counts": serde_json::to_value(&c).unwrap(),
            "samples": vec![30.0f64, 40.0],
            "converged": true,
            "mean_sdc": 35.0f64,
        });
        assert_eq!(served_digest(&served).as_deref(), Some(base.as_str()));
    }

    #[test]
    fn recorded_digests_round_trip() {
        let mut m = BTreeMap::new();
        m.insert((0, 3), "00ff".to_string());
        m.insert((1, 0), "abcd".to_string());
        let text = Recorded::render("seed 1\nsecond line", &m);
        let r = Recorded::parse(&text).unwrap();
        assert_eq!(r.get(0, 3), Some("00ff"));
        assert_eq!(r.get(1, 0), Some("abcd"));
        assert_eq!(r.get(2, 0), None);
        assert!(Recorded::parse("1 2").is_err());
    }
}
