//! Machine parameters of the cost model.

/// The paper's machine description: `p` processors, start-up time `ts` and
/// per-word time `tw`, both in units of one computation operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineParams {
    /// Number of processors.
    pub p: usize,
    /// Message start-up time.
    pub ts: f64,
    /// Per-word transfer time.
    pub tw: f64,
}

/// The largest `ts`, `tw` and block size `m` the CLI and `serve` accept:
/// with all three at most 1e9, every stage cost is finite at any `p`.
pub const MAX_INPUT: f64 = 1e9;

impl MachineParams {
    /// A new parameter set; `p ≥ 1`, `ts, tw ≥ 0`.
    pub fn new(p: usize, ts: f64, tw: f64) -> Self {
        assert!(p >= 1, "need at least one processor");
        assert!(ts >= 0.0 && tw >= 0.0, "ts and tw must be non-negative");
        MachineParams { p, ts, tw }
    }

    /// [`MachineParams::new`] for values that arrive from outside the
    /// program: `p ≥ 1` and `ts`, `tw` in `0..=`[`MAX_INPUT`], as an error
    /// to report instead of an assertion.
    pub fn try_new(p: usize, ts: f64, tw: f64) -> Result<Self, String> {
        if p < 1 {
            return Err("p must be at least 1".to_string());
        }
        for (name, x) in [("ts", ts), ("tw", tw)] {
            if !(0.0..=MAX_INPUT).contains(&x) {
                return Err(format!("{name} must be in 0..={MAX_INPUT:e}, got {x:e}"));
            }
        }
        Ok(MachineParams { p, ts, tw })
    }

    /// `⌈log₂ p⌉` — the phase count of every butterfly collective.
    pub fn log_p(&self) -> f64 {
        if self.p <= 1 {
            0.0
        } else {
            ((self.p - 1).ilog2() + 1) as f64
        }
    }

    /// The "Parsytec-like" preset used for the figure reproductions:
    /// a latency-dominated mid-90s MPP interconnect.
    pub fn parsytec_like(p: usize) -> Self {
        MachineParams::new(p, 200.0, 2.0)
    }

    /// A low-latency preset resembling shared-memory transport.
    pub fn low_latency(p: usize) -> Self {
        MachineParams::new(p, 4.0, 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_p_rounds_up() {
        assert_eq!(MachineParams::new(1, 0.0, 0.0).log_p(), 0.0);
        assert_eq!(MachineParams::new(2, 0.0, 0.0).log_p(), 1.0);
        assert_eq!(MachineParams::new(6, 0.0, 0.0).log_p(), 3.0);
        assert_eq!(MachineParams::new(64, 0.0, 0.0).log_p(), 6.0);
        assert_eq!(MachineParams::new(65, 0.0, 0.0).log_p(), 7.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_processors_rejected() {
        let _ = MachineParams::new(0, 1.0, 1.0);
    }

    #[test]
    fn try_new_reports_what_new_asserts() {
        assert_eq!(
            MachineParams::try_new(8, 100.0, 2.0),
            Ok(MachineParams::new(8, 100.0, 2.0))
        );
        assert!(MachineParams::try_new(1, 0.0, 0.0).is_ok());
        assert!(MachineParams::try_new(1, MAX_INPUT, MAX_INPUT).is_ok());
        for (p, ts, tw) in [
            (0, 1.0, 1.0),
            (8, -1.0, 1.0),
            (8, 1.0, -0.5),
            (8, f64::NAN, 1.0),
            (8, 1.0, f64::INFINITY),
            (8, 1e308, 1.0),
            (8, 1.0, MAX_INPUT * 2.0),
        ] {
            assert!(MachineParams::try_new(p, ts, tw).is_err(), "{p} {ts} {tw}");
        }
    }

    #[test]
    fn presets_scale_with_p() {
        let a = MachineParams::parsytec_like(64);
        assert_eq!(a.p, 64);
        assert!(a.ts > MachineParams::low_latency(64).ts);
    }

    #[test]
    fn debug_format_mentions_fields() {
        let a = MachineParams::new(8, 100.0, 2.0);
        let d = format!("{a:?}");
        assert!(d.contains("ts") && d.contains("tw") && d.contains('8'));
    }
}
