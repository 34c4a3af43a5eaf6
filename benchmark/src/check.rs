//! The check path: `verify_registry` over a sweep of machine and block
//! sizes — symbolic schedule extraction (`collectives::schedule`) and
//! abstract verification (`analysis::schedule`), nothing else.

use std::time::Instant;

use collopt_analysis::{
    render_reports_json, verify_planted, verify_registry, verify_schedule, ScheduleReport,
};
use collopt_collectives::schedule::shipped_variants;

use crate::alloc;
use crate::clock::Clock;
use crate::gen::Rng;
use crate::trace::Tracer;
use crate::workload::{Fact, Quietest, Tally, Verdict, Workload};

const PS: std::ops::RangeInclusive<usize> = 2..=64;
const MS: [u64; 2] = [1, 97];
/// Where the planted-bug registry is verified: every planted variant
/// applies from `p = 3` on.
const PLANTED_AT: (usize, u64) = (8, 16);
/// The one diagnostic each planted bug must raise, written down by hand
/// from what the bug is — never read from the registry under test, and
/// not in the expectations file, which `--write-expected` rewrites.
/// Swapping send and receive in a ring makes neighbours wait for each
/// other, and a rank that skips the barrier leaves the rest waiting
/// (both COL008, deadlock or mismatch); a broadcast that sends one message
/// too many leaves it unconsumed (COL009).
const PLANTED_CODES: [(&str, &str); 3] = [
    ("planted_dropped_barrier", "COL008"),
    ("planted_off_by_one_bcast", "COL009"),
    ("planted_swapped_ring_reduce_scatter", "COL008"),
];

/// What one op returned, folded to what the expectations pin. Folding
/// allocates nothing, so the counted round counts the program alone.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Digest {
    verifications: u64,
    failed: u64,
    messages: u64,
    words: u64,
    /// FNV-1a over variant names and round counts, in registry order.
    hash: u64,
}

fn digest<'a>(reports: impl Iterator<Item = &'a ScheduleReport>) -> Digest {
    let mut d = Digest {
        verifications: 0,
        failed: 0,
        messages: 0,
        words: 0,
        hash: 0xCBF2_9CE4_8422_2325,
    };
    for report in reports {
        d.verifications += 1;
        d.failed += u64::from(!report.ok());
        d.messages += report.messages;
        d.words += report.words;
        let rounds = report.rounds.to_le_bytes();
        for &byte in report.variant.as_bytes().iter().chain(&rounds) {
            d.hash = (d.hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    d
}

pub struct CheckSweep {
    /// The op list: the 126 registry points in seeded order; the op after
    /// the last is the planted point.
    points: Vec<(usize, u64)>,
    reference: Vec<Digest>,
    /// Names and diagnostic codes the planted point raised in round one.
    planted: Vec<(&'static str, Vec<&'static str>)>,
    tally: Tally,
}

impl CheckSweep {
    pub fn new(seed: u64) -> CheckSweep {
        let mut points: Vec<(usize, u64)> = PS.flat_map(|p| MS.map(|m| (p, m))).collect();
        Rng::new(seed).shuffle(&mut points);
        CheckSweep {
            tally: Tally::new(points.len() + 1),
            points,
            reference: Vec::new(),
            planted: Vec::new(),
        }
    }

    fn record(&mut self, first: bool, op: usize, digest: Digest, seconds: f64, out: &mut Quietest) {
        if first {
            self.reference.push(digest);
        } else if self.reference[op] != digest {
            self.tally.mismatch(op);
            return;
        }
        out.record(op, seconds);
    }
}

impl Workload for CheckSweep {
    fn ops(&self) -> usize {
        self.points.len() + 1
    }

    fn segment_ops(&self) -> usize {
        // An op takes 1.3 ms on average.
        4
    }

    fn round(&mut self, quietest: &mut Quietest) {
        let first = self.tally.begin_round();
        let mut clock = Clock::new();
        for op in 0..self.points.len() {
            let (p, m) = self.points[op];
            let sent = Instant::now();
            let reports = verify_registry(p, m);
            let seconds = sent.elapsed().as_secs_f64();
            clock.tick();
            let seconds = seconds * clock.scale();
            self.record(first, op, digest(reports.iter()), seconds, quietest);
        }
        let sent = Instant::now();
        let planted = verify_planted(PLANTED_AT.0, PLANTED_AT.1);
        let seconds = sent.elapsed().as_secs_f64();
        clock.tick();
        let seconds = seconds * clock.scale();
        let folded = digest(planted.iter().map(|(report, _)| report));
        if first {
            self.planted = planted
                .iter()
                .map(|(r, _)| {
                    let mut codes: Vec<_> = r.diagnostics.iter().map(|d| d.code).collect();
                    codes.sort_unstable();
                    codes.dedup();
                    (r.variant, codes)
                })
                .collect();
        }
        self.record(first, self.points.len(), folded, seconds, quietest);
        quietest.end_replay();
    }

    fn verify(&mut self) -> Verdict {
        let mut verdict = Verdict::default();
        let mut dirty = Vec::new();
        for (op, (&(p, m), d)) in self.points.iter().zip(&self.reference).enumerate() {
            if d.failed > 0 {
                dirty.push((
                    op,
                    format!("{} shipped variant(s) fail at p={p} m={m}", d.failed),
                ));
            }
            verdict.facts.push(Fact {
                subject: op,
                key: format!("p={p:02} m={m:02}"),
                value: format!(
                    "verifications={} messages={} words={} hash={:#018x}",
                    d.verifications, d.messages, d.words, d.hash
                ),
            });
        }
        let planted_op = self.points.len();
        let d = self.reference[planted_op];
        if d.failed != d.verifications {
            dirty.push((planted_op, "a planted variant verified clean".into()));
        }
        let mut raised: Vec<(&str, String)> = self
            .planted
            .iter()
            .map(|(name, codes)| (*name, codes.join(",")))
            .collect();
        raised.sort_unstable();
        let wanted = PLANTED_CODES.map(|(name, code)| (name, code.to_string()));
        if raised != wanted {
            dirty.push((
                planted_op,
                format!("the planted bugs raised {raised:?}, not {wanted:?}"),
            ));
        }
        for (op, why) in dirty {
            self.tally.reject(op, why);
        }
        verdict
    }

    fn facts_depend_on_seed(&self) -> bool {
        false
    }

    fn reject(&mut self, op: usize, why: String) {
        self.tally.reject(op, why);
    }

    fn tally(&self) -> &Tally {
        &self.tally
    }
}

/// The traced run: `verify_registry` taken apart into the extraction and
/// the verification of each variant.
pub fn traced(seed: u64, t: &mut Tracer) -> Result<Vec<(&'static str, f64)>, String> {
    let mut workload = CheckSweep::new(seed);
    // Untraced: a round that sets the references, then the op list once
    // more for the overhead.
    workload.round(&mut Quietest::new(workload.ops(), workload.segment_ops()));
    let started = Instant::now();
    for &(p, m) in &workload.points {
        std::hint::black_box(verify_registry(p, m));
    }
    std::hint::black_box(verify_planted(PLANTED_AT.0, PLANTED_AT.1));
    let plain_us = started.elapsed().as_secs_f64() * 1e6;

    let variants = shipped_variants();
    let (mut messages, mut verifications) = (0_u64, 0_u64);
    alloc::set_enabled(true);
    for (op, &(p, m)) in workload.points.iter().enumerate() {
        t.next_op();
        let reports = t.span("analysis.schedule.verify_registry", |t| {
            let mut reports = Vec::with_capacity(variants.len());
            for v in variants.iter().filter(|v| (v.applicable)(p, m)) {
                let schedule = t.span("collectives.schedule.extract", |_| (v.extract)(p, m));
                messages += schedule.message_count();
                reports.push(t.span("analysis.schedule.verify", |_| {
                    verify_schedule(v.name, v.kind, &schedule, (v.expected_rounds)(p, m), m)
                }));
            }
            reports
        });
        verifications += reports.len() as u64;
        if digest(reports.iter()) != workload.reference[op] {
            alloc::set_enabled(false);
            return Err(format!(
                "p={p} m={m}: the parts disagree with verify_registry"
            ));
        }
        t.span("analysis.schedule.render_json", |_| {
            render_reports_json(&reports, p, m)
        });
    }
    t.next_op();
    let planted = t.span("analysis.schedule.verify_planted", |_| {
        verify_planted(PLANTED_AT.0, PLANTED_AT.1)
    });
    alloc::set_enabled(false);
    let rejected = planted.iter().filter(|(r, _)| !r.ok()).count();

    let extract_us = t.total_us("collectives.schedule.extract");
    let verify_us = t.total_us("analysis.schedule.verify");
    let whole_us = t.total_us("analysis.schedule.verify_registry")
        + t.total_us("analysis.schedule.verify_planted");
    Ok(vec![
        (
            "collectives.schedule.extract_us",
            t.median_us("collectives.schedule.extract"),
        ),
        (
            "collectives.schedule.extract_ns_per_msg",
            extract_us * 1e3 / messages as f64,
        ),
        (
            "collectives.schedule.extract_allocs",
            t.mean_allocs("collectives.schedule.extract"),
        ),
        (
            "collectives.schedule.msgs_per_op",
            messages as f64 / verifications as f64,
        ),
        (
            "analysis.schedule.verify_us",
            t.median_us("analysis.schedule.verify"),
        ),
        (
            "analysis.schedule.verify_ns_per_msg",
            verify_us * 1e3 / messages as f64,
        ),
        (
            "analysis.schedule.verify_allocs",
            t.mean_allocs("analysis.schedule.verify"),
        ),
        ("analysis.schedule.planted_rejected", rejected as f64),
        (
            "analysis.schedule.render_json_us",
            t.median_us("analysis.schedule.render_json"),
        ),
        ("trace.overhead_share", whole_us / plain_us - 1.0),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_planted_bug_that_raises_another_code_fails_its_op() {
        let mut sweep = CheckSweep::new(1);
        sweep.round(&mut Quietest::new(sweep.ops(), sweep.segment_ops()));
        sweep.verify();
        assert_eq!(sweep.tally.failed(), 0);

        let (_, codes) = &mut sweep.planted[0];
        *codes = vec!["COL010"];
        sweep.verify();
        assert_eq!(sweep.tally.failed(), 1, "the planted op, in the one round");
    }
}
