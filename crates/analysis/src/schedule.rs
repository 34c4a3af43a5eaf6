//! Static communication-schedule verification.
//!
//! Input: a symbolic per-rank [`Schedule`] extracted by
//! `collopt_collectives::schedule` — no payloads, just who sends what to
//! whom in which order. The verifier executes the schedule *abstractly*,
//! event by event, over the machine's channel semantics (directed
//! per-pair FIFOs, non-blocking sends, blocking receives, full-machine
//! clock barriers) and proves, without running a single simulated clock
//! tick:
//!
//! * **deadlock-freedom** — the abstract execution drains every rank to
//!   completion; a stall is diagnosed as a wait-for cycle or a barrier
//!   inconsistency (`COL008`);
//! * **match completeness** — every message sent is consumed exactly
//!   once and every receive has a live sender; orphan receives and
//!   unconsumed messages are `COL009`;
//! * **round optimality** — the measured critical-path round count must
//!   not exceed the closed form the cost model promises (an error-level
//!   `COL010`: the cost tables are lying about this lowering), and a
//!   lowering whose critical path exceeds the `⌈log₂ p⌉` influence lower
//!   bound (Träff, arXiv 2410.14234) gets a note-level `COL010` — legal,
//!   but provably suboptimal in start-ups.
//!
//! Rounds are counted on the store-and-forward critical path: a send
//! extends its rank's path by one round and stamps the message; a
//! receive joins the sender's stamped path (`max(own + 1, stamp)`); the
//! receive half of an exchange completes in the send's round
//! (`max(own, stamp)` after the push), which is what makes a butterfly
//! exchange cost one round where a send + receive pair costs two.

use collopt_collectives::schedule::{
    planted_variants, shipped_variants, CollectiveKind, SchedOp, Schedule, Variant,
};
use collopt_cost::bounds::{min_rounds, BoundKind};
use collopt_machine::Json;

use crate::lint::{Diagnostic, Severity};

/// Map the registry's collective family onto the lower-bound table's.
/// (The two enums are deliberately distinct so `collopt-cost` stays
/// dependency-free.)
pub fn bound_kind(kind: CollectiveKind) -> BoundKind {
    match kind {
        CollectiveKind::Bcast => BoundKind::Bcast,
        CollectiveKind::Reduce => BoundKind::Reduce,
        CollectiveKind::AllReduce => BoundKind::AllReduce,
        CollectiveKind::Scan => BoundKind::Scan,
        CollectiveKind::ExScan => BoundKind::ExScan,
        CollectiveKind::Gather => BoundKind::Gather,
        CollectiveKind::Scatter => BoundKind::Scatter,
        CollectiveKind::AllGather => BoundKind::AllGather,
        CollectiveKind::ReduceScatter => BoundKind::ReduceScatter,
        CollectiveKind::AllToAll => BoundKind::AllToAll,
        CollectiveKind::Barrier => BoundKind::Barrier,
        CollectiveKind::Comcast => BoundKind::Comcast,
    }
}

/// The verifier's verdict on one lowering at one `(p, m)` point.
#[derive(Debug, Clone)]
pub struct ScheduleReport {
    /// Lowering name (from the registry).
    pub variant: &'static str,
    /// Machine size verified at.
    pub p: usize,
    /// Block size verified at.
    pub m: u64,
    /// Measured critical-path rounds (0 when the schedule stalls).
    pub rounds: u64,
    /// The closed-form round count the cost model promises.
    pub expected_rounds: u64,
    /// The `⌈log₂ p⌉` influence lower bound for this collective family.
    pub lower_bound: u64,
    /// Point-to-point messages in the schedule.
    pub messages: u64,
    /// Total words on the wire.
    pub words: u64,
    /// Findings; empty means a fully clean verification.
    pub diagnostics: Vec<Diagnostic>,
}

impl ScheduleReport {
    /// Did the schedule verify (no error-severity findings)? Notes —
    /// including the suboptimality note `COL010` — never fail a variant.
    pub fn ok(&self) -> bool {
        self.diagnostics
            .iter()
            .all(|d| d.severity != Severity::Error)
    }
}

/// One rank of the abstract machine.
#[derive(Clone, Default)]
struct RankState {
    /// Index of the next op in the rank's program.
    pc: usize,
    /// Critical-path rounds so far.
    depth: u64,
    /// The op at `pc` is an exchange whose send half is posted.
    posted: bool,
    /// The source the rank is blocked on.
    waits: Option<usize>,
    /// First and last arena slot of the rank's arrival-ordered inbox.
    head: Option<usize>,
    tail: Option<usize>,
}

impl RankState {
    /// Complete the receive at `pc` with a message stamped `stamp`; an
    /// exchange's receive half joins its send's round.
    fn complete(&mut self, stamp: u64) {
        self.depth = (self.depth + u64::from(!self.posted)).max(stamp);
        self.posted = false;
        self.pc += 1;
    }
}

/// The abstract machine: its ranks, one arena of queued `(sender, stamp,
/// next in the receiver's inbox)` messages, and the runnable ranks.
struct Exec {
    state: Vec<RankState>,
    msgs: Vec<(usize, u64, Option<usize>)>,
    runnable: Vec<usize>,
}

impl Exec {
    /// `from` posts a message to `to`: a receiver blocked on `from` takes
    /// it at once and becomes runnable, any other queues it.
    fn post(&mut self, from: usize, to: usize) {
        self.state[from].depth += 1;
        let stamp = self.state[from].depth;
        let r = &mut self.state[to];
        if r.waits == Some(from) {
            r.waits = None;
            r.complete(stamp);
            self.runnable.push(to);
            return;
        }
        let slot = Some(self.msgs.len());
        self.msgs.push((from, stamp, None));
        match r.tail {
            Some(t) => self.msgs[t].2 = slot,
            None => r.head = slot,
        }
        r.tail = slot;
    }

    /// `rank` receives from `from`: it takes the first message from `from`
    /// in its inbox, as `machine::des`'s `pop_from` does, so every directed
    /// pair stays FIFO — or, if there is none, blocks on `from`.
    fn recv(&mut self, rank: usize, from: usize) -> bool {
        let r = &mut self.state[rank];
        let (mut prev, mut cur) = (None, r.head);
        while let Some(i) = cur.filter(|&i| self.msgs[i].0 != from) {
            (prev, cur) = (Some(i), self.msgs[i].2);
        }
        let Some(i) = cur else {
            r.waits = Some(from);
            return false;
        };
        let (_, stamp, next) = self.msgs[i];
        match prev {
            Some(prev) => self.msgs[prev].2 = next,
            None => r.head = next,
        }
        if r.tail == cur {
            r.tail = prev;
        }
        r.complete(stamp);
        true
    }
}

fn diag(code: &'static str, severity: Severity, message: String) -> Diagnostic {
    Diagnostic {
        code,
        severity,
        message,
        stage: 0,
        len: 1,
        span: None,
        suggestion: None,
    }
}

/// Abstractly execute `sched` and verify it; `name` labels diagnostics,
/// `kind` selects the lower bound, `expected_rounds` is the cost model's
/// promise. A rank program too many or too few, or a peer outside
/// `0..p`, is one `COL009` error.
pub fn verify_schedule(
    name: &'static str,
    kind: CollectiveKind,
    sched: &Schedule,
    expected_rounds: u64,
    m: u64,
) -> ScheduleReport {
    let p = sched.p;
    let finish = |rounds: u64, diagnostics: Vec<Diagnostic>| ScheduleReport {
        variant: name,
        p,
        m,
        rounds,
        expected_rounds,
        lower_bound: min_rounds(bound_kind(kind), p),
        messages: sched.message_count(),
        words: sched.total_words(),
        diagnostics,
    };
    let peer = |op: &SchedOp| match *op {
        SchedOp::Send { to, .. } => to,
        SchedOp::Recv { from } => from,
        SchedOp::Exchange { peer, .. } => peer,
        SchedOp::Barrier => 0,
    };
    let malformed = if sched.rank_count() != p {
        Some(format!("{} rank programs for p = {p}", sched.rank_count()))
    } else {
        (0..p).find_map(|rank| {
            let bad = sched.rank(rank).iter().map(peer).find(|&to| to >= p)?;
            Some(format!("rank {rank} names peer {bad}, outside 0..{p}"))
        })
    };
    if let Some(why) = malformed {
        let message = format!("{name}: malformed schedule — {why}");
        return finish(0, vec![diag("COL009", Severity::Error, message)]);
    }

    let mut ex = Exec {
        state: vec![RankState::default(); p],
        msgs: Vec::with_capacity(sched.message_count() as usize),
        runnable: (0..p).rev().collect(),
    };
    // Every receive names its source, so this is a Kahn network: the order
    // ranks run in changes no final state. Each runs until it finishes,
    // parks at a barrier or blocks on a receive.
    let mut at_barrier = 0;
    while let Some(rank) = ex.runnable.pop() {
        let program = sched.rank(rank);
        while let Some(&op) = program.get(ex.state[rank].pc) {
            let from = match op {
                SchedOp::Send { to, .. } => {
                    ex.post(rank, to);
                    ex.state[rank].pc += 1;
                    continue;
                }
                SchedOp::Recv { from } => from,
                SchedOp::Exchange { peer, .. } => {
                    ex.post(rank, peer);
                    ex.state[rank].posted = true;
                    peer
                }
                // The clock barrier completes only when *every* rank is
                // at one.
                SchedOp::Barrier => {
                    at_barrier += 1;
                    if at_barrier == p {
                        at_barrier = 0;
                        let sync = ex.state.iter().map(|r| r.depth).max().unwrap_or(0);
                        for (r, state) in ex.state.iter_mut().enumerate() {
                            state.depth = sync;
                            state.pc += 1;
                            ex.runnable.push(r);
                        }
                    }
                    break;
                }
            };
            if !ex.recv(rank, from) {
                break;
            }
        }
    }

    // A stall leaves every unfinished rank parked at a barrier or blocked
    // on a receive.
    let finished = |rank: usize| ex.state[rank].pc >= sched.rank(rank).len();
    let mut diagnostics = Vec::new();
    if !(0..p).all(finished) {
        let parked = |rank: usize| !finished(rank) && ex.state[rank].waits.is_none();
        let (waiting, absent): (Vec<usize>, Vec<usize>) = (0..p).partition(|&r| parked(r));
        if !waiting.is_empty() {
            let message = format!(
                "{name}: barrier inconsistency — ranks {waiting:?} wait at a clock barrier \
                 that ranks {absent:?} never reach"
            );
            return finish(0, vec![diag("COL008", Severity::Error, message)]);
        }
        // A receive whose source has terminated is an orphan; if there is
        // none, every blocked rank waits on another blocked rank and the
        // wait-for graph has a cycle.
        for rank in 0..p {
            if let Some(from) = ex.state[rank].waits.filter(|&from| finished(from)) {
                diagnostics.push(diag(
                    "COL009",
                    Severity::Error,
                    format!(
                        "{name}: orphan receive — rank {rank} waits for a message from \
                         rank {from}, which terminated without sending one"
                    ),
                ));
            }
        }
        if diagnostics.is_empty() {
            // Follow the edges from the lowest blocked rank until a rank
            // repeats — that loop is the deadlock cycle.
            let blocked = |rank: usize| ex.state[rank].waits;
            let mut cur = (0..p)
                .find(|&r| blocked(r).is_some())
                .expect("a stall blocks some rank");
            let mut cycle = Vec::new();
            while !cycle.contains(&cur) {
                cycle.push(cur);
                cur = blocked(cur).expect("a blocked rank waits on a blocked rank");
            }
            let entry = cycle.iter().position(|&r| r == cur);
            cycle.drain(..entry.expect("the walk stopped on a rank it visited"));
            cycle.push(cur);
            let cycle: Vec<String> = cycle.iter().map(|r| r.to_string()).collect();
            diagnostics.push(diag(
                "COL008",
                Severity::Error,
                format!(
                    "{name}: deadlock — wait-for cycle {}: every rank in the cycle \
                     blocks on a receive its predecessor can only satisfy after its own \
                     receive completes",
                    cycle.join(" -> ")
                ),
            ));
        }
        return finish(0, diagnostics);
    }

    // Drained: any message still in an inbox was sent and never received.
    let mut leftovers = Vec::new();
    for (to, r) in ex.state.iter().enumerate() {
        let mut slot = r.head;
        while let Some(i) = slot {
            leftovers.push((ex.msgs[i].0, to));
            slot = ex.msgs[i].2;
        }
    }
    leftovers.sort_unstable();
    for pair in leftovers.chunk_by(|a, b| a == b) {
        let ((from, to), n) = (pair[0], pair.len());
        diagnostics.push(diag(
            "COL009",
            Severity::Error,
            format!(
                "{name}: unconsumed message{} — rank {from} sent {n} message{} to rank {to} \
                 that rank {to} never receives",
                if n > 1 { "s" } else { "" },
                if n > 1 { "s" } else { "" },
            ),
        ));
    }

    let rounds = ex.state.iter().map(|r| r.depth).max().unwrap_or(0);
    if diagnostics.is_empty() {
        if rounds > expected_rounds {
            diagnostics.push(diag(
                "COL010",
                Severity::Error,
                format!(
                    "{name}: measured critical path is {rounds} rounds but the cost model \
                     promises {expected_rounds} at p = {p}, m = {m} — the closed form \
                     under-counts this lowering"
                ),
            ));
        }
        let bound = min_rounds(bound_kind(kind), p);
        if expected_rounds.max(rounds) > bound && rounds > bound {
            diagnostics.push(diag(
                "COL010",
                Severity::Note,
                format!(
                    "{name}: {rounds} rounds where the one-ported influence bound is {bound} \
                     (Traeff 2410.14234) — correct, but provably suboptimal in start-ups"
                ),
            ));
        }
    }
    finish(rounds, diagnostics)
}

/// Extract and verify one registry variant at `(p, m)`.
///
/// # Panics
/// Panics if the variant is not applicable at this point; gate on
/// `(variant.applicable)(p, m)` first.
pub fn verify_variant(v: &Variant, p: usize, m: u64) -> ScheduleReport {
    assert!(
        (v.applicable)(p, m),
        "{} is not applicable at p = {p}, m = {m}",
        v.name
    );
    let sched = (v.extract)(p, m);
    verify_schedule(v.name, v.kind, &sched, (v.expected_rounds)(p, m), m)
}

/// Verify every applicable shipped lowering at `(p, m)`.
pub fn verify_registry(p: usize, m: u64) -> Vec<ScheduleReport> {
    shipped_variants()
        .iter()
        .filter(|v| (v.applicable)(p, m))
        .map(|v| verify_variant(v, p, m))
        .collect()
}

/// Verify every applicable planted-bug lowering at `(p, m)`, pairing
/// each report with the lint code the verifier is required to raise.
pub fn verify_planted(p: usize, m: u64) -> Vec<(ScheduleReport, &'static str)> {
    planted_variants()
        .iter()
        .filter(|pv| (pv.variant.applicable)(p, m))
        .map(|pv| (verify_variant(&pv.variant, p, m), pv.expected_code))
        .collect()
}

/// Render verification reports for humans, one line per clean variant
/// and full diagnostics for dirty ones, ending with the same summary
/// line format the linter uses.
pub fn render_reports_human(reports: &[ScheduleReport]) -> String {
    let mut out = String::new();
    let (mut errors, mut warnings, mut notes) = (0usize, 0usize, 0usize);
    for r in reports {
        let verdict = if r.ok() { "ok" } else { "FAIL" };
        out.push_str(&format!(
            "{verdict:>4}  {name:<28} p={p:<3} m={m:<6} rounds={rounds} (expected {exp}, bound {lb})  msgs={msgs} words={words}\n",
            name = r.variant,
            p = r.p,
            m = r.m,
            rounds = r.rounds,
            exp = r.expected_rounds,
            lb = r.lower_bound,
            msgs = r.messages,
            words = r.words,
        ));
        for d in &r.diagnostics {
            match d.severity {
                Severity::Error => errors += 1,
                Severity::Warning => warnings += 1,
                Severity::Note => notes += 1,
            }
            out.push_str(&format!(
                "      {}[{}]: {}\n",
                d.severity, d.code, d.message
            ));
        }
    }
    out.push_str(&format!(
        "summary: {errors} error(s), {warnings} warning(s), {notes} note(s)\n"
    ));
    out
}

/// Render verification reports as compact, byte-stable JSON.
pub fn render_reports_json(reports: &[ScheduleReport], p: usize, m: u64) -> String {
    let (mut errors, mut warnings, mut notes) = (0usize, 0usize, 0usize);
    let items: Vec<Json> = reports
        .iter()
        .map(|r| {
            let diags: Vec<Json> = r
                .diagnostics
                .iter()
                .map(|d| {
                    match d.severity {
                        Severity::Error => errors += 1,
                        Severity::Warning => warnings += 1,
                        Severity::Note => notes += 1,
                    }
                    Json::Obj(vec![
                        ("code".into(), Json::Str(d.code.to_string())),
                        ("severity".into(), Json::Str(d.severity.to_string())),
                        ("message".into(), Json::Str(d.message.clone())),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("variant".into(), Json::Str(r.variant.to_string())),
                ("ok".into(), Json::Bool(r.ok())),
                ("rounds".into(), Json::Num(r.rounds as f64)),
                (
                    "expected_rounds".into(),
                    Json::Num(r.expected_rounds as f64),
                ),
                ("lower_bound".into(), Json::Num(r.lower_bound as f64)),
                ("messages".into(), Json::Num(r.messages as f64)),
                ("words".into(), Json::Num(r.words as f64)),
                ("diagnostics".into(), Json::Arr(diags)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("version".into(), Json::Num(1.0)),
        (
            "point".into(),
            Json::Obj(vec![
                ("p".into(), Json::Num(p as f64)),
                ("m".into(), Json::Num(m as f64)),
            ]),
        ),
        ("variants".into(), Json::Arr(items)),
        (
            "summary".into(),
            Json::Obj(vec![
                ("errors".into(), Json::Num(errors as f64)),
                ("warnings".into(), Json::Num(warnings as f64)),
                ("notes".into(), Json::Num(notes as f64)),
            ]),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shipped_variant_verifies_at_representative_points() {
        for p in [2usize, 3, 4, 6, 8, 13, 16] {
            for m in [1u64, 2, 32, 97] {
                for r in verify_registry(p, m) {
                    assert!(
                        r.ok(),
                        "{} failed at p = {p}, m = {m}:\n{}",
                        r.variant,
                        render_reports_human(std::slice::from_ref(&r))
                    );
                }
            }
        }
    }

    #[test]
    fn planted_bugs_are_rejected_with_their_expected_codes() {
        for (p, m) in [(4usize, 8u64), (5, 10), (8, 3)] {
            let rejected = verify_planted(p, m);
            assert!(!rejected.is_empty());
            for (report, code) in rejected {
                assert!(!report.ok(), "{} must fail at p = {p}", report.variant);
                assert!(
                    report.diagnostics.iter().any(|d| d.code == code),
                    "{} must raise {code}, got {:?}",
                    report.variant,
                    report.diagnostics
                );
            }
        }
    }

    #[test]
    fn butterfly_meets_the_lower_bound_exactly() {
        let v = shipped_variants()
            .into_iter()
            .find(|v| v.name == "allreduce_butterfly")
            .unwrap();
        for log in 1..=6u32 {
            let p = 1usize << log;
            let r = verify_variant(&v, p, 16);
            assert!(r.ok());
            assert_eq!(r.rounds, u64::from(log));
            assert_eq!(r.rounds, r.lower_bound);
            assert!(r.diagnostics.is_empty(), "no suboptimality note: {r:?}");
        }
    }

    #[test]
    fn ring_gets_the_suboptimality_note() {
        let v = shipped_variants()
            .into_iter()
            .find(|v| v.name == "allreduce_ring")
            .unwrap();
        let r = verify_variant(&v, 8, 64);
        assert!(r.ok());
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.code == "COL010" && d.severity == Severity::Note),
            "{r:?}"
        );
    }

    fn hand_built(programs: &[Vec<SchedOp>]) -> Schedule {
        Schedule::from_rank_programs(programs.len(), programs)
    }

    fn verify(sched: &Schedule, expected_rounds: u64) -> ScheduleReport {
        verify_schedule(
            "hand_built",
            CollectiveKind::Bcast,
            sched,
            expected_rounds,
            1,
        )
    }

    fn codes(r: &ScheduleReport) -> Vec<&'static str> {
        r.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn a_woken_exchange_does_not_post_its_send_half_again() {
        // Rank 0 posts its half, blocks, and is woken by rank 1's reply.
        let sched = hand_built(&[
            vec![SchedOp::Exchange { peer: 1, words: 1 }],
            vec![SchedOp::Recv { from: 0 }, SchedOp::Send { to: 0, words: 1 }],
        ]);
        let r = verify(&sched, 2);
        assert!(r.ok(), "{r:?}");
        assert_eq!(r.rounds, 2);
    }

    #[test]
    fn interleaved_sources_keep_per_pair_fifo_and_stamps() {
        // Rank 0's messages to rank 2 carry stamps 1, 2; rank 1's carry 5,
        // 6 after four sends to rank 3. Rank 2 takes them alternately.
        let send = |to| SchedOp::Send { to, words: 1 };
        let mut from_1 = vec![send(3); 4];
        from_1.extend([send(2), send(2)]);
        let sched = hand_built(&[
            vec![send(2), send(2)],
            from_1,
            [1, 0, 1, 0].map(|from| SchedOp::Recv { from }).to_vec(),
            vec![SchedOp::Recv { from: 1 }; 4],
        ]);
        let r = verify(&sched, 8);
        assert!(r.ok(), "{r:?}");
        // max(1, 5), max(6, 1), max(7, 6), max(8, 2).
        assert_eq!(r.rounds, 8);
    }

    #[test]
    fn a_send_from_another_source_does_not_resume_a_blocked_receive() {
        // Rank 0 waits on rank 1; rank 2's message reaches it first and
        // must stay queued until the run ends.
        let sched = hand_built(&[
            vec![SchedOp::Recv { from: 1 }],
            vec![SchedOp::Recv { from: 2 }, SchedOp::Send { to: 0, words: 1 }],
            vec![
                SchedOp::Send { to: 0, words: 1 },
                SchedOp::Send { to: 1, words: 1 },
            ],
        ]);
        let r = verify(&sched, 3);
        assert_eq!(codes(&r), ["COL009"], "{r:?}");
        assert!(
            r.diagnostics[0]
                .message
                .contains("rank 2 sent 1 message to rank 0"),
            "{r:?}"
        );
    }

    #[test]
    fn consecutive_barriers_each_release() {
        let sched = hand_built(&[
            vec![
                SchedOp::Send { to: 1, words: 1 },
                SchedOp::Barrier,
                SchedOp::Barrier,
            ],
            vec![
                SchedOp::Recv { from: 0 },
                SchedOp::Barrier,
                SchedOp::Barrier,
            ],
        ]);
        let r = verify(&sched, 1);
        assert!(r.diagnostics.is_empty(), "{r:?}");
        assert_eq!(r.rounds, 1);
    }

    #[test]
    fn one_rank_and_empty_schedules_verify_clean_in_zero_rounds() {
        for sched in [
            hand_built(&[vec![SchedOp::Barrier, SchedOp::Barrier]]),
            hand_built(&[vec![]]),
            hand_built(&[vec![], vec![], vec![], vec![], vec![]]),
        ] {
            let r = verify(&sched, 0);
            assert!(r.diagnostics.is_empty(), "{r:?}");
            assert_eq!(r.rounds, 0);
        }
    }

    #[test]
    fn malformed_schedules_are_one_col009_not_a_panic() {
        let short = Schedule::from_rank_programs(3, &[vec![], vec![]]);
        let wild = hand_built(&[
            vec![SchedOp::Send { to: 1, words: 1 }],
            vec![SchedOp::Recv { from: 0 }, SchedOp::Recv { from: 7 }],
        ]);
        for (sched, why) in [
            (short, "2 rank programs for p = 3"),
            (wild, "rank 1 names peer 7, outside 0..2"),
        ] {
            let r = verify(&sched, 0);
            assert_eq!(codes(&r), ["COL009"], "{r:?}");
            assert!(r.diagnostics[0].message.ends_with(why), "{r:?}");
        }
    }

    #[test]
    fn json_rendering_is_stable() {
        let a = render_reports_json(&verify_registry(6, 14), 6, 14);
        let b = render_reports_json(&verify_registry(6, 14), 6, 14);
        assert_eq!(a, b);
        assert!(a.contains("\"variant\":\"bcast_binomial\""));
    }
}
