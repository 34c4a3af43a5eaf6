//! Equality saturation over stage sequences — the exact rewrite search.
//!
//! The optimal search used to brute-force every order of rule
//! applications: exponential in the number of fusible windows.
//! [`Rewriter::saturate`](crate::rewrite::Rewriter::saturate) replaces it
//! with this module's small, dependency-free e-graph specialized to the
//! shape of our terms.
//!
//! ## Representation
//!
//! A program is a *cons list* of stages, so e-nodes have exactly two
//! shapes: `nil` (the empty program) and `cons(stage, tail)` where `tail`
//! is an e-class. Stages are interned by a structural key
//! (`stage_key`) — the same identification the rest of the engine uses
//! (`Program::to_string` keyed deduplication) extended with every numeric
//! cost field, so two stages share an id only when they are
//! indistinguishable to both the semantics display and the cost model.
//! E-nodes are hash-consed on `(stage_id, find(tail))`; e-classes live in a
//! union-find, and a congruence `rebuild` re-canonicalizes cons nodes whose
//! tails merged (merging them upward), which is what makes the search
//! complete with respect to the brute-force enumeration.
//!
//! ## Saturation
//!
//! Matching walks concrete node paths `n0 → n1 [→ n2]` (a window of 2–3
//! stages), tries every Table-1 rule of that window length via
//! [`rules::try_match`], and — when the rule's laws certify exactly as in
//! [`Rewriter::certify`](crate::rewrite::Rewriter) — builds the
//! replacement chain over the path's residual tail and unions it with the
//! head's class. The enabling normalizations (map fusion, bcast/map
//! commutation, gather/scatter elimination) run as additional 2-window
//! rewrites. Refuted laws exclude the match; in audited mode the refusal
//! is recorded with a shrunk counterexample, deduped per `(rule, law)`
//! exactly like the greedy engine.
//!
//! Termination: every rule strictly reduces a chain's collective count and
//! the fused forms never re-match any rule, so the stage alphabet and the
//! chain population are finite. An explicit [`SaturateConfig::node_budget`]
//! bounds the graph anyway; exhausting it stops *expansion* but extraction
//! and replay stay sound over whatever was built.
//!
//! ## Extraction — "RHS never worse"
//!
//! Each class gets the lexicographically least `(cost, collectives,
//! length)` over its members (a Bellman-style fixpoint; the optimum
//! sub-graph is acyclic because length strictly decreases along tails).
//! Preferring fewer collectives, then shorter programs, at equal cost is
//! precisely the "RHS never worse than LHS" tie-break: every rule's RHS
//! has strictly fewer collectives and no normalization grows a program.
//! Remaining ties are broken by enumerating the (capped) optimal chains,
//! normalizing each, and taking the lexicographically least rendering —
//! fully deterministic, independent of hash iteration order and worker
//! count.
//!
//! ## Certificate replay
//!
//! The extracted program is replayed as a concrete [`RewriteStep`] path: a
//! breadth-first search from the normalized input in which the only
//! transitions are rule events the saturation actually recorded (each
//! carrying the [`Certificate`] minted when it fired), and
//! every intermediate program must still be representable in the e-graph
//! (checked by walking the hash-cons). Equality saturation only ever grows
//! the set of forward-reachable programs, so the target is reachable and
//! the BFS yields a shortest certificate-carrying derivation, revalidated
//! downstream by `collopt-analysis::certify`.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use collopt_cost::MachineParams;

use crate::rewrite::{
    dedupe_rejections, program_cost, stage_cost, Certificate, OptimizeResult, RewriteStep,
    Rewriter, RuleRejection, Witness, RULE_PRIORITY,
};
use crate::rules::enabling::{self, Normalization};
use crate::rules::{self, Rule};
use crate::term::{Program, Stage};
use crate::value::Value;

/// Default cap on e-graph nodes; generous — a 12-collective chain
/// saturates in well under a thousand nodes.
pub const DEFAULT_NODE_BUDGET: usize = 10_000;

/// Cap on equal-value chains enumerated per class for the final
/// lexicographic tie-break.
const CANDIDATE_CAP: usize = 64;

/// Cap on concrete programs the certificate replay may visit.
const REPLAY_STATE_CAP: usize = 100_000;

/// Sentinel stage id for the `nil` e-node.
const NIL: usize = usize::MAX;

/// Tags for the enabling normalizations in the applied-rewrite ledger
/// (rule tags occupy `0..RULE_PRIORITY.len()`).
const TAG_MAP_FUSE: u32 = 100;
const TAG_BCAST_MAP: u32 = 101;
const TAG_GATHER_SCATTER: u32 = 102;

/// A predicate consulted before certifying a structural match; returning
/// `false` silently excludes the rule for that window. The linter installs
/// one backed by its per-domain sampling so saturation respects the same
/// lying-declaration gates as the windowed passes did.
pub type LawGate = Arc<dyn Fn(Rule, &[Stage]) -> bool + Send + Sync>;

/// Configuration for one saturation run. Mirrors the knobs of
/// [`Rewriter`]: rank-0 rules, normalization, verified/audited law
/// checking — plus the cost model `(params, m)` extraction minimizes and
/// the node budget.
#[derive(Clone)]
pub struct SaturateConfig {
    /// Machine the extraction cost model targets.
    pub params: MachineParams,
    /// Block size (words per processor) for the cost model.
    pub m: f64,
    /// Hard cap on e-graph nodes; see [`DEFAULT_NODE_BUDGET`].
    pub node_budget: usize,
    /// Allow the Local rules that only preserve rank 0's value.
    pub allow_rank0_rules: bool,
    /// Apply the enabling normalizations (as saturation rewrites and when
    /// canonicalizing extracted/replayed programs).
    pub normalize: bool,
    /// Verify required laws on these samples before certifying a match.
    pub verify_samples: Option<Vec<Value>>,
    /// Record refusals (with shrunk counterexamples) in `rejections`.
    pub audited: bool,
    /// Extra per-window admission predicate (see [`LawGate`]).
    pub law_gate: Option<LawGate>,
}

impl SaturateConfig {
    /// Defaults matching `Rewriter::exhaustive()` plus the given cost
    /// model: rank-0 rules allowed, normalization on, laws trusted.
    pub fn new(params: MachineParams, m: f64) -> Self {
        SaturateConfig {
            params,
            m,
            node_budget: DEFAULT_NODE_BUDGET,
            allow_rank0_rules: true,
            normalize: true,
            verify_samples: None,
            audited: false,
            law_gate: None,
        }
    }

    /// Override the node budget.
    pub fn node_budget(mut self, nodes: usize) -> Self {
        self.node_budget = nodes.max(2);
        self
    }

    /// See [`Rewriter::allow_rank0_rules`].
    pub fn allow_rank0_rules(mut self, yes: bool) -> Self {
        self.allow_rank0_rules = yes;
        self
    }

    /// See [`Rewriter::with_normalization`].
    pub fn with_normalization(mut self, yes: bool) -> Self {
        self.normalize = yes;
        self
    }

    /// See [`Rewriter::verify_properties`].
    pub fn verify_properties(mut self, samples: Vec<Value>) -> Self {
        assert!(
            !samples.is_empty(),
            "verification needs at least one sample value"
        );
        self.verify_samples = Some(samples);
        self
    }

    /// See [`Rewriter::audited`].
    pub fn audited(mut self, samples: Vec<Value>) -> Self {
        assert!(
            !samples.is_empty(),
            "auditing needs at least one sample value"
        );
        self.verify_samples = Some(samples);
        self.audited = true;
        self
    }

    /// Install a per-window admission predicate.
    pub fn law_gate(mut self, gate: LawGate) -> Self {
        self.law_gate = Some(gate);
        self
    }
}

impl std::fmt::Debug for SaturateConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SaturateConfig")
            .field("params", &self.params)
            .field("m", &self.m)
            .field("node_budget", &self.node_budget)
            .field("allow_rank0_rules", &self.allow_rank0_rules)
            .field("normalize", &self.normalize)
            .field("audited", &self.audited)
            .field("law_gate", &self.law_gate.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

/// Size/effort counters for one saturation run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SaturationStats {
    /// E-nodes built (including `nil`).
    pub nodes: usize,
    /// Canonical e-classes after the final rebuild.
    pub classes: usize,
    /// Distinct rule events recorded (per stage-id window).
    pub rule_applications: usize,
    /// Class merges performed.
    pub unions: usize,
    /// `true` when the node budget stopped expansion early.
    pub budget_exhausted: bool,
    /// Concrete programs the certificate replay visited.
    pub replay_states: usize,
    /// `true` when replay gave up and the greedy engine supplied the
    /// result (only possible under an exhausted budget).
    pub replay_fell_back: bool,
}

/// A finished saturation: the optimization result plus effort counters.
#[derive(Debug, Clone)]
pub struct SaturationOutcome {
    /// Extracted program, replayed steps, normalizations and rejections —
    /// same contract as the greedy engine's result.
    pub result: OptimizeResult,
    /// Effort counters.
    pub stats: SaturationStats,
}

/// Saturate `prog` under `cfg` and extract the cost-least program together
/// with a certificate-carrying derivation. This is what
/// [`Rewriter::saturate`] delegates to.
pub fn saturate_program(prog: &Program, cfg: &SaturateConfig) -> SaturationOutcome {
    let (start, init_norms) = if cfg.normalize {
        enabling::normalize(prog)
    } else {
        (prog.clone(), Vec::new())
    };
    let mut eg = EGraph::new(cfg.clone());
    let root = eg.insert_chain(&start);
    eg.run();
    let root = eg.find(root);
    let best = eg.extract(root);
    match eg.replay(&start, &best) {
        Some((steps, norms)) => {
            let mut normalizations = init_norms;
            normalizations.extend(norms);
            let rejections = dedupe_rejections(std::mem::take(&mut eg.rejections));
            SaturationOutcome {
                result: OptimizeResult {
                    program: best,
                    steps,
                    normalizations,
                    rejections,
                },
                stats: eg.stats,
            }
        }
        None => {
            // Only reachable when the node budget cut saturation short and
            // the extracted chain's derivation was truncated with it: fall
            // back to the (sound, certified, possibly suboptimal) greedy
            // engine so callers always get a replayable result.
            eg.stats.replay_fell_back = true;
            let mut rw = Rewriter::cost_guided(cfg.params, cfg.m)
                .allow_rank0_rules(cfg.allow_rank0_rules)
                .with_normalization(cfg.normalize);
            if let Some(samples) = &cfg.verify_samples {
                rw = if cfg.audited {
                    rw.audited(samples.clone())
                } else {
                    rw.verify_properties(samples.clone())
                };
            }
            let mut result = rw.optimize(prog);
            let mut rejections = std::mem::take(&mut eg.rejections);
            rejections.extend(result.rejections);
            result.rejections = dedupe_rejections(rejections);
            SaturationOutcome {
                result,
                stats: eg.stats,
            }
        }
    }
}

/// Structural identity for stage interning: the display form plus every
/// numeric cost field, so ids conflate exactly the stages the engine
/// already treats as interchangeable (`Program::to_string` keyed
/// deduplication) and never two stages the cost model can tell apart.
fn stage_key(stage: &Stage) -> String {
    let op_key = |op: &crate::op::BinOp| {
        format!(
            "{}|{}|{}|{}{}",
            op.name(),
            op.ops_per_word(),
            op.width(),
            u8::from(op.is_associative()),
            u8::from(op.is_commutative()),
        )
    };
    match stage {
        Stage::Map { ops, label, .. } => format!("map|{label}|{ops}"),
        Stage::MapIndexed { ops, label, .. } => format!("map#|{label}|{ops}"),
        Stage::Bcast => "bcast".to_string(),
        Stage::Scan(op) => format!("scan|{}", op_key(op)),
        Stage::Reduce(op) => format!("reduce|{}", op_key(op)),
        Stage::AllReduce(op) => format!("allreduce|{}", op_key(op)),
        Stage::ReduceBalanced {
            all,
            ops_combine,
            ops_solo,
            words_factor,
            label,
            ..
        } => format!("reduce_bal|{label}|{all}|{ops_combine}|{ops_solo}|{words_factor}"),
        Stage::ScanBalanced {
            ops_lower,
            ops_upper,
            ops_solo,
            words_factor,
            label,
            ..
        } => format!("scan_bal|{label}|{ops_lower}|{ops_upper}|{ops_solo}|{words_factor}"),
        Stage::Comcast {
            ops_e,
            ops_o,
            words_factor,
            variant,
            label,
            ..
        } => format!("comcast|{label}|{ops_e}|{ops_o}|{words_factor}|{variant:?}"),
        Stage::Gather => "gather".to_string(),
        Stage::Scatter => "scatter".to_string(),
        Stage::AllGather => "allgather".to_string(),
        Stage::IterLocal {
            all,
            ops_combine,
            ops_solo,
            label,
            ..
        } => format!("iter|{label}|{all}|{ops_combine}|{ops_solo}"),
    }
}

fn rule_tag(rule: Rule) -> u32 {
    RULE_PRIORITY
        .iter()
        .position(|r| *r == rule)
        .expect("rule in priority order") as u32
}

/// `cons(stage, tail-class)`; `stage == NIL` marks the nil node.
struct ENode {
    stage: usize,
    tail: usize,
}

#[derive(Default)]
struct EClass {
    /// Member node ids (with duplicates after merges; deduped on read).
    nodes: Vec<usize>,
    /// Cons nodes whose tail is (or was) this class.
    parents: Vec<usize>,
}

/// A recorded rule firing: enough provenance to replay it concretely.
struct Event {
    rule: Rule,
    replacement: Vec<usize>,
    certificate: Certificate,
    rank0_only: bool,
}

/// Per-class extraction value; ordered lexicographically.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Extract {
    cost: f64,
    collectives: u64,
    len: u64,
}

impl Extract {
    fn beats(&self, other: &Extract) -> bool {
        if self.cost != other.cost {
            return self.cost < other.cost;
        }
        if self.collectives != other.collectives {
            return self.collectives < other.collectives;
        }
        self.len < other.len
    }
}

struct EGraph {
    cfg: SaturateConfig,
    /// Interned stages and their per-id cost-model values.
    stages: Vec<Stage>,
    stage_costs: Vec<f64>,
    stage_coll: Vec<bool>,
    stage_ids: HashMap<String, usize>,
    nodes: Vec<ENode>,
    /// Hash-cons: `(stage, canonical tail class) → node`.
    node_ids: HashMap<(usize, usize), usize>,
    classes: Vec<EClass>,
    /// Union-find parents over class ids.
    uf: Vec<usize>,
    node_class: Vec<usize>,
    worklist: VecDeque<usize>,
    /// Node paths already attempted, per rewrite tag.
    attempted: HashSet<(u32, Vec<usize>)>,
    /// Certification results per `(tag, stage-id window)` — also dedupes
    /// audited rejections at the source.
    cert_cache: HashMap<(u32, Vec<usize>), Option<Certificate>>,
    events: Vec<Event>,
    event_ids: HashMap<(u32, Vec<usize>), usize>,
    /// Original-chain depth per node, for rejection reporting.
    depth_hint: HashMap<usize, usize>,
    rejections: Vec<RuleRejection>,
    nil_class: usize,
    dirty: bool,
    stats: SaturationStats,
}

impl EGraph {
    fn new(cfg: SaturateConfig) -> Self {
        let mut eg = EGraph {
            cfg,
            stages: Vec::new(),
            stage_costs: Vec::new(),
            stage_coll: Vec::new(),
            stage_ids: HashMap::new(),
            nodes: Vec::new(),
            node_ids: HashMap::new(),
            classes: Vec::new(),
            uf: Vec::new(),
            node_class: Vec::new(),
            worklist: VecDeque::new(),
            attempted: HashSet::new(),
            cert_cache: HashMap::new(),
            events: Vec::new(),
            event_ids: HashMap::new(),
            depth_hint: HashMap::new(),
            rejections: Vec::new(),
            nil_class: 0,
            dirty: false,
            stats: SaturationStats::default(),
        };
        // The nil node/class.
        eg.nodes.push(ENode {
            stage: NIL,
            tail: 0,
        });
        eg.node_ids.insert((NIL, 0), 0);
        eg.classes.push(EClass {
            nodes: vec![0],
            parents: Vec::new(),
        });
        eg.uf.push(0);
        eg.node_class.push(0);
        eg
    }

    fn find(&self, mut class: usize) -> usize {
        while self.uf[class] != class {
            class = self.uf[class];
        }
        class
    }

    fn class_of(&self, node: usize) -> usize {
        self.find(self.node_class[node])
    }

    fn intern_stage(&mut self, stage: &Stage) -> usize {
        let key = stage_key(stage);
        if let Some(&id) = self.stage_ids.get(&key) {
            return id;
        }
        let id = self.stages.len();
        self.stages.push(stage.clone());
        self.stage_costs
            .push(stage_cost(stage, &self.cfg.params, self.cfg.m));
        self.stage_coll.push(stage.is_collective());
        self.stage_ids.insert(key, id);
        id
    }

    fn lookup_stage(&self, stage: &Stage) -> Option<usize> {
        self.stage_ids.get(&stage_key(stage)).copied()
    }

    /// Hash-consed node creation; new nodes enter the match worklist.
    fn add_node(&mut self, stage: usize, tail_class: usize) -> usize {
        let tail = self.find(tail_class);
        if let Some(&node) = self.node_ids.get(&(stage, tail)) {
            return node;
        }
        let node = self.nodes.len();
        self.nodes.push(ENode { stage, tail });
        self.node_ids.insert((stage, tail), node);
        let class = self.classes.len();
        self.classes.push(EClass {
            nodes: vec![node],
            parents: Vec::new(),
        });
        self.uf.push(class);
        self.node_class.push(class);
        self.classes[tail].parents.push(node);
        self.worklist.push_back(node);
        node
    }

    /// Insert a program as a cons chain; returns its class.
    fn insert_chain(&mut self, prog: &Program) -> usize {
        let mut class = self.nil_class;
        for (depth, stage) in prog.stages().iter().enumerate().rev() {
            let sid = self.intern_stage(stage);
            let node = self.add_node(sid, class);
            self.depth_hint.entry(node).or_insert(depth);
            class = self.class_of(node);
        }
        class
    }

    /// Merge two classes (keeping the smaller id canonical) and re-enqueue
    /// every node whose match windows could now see new chains: parents of
    /// both classes, and their parents (three-stage windows reach two
    /// levels up).
    fn union(&mut self, a: usize, b: usize) {
        let (a, b) = (self.find(a), self.find(b));
        if a == b {
            return;
        }
        let (keep, drop) = if a < b { (a, b) } else { (b, a) };
        self.uf[drop] = keep;
        self.stats.unions += 1;
        self.dirty = true;
        let dropped_nodes = std::mem::take(&mut self.classes[drop].nodes);
        let dropped_parents = std::mem::take(&mut self.classes[drop].parents);
        let mut requeue: Vec<usize> = Vec::new();
        for &p in self.classes[keep].parents.iter().chain(&dropped_parents) {
            requeue.push(p);
            let gp_class = self.class_of(p);
            requeue.extend(self.classes[gp_class].parents.iter().copied());
        }
        self.worklist.extend(requeue);
        self.classes[keep].nodes.extend(dropped_nodes);
        self.classes[keep].parents.extend(dropped_parents);
    }

    /// Congruence closure: re-canonicalize the hash-cons and merge cons
    /// nodes that became equal because their tails merged, to fixpoint.
    fn rebuild(&mut self) {
        while self.dirty {
            self.dirty = false;
            let mut fresh: HashMap<(usize, usize), usize> =
                HashMap::with_capacity(self.nodes.len());
            let mut pending: Vec<(usize, usize)> = Vec::new();
            for id in 0..self.nodes.len() {
                let stage = self.nodes[id].stage;
                let key = if stage == NIL {
                    (NIL, 0)
                } else {
                    (stage, self.find(self.nodes[id].tail))
                };
                match fresh.entry(key) {
                    Entry::Occupied(entry) => {
                        let other = *entry.get();
                        if self.class_of(other) != self.class_of(id) {
                            pending.push((other, id));
                        }
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(id);
                    }
                }
            }
            self.node_ids = fresh;
            for (a, b) in pending {
                let (ca, cb) = (self.class_of(a), self.class_of(b));
                self.union(ca, cb);
            }
        }
    }

    /// Saturate: process the worklist to fixpoint or node budget.
    fn run(&mut self) {
        loop {
            self.rebuild();
            let Some(node) = self.worklist.pop_front() else {
                break;
            };
            if self.nodes.len() >= self.cfg.node_budget {
                self.stats.budget_exhausted = true;
                self.worklist.clear();
                break;
            }
            self.match_node(node);
        }
        self.rebuild();
        self.stats.nodes = self.nodes.len();
        self.stats.classes = (0..self.classes.len())
            .filter(|&c| self.find(c) == c)
            .count();
        self.stats.rule_applications = self.events.len();
    }

    /// Try every window (length 2 and 3) headed at `n0`.
    fn match_node(&mut self, n0: usize) {
        if self.nodes[n0].stage == NIL {
            return;
        }
        let tail1 = self.find(self.nodes[n0].tail);
        let firsts = self.class_members(tail1);
        for n1 in firsts {
            if self.nodes[n1].stage == NIL {
                continue;
            }
            self.try_windows(&[n0, n1]);
            let tail2 = self.find(self.nodes[n1].tail);
            let seconds = self.class_members(tail2);
            for n2 in seconds {
                if self.nodes[n2].stage == NIL {
                    continue;
                }
                self.try_windows(&[n0, n1, n2]);
            }
        }
    }

    /// Deterministic, deduplicated member snapshot of a class.
    fn class_members(&self, class: usize) -> Vec<usize> {
        let mut members = self.classes[self.find(class)].nodes.clone();
        members.sort_unstable();
        members.dedup();
        members
    }

    fn try_windows(&mut self, path: &[usize]) {
        let ids: Vec<usize> = path.iter().map(|&n| self.nodes[n].stage).collect();
        for rule in RULE_PRIORITY {
            if rules::window_len(rule) == path.len() {
                self.try_rule(rule, path, &ids);
            }
        }
        if self.cfg.normalize && path.len() == 2 {
            self.try_norm(path, &ids);
        }
    }

    fn try_rule(&mut self, rule: Rule, path: &[usize], ids: &[usize]) {
        let tag = rule_tag(rule);
        if !self.attempted.insert((tag, path.to_vec())) {
            return;
        }
        let window: Vec<Stage> = ids.iter().map(|&i| self.stages[i].clone()).collect();
        let Some(rewrite) = rules::try_match(rule, &window) else {
            return;
        };
        if !self.cfg.allow_rank0_rules && rewrite.rank0_only {
            return;
        }
        if let Some(gate) = &self.cfg.law_gate {
            if !gate(rule, &window) {
                return;
            }
        }
        let Some(certificate) = self.certify(rule, &window, ids, path[0]) else {
            return;
        };
        let rank0_only = rewrite.rank0_only;
        let replacement: Vec<usize> = rewrite
            .stages
            .iter()
            .map(|s| self.intern_stage(s))
            .collect();
        self.apply(path, replacement.clone());
        let event_key = (tag, ids.to_vec());
        if let Entry::Vacant(slot) = self.event_ids.entry(event_key) {
            slot.insert(self.events.len());
            self.events.push(Event {
                rule,
                replacement,
                certificate,
                rank0_only,
            });
        }
    }

    /// Certify `rule` on `window` with the configured samples — the same
    /// contract as `Rewriter::certify`, cached per stage-id window so
    /// audited rejections are recorded once per distinct window.
    fn certify(
        &mut self,
        rule: Rule,
        window: &[Stage],
        ids: &[usize],
        head: usize,
    ) -> Option<Certificate> {
        let cache_key = (rule_tag(rule), ids.to_vec());
        if let Some(cached) = self.cert_cache.get(&cache_key) {
            return cached.clone();
        }
        let at = self.depth_hint.get(&head).copied().unwrap_or(0);
        let result = (|| {
            let laws = rules::required_laws(rule, window)?;
            let witness = match &self.cfg.verify_samples {
                None => Witness::Declared,
                Some(samples) => {
                    for law in &laws {
                        if let Some(cex) = law.counterexample(samples) {
                            if self.cfg.audited {
                                self.rejections.push(RuleRejection {
                                    rule,
                                    at,
                                    law: law.describe(),
                                    counterexample: cex,
                                });
                            }
                            return None;
                        }
                    }
                    Witness::Checked {
                        samples: samples.len(),
                    }
                }
            };
            let rank0_only = rules::try_match(rule, window).is_some_and(|rw| rw.rank0_only);
            Some(Certificate {
                rule,
                laws,
                witness,
                dist_pre: crate::dist::expected_pre(rule),
                dist_post: crate::dist::expected_post(rule, rank0_only),
            })
        })();
        self.cert_cache.insert(cache_key, result.clone());
        result
    }

    /// Splice a rewrite into the graph: build the replacement chain over
    /// the residual tail of the matched path and union it with the head.
    fn apply(&mut self, path: &[usize], replacement: Vec<usize>) {
        let last = *path.last().expect("non-empty window");
        let mut class = self.find(self.nodes[last].tail);
        for &sid in replacement.iter().rev() {
            let node = self.add_node(sid, class);
            class = self.class_of(node);
        }
        let head_class = self.class_of(path[0]);
        self.union(head_class, class);
    }

    /// The enabling normalizations as 2-window rewrites, mirroring
    /// `rules::enabling::step` exactly (left-moving suffices: windows are
    /// all-collective, so a map never sits inside one).
    fn try_norm(&mut self, path: &[usize], ids: &[usize]) {
        let (tag, replacement): (u32, Vec<Stage>) =
            match (&self.stages[ids[0]], &self.stages[ids[1]]) {
                (
                    Stage::Map {
                        f: f1,
                        ops: o1,
                        label: l1,
                    },
                    Stage::Map {
                        f: f2,
                        ops: o2,
                        label: l2,
                    },
                ) => {
                    let (f1, f2) = (f1.clone(), f2.clone());
                    let fused = Stage::Map {
                        f: Arc::new(move |v| f2(&f1(v))),
                        ops: o1 + o2,
                        label: format!("{l1};{l2}"),
                    };
                    (TAG_MAP_FUSE, vec![fused])
                }
                (Stage::Gather, Stage::Scatter) => (TAG_GATHER_SCATTER, Vec::new()),
                (Stage::Bcast, map @ Stage::Map { .. }) => {
                    (TAG_BCAST_MAP, vec![map.clone(), Stage::Bcast])
                }
                _ => return,
            };
        if !self.attempted.insert((tag, path.to_vec())) {
            return;
        }
        let replacement: Vec<usize> = replacement.iter().map(|s| self.intern_stage(s)).collect();
        self.apply(path, replacement);
    }

    /// Per-class least `(cost, collectives, len)` — a Bellman-style
    /// fixpoint over node values (the optimal sub-graph is acyclic: `len`
    /// strictly decreases along tails, so this converges).
    fn extract_values(&self) -> Vec<Option<Extract>> {
        let mut best: Vec<Option<Extract>> = vec![None; self.classes.len()];
        best[self.find(self.nil_class)] = Some(Extract {
            cost: 0.0,
            collectives: 0,
            len: 0,
        });
        loop {
            let mut changed = false;
            for id in 0..self.nodes.len() {
                let stage = self.nodes[id].stage;
                if stage == NIL {
                    continue;
                }
                let Some(tail) = best[self.find(self.nodes[id].tail)] else {
                    continue;
                };
                let value = Extract {
                    cost: tail.cost + self.stage_costs[stage],
                    collectives: tail.collectives + u64::from(self.stage_coll[stage]),
                    len: tail.len + 1,
                };
                let class = self.class_of(id);
                if best[class].is_none_or(|b| value.beats(&b)) {
                    best[class] = Some(value);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        best
    }

    /// Enumerate (capped) the chains realizing a class's best value.
    fn best_chains(
        &self,
        class: usize,
        best: &[Option<Extract>],
        memo: &mut HashMap<usize, Vec<Vec<usize>>>,
    ) -> Vec<Vec<usize>> {
        let class = self.find(class);
        if let Some(cached) = memo.get(&class) {
            return cached.clone();
        }
        let target = best[class].expect("reachable class");
        let mut chains: Vec<Vec<usize>> = Vec::new();
        'members: for id in self.class_members(class) {
            let stage = self.nodes[id].stage;
            if stage == NIL {
                if target.len == 0 {
                    chains.push(Vec::new());
                }
                continue;
            }
            let tail_class = self.find(self.nodes[id].tail);
            let Some(tail) = best[tail_class] else {
                continue;
            };
            let value = Extract {
                cost: tail.cost + self.stage_costs[stage],
                collectives: tail.collectives + u64::from(self.stage_coll[stage]),
                len: tail.len + 1,
            };
            if value != target {
                continue;
            }
            for tail_chain in self.best_chains(tail_class, best, memo) {
                let mut chain = Vec::with_capacity(1 + tail_chain.len());
                chain.push(stage);
                chain.extend(tail_chain);
                chains.push(chain);
                if chains.len() >= CANDIDATE_CAP {
                    break 'members;
                }
            }
        }
        memo.insert(class, chains.clone());
        chains
    }

    /// Extract the cost-least program from `root`, tie-broken by
    /// `(collectives, len)` then the least normalized rendering.
    fn extract(&self, root: usize) -> Program {
        let best = self.extract_values();
        let mut memo = HashMap::new();
        let chains = self.best_chains(root, &best, &mut memo);
        let mut winner: Option<(usize, String, Program)> = None;
        for chain in chains {
            let mut prog = Program::new();
            for sid in chain {
                prog = prog.push(self.stages[sid].clone());
            }
            if self.cfg.normalize {
                prog = enabling::normalize(&prog).0;
            }
            let key = (prog.len(), prog.to_string());
            if winner
                .as_ref()
                .is_none_or(|(l, s, _)| key < (*l, s.clone()))
            {
                winner = Some((key.0, key.1, prog));
            }
        }
        winner.expect("root class is reachable").2
    }

    /// Stage-id rendering of a program, `None` if any stage was never
    /// interned (then the program cannot be in the graph).
    fn chain_ids(&self, prog: &Program) -> Option<Vec<usize>> {
        prog.stages().iter().map(|s| self.lookup_stage(s)).collect()
    }

    /// Is this exact chain present in the graph? (Walk the hash-cons from
    /// nil; only valid after `rebuild`.)
    fn representable(&self, ids: &[usize]) -> bool {
        let mut class = self.find(self.nil_class);
        for &sid in ids.iter().rev() {
            let Some(&node) = self.node_ids.get(&(sid, class)) else {
                return false;
            };
            class = self.class_of(node);
        }
        true
    }

    /// Provenance-guided BFS from `start` to `target`: transitions are the
    /// recorded rule events only (re-normalizing between steps, exactly
    /// like the greedy engine), pruned to programs still representable in
    /// the graph. Returns the shortest certificate-carrying derivation.
    #[allow(clippy::type_complexity)]
    fn replay(
        &mut self,
        start: &Program,
        target: &Program,
    ) -> Option<(Vec<RewriteStep>, Vec<Normalization>)> {
        let target_key = target.to_string();
        let start_key = start.to_string();
        if start_key == target_key {
            return Some((Vec::new(), Vec::new()));
        }
        // key → (parent key, event, at, normalizations on this edge)
        let mut edges: HashMap<String, (String, usize, usize, Vec<Normalization>)> = HashMap::new();
        let mut programs: HashMap<String, Program> = HashMap::new();
        programs.insert(start_key.clone(), start.clone());
        let mut queue: VecDeque<String> = VecDeque::new();
        queue.push_back(start_key.clone());
        let mut found = false;
        'search: while let Some(key) = queue.pop_front() {
            if self.stats.replay_states >= REPLAY_STATE_CAP {
                break;
            }
            self.stats.replay_states += 1;
            let current = programs[&key].clone();
            let Some(ids) = self.chain_ids(&current) else {
                continue;
            };
            for at in 0..current.len() {
                for rule in RULE_PRIORITY {
                    let window_len = rules::window_len(rule);
                    if at + window_len > current.len() {
                        continue;
                    }
                    let event_key = (rule_tag(rule), ids[at..at + window_len].to_vec());
                    let Some(&event) = self.event_ids.get(&event_key) else {
                        continue;
                    };
                    let replacement: Vec<Stage> = self.events[event]
                        .replacement
                        .iter()
                        .map(|&i| self.stages[i].clone())
                        .collect();
                    let mut next = current.splice(at, window_len, replacement);
                    let mut norms = Vec::new();
                    if self.cfg.normalize {
                        let (p, log) = enabling::normalize(&next);
                        next = p;
                        norms = log;
                    }
                    let next_key = next.to_string();
                    if programs.contains_key(&next_key) {
                        continue;
                    }
                    if next_key != target_key {
                        let Some(next_ids) = self.chain_ids(&next) else {
                            continue;
                        };
                        if !self.representable(&next_ids) {
                            continue;
                        }
                    }
                    programs.insert(next_key.clone(), next);
                    edges.insert(next_key.clone(), (key.clone(), event, at, norms));
                    if next_key == target_key {
                        found = true;
                        break 'search;
                    }
                    queue.push_back(next_key);
                }
            }
        }
        if !found {
            return None;
        }
        // Walk the parent chain back to the start and emit steps forward.
        let mut path: Vec<(String, usize, usize, Vec<Normalization>)> = Vec::new();
        let mut cursor = target_key;
        while cursor != start_key {
            let (parent, event, at, norms) = edges.remove(&cursor).expect("edge on found path");
            path.push((cursor, event, at, norms));
            cursor = parent;
        }
        path.reverse();
        let mut steps = Vec::new();
        let mut normalizations = Vec::new();
        let mut current = start.clone();
        for (child_key, event, at, norms) in path {
            let child = programs.remove(&child_key).expect("program on found path");
            let event = &self.events[event];
            let saving = program_cost(&current, &self.cfg.params, self.cfg.m)
                - program_cost(&child, &self.cfg.params, self.cfg.m);
            steps.push(RewriteStep {
                rule: event.rule,
                at,
                saving: Some(saving),
                description: format!("{current}  →[{}]→  {child}", event.rule),
                certificate: event.certificate.clone(),
                rank0_only: event.rank0_only,
            });
            normalizations.extend(norms);
            current = child;
        }
        Some((steps, normalizations))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::lib;
    use crate::semantics::eval_program;

    fn ints(vs: &[i64]) -> Vec<Value> {
        vs.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn saturation_finds_the_scan_scan_reduce_optimum() {
        let params = MachineParams::new(64, 100.0, 2.0);
        let m = 8.0;
        let prog = Program::new()
            .scan(lib::add())
            .scan(lib::add())
            .reduce(lib::add());
        let out = saturate_program(&prog, &SaturateConfig::new(params, m));
        assert!(!out.stats.budget_exhausted);
        assert!(!out.stats.replay_fell_back);
        assert_eq!(out.result.steps.len(), 1);
        assert_eq!(out.result.steps[0].rule, Rule::SrReduction);
        assert_eq!(out.result.steps[0].at, 1);
        let greedy = Rewriter::exhaustive().optimize(&prog);
        assert!(
            program_cost(&out.result.program, &params, m)
                < program_cost(&greedy.program, &params, m)
        );
        // Rank 0 agrees with the original.
        let input = ints(&[0, 1, 2, 3, 4, 5]);
        assert_eq!(
            eval_program(&prog, &input)[0],
            eval_program(&out.result.program, &input)[0]
        );
    }

    #[test]
    fn saturation_is_deterministic_across_runs() {
        let params = MachineParams::new(16, 150.0, 1.0);
        let prog = Program::new()
            .bcast()
            .scan(lib::add())
            .scan(lib::add())
            .reduce(lib::add());
        let cfg = SaturateConfig::new(params, 4.0);
        let a = saturate_program(&prog, &cfg);
        let b = saturate_program(&prog, &cfg);
        assert_eq!(a.result.program.to_string(), b.result.program.to_string());
        assert_eq!(a.result.steps.len(), b.result.steps.len());
        assert_eq!(a.stats.nodes, b.stats.nodes);
    }

    #[test]
    fn deep_chain_terminates_within_budget() {
        let mut prog = Program::new();
        for _ in 0..11 {
            prog = prog.scan(lib::add());
        }
        prog = prog.reduce(lib::add());
        let params = MachineParams::new(64, 100.0, 2.0);
        let cfg = SaturateConfig::new(params, 8.0).node_budget(5_000);
        let out = saturate_program(&prog, &cfg);
        assert!(out.stats.nodes <= 5_000);
        assert!(
            program_cost(&out.result.program, &params, 8.0) <= program_cost(&prog, &params, 8.0)
        );
    }

    #[test]
    fn normalization_rewrites_participate() {
        // bcast ; map f ; scan — commuting the map exposes BS-Comcast.
        let params = MachineParams::new(64, 200.0, 2.0);
        let prog = Program::new()
            .bcast()
            .map("f", 1.0, |v| Value::Int(v.as_int() + 1))
            .scan(lib::add());
        let out = saturate_program(&prog, &SaturateConfig::new(params, 4.0));
        assert!(out
            .result
            .normalizations
            .iter()
            .any(|n| matches!(n, Normalization::BcastMapCommute { .. })));
        assert_eq!(out.result.steps.len(), 1);
        assert_eq!(out.result.steps[0].rule, Rule::BsComcast);
    }

    #[test]
    fn audited_refusal_is_recorded_with_shrunk_witness() {
        let lying =
            crate::op::BinOp::new("sub", |a, b| Value::Int(a.as_int() - b.as_int())).commutative();
        let prog = Program::new().scan(lying.clone()).reduce(lying);
        let params = MachineParams::new(64, 100.0, 2.0);
        let cfg = SaturateConfig::new(params, 8.0).audited(ints(&[-5, -2, 0, 1, 3, 7]));
        let out = saturate_program(&prog, &cfg);
        assert!(out.result.steps.is_empty());
        assert_eq!(out.result.rejections.len(), 1);
        assert_eq!(out.result.rejections[0].rule, Rule::SrReduction);
        assert_eq!(out.result.rejections[0].at, 0);
        assert!(out.result.rejections[0].counterexample.distinct_values() <= 3);
    }

    #[test]
    fn law_gate_excludes_rules() {
        let prog = Program::new().scan(lib::mul()).reduce(lib::add());
        let params = MachineParams::new(64, 100.0, 2.0);
        let gate: LawGate = Arc::new(|_, _| false);
        let cfg = SaturateConfig::new(params, 8.0).law_gate(gate);
        let out = saturate_program(&prog, &cfg);
        assert!(out.result.steps.is_empty());
        assert_eq!(out.result.program.to_string(), prog.to_string());
    }

    #[test]
    fn empty_program_is_a_fixpoint() {
        let params = MachineParams::new(4, 10.0, 1.0);
        let out = saturate_program(&Program::new(), &SaturateConfig::new(params, 1.0));
        assert!(out.result.program.is_empty());
        assert!(out.result.steps.is_empty());
    }
}
