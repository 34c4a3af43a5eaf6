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
//! is an e-class. Stages are interned under a hashed structural key
//! (`StageKey`): the display fields (variant, label, operator name) plus
//! every numeric cost field, with an `f64` compared as its `Display` would
//! compare it. Two stages share an id exactly when they are
//! indistinguishable to both the semantics display and the cost model; a
//! lookup borrows the stage and allocates nothing. E-nodes are hash-consed
//! on `(stage_id, find(tail))`; e-classes live in a union-find, and a
//! congruence `rebuild` re-canonicalizes cons nodes whose tails merged
//! (merging them upward), which is what makes the search complete with
//! respect to the brute-force enumeration.
//!
//! ## Saturation
//!
//! Matching walks concrete node paths `n0 → n1 [→ n2]` (a window of 2–3
//! stages), tries every Table-1 rule of that window length via
//! `rules::match_rule`, and — when the rule's laws certify
//! (`rewrite::certify`) — builds the replacement chain over the path's
//! residual tail and unions it with the head's class. The enabling
//! normalizations (map fusion, bcast/map commutation, gather/scatter
//! elimination) run as additional 2-window rewrites. Refuted laws exclude
//! the match; in audited mode the refusal is recorded with a shrunk
//! counterexample, deduped per `(rule, law)`. Attempts are keyed by node
//! path, refusals and rule events by `(rule, stage-id window)`.
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
//! The cost is the [`Strategy`]'s: the cost model's estimate, or 0 for
//! every stage under [`Strategy::Exhaustive`]. Preferring fewer
//! collectives, then shorter programs, at equal cost is precisely the
//! "RHS never worse than LHS" tie-break: every rule's RHS has strictly
//! fewer collectives and no normalization grows a program. The (capped)
//! chains realizing the root's value, normalized on stage ids and kept at
//! the least length, are the tied candidates handed to replay.
//!
//! ## Certificate replay and the equal-value tie-break
//!
//! The plan is replayed as a concrete [`RewriteStep`] path: a
//! breadth-first search over stage-id chains from the normalized input in
//! which the only transitions are rule events the saturation actually
//! recorded (each carrying the [`Certificate`] minted when it fired),
//! followed by normalization, and every intermediate chain must still be
//! representable in the e-graph (checked by walking the hash-cons). The
//! first candidate the search reaches is the result: the fewest steps,
//! then the earliest position, then [`RULE_PRIORITY`] — fully
//! deterministic, independent of hash iteration order and worker count,
//! and exactly the order [`Rewriter::optimize_brute_force`] explores in.
//! Programs, savings and step descriptions are built only along the path
//! returned. Equality saturation only ever grows the set of
//! forward-reachable programs, so a candidate is reachable whenever
//! saturation ran to fixpoint. When a node budget cut a derivation short,
//! the search returns the best-valued program it did reach — certified
//! step by step, and never worse than the input. Certificates are
//! revalidated downstream by `collopt-analysis::certify`.
//!
//! [`Rewriter::optimize_brute_force`]: crate::rewrite::Rewriter::optimize_brute_force

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::mem::Discriminant;
use std::rc::Rc;
use std::sync::Arc;

use collopt_cost::MachineParams;

use crate::rewrite::{
    certify, dedupe_rejections, program_cost, stage_cost, Certificate, OptimizeResult, RewriteStep,
    RuleRejection, Strategy, RULE_PRIORITY,
};
use crate::rules::enabling::{self, Normalization};
use crate::rules::{self, Rule};
use crate::term::{Program, Stage};
use crate::value::Value;

/// Default cap on e-graph nodes; generous — a 12-collective chain
/// saturates in well under a thousand nodes.
pub const DEFAULT_NODE_BUDGET: usize = 10_000;

/// Cap on equal-value chains enumerated per class as replay candidates.
const CANDIDATE_CAP: usize = 64;

/// Cap on concrete programs the certificate replay may visit.
const REPLAY_STATE_CAP: usize = 100_000;

/// Sentinel stage id for the `nil` e-node, and "no further id" in a chain.
const NIL: usize = usize::MAX;

/// A predicate consulted before certifying a structural match; returning
/// `false` silently excludes the rule for that window. The linter installs
/// one backed by its per-domain sampling so saturation respects the same
/// lying-declaration gates as the windowed passes did.
pub type LawGate = Arc<dyn Fn(Rule, &[&Stage]) -> bool + Send + Sync>;

/// Configuration for one saturation run: the extraction objective, the
/// rank-0 switch and audit samples (what a
/// [`Rewriter`](crate::rewrite::Rewriter) holds), the node budget and an
/// optional [`LawGate`].
#[derive(Clone)]
pub struct SaturateConfig {
    /// What extraction minimizes.
    pub strategy: Strategy,
    /// Hard cap on e-graph nodes; see [`DEFAULT_NODE_BUDGET`].
    pub node_budget: usize,
    /// Allow the Local rules that only preserve rank 0's value.
    pub allow_rank0_rules: bool,
    /// Verify required laws on these samples before certifying a match,
    /// recording refusals (with shrunk counterexamples) in `rejections`.
    pub verify_samples: Option<Vec<Value>>,
    /// Extra per-window admission predicate (see [`LawGate`]).
    pub law_gate: Option<LawGate>,
}

impl SaturateConfig {
    /// Minimize the cost model `(params, m)`, rank-0 rules allowed, laws
    /// trusted — `Rewriter::cost_guided(params, m)`.
    pub fn new(params: MachineParams, m: f64) -> Self {
        Self::with_strategy(Strategy::CostGuided { params, block: m })
    }

    pub(crate) fn with_strategy(strategy: Strategy) -> Self {
        SaturateConfig {
            strategy,
            node_budget: DEFAULT_NODE_BUDGET,
            allow_rank0_rules: true,
            verify_samples: None,
            law_gate: None,
        }
    }

    /// Override the node budget.
    pub fn node_budget(mut self, nodes: usize) -> Self {
        self.node_budget = nodes.max(2);
        self
    }

    /// See [`Rewriter::allow_rank0_rules`](crate::rewrite::Rewriter::allow_rank0_rules).
    pub fn allow_rank0_rules(mut self, yes: bool) -> Self {
        self.allow_rank0_rules = yes;
        self
    }

    /// See [`Rewriter::audited`](crate::rewrite::Rewriter::audited).
    pub fn audited(mut self, samples: Vec<Value>) -> Self {
        assert!(
            !samples.is_empty(),
            "auditing needs at least one sample value"
        );
        self.verify_samples = Some(samples);
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
            .field("strategy", &self.strategy)
            .field("node_budget", &self.node_budget)
            .field("allow_rank0_rules", &self.allow_rank0_rules)
            .field("audited", &self.verify_samples.is_some())
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
}

/// A finished saturation: the optimization result plus effort counters.
#[derive(Debug, Clone)]
pub struct SaturationOutcome {
    /// Extracted program, replayed steps, normalizations and rejections.
    pub result: OptimizeResult,
    /// Effort counters.
    pub stats: SaturationStats,
}

/// Saturate `prog` under `cfg` and extract the optimum of its
/// [`Strategy`] together with a certificate-carrying derivation. Every
/// optimizer entry point ([`Rewriter`](crate::rewrite::Rewriter)'s
/// `optimize` and `saturate`) is this call.
pub fn saturate_program(prog: &Program, cfg: &SaturateConfig) -> SaturationOutcome {
    let (start, mut normalizations) = enabling::normalize(prog);
    let mut eg = EGraph::new(cfg, start.len());
    let (root, start_ids) = eg.insert_chain(&start);
    eg.run();
    let root = eg.find(root);
    let candidates = eg.extract(root);
    let (program, steps, norms) = eg.replay(start, start_ids, &candidates);
    normalizations.extend(norms);
    let rejections = dedupe_rejections(std::mem::take(&mut eg.rejections));
    SaturationOutcome {
        result: OptimizeResult {
            program,
            steps,
            normalizations,
            rejections,
        },
        stats: eg.stats,
    }
}

/// The structural identity stages are interned under: the display fields
/// plus every numeric cost field, so ids conflate exactly the stages that
/// print alike and cost alike, and never two stages the cost model can
/// tell apart. Borrowed from the stage, so building one allocates nothing.
#[derive(PartialEq, Eq, Hash)]
struct StageKey<'a> {
    variant: Discriminant<Stage>,
    /// The label, or the operator's name.
    name: &'a str,
    /// The cost fields in declaration order: floats as [`num`] keys them,
    /// then the word factor and the comcast variant.
    costs: [u64; 4],
    /// `all`, or the operator's associativity and commutativity.
    flags: [bool; 2],
}

/// An `f64` as its `Display` distinguishes it: every value by its bits,
/// except that all NaNs print (and so key) alike.
fn num(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

impl<'a> StageKey<'a> {
    fn of(stage: &'a Stage) -> Self {
        let (name, costs, flags): (&str, _, _) = match stage {
            Stage::Map { ops, label, .. } | Stage::MapIndexed { ops, label, .. } => {
                (label, [num(*ops), 0, 0, 0], [false; 2])
            }
            Stage::Bcast | Stage::Gather | Stage::Scatter | Stage::AllGather => {
                ("", [0; 4], [false; 2])
            }
            Stage::Scan(op) | Stage::Reduce(op) | Stage::AllReduce(op) => (
                op.name(),
                [num(op.ops_per_word()), num(op.width()), 0, 0],
                [op.is_associative(), op.is_commutative()],
            ),
            Stage::ReduceBalanced {
                all,
                ops_combine,
                ops_solo,
                words_factor,
                label,
                ..
            } => (
                label,
                [num(*ops_combine), num(*ops_solo), *words_factor, 0],
                [*all, false],
            ),
            Stage::ScanBalanced {
                ops_lower,
                ops_upper,
                ops_solo,
                words_factor,
                label,
                ..
            } => (
                label,
                [
                    num(*ops_lower),
                    num(*ops_upper),
                    num(*ops_solo),
                    *words_factor,
                ],
                [false; 2],
            ),
            Stage::Comcast {
                ops_e,
                ops_o,
                words_factor,
                variant,
                label,
                ..
            } => (
                label,
                [num(*ops_e), num(*ops_o), *words_factor, *variant as u64],
                [false; 2],
            ),
            Stage::IterLocal {
                all,
                ops_combine,
                ops_solo,
                label,
                ..
            } => (
                label,
                [num(*ops_combine), num(*ops_solo), 0, 0],
                [*all, false],
            ),
        };
        StageKey {
            variant: std::mem::discriminant(stage),
            name,
            costs,
            flags,
        }
    }

    fn hash64(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

/// The hasher of every id-keyed table: Fx-style, one multiply a word. The
/// keys are ids this graph assigned (or a [`StageKey::hash64`] digest), so
/// SipHash's resistance to chosen keys buys nothing here.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0xF135_7AEA_2E62_A9C5);
    }
    /// Rotate the well-mixed high bits into the low bits a table indexes by.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Up to three node or stage ids (unused slots `u32::MAX`) under a tag in
/// one `u128`: the key of the attempt table (tagged by the path's length)
/// and of the refusal and event tables (tagged by the rule).
type WindowKey = u128;

fn window_key(tag: u32, ids: &[usize]) -> WindowKey {
    let mut key = [u32::MAX; 3];
    for (slot, &id) in key.iter_mut().zip(ids) {
        *slot = u32::try_from(id).expect("a graph of fewer than 2^32 nodes and stages");
    }
    key.iter()
        .fold(u128::from(tag), |acc, &slot| acc << 32 | u128::from(slot))
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
    /// Member node ids, sorted and distinct. Replaced, never edited, on a
    /// merge, so a reader holding the old list keeps its snapshot.
    nodes: Rc<[usize]>,
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

/// The value of the empty program.
const EMPTY: Extract = Extract {
    cost: 0.0,
    collectives: 0,
    len: 0,
};

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

/// One program the replay reached: its stage-id chain and the event (at a
/// position) that led to it from its parent state.
struct ReplayState {
    ids: Vec<usize>,
    parent: usize,
    event: usize,
    at: usize,
}

struct EGraph<'c> {
    cfg: &'c SaturateConfig,
    /// Interned stages and their per-id cost-model values.
    stages: Vec<Stage>,
    stage_costs: Vec<f64>,
    stage_coll: Vec<bool>,
    /// `StageKey` hash → the first id with it; `stage_next` chains the
    /// other ids that share the hash.
    stage_index: IdMap<u64, usize>,
    stage_next: Vec<usize>,
    /// `(map, map)` stage-id pairs → the id of their fused map.
    fused_maps: IdMap<(usize, usize), usize>,
    nodes: Vec<ENode>,
    /// Hash-cons: `(stage, canonical tail class) → node`.
    node_ids: IdMap<(usize, usize), usize>,
    classes: Vec<EClass>,
    /// Union-find parents over class ids.
    uf: Vec<usize>,
    node_class: Vec<usize>,
    worklist: VecDeque<usize>,
    /// Node paths already attempted, one entry a path (see `try_windows`).
    attempted: IdSet<WindowKey>,
    /// Stage-id windows whose certification failed, per rule tag — dedupes
    /// audited rejections at the source (a certified window is an event).
    refused: IdSet<WindowKey>,
    events: Vec<Event>,
    event_ids: IdMap<WindowKey, usize>,
    /// Original-chain depth per node, for rejection reporting.
    depth_hint: IdMap<usize, usize>,
    rejections: Vec<RuleRejection>,
    nil_class: usize,
    dirty: bool,
    stats: SaturationStats,
}

impl<'c> EGraph<'c> {
    /// The nil node, in tables sized for an input chain of `len` stages
    /// and two node paths a node: more costs more bytes than regrowth.
    fn new(cfg: &'c SaturateConfig, len: usize) -> Self {
        let (nodes, paths) = (len + 4, 2 * len + 4);
        let mut eg = EGraph {
            cfg,
            stages: Vec::with_capacity(nodes),
            stage_costs: Vec::with_capacity(nodes),
            stage_coll: Vec::with_capacity(nodes),
            stage_index: IdMap::with_capacity_and_hasher(nodes, Default::default()),
            stage_next: Vec::with_capacity(nodes),
            fused_maps: IdMap::default(),
            nodes: Vec::with_capacity(nodes),
            node_ids: IdMap::with_capacity_and_hasher(nodes, Default::default()),
            classes: Vec::with_capacity(nodes),
            uf: Vec::with_capacity(nodes),
            node_class: Vec::with_capacity(nodes),
            worklist: VecDeque::with_capacity(nodes),
            attempted: IdSet::with_capacity_and_hasher(paths, Default::default()),
            refused: IdSet::default(),
            events: Vec::new(),
            event_ids: IdMap::default(),
            depth_hint: IdMap::with_capacity_and_hasher(len, Default::default()),
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
            nodes: Rc::from([0]),
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

    /// The id of the interned stage structurally equal to `key`, if any.
    fn lookup(&self, key: &StageKey, hash: u64) -> Option<usize> {
        let mut id = *self.stage_index.get(&hash)?;
        while id != NIL {
            if StageKey::of(&self.stages[id]) == *key {
                return Some(id);
            }
            id = self.stage_next[id];
        }
        None
    }

    /// Intern a stage, cloning it only when it is new.
    fn intern_stage(&mut self, stage: &Stage) -> usize {
        let key = StageKey::of(stage);
        let hash = key.hash64();
        self.lookup(&key, hash)
            .unwrap_or_else(|| self.push_stage(stage.clone(), hash))
    }

    fn push_stage(&mut self, stage: Stage, hash: u64) -> usize {
        let id = self.stages.len();
        self.stage_costs.push(match self.cfg.strategy {
            Strategy::Exhaustive => 0.0,
            Strategy::CostGuided { params, block } => stage_cost(&stage, &params, block),
        });
        self.stage_coll.push(stage.is_collective());
        self.stages.push(stage);
        self.stage_next
            .push(self.stage_index.insert(hash, id).unwrap_or(NIL));
        id
    }

    /// The interned `map f;g` of two interned maps, exactly as
    /// `enabling::normalize` fuses them.
    fn fuse_maps(&mut self, a: usize, b: usize) -> usize {
        if let Some(&id) = self.fused_maps.get(&(a, b)) {
            return id;
        }
        let (
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
        ) = (&self.stages[a], &self.stages[b])
        else {
            unreachable!("only two maps fuse");
        };
        let (f1, f2) = (f1.clone(), f2.clone());
        let fused = Stage::Map {
            f: Arc::new(move |v| f2(&f1(v))),
            ops: o1 + o2,
            label: format!("{l1};{l2}"),
        };
        let id = self.intern_stage(&fused);
        self.fused_maps.insert((a, b), id);
        id
    }

    /// [`enabling::normalize`] on a stage-id chain: the same steps in the
    /// same order under the same cap, interning what map fusion builds.
    fn normalize_ids(&mut self, mut ids: Vec<usize>) -> Vec<usize> {
        let cap = ids.len() * (ids.len() + 1);
        'steps: for _ in 0..=cap {
            for at in 0..ids.len().saturating_sub(1) {
                match (&self.stages[ids[at]], &self.stages[ids[at + 1]]) {
                    (Stage::Map { .. }, Stage::Map { .. }) => {
                        let fused = self.fuse_maps(ids[at], ids[at + 1]);
                        ids.splice(at..at + 2, [fused]);
                    }
                    (Stage::Gather, Stage::Scatter) => {
                        ids.drain(at..at + 2);
                    }
                    (Stage::Bcast, Stage::Map { .. }) => ids.swap(at, at + 1),
                    _ => continue,
                }
                continue 'steps;
            }
            break;
        }
        ids
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
            nodes: Rc::from([node]),
            parents: Vec::new(),
        });
        self.uf.push(class);
        self.node_class.push(class);
        self.classes[tail].parents.push(node);
        self.worklist.push_back(node);
        node
    }

    /// Insert a program as a cons chain; returns its class and its stage
    /// ids.
    fn insert_chain(&mut self, prog: &Program) -> (usize, Vec<usize>) {
        let mut class = self.nil_class;
        let mut ids = vec![NIL; prog.len()];
        for (depth, stage) in prog.stages().iter().enumerate().rev() {
            let sid = self.intern_stage(stage);
            ids[depth] = sid;
            let node = self.add_node(sid, class);
            self.depth_hint.entry(node).or_insert(depth);
            class = self.class_of(node);
        }
        (class, ids)
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
        let mut merged: Vec<usize> = self.classes[keep]
            .nodes
            .iter()
            .chain(dropped_nodes.iter())
            .copied()
            .collect();
        merged.sort_unstable();
        merged.dedup();
        self.classes[keep].nodes = Rc::from(merged);
        self.classes[keep].parents.extend(dropped_parents);
    }

    /// Congruence closure: re-canonicalize the hash-cons and merge cons
    /// nodes that became equal because their tails merged, to fixpoint.
    fn rebuild(&mut self) {
        while self.dirty {
            self.dirty = false;
            // The old table's allocation, emptied: it already holds every key.
            let mut fresh = std::mem::take(&mut self.node_ids);
            fresh.clear();
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
        for &n1 in firsts.iter() {
            if self.nodes[n1].stage == NIL {
                continue;
            }
            self.try_windows(&[n0, n1]);
            let tail2 = self.find(self.nodes[n1].tail);
            let seconds = self.class_members(tail2);
            for &n2 in seconds.iter() {
                if self.nodes[n2].stage == NIL {
                    continue;
                }
                self.try_windows(&[n0, n1, n2]);
            }
        }
    }

    /// A class's members as of now, sorted and distinct (shared, not
    /// copied: a later merge replaces the class's list, not this one).
    fn class_members(&self, class: usize) -> Rc<[usize]> {
        self.classes[self.find(class)].nodes.clone()
    }

    /// Try every rule and normalization of the path's length, once per
    /// path: one entry stands for all of them, since this call tries every
    /// tag of that length with no early return in between and a path's
    /// stages never change, so its tags are all new or all already tried.
    fn try_windows(&mut self, path: &[usize]) {
        if !self.attempted.insert(window_key(path.len() as u32, path)) {
            return;
        }
        let mut ids = [NIL; 3];
        for (id, &node) in ids.iter_mut().zip(path) {
            *id = self.nodes[node].stage;
        }
        let ids = &ids[..path.len()];
        for rule in RULE_PRIORITY {
            if rules::window_len(rule) == path.len() {
                self.try_rule(rule, path, ids);
            }
        }
        if path.len() == 2 {
            self.try_norm(path, ids);
        }
    }

    fn try_rule(&mut self, rule: Rule, path: &[usize], ids: &[usize]) {
        let stages = &self.stages;
        let Some(hit) = rules::match_rule(rule, ids.iter().map(|&i| &stages[i])) else {
            return;
        };
        let rank0_only = hit.rank0_only();
        if !self.cfg.allow_rank0_rules && rank0_only {
            return;
        }
        if let Some(gate) = &self.cfg.law_gate {
            let mut window = [&stages[ids[0]]; 3];
            for (slot, &i) in window.iter_mut().zip(ids) {
                *slot = &stages[i];
            }
            if !gate(rule, &window[..ids.len()]) {
                return;
            }
        }
        // Certified once per stage-id window, so audited rejections are
        // recorded once per distinct window; a certified window's event
        // already holds its replacement.
        let key = window_key(rule_tag(rule), ids);
        if let Some(&event) = self.event_ids.get(&key) {
            let replacement = self.events[event].replacement.clone();
            self.apply(path, &replacement);
            return;
        }
        if self.refused.contains(&key) {
            return;
        }
        let at = self.depth_hint.get(&path[0]).copied().unwrap_or(0);
        let samples = self.cfg.verify_samples.as_deref();
        let Some(certificate) = certify(rule, &hit, samples, at, &mut self.rejections) else {
            self.refused.insert(key);
            return;
        };
        let rhs = hit.rhs();
        let replacement: Vec<usize> = rhs.iter().map(|s| self.intern_stage(s)).collect();
        self.apply(path, &replacement);
        self.event_ids.insert(key, self.events.len());
        self.events.push(Event {
            rule,
            replacement,
            certificate,
            rank0_only,
        });
    }

    /// Splice a rewrite into the graph: build the replacement chain over
    /// the residual tail of the matched path and union it with the head.
    fn apply(&mut self, path: &[usize], replacement: &[usize]) {
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
        match (&self.stages[ids[0]], &self.stages[ids[1]]) {
            (Stage::Map { .. }, Stage::Map { .. }) => {
                let fused = self.fuse_maps(ids[0], ids[1]);
                self.apply(path, &[fused]);
            }
            (Stage::Gather, Stage::Scatter) => self.apply(path, &[]),
            (Stage::Bcast, Stage::Map { .. }) => self.apply(path, &[ids[1], ids[0]]),
            _ => {}
        }
    }

    /// The value of `cons(stage, tail)` given the tail's.
    fn cons(&self, stage: usize, tail: Extract) -> Extract {
        Extract {
            cost: tail.cost + self.stage_costs[stage],
            collectives: tail.collectives + u64::from(self.stage_coll[stage]),
            len: tail.len + 1,
        }
    }

    /// Per-class least `(cost, collectives, len)` — a Bellman-style
    /// fixpoint over node values (the optimal sub-graph is acyclic: `len`
    /// strictly decreases along tails, so this converges).
    fn extract_values(&self) -> Vec<Option<Extract>> {
        let mut best: Vec<Option<Extract>> = vec![None; self.classes.len()];
        best[self.find(self.nil_class)] = Some(EMPTY);
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
                let value = self.cons(stage, tail);
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

    /// Enumerate (capped) the stage-id chains realizing a class's best
    /// value.
    fn best_chains(
        &self,
        class: usize,
        best: &[Option<Extract>],
        memo: &mut IdMap<usize, Rc<[Vec<usize>]>>,
    ) -> Rc<[Vec<usize>]> {
        let class = self.find(class);
        if let Some(cached) = memo.get(&class) {
            return cached.clone();
        }
        let target = best[class].expect("reachable class");
        let mut chains: Vec<Vec<usize>> = Vec::new();
        'members: for &id in self.class_members(class).iter() {
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
            if self.cons(stage, tail) != target {
                continue;
            }
            for tail_chain in self.best_chains(tail_class, best, memo).iter() {
                let mut chain = Vec::with_capacity(1 + tail_chain.len());
                chain.push(stage);
                chain.extend_from_slice(tail_chain);
                chains.push(chain);
                if chains.len() >= CANDIDATE_CAP {
                    break 'members;
                }
            }
        }
        let chains: Rc<[Vec<usize>]> = Rc::from(chains);
        memo.insert(class, chains.clone());
        chains
    }

    /// The stage-id chains of the programs realizing `root`'s best value:
    /// normalized, kept at the least normalized length. Replay picks among
    /// them.
    fn extract(&mut self, root: usize) -> Vec<Vec<usize>> {
        let best = self.extract_values();
        let mut memo = IdMap::default();
        let mut candidates: Vec<Vec<usize>> = Vec::new();
        let mut shortest = usize::MAX;
        for chain in self.best_chains(root, &best, &mut memo).iter() {
            let chain = self.normalize_ids(chain.clone());
            if chain.len() < shortest {
                shortest = chain.len();
                candidates.clear();
            }
            if chain.len() == shortest {
                candidates.push(chain);
            }
        }
        candidates
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

    /// Provenance-guided BFS over stage-id chains from `start`:
    /// transitions are the recorded rule events only (re-normalizing
    /// between steps), pruned to chains still representable in the graph.
    /// Returns the first of `candidates` it reaches with its
    /// certificate-carrying derivation or, when none is reached (a node
    /// budget cut the derivation short), the best-valued program it did
    /// reach — the first such, and never worse than `start`.
    fn replay(
        &mut self,
        start: Program,
        start_ids: Vec<usize>,
        candidates: &[Vec<usize>],
    ) -> (Program, Vec<RewriteStep>, Vec<Normalization>) {
        if candidates.contains(&start_ids) {
            return (start, Vec::new(), Vec::new());
        }
        let mut best = (0, self.value(&start_ids));
        let mut seen: IdSet<Vec<usize>> = [start_ids.clone()].into_iter().collect();
        let mut states = vec![ReplayState {
            ids: start_ids,
            parent: NIL,
            event: NIL,
            at: 0,
        }];
        let mut queue = VecDeque::from([0]);
        'search: while let Some(state) = queue.pop_front() {
            if self.stats.replay_states >= REPLAY_STATE_CAP {
                break;
            }
            self.stats.replay_states += 1;
            let len = states[state].ids.len();
            for at in 0..len {
                for rule in RULE_PRIORITY {
                    let window_len = rules::window_len(rule);
                    if at + window_len > len {
                        continue;
                    }
                    let ids = &states[state].ids;
                    let key = window_key(rule_tag(rule), &ids[at..at + window_len]);
                    let Some(&event) = self.event_ids.get(&key) else {
                        continue;
                    };
                    let mut next = Vec::with_capacity(len + 2);
                    next.extend_from_slice(&ids[..at]);
                    next.extend_from_slice(&self.events[event].replacement);
                    next.extend_from_slice(&ids[at + window_len..]);
                    let next = self.normalize_ids(next);
                    if seen.contains(&next) {
                        continue;
                    }
                    let found = candidates.contains(&next);
                    if !found && !self.representable(&next) {
                        continue;
                    }
                    let value = self.value(&next);
                    seen.insert(next.clone());
                    states.push(ReplayState {
                        ids: next,
                        parent: state,
                        event,
                        at,
                    });
                    if found {
                        best.0 = states.len() - 1;
                        break 'search;
                    }
                    if value.beats(&best.1) {
                        best = (states.len() - 1, value);
                    }
                    queue.push_back(states.len() - 1);
                }
            }
        }
        // Walk the parent chain back to the start, then build the programs
        // along it forward.
        let mut path = Vec::new();
        let mut cursor = best.0;
        while cursor != 0 {
            path.push((states[cursor].event, states[cursor].at));
            cursor = states[cursor].parent;
        }
        let mut steps = Vec::new();
        let mut normalizations = Vec::new();
        let mut current = start;
        for &(event, at) in path.iter().rev() {
            let event = &self.events[event];
            let replacement = event.replacement.iter().map(|&i| self.stages[i].clone());
            let window_len = rules::window_len(event.rule);
            let (child, norms) =
                enabling::normalize(&current.splice(at, window_len, replacement.collect()));
            let saving = match self.cfg.strategy {
                Strategy::Exhaustive => None,
                Strategy::CostGuided { params, block } => Some(
                    program_cost(&current, &params, block) - program_cost(&child, &params, block),
                ),
            };
            steps.push(RewriteStep {
                rule: event.rule,
                at,
                saving,
                description: format!("{current}  →[{}]→  {child}", event.rule),
                certificate: event.certificate.clone(),
                rank0_only: event.rank0_only,
            });
            normalizations.extend(norms);
            current = child;
        }
        (current, steps, normalizations)
    }

    /// The extraction value of a chain, accumulated tail-first exactly as
    /// `extract_values` does.
    fn value(&self, ids: &[usize]) -> Extract {
        ids.iter()
            .rev()
            .fold(EMPTY, |tail, &stage| self.cons(stage, tail))
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
        // Fusing the scans first (SS-Scan) would cost 2016; keeping the
        // first scan and fusing `scan; reduce` costs 1776.
        assert_eq!(out.result.steps.len(), 1);
        assert_eq!(out.result.steps[0].rule, Rule::SrReduction);
        assert_eq!(out.result.steps[0].at, 1);
        assert_eq!(program_cost(&out.result.program, &params, m), 1776.0);
        // Rank 0 agrees with the original.
        let input = ints(&[0, 1, 2, 3, 4, 5]);
        assert_eq!(
            eval_program(&prog, &input)[0],
            eval_program(&out.result.program, &input)[0]
        );
    }

    #[test]
    fn stages_intern_by_display_and_cost() {
        let params = MachineParams::new(8, 10.0, 1.0);
        let cfg = SaturateConfig::new(params, 4.0);
        let mut eg = EGraph::new(&cfg, 0);
        // Same display, different cost: two ids, each priced as itself.
        let cheap = Stage::map("f", 1.0, |v| v.clone());
        let dear = Stage::map("f", 3.0, |v| v.clone());
        let (a, b) = (eg.intern_stage(&cheap), eg.intern_stage(&dear));
        assert_ne!(a, b);
        assert_eq!(eg.intern_stage(&cheap), a);
        assert_eq!(eg.value(&[a]).cost, stage_cost(&cheap, &params, 4.0));
        assert_eq!(eg.value(&[b]).cost, stage_cost(&dear, &params, 4.0));
        assert!(eg.value(&[a]).beats(&eg.value(&[b])));
        // One library operator however often it is built, and a user's
        // operator of the same name and declarations shares its id.
        let add = eg.intern_stage(&Stage::Scan(lib::add()));
        assert_eq!(eg.intern_stage(&Stage::Scan(lib::add())), add);
        let user = crate::op::BinOp::new("add", |a, b| Value::Int(a.as_int() + b.as_int()));
        assert_eq!(
            eg.intern_stage(&Stage::Scan(user.clone().commutative())),
            add
        );
        // Another declaration, cost or stage kind is another stage.
        assert_ne!(eg.intern_stage(&Stage::Scan(user.clone())), add);
        let dear_add = user.commutative().with_cost(2.0);
        assert_ne!(eg.intern_stage(&Stage::Scan(dear_add)), add);
        assert_ne!(eg.intern_stage(&Stage::Reduce(lib::add())), add);
        assert_eq!(eg.stages.len(), 6);
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
