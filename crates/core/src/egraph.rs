//! Equality saturation over stage sequences — the exact rewrite search.
//!
//! [`Rewriter::saturate`](crate::rewrite::Rewriter::saturate) explores
//! every order of rule applications in this small e-graph specialized to
//! the shape of our terms, instead of enumerating the orders.
//!
//! ## Representation
//!
//! A program is a *cons list* of stages: nodes are `nil` and
//! `cons(stage, tail)`, hash-consed, and every node heads its own class —
//! the chains through it, plus every class its justified unions include.
//! Stages are interned under a hashed structural key (`StageKey`): the
//! display fields plus every numeric cost field, an `f64` compared as its
//! `Display` would compare it, so two stages share an id exactly when the
//! semantics display and the cost model cannot tell them apart.
//!
//! ## Saturation: justified unions
//!
//! Matching walks node paths `n0 → n1 [→ n2]`, each node a member of the
//! previous one's tail class, and tries every Table-1 rule of the path's
//! length. When the rule's laws certify (`rewrite::certify`), the
//! replacement chain is built over the path's residual tail and united
//! into the head's class; the enabling normalizations are 2-windows united
//! the same way. A union records why it holds: its path and the rule event
//! (carrying the [`Certificate`] minted when it fired) or the
//! normalization. In audited mode a refusal is recorded with a shrunk
//! counterexample. Attempts are keyed by node path, refusals and rule
//! events by `(rule, stage-id window)`.
//!
//! A union is one-way: Table 1's rules are directional, and a symmetric
//! merge would let the root's class hold chains no forward derivation from
//! the input reaches; one-way, a class holds exactly the chains its own
//! chain derives. Every rule lowers the collective count and every
//! normalization shortens a chain or moves a map left of a bcast, so the
//! unions are acyclic and saturation terminates; a node budget bounds it
//! anyway, and extraction stays sound over what was built.
//!
//! ## Extraction: the derivation read off the unions
//!
//! Each class's best way to a goal is memoized — the best normalized chain
//! whose head may follow the previous stage, or a chain headed by a given
//! node. Best is the least `(cost, collectives, length)` under the
//! [`Strategy`] ("RHS never worse than LHS" at equal cost), then the fewest
//! rule events, then the least sequence of `(position, RULE_PRIORITY
//! index)`: the order a breadth-first search over rule applications reaches
//! plans in, as [`Rewriter::optimize_brute_force`] explores. A class keeps
//! its head stage over its tail's best, or takes a union: the *setup* that
//! makes the union's path the chain's head, the union's own event, then the
//! included class's best — consecutive in that order, so sequences compose
//! class by class and the recurrence is exact. The plan is read off the
//! root's choices, each event applied with its recorded replacement and
//! followed by [`enabling::normalize_in_place`]; the [`Derivation`] keeps
//! the record the linter reads COL001, COL003 and COL012 off.
//!
//! [`Rewriter::optimize_brute_force`]: crate::rewrite::Rewriter::optimize_brute_force

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::mem::Discriminant;
use std::sync::Arc;

use collopt_cost::MachineParams;

use crate::rewrite::{
    certify, dedupe_rejections, stage_cost, Certificate, OptimizeResult, RewriteStep,
    RuleRejection, Strategy, RULE_PRIORITY,
};
use crate::rules::enabling::{self, Normalization};
use crate::rules::{self, Rule};
use crate::term::{write_chain, Program, Stage};
use crate::value::Value;

/// Default cap on e-graph nodes; generous — a 12-collective chain
/// saturates in well under a thousand nodes.
pub const DEFAULT_NODE_BUDGET: usize = 10_000;

/// Sentinel: the nil node's stage id, and the end of an intrusive list.
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
    /// Cap on e-graph nodes; see [`DEFAULT_NODE_BUDGET`]. The input's own
    /// windows are always tried, so the graph may pass the cap by what
    /// they build.
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
    /// Classes no union includes: each stands for its own chains and
    /// everything its unions include.
    pub classes: usize,
    /// Distinct rule events recorded (per stage-id window).
    pub rule_applications: usize,
    /// Justified unions recorded.
    pub unions: usize,
    /// `true` when the node budget stopped expansion early.
    pub budget_exhausted: bool,
    /// Justification edges (unions) extraction walked to choose the plan.
    pub replay_states: usize,
    /// The extracted plan's cost under the [`Strategy`], its stages' costs
    /// summed tail-first as extraction sums them: the returned program's.
    pub extracted_cost: f64,
}

/// A finished saturation: the result, its counters and its record.
#[derive(Debug, Clone)]
pub struct SaturationOutcome {
    /// Extracted program, its steps, normalizations and rejections.
    pub result: OptimizeResult,
    /// Effort counters.
    pub stats: SaturationStats,
    /// What saturation recorded about the plan.
    pub derivation: Derivation,
}

/// Saturate `prog` under `cfg` and extract the optimum of its
/// [`Strategy`] together with a certificate-carrying derivation. Every
/// optimizer entry point ([`Rewriter`](crate::rewrite::Rewriter)'s
/// `optimize` and `saturate`) is this call.
pub fn saturate_program(prog: &Program, cfg: &SaturateConfig) -> SaturationOutcome {
    let (start, normalizations) = enabling::normalize(prog);
    let mut eg = EGraph::new(cfg, start.len());
    let input: Vec<usize> = prog.stages().iter().map(|s| eg.intern_stage(s)).collect();
    let (mut start_ids, mut origins) = (
        input.clone(),
        (0..input.len()).map(|i| (i, i + 1)).collect(),
    );
    eg.mirror(&normalizations, &mut start_ids, &mut origins);
    // The normalized input as a cons chain: nodes `1..=len`, tail first.
    let root = start_ids
        .iter()
        .rev()
        .fold(0, |node, &id| eg.add_node(id, node));
    eg.run();
    let (extracted, fires) = eg.extract(root);
    let (outcome, reached) =
        eg.read_off((start, start_ids, origins), input, normalizations, &fires);
    debug_assert!(
        reached == extracted,
        "the plan read off reaches {reached:?}, extraction chose {extracted:?}"
    );
    outcome
}

/// A stage id: an index into the interned stages of a [`Derivation`].
pub type StageId = usize;

/// A rule firing, recorded once per stage-id window.
#[derive(Debug, Clone)]
pub struct RuleEvent {
    /// The rule that fired.
    pub rule: Rule,
    /// The stages replacing the window.
    pub replacement: Vec<StageId>,
    /// The precondition certificate of the firing.
    pub certificate: Certificate,
    /// The rule only preserves rank 0's value.
    pub rank0_only: bool,
}

/// One step of the returned plan, as recorded.
#[derive(Debug, Clone)]
pub struct PlanStep {
    /// The rule event applied (an index of [`Derivation::events`]).
    pub event: usize,
    /// Position of the window in the chain before the step.
    pub at: usize,
    /// The input stages the window descends from, a half-open range.
    pub origin: (usize, usize),
}

/// The record a saturation keeps about its plan, which the linter reads
/// its findings off rather than deriving the plan again.
#[derive(Debug, Clone)]
pub struct Derivation {
    /// The interned stages, by [`StageId`].
    pub stages: Vec<Stage>,
    stage_costs: Vec<f64>,
    /// The rule events, by index.
    pub events: Vec<RuleEvent>,
    event_ids: IdMap<WindowKey, usize>,
    /// The un-normalized input's stage ids.
    pub input: Vec<StageId>,
    /// The plan's steps, in order.
    pub steps: Vec<PlanStep>,
    /// Chain `k` (0: the normalized input; `k`: after step `k`) is
    /// `chains[bounds[k]..bounds[k + 1]]`.
    chains: Vec<StageId>,
    bounds: Vec<usize>,
}

impl Derivation {
    /// The chain after `k` steps (`0`: the normalized input).
    pub fn chain(&self, k: usize) -> &[StageId] {
        &self.chains[self.bounds[k]..self.bounds[k + 1]]
    }

    /// The stages' costs summed in `program_cost`'s order, so the total is
    /// the program's to the bit (0 a stage under [`Strategy::Exhaustive`]).
    pub fn cost(&self, ids: impl IntoIterator<Item = StageId>) -> f64 {
        ids.into_iter().map(|id| self.stage_costs[id]).sum()
    }

    /// The event recorded for `rule` on this window of stages: `None` when
    /// the rule does not match there, its law gate or rank-0 switch
    /// excludes it, or certification refused it.
    pub fn event_for(&self, rule: Rule, window: &[StageId]) -> Option<&RuleEvent> {
        let event = self.event_ids.get(&window_key(rule_tag(rule), window))?;
        Some(&self.events[*event])
    }

    /// A chain of stage ids spelled as its [`Program`] would be.
    pub fn display<'a>(&'a self, ids: &'a [StageId]) -> impl std::fmt::Display + 'a {
        Spelled(&self.stages, ids)
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

/// `cons(stage, tail)`; `stage == NIL` marks the nil node (id 0). A node
/// heads its own class.
struct Node {
    stage: usize,
    tail: usize,
    /// This class's justified unions, newest first: a `NIL`-terminated
    /// list through `EGraph::unions`.
    unions: usize,
    /// Some union includes this class.
    included: bool,
}

/// `into`'s chains derive from the chains through the path's `len` nodes,
/// whose head is the class holding this union: the rule event `event`
/// fired on the path's window, or (`event == NIL`) a normalization
/// rewrote it.
struct Union {
    into: usize,
    path: [usize; 3],
    len: usize,
    event: usize,
    next: usize,
}

/// Per-chain extraction value; ordered lexicographically.
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
    nodes: Vec<Node>,
    /// Hash-cons: `(stage, tail) → node`.
    node_ids: IdMap<(usize, usize), usize>,
    unions: Vec<Union>,
    /// Node paths already attempted, one entry a path (see `try_windows`).
    attempted: IdSet<WindowKey>,
    /// Stage-id windows whose certification failed, per rule tag — dedupes
    /// audited rejections at the source (a certified window is an event).
    refused: IdSet<WindowKey>,
    events: Vec<RuleEvent>,
    event_ids: IdMap<WindowKey, usize>,
    /// The input's length: its nodes are `1..=input`, node `k` at depth
    /// `input - k` (for rejection reporting).
    input: usize,
    rejections: Vec<RuleRejection>,
    /// Path members while matching (a reused buffer).
    members: Vec<usize>,
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
            unions: Vec::new(),
            attempted: IdSet::with_capacity_and_hasher(paths, Default::default()),
            refused: IdSet::default(),
            events: Vec::new(),
            event_ids: IdMap::default(),
            input: len,
            rejections: Vec::new(),
            members: Vec::new(),
            stats: SaturationStats::default(),
        };
        eg.add_node(NIL, 0);
        eg
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

    /// Hash-consed node creation.
    fn add_node(&mut self, stage: usize, tail: usize) -> usize {
        let next = self.nodes.len();
        let node = *self.node_ids.entry((stage, tail)).or_insert(next);
        if node == next {
            self.nodes.push(Node {
                stage,
                tail,
                unions: NIL,
                included: false,
            });
        }
        node
    }

    /// Apply logged normalizations to a chain's stage ids and to the input
    /// stages each descends from (`origins[i]`, a half-open range).
    fn mirror(
        &mut self,
        log: &[Normalization],
        ids: &mut Vec<usize>,
        origins: &mut Vec<(usize, usize)>,
    ) {
        for n in log {
            match *n {
                Normalization::MapFuse { at, .. } => {
                    ids[at] = self.fuse_maps(ids[at], ids[at + 1]);
                    ids.remove(at + 1);
                    let ((a, b), (c, d)) = (origins[at], origins.remove(at + 1));
                    origins[at] = (a.min(c), b.max(d));
                }
                Normalization::GatherScatterElim { at } => {
                    ids.drain(at..at + 2);
                    origins.drain(at..at + 2);
                }
                Normalization::BcastMapCommute { at, .. } => {
                    ids.swap(at, at + 1);
                    origins.swap(at, at + 1);
                }
            }
        }
    }

    /// Append `class` and every class it includes, transitively.
    fn members_of(&self, class: usize, out: &mut Vec<usize>) {
        out.push(class);
        let mut u = self.nodes[class].unions;
        while u != NIL {
            self.members_of(self.unions[u].into, out);
            u = self.unions[u].next;
        }
    }

    /// Record that `into`'s chains derive from the chains through `path`.
    fn unite(&mut self, path: &[usize], into: usize, event: usize) {
        let head = path[0];
        debug_assert_ne!(head, into, "a union strictly lowers the chain");
        let mut nodes = [NIL; 3];
        nodes[..path.len()].copy_from_slice(path);
        self.unions.push(Union {
            into,
            path: nodes,
            len: path.len(),
            event,
            next: self.nodes[head].unions,
        });
        self.nodes[head].unions = self.unions.len() - 1;
        self.nodes[into].included = true;
    }

    /// Saturate: match every node's windows, in rounds, until a round adds
    /// no union (no class gained a member, so no path is new) or the node
    /// budget stops it. The input's nodes are matched first, whatever the
    /// budget, so every window of the input has its verdict recorded.
    fn run(&mut self) {
        (1..=self.input).for_each(|node| self.match_node(node));
        'rounds: loop {
            let unions = self.unions.len();
            let mut node = 0;
            while node < self.nodes.len() {
                if self.nodes.len() >= self.cfg.node_budget {
                    self.stats.budget_exhausted = true;
                    break 'rounds;
                }
                self.match_node(node);
                node += 1;
            }
            if self.unions.len() == unions {
                break;
            }
        }
        self.stats.nodes = self.nodes.len();
        self.stats.classes = self.nodes.iter().filter(|n| !n.included).count();
        self.stats.unions = self.unions.len();
        self.stats.rule_applications = self.events.len();
    }

    /// Try every window (length 2 and 3) headed at `n0`, over the members
    /// its tail classes have now (the next round sees later unions).
    fn match_node(&mut self, n0: usize) {
        if self.nodes[n0].stage == NIL {
            return;
        }
        let mut members = std::mem::take(&mut self.members);
        members.clear();
        self.members_of(self.nodes[n0].tail, &mut members);
        for i in 0..members.len() {
            let n1 = members[i];
            if self.nodes[n1].stage == NIL {
                continue;
            }
            self.try_windows(&[n0, n1]);
            let seconds = members.len();
            self.members_of(self.nodes[n1].tail, &mut members);
            for &n2 in &members[seconds..] {
                if self.nodes[n2].stage != NIL {
                    self.try_windows(&[n0, n1, n2]);
                }
            }
            members.truncate(seconds);
        }
        self.members = members;
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
            let replacement = std::mem::take(&mut self.events[event].replacement);
            self.apply(path, &replacement, event);
            self.events[event].replacement = replacement;
            return;
        }
        if self.refused.contains(&key) {
            return;
        }
        let at = self.input.saturating_sub(path[0]);
        let samples = self.cfg.verify_samples.as_deref();
        let Some(certificate) = certify(rule, &hit, samples, at, &mut self.rejections) else {
            self.refused.insert(key);
            return;
        };
        let replacement: Vec<usize> = hit.rhs().iter().map(|s| self.intern_stage(s)).collect();
        let event = self.events.len();
        self.event_ids.insert(key, event);
        self.apply(path, &replacement, event);
        self.events.push(RuleEvent {
            rule,
            replacement,
            certificate,
            rank0_only,
        });
    }

    /// Splice a rewrite into the graph: build the replacement chain over
    /// the residual tail of the matched path and unite it into the head.
    fn apply(&mut self, path: &[usize], replacement: &[usize], event: usize) {
        let last = *path.last().expect("non-empty window");
        let mut node = self.nodes[last].tail;
        for &sid in replacement.iter().rev() {
            node = self.add_node(sid, node);
        }
        self.unite(path, node, event);
    }

    /// The enabling normalizations as 2-window rewrites, mirroring
    /// `rules::enabling::step` exactly (left-moving suffices: windows are
    /// all-collective, so a map never sits inside one).
    fn try_norm(&mut self, path: &[usize], ids: &[usize]) {
        match (&self.stages[ids[0]], &self.stages[ids[1]]) {
            (Stage::Map { .. }, Stage::Map { .. }) => {
                let fused = self.fuse_maps(ids[0], ids[1]);
                self.apply(path, &[fused], NIL);
            }
            (Stage::Gather, Stage::Scatter) => self.apply(path, &[], NIL),
            (Stage::Bcast, Stage::Map { .. }) => self.apply(path, &[ids[1], ids[0]], NIL),
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

    /// The extraction value of a chain, accumulated tail-first exactly as
    /// extraction does.
    fn value(&self, ids: &[usize]) -> Extract {
        ids.iter()
            .rev()
            .fold(EMPTY, |tail, &stage| self.cons(stage, tail))
    }

    /// The root's best value and the rule events of its derivation, in
    /// order.
    fn extract(&mut self, root: usize) -> (Extract, Vec<Fire>) {
        let mut ex = Extraction {
            eg: self,
            memo: IdMap::default(),
            walked: 0,
            seqs: (Vec::new(), Vec::new()),
        };
        let goal = Goal::Heads(ANY);
        let best = ex.solve(root, goal).expect("the input is normalized");
        let mut fires = Vec::new();
        ex.emit(root, goal, best.choice, 0, &mut fires);
        self.stats.replay_states = ex.walked;
        self.stats.extracted_cost = best.value.cost;
        (best.value, fires)
    }

    /// Apply the plan's events to the normalized input, each followed by
    /// normalization, building its steps and the derivation record; also
    /// returns the value the plan reaches.
    fn read_off(
        mut self,
        (start, mut ids, mut origins): (Program, Vec<usize>, Vec<(usize, usize)>),
        input: Vec<usize>,
        mut normalizations: Vec<Normalization>,
        fires: &[Fire],
    ) -> (SaturationOutcome, Extract) {
        let mut stages = start.into_stages();
        let mut chains = ids.clone();
        let mut bounds = vec![0, ids.len()];
        let mut steps = Vec::with_capacity(fires.len());
        let mut plan = Vec::with_capacity(fires.len());
        for &(at, _, index) in fires {
            let event = &self.events[index];
            let window = at..at + rules::window_len(event.rule);
            let before = self.chain_cost(&ids);
            let mut description = format!("{}  →[{}]→  ", Spelled(&self.stages, &ids), event.rule);
            let replacement = event.replacement.iter();
            stages.splice(
                window.clone(),
                replacement.clone().map(|&i| self.stages[i].clone()),
            );
            ids.splice(window.clone(), replacement.copied());
            let origin = origins[window.clone()]
                .iter()
                .fold((usize::MAX, 0), |(s, e), &(a, b)| (s.min(a), e.max(b)));
            origins.splice(window, std::iter::repeat_n(origin, event.replacement.len()));
            let from = normalizations.len();
            enabling::normalize_in_place(&mut stages, &mut normalizations);
            self.mirror(&normalizations[from..], &mut ids, &mut origins);
            let _ = write!(description, "{}", Spelled(&self.stages, &ids));
            let event = &self.events[index];
            steps.push(RewriteStep {
                rule: event.rule,
                at,
                saving: match self.cfg.strategy {
                    Strategy::Exhaustive => None,
                    Strategy::CostGuided { .. } => Some(before - self.chain_cost(&ids)),
                },
                description,
                certificate: event.certificate.clone(),
                rank0_only: event.rank0_only,
            });
            plan.push(PlanStep {
                event: index,
                at,
                origin,
            });
            chains.extend_from_slice(&ids);
            bounds.push(chains.len());
        }
        let reached = self.value(&ids);
        let outcome = SaturationOutcome {
            result: OptimizeResult {
                program: Program::from_stages(stages),
                steps,
                normalizations,
                rejections: dedupe_rejections(self.rejections),
            },
            stats: self.stats,
            derivation: Derivation {
                stages: self.stages,
                stage_costs: self.stage_costs,
                events: self.events,
                event_ids: self.event_ids,
                input,
                chains,
                bounds,
                steps: plan,
            },
        };
        (outcome, reached)
    }

    /// A chain's cost, summed in `program_cost`'s order.
    fn chain_cost(&self, ids: &[usize]) -> f64 {
        ids.iter().map(|&id| self.stage_costs[id]).sum()
    }
}

/// Stage ids spelled as their [`Program`] would be.
struct Spelled<'a>(&'a [Stage], &'a [StageId]);

impl std::fmt::Display for Spelled<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write_chain(f, self.1.iter().map(|&id| &self.0[id]))
    }
}

/// Head-kind bits: what may follow a stage in a normalized chain depends
/// only on whether the next stage is a map, a scatter, or anything else.
const MAP: u8 = 1;
const SCATTER: u8 = 2;
const OTHER: u8 = 4;
const ANY: u8 = MAP | SCATTER | OTHER;

/// A stage's head kind, and the head kinds that may follow it in a
/// normalized chain: no map after a map or a bcast, no scatter after a
/// gather.
fn kinds(stage: &Stage) -> (u8, u8) {
    match stage {
        Stage::Map { .. } => (MAP, SCATTER | OTHER),
        Stage::Bcast => (OTHER, SCATTER | OTHER),
        Stage::Scatter => (SCATTER, ANY),
        Stage::Gather => (OTHER, MAP | OTHER),
        _ => (OTHER, ANY),
    }
}

/// What a class's chain is turned into: the best normalized chain whose
/// head kind is among the bits, or a chain headed by the given node (a
/// union's setup).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Goal {
    Heads(u8),
    Node(usize),
}

/// How a class meets a goal: it already does (the goal's node, or the
/// empty chain), it keeps its head stage over its tail's best, or it takes
/// a union.
#[derive(Clone, Copy)]
enum Choice {
    Here,
    Keep,
    Take(usize),
}

/// A class's best way to a goal: the chain's value (`EMPTY` for a node
/// goal), the rule events deriving it, and the first choice.
#[derive(Clone, Copy)]
struct Best {
    value: Extract,
    events: u32,
    choice: Choice,
}

/// A goal met as it stands.
const HERE: Best = Best {
    value: EMPTY,
    events: 0,
    choice: Choice::Here,
};

/// A rule event of a derivation: `(position, RULE_PRIORITY index, event)`,
/// so sequences compare by position, then priority.
type Fire = (usize, u32, usize);

/// The extraction recurrence over a saturated graph, memoized per class
/// and goal. The unions are acyclic, so the recursion terminates.
struct Extraction<'g, 'c> {
    eg: &'g EGraph<'c>,
    memo: IdMap<(usize, Goal), Option<Best>>,
    /// Unions walked (`SaturationStats::replay_states`).
    walked: usize,
    /// Reused buffers for comparing two derivations' event sequences.
    seqs: (Vec<Fire>, Vec<Fire>),
}

impl Extraction<'_, '_> {
    /// `class`'s best way to `goal`; `None` when nothing it derives meets it.
    fn solve(&mut self, class: usize, goal: Goal) -> Option<Best> {
        if let Some(&known) = self.memo.get(&(class, goal)) {
            return known;
        }
        let found = self.choose(class, goal);
        self.memo.insert((class, goal), found);
        found
    }

    /// [`Self::solve`] unmemoized: keep the head (or be the goal already),
    /// or take the best of the class's unions.
    fn choose(&mut self, class: usize, goal: Goal) -> Option<Best> {
        let (eg, node) = (self.eg, &self.eg.nodes[class]);
        let mut found = match goal {
            Goal::Node(head) if head == class => return Some(HERE),
            Goal::Heads(_) if class == 0 => return Some(HERE),
            Goal::Node(_) => None,
            Goal::Heads(allowed) => {
                let (head, follow) = kinds(&eg.stages[node.stage]);
                let tail = (allowed & head != 0)
                    .then(|| self.solve(node.tail, Goal::Heads(follow)))
                    .flatten();
                tail.map(|tail| Best {
                    value: eg.cons(node.stage, tail.value),
                    events: tail.events,
                    choice: Choice::Keep,
                })
            }
        };
        let mut u = node.unions;
        while u != NIL {
            self.walked += 1;
            let union = &eg.unions[u];
            if let Some(rest) = self.solve(union.into, goal) {
                let lead = self.setup(u) + u32::from(union.event != NIL);
                let candidate = Best {
                    value: rest.value,
                    events: lead + rest.events,
                    choice: Choice::Take(u),
                };
                if found.is_none_or(|current| self.improves(class, goal, &candidate, &current)) {
                    found = Some(candidate);
                }
            }
            u = union.next;
        }
        found
    }

    /// The fewest events before union `u` can fire: those making its path
    /// the chain's first nodes, each a goal of the one before's tail.
    fn setup(&mut self, u: usize) -> u32 {
        let (eg, union) = (self.eg, &self.eg.unions[u]);
        let path = &union.path[..union.len];
        let reach = |(prev, &next): (&usize, &usize)| {
            let head = self.solve(eg.nodes[*prev].tail, Goal::Node(next));
            head.expect("a path's node").events
        };
        path.iter().zip(&path[1..]).map(reach).sum()
    }

    /// Does `candidate` beat `current` as `class`'s way to `goal`: a better
    /// value, then fewer events, then the lexicographically least sequence
    /// of events?
    fn improves(&mut self, class: usize, goal: Goal, candidate: &Best, current: &Best) -> bool {
        if candidate.value.beats(&current.value) || current.value.beats(&candidate.value) {
            return candidate.value.beats(&current.value);
        }
        if candidate.events != current.events {
            return candidate.events < current.events;
        }
        let (mut a, mut b) = std::mem::take(&mut self.seqs);
        a.clear();
        b.clear();
        self.emit(class, goal, candidate.choice, 0, &mut a);
        self.emit(class, goal, current.choice, 0, &mut b);
        let less = a < b;
        self.seqs = (a, b);
        less
    }

    /// Write the rule events of `class`'s way to `goal` through `choice`,
    /// in order, with the class's head at position `at`.
    fn emit(&self, class: usize, goal: Goal, choice: Choice, at: usize, out: &mut Vec<Fire>) {
        let (next, goal, at) = match choice {
            Choice::Here => return,
            Choice::Keep => {
                let node = &self.eg.nodes[class];
                let follow = kinds(&self.eg.stages[node.stage]).1;
                (node.tail, Goal::Heads(follow), at + 1)
            }
            Choice::Take(u) => {
                let (eg, union) = (self.eg, &self.eg.unions[u]);
                let path = &union.path[..union.len];
                for (i, (prev, &next)) in path.iter().zip(&path[1..]).enumerate() {
                    self.emit_chosen(eg.nodes[*prev].tail, Goal::Node(next), at + 1 + i, out);
                }
                if let Some(event) = eg.events.get(union.event) {
                    out.push((at, rule_tag(event.rule), union.event));
                }
                (union.into, goal, at)
            }
        };
        self.emit_chosen(next, goal, at, out);
    }

    /// [`Self::emit`] through the choice `solve` made.
    fn emit_chosen(&self, class: usize, goal: Goal, at: usize, out: &mut Vec<Fire>) {
        let best = self.memo[&(class, goal)].expect("solved");
        self.emit(class, goal, best.choice, at, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::lib;
    use crate::rewrite::program_cost;
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
    fn equal_plans_are_read_off_in_position_order() {
        // Fusing either pair of three scans costs the same: the plan fuses
        // the earlier window, as a breadth-first search would reach first,
        // and the record holds the chain before and after the step.
        let params = MachineParams::new(64, 200.0, 2.0);
        let prog = Program::new()
            .scan(lib::add())
            .scan(lib::add())
            .scan(lib::add());
        let out = saturate_program(&prog, &SaturateConfig::new(params, 32.0));
        let steps: Vec<_> = out.result.steps.iter().map(|s| (s.rule, s.at)).collect();
        assert_eq!(steps, [(Rule::SsScan, 0)]);
        let d = &out.derivation;
        assert_eq!(d.chain(0), d.input);
        assert_eq!(
            format!("{}", d.display(d.chain(1))),
            out.result.program.to_string()
        );
        assert_eq!(d.steps[0].at, 0);
        let event = &d.events[d.steps[0].event];
        assert_eq!(event.rule, Rule::SsScan);
        assert!(d.event_for(Rule::SsScan, &d.input[1..]).is_some());
        assert_eq!(
            out.stats.extracted_cost,
            eval_cost(&out.result.program, &params, 32.0)
        );
    }

    #[test]
    fn the_inputs_windows_are_tried_under_any_budget() {
        let params = MachineParams::new(64, 200.0, 2.0);
        let prog = Program::new().scan(lib::add()).scan(lib::add());
        let cfg = SaturateConfig::new(params, 32.0).node_budget(2);
        let out = saturate_program(&prog, &cfg);
        assert_eq!(out.result.steps.len(), 1);
        assert!(out
            .derivation
            .event_for(Rule::SsScan, &out.derivation.input)
            .is_some());
    }

    /// A program's cost summed tail-first, as extraction sums it.
    fn eval_cost(prog: &Program, params: &MachineParams, m: f64) -> f64 {
        prog.stages()
            .iter()
            .rev()
            .fold(0.0, |acc, s| acc + stage_cost(s, params, m))
    }

    #[test]
    fn empty_program_is_a_fixpoint() {
        let params = MachineParams::new(4, 10.0, 1.0);
        let out = saturate_program(&Program::new(), &SaturateConfig::new(params, 1.0));
        assert!(out.result.program.is_empty());
        assert!(out.result.steps.is_empty());
    }
}
