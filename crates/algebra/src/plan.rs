//! Plan DAGs over the Table-1 algebra dialect.

use std::fmt;

use xqy_xdm::{Axis, NodeTest};

/// Index of a node inside a [`Plan`]'s arena.
pub type PlanNodeId = usize;

/// The reserved column name that carries the *seed of origin* through a
/// batched multi-source fixpoint (see [`Plan::seed_carried`]).
///
/// The batched executor feeds the recursion body a two-column
/// `(SEED_COLUMN, item)` relation instead of the per-seed single-column
/// `item` relation; every rec-dependent operator of a seed-carried plan
/// propagates this column alongside the rows it produces, so the output of
/// each iteration can be regrouped per seed.  The name is double-underscored
/// so it can never collide with the compiler-generated column names
/// (`item`, `node`, `count`, `res`, `tag`, `rownum`).
pub const SEED_COLUMN: &str = "__seed";

/// A comparison / arithmetic kind for the generic `⊚` operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FunKind {
    /// Equality comparison.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Greater-than.
    Gt,
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
}

/// The relational algebra operators of Table 1 in the paper.
///
/// Every variant documents whether a `∪` placed below it may be pushed up
/// through it (the "Push?" column of Table 1); see
/// [`Operator::union_pushable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operator {
    /// The recursion variable's input relation (the `$x` leaf of a recursion
    /// body plan).  This is where the `∪` of the distributivity check is
    /// initially placed.
    RecInput,
    /// A literal relation (constant table), e.g. the empty sequence `()` or
    /// a string constant.
    Literal(Vec<String>),
    /// Scan of a document registered under a URI; produces the document's
    /// root node.
    DocRoot(String),
    /// π — projection onto (and renaming of) columns.
    Project(Vec<(String, String)>),
    /// σ — selection: keep rows whose column equals the given string.
    Select {
        /// Column inspected.
        column: String,
        /// Literal the column is compared against.
        value: String,
    },
    /// ⋈ — join on equality between one column of each input.
    Join {
        /// Column of the left input.
        left: String,
        /// Column of the right input.
        right: String,
    },
    /// × — Cartesian product.
    Cross,
    /// δ — duplicate elimination.
    Distinct,
    /// ∪ — union.
    Union,
    /// \ — difference.
    Difference,
    /// count — aggregation (optionally grouped); blocks union push-up.
    Count {
        /// Optional grouping column.
        group_by: Option<String>,
    },
    /// ⊚ — generic arithmetic/comparison operator over two columns.
    Fun {
        /// Operation kind.
        kind: FunKind,
        /// Left operand column.
        left: String,
        /// Right operand column.
        right: String,
    },
    /// # — unique row tagging.
    RowTag,
    /// ϱ — ordered row numbering; blocks union push-up.
    RowNum,
    /// XPath step join `α::n` along an axis with a node test.
    Step {
        /// The axis.
        axis: Axis,
        /// The node test.
        test: NodeTest,
    },
    /// String-value access: extend node rows with their string value.
    StringValue,
    /// ID lookup join (the `id ref ⋈` micro-plan of Figure 9(a)): map a
    /// column of argument nodes to the elements of each node's document
    /// whose ID is a token of the node's string value.
    IdLookup,
    /// Conditional: inputs are (condition, then-branch, else-branch).  The
    /// condition's effective-boolean-value aggregation is represented by a
    /// `Count` wrapped around the condition plan by the compiler, so the
    /// conditional node itself lets a `∪` pass (distributing a union into
    /// both branches is sound when the condition does not change).
    IfThenElse,
    /// ε — node constructor; blocks union push-up (fresh identities).
    Construct(String),
    /// µ — the Naïve fixpoint operator: input 0 is the seed plan, input 1 the
    /// recursion body plan (whose `RecInput` leaf is fed back each round).
    Mu,
    /// µ∆ — the Delta fixpoint operator (same inputs as µ).
    MuDelta,
}

impl Operator {
    /// The "Push?" column of Table 1: may a `∪` directly below this operator
    /// be pushed up through it?
    pub fn union_pushable(&self) -> bool {
        match self {
            // ⊙ / ⊗ rows of Table 1.
            Operator::Project(_)
            | Operator::Select { .. }
            | Operator::Join { .. }
            | Operator::Cross
            | Operator::Union
            | Operator::Fun { .. }
            | Operator::RowTag
            | Operator::Step { .. }
            | Operator::StringValue
            | Operator::IdLookup
            | Operator::IfThenElse
            | Operator::Mu
            | Operator::MuDelta => true,
            // "−" rows: these need their complete input to produce output.
            Operator::Distinct
            | Operator::Difference
            | Operator::Count { .. }
            | Operator::RowNum
            | Operator::Construct(_) => false,
            // Leaves never sit above a ∪.
            Operator::RecInput | Operator::Literal(_) | Operator::DocRoot(_) => false,
        }
    }

    /// Short operator name for plan rendering.
    pub fn name(&self) -> String {
        match self {
            Operator::RecInput => "rec-input".into(),
            Operator::Literal(_) => "literal".into(),
            Operator::DocRoot(uri) => format!("doc({uri})"),
            Operator::Project(_) => "π".into(),
            Operator::Select { column, value } => format!("σ[{column}='{value}']"),
            Operator::Join { left, right } => format!("⋈[{left}={right}]"),
            Operator::Cross => "×".into(),
            Operator::Distinct => "δ".into(),
            Operator::Union => "∪".into(),
            Operator::Difference => "\\".into(),
            Operator::Count { .. } => "count".into(),
            Operator::Fun { kind, .. } => format!("⊚{kind:?}"),
            Operator::RowTag => "#".into(),
            Operator::RowNum => "ϱ".into(),
            Operator::Step { axis, test } => format!("{}::{}", axis.name(), test),
            Operator::StringValue => "string()".into(),
            Operator::IdLookup => "id()".into(),
            Operator::IfThenElse => "if".into(),
            Operator::Construct(name) => format!("ε<{name}>"),
            Operator::Mu => "µ".into(),
            Operator::MuDelta => "µ∆".into(),
        }
    }
}

/// One node of the plan DAG: an operator plus its input plan nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanNode {
    /// The operator.
    pub op: Operator,
    /// Indices of the input nodes (0, 1 or 2 of them).
    pub inputs: Vec<PlanNodeId>,
}

/// A DAG-shaped algebraic plan, stored as an arena of [`PlanNode`]s with a
/// designated root.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Plan {
    nodes: Vec<PlanNode>,
    root: Option<PlanNodeId>,
}

impl Plan {
    /// An empty plan.
    pub fn new() -> Self {
        Plan::default()
    }

    /// Add an operator with the given inputs; returns its id.
    pub fn add(&mut self, op: Operator, inputs: Vec<PlanNodeId>) -> PlanNodeId {
        let id = self.nodes.len();
        self.nodes.push(PlanNode { op, inputs });
        id
    }

    /// Designate `id` as the plan root.
    pub fn set_root(&mut self, id: PlanNodeId) {
        self.root = Some(id);
    }

    /// The root node id.
    pub fn root(&self) -> Option<PlanNodeId> {
        self.root
    }

    /// Number of operators in the plan.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the plan holds no operators.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow a node.
    pub fn node(&self, id: PlanNodeId) -> &PlanNode {
        &self.nodes[id]
    }

    /// Iterate over `(id, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PlanNodeId, &PlanNode)> {
        self.nodes.iter().enumerate()
    }

    /// All node ids whose operator is [`Operator::RecInput`].
    pub fn rec_inputs(&self) -> Vec<PlanNodeId> {
        self.iter()
            .filter(|(_, n)| matches!(n.op, Operator::RecInput))
            .map(|(id, _)| id)
            .collect()
    }

    /// The ids of every node that (transitively) consumes one of the
    /// `sources` — i.e. the operators a `∪` placed at the sources must be
    /// pushed through.
    pub fn dependents_of(&self, sources: &[PlanNodeId]) -> Vec<PlanNodeId> {
        let mut tainted = vec![false; self.nodes.len()];
        for &s in sources {
            tainted[s] = true;
        }
        // Nodes are appended in construction order, so inputs always have
        // smaller ids than their consumers; a single forward pass suffices.
        let mut out = Vec::new();
        for (id, node) in self.iter() {
            if tainted[id] {
                continue;
            }
            if node.inputs.iter().any(|&i| tainted[i]) {
                tainted[id] = true;
                out.push(id);
            }
        }
        out
    }

    /// `[id]` — does node `id` (transitively) consume a `RecInput`?  Inputs
    /// precede their consumers in the arena, so one forward pass
    /// classifies every node.
    pub fn rec_dependent(&self) -> Vec<bool> {
        let mut dependent = vec![false; self.nodes.len()];
        for (id, node) in self.iter() {
            dependent[id] =
                matches!(node.op, Operator::RecInput) || node.inputs.iter().any(|&i| dependent[i]);
        }
        dependent
    }

    /// The **seed-column-aware µ/µ∆ form** of a recursion-body plan, used by
    /// the batched multi-source fixpoint driver
    /// ([`Executor::run_fixpoint_batched`](crate::Executor::run_fixpoint_batched)):
    /// the recursion input becomes a two-column `(`[`SEED_COLUMN`]`, item)`
    /// relation and every rec-dependent projection is rewritten to carry the
    /// seed column through, so each output row still names the seed it
    /// originated from.
    ///
    /// Returns `None` when the plan is not *seed-local* — when some
    /// rec-dependent operator could mix rows of different seeds (an
    /// aggregation, a row numbering, a conditional on a rec-dependent
    /// condition, a join of two rec-dependent arms, a set operation between
    /// a rec-dependent and a rec-independent arm) or when the plan
    /// constructs nodes (batching would merge the per-seed fresh
    /// identities).  For a seed-local plan, running the body over the union
    /// of per-seed rows and regrouping by the seed column is exactly the
    /// per-seed evaluation — the structural fact the batched ≡ per-seed
    /// property test exercises.
    pub fn seed_carried(&self) -> Option<Plan> {
        let root = self.root?;
        let dependent = self.rec_dependent();
        // A rec-independent root means the body ignores its input: every
        // seed would compute the same constant set, and the output would
        // carry no seed column to group by.  Not worth batching.
        if !dependent[root] {
            return None;
        }
        for (id, node) in self.iter() {
            // Constructors create fresh node identities per *run*; one
            // batched run must not merge the distinct identities N per-seed
            // runs would create.  Nested fixpoints re-drive their own runs
            // and drop every column but `item`.  Both disqualify the plan
            // wherever they appear.
            if matches!(
                node.op,
                Operator::Construct(_) | Operator::Mu | Operator::MuDelta
            ) {
                return None;
            }
            if !dependent[id] {
                continue;
            }
            let seed_local = match &node.op {
                // Per-row operators (and set operators over full rows):
                // an output row derives from exactly one input row, so the
                // carried seed column stays attached to it.
                Operator::RecInput
                | Operator::Project(_)
                | Operator::Select { .. }
                | Operator::Distinct
                | Operator::Step { .. }
                | Operator::StringValue
                | Operator::IdLookup
                | Operator::Fun { .. } => true,
                // ∪ / ∖ over `(seed, item)` rows are the per-seed set
                // operations — but only when both arms carry the seed
                // column (a rec-independent arm has no seed to group by).
                Operator::Union | Operator::Difference => node.inputs.iter().all(|&i| dependent[i]),
                // A join against rec-independent data carries the one seed
                // column through; joining two rec-dependent arms would pair
                // rows of *different* seeds.
                Operator::Join { .. } | Operator::Cross => {
                    node.inputs.iter().filter(|&&i| dependent[i]).count() <= 1
                }
                // The branch taken must not depend on the recursion input
                // (a rec-dependent condition aggregates over all seeds at
                // once), and both branches must carry the seed column.
                Operator::IfThenElse => {
                    !dependent[node.inputs[0]]
                        && dependent[node.inputs[1]]
                        && dependent[node.inputs[2]]
                }
                // Aggregation and row numbering look at the whole input
                // relation — rows of every seed at once.
                Operator::Count { .. } | Operator::RowTag | Operator::RowNum => false,
                // Leaves are never rec-dependent; constructors and nested
                // fixpoints were rejected above.
                Operator::Literal(_)
                | Operator::DocRoot(_)
                | Operator::Construct(_)
                | Operator::Mu
                | Operator::MuDelta => false,
            };
            if !seed_local {
                return None;
            }
        }
        let mut out = self.clone();
        for (id, node) in out.nodes.iter_mut().enumerate() {
            if dependent[id] {
                if let Operator::Project(renames) = &mut node.op {
                    renames.insert(0, (SEED_COLUMN.to_string(), SEED_COLUMN.to_string()));
                }
            }
        }
        Some(out)
    }

    /// Render the plan as an indented tree rooted at the plan root (shared
    /// sub-DAGs are printed once per reference).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(root) = self.root {
            self.render_node(root, 0, &mut out);
        }
        out
    }

    fn render_node(&self, id: PlanNodeId, indent: usize, out: &mut String) {
        let node = &self.nodes[id];
        out.push_str(&" ".repeat(indent * 2));
        out.push_str(&node.op.name());
        out.push('\n');
        for &input in &node.inputs {
            self.render_node(input, indent + 1, out);
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pushability_matches_table_1() {
        assert!(Operator::Project(vec![]).union_pushable());
        assert!(Operator::Select {
            column: "item".into(),
            value: "x".into()
        }
        .union_pushable());
        assert!(Operator::Join {
            left: "a".into(),
            right: "b".into()
        }
        .union_pushable());
        assert!(Operator::Cross.union_pushable());
        assert!(Operator::Union.union_pushable());
        assert!(Operator::RowTag.union_pushable());
        assert!(Operator::Step {
            axis: Axis::Child,
            test: NodeTest::AnyElement
        }
        .union_pushable());
        assert!(Operator::Mu.union_pushable());
        assert!(Operator::MuDelta.union_pushable());

        assert!(!Operator::Distinct.union_pushable());
        assert!(!Operator::Difference.union_pushable());
        assert!(!Operator::Count { group_by: None }.union_pushable());
        assert!(!Operator::RowNum.union_pushable());
        assert!(!Operator::Construct("a".into()).union_pushable());
    }

    #[test]
    fn dependents_follow_the_dag() {
        let mut plan = Plan::new();
        let rec = plan.add(Operator::RecInput, vec![]);
        let doc = plan.add(Operator::DocRoot("d.xml".into()), vec![]);
        let step = plan.add(
            Operator::Step {
                axis: Axis::Child,
                test: NodeTest::AnyElement,
            },
            vec![rec],
        );
        let join = plan.add(
            Operator::Join {
                left: "item".into(),
                right: "item".into(),
            },
            vec![step, doc],
        );
        plan.set_root(join);

        let dependents = plan.dependents_of(&[rec]);
        assert_eq!(dependents, vec![step, join]);
        // The doc scan is independent of the recursion input.
        assert!(!dependents.contains(&doc));
        assert_eq!(plan.rec_inputs(), vec![rec]);
        assert!(plan.render().contains("⋈"));
    }

    #[test]
    fn seed_carried_rewrites_projections_and_rejects_mixers() {
        // A step chain with a predicate-style projection: batchable, and the
        // rec-dependent projections gain the seed column.
        let mut plan = Plan::new();
        let rec = plan.add(Operator::RecInput, vec![]);
        let step = plan.add(
            Operator::Step {
                axis: Axis::Child,
                test: NodeTest::AnyElement,
            },
            vec![rec],
        );
        let keep = plan.add(
            Operator::Project(vec![
                ("node".into(), "item".into()),
                ("item".into(), "item".into()),
            ]),
            vec![step],
        );
        let attr = plan.add(
            Operator::Step {
                axis: Axis::Attribute,
                test: NodeTest::Name("code".into()),
            },
            vec![keep],
        );
        let value = plan.add(Operator::StringValue, vec![attr]);
        let select = plan.add(
            Operator::Select {
                column: "item".into(),
                value: "c1".into(),
            },
            vec![value],
        );
        let back = plan.add(
            Operator::Project(vec![("item".into(), "node".into())]),
            vec![select],
        );
        plan.set_root(back);
        let carried = plan.seed_carried().expect("seed-local plan batches");
        for id in [keep, back] {
            let Operator::Project(renames) = &carried.node(id).op else {
                panic!("projection expected");
            };
            assert_eq!(
                renames[0],
                (SEED_COLUMN.to_string(), SEED_COLUMN.to_string())
            );
        }
        assert_ne!(plan, carried);

        // A rec-dependent aggregation mixes rows across seeds.
        let mut counted = Plan::new();
        let rec = counted.add(Operator::RecInput, vec![]);
        let count = counted.add(Operator::Count { group_by: None }, vec![rec]);
        counted.set_root(count);
        assert!(counted.seed_carried().is_none());

        // A union with a rec-independent arm has no seed column to carry.
        let mut mixed = Plan::new();
        let rec = mixed.add(Operator::RecInput, vec![]);
        let step = mixed.add(
            Operator::Step {
                axis: Axis::Child,
                test: NodeTest::AnyElement,
            },
            vec![rec],
        );
        let lit = mixed.add(Operator::Literal(vec!["x".into()]), vec![]);
        let union = mixed.add(Operator::Union, vec![step, lit]);
        mixed.set_root(union);
        assert!(mixed.seed_carried().is_none());

        // A rec-independent root ignores its seeds entirely.
        let mut constant = Plan::new();
        let _rec = constant.add(Operator::RecInput, vec![]);
        let doc = constant.add(Operator::DocRoot("d.xml".into()), vec![]);
        constant.set_root(doc);
        assert!(constant.seed_carried().is_none());

        // Constructors create per-run identities; batching would merge them.
        let mut constructed = Plan::new();
        let rec = constructed.add(Operator::RecInput, vec![]);
        let cons = constructed.add(Operator::Construct("a".into()), vec![rec]);
        constructed.set_root(cons);
        assert!(constructed.seed_carried().is_none());
    }

    #[test]
    fn render_shows_operator_tree() {
        let mut plan = Plan::new();
        let rec = plan.add(Operator::RecInput, vec![]);
        let count = plan.add(Operator::Count { group_by: None }, vec![rec]);
        plan.set_root(count);
        let rendered = plan.render();
        assert!(rendered.starts_with("count"));
        assert!(rendered.contains("rec-input"));
    }
}
