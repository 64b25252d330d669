//! Plan DAGs over the Table-1 algebra dialect.

use std::fmt;

use xqy_xdm::{Axis, NodeTest};

/// Index of a node inside a [`Plan`]'s arena.
pub type PlanNodeId = usize;

/// The relational algebra operators of Table 1 that a compiled recursion
/// body holds — exactly the ones the compiler emits.
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
    /// The empty relation: the empty sequence `()`.
    Empty,
    /// Scan of a document registered under a URI; produces the document's
    /// root node.
    DocRoot(String),
    /// σ — the selection of a `[@name = 'value']` predicate: keep the
    /// nodes with an attribute `name` whose string value is `value`.
    AttrEquals {
        /// The attribute's name (its prefix, if any, is not significant).
        name: String,
        /// Literal the attribute's string value is compared against.
        value: String,
    },
    /// ∪ — union.
    Union,
    /// \ — difference.
    Difference,
    /// count — the aggregate a condition is tested through (the executor
    /// asks it only whether its input is empty); blocks union push-up.
    Count,
    /// XPath step join `α::n` along an axis with a node test.
    Step {
        /// The axis.
        axis: Axis,
        /// The node test.
        test: NodeTest,
    },
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
}

impl Operator {
    /// The "Push?" column of Table 1: may a `∪` directly below this operator
    /// be pushed up through it?
    pub fn union_pushable(&self) -> bool {
        match self {
            // ⊙ / ⊗ rows of Table 1.
            Operator::AttrEquals { .. }
            | Operator::Union
            | Operator::Step { .. }
            | Operator::IdLookup
            | Operator::IfThenElse => true,
            // "−" rows: these need their complete input to produce output.
            Operator::Difference | Operator::Count => false,
            // Leaves never sit above a ∪.
            Operator::RecInput | Operator::Empty | Operator::DocRoot(_) => false,
        }
    }

    /// Short operator name for plan rendering.
    pub fn name(&self) -> String {
        match self {
            Operator::RecInput => "rec-input".into(),
            Operator::Empty => "()".into(),
            Operator::DocRoot(uri) => format!("doc({uri})"),
            Operator::AttrEquals { name, value } => format!("σ[@{name}='{value}']"),
            Operator::Union => "∪".into(),
            Operator::Difference => "\\".into(),
            Operator::Count => "count".into(),
            Operator::Step { axis, test } => format!("{}::{}", axis.name(), test),
            Operator::IdLookup => "id()".into(),
            Operator::IfThenElse => "if".into(),
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

    /// The **seed-carried form** of a recursion-body plan, the input of the
    /// batched multi-source fixpoint driver
    /// ([`Executor::run_fixpoint_batched`](crate::Executor::run_fixpoint_batched)):
    /// the same plan, run over a recursion input whose rows carry the dense
    /// index of their seed (the relation's `iter` column), which every
    /// rec-dependent operator keeps beside the rows it produces.
    ///
    /// Returns `None` when the plan is not *seed-local* — when some
    /// rec-dependent operator could mix rows of different seeds: a `count`,
    /// a conditional on a rec-dependent condition, or a set operation
    /// between a rec-dependent and a rec-independent arm.  For a seed-local
    /// plan, running the body over the union of per-seed rows and
    /// regrouping by `iter` is exactly the per-seed evaluation — the
    /// structural fact the batched ≡ per-seed property test exercises.
    pub fn seed_carried(&self) -> Option<Plan> {
        let root = self.root?;
        let dependent = self.rec_dependent();
        // A rec-independent root means the body ignores its input: every
        // seed would compute the same constant set, and the output would
        // carry no `iter` column to group by.  Not worth batching.
        if !dependent[root] {
            return None;
        }
        for (id, node) in self.iter() {
            if !dependent[id] {
                continue;
            }
            let seed_local = match &node.op {
                // Per-row operators: an output row derives from exactly one
                // input row, so its `iter` stays attached to it.
                Operator::RecInput
                | Operator::AttrEquals { .. }
                | Operator::Step { .. }
                | Operator::IdLookup => true,
                // ∪ / ∖ over `(iter, item)` rows are the per-seed set
                // operations — but only when both arms carry `iter` (a
                // rec-independent arm has no seed to group by).
                Operator::Union | Operator::Difference => node.inputs.iter().all(|&i| dependent[i]),
                // The branch taken must not depend on the recursion input
                // (a rec-dependent condition aggregates over all seeds at
                // once), and both branches must carry `iter`.
                Operator::IfThenElse => {
                    !dependent[node.inputs[0]]
                        && dependent[node.inputs[1]]
                        && dependent[node.inputs[2]]
                }
                // A count looks at the whole input relation — rows of every
                // seed at once.
                Operator::Count => false,
                // Leaves other than `RecInput` are never rec-dependent.
                Operator::Empty | Operator::DocRoot(_) => false,
            };
            if !seed_local {
                return None;
            }
        }
        Some(self.clone())
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
        assert!(Operator::AttrEquals {
            name: "code".into(),
            value: "x".into()
        }
        .union_pushable());
        assert!(Operator::Union.union_pushable());
        assert!(Operator::Step {
            axis: Axis::Child,
            test: NodeTest::AnyElement
        }
        .union_pushable());
        assert!(Operator::IdLookup.union_pushable());
        assert!(Operator::IfThenElse.union_pushable());

        assert!(!Operator::Difference.union_pushable());
        assert!(!Operator::Count.union_pushable());
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
        let union = plan.add(Operator::Union, vec![step, doc]);
        plan.set_root(union);

        let dependents = plan.dependents_of(&[rec]);
        assert_eq!(dependents, vec![step, union]);
        // The doc scan is independent of the recursion input.
        assert!(!dependents.contains(&doc));
        assert_eq!(plan.rec_inputs(), vec![rec]);
        assert!(plan.render().contains("∪"));
    }

    #[test]
    fn seed_carried_keeps_seed_local_plans_and_rejects_mixers() {
        // A step chain under a `[@code = 'c1']` selection: batchable, and
        // the seed-carried form is the plan itself.
        let mut plan = Plan::new();
        let rec = plan.add(Operator::RecInput, vec![]);
        let step = plan.add(
            Operator::Step {
                axis: Axis::Child,
                test: NodeTest::AnyElement,
            },
            vec![rec],
        );
        let select = plan.add(
            Operator::AttrEquals {
                name: "code".into(),
                value: "c1".into(),
            },
            vec![step],
        );
        plan.set_root(select);
        assert_eq!(plan.seed_carried(), Some(plan.clone()));

        // A rec-dependent aggregation mixes rows across seeds.
        let mut counted = Plan::new();
        let rec = counted.add(Operator::RecInput, vec![]);
        let count = counted.add(Operator::Count, vec![rec]);
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
        let empty = mixed.add(Operator::Empty, vec![]);
        let union = mixed.add(Operator::Union, vec![step, empty]);
        mixed.set_root(union);
        assert!(mixed.seed_carried().is_none());

        // A rec-independent root ignores its seeds entirely.
        let mut constant = Plan::new();
        let _rec = constant.add(Operator::RecInput, vec![]);
        let doc = constant.add(Operator::DocRoot("d.xml".into()), vec![]);
        constant.set_root(doc);
        assert!(constant.seed_carried().is_none());
    }

    #[test]
    fn render_shows_operator_tree() {
        let mut plan = Plan::new();
        let rec = plan.add(Operator::RecInput, vec![]);
        let count = plan.add(Operator::Count, vec![rec]);
        plan.set_root(count);
        let rendered = plan.render();
        assert!(rendered.starts_with("count"));
        assert!(rendered.contains("rec-input"));
    }
}
