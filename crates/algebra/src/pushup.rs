//! The algebraic distributivity check: pushing `∪` up through the plan.
//!
//! Section 4.1 of the paper: place a `∪` at the recursion body plan's input
//! (the `RecInput` leaf), then repeatedly push it up through its parent
//! operators.  If every copy of the `∪` reaches the plan root, the body is
//! distributive and the Delta-based fixpoint operator `µ∆` may replace `µ`;
//! if the push is blocked by an operator that needs its complete input, the
//! processor must stay with Naïve.  Of the "−" rows of Table 1, a compiled
//! plan can hold two: difference (`except`, and `intersect` as `a \ (a \ b)`)
//! and the `count` of a condition.  The compiler refuses node constructors,
//! so no plan mints the fresh identities Section 3.2 sets apart.

use crate::plan::{Plan, PlanNodeId};

/// The outcome of the push-up analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PushupOutcome {
    /// `true` when the `∪` reached the root along every path.
    pub distributive: bool,
    /// The operators the `∪` was pushed through, in plan order.
    pub pushed_through: Vec<PlanNodeId>,
    /// The operator that blocked the push, if any.
    pub blocked_at: Option<PlanNodeId>,
    /// Human-readable name of the blocking operator.
    pub blocked_by: Option<String>,
}

impl PushupOutcome {
    /// Shorthand used by strategy selection.
    pub fn is_distributive(&self) -> bool {
        self.distributive
    }
}

/// Run the union push-up check on a recursion body plan.
///
/// A plan with no `RecInput` leaf is trivially distributive: its value does
/// not depend on the recursion variable at all, and no plan constructs
/// nodes.  Otherwise the `∪` must pass every operator that consumes the
/// recursion input; the first `\` or `count` on its way blocks it.
pub fn check_distributivity(plan: &Plan) -> PushupOutcome {
    let sources = plan.rec_inputs();
    if sources.is_empty() {
        return PushupOutcome {
            distributive: true,
            pushed_through: Vec::new(),
            blocked_at: None,
            blocked_by: None,
        };
    }
    let dependents = plan.dependents_of(&sources);
    let mut pushed = Vec::new();
    for id in dependents {
        let node = plan.node(id);
        if node.op.union_pushable() {
            pushed.push(id);
        } else {
            return PushupOutcome {
                distributive: false,
                pushed_through: pushed,
                blocked_at: Some(id),
                blocked_by: Some(node.op.name()),
            };
        }
    }
    PushupOutcome {
        distributive: true,
        pushed_through: pushed,
        blocked_at: None,
        blocked_by: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Operator;
    use xqy_xdm::{Axis, NodeTest};

    /// The recursion body of Query Q1 (Figure 9(a)): steps to the
    /// prerequisite codes followed by the id() lookup join.
    fn q1_body_plan() -> Plan {
        let mut plan = Plan::new();
        let rec = plan.add(Operator::RecInput, vec![]);
        let prereq = plan.add(
            Operator::Step {
                axis: Axis::Child,
                test: NodeTest::Name("prerequisites".into()),
            },
            vec![rec],
        );
        let code = plan.add(
            Operator::Step {
                axis: Axis::Child,
                test: NodeTest::Name("pre_code".into()),
            },
            vec![prereq],
        );
        let lookup = plan.add(Operator::IdLookup, vec![code]);
        plan.set_root(lookup);
        plan
    }

    /// The recursion body of Query Q2 (Figure 9(b)), as the compiler
    /// spells `if (count($x/self::a)) then $x/* else ()`: the count
    /// aggregate of the condition blocks the push-up.
    fn q2_body_plan() -> Plan {
        let mut plan = Plan::new();
        let rec = plan.add(Operator::RecInput, vec![]);
        let self_a = plan.add(
            Operator::Step {
                axis: Axis::SelfAxis,
                test: NodeTest::Name("a".into()),
            },
            vec![rec],
        );
        let count = plan.add(Operator::Count, vec![self_a]);
        let children = plan.add(
            Operator::Step {
                axis: Axis::Child,
                test: NodeTest::AnyElement,
            },
            vec![rec],
        );
        let empty = plan.add(Operator::Empty, vec![]);
        let gate = plan.add(Operator::IfThenElse, vec![count, children, empty]);
        plan.set_root(gate);
        plan
    }

    #[test]
    fn q1_plan_is_distributive() {
        let plan = q1_body_plan();
        let outcome = check_distributivity(&plan);
        assert!(outcome.distributive);
        assert!(outcome.blocked_at.is_none());
        // The ∪ passes through the two steps and the id lookup.
        assert_eq!(outcome.pushed_through.len(), 3);
    }

    #[test]
    fn q2_plan_is_blocked_at_the_aggregate() {
        let plan = q2_body_plan();
        let outcome = check_distributivity(&plan);
        assert!(!outcome.distributive);
        assert_eq!(outcome.blocked_by.as_deref(), Some("count"));
    }

    #[test]
    fn plans_independent_of_the_recursion_variable_are_distributive() {
        let mut plan = Plan::new();
        let doc = plan.add(Operator::DocRoot("d.xml".into()), vec![]);
        let step = plan.add(
            Operator::Step {
                axis: Axis::Descendant,
                test: NodeTest::Name("person".into()),
            },
            vec![doc],
        );
        plan.set_root(step);
        let outcome = check_distributivity(&plan);
        assert!(outcome.distributive);
        assert!(outcome.pushed_through.is_empty());
    }

    #[test]
    fn difference_and_count_block_like_table_1_says() {
        for blocker in [Operator::Difference, Operator::Count] {
            let mut plan = Plan::new();
            let rec = plan.add(Operator::RecInput, vec![]);
            let other = plan.add(Operator::Empty, vec![]);
            let node = if matches!(blocker, Operator::Difference) {
                plan.add(blocker.clone(), vec![rec, other])
            } else {
                plan.add(blocker.clone(), vec![rec])
            };
            plan.set_root(node);
            let outcome = check_distributivity(&plan);
            assert!(!outcome.distributive, "{} should block", blocker.name());
        }
    }

    #[test]
    fn fixed_difference_right_operand_does_not_block() {
        // x \ R with the recursion variable only on the left is distributive
        // (the stratified-Datalog case in Section 6), and indeed the ∪ is
        // never pushed *through* the difference from its right input here —
        // but our conservative operator-level check still flags it.  This
        // test documents the conservative behaviour.
        let mut plan = Plan::new();
        let rec = plan.add(Operator::RecInput, vec![]);
        let fixed = plan.add(Operator::DocRoot("r.xml".into()), vec![]);
        let diff = plan.add(Operator::Difference, vec![rec, fixed]);
        plan.set_root(diff);
        let outcome = check_distributivity(&plan);
        assert!(!outcome.distributive);
    }
}
