//! The independent oracle: a plain worklist transitive closure over store
//! accessors — no µ, no `Engine`, no query text.  Calvanese et al.
//! (*Fixpoint Node Selection Query Languages for Trees*) justify a µ-free
//! closure as an independent definition of the node sets the IFP form
//! selects.  Every timed answer is compared with it; it also picks the seed
//! nodes of the service's closure queries, so no cell measures an empty
//! network.

use std::collections::HashSet;

use crate::api::{digest_nodes, Answer, Family, Node, Store};

/// What the oracle expects of one timed operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expected {
    /// A node result: cardinality and order-insensitive digest.
    Nodes { count: usize, digest: u64 },
    /// A node result of which only the cardinality is known in advance
    /// (constructed nodes get fresh identifiers on every run).
    Count(usize),
    /// An atomic result, serialised.
    Atoms(String),
}

impl Expected {
    pub fn of_nodes(nodes: &[Node]) -> Expected {
        Expected::Nodes {
            count: nodes.len(),
            digest: digest_nodes(nodes.iter().copied()),
        }
    }

    /// The expected result of running one fixpoint per group and
    /// concatenating the results (a per-seed or batched cell).
    pub fn of_groups(groups: &[Closure]) -> Expected {
        Expected::Nodes {
            count: groups.iter().map(|g| g.nodes.len()).sum(),
            digest: digest_nodes(groups.iter().flat_map(|g| g.nodes.iter().copied())),
        }
    }

    pub fn matches(&self, answer: &Answer) -> bool {
        match self {
            Expected::Nodes { count, digest } => {
                answer.atoms.is_none() && answer.count == *count && answer.digest == *digest
            }
            Expected::Count(count) => answer.atoms.is_none() && answer.count == *count,
            Expected::Atoms(atoms) => answer.atoms.as_deref() == Some(atoms.as_str()),
        }
    }
}

/// One application of `family`'s recursion body to the single node `x`,
/// written against the store accessors.
pub fn step(store: Store<'_>, family: Family, x: Node) -> Vec<Node> {
    let resolve = |value: &str| -> Vec<Node> {
        value
            .split_whitespace()
            .filter_map(|token| store.lookup_id(x, token))
            .collect()
    };
    match family {
        // $x/id(./prerequisites/pre_code)
        Family::Curriculum => store
            .children(x, Some("prerequisites"))
            .into_iter()
            .flat_map(|p| store.children(p, Some("pre_code")))
            .flat_map(|code| resolve(&store.string_value(code)))
            .collect(),
        // $x/id(./sells/@ref)/bidder/id(./@person)
        Family::Auction => store
            .children(x, Some("sells"))
            .into_iter()
            .filter_map(|s| store.attribute(s, "ref"))
            .flat_map(resolve)
            .flat_map(|auction| store.children(auction, Some("bidder")))
            .filter_map(|b| store.attribute(b, "person"))
            .flat_map(resolve)
            .collect(),
        // $x/id(./parentref/@ref)
        Family::Hospital => store
            .children(x, Some("parentref"))
            .into_iter()
            .filter_map(|p| store.attribute(p, "ref"))
            .flat_map(resolve)
            .collect(),
        // $x/id(./@cont)
        Family::Play => store.attribute(x, "cont").map(resolve).unwrap_or_default(),
    }
}

/// A closure together with the work Figure 3 does to compute it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Closure {
    /// The result nodes, sorted by identifier.
    pub nodes: Vec<Node>,
    /// Nodes algorithm Delta feeds back: the seed, then every new node once.
    pub delta_fed: u64,
    /// Nodes algorithm Naïve feeds back: the seed, then the whole
    /// accumulator once per iteration until it stops growing.
    pub naive_fed: u64,
}

/// Worklist closure of `next` from `seed`, level by level.  Definition 2.1
/// reading: the seed nodes belong to the result only if the recursion
/// reaches them again.
pub fn closure_by(seed: &[Node], mut next: impl FnMut(Node) -> Vec<Node>) -> Closure {
    let mut seen: HashSet<Node> = HashSet::new();
    let mut level: Vec<Node> = seed.to_vec();
    let mut naive_fed = seed.len() as u64;
    loop {
        let mut fresh = Vec::new();
        for &x in &level {
            for n in next(x) {
                if seen.insert(n) {
                    fresh.push(n);
                }
            }
        }
        if fresh.is_empty() {
            break;
        }
        // The iteration that follows feeds the accumulator as it stands.
        naive_fed += seen.len() as u64;
        level = fresh;
    }
    let mut nodes: Vec<Node> = seen.into_iter().collect();
    nodes.sort();
    Closure {
        delta_fed: (seed.len() + nodes.len()) as u64,
        naive_fed,
        nodes,
    }
}

/// The closure of `family`'s body from `seed`.
pub fn closure(store: Store<'_>, family: Family, seed: &[Node]) -> Closure {
    closure_by(seed, |x| step(store, family, x))
}

/// The closure from every seed on its own: what a per-seed or batched cell
/// must return, group by group.
pub fn closures(store: Store<'_>, family: Family, seeds: &[Node]) -> Vec<Closure> {
    seeds
        .iter()
        .map(|&s| closure(store, family, &[s]))
        .collect()
}

/// All element descendants of `seed`: the closure of `$x/*`.
pub fn descendants(store: Store<'_>, seed: &[Node]) -> Vec<Node> {
    closure_by(seed, |x| store.children(x, None)).nodes
}

/// Among `candidates`, the node whose closure size sits at quantile `q` of
/// the non-empty closures (`q = 1.0` is the deepest network).
pub fn pick_by_closure_size(
    store: Store<'_>,
    family: Family,
    candidates: &[Node],
    q: f64,
) -> Option<Node> {
    let mut sized: Vec<(usize, Node)> = candidates
        .iter()
        .map(|&c| (closure(store, family, &[c]).nodes.len(), c))
        .filter(|&(size, _)| size > 0)
        .collect();
    sized.sort();
    let last = sized.len().checked_sub(1)?;
    Some(sized[((last as f64) * q).round() as usize].1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::OwnedStore;

    const CURRICULUM: &str = r#"<curriculum>
        <course code="c1"><prerequisites><pre_code>c2</pre_code><pre_code>c3</pre_code></prerequisites></course>
        <course code="c2"><prerequisites><pre_code>c4</pre_code></prerequisites></course>
        <course code="c3"><prerequisites/></course>
        <course code="c4"><prerequisites><pre_code>c2</pre_code></prerequisites></course>
    </curriculum>"#;

    fn store() -> OwnedStore {
        let mut store = OwnedStore::default();
        store.parse("c.xml", CURRICULUM, &["code"]).unwrap();
        store
    }

    #[test]
    fn closure_follows_id_links_and_keeps_the_seed_out_unless_reached() {
        let store = store();
        let view = store.view();
        let courses = view.children(view.root("c.xml").unwrap(), Some("course"));
        // c1 → {c2, c3, c4}; c1 itself is never reached again.
        let from_c1 = closure(view, Family::Curriculum, &courses[..1]);
        assert_eq!(from_c1.nodes.len(), 3);
        // Delta feeds c1, then c2, c3, c4 once each.  Naive feeds c1, then
        // {c2,c3}, then {c2,c3,c4}: the third iteration finds nothing new
        // (c4 -> c2 is known) and is the one that stops the loop.
        assert_eq!(from_c1.delta_fed, 4);
        assert_eq!(from_c1.naive_fed, 1 + 2 + 3);
        // c2 → c4 → c2: the cycle brings the seed back into its own result.
        let from_c2 = closure(view, Family::Curriculum, &courses[1..2]).nodes;
        assert_eq!(from_c2.len(), 2);
        assert!(from_c2.contains(&courses[1]));
        // c3 has no prerequisites.
        assert!(closure(view, Family::Curriculum, &courses[2..3])
            .nodes
            .is_empty());
    }

    #[test]
    fn seed_picker_skips_empty_networks() {
        let store = store();
        let view = store.view();
        let courses = view.children(view.root("c.xml").unwrap(), Some("course"));
        let deep = pick_by_closure_size(view, Family::Curriculum, &courses, 1.0).unwrap();
        assert_eq!(deep, courses[0]);
        let shallow = pick_by_closure_size(view, Family::Curriculum, &courses, 0.0).unwrap();
        assert_ne!(shallow, courses[2], "c3 has an empty closure");
    }

    #[test]
    fn expected_compares_cardinality_and_digest_not_order() {
        let store = store();
        let view = store.view();
        let courses = view.children(view.root("c.xml").unwrap(), Some("course"));
        let expected = Expected::of_nodes(&courses);
        let mut reversed = courses.clone();
        reversed.reverse();
        let answer = Answer {
            count: reversed.len(),
            digest: digest_nodes(reversed),
            ..Answer::default()
        };
        assert!(expected.matches(&answer));
        let fewer = Answer {
            count: 3,
            digest: digest_nodes(courses[..3].iter().copied()),
            ..Answer::default()
        };
        assert!(!expected.matches(&fewer));
    }
}
