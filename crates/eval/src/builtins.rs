//! The built-in function library.
//!
//! Coverage follows what the paper's queries and the LiXQuery fragment
//! need: cardinality and boolean functions, node/value accessors, string
//! functions, numeric aggregates, sequence manipulation, document access
//! (`fn:doc`), ID lookup (`fn:id`) and the Formal-Semantics helper
//! `fs:ddo` (distinct document order).

use xqy_xdm::{ddo, AtomicValue, Item, NodeKind, Sequence};

use crate::compare::effective_boolean_value;
use crate::context::Focus;
use crate::error::EvalError;
use crate::evaluator::Evaluator;
use crate::Result;

/// Is `name` (already prefix-stripped) a built-in function?  A `match`, not
/// a list scan: every call and every path-step gate asks.
pub fn is_builtin(name: &str) -> bool {
    matches!(
        name,
        "count"
            | "empty"
            | "exists"
            | "not"
            | "boolean"
            | "true"
            | "false"
            | "position"
            | "last"
            | "data"
            | "string"
            | "number"
            | "string-length"
            | "normalize-space"
            | "concat"
            | "contains"
            | "starts-with"
            | "ends-with"
            | "substring"
            | "substring-before"
            | "substring-after"
            | "string-join"
            | "upper-case"
            | "lower-case"
            | "name"
            | "local-name"
            | "node-name"
            | "root"
            | "doc"
            | "id"
            | "distinct-values"
            | "deep-equal"
            | "sum"
            | "min"
            | "max"
            | "avg"
            | "abs"
            | "floor"
            | "ceiling"
            | "round"
            | "reverse"
            | "subsequence"
            | "index-of"
            | "insert-before"
            | "remove"
            | "exactly-one"
            | "zero-or-one"
            | "one-or-more"
            | "ddo"
            | "distinct-doc-order"
            | "integer"
            | "double"
            | "decimal"
    )
}

/// Invoke a built-in function on already-evaluated argument sequences.
pub fn call_builtin(
    eval: &mut Evaluator<'_>,
    name: &str,
    args: &[Sequence],
    focus: Option<&Focus>,
) -> Result<Sequence> {
    match (name, args.len()) {
        ("count", 1) => Ok(Sequence::singleton(Item::integer(args[0].len() as i64))),
        ("empty", 1) => Ok(Sequence::singleton(Item::boolean(args[0].is_empty()))),
        ("exists", 1) => Ok(Sequence::singleton(Item::boolean(!args[0].is_empty()))),
        ("not", 1) => Ok(Sequence::singleton(Item::boolean(
            !effective_boolean_value(&args[0])?,
        ))),
        ("boolean", 1) => Ok(Sequence::singleton(Item::boolean(effective_boolean_value(
            &args[0],
        )?))),
        ("true", 0) => Ok(Sequence::singleton(Item::boolean(true))),
        ("false", 0) => Ok(Sequence::singleton(Item::boolean(false))),
        ("position", 0) => focus
            .map(|f| Sequence::singleton(Item::integer(f.position as i64)))
            .ok_or(EvalError::MissingContextItem),
        ("last", 0) => focus
            .map(|f| Sequence::singleton(Item::integer(f.size as i64)))
            .ok_or(EvalError::MissingContextItem),
        ("data", 1) => Ok(eval
            .atomize(&args[0])
            .into_iter()
            .map(Item::Atomic)
            .collect()),
        ("string", 0) => {
            let focus = focus.ok_or(EvalError::MissingContextItem)?;
            Ok(Sequence::singleton(Item::string(
                eval.item_string(&focus.item),
            )))
        }
        ("string", 1) => {
            if args[0].is_empty() {
                return Ok(Sequence::singleton(Item::string("")));
            }
            Ok(Sequence::singleton(Item::string(
                eval.item_string(&args[0].items()[0]),
            )))
        }
        ("number", 1) => {
            let atoms = eval.atomize(&args[0]);
            let value = match atoms.first() {
                Some(a) => a.to_double(),
                None => f64::NAN,
            };
            Ok(Sequence::singleton(Item::double(value)))
        }
        ("integer" | "decimal", 1) => {
            let atoms = eval.atomize(&args[0]);
            match atoms.first() {
                Some(a) => Ok(Sequence::singleton(Item::integer(a.to_integer()?))),
                None => Ok(Sequence::empty()),
            }
        }
        ("double", 1) => {
            let atoms = eval.atomize(&args[0]);
            match atoms.first() {
                Some(a) => Ok(Sequence::singleton(Item::double(a.to_double()))),
                None => Ok(Sequence::empty()),
            }
        }
        ("string-length", 1) => {
            let s = args[0]
                .items()
                .first()
                .map(|i| eval.item_string(i))
                .unwrap_or_default();
            Ok(Sequence::singleton(Item::integer(s.chars().count() as i64)))
        }
        ("normalize-space", 1) => {
            let s = args[0]
                .items()
                .first()
                .map(|i| eval.item_string(i))
                .unwrap_or_default();
            Ok(Sequence::singleton(Item::string(
                s.split_whitespace().collect::<Vec<_>>().join(" "),
            )))
        }
        ("concat", _) if args.len() >= 2 => {
            let mut out = String::new();
            for a in args {
                if let Some(item) = a.items().first() {
                    out.push_str(&eval.item_string(item));
                }
            }
            Ok(Sequence::singleton(Item::string(out)))
        }
        ("contains", 2) => {
            let hay = string_arg(eval, &args[0]);
            let needle = string_arg(eval, &args[1]);
            Ok(Sequence::singleton(Item::boolean(hay.contains(&needle))))
        }
        ("starts-with", 2) => {
            let hay = string_arg(eval, &args[0]);
            let needle = string_arg(eval, &args[1]);
            Ok(Sequence::singleton(Item::boolean(hay.starts_with(&needle))))
        }
        ("ends-with", 2) => {
            let hay = string_arg(eval, &args[0]);
            let needle = string_arg(eval, &args[1]);
            Ok(Sequence::singleton(Item::boolean(hay.ends_with(&needle))))
        }
        ("substring", 2 | 3) => {
            let s: Vec<char> = string_arg(eval, &args[0]).chars().collect();
            let start = numeric_arg(eval, &args[1])?.round() as i64;
            let len = if args.len() == 3 {
                numeric_arg(eval, &args[2])?.round() as i64
            } else {
                s.len() as i64
            };
            let begin = (start - 1).max(0) as usize;
            let end = ((start - 1 + len).max(0) as usize).min(s.len());
            let out: String = if begin < end {
                s[begin..end].iter().collect()
            } else {
                String::new()
            };
            Ok(Sequence::singleton(Item::string(out)))
        }
        ("substring-before", 2) => {
            let hay = string_arg(eval, &args[0]);
            let needle = string_arg(eval, &args[1]);
            let out = hay.split_once(&needle).map(|(a, _)| a).unwrap_or("");
            Ok(Sequence::singleton(Item::string(out)))
        }
        ("substring-after", 2) => {
            let hay = string_arg(eval, &args[0]);
            let needle = string_arg(eval, &args[1]);
            let out = hay.split_once(&needle).map(|(_, b)| b).unwrap_or("");
            Ok(Sequence::singleton(Item::string(out)))
        }
        ("string-join", 2) => {
            let sep = string_arg(eval, &args[1]);
            let parts: Vec<String> = args[0].iter().map(|i| eval.item_string(i)).collect();
            Ok(Sequence::singleton(Item::string(parts.join(&sep))))
        }
        ("upper-case", 1) => Ok(Sequence::singleton(Item::string(
            string_arg(eval, &args[0]).to_uppercase(),
        ))),
        ("lower-case", 1) => Ok(Sequence::singleton(Item::string(
            string_arg(eval, &args[0]).to_lowercase(),
        ))),
        ("name" | "local-name" | "node-name", 0 | 1) => {
            let item = if args.is_empty() {
                focus
                    .map(|f| f.item.clone())
                    .ok_or(EvalError::MissingContextItem)?
            } else if args[0].is_empty() {
                return Ok(Sequence::singleton(Item::string("")));
            } else {
                args[0].items()[0].clone()
            };
            let name = match item.as_node() {
                Some(n) => match (eval.store.name(n), eval.store.kind(n)) {
                    (Some(q), _) if name == "local-name" => q.local.clone(),
                    (Some(q), _) => q.to_string(),
                    (None, NodeKind::ProcessingInstruction(t, _)) => {
                        eval.store.resolve_text(*t).to_string()
                    }
                    _ => String::new(),
                },
                None => {
                    return Err(EvalError::Type(format!(
                        "{name}() requires a node argument"
                    )))
                }
            };
            Ok(Sequence::singleton(Item::string(name)))
        }
        ("root", 0 | 1) => {
            let item = if args.is_empty() {
                focus
                    .map(|f| f.item.clone())
                    .ok_or(EvalError::MissingContextItem)?
            } else if args[0].is_empty() {
                return Ok(Sequence::empty());
            } else {
                args[0].items()[0].clone()
            };
            match item.as_node() {
                Some(n) => Ok(Sequence::from_nodes(vec![eval.store.tree_root(n)])),
                None => Err(EvalError::Type("root() requires a node argument".into())),
            }
        }
        ("doc", 1) => {
            let uri = string_arg(eval, &args[0]);
            match eval.store.doc(&uri) {
                Some(doc) => {
                    let node = eval
                        .store
                        .document_node(doc)
                        .ok_or_else(|| EvalError::DocumentNotFound(uri.clone()))?;
                    Ok(Sequence::from_nodes(vec![node]))
                }
                None => Err(EvalError::DocumentNotFound(uri)),
            }
        }
        // No `idref`: the store types no attribute as IDREF, so there is
        // nothing to answer it from; the name stays undefined rather than
        // answering as `id`.
        ("id", 1 | 2) => {
            // id(values) uses the context node's document; id(values, node)
            // uses the supplied node's document.
            let anchor =
                if args.len() == 2 {
                    args[1].nodes().first().copied().ok_or_else(|| {
                        EvalError::Type("id(): second argument must be a node".into())
                    })?
                } else {
                    focus
                        .and_then(|f| f.item.as_node())
                        .ok_or(EvalError::MissingContextItem)?
                };
            let values = eval.atomize(&args[0]);
            let nodes = eval.lookup_ids(anchor, &values);
            Ok(Sequence::from_nodes(nodes))
        }
        ("distinct-values", 1) => {
            let atoms = eval.atomize(&args[0]);
            let mut seen: Vec<AtomicValue> = Vec::new();
            for a in atoms {
                if !seen.iter().any(|s| s.general_eq(&a)) {
                    seen.push(a);
                }
            }
            Ok(seen.into_iter().map(Item::Atomic).collect())
        }
        ("deep-equal", 2) => {
            let equal = deep_equal(eval, &args[0], &args[1]);
            Ok(Sequence::singleton(Item::boolean(equal)))
        }
        ("sum", 1) => {
            let atoms = eval.atomize(&args[0]);
            if atoms.is_empty() {
                return Ok(Sequence::singleton(Item::integer(0)));
            }
            aggregate(&atoms, |acc, v| acc + v, 0.0)
        }
        ("avg", 1) => {
            let atoms = eval.atomize(&args[0]);
            if atoms.is_empty() {
                return Ok(Sequence::empty());
            }
            let sum: f64 = atoms.iter().map(|a| a.to_double()).sum();
            Ok(Sequence::singleton(Item::double(sum / atoms.len() as f64)))
        }
        ("min" | "max", 1) => {
            let atoms = eval.atomize(&args[0]);
            if atoms.is_empty() {
                return Ok(Sequence::empty());
            }
            let mut best = atoms[0].to_double();
            for a in &atoms[1..] {
                let v = a.to_double();
                if (name == "min" && v < best) || (name == "max" && v > best) {
                    best = v;
                }
            }
            if atoms.iter().all(|a| matches!(a, AtomicValue::Integer(_))) {
                Ok(Sequence::singleton(Item::integer(best as i64)))
            } else {
                Ok(Sequence::singleton(Item::double(best)))
            }
        }
        ("abs", 1) => numeric_unary(eval, &args[0], f64::abs),
        ("floor", 1) => numeric_unary(eval, &args[0], f64::floor),
        ("ceiling", 1) => numeric_unary(eval, &args[0], f64::ceil),
        ("round", 1) => numeric_unary(eval, &args[0], f64::round),
        ("reverse", 1) => {
            let mut items: Vec<Item> = args[0].items().to_vec();
            items.reverse();
            Ok(Sequence::from_items(items))
        }
        ("subsequence", 2 | 3) => {
            let start = numeric_arg(eval, &args[1])?.round() as i64;
            let len = if args.len() == 3 {
                numeric_arg(eval, &args[2])?.round() as i64
            } else {
                i64::MAX
            };
            let items: Vec<Item> = args[0]
                .iter()
                .enumerate()
                .filter(|(i, _)| {
                    let pos = *i as i64 + 1;
                    pos >= start && (len == i64::MAX || pos < start + len)
                })
                .map(|(_, item)| item.clone())
                .collect();
            Ok(Sequence::from_items(items))
        }
        ("index-of", 2) => {
            let atoms = eval.atomize(&args[0]);
            let needle = eval
                .atomize(&args[1])
                .into_iter()
                .next()
                .ok_or_else(|| EvalError::Type("index-of(): empty search value".into()))?;
            Ok(atoms
                .iter()
                .enumerate()
                .filter(|(_, a)| a.general_eq(&needle))
                .map(|(i, _)| Item::integer(i as i64 + 1))
                .collect())
        }
        ("insert-before", 3) => {
            let pos = numeric_arg(eval, &args[1])?.round() as usize;
            let mut items: Vec<Item> = args[0].items().to_vec();
            let at = pos.saturating_sub(1).min(items.len());
            let mut out: Vec<Item> = items.drain(..at).collect();
            out.extend(args[2].items().to_vec());
            out.extend(items);
            Ok(Sequence::from_items(out))
        }
        ("remove", 2) => {
            let pos = numeric_arg(eval, &args[1])?.round() as usize;
            Ok(args[0]
                .iter()
                .enumerate()
                .filter(|(i, _)| i + 1 != pos)
                .map(|(_, item)| item.clone())
                .collect())
        }
        ("exactly-one", 1) => {
            if args[0].len() == 1 {
                Ok(args[0].clone())
            } else {
                Err(EvalError::Type(format!(
                    "exactly-one(): sequence has {} items",
                    args[0].len()
                )))
            }
        }
        ("zero-or-one", 1) => {
            if args[0].len() <= 1 {
                Ok(args[0].clone())
            } else {
                Err(EvalError::Type("zero-or-one(): more than one item".into()))
            }
        }
        ("one-or-more", 1) => {
            if !args[0].is_empty() {
                Ok(args[0].clone())
            } else {
                Err(EvalError::Type("one-or-more(): empty sequence".into()))
            }
        }
        ("ddo" | "distinct-doc-order", 1) => {
            if !args[0].all_nodes() {
                return Err(EvalError::Type("ddo(): argument must be nodes".into()));
            }
            let ordered = ddo(&eval.store, &args[0].nodes());
            Ok(Sequence::from_nodes(ordered))
        }
        _ => Err(EvalError::UndefinedFunction {
            name: name.to_string(),
            arity: args.len(),
        }),
    }
}

fn string_arg(eval: &Evaluator<'_>, seq: &Sequence) -> String {
    seq.items()
        .first()
        .map(|i| eval.item_string(i))
        .unwrap_or_default()
}

fn numeric_arg(eval: &Evaluator<'_>, seq: &Sequence) -> Result<f64> {
    let atoms = eval.atomize(seq);
    atoms
        .first()
        .map(|a| a.to_double())
        .ok_or_else(|| EvalError::Type("expected a numeric argument".into()))
}

fn numeric_unary(eval: &Evaluator<'_>, seq: &Sequence, f: impl Fn(f64) -> f64) -> Result<Sequence> {
    let atoms = eval.atomize(seq);
    match atoms.first() {
        None => Ok(Sequence::empty()),
        Some(a) => {
            let v = f(a.to_double());
            // Integer inputs, and doubles that land on a whole finite
            // value, come back as integers.
            if matches!(a, AtomicValue::Integer(_)) || (v.fract() == 0.0 && v.is_finite()) {
                Ok(Sequence::singleton(Item::integer(v as i64)))
            } else {
                Ok(Sequence::singleton(Item::double(v)))
            }
        }
    }
}

fn aggregate(atoms: &[AtomicValue], f: impl Fn(f64, f64) -> f64, init: f64) -> Result<Sequence> {
    let all_integer = atoms.iter().all(|a| matches!(a, AtomicValue::Integer(_)));
    let mut acc = init;
    for a in atoms {
        acc = f(acc, a.to_double());
    }
    if all_integer && acc.fract() == 0.0 {
        Ok(Sequence::singleton(Item::integer(acc as i64)))
    } else {
        Ok(Sequence::singleton(Item::double(acc)))
    }
}

/// `fn:deep-equal` over two sequences: pairwise, atomics by value, nodes by
/// name/attributes/children recursively (ignoring node identity).
fn deep_equal(eval: &Evaluator<'_>, a: &Sequence, b: &Sequence) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b.iter()).all(|(x, y)| match (x, y) {
        (Item::Atomic(u), Item::Atomic(v)) => u.general_eq(v),
        (Item::Node(m), Item::Node(n)) => deep_equal_nodes(eval, *m, *n),
        _ => false,
    })
}

fn deep_equal_nodes(eval: &Evaluator<'_>, a: xqy_xdm::NodeId, b: xqy_xdm::NodeId) -> bool {
    match (eval.store.kind(a), eval.store.kind(b)) {
        (NodeKind::Text(x), NodeKind::Text(y)) => x == y,
        (NodeKind::Comment(x), NodeKind::Comment(y)) => x == y,
        (NodeKind::Attribute(nx, vx), NodeKind::Attribute(ny, vy)) => nx == ny && vx == vy,
        (NodeKind::Element(nx), NodeKind::Element(ny)) => {
            if nx != ny {
                return false;
            }
            let attrs_a = eval.store.attributes(a);
            let attrs_b = eval.store.attributes(b);
            if attrs_a.len() != attrs_b.len() {
                return false;
            }
            // Attribute order is irrelevant for deep equality.  Both nodes
            // live in the evaluator's store, so payload symbols compare
            // directly: equal syms ⇔ equal strings within one pool.
            for attr in &attrs_a {
                if let NodeKind::Attribute(name, value) = eval.store.kind(*attr) {
                    let name = &eval.store.resolve_name(*name).local;
                    match eval.store.attribute_value_sym(b, name) {
                        Some(v) if v == *value => {}
                        _ => return false,
                    }
                }
            }
            let ca = eval.store.children(a);
            let cb = eval.store.children(b);
            ca.len() == cb.len()
                && ca
                    .iter()
                    .zip(cb.iter())
                    .all(|(x, y)| deep_equal_nodes(eval, *x, *y))
        }
        (NodeKind::Document, NodeKind::Document) => {
            let ca = eval.store.children(a);
            let cb = eval.store.children(b);
            ca.len() == cb.len()
                && ca
                    .iter()
                    .zip(cb.iter())
                    .all(|(x, y)| deep_equal_nodes(eval, *x, *y))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqy_xdm::NodeStore;

    fn eval(src: &str) -> Sequence {
        let mut store = NodeStore::new();
        let mut evaluator = Evaluator::new(&mut store);
        evaluator.eval_query_str(src).unwrap()
    }

    fn eval_doc(doc: &str, src: &str) -> Sequence {
        let mut store = NodeStore::new();
        store.parse_document_with_uri("d.xml", doc).unwrap();
        let mut evaluator = Evaluator::new(&mut store);
        evaluator.eval_query_str(src).unwrap()
    }

    fn one_string(seq: &Sequence) -> String {
        seq.items()[0].as_atomic().unwrap().string_value()
    }

    fn one_int(seq: &Sequence) -> i64 {
        seq.items()[0].as_atomic().unwrap().to_integer().unwrap()
    }

    #[test]
    fn cardinality_functions() {
        assert_eq!(one_int(&eval("count((1, 2, 3))")), 3);
        assert_eq!(eval("empty(())").items()[0], Item::boolean(true));
        assert_eq!(eval("exists((1))").items()[0], Item::boolean(true));
        assert_eq!(eval("not(1 = 1)").items()[0], Item::boolean(false));
    }

    #[test]
    fn string_functions() {
        assert_eq!(one_string(&eval("concat('a', 'b', 'c')")), "abc");
        assert_eq!(one_string(&eval("upper-case('abc')")), "ABC");
        assert_eq!(one_string(&eval("substring('abcde', 2, 3)")), "bcd");
        assert_eq!(one_string(&eval("substring-before('a-b', '-')")), "a");
        assert_eq!(one_string(&eval("substring-after('a-b', '-')")), "b");
        assert_eq!(one_string(&eval("string-join(('a', 'b'), '/')")), "a/b");
        assert_eq!(one_string(&eval("normalize-space('  a   b ')")), "a b");
        assert_eq!(
            eval("contains('abc', 'bc')").items()[0],
            Item::boolean(true)
        );
        assert_eq!(
            eval("starts-with('abc', 'ab')").items()[0],
            Item::boolean(true)
        );
        assert_eq!(one_int(&eval("string-length('abcd')")), 4);
    }

    #[test]
    fn numeric_functions_and_aggregates() {
        assert_eq!(one_int(&eval("sum((1, 2, 3))")), 6);
        assert_eq!(one_int(&eval("sum(())")), 0);
        assert_eq!(one_int(&eval("max((3, 9, 2))")), 9);
        assert_eq!(one_int(&eval("min((3, 9, 2))")), 2);
        assert_eq!(eval("avg((1, 2, 3, 4))").items()[0], Item::double(2.5));
        assert_eq!(one_int(&eval("abs(-5)")), 5);
        assert_eq!(one_int(&eval("floor(2.9)")), 2);
        assert_eq!(one_int(&eval("ceiling(2.1)")), 3);
        assert_eq!(one_int(&eval("round(2.5)")), 3);
        assert!(eval("number('x')").items()[0]
            .as_atomic()
            .unwrap()
            .to_double()
            .is_nan());
    }

    #[test]
    fn sequence_functions() {
        assert_eq!(one_int(&eval("count(distinct-values((1, 2, 2, 1)))")), 2);
        assert_eq!(one_int(&eval("count(reverse((1, 2, 3)))")), 3);
        assert_eq!(one_int(&eval("count(subsequence((1, 2, 3, 4), 2, 2))")), 2);
        assert_eq!(one_int(&eval("index-of((10, 20, 30), 20)")), 2);
        assert_eq!(one_int(&eval("count(insert-before((1, 2), 2, (9, 9)))")), 4);
        assert_eq!(one_int(&eval("count(remove((1, 2, 3), 2))")), 2);
        assert_eq!(one_int(&eval("exactly-one((7))")), 7);
    }

    #[test]
    fn cardinality_assertions_error() {
        let mut store = NodeStore::new();
        let mut evaluator = Evaluator::new(&mut store);
        assert!(evaluator.eval_query_str("exactly-one((1, 2))").is_err());
        assert!(evaluator.eval_query_str("zero-or-one((1, 2))").is_err());
        assert!(evaluator.eval_query_str("one-or-more(())").is_err());
    }

    #[test]
    fn node_accessors() {
        let doc = "<r><a id=\"1\">x</a></r>";
        assert_eq!(one_string(&eval_doc(doc, "name(doc('d.xml')/r/a)")), "a");
        assert_eq!(
            one_string(&eval_doc(doc, "local-name(doc('d.xml')/r/a/@id)")),
            "id"
        );
        assert_eq!(one_string(&eval_doc(doc, "string(doc('d.xml')/r)")), "x");
        assert_eq!(
            one_string(&eval_doc(doc, "data(doc('d.xml')/r/a/@id)")),
            "1"
        );
        let roots = eval_doc(doc, "count(root(doc('d.xml')/r/a))");
        assert_eq!(one_int(&roots), 1);
    }

    #[test]
    fn id_lookup_uses_id_typed_attributes() {
        let doc = "<r><a id=\"n1\"><ref>n2</ref></a><a id=\"n2\"/></r>";
        let result = eval_doc(doc, "doc('d.xml')/r/a[1]/id(./ref)");
        assert_eq!(result.len(), 1);
        let result = eval_doc(doc, "doc('d.xml')/r/a[1]/id('n1 n2')");
        assert_eq!(result.len(), 2);
    }

    #[test]
    fn idref_is_undefined_not_an_alias_of_id() {
        // `idref('n2')` asks for the nodes *referring* to n2 (here the
        // <ref>); answering as `id` would return the element *carrying* it.
        let doc = "<r><a id=\"n1\"><ref>n2</ref></a><a id=\"n2\"/></r>";
        let mut store = NodeStore::new();
        store.parse_document_with_uri("d.xml", doc).unwrap();
        let mut evaluator = Evaluator::new(&mut store);
        for query in [
            "doc('d.xml')/r/idref('n2')",
            "doc('d.xml')/r/a/idref(./ref)",
            "fn:idref('n2', doc('d.xml'))",
        ] {
            let err = evaluator.eval_query_str(query).unwrap_err();
            assert!(
                matches!(&err, EvalError::UndefinedFunction { name, .. } if name.ends_with("idref")),
                "{query}: {err}"
            );
        }
        assert!(!is_builtin("idref"));
    }

    #[test]
    fn deep_equal_ignores_identity_but_not_structure() {
        let doc = "<r><a><b x=\"1\">t</b></a><a><b x=\"1\">t</b></a><a><b x=\"2\">t</b></a></r>";
        assert_eq!(
            eval_doc(doc, "deep-equal(doc('d.xml')/r/a[1], doc('d.xml')/r/a[2])").items()[0],
            Item::boolean(true)
        );
        assert_eq!(
            eval_doc(doc, "deep-equal(doc('d.xml')/r/a[1], doc('d.xml')/r/a[3])").items()[0],
            Item::boolean(false)
        );
        assert_eq!(
            eval_doc(doc, "deep-equal((1, 'a'), (1, 'a'))").items()[0],
            Item::boolean(true)
        );
        assert_eq!(
            eval_doc(doc, "deep-equal((1), (1, 1))").items()[0],
            Item::boolean(false)
        );
    }

    #[test]
    fn ddo_sorts_and_deduplicates() {
        let doc = "<r><a/><b/><c/></r>";
        let result = eval_doc(
            doc,
            "count(ddo((doc('d.xml')/r/c, doc('d.xml')/r/a, doc('d.xml')/r/a)))",
        );
        assert_eq!(one_int(&result), 2);
    }

    #[test]
    fn casts() {
        assert_eq!(one_int(&eval("xs:integer('42')")), 42);
        assert_eq!(eval("xs:double('1.5')").items()[0], Item::double(1.5));
        assert_eq!(one_string(&eval("fn:string(7)")), "7");
    }
}
