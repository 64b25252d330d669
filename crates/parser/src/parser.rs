//! Recursive-descent parser for the XQuery subset.
//!
//! The parser follows the XQuery 1.0 grammar shape (expression levels from
//! `ExprSingle` down to `PathExpr`) restricted to the LiXQuery-style subset
//! described in the crate documentation and extended with the paper's
//! `with $x seeded by e recurse e` form.
//!
//! Direct element constructors are parsed in "raw" character mode by
//! temporarily rewinding the lexer — see [`Lexer`] for the mechanics.

use xqy_xdm::{Axis, NodeTest};

use crate::ast::{
    BinaryOp, ConstructorContent, Expr, FunctionDecl, Literal, Occurrence, QueryModule,
    SequenceType, TypeswitchCase, UnaryOp,
};
use crate::error::ParseError;
use crate::lexer::Lexer;
use crate::token::{Token, TokenKind};
use crate::Result;

/// Parse a complete query module (prolog + body expression).
pub fn parse_query(source: &str) -> Result<QueryModule> {
    crate::note_parse();
    let mut parser = Parser::new(source);
    let module = parser.parse_module()?;
    parser.expect_eof()?;
    Ok(module)
}

/// Parse a single expression (no prolog allowed).
pub fn parse_expr(source: &str) -> Result<Expr> {
    crate::note_parse();
    let mut parser = Parser::new(source);
    let expr = parser.parse_expr()?;
    parser.expect_eof()?;
    Ok(expr)
}

/// Deepest nesting of expressions the parser accepts.  Every cycle of the
/// descent passes through [`Parser::nested`], so this bounds the parser's
/// own stack and the depth of the tree every later recursive pass (analysis,
/// compilation, evaluation, drop) walks.  Sized for the unoptimised build,
/// where one trip down the precedence ladder takes ≈ 36 KB of stack: a query
/// at the limit parses, runs and drops on a 2 MiB thread with room to spare.
const MAX_NESTING: usize = 32;

/// Most chain links on one path of the tree the parser returns.  Operator
/// and step chains (`1+1+…`, `/a/a/…`) and binder lists (`for $a in …, $b
/// in …`) are parsed by loops, not by recursion, so no [`Parser::nested`]
/// level sees them — but each link adds a level to the *tree*, and every
/// later pass recurses over that.  Counted along the deepest path, chains
/// inside chains included, so this bounds what the loops add to the height
/// [`MAX_NESTING`] allows.  Sized the same way: an unoptimised evaluation
/// takes ≈ 22 KB of stack per operator link (≈ 11 KB per step or binder),
/// and a tree with both limits exhausted runs in ≈ 1.45 MiB.
const MAX_CHAIN: usize = 40;

struct Parser<'a> {
    lexer: Lexer<'a>,
    peeked: Option<Token>,
    /// Live [`Parser::nested`] levels.
    depth: usize,
    /// Most chain links on one path of any expression completed since the
    /// counter was last taken (see [`Parser::measured`]).
    spine: usize,
}

impl<'a> Parser<'a> {
    fn new(source: &'a str) -> Self {
        Parser {
            lexer: Lexer::new(source),
            peeked: None,
            depth: 0,
            spine: 0,
        }
    }

    /// Run `parse` one nesting level down, or fail once [`MAX_NESTING`]
    /// levels are open — a typed error where the descent would otherwise
    /// run out of stack, which aborts the process.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_NESTING {
            return Err(self.too_deep(format!("{MAX_NESTING} levels")));
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    fn too_deep(&self, limit: String) -> ParseError {
        let offset = match &self.peeked {
            Some(tok) => tok.offset,
            None => self.lexer.pos(),
        };
        ParseError::new(offset, format!("expression nested deeper than {limit}"))
    }

    /// Run `parse` and report the most chain links on one path of what it
    /// parsed — chains complete bottom-up, so that is the count of the
    /// outermost chains inside.  The caller either links the expression into
    /// a chain of its own ([`Parser::link`]) or leaves the count standing.
    fn measured<T>(&mut self, parse: impl FnOnce(&mut Self) -> Result<T>) -> Result<(T, usize)> {
        let outer = std::mem::take(&mut self.spine);
        let parsed = parse(self)?;
        let links = std::mem::replace(&mut self.spine, outer);
        Ok((parsed, links))
    }

    /// One more link above a spine of `below`, or fail once [`MAX_CHAIN`]
    /// are stacked: a typed error where evaluating or dropping the tree
    /// would otherwise run out of stack.
    fn link(&self, below: usize) -> Result<usize> {
        if below == MAX_CHAIN {
            return Err(self.too_deep(format!("{MAX_CHAIN} chained operators, steps or binders")));
        }
        Ok(below + 1)
    }

    /// `operand (operator operand)*` as a left-deep tree — built by a loop,
    /// so its height is bounded here and not by [`Parser::nested`].
    fn parse_left_chain(
        &mut self,
        operand: fn(&mut Self) -> Result<Expr>,
        operator: fn(&mut Self) -> Result<Option<BinaryOp>>,
    ) -> Result<Expr> {
        let (mut lhs, mut links) = self.measured(operand)?;
        while let Some(op) = operator(self)? {
            self.next()?;
            let (rhs, below) = self.measured(operand)?;
            links = self.link(links.max(below))?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        self.spine = self.spine.max(links);
        Ok(lhs)
    }

    // ------------------------------------------------------------------
    // Token plumbing
    // ------------------------------------------------------------------

    fn peek(&mut self) -> Result<&Token> {
        if self.peeked.is_none() {
            self.peeked = Some(self.lexer.next_token()?);
        }
        Ok(self.peeked.as_ref().expect("just filled"))
    }

    fn next(&mut self) -> Result<Token> {
        match self.peeked.take() {
            Some(tok) => Ok(tok),
            None => self.lexer.next_token(),
        }
    }

    fn at(&mut self, kind: &TokenKind) -> Result<bool> {
        Ok(&self.peek()?.kind == kind)
    }

    fn at_keyword(&mut self, kw: &str) -> Result<bool> {
        Ok(self.peek()?.kind.is_keyword(kw))
    }

    fn eat(&mut self, kind: &TokenKind) -> Result<bool> {
        if self.at(kind)? {
            self.next()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<bool> {
        if self.at_keyword(kw)? {
            self.next()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token> {
        let tok = self.next()?;
        if &tok.kind == kind {
            Ok(tok)
        } else {
            Err(ParseError::new(
                tok.offset,
                format!("expected {kind}, found {}", tok.kind),
            ))
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        let tok = self.next()?;
        if tok.kind.is_keyword(kw) {
            Ok(())
        } else {
            Err(ParseError::new(
                tok.offset,
                format!("expected '{kw}', found {}", tok.kind),
            ))
        }
    }

    fn expect_variable(&mut self) -> Result<String> {
        let tok = self.next()?;
        match tok.kind {
            TokenKind::Variable(name) => Ok(name),
            other => Err(ParseError::new(
                tok.offset,
                format!("expected a variable, found {other}"),
            )),
        }
    }

    fn expect_name(&mut self) -> Result<String> {
        let tok = self.next()?;
        match tok.kind {
            TokenKind::Name(name) => Ok(name),
            other => Err(ParseError::new(
                tok.offset,
                format!("expected a name, found {other}"),
            )),
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        let tok = self.peek()?;
        if tok.kind == TokenKind::Eof {
            Ok(())
        } else {
            Err(ParseError::new(
                tok.offset,
                format!("unexpected {} after end of expression", tok.kind),
            ))
        }
    }

    // ------------------------------------------------------------------
    // Prolog
    // ------------------------------------------------------------------

    fn parse_module(&mut self) -> Result<QueryModule> {
        let mut functions = Vec::new();
        let mut variables = Vec::new();

        loop {
            if self.at_keyword("xquery")? {
                // xquery version "1.0";
                self.next()?;
                self.expect_keyword("version")?;
                let tok = self.next()?;
                if !matches!(tok.kind, TokenKind::String(_)) {
                    return Err(ParseError::new(tok.offset, "expected version string"));
                }
                self.expect(&TokenKind::Semicolon)?;
                continue;
            }
            if !self.at_keyword("declare")? {
                break;
            }
            self.next()?; // declare
            if self.eat_keyword("function")? {
                functions.push(self.parse_function_decl()?);
            } else if self.eat_keyword("variable")? {
                let name = self.expect_variable()?;
                if self.eat_keyword("as")? {
                    self.parse_sequence_type()?;
                }
                self.expect(&TokenKind::Assign)?;
                let value = self.parse_expr_single()?;
                self.expect(&TokenKind::Semicolon)?;
                variables.push((name, value));
            } else if self.eat_keyword("namespace")? {
                let _prefix = self.expect_name()?;
                self.expect(&TokenKind::Eq)?;
                let tok = self.next()?;
                if !matches!(tok.kind, TokenKind::String(_)) {
                    return Err(ParseError::new(tok.offset, "expected namespace URI string"));
                }
                self.expect(&TokenKind::Semicolon)?;
            } else {
                let tok = self.peek()?;
                return Err(ParseError::new(
                    tok.offset,
                    format!("unsupported declaration starting with {}", tok.kind),
                ));
            }
        }

        let body = self.parse_expr()?;
        Ok(QueryModule {
            functions,
            variables,
            body,
        })
    }

    fn parse_function_decl(&mut self) -> Result<FunctionDecl> {
        let name = self.expect_name()?;
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        let mut param_types = Vec::new();
        if !self.at(&TokenKind::RParen)? {
            loop {
                let param = self.expect_variable()?;
                let ty = if self.eat_keyword("as")? {
                    Some(self.parse_sequence_type()?)
                } else {
                    None
                };
                params.push(param);
                param_types.push(ty);
                if !self.eat(&TokenKind::Comma)? {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        let return_type = if self.eat_keyword("as")? {
            Some(self.parse_sequence_type()?)
        } else {
            None
        };
        self.expect(&TokenKind::LBrace)?;
        let body = self.parse_expr()?;
        self.expect(&TokenKind::RBrace)?;
        // The trailing ';' after a function declaration is mandatory in
        // XQuery; accept a missing one for convenience in tests.
        let _ = self.eat(&TokenKind::Semicolon)?;
        Ok(FunctionDecl {
            name,
            params,
            param_types,
            return_type,
            body,
        })
    }

    fn parse_sequence_type(&mut self) -> Result<SequenceType> {
        let name = self.expect_name()?;
        let mut item_type = name;
        if self.at(&TokenKind::LParen)? {
            self.next()?;
            if !self.at(&TokenKind::RParen)? {
                let inner = self.expect_name()?;
                item_type = format!("{item_type}({inner})");
            } else {
                item_type = format!("{item_type}()");
            }
            self.expect(&TokenKind::RParen)?;
        }
        let occurrence = if self.eat(&TokenKind::Question)? {
            Occurrence::Optional
        } else if self.eat(&TokenKind::Star)? {
            Occurrence::ZeroOrMore
        } else if self.eat(&TokenKind::Plus)? {
            Occurrence::OneOrMore
        } else {
            Occurrence::One
        };
        Ok(SequenceType {
            item_type,
            occurrence,
        })
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr> {
        let first = self.parse_expr_single()?;
        if !self.at(&TokenKind::Comma)? {
            return Ok(first);
        }
        let mut items = vec![first];
        while self.eat(&TokenKind::Comma)? {
            items.push(self.parse_expr_single()?);
        }
        Ok(Expr::Sequence(items))
    }

    fn parse_expr_single(&mut self) -> Result<Expr> {
        self.nested(Self::parse_expr_single_body)
    }

    fn parse_expr_single_body(&mut self) -> Result<Expr> {
        if self.at_keyword("for")? || self.at_keyword("let")? {
            return self.parse_flwor();
        }
        if self.at_keyword("some")? || self.at_keyword("every")? {
            return self.parse_quantified();
        }
        if self.at_keyword("typeswitch")? {
            return self.parse_typeswitch();
        }
        if self.at_keyword("if")? {
            return self.parse_if();
        }
        if self.at_keyword("with")? {
            return self.parse_fixpoint();
        }
        self.parse_or_expr()
    }

    /// `with $x seeded by e_seed recurse e_rec` — the IFP form (Definition 2.1).
    fn parse_fixpoint(&mut self) -> Result<Expr> {
        self.expect_keyword("with")?;
        let var = self.expect_variable()?;
        self.expect_keyword("seeded")?;
        self.expect_keyword("by")?;
        let seed = self.parse_expr_single()?;
        self.expect_keyword("recurse")?;
        let body = self.parse_expr_single()?;
        Ok(Expr::Fixpoint {
            var,
            seed: Box::new(seed),
            body: Box::new(body),
        })
    }

    fn parse_flwor(&mut self) -> Result<Expr> {
        // Collect the clause spine first, then fold it into nested
        // For/Let/If expressions from the inside out.
        enum Clause {
            For {
                var: String,
                pos_var: Option<String>,
                seq: Expr,
            },
            Let {
                var: String,
                value: Expr,
            },
            Where(Expr),
        }

        let outer = std::mem::take(&mut self.spine);
        let mut clauses = Vec::new();
        loop {
            if self.at_keyword("for")? {
                self.next()?;
                loop {
                    let var = self.expect_variable()?;
                    if self.eat_keyword("as")? {
                        self.parse_sequence_type()?;
                    }
                    let pos_var = if self.eat_keyword("at")? {
                        Some(self.expect_variable()?)
                    } else {
                        None
                    };
                    self.expect_keyword("in")?;
                    let seq = self.parse_expr_single()?;
                    clauses.push(Clause::For { var, pos_var, seq });
                    if !self.eat(&TokenKind::Comma)? {
                        break;
                    }
                }
            } else if self.at_keyword("let")? {
                self.next()?;
                loop {
                    let var = self.expect_variable()?;
                    if self.eat_keyword("as")? {
                        self.parse_sequence_type()?;
                    }
                    self.expect(&TokenKind::Assign)?;
                    let value = self.parse_expr_single()?;
                    clauses.push(Clause::Let { var, value });
                    if !self.eat(&TokenKind::Comma)? {
                        break;
                    }
                }
            } else if self.at_keyword("where")? {
                self.next()?;
                let cond = self.parse_expr_single()?;
                clauses.push(Clause::Where(cond));
            } else if self.at_keyword("order")? {
                let tok = self.peek()?;
                return Err(ParseError::new(
                    tok.offset,
                    "'order by' is not supported by this XQuery subset",
                ));
            } else {
                break;
            }
        }
        self.expect_keyword("return")?;
        let mut body = self.parse_expr_single()?;

        // One link per clause above the deepest of the parts just parsed.
        let mut links = self.spine;
        for clause in clauses.into_iter().rev() {
            links = self.link(links)?;
            body = match clause {
                Clause::For { var, pos_var, seq } => Expr::For {
                    var,
                    pos_var,
                    seq: Box::new(seq),
                    body: Box::new(body),
                },
                Clause::Let { var, value } => Expr::Let {
                    var,
                    value: Box::new(value),
                    body: Box::new(body),
                },
                Clause::Where(cond) => Expr::If {
                    cond: Box::new(cond),
                    then_branch: Box::new(body),
                    else_branch: Box::new(Expr::EmptySequence),
                },
            };
        }
        self.spine = outer.max(links);
        Ok(body)
    }

    fn parse_quantified(&mut self) -> Result<Expr> {
        let every = self.at_keyword("every")?;
        self.next()?;
        // Multiple binders desugar into nested quantifiers.
        let outer = std::mem::take(&mut self.spine);
        let mut binders = Vec::new();
        loop {
            let var = self.expect_variable()?;
            if self.eat_keyword("as")? {
                self.parse_sequence_type()?;
            }
            self.expect_keyword("in")?;
            let seq = self.parse_expr_single()?;
            binders.push((var, seq));
            if !self.eat(&TokenKind::Comma)? {
                break;
            }
        }
        self.expect_keyword("satisfies")?;
        let mut cond = self.parse_expr_single()?;
        let mut links = self.spine;
        for (var, seq) in binders.into_iter().rev() {
            links = self.link(links)?;
            cond = Expr::Quantified {
                every,
                var,
                seq: Box::new(seq),
                cond: Box::new(cond),
            };
        }
        self.spine = outer.max(links);
        Ok(cond)
    }

    fn parse_typeswitch(&mut self) -> Result<Expr> {
        self.expect_keyword("typeswitch")?;
        self.expect(&TokenKind::LParen)?;
        let operand = self.parse_expr()?;
        self.expect(&TokenKind::RParen)?;
        let mut cases = Vec::new();
        while self.at_keyword("case")? {
            self.next()?;
            let mut var = None;
            if matches!(self.peek()?.kind, TokenKind::Variable(_)) {
                var = Some(self.expect_variable()?);
                self.expect_keyword("as")?;
            }
            let seq_type = self.parse_sequence_type()?;
            self.expect_keyword("return")?;
            let body = self.parse_expr_single()?;
            cases.push(TypeswitchCase {
                var,
                seq_type: Some(seq_type),
                body,
            });
        }
        self.expect_keyword("default")?;
        let mut default_var = None;
        if matches!(self.peek()?.kind, TokenKind::Variable(_)) {
            default_var = Some(self.expect_variable()?);
        }
        self.expect_keyword("return")?;
        let default_body = self.parse_expr_single()?;
        cases.push(TypeswitchCase {
            var: default_var,
            seq_type: None,
            body: default_body,
        });
        Ok(Expr::Typeswitch {
            operand: Box::new(operand),
            cases,
        })
    }

    fn parse_if(&mut self) -> Result<Expr> {
        self.expect_keyword("if")?;
        self.expect(&TokenKind::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(&TokenKind::RParen)?;
        self.expect_keyword("then")?;
        let then_branch = self.parse_expr_single()?;
        self.expect_keyword("else")?;
        let else_branch = self.parse_expr_single()?;
        Ok(Expr::If {
            cond: Box::new(cond),
            then_branch: Box::new(then_branch),
            else_branch: Box::new(else_branch),
        })
    }

    fn parse_or_expr(&mut self) -> Result<Expr> {
        self.parse_left_chain(Self::parse_and_expr, |p| {
            Ok(p.at_keyword("or")?.then_some(BinaryOp::Or))
        })
    }

    fn parse_and_expr(&mut self) -> Result<Expr> {
        self.parse_left_chain(Self::parse_comparison_expr, |p| {
            Ok(p.at_keyword("and")?.then_some(BinaryOp::And))
        })
    }

    fn comparison_op(&mut self) -> Result<Option<BinaryOp>> {
        let op = match &self.peek()?.kind {
            TokenKind::Eq => Some(BinaryOp::GeneralEq),
            TokenKind::Ne => Some(BinaryOp::GeneralNe),
            TokenKind::Lt => Some(BinaryOp::GeneralLt),
            TokenKind::Le => Some(BinaryOp::GeneralLe),
            TokenKind::Gt => Some(BinaryOp::GeneralGt),
            TokenKind::Ge => Some(BinaryOp::GeneralGe),
            TokenKind::Precedes => Some(BinaryOp::Precedes),
            TokenKind::Follows => Some(BinaryOp::Follows),
            TokenKind::Name(n) => match n.as_str() {
                "eq" => Some(BinaryOp::ValueEq),
                "ne" => Some(BinaryOp::ValueNe),
                "lt" => Some(BinaryOp::ValueLt),
                "le" => Some(BinaryOp::ValueLe),
                "gt" => Some(BinaryOp::ValueGt),
                "ge" => Some(BinaryOp::ValueGe),
                "is" => Some(BinaryOp::Is),
                _ => None,
            },
            _ => None,
        };
        Ok(op)
    }

    fn parse_comparison_expr(&mut self) -> Result<Expr> {
        let lhs = self.parse_range_expr()?;
        if let Some(op) = self.comparison_op()? {
            self.next()?;
            let rhs = self.parse_range_expr()?;
            return Ok(Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            });
        }
        Ok(lhs)
    }

    fn parse_range_expr(&mut self) -> Result<Expr> {
        let lhs = self.parse_additive_expr()?;
        if self.at_keyword("to")? {
            self.next()?;
            let rhs = self.parse_additive_expr()?;
            return Ok(Expr::Binary {
                op: BinaryOp::Range,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            });
        }
        Ok(lhs)
    }

    fn parse_additive_expr(&mut self) -> Result<Expr> {
        self.parse_left_chain(Self::parse_multiplicative_expr, |p| {
            Ok(match p.peek()?.kind {
                TokenKind::Plus => Some(BinaryOp::Add),
                TokenKind::Minus => Some(BinaryOp::Sub),
                _ => None,
            })
        })
    }

    fn parse_multiplicative_expr(&mut self) -> Result<Expr> {
        self.parse_left_chain(Self::parse_union_expr, |p| {
            Ok(match &p.peek()?.kind {
                TokenKind::Star => Some(BinaryOp::Mul),
                kind if kind.is_keyword("div") => Some(BinaryOp::Div),
                kind if kind.is_keyword("idiv") => Some(BinaryOp::IDiv),
                kind if kind.is_keyword("mod") => Some(BinaryOp::Mod),
                _ => None,
            })
        })
    }

    fn parse_union_expr(&mut self) -> Result<Expr> {
        self.parse_left_chain(Self::parse_intersect_except_expr, |p| {
            let union = p.at(&TokenKind::Pipe)? || p.at_keyword("union")?;
            Ok(union.then_some(BinaryOp::Union))
        })
    }

    fn parse_intersect_except_expr(&mut self) -> Result<Expr> {
        self.parse_left_chain(Self::parse_unary_expr, |p| {
            Ok(match &p.peek()?.kind {
                kind if kind.is_keyword("intersect") => Some(BinaryOp::Intersect),
                kind if kind.is_keyword("except") => Some(BinaryOp::Except),
                _ => None,
            })
        })
    }

    fn parse_unary_expr(&mut self) -> Result<Expr> {
        if self.at(&TokenKind::Minus)? {
            self.next()?;
            let expr = self.nested(Self::parse_unary_expr)?;
            return Ok(Expr::Unary {
                op: UnaryOp::Minus,
                expr: Box::new(expr),
            });
        }
        if self.at(&TokenKind::Plus)? {
            self.next()?;
            let expr = self.nested(Self::parse_unary_expr)?;
            return Ok(Expr::Unary {
                op: UnaryOp::Plus,
                expr: Box::new(expr),
            });
        }
        self.parse_path_expr()
    }

    // ------------------------------------------------------------------
    // Path expressions
    // ------------------------------------------------------------------

    fn parse_path_expr(&mut self) -> Result<Expr> {
        if self.at(&TokenKind::DoubleSlash)? {
            // `//x` ≡ root()/descendant-or-self::node()/x
            return self.parse_path_tail(Expr::RootPath { step: None }, 0);
        }
        if self.at(&TokenKind::Slash)? {
            self.next()?;
            // A bare `/` selects the root; otherwise a relative path follows.
            if self.starts_step()? {
                let (step, links) = self.measured(Self::parse_step_expr)?;
                let first = Expr::RootPath {
                    step: Some(Box::new(step)),
                };
                return self.parse_path_tail(first, links);
            }
            return Ok(Expr::RootPath { step: None });
        }
        let (first, links) = self.measured(Self::parse_step_expr)?;
        self.parse_path_tail(first, links)
    }

    /// The `/step` and `//step` links after `lhs`, whose own spine is
    /// `links` long; `//` is `/descendant-or-self::node()/`, two links.
    fn parse_path_tail(&mut self, mut lhs: Expr, mut links: usize) -> Result<Expr> {
        loop {
            if self.eat(&TokenKind::DoubleSlash)? {
                let dos = Expr::AxisStep {
                    axis: Axis::DescendantOrSelf,
                    test: NodeTest::AnyNode,
                    predicates: vec![],
                };
                links = self.link(links)?;
                lhs = Expr::Path {
                    input: Box::new(lhs),
                    step: Box::new(dos),
                };
            } else if !self.eat(&TokenKind::Slash)? {
                break;
            }
            let (step, below) = self.measured(Self::parse_step_expr)?;
            links = self.link(links.max(below))?;
            lhs = Expr::Path {
                input: Box::new(lhs),
                step: Box::new(step),
            };
        }
        self.spine = self.spine.max(links);
        Ok(lhs)
    }

    /// Can the upcoming token start a path step?  (Used after a leading `/`.)
    fn starts_step(&mut self) -> Result<bool> {
        Ok(matches!(
            self.peek()?.kind,
            TokenKind::Name(_)
                | TokenKind::Star
                | TokenKind::At
                | TokenKind::Dot
                | TokenKind::DotDot
                | TokenKind::Variable(_)
                | TokenKind::LParen
                | TokenKind::String(_)
                | TokenKind::Integer(_)
                | TokenKind::Double(_)
        ))
    }

    fn parse_step_expr(&mut self) -> Result<Expr> {
        // Axis steps begin with: axis::, @, .., *, or a plain name that is
        // not followed by '(' (function call).  Everything else is a postfix
        // (primary) expression.
        let tok = self.peek()?.clone();
        match &tok.kind {
            TokenKind::At => {
                self.next()?;
                let test = self.parse_node_test(Axis::Attribute)?;
                let predicates = self.parse_predicates()?;
                Ok(Expr::AxisStep {
                    axis: Axis::Attribute,
                    test,
                    predicates,
                })
            }
            TokenKind::DotDot => {
                self.next()?;
                let predicates = self.parse_predicates()?;
                Ok(Expr::AxisStep {
                    axis: Axis::Parent,
                    test: NodeTest::AnyNode,
                    predicates,
                })
            }
            TokenKind::Star => {
                self.next()?;
                let predicates = self.parse_predicates()?;
                Ok(Expr::AxisStep {
                    axis: Axis::Child,
                    test: NodeTest::AnyElement,
                    predicates,
                })
            }
            TokenKind::Name(name) => {
                let name = name.clone();
                self.next()?;
                // Computed constructors are primary expressions that start
                // with a keyword-like name: `element n { … }`,
                // `attribute n { … }`, `text { … }`.
                if (name == "element" || name == "attribute")
                    && matches!(self.peek()?.kind, TokenKind::Name(_))
                {
                    let ctor_name = self.expect_name()?;
                    self.expect(&TokenKind::LBrace)?;
                    let content = if self.at(&TokenKind::RBrace)? {
                        Expr::EmptySequence
                    } else {
                        self.parse_expr()?
                    };
                    self.expect(&TokenKind::RBrace)?;
                    let ctor = if name == "element" {
                        Expr::ComputedElement {
                            name: ctor_name,
                            content: Box::new(content),
                        }
                    } else {
                        Expr::ComputedAttribute {
                            name: ctor_name,
                            content: Box::new(content),
                        }
                    };
                    return self.parse_postfix_tail(ctor);
                }
                if name == "text" && self.at(&TokenKind::LBrace)? {
                    self.next()?;
                    let content = if self.at(&TokenKind::RBrace)? {
                        Expr::EmptySequence
                    } else {
                        self.parse_expr()?
                    };
                    self.expect(&TokenKind::RBrace)?;
                    return self.parse_postfix_tail(Expr::ComputedText {
                        content: Box::new(content),
                    });
                }
                // axis::test ?
                if Axis::from_name(&name).is_some() && self.at(&TokenKind::DoubleColon)? {
                    let axis = Axis::from_name(&name).expect("checked above");
                    self.next()?;
                    let test = self.parse_node_test(axis)?;
                    let predicates = self.parse_predicates()?;
                    return Ok(Expr::AxisStep {
                        axis,
                        test,
                        predicates,
                    });
                }
                // Kind test or function call: name '(' …
                if self.at(&TokenKind::LParen)? {
                    if let Some(test) = self.try_parse_kind_test(&name)? {
                        let predicates = self.parse_predicates()?;
                        return Ok(Expr::AxisStep {
                            axis: Axis::Child,
                            test,
                            predicates,
                        });
                    }
                    let call = self.parse_function_call(name)?;
                    return self.parse_postfix_tail(call);
                }
                // Plain name test on the child axis.
                let predicates = self.parse_predicates()?;
                Ok(Expr::AxisStep {
                    axis: Axis::Child,
                    test: NodeTest::Name(name),
                    predicates,
                })
            }
            _ => {
                let primary = self.parse_primary_expr()?;
                self.parse_postfix_tail(primary)
            }
        }
    }

    fn try_parse_kind_test(&mut self, name: &str) -> Result<Option<NodeTest>> {
        let test = match name {
            "node" => {
                self.expect(&TokenKind::LParen)?;
                self.expect(&TokenKind::RParen)?;
                NodeTest::AnyNode
            }
            "text" => {
                // `text { … }` is a constructor; `text(` is a kind test.
                self.expect(&TokenKind::LParen)?;
                self.expect(&TokenKind::RParen)?;
                NodeTest::Text
            }
            "comment" => {
                self.expect(&TokenKind::LParen)?;
                self.expect(&TokenKind::RParen)?;
                NodeTest::Comment
            }
            "processing-instruction" => {
                self.expect(&TokenKind::LParen)?;
                // Optional target name/string, ignored for matching.
                if !self.at(&TokenKind::RParen)? {
                    self.next()?;
                }
                self.expect(&TokenKind::RParen)?;
                NodeTest::ProcessingInstruction
            }
            "document-node" => {
                self.expect(&TokenKind::LParen)?;
                self.expect(&TokenKind::RParen)?;
                NodeTest::Document
            }
            "element" => {
                self.expect(&TokenKind::LParen)?;
                let inner = if self.at(&TokenKind::RParen)? || self.at(&TokenKind::Star)? {
                    let _ = self.eat(&TokenKind::Star)?;
                    None
                } else {
                    Some(self.expect_name()?)
                };
                self.expect(&TokenKind::RParen)?;
                NodeTest::Element(inner)
            }
            "attribute" => {
                self.expect(&TokenKind::LParen)?;
                let inner = if self.at(&TokenKind::RParen)? || self.at(&TokenKind::Star)? {
                    let _ = self.eat(&TokenKind::Star)?;
                    None
                } else {
                    Some(self.expect_name()?)
                };
                self.expect(&TokenKind::RParen)?;
                NodeTest::Attribute(inner)
            }
            _ => return Ok(None),
        };
        Ok(Some(test))
    }

    fn parse_node_test(&mut self, _axis: Axis) -> Result<NodeTest> {
        if self.eat(&TokenKind::Star)? {
            return Ok(NodeTest::AnyElement);
        }
        let name = self.expect_name()?;
        if self.at(&TokenKind::LParen)? {
            if let Some(test) = self.try_parse_kind_test(&name)? {
                return Ok(test);
            }
        }
        Ok(NodeTest::Name(name))
    }

    fn parse_predicates(&mut self) -> Result<Vec<Expr>> {
        let mut predicates = Vec::new();
        while self.at(&TokenKind::LBracket)? {
            self.next()?;
            let pred = self.parse_expr()?;
            self.expect(&TokenKind::RBracket)?;
            predicates.push(pred);
        }
        Ok(predicates)
    }

    fn parse_postfix_tail(&mut self, primary: Expr) -> Result<Expr> {
        let predicates = self.parse_predicates()?;
        if predicates.is_empty() {
            Ok(primary)
        } else {
            Ok(Expr::Filter {
                input: Box::new(primary),
                predicates,
            })
        }
    }

    // ------------------------------------------------------------------
    // Primary expressions
    // ------------------------------------------------------------------

    fn parse_primary_expr(&mut self) -> Result<Expr> {
        let tok = self.peek()?.clone();
        match &tok.kind {
            TokenKind::Integer(i) => {
                let value = *i;
                self.next()?;
                Ok(Expr::Literal(Literal::Integer(value)))
            }
            TokenKind::Double(d) => {
                let value = *d;
                self.next()?;
                Ok(Expr::Literal(Literal::Double(value)))
            }
            TokenKind::String(s) => {
                let value = s.clone();
                self.next()?;
                Ok(Expr::Literal(Literal::String(value)))
            }
            TokenKind::Variable(name) => {
                let name = name.clone();
                self.next()?;
                Ok(Expr::VarRef(name))
            }
            TokenKind::Dot => {
                self.next()?;
                Ok(Expr::ContextItem)
            }
            TokenKind::LParen => {
                self.next()?;
                if self.eat(&TokenKind::RParen)? {
                    return Ok(Expr::EmptySequence);
                }
                let inner = self.parse_expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(inner)
            }
            TokenKind::Lt => {
                // Direct element constructor if a name character follows '<'.
                let source = self.lexer.source();
                let next_char = source.as_bytes().get(tok.offset + 1).copied();
                let is_ctor = next_char
                    .map(|c| (c as char).is_ascii_alphabetic() || c == b'_')
                    .unwrap_or(false);
                if is_ctor {
                    self.parse_direct_constructor(tok.offset)
                } else {
                    Err(ParseError::new(
                        tok.offset,
                        "unexpected '<' (not a direct constructor)",
                    ))
                }
            }
            TokenKind::Name(name) => {
                let name = name.clone();
                // Computed constructors: element name { e }, attribute name { e },
                // text { e }, document { e }.
                match name.as_str() {
                    "element" | "attribute" => {
                        self.next()?;
                        let ctor_name = self.expect_name()?;
                        self.expect(&TokenKind::LBrace)?;
                        let content = if self.at(&TokenKind::RBrace)? {
                            Expr::EmptySequence
                        } else {
                            self.parse_expr()?
                        };
                        self.expect(&TokenKind::RBrace)?;
                        if name == "element" {
                            Ok(Expr::ComputedElement {
                                name: ctor_name,
                                content: Box::new(content),
                            })
                        } else {
                            Ok(Expr::ComputedAttribute {
                                name: ctor_name,
                                content: Box::new(content),
                            })
                        }
                    }
                    "text" => {
                        self.next()?;
                        self.expect(&TokenKind::LBrace)?;
                        let content = if self.at(&TokenKind::RBrace)? {
                            Expr::EmptySequence
                        } else {
                            self.parse_expr()?
                        };
                        self.expect(&TokenKind::RBrace)?;
                        Ok(Expr::ComputedText {
                            content: Box::new(content),
                        })
                    }
                    _ => {
                        self.next()?;
                        if self.at(&TokenKind::LParen)? {
                            self.parse_function_call(name)
                        } else {
                            Err(ParseError::new(
                                tok.offset,
                                format!("unexpected name '{name}' in expression position"),
                            ))
                        }
                    }
                }
            }
            other => Err(ParseError::new(
                tok.offset,
                format!("unexpected {other} in expression position"),
            )),
        }
    }

    fn parse_function_call(&mut self, name: String) -> Result<Expr> {
        self.expect(&TokenKind::LParen)?;
        let mut args = Vec::new();
        if !self.at(&TokenKind::RParen)? {
            loop {
                args.push(self.parse_expr_single()?);
                if !self.eat(&TokenKind::Comma)? {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(Expr::FunctionCall { name, args })
    }

    // ------------------------------------------------------------------
    // Direct element constructors (raw character mode)
    // ------------------------------------------------------------------

    fn parse_direct_constructor(&mut self, lt_offset: usize) -> Result<Expr> {
        // Rewind the lexer to the '<' and drop the buffered token.
        self.peeked = None;
        self.lexer.set_pos(lt_offset);
        self.parse_direct_element_raw()
    }

    fn parse_direct_element_raw(&mut self) -> Result<Expr> {
        let start = self.lexer.pos();
        if !self.lexer.raw_eat("<") {
            return Err(ParseError::new(start, "expected '<'"));
        }
        let name = self.lexer.raw_name()?;
        let mut attributes = Vec::new();

        loop {
            self.skip_raw_ws();
            if self.lexer.raw_eat("/>") {
                return Ok(Expr::DirectElement {
                    name,
                    attributes,
                    content: Vec::new(),
                });
            }
            if self.lexer.raw_eat(">") {
                break;
            }
            let attr_name = self.lexer.raw_name()?;
            self.skip_raw_ws();
            if !self.lexer.raw_eat("=") {
                return Err(ParseError::new(
                    self.lexer.pos(),
                    "expected '=' in attribute",
                ));
            }
            self.skip_raw_ws();
            let quote = match self.lexer.raw_peek() {
                Some(q @ (b'"' | b'\'')) => q as char,
                _ => {
                    return Err(ParseError::new(
                        self.lexer.pos(),
                        "expected quoted attribute value",
                    ))
                }
            };
            self.lexer.raw_bump();
            let parts = self.parse_constructor_parts(Some(quote))?;
            attributes.push((attr_name, parts));
        }

        // Element content.
        let mut content = Vec::new();
        loop {
            if self.lexer.raw_starts_with("</") {
                self.lexer.raw_eat("</");
                let close = self.lexer.raw_name()?;
                if close != name {
                    return Err(ParseError::new(
                        self.lexer.pos(),
                        format!("mismatched constructor tags: <{name}> closed by </{close}>"),
                    ));
                }
                self.skip_raw_ws();
                if !self.lexer.raw_eat(">") {
                    return Err(ParseError::new(self.lexer.pos(), "expected '>'"));
                }
                break;
            }
            if self.lexer.raw_starts_with("<!--") {
                // Skip comments inside constructors.
                self.lexer.raw_eat("<!--");
                while !self.lexer.raw_starts_with("-->") {
                    if self.lexer.raw_peek().is_none() {
                        return Err(ParseError::new(self.lexer.pos(), "unterminated comment"));
                    }
                    self.lexer.raw_bump();
                }
                self.lexer.raw_eat("-->");
                continue;
            }
            if self.lexer.raw_starts_with("<") {
                let nested = self.nested(Self::parse_direct_element_raw)?;
                content.push(ConstructorContent::Expr(nested));
                continue;
            }
            if self.lexer.raw_peek().is_none() {
                return Err(ParseError::new(
                    self.lexer.pos(),
                    format!("unterminated element constructor <{name}>"),
                ));
            }
            let mut parts = self.parse_constructor_parts(None)?;
            content.append(&mut parts);
        }

        Ok(Expr::DirectElement {
            name,
            attributes,
            content,
        })
    }

    /// Parse text / enclosed-expression parts.  With `Some(quote)` this is an
    /// attribute value (terminated by the quote); with `None` it is element
    /// content (terminated by `<`, which is left unconsumed).
    fn parse_constructor_parts(&mut self, quote: Option<char>) -> Result<Vec<ConstructorContent>> {
        let mut parts = Vec::new();
        let mut text = String::new();
        loop {
            match self.lexer.raw_peek() {
                None => {
                    if quote.is_some() {
                        return Err(ParseError::new(
                            self.lexer.pos(),
                            "unterminated attribute value",
                        ));
                    }
                    break;
                }
                Some(c) if quote == Some(c as char) => {
                    self.lexer.raw_bump();
                    break;
                }
                Some(b'<') if quote.is_none() => break,
                Some(b'{') => {
                    if self.lexer.raw_starts_with("{{") {
                        self.lexer.raw_eat("{{");
                        text.push('{');
                        continue;
                    }
                    self.flush_ctor_text(&mut text, &mut parts, quote.is_some());
                    self.lexer.raw_eat("{");
                    // Token mode for the enclosed expression.
                    let expr = self.parse_expr()?;
                    self.expect(&TokenKind::RBrace)?;
                    // `expect` may have pulled the token after '}' into the
                    // buffer — push it back so raw parsing resumes correctly.
                    if let Some(tok) = self.peeked.take() {
                        self.lexer.set_pos(tok.offset);
                    }
                    parts.push(ConstructorContent::Expr(expr));
                }
                Some(b'}') => {
                    if self.lexer.raw_starts_with("}}") {
                        self.lexer.raw_eat("}}");
                        text.push('}');
                    } else {
                        return Err(ParseError::new(
                            self.lexer.pos(),
                            "'}' must be escaped as '}}' in constructor content",
                        ));
                    }
                }
                Some(b'&') => {
                    // Minimal entity support in constructor content.
                    let rest = &self.lexer.source()[self.lexer.pos()..];
                    let decoded = ["amp;", "lt;", "gt;", "quot;", "apos;"]
                        .iter()
                        .zip(['&', '<', '>', '"', '\''])
                        .find(|(ent, _)| rest[1..].starts_with(**ent));
                    match decoded {
                        Some((ent, ch)) => {
                            text.push(ch);
                            for _ in 0..ent.len() + 1 {
                                self.lexer.raw_bump();
                            }
                        }
                        None => {
                            text.push('&');
                            self.lexer.raw_bump();
                        }
                    }
                }
                Some(c) => {
                    text.push(c as char);
                    self.lexer.raw_bump();
                }
            }
        }
        self.flush_ctor_text(&mut text, &mut parts, quote.is_some());
        Ok(parts)
    }

    fn flush_ctor_text(
        &self,
        text: &mut String,
        parts: &mut Vec<ConstructorContent>,
        keep_whitespace: bool,
    ) {
        if text.is_empty() {
            return;
        }
        // Boundary whitespace in element content is stripped (default XQuery
        // behaviour); attribute values keep their whitespace.
        if !keep_whitespace && text.chars().all(char::is_whitespace) {
            text.clear();
            return;
        }
        parts.push(ConstructorContent::Text(std::mem::take(text)));
    }

    fn skip_raw_ws(&mut self) {
        while let Some(c) = self.lexer.raw_peek() {
            if c.is_ascii_whitespace() {
                self.lexer.raw_bump();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_literals_and_sequences() {
        assert_eq!(
            parse_expr("1, 'a', 2.5").unwrap(),
            Expr::Sequence(vec![
                Expr::Literal(Literal::Integer(1)),
                Expr::Literal(Literal::String("a".into())),
                Expr::Literal(Literal::Double(2.5)),
            ])
        );
        assert_eq!(parse_expr("()").unwrap(), Expr::EmptySequence);
    }

    #[test]
    fn parses_arithmetic_with_precedence() {
        let expr = parse_expr("1 + 2 * 3").unwrap();
        match expr {
            Expr::Binary {
                op: BinaryOp::Add,
                rhs,
                ..
            } => match *rhs {
                Expr::Binary {
                    op: BinaryOp::Mul, ..
                } => {}
                other => panic!("expected multiplication on the right, got {other:?}"),
            },
            other => panic!("expected addition at the top, got {other:?}"),
        }
    }

    #[test]
    fn parses_flwor_with_where() {
        let expr = parse_expr(
            "for $c in doc('c.xml')//course let $p := $c/prerequisites where count($p) > 0 return $c",
        )
        .unwrap();
        match expr {
            Expr::For { var, body, .. } => {
                assert_eq!(var, "c");
                match *body {
                    Expr::Let { var, body, .. } => {
                        assert_eq!(var, "p");
                        assert!(matches!(*body, Expr::If { .. }));
                    }
                    other => panic!("expected let, got {other:?}"),
                }
            }
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn parses_fixpoint_form() {
        let expr = parse_expr(
            "with $x seeded by doc('curriculum.xml')/curriculum/course[@code='c1'] \
             recurse $x/id(./prerequisites/pre_code)",
        )
        .unwrap();
        match expr {
            Expr::Fixpoint { var, seed, body } => {
                assert_eq!(var, "x");
                assert!(matches!(*seed, Expr::Path { .. }));
                assert!(body.has_free_var("x"));
            }
            other => panic!("expected fixpoint, got {other:?}"),
        }
    }

    #[test]
    fn parses_paths_axes_and_predicates() {
        let expr = parse_expr("$doc//open_auction[seller/@person = $id]/bidder/personref").unwrap();
        // Just check the overall shape: a Path whose innermost input is $doc.
        let mut found_var = false;
        expr.walk(&mut |e| {
            if matches!(e, Expr::VarRef(v) if v == "doc") {
                found_var = true;
            }
        });
        assert!(found_var);

        let expr = parse_expr("$x/self::a").unwrap();
        match expr {
            Expr::Path { step, .. } => match *step {
                Expr::AxisStep { axis, test, .. } => {
                    assert_eq!(axis, Axis::SelfAxis);
                    assert_eq!(test, NodeTest::Name("a".into()));
                }
                other => panic!("expected axis step, got {other:?}"),
            },
            other => panic!("expected path, got {other:?}"),
        }
    }

    #[test]
    fn double_slash_desugars_to_descendant_or_self() {
        let expr = parse_expr("$d//person").unwrap();
        let mut saw_dos = false;
        expr.walk(&mut |e| {
            if let Expr::AxisStep { axis, .. } = e {
                if *axis == Axis::DescendantOrSelf {
                    saw_dos = true;
                }
            }
        });
        assert!(saw_dos);
    }

    #[test]
    fn parses_function_call_as_path_step() {
        let expr = parse_expr("$cs/id(./prerequisites/pre_code)").unwrap();
        match expr {
            Expr::Path { step, .. } => match *step {
                Expr::FunctionCall { name, args } => {
                    assert_eq!(name, "id");
                    assert_eq!(args.len(), 1);
                }
                other => panic!("expected function call step, got {other:?}"),
            },
            other => panic!("expected path, got {other:?}"),
        }
    }

    #[test]
    fn parses_if_and_quantified() {
        let expr = parse_expr("if (empty($x)) then 1 else 2").unwrap();
        assert!(matches!(expr, Expr::If { .. }));

        let expr = parse_expr("some $y in $x satisfies $y/@id = 'a'").unwrap();
        assert!(matches!(expr, Expr::Quantified { every: false, .. }));

        let expr = parse_expr("every $y in $x, $z in $y satisfies $z").unwrap();
        match expr {
            Expr::Quantified {
                every: true, cond, ..
            } => {
                assert!(matches!(*cond, Expr::Quantified { every: true, .. }));
            }
            other => panic!("expected nested quantified, got {other:?}"),
        }
    }

    #[test]
    fn parses_typeswitch() {
        let expr = parse_expr(
            "typeswitch ($x) case element(a) return 1 case $v as text() return 2 default return 3",
        )
        .unwrap();
        match expr {
            Expr::Typeswitch { cases, .. } => {
                assert_eq!(cases.len(), 3);
                assert!(cases[2].seq_type.is_none());
                assert_eq!(cases[1].var.as_deref(), Some("v"));
            }
            other => panic!("expected typeswitch, got {other:?}"),
        }
    }

    #[test]
    fn parses_set_operations_and_comparisons() {
        let expr = parse_expr("$a union $b except $c").unwrap();
        assert!(matches!(
            expr,
            Expr::Binary {
                op: BinaryOp::Union,
                ..
            }
        ));
        let expr = parse_expr("$a = $b").unwrap();
        assert!(matches!(
            expr,
            Expr::Binary {
                op: BinaryOp::GeneralEq,
                ..
            }
        ));
        let expr = parse_expr("$a is $b").unwrap();
        assert!(matches!(
            expr,
            Expr::Binary {
                op: BinaryOp::Is,
                ..
            }
        ));
    }

    #[test]
    fn parses_direct_constructor_with_enclosed_exprs() {
        let expr = parse_expr(
            "<person id=\"{ $p/@id }\">\n  { $p/name }\n  <tag>literal</tag>\n</person>",
        )
        .unwrap();
        match expr {
            Expr::DirectElement {
                name,
                attributes,
                content,
            } => {
                assert_eq!(name, "person");
                assert_eq!(attributes.len(), 1);
                assert_eq!(attributes[0].0, "id");
                assert!(matches!(attributes[0].1[0], ConstructorContent::Expr(_)));
                // Whitespace-only runs dropped: expr + nested element remain.
                assert_eq!(content.len(), 2);
            }
            other => panic!("expected direct element, got {other:?}"),
        }
    }

    #[test]
    fn parses_computed_constructors() {
        let expr = parse_expr("element person { $p/@id }").unwrap();
        assert!(matches!(expr, Expr::ComputedElement { .. }));
        let expr = parse_expr("text { 'c' }").unwrap();
        assert!(matches!(expr, Expr::ComputedText { .. }));
        let expr = parse_expr("attribute id { 4 }").unwrap();
        assert!(matches!(expr, Expr::ComputedAttribute { .. }));
    }

    #[test]
    fn parses_module_with_functions() {
        let module = parse_query(
            "declare function rec ($cs) as node()* { $cs/id(./prerequisites/pre_code) };\n\
             declare function fix ($x) as node()* {\n\
               let $res := rec($x) return if (empty($x except $res)) then $res else fix($res union $x)\n\
             };\n\
             let $seed := doc('curriculum.xml')/curriculum/course[@code='c1']\n\
             return fix(rec($seed))",
        )
        .unwrap();
        assert_eq!(module.functions.len(), 2);
        assert_eq!(module.functions[0].name, "rec");
        assert_eq!(module.functions[1].params, vec!["x".to_string()]);
        assert!(matches!(module.body, Expr::Let { .. }));
    }

    #[test]
    fn parses_declared_variables() {
        let module =
            parse_query("declare variable $doc := doc('auction.xml');\n$doc//person").unwrap();
        assert_eq!(module.variables.len(), 1);
        assert_eq!(module.variables[0].0, "doc");
    }

    #[test]
    fn paper_query_q2_parses() {
        let expr = parse_expr(
            "let $seed := (<a/>,<b><c><d/></c></b>)\n\
             return with $x seeded by $seed\n\
             recurse if (count($x/self::a)) then $x/* else ()",
        )
        .unwrap();
        match expr {
            Expr::Let { value, body, .. } => {
                assert!(matches!(*value, Expr::Sequence(_)));
                assert!(body.is_fixpoint());
            }
            other => panic!("expected let, got {other:?}"),
        }
    }

    #[test]
    fn reports_errors_for_malformed_input() {
        assert!(parse_expr("for $x in").is_err());
        assert!(parse_expr("if (1) then 2").is_err());
        assert!(parse_expr("with $x seeded $y recurse $x").is_err());
        assert!(parse_expr("1 +").is_err());
        assert!(parse_expr("$x[").is_err());
        assert!(parse_expr("<a><b></a>").is_err());
        // A prolog without a main expression is not a complete query.
        assert!(parse_query("declare function f() { 1 }").is_err());
        assert!(parse_expr("order by").is_err());
    }

    #[test]
    fn trailing_tokens_are_rejected() {
        assert!(parse_expr("1 2").is_err());
        assert!(parse_expr("$x $y").is_err());
    }
}
