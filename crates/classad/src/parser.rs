//! Recursive-descent parser for expressions and classad records.

use std::fmt;

use crate::ad::ClassAd;
use crate::expr::{AttrScope, BinOp, Expr, UnOp};
use crate::token::{lex, LexError, Token};
use crate::value::Value;

/// Parse failure.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
}

impl ParseError {
    fn new(msg: impl Into<String>) -> Self {
        ParseError {
            message: msg.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::new(e.to_string())
    }
}

/// Deepest expression nesting the parser accepts: each parenthesis, list,
/// call argument, conditional branch, prefix operator and chained binary
/// operator is one level. The parser, the evaluator and `Drop` recurse
/// once per level, so the bound keeps hostile input from overflowing the
/// stack.
pub const MAX_DEPTH: usize = 128;

/// Parse a single expression from source text.
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let mut p = Parser::new(lex(src)?);
    let e = p.expr()?;
    p.expect_end()?;
    Ok(e)
}

/// Parse a classad record: `[ name = expr; ... ]`. A trailing semicolon is
/// optional, matching common classad serializations.
pub fn parse_classad(src: &str) -> Result<ClassAd, ParseError> {
    let mut p = Parser::new(lex(src)?);
    let ad = p.classad()?;
    p.expect_end()?;
    Ok(ad)
}

/// Binary operators from loosest to tightest binding.
const PRECEDENCE: [&[(Token, BinOp)]; 6] = [
    &[(Token::Or, BinOp::Or)],
    &[(Token::And, BinOp::And)],
    &[
        (Token::Eq, BinOp::Eq),
        (Token::Ne, BinOp::Ne),
        (Token::MetaEq, BinOp::MetaEq),
        (Token::MetaNe, BinOp::MetaNe),
    ],
    &[
        (Token::Lt, BinOp::Lt),
        (Token::Le, BinOp::Le),
        (Token::Gt, BinOp::Gt),
        (Token::Ge, BinOp::Ge),
    ],
    &[(Token::Plus, BinOp::Add), (Token::Minus, BinOp::Sub)],
    &[
        (Token::Star, BinOp::Mul),
        (Token::Slash, BinOp::Div),
        (Token::Percent, BinOp::Mod),
    ],
];

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting levels entered and not yet left (see [`MAX_DEPTH`]). A
    /// failed parse is abandoned, so error paths need not leave.
    depth: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Parser {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
        }
    }

    /// Go one nesting level deeper, failing past [`MAX_DEPTH`].
    fn enter(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(ParseError::new(format!(
                "expression nested deeper than {MAX_DEPTH} levels"
            )));
        }
        self.depth += 1;
        Ok(())
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Token) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Token) -> Result<(), ParseError> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(ParseError::new(format!(
                "expected '{tok}', found {}",
                self.describe_here()
            )))
        }
    }

    fn expect_end(&self) -> Result<(), ParseError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(ParseError::new(format!(
                "trailing input: {}",
                self.describe_here()
            )))
        }
    }

    fn describe_here(&self) -> String {
        match self.peek() {
            Some(t) => format!("'{t}'"),
            None => "end of input".into(),
        }
    }

    fn classad(&mut self) -> Result<ClassAd, ParseError> {
        self.expect(&Token::LBracket)?;
        let mut ad = ClassAd::new();
        loop {
            if self.eat(&Token::RBracket) {
                return Ok(ad);
            }
            let name = match self.next() {
                Some(Token::Ident(name)) => name,
                other => {
                    return Err(ParseError::new(format!(
                        "expected attribute name, found {:?}",
                        other.map(|t| t.to_string())
                    )))
                }
            };
            self.expect(&Token::Assign)?;
            let value = self.expr()?;
            ad.set(name, value);
            if !self.eat(&Token::Semi) {
                self.expect(&Token::RBracket)?;
                return Ok(ad);
            }
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.enter()?;
        let cond = self.binary(0)?;
        let e = if self.eat(&Token::Question) {
            let then_e = self.expr()?;
            self.expect(&Token::Colon)?;
            let else_e = self.expr()?;
            Expr::Cond(Box::new(cond), Box::new(then_e), Box::new(else_e))
        } else {
            cond
        };
        self.depth -= 1;
        Ok(e)
    }

    /// Binary operators at precedence `level` and tighter: `operand (op
    /// operand)*`, left-associative, each chained operator one nesting
    /// level deeper.
    fn binary(&mut self, level: usize) -> Result<Expr, ParseError> {
        let Some(ops) = PRECEDENCE.get(level) else {
            return self.unary_expr();
        };
        let base = self.depth;
        let mut lhs = self.binary(level + 1)?;
        while let Some(&(_, op)) = ops.iter().find(|(tok, _)| self.peek() == Some(tok)) {
            self.pos += 1;
            self.enter()?;
            let rhs = self.binary(level + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        self.depth = base;
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&Token::Not) {
            self.enter()?;
            let inner = self.unary_expr()?;
            self.depth -= 1;
            return Ok(Expr::Unary(UnOp::Not, Box::new(inner)));
        }
        if self.eat(&Token::Minus) {
            // Fold negation into numeric literals so "-5" is a literal.
            self.enter()?;
            let inner = self.unary_expr()?;
            self.depth -= 1;
            return Ok(match inner {
                Expr::Lit(Value::Int(i)) => Expr::Lit(Value::Int(-i)),
                Expr::Lit(Value::Real(r)) => Expr::Lit(Value::Real(-r)),
                other => Expr::Unary(UnOp::Neg, Box::new(other)),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.next() {
            Some(Token::Int(i)) => Ok(Expr::Lit(Value::Int(i))),
            Some(Token::Real(r)) => Ok(Expr::Lit(Value::Real(r))),
            Some(Token::Str(s)) => Ok(Expr::Lit(Value::Str(s))),
            Some(Token::LParen) => {
                let e = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::LBrace) => {
                let mut items = Vec::new();
                if self.eat(&Token::RBrace) {
                    return Ok(Expr::List(items));
                }
                loop {
                    items.push(self.expr()?);
                    if self.eat(&Token::RBrace) {
                        return Ok(Expr::List(items));
                    }
                    self.expect(&Token::Comma)?;
                }
            }
            Some(Token::Ident(name)) => self.ident_continuation(name),
            other => Err(ParseError::new(format!(
                "expected expression, found {:?}",
                other.map(|t| t.to_string())
            ))),
        }
    }

    fn ident_continuation(&mut self, name: String) -> Result<Expr, ParseError> {
        // Keyword literals.
        match name.to_ascii_lowercase().as_str() {
            "true" => return Ok(Expr::Lit(Value::Bool(true))),
            "false" => return Ok(Expr::Lit(Value::Bool(false))),
            "undefined" => return Ok(Expr::Lit(Value::Undefined)),
            "error" => return Ok(Expr::Lit(Value::Err)),
            _ => {}
        }
        // Scoped attribute reference: my.x / self.x / other.x / target.x.
        if self.peek() == Some(&Token::Dot) {
            let scope = match name.to_ascii_lowercase().as_str() {
                "my" | "self" => Some(AttrScope::My),
                "other" | "target" => Some(AttrScope::Other),
                _ => None,
            };
            if let Some(scope) = scope {
                self.pos += 1; // consume '.'
                match self.next() {
                    Some(Token::Ident(attr)) => return Ok(Expr::Attr(scope, attr)),
                    other => {
                        return Err(ParseError::new(format!(
                            "expected attribute after '{name}.', found {:?}",
                            other.map(|t| t.to_string())
                        )))
                    }
                }
            }
            return Err(ParseError::new(format!(
                "'.' may only follow my/self/other/target, not '{name}'"
            )));
        }
        // Function call.
        if self.peek() == Some(&Token::LParen) {
            self.pos += 1;
            let mut args = Vec::new();
            if self.eat(&Token::RParen) {
                return Ok(Expr::Call(name, args));
            }
            loop {
                args.push(self.expr()?);
                if self.eat(&Token::RParen) {
                    return Ok(Expr::Call(name, args));
                }
                self.expect(&Token::Comma)?;
            }
        }
        Ok(Expr::Attr(AttrScope::Current, name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_record() {
        let ad = parse_classad(
            r#"[
                vmid = "vm-1";
                memory_mb = 64;
                cost = memory_mb * 2 + 10;
                tags = {"grid", "invigo"};
            ]"#,
        )
        .unwrap();
        assert_eq!(ad.len(), 4);
        assert_eq!(ad.eval("cost"), Value::Int(138));
        assert_eq!(
            ad.eval("tags"),
            Value::List(vec![Value::str("grid"), Value::str("invigo")])
        );
    }

    #[test]
    fn empty_record_and_optional_trailing_semi() {
        assert_eq!(parse_classad("[]").unwrap().len(), 0);
        assert_eq!(parse_classad("[a = 1]").unwrap().len(), 1);
        assert_eq!(parse_classad("[a = 1;]").unwrap().len(), 1);
    }

    #[test]
    fn precedence_binds_correctly() {
        let e = parse_expr("1 + 2 * 3 == 7 && true").unwrap();
        assert_eq!(
            e.eval_solo(&crate::ad::ClassAd::new()),
            Value::Bool(true)
        );
        let e = parse_expr("(1 + 2) * 3").unwrap();
        assert_eq!(e.eval_solo(&crate::ad::ClassAd::new()), Value::Int(9));
    }

    #[test]
    fn scoped_attributes() {
        assert_eq!(
            parse_expr("my.mem").unwrap(),
            Expr::Attr(AttrScope::My, "mem".into())
        );
        assert_eq!(
            parse_expr("self.mem").unwrap(),
            Expr::Attr(AttrScope::My, "mem".into())
        );
        assert_eq!(
            parse_expr("other.mem").unwrap(),
            Expr::Attr(AttrScope::Other, "mem".into())
        );
        assert_eq!(
            parse_expr("target.mem").unwrap(),
            Expr::Attr(AttrScope::Other, "mem".into())
        );
        assert!(parse_expr("foo.bar").is_err());
    }

    #[test]
    fn keyword_literals_case_insensitive() {
        assert_eq!(parse_expr("TRUE").unwrap(), Expr::Lit(Value::Bool(true)));
        assert_eq!(
            parse_expr("Undefined").unwrap(),
            Expr::Lit(Value::Undefined)
        );
        assert_eq!(parse_expr("ERROR").unwrap(), Expr::Lit(Value::Err));
    }

    #[test]
    fn negative_literals_fold() {
        assert_eq!(parse_expr("-5").unwrap(), Expr::Lit(Value::Int(-5)));
        assert_eq!(parse_expr("-2.5").unwrap(), Expr::Lit(Value::Real(-2.5)));
    }

    #[test]
    fn call_with_zero_args() {
        assert_eq!(
            parse_expr("now()").unwrap(),
            Expr::Call("now".into(), vec![])
        );
    }

    #[test]
    fn error_messages_are_informative() {
        let err = parse_expr("1 +").unwrap_err();
        assert!(err.message.contains("expected expression"), "{err}");
        let err = parse_expr("(1").unwrap_err();
        assert!(err.message.contains("expected ')'"), "{err}");
        let err = parse_expr("1 2").unwrap_err();
        assert!(err.message.contains("trailing"), "{err}");
        let err = parse_classad("[1 = 2]").unwrap_err();
        assert!(err.message.contains("attribute name"), "{err}");
    }

    #[test]
    fn nesting_is_bounded() {
        let parens = |depth: usize| format!("{}1{}", "(".repeat(depth), ")".repeat(depth));
        // The whole expression is one level, each parenthesis another.
        assert_eq!(parse_expr(&parens(MAX_DEPTH - 1)).unwrap(), Expr::lit(1i64));
        let err = parse_expr(&parens(MAX_DEPTH)).unwrap_err();
        assert!(err.message.contains("nested deeper than"), "{err}");
        // Far past the bound: an error, not a stack overflow.
        for deep in [
            "(".repeat(200_000),
            format!("{}1", "!".repeat(200_000)),
            format!("{}1", "-".repeat(200_000)),
            "a ? b : ".repeat(200_000) + "c",
            "a + ".repeat(200_000) + "1",
            "a && b || ".repeat(200_000) + "c",
            format!("{{{}", "f(".repeat(200_000)),
        ] {
            let err = parse_expr(&deep).unwrap_err();
            assert!(err.message.contains("nested deeper than"), "{err}");
            assert!(parse_classad(&format!("[a = {deep}]")).is_err());
        }
    }

    #[test]
    fn record_round_trip() {
        let src = r#"[ a = 1; b = "x"; c = a + 2; d = {1, 2.5, "s"}; req = other.mem >= my.mem ]"#;
        let ad = parse_classad(src).unwrap();
        let printed = ad.to_string();
        let ad2 = parse_classad(&printed).unwrap();
        assert_eq!(ad, ad2);
    }
}
