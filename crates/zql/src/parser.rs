//! Recursive-descent parser for the ZQL fragment.

use crate::ast::{AstBinding, AstCmp, AstExpr, AstLit, AstQuery, AstSource};
use crate::lexer::{Lexer, Spanned, Token};
use crate::ZqlError;

/// Parses a ZQL query.
pub fn parse(src: &str) -> Result<AstQuery, ZqlError> {
    let tokens = Lexer::new(src).tokenize()?;
    let mut p = Parser { tokens, i: 0 };
    let q = p.query()?;
    p.eat_if(&Token::Semi);
    p.expect_eof()?;
    Ok(q)
}

struct Parser {
    tokens: Vec<Spanned>,
    i: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.i].tok
    }

    fn pos(&self) -> usize {
        self.tokens[self.i].pos
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.i].tok.clone();
        if self.i + 1 < self.tokens.len() {
            self.i += 1;
        }
        t
    }

    fn eat_if(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_token(&mut self, t: &Token, what: &str) -> Result<(), ZqlError> {
        if !self.eat_if(t) {
            return Err(ZqlError::new(
                format!("expected {what}, found {:?}", self.peek()),
                Some(self.pos()),
            ));
        }
        Ok(())
    }

    fn expect_eof(&self) -> Result<(), ZqlError> {
        if *self.peek() != Token::Eof {
            return Err(ZqlError::new(
                format!("trailing input: {:?}", self.peek()),
                Some(self.pos()),
            ));
        }
        Ok(())
    }

    /// Case-insensitive keyword check.
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ZqlError> {
        if !self.eat_kw(kw) {
            return Err(ZqlError::new(
                format!("expected {kw}, found {:?}", self.peek()),
                Some(self.pos()),
            ));
        }
        Ok(())
    }

    fn ident(&mut self, what: &str) -> Result<String, ZqlError> {
        match self.peek().clone() {
            Token::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(ZqlError::new(
                format!("expected {what}, found {other:?}"),
                Some(self.pos()),
            )),
        }
    }

    /// The steps of a path after its base: `.ident`, each optionally
    /// followed by `()`.
    fn path_steps(&mut self) -> Result<Vec<String>, ZqlError> {
        let mut steps = Vec::new();
        while self.eat_if(&Token::Dot) {
            steps.push(self.ident("path step")?);
            if self.eat_if(&Token::LParen) {
                self.expect_token(&Token::RParen, "')'")?;
            }
        }
        Ok(steps)
    }

    fn query(&mut self) -> Result<AstQuery, ZqlError> {
        self.expect_kw("SELECT")?;
        let (select, new_object) = self.select_list()?;
        self.expect_kw("FROM")?;
        let mut from = vec![self.binding()?];
        while self.eat_if(&Token::Comma) {
            from.push(self.binding()?);
        }
        let where_ = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let order_by = if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            let base = self.ident("order-by path")?;
            let steps = self.path_steps()?;
            if steps.is_empty() {
                return Err(ZqlError::new(
                    "ORDER BY needs an attribute path (e.g. c.population())",
                    Some(self.pos()),
                ));
            }
            Some((base, steps))
        } else {
            None
        };
        Ok(AstQuery {
            select,
            new_object,
            from,
            where_,
            order_by,
        })
    }

    fn select_list(&mut self) -> Result<(Vec<AstExpr>, bool), ZqlError> {
        if self.eat_kw("Newobject") {
            self.expect_token(&Token::LParen, "'('")?;
            let mut items = vec![self.expr()?];
            while self.eat_if(&Token::Comma) {
                items.push(self.expr()?);
            }
            self.expect_token(&Token::RParen, "')'")?;
            return Ok((items, true));
        }
        let mut items = vec![self.expr()?];
        while self.peek() == &Token::Comma {
            // Lookahead: a comma might start the next SELECT item or be a
            // syntax error before FROM; the grammar keeps it simple —
            // commas always continue the list.
            self.bump();
            items.push(self.expr()?);
        }
        Ok((items, false))
    }

    fn binding(&mut self) -> Result<AstBinding, ZqlError> {
        // Either `Type var IN source` or `var IN source`.
        let first = self.ident("range variable or type")?;
        let (ty, var) = if self.at_kw("IN") {
            (None, first)
        } else {
            (Some(first), self.ident("range variable")?)
        };
        self.expect_kw("IN")?;
        // Source: identifier, optionally followed by a path.
        let base = self.ident("collection or path")?;
        let steps = self.path_steps()?;
        let source = if steps.is_empty() {
            AstSource::Collection(base)
        } else {
            AstSource::Path { base, steps }
        };
        Ok(AstBinding { ty, var, source })
    }

    fn expr(&mut self) -> Result<AstExpr, ZqlError> {
        let mut left = self.cmp()?;
        while self.eat_if(&Token::AndAnd) {
            let right = self.cmp()?;
            left = AstExpr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn cmp(&mut self) -> Result<AstExpr, ZqlError> {
        let left = self.primary()?;
        let op = match self.peek() {
            Token::EqEq => AstCmp::Eq,
            Token::Ne => AstCmp::Ne,
            Token::Lt => AstCmp::Lt,
            Token::Le => AstCmp::Le,
            Token::Gt => AstCmp::Gt,
            Token::Ge => AstCmp::Ge,
            _ => return Ok(left),
        };
        self.bump();
        let right = self.primary()?;
        Ok(AstExpr::Cmp {
            left: Box::new(left),
            op,
            right: Box::new(right),
        })
    }

    fn primary(&mut self) -> Result<AstExpr, ZqlError> {
        // EXISTS ( subquery )
        if self.at_kw("EXISTS") {
            self.bump();
            self.expect_token(&Token::LParen, "'('")?;
            let q = self.query()?;
            self.expect_token(&Token::RParen, "')'")?;
            return Ok(AstExpr::Exists(Box::new(q)));
        }
        // Date(y, m, d)
        if self.at_kw("Date") {
            self.bump();
            self.expect_token(&Token::LParen, "'('")?;
            let y = self.int_lit()?;
            self.expect_token(&Token::Comma, "','")?;
            let m = self.int_lit()?;
            self.expect_token(&Token::Comma, "','")?;
            let d = self.int_lit()?;
            self.expect_token(&Token::RParen, "')'")?;
            return Ok(AstExpr::Lit(AstLit::Date(y as i32, m as u32, d as u32)));
        }
        if self.at_kw("true") {
            self.bump();
            return Ok(AstExpr::Lit(AstLit::Bool(true)));
        }
        if self.at_kw("false") {
            self.bump();
            return Ok(AstExpr::Lit(AstLit::Bool(false)));
        }
        match self.peek().clone() {
            Token::Int(v) => {
                self.bump();
                Ok(AstExpr::Lit(AstLit::Int(v)))
            }
            Token::Float(v) => {
                self.bump();
                Ok(AstExpr::Lit(AstLit::Float(v)))
            }
            Token::Str(s) => {
                self.bump();
                Ok(AstExpr::Lit(AstLit::Str(s)))
            }
            Token::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect_token(&Token::RParen, "')'")?;
                Ok(e)
            }
            Token::Ident(base) => {
                self.bump();
                let steps = self.path_steps()?;
                Ok(AstExpr::Path { base, steps })
            }
            other => Err(ZqlError::new(
                format!("expected expression, found {other:?}"),
                Some(self.pos()),
            )),
        }
    }

    fn int_lit(&mut self) -> Result<i64, ZqlError> {
        match self.peek().clone() {
            Token::Int(v) => {
                self.bump();
                Ok(v)
            }
            other => Err(ZqlError::new(
                format!("expected integer, found {other:?}"),
                Some(self.pos()),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure1_query() {
        // The paper's Figure 1 query (with the Date ADT inlined).
        let q = parse(
            r#"SELECT Newobject( e.name(), d.name() )
               FROM Employee e IN Employees, Department d IN Departments
               WHERE d.floor() == 3 && e.age() >= 32
                 && e.last_raise() >= Date(1992, 1, 1)
                 && e.department() == d ;"#,
        )
        .unwrap();
        assert!(q.new_object);
        assert_eq!(q.select.len(), 2);
        assert_eq!(q.from.len(), 2);
        assert_eq!(q.from[0].ty.as_deref(), Some("Employee"));
        assert_eq!(q.from[1].var, "d");
        let conj = q.where_.as_ref().unwrap().conjuncts().len();
        assert_eq!(conj, 4);
    }

    #[test]
    fn parses_query2() {
        let q = parse(r#"SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe""#).unwrap();
        assert!(!q.new_object);
        assert_eq!(
            q.select[0],
            AstExpr::Path {
                base: "c".into(),
                steps: vec![]
            }
        );
        match q.where_.unwrap() {
            AstExpr::Cmp { left, op, .. } => {
                assert_eq!(op, AstCmp::Eq);
                assert_eq!(
                    *left,
                    AstExpr::Path {
                        base: "c".into(),
                        steps: vec!["mayor".into(), "name".into()]
                    }
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_exists_subquery() {
        let q = parse(
            r#"SELECT t FROM Task t IN Tasks
               WHERE t.time() == 100
                 && EXISTS (SELECT m FROM m IN t.team_members() WHERE m.name() == "Fred")"#,
        )
        .unwrap();
        let conj = q.where_.as_ref().unwrap().conjuncts().len();
        assert_eq!(conj, 2);
        let exists = q.where_.as_ref().unwrap().conjuncts()[1].clone();
        match exists {
            AstExpr::Exists(sub) => {
                assert_eq!(
                    sub.from[0].source,
                    AstSource::Path {
                        base: "t".into(),
                        steps: vec!["team_members".into()]
                    }
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn method_parens_optional() {
        let a = parse("SELECT c FROM c IN Cities WHERE c.mayor.name == \"x\"").unwrap();
        let b = parse("SELECT c FROM c IN Cities WHERE c.mayor().name() == \"x\"").unwrap();
        assert_eq!(a.where_, b.where_);
    }

    #[test]
    fn parses_order_by() {
        let q = parse("SELECT c FROM c IN Cities ORDER BY c.population()").unwrap();
        assert_eq!(
            q.order_by,
            Some(("c".to_string(), vec!["population".to_string()]))
        );
        // Bare variable is rejected: ORDER BY needs an attribute.
        assert!(parse("SELECT c FROM c IN Cities ORDER BY c").is_err());
        // ORDER BY follows WHERE.
        let q = parse("SELECT c FROM c IN Cities WHERE c.population() >= 10 ORDER BY c.name()")
            .unwrap();
        assert!(q.where_.is_some());
        assert!(q.order_by.is_some());
    }

    #[test]
    fn reports_errors_with_position() {
        let err = parse("SELECT c FROM").unwrap_err();
        assert!(err.pos.is_some());
        assert!(parse("FROM x IN Y").is_err());
        assert!(parse("SELECT c FROM c IN Cities WHERE c.name() = 3").is_err());
    }
}
