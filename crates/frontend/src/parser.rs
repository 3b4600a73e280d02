//! Recursive-descent parser from token lines to [`SourceUnit`]s.
//!
//! The parser reads the lexer's borrowed [`Line`] views and never copies
//! a line or a token; a `String` is made only where the AST owns a name.

use crate::ast::*;
use crate::directive::{parse_directive, Directive};
use crate::error::{CompileError, ErrorKind, Span};
use crate::lexer::{lex, Line, Tok};

/// Parse one source file (possibly several program units).
///
/// # Errors
///
/// Returns all lexical and syntactic diagnostics for the file.
pub fn parse_source(
    file: usize,
    file_name: &str,
    text: &str,
) -> Result<Vec<SourceUnit>, Vec<CompileError>> {
    let lexed = lex(file, file_name, text)?;
    let lines: Vec<Line> = lexed.lines().collect();
    let mut p = Parser {
        lines: &lines,
        pos: 0,
        file,
        file_name,
        errors: vec![],
    };
    let mut units = Vec::new();
    while p.pos < p.lines.len() {
        match p.parse_unit() {
            Some(u) => units.push(u),
            None => break,
        }
    }
    if p.errors.is_empty() {
        Ok(units)
    } else {
        Err(p.errors)
    }
}

struct Parser<'a> {
    lines: &'a [Line<'a>],
    pos: usize,
    file: usize,
    file_name: &'a str,
    errors: Vec<CompileError>,
}

/// True when `line` is the block terminator `t`, also when spelt as two
/// words (`end do`, `end if`).
fn is_terminator(line: &Line<'_>, t: &str) -> bool {
    let head = line.ident(0);
    head == Some(t)
        || (line.toks.len() == 2
            && matches!((head, line.ident(1)), (Some(a), Some(b)) if t.strip_prefix(a) == Some(b)))
}

impl<'a> Parser<'a> {
    fn err(&mut self, span: Span, msg: impl Into<String>) {
        self.errors.push(CompileError::new(
            span,
            ErrorKind::Parse,
            self.file_name,
            msg,
        ));
    }

    fn peek(&self) -> Option<&'a Line<'a>> {
        self.lines.get(self.pos)
    }

    fn bump(&mut self) -> Option<&'a Line<'a>> {
        let l = self.peek();
        if l.is_some() {
            self.pos += 1;
        }
        l
    }

    fn parse_unit(&mut self) -> Option<SourceUnit> {
        let header = self.bump()?;
        let span = header.span;
        let mut cur = Cursor::new(header);
        let kind = match cur.ident() {
            Some("program") => UnitKind::Program,
            Some("subroutine") => UnitKind::Subroutine,
            other => {
                self.err(
                    span,
                    format!(
                        "expected `program` or `subroutine`, found `{}`",
                        other.unwrap_or("<eol>")
                    ),
                );
                // Skip to the next plausible unit header.
                while let Some(l) = self.peek() {
                    if matches!(l.ident(0), Some("program") | Some("subroutine")) {
                        break;
                    }
                    self.pos += 1;
                }
                return None;
            }
        };
        let Some(name) = cur.ident().map(str::to_string) else {
            self.err(span, "missing unit name");
            return None;
        };
        let mut params = Vec::new();
        if cur.eat(Tok::LParen) {
            while let Some(p) = cur.ident() {
                params.push(p.to_string());
                if !cur.eat(Tok::Comma) {
                    break;
                }
            }
            if !cur.eat(Tok::RParen) {
                self.err(span, "missing `)` after parameter list");
            }
        }
        let mut unit = SourceUnit {
            kind,
            name,
            params,
            decls: vec![],
            commons: vec![],
            equivalences: vec![],
            parameters: vec![],
            distributes: vec![],
            body: vec![],
            span,
            file: self.file,
        };
        let (body, terminator) = self.parse_stmts(&mut unit, &["end"]);
        unit.body = body;
        if terminator.is_none() {
            self.err(span, format!("unit `{}` missing `end`", unit.name));
        }
        Some(unit)
    }

    /// Parse statements until one of `terminators` (`end`, `enddo`,
    /// `endif`, `else`) is found; returns the statements and the
    /// terminator consumed.
    fn parse_stmts(
        &mut self,
        unit: &mut SourceUnit,
        terminators: &[&'static str],
    ) -> (Vec<AStmt>, Option<&'static str>) {
        let mut out = Vec::new();
        let mut pending_doacross: Option<DoacrossDir> = None;
        while let Some(line) = self.peek() {
            let span = line.span;
            let head = line.ident(0).unwrap_or("");
            if let Some(&t) = terminators.iter().find(|t| is_terminator(line, t)) {
                self.pos += 1;
                if pending_doacross.is_some() {
                    self.err(span, "c$doacross not followed by a do loop");
                }
                return (out, Some(t));
            }
            // `else` / `endif` etc. reaching here unrequested is an error
            // handled by the caller context; detect strays:
            if ["else", "endif", "enddo"].contains(&head) && !terminators.contains(&head) {
                self.err(span, format!("unexpected `{head}`"));
                self.pos += 1;
                continue;
            }
            if line.directive {
                self.pos += 1;
                match parse_directive(line, self.file_name) {
                    Ok(Directive::Doacross(d)) => {
                        if pending_doacross.replace(d).is_some() {
                            self.err(span, "two consecutive c$doacross directives");
                        }
                    }
                    Ok(Directive::Distribute(d)) => unit.distributes.push(d),
                    Ok(Directive::Redistribute { array, dists }) => {
                        out.push(AStmt::Redistribute { span, array, dists });
                    }
                    Ok(Directive::Barrier) => out.push(AStmt::Barrier { span }),
                    Ok(Directive::ResizeTeam { nprocs }) => {
                        out.push(AStmt::ResizeTeam { span, nprocs });
                    }
                    Err(mut e) => self.errors.append(&mut e),
                }
                continue;
            }
            // Declarations are only legal before executable statements,
            // but we accept them anywhere for simplicity.
            match head {
                "integer" | "real" => {
                    self.pos += 1;
                    self.parse_decl(unit, line);
                    continue;
                }
                "common" => {
                    self.pos += 1;
                    self.parse_common(unit, line);
                    continue;
                }
                "equivalence" => {
                    self.pos += 1;
                    self.parse_equivalence(unit, line);
                    continue;
                }
                "parameter" => {
                    self.pos += 1;
                    self.parse_parameter(unit, line);
                    continue;
                }
                _ => {}
            }
            // Executable statement.
            self.pos += 1;
            if let Some(stmt) = self.parse_exec_stmt(unit, line, pending_doacross.take()) {
                out.push(stmt);
            }
        }
        (out, None)
    }

    fn parse_decl(&mut self, unit: &mut SourceUnit, line: &Line<'a>) {
        let span = line.span;
        let mut cur = Cursor::new(line);
        let ty = match cur.ident() {
            Some("integer") => ATy::Int,
            Some("real") => ATy::Real,
            _ => unreachable!("caller checked"),
        };
        loop {
            let Some(name) = cur.ident().map(str::to_string) else {
                self.err(span, "expected name in declaration");
                return;
            };
            let mut dims = Vec::new();
            if cur.eat(Tok::LParen) {
                loop {
                    match cur.expr() {
                        Ok(e) => dims.push(e),
                        Err(m) => {
                            self.err(span, m);
                            return;
                        }
                    }
                    if !cur.eat(Tok::Comma) {
                        break;
                    }
                }
                if !cur.eat(Tok::RParen) {
                    self.err(span, "missing `)` in array declaration");
                    return;
                }
            }
            unit.decls.push(Decl {
                span,
                name,
                ty,
                dims,
            });
            if !cur.eat(Tok::Comma) {
                break;
            }
        }
        if !cur.at_end() {
            self.err(span, "trailing tokens after declaration");
        }
    }

    fn parse_common(&mut self, unit: &mut SourceUnit, line: &Line<'a>) {
        let span = line.span;
        let mut cur = Cursor::new(line);
        cur.ident(); // common
        if !cur.eat(Tok::Slash) {
            self.err(span, "expected `/name/` after `common`");
            return;
        }
        let Some(name) = cur.ident().map(str::to_string) else {
            self.err(span, "missing common block name");
            return;
        };
        if !cur.eat(Tok::Slash) {
            self.err(span, "expected closing `/` after common block name");
            return;
        }
        let mut members = Vec::new();
        while let Some(m) = cur.ident() {
            members.push(m.to_string());
            if !cur.eat(Tok::Comma) {
                break;
            }
        }
        if members.is_empty() {
            self.err(span, "empty common block member list");
        }
        unit.commons.push((name, members));
    }

    fn parse_equivalence(&mut self, unit: &mut SourceUnit, line: &Line<'a>) {
        let span = line.span;
        let mut cur = Cursor::new(line);
        cur.ident(); // equivalence
        if !cur.eat(Tok::LParen) {
            self.err(span, "expected `(` after `equivalence`");
            return;
        }
        let a = cur.ident().map(str::to_string);
        cur.eat(Tok::Comma);
        let b = cur.ident().map(str::to_string);
        if !cur.eat(Tok::RParen) {
            self.err(span, "expected `)` closing equivalence");
            return;
        }
        match (a, b) {
            (Some(a), Some(b)) => unit.equivalences.push((span, a, b)),
            _ => self.err(span, "equivalence needs two names"),
        }
    }

    fn parse_parameter(&mut self, unit: &mut SourceUnit, line: &Line<'a>) {
        let span = line.span;
        let mut cur = Cursor::new(line);
        cur.ident(); // parameter
        if !cur.eat(Tok::LParen) {
            self.err(span, "expected `(` after `parameter`");
            return;
        }
        loop {
            let Some(name) = cur.ident().map(str::to_string) else {
                self.err(span, "expected name in parameter statement");
                return;
            };
            if !cur.eat(Tok::Assign) {
                self.err(span, "expected `=` in parameter statement");
                return;
            }
            match cur.expr() {
                Ok(e) => unit.parameters.push((span, name, e)),
                Err(m) => {
                    self.err(span, m);
                    return;
                }
            }
            if !cur.eat(Tok::Comma) {
                break;
            }
        }
        if !cur.eat(Tok::RParen) {
            self.err(span, "missing `)` closing parameter statement");
        }
    }

    fn parse_exec_stmt(
        &mut self,
        unit: &mut SourceUnit,
        line: &Line<'a>,
        doacross: Option<DoacrossDir>,
    ) -> Option<AStmt> {
        let span = line.span;
        let head = line.ident(0).unwrap_or("");
        match head {
            "do" => {
                let mut cur = Cursor::new(line);
                cur.ident(); // do
                let Some(var) = cur.ident().map(str::to_string) else {
                    self.err(span, "expected loop variable after `do`");
                    return None;
                };
                if !cur.eat(Tok::Assign) {
                    self.err(span, "expected `=` in do statement");
                    return None;
                }
                let lb = self.expr_or_err(span, &mut cur)?;
                if !cur.eat(Tok::Comma) {
                    self.err(span, "expected `,` after do lower bound");
                    return None;
                }
                let ub = self.expr_or_err(span, &mut cur)?;
                let step = if cur.eat(Tok::Comma) {
                    Some(self.expr_or_err(span, &mut cur)?)
                } else {
                    None
                };
                let (body, term) = self.parse_stmts(unit, &["enddo"]);
                if term.is_none() {
                    self.err(span, "do loop missing `enddo`");
                }
                Some(AStmt::Do {
                    span,
                    var,
                    lb,
                    ub,
                    step,
                    body,
                    doacross,
                })
            }
            "if" => {
                if doacross.is_some() {
                    self.err(span, "c$doacross must be followed by a do loop");
                }
                let mut cur = Cursor::new(line);
                cur.ident(); // if
                if !cur.eat(Tok::LParen) {
                    self.err(span, "expected `(` after if");
                    return None;
                }
                let cond = self.expr_or_err(span, &mut cur)?;
                if !cur.eat(Tok::RParen) {
                    self.err(span, "expected `)` closing if condition");
                    return None;
                }
                if cur.peek_ident() == Some("then") {
                    cur.ident();
                    let (then_body, term) = self.parse_stmts(unit, &["endif", "else"]);
                    let else_body = if term == Some("else") {
                        let (e, term2) = self.parse_stmts(unit, &["endif"]);
                        if term2.is_none() {
                            self.err(span, "if missing `endif`");
                        }
                        e
                    } else {
                        if term.is_none() {
                            self.err(span, "if missing `endif`");
                        }
                        Vec::new()
                    };
                    Some(AStmt::If {
                        span,
                        cond,
                        then_body,
                        else_body,
                    })
                } else {
                    // One-line logical if: the rest of the line is a
                    // simple statement.
                    let rest = Line {
                        toks: cur.rest(),
                        ..*line
                    };
                    let inner = self.parse_exec_stmt(unit, &rest, None)?;
                    Some(AStmt::If {
                        span,
                        cond,
                        then_body: vec![inner],
                        else_body: vec![],
                    })
                }
            }
            "call" => {
                if doacross.is_some() {
                    self.err(span, "c$doacross must be followed by a do loop");
                }
                let mut cur = Cursor::new(line);
                cur.ident(); // call
                let Some(name) = cur.ident().map(str::to_string) else {
                    self.err(span, "expected subroutine name after `call`");
                    return None;
                };
                let mut args = Vec::new();
                if cur.eat(Tok::LParen) && !cur.eat(Tok::RParen) {
                    loop {
                        args.push(self.expr_or_err(span, &mut cur)?);
                        if !cur.eat(Tok::Comma) {
                            break;
                        }
                    }
                    if !cur.eat(Tok::RParen) {
                        self.err(span, "missing `)` closing call");
                    }
                }
                Some(AStmt::Call { span, name, args })
            }
            _ => {
                if doacross.is_some() {
                    self.err(span, "c$doacross must be followed by a do loop");
                }
                // Assignment: name [ (indices) ] = expr
                let mut cur = Cursor::new(line);
                let Some(lhs) = cur.ident().map(str::to_string) else {
                    self.err(span, "expected a statement");
                    return None;
                };
                let mut lhs_indices = Vec::new();
                if cur.eat(Tok::LParen) {
                    loop {
                        lhs_indices.push(self.expr_or_err(span, &mut cur)?);
                        if !cur.eat(Tok::Comma) {
                            break;
                        }
                    }
                    if !cur.eat(Tok::RParen) {
                        self.err(span, "missing `)` on left-hand side");
                        return None;
                    }
                }
                if !cur.eat(Tok::Assign) {
                    self.err(
                        span,
                        format!("expected `=` in statement starting with `{lhs}`"),
                    );
                    return None;
                }
                let rhs = self.expr_or_err(span, &mut cur)?;
                if !cur.at_end() {
                    self.err(span, "trailing tokens after assignment");
                }
                Some(AStmt::Assign {
                    span,
                    lhs,
                    lhs_indices,
                    rhs,
                })
            }
        }
    }

    fn expr_or_err(&mut self, span: Span, cur: &mut Cursor<'_>) -> Option<AExpr> {
        match cur.expr() {
            Ok(e) => Some(e),
            Err(m) => {
                self.err(span, m);
                None
            }
        }
    }
}

/// Token cursor over one line, with an expression parser (precedence
/// climbing).
pub(crate) struct Cursor<'a> {
    toks: &'a [Tok],
    /// The lowered file text identifiers index.
    text: &'a str,
    i: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(line: &Line<'a>) -> Self {
        Cursor {
            toks: line.toks,
            text: line.text,
            i: 0,
        }
    }

    pub(crate) fn at_end(&self) -> bool {
        self.i >= self.toks.len()
    }

    pub(crate) fn rest(&self) -> &'a [Tok] {
        &self.toks[self.i.min(self.toks.len())..]
    }

    pub(crate) fn peek(&self) -> Option<Tok> {
        self.toks.get(self.i).copied()
    }

    /// The next token as a diagnostic quotes it, `<eol>` at the end.
    pub(crate) fn found(&self) -> String {
        self.peek()
            .map_or("<eol>".into(), |t| t.show(self.text).to_string())
    }

    pub(crate) fn peek_ident(&self) -> Option<&'a str> {
        self.peek()?.name(self.text)
    }

    pub(crate) fn eat(&mut self, t: Tok) -> bool {
        if self.peek() == Some(t) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    pub(crate) fn ident(&mut self) -> Option<&'a str> {
        let name = self.peek_ident()?;
        self.i += 1;
        Some(name)
    }

    /// Consume an integer literal.
    pub(crate) fn int(&mut self) -> Option<i64> {
        let Some(Tok::Int(v)) = self.peek() else {
            return None;
        };
        self.i += 1;
        Some(v)
    }

    /// Parse a full expression.
    pub(crate) fn expr(&mut self) -> Result<AExpr, String> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<AExpr, String> {
        let mut lhs = self.and_expr()?;
        while self.eat(Tok::Or) {
            let rhs = self.and_expr()?;
            lhs = AExpr::Bin(ABinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<AExpr, String> {
        let mut lhs = self.not_expr()?;
        while self.eat(Tok::And) {
            let rhs = self.not_expr()?;
            lhs = AExpr::Bin(ABinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<AExpr, String> {
        if self.eat(Tok::Not) {
            let e = self.not_expr()?;
            return Ok(AExpr::Un(AUnOp::Not, Box::new(e)));
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> Result<AExpr, String> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Some(Tok::Lt) => ABinOp::Lt,
            Some(Tok::Le) => ABinOp::Le,
            Some(Tok::Gt) => ABinOp::Gt,
            Some(Tok::Ge) => ABinOp::Ge,
            Some(Tok::EqEq) => ABinOp::Eq,
            Some(Tok::Ne) => ABinOp::Ne,
            _ => return Ok(lhs),
        };
        self.i += 1;
        let rhs = self.add_expr()?;
        Ok(AExpr::Bin(op, Box::new(lhs), Box::new(rhs)))
    }

    fn add_expr(&mut self) -> Result<AExpr, String> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => ABinOp::Add,
                Some(Tok::Minus) => ABinOp::Sub,
                _ => return Ok(lhs),
            };
            self.i += 1;
            let rhs = self.mul_expr()?;
            lhs = AExpr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn mul_expr(&mut self) -> Result<AExpr, String> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => ABinOp::Mul,
                Some(Tok::Slash) => ABinOp::Div,
                _ => return Ok(lhs),
            };
            self.i += 1;
            let rhs = self.unary_expr()?;
            lhs = AExpr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn unary_expr(&mut self) -> Result<AExpr, String> {
        if self.eat(Tok::Minus) {
            let e = self.unary_expr()?;
            return Ok(AExpr::Un(AUnOp::Neg, Box::new(e)));
        }
        if self.eat(Tok::Plus) {
            return self.unary_expr();
        }
        self.pow_expr()
    }

    fn pow_expr(&mut self) -> Result<AExpr, String> {
        let base = self.primary()?;
        if self.eat(Tok::StarStar) {
            // Right-associative.
            let exp = self.unary_expr()?;
            return Ok(AExpr::Bin(ABinOp::Pow, Box::new(base), Box::new(exp)));
        }
        Ok(base)
    }

    fn primary(&mut self) -> Result<AExpr, String> {
        if let Some(name) = self.ident() {
            if !self.eat(Tok::LParen) {
                return Ok(AExpr::Name(name.to_string()));
            }
            let mut args = Vec::new();
            if !self.eat(Tok::RParen) {
                loop {
                    args.push(self.expr()?);
                    if !self.eat(Tok::Comma) {
                        break;
                    }
                }
                if !self.eat(Tok::RParen) {
                    return Err(format!("missing `)` after `{name}(`"));
                }
            }
            return Ok(AExpr::Index(name.to_string(), args));
        }
        match self.peek() {
            Some(Tok::Int(v)) => {
                self.i += 1;
                Ok(AExpr::Int(v))
            }
            Some(Tok::Real(v)) => {
                self.i += 1;
                Ok(AExpr::Real(v))
            }
            Some(Tok::LParen) => {
                self.i += 1;
                let e = self.expr()?;
                if !self.eat(Tok::RParen) {
                    return Err("missing `)`".into());
                }
                Ok(e)
            }
            _ => Err(format!("expected expression, found `{}`", self.found())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(src: &str) -> SourceUnit {
        let mut us = parse_source(0, "t.f", src).expect("parse ok");
        assert_eq!(us.len(), 1);
        us.remove(0)
    }

    #[test]
    fn minimal_program() {
        let u = unit("      program main\n      end\n");
        assert_eq!(u.kind, UnitKind::Program);
        assert_eq!(u.name, "main");
        assert!(u.body.is_empty());
    }

    #[test]
    fn subroutine_with_params_and_decls() {
        let u =
            unit("      subroutine sub(x, n)\n      integer n\n      real*8 x(n, 5)\n      end\n");
        assert_eq!(u.kind, UnitKind::Subroutine);
        assert_eq!(u.params, vec!["x", "n"]);
        assert_eq!(u.decls.len(), 2);
        assert_eq!(u.decls[1].dims.len(), 2);
    }

    #[test]
    fn do_loop_with_body() {
        let u = unit(
            "      program p\n      integer i\n      real*8 a(10)\n      do i = 1, 10\n        a(i) = 2*i\n      enddo\n      end\n",
        );
        let AStmt::Do {
            var, body, step, ..
        } = &u.body[0]
        else {
            panic!("expected do");
        };
        assert_eq!(var, "i");
        assert!(step.is_none());
        assert_eq!(body.len(), 1);
    }

    #[test]
    fn nested_if_else() {
        let u = unit(
            "      program p\n      integer i\n      if (i .lt. 4) then\n        i = 1\n      else\n        i = 2\n      endif\n      end\n",
        );
        let AStmt::If {
            then_body,
            else_body,
            ..
        } = &u.body[0]
        else {
            panic!("expected if");
        };
        assert_eq!(then_body.len(), 1);
        assert_eq!(else_body.len(), 1);
    }

    #[test]
    fn one_line_if() {
        let u = unit("      program p\n      integer i\n      if (i > 2) i = 0\n      end\n");
        let AStmt::If {
            then_body,
            else_body,
            ..
        } = &u.body[0]
        else {
            panic!("expected if");
        };
        assert_eq!(then_body.len(), 1);
        assert!(else_body.is_empty());
    }

    #[test]
    fn call_forms() {
        let u = unit("      program p\n      real*8 a(5)\n      call s(a, a(2), 1+2)\n      call t\n      end\n");
        let AStmt::Call { name, args, .. } = &u.body[0] else {
            panic!();
        };
        assert_eq!(name, "s");
        assert_eq!(args.len(), 3);
        assert_eq!(args[0], AExpr::Name("a".into()));
        assert!(matches!(&args[1], AExpr::Index(n, ix) if n == "a" && ix.len() == 1));
        let AStmt::Call { args, .. } = &u.body[1] else {
            panic!();
        };
        assert!(args.is_empty());
    }

    #[test]
    fn common_equivalence_parameter() {
        let u = unit(
            "      program p\n      real*8 a(10), b(10)\n      common /blk/ a, b\n      equivalence (a, b)\n      integer n\n      parameter (n = 7)\n      end\n",
        );
        assert_eq!(
            u.commons,
            vec![("blk".to_string(), vec!["a".into(), "b".into()])]
        );
        assert_eq!(u.equivalences.len(), 1);
        assert_eq!(u.parameters.len(), 1);
    }

    #[test]
    fn precedence_and_power() {
        let u = unit("      program p\n      real*8 x\n      x = 1 + 2 * 3 ** 2\n      end\n");
        let AStmt::Assign { rhs, .. } = &u.body[0] else {
            panic!()
        };
        // 1 + (2 * (3 ** 2))
        let AExpr::Bin(ABinOp::Add, _, r) = rhs else {
            panic!("got {rhs:?}")
        };
        let AExpr::Bin(ABinOp::Mul, _, rr) = r.as_ref() else {
            panic!()
        };
        assert!(matches!(rr.as_ref(), AExpr::Bin(ABinOp::Pow, _, _)));
    }

    #[test]
    fn end_do_two_words() {
        let u =
            unit("      program p\n      integer i\n      do i = 1, 3\n      end do\n      end\n");
        assert!(matches!(&u.body[0], AStmt::Do { .. }));
    }

    #[test]
    fn doacross_binds_to_next_do() {
        let u = unit(
            "      program p\n      integer i\n      real*8 a(10)\nc$doacross local(i)\n      do i = 1, 10\n        a(i) = 1.0\n      enddo\n      end\n",
        );
        let AStmt::Do { doacross, .. } = &u.body[0] else {
            panic!()
        };
        assert!(doacross.is_some());
        assert_eq!(doacross.as_ref().unwrap().locals, vec!["i"]);
    }

    #[test]
    fn doacross_without_do_is_error() {
        let e = parse_source(
            0,
            "t.f",
            "      program p\n      integer i\nc$doacross local(i)\n      i = 1\n      end\n",
        )
        .unwrap_err();
        assert!(e.iter().any(|d| d.msg.contains("do loop")), "{e:?}");
    }

    #[test]
    fn multiple_units_per_file() {
        let us = parse_source(
            0,
            "t.f",
            "      program p\n      end\n      subroutine s(x)\n      real*8 x(5)\n      end\n",
        )
        .unwrap();
        assert_eq!(us.len(), 2);
        assert_eq!(us[1].name, "s");
    }

    #[test]
    fn missing_end_reported() {
        let e = parse_source(0, "t.f", "      program p\n      integer i\n").unwrap_err();
        assert!(e.iter().any(|d| d.msg.contains("missing `end`")));
    }

    #[test]
    fn distribute_directive_collected() {
        let u =
            unit("      program p\n      real*8 a(10, 10)\nc$distribute a(*, block)\n      end\n");
        assert_eq!(u.distributes.len(), 1);
        assert!(!u.distributes[0].reshape);
    }
}
