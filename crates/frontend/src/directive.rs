//! Parsing of `c$` directive lines.
//!
//! Grammar (Section 3 of the paper):
//!
//! ```text
//! c$doacross [nest(i,j)] [local(a,b)] [shared(c)] [lastlocal(d)]
//!            [affinity(i[,j]) = data(name(expr, ...))]
//!            [schedtype(simple | interleave(k) | dynamic(k))]
//! c$distribute name(<dist>, ...) [onto(n1, n2, ...)]
//! c$distribute_reshape name(<dist>, ...) [onto(...)]
//! c$redistribute name(<dist>, ...)
//! <dist> ::= block | cyclic | cyclic(expr) | *
//! ```
//!
//! Clauses may be separated by commas or whitespace.

use crate::ast::{AffinityDir, DistItem, DistributeDir, DoacrossDir, SchedSpec};
use crate::error::{CompileError, ErrorKind};
use crate::lexer::{Line, Tok};
use crate::parser::Cursor;

/// A parsed directive.
#[derive(Debug, Clone, PartialEq)]
pub enum Directive {
    /// `c$barrier` — explicit synchronization (an executable statement).
    Barrier,
    /// `c$doacross …` — attaches to the following `do`.
    Doacross(DoacrossDir),
    /// `c$distribute` / `c$distribute_reshape`.
    Distribute(DistributeDir),
    /// `c$redistribute` — an executable statement.
    Redistribute {
        /// Array name.
        array: String,
        /// New per-dimension formats.
        dists: Vec<DistItem>,
    },
    /// `c$resize_team(P)` — an executable statement: re-chunk every
    /// regular distribution for a team of `P` processors, moving only
    /// the delta pages.
    ResizeTeam {
        /// New team size (positive literal).
        nprocs: i64,
    },
}

/// Parse one directive line.
///
/// # Errors
///
/// Returns diagnostics for unknown directives and malformed clauses.
pub fn parse_directive(line: &Line<'_>, file_name: &str) -> Result<Directive, Vec<CompileError>> {
    let mut cur = Cursor::new(line);
    let fail = |msg: String| {
        Err(vec![CompileError::new(
            line.span,
            ErrorKind::Parse,
            file_name,
            msg,
        )])
    };
    match cur.ident() {
        Some("barrier") => {
            if cur.at_end() {
                Ok(Directive::Barrier)
            } else {
                fail("trailing tokens after c$barrier".into())
            }
        }
        Some("doacross") => match parse_doacross(&mut cur) {
            Ok(mut d) => {
                d.span = line.span;
                Ok(Directive::Doacross(d))
            }
            Err(m) => fail(m),
        },
        Some(kw @ ("distribute" | "distribute_reshape")) => {
            let reshape = kw == "distribute_reshape";
            match parse_dist_target(&mut cur) {
                Ok((array, dists)) => {
                    let mut onto = Vec::new();
                    if cur.peek_ident() == Some("onto") {
                        cur.ident();
                        match parse_onto(&mut cur) {
                            Ok(o) => onto = o,
                            Err(m) => return fail(m),
                        }
                    }
                    if !cur.at_end() {
                        return fail("trailing tokens after distribute directive".into());
                    }
                    Ok(Directive::Distribute(DistributeDir {
                        span: line.span,
                        array,
                        dists,
                        onto,
                        reshape,
                    }))
                }
                Err(m) => fail(m),
            }
        }
        Some("redistribute") => match parse_dist_target(&mut cur) {
            Ok((array, dists)) => {
                if !cur.at_end() {
                    return fail("trailing tokens after redistribute".into());
                }
                Ok(Directive::Redistribute { array, dists })
            }
            Err(m) => fail(m),
        },
        Some("resize_team") => {
            if !cur.eat(Tok::LParen) {
                return fail("expected `(` after resize_team".into());
            }
            let Some(nprocs) = cur.int() else {
                return fail("resize_team size must be an integer literal".into());
            };
            if !cur.eat(Tok::RParen) {
                return fail("missing `)` closing resize_team".into());
            }
            if !cur.at_end() {
                return fail("trailing tokens after resize_team".into());
            }
            if nprocs <= 0 {
                return fail(format!("resize_team size must be positive, got {nprocs}"));
            }
            Ok(Directive::ResizeTeam { nprocs })
        }
        other => fail(format!("unknown directive `c${}`", other.unwrap_or(""))),
    }
}

fn parse_dist_target(cur: &mut Cursor<'_>) -> Result<(String, Vec<DistItem>), String> {
    let Some(array) = cur.ident().map(str::to_string) else {
        return Err("expected array name in distribution directive".into());
    };
    if !cur.eat(Tok::LParen) {
        return Err(format!("expected `(` after `{array}`"));
    }
    let mut dists = Vec::new();
    loop {
        let item = if cur.eat(Tok::Star) {
            DistItem::Star
        } else if cur.peek_ident() == Some("block") {
            cur.ident();
            DistItem::Block
        } else if cur.peek_ident() == Some("cyclic") {
            cur.ident();
            if cur.eat(Tok::LParen) {
                let e = cur.expr()?;
                if !cur.eat(Tok::RParen) {
                    return Err("missing `)` after cyclic chunk".into());
                }
                DistItem::Cyclic(Some(e))
            } else {
                DistItem::Cyclic(None)
            }
        } else {
            return Err(format!(
                "expected `block`, `cyclic` or `*`, found `{}`",
                cur.found()
            ));
        };
        dists.push(item);
        if !cur.eat(Tok::Comma) {
            break;
        }
    }
    if !cur.eat(Tok::RParen) {
        return Err("missing `)` in distribution".into());
    }
    Ok((array, dists))
}

fn parse_onto(cur: &mut Cursor<'_>) -> Result<Vec<i64>, String> {
    if !cur.eat(Tok::LParen) {
        return Err("expected `(` after onto".into());
    }
    let mut out = Vec::new();
    loop {
        match cur.int() {
            Some(v) => out.push(v),
            None => return Err("onto ratios must be integer literals".into()),
        }
        if !cur.eat(Tok::Comma) {
            break;
        }
    }
    if !cur.eat(Tok::RParen) {
        return Err("missing `)` closing onto".into());
    }
    Ok(out)
}

fn parse_name_list(cur: &mut Cursor<'_>) -> Result<Vec<String>, String> {
    if !cur.eat(Tok::LParen) {
        return Err("expected `(`".into());
    }
    let mut out = Vec::new();
    loop {
        match cur.ident() {
            Some(n) => out.push(n.to_string()),
            None => return Err("expected name".into()),
        }
        if !cur.eat(Tok::Comma) {
            break;
        }
    }
    if !cur.eat(Tok::RParen) {
        return Err("missing `)`".into());
    }
    Ok(out)
}

fn parse_doacross(cur: &mut Cursor<'_>) -> Result<DoacrossDir, String> {
    let mut d = DoacrossDir::default();
    loop {
        // Optional clause separators.
        while cur.eat(Tok::Comma) {}
        let Some(kw) = cur.peek_ident() else {
            break;
        };
        match kw {
            "nest" => {
                cur.ident();
                d.nest = parse_name_list(cur)?;
            }
            "local" | "lastlocal" => {
                cur.ident();
                d.locals.extend(parse_name_list(cur)?);
            }
            "shared" => {
                cur.ident();
                d.shareds.extend(parse_name_list(cur)?);
            }
            "affinity" => {
                cur.ident();
                let loop_vars = parse_name_list(cur)?;
                if !cur.eat(Tok::Assign) {
                    return Err("expected `=` after affinity(...)".into());
                }
                if cur.ident() != Some("data") {
                    return Err("expected `data` after affinity(...) =".into());
                }
                if !cur.eat(Tok::LParen) {
                    return Err("expected `(` after data".into());
                }
                let Some(array) = cur.ident().map(str::to_string) else {
                    return Err("expected array name in data(...)".into());
                };
                if !cur.eat(Tok::LParen) {
                    return Err("expected `(` after data array name".into());
                }
                let mut indices = Vec::new();
                loop {
                    indices.push(cur.expr()?);
                    if !cur.eat(Tok::Comma) {
                        break;
                    }
                }
                if !cur.eat(Tok::RParen) || !cur.eat(Tok::RParen) {
                    return Err("missing `)` closing data(...)".into());
                }
                d.affinity = Some(AffinityDir {
                    loop_vars,
                    array,
                    indices,
                });
            }
            "schedtype" => {
                cur.ident();
                if !cur.eat(Tok::LParen) {
                    return Err("expected `(` after schedtype".into());
                }
                let spec = match cur.ident() {
                    Some("simple") => SchedSpec::Simple,
                    Some(k @ ("interleave" | "dynamic")) => {
                        if !cur.eat(Tok::LParen) {
                            return Err(format!("expected `(` after {k}"));
                        }
                        let Some(n) = cur.int() else {
                            return Err("chunk must be an integer literal".into());
                        };
                        if !cur.eat(Tok::RParen) {
                            return Err("missing `)`".into());
                        }
                        if k == "interleave" {
                            SchedSpec::Interleave(n)
                        } else {
                            SchedSpec::Dynamic(n)
                        }
                    }
                    other => {
                        return Err(format!("unknown schedtype `{}`", other.unwrap_or("<eol>")))
                    }
                };
                if !cur.eat(Tok::RParen) {
                    return Err("missing `)` closing schedtype".into());
                }
                d.sched = Some(spec);
            }
            other => return Err(format!("unknown doacross clause `{other}`")),
        }
    }
    if !cur.at_end() {
        return Err("trailing tokens on doacross directive".into());
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::AExpr;
    use crate::lexer::lex;

    /// Parse the directive on the first line of `src`.
    fn parse_first(src: &str) -> Result<Directive, Vec<CompileError>> {
        let lexed = lex(0, "t.f", src).unwrap();
        let line = lexed.lines().next().expect("one line");
        assert!(line.directive, "not a directive line: {src}");
        parse_directive(&line, "t.f")
    }

    fn dir(src: &str) -> Directive {
        parse_first(src).unwrap()
    }

    #[test]
    fn doacross_full_clause_set() {
        let d = dir("c$doacross nest(i,j) local(i,j,k) shared(a) affinity(i) = data(a(i,j)) schedtype(interleave(4))\n");
        let Directive::Doacross(d) = d else { panic!() };
        assert_eq!(d.nest, vec!["i", "j"]);
        assert_eq!(d.locals, vec!["i", "j", "k"]);
        assert_eq!(d.shareds, vec!["a"]);
        let aff = d.affinity.unwrap();
        assert_eq!(aff.loop_vars, vec!["i"]);
        assert_eq!(aff.array, "a");
        assert_eq!(aff.indices.len(), 2);
        assert_eq!(d.sched, Some(SchedSpec::Interleave(4)));
    }

    #[test]
    fn doacross_paper_example() {
        // Verbatim from the paper (Section 3.4, modulo spacing).
        let d = dir("c$doacross local(i) shared(n, a) affinity(i) = data(a(i))\n");
        let Directive::Doacross(d) = d else { panic!() };
        assert_eq!(d.shareds, vec!["n", "a"]);
        let aff = d.affinity.unwrap();
        assert_eq!(aff.indices, vec![AExpr::Name("i".into())]);
    }

    #[test]
    fn comma_separated_clauses() {
        let d = dir("c$doacross local(i), shared(a)\n");
        let Directive::Doacross(d) = d else { panic!() };
        assert_eq!(d.locals, vec!["i"]);
    }

    #[test]
    fn distribute_variants() {
        let d = dir("c$distribute a(*, block, cyclic, cyclic(5))\n");
        let Directive::Distribute(d) = d else {
            panic!()
        };
        assert!(!d.reshape);
        assert_eq!(d.dists.len(), 4);
        assert_eq!(d.dists[0], DistItem::Star);
        assert_eq!(d.dists[1], DistItem::Block);
        assert_eq!(d.dists[2], DistItem::Cyclic(None));
        assert_eq!(d.dists[3], DistItem::Cyclic(Some(AExpr::Int(5))));
    }

    #[test]
    fn distribute_reshape_and_onto() {
        let d = dir("c$distribute_reshape a(block, block) onto(2, 1)\n");
        let Directive::Distribute(d) = d else {
            panic!()
        };
        assert!(d.reshape);
        assert_eq!(d.onto, vec![2, 1]);
    }

    #[test]
    fn redistribute_is_statement_directive() {
        let d = dir("c$redistribute a(cyclic, *)\n");
        assert!(matches!(d, Directive::Redistribute { ref array, .. } if array == "a"));
    }

    #[test]
    fn barrier_directive_parses() {
        assert_eq!(dir("c$barrier\n"), Directive::Barrier);
    }

    #[test]
    fn resize_team_parses_positive_literal() {
        assert_eq!(dir("c$resize_team(4)\n"), Directive::ResizeTeam { nprocs: 4 });
        let e = parse_first("c$resize_team(0)\n").unwrap_err();
        assert!(e[0].msg.contains("positive"), "{}", e[0].msg);
        assert!(parse_first("c$resize_team(n)\n").is_err());
    }

    #[test]
    fn unknown_directive_rejected() {
        let e = parse_first("c$frobnicate a(block)\n").unwrap_err();
        assert!(e[0].msg.contains("unknown directive"));
    }

    #[test]
    fn malformed_affinity_rejected() {
        let e = parse_first("c$doacross affinity(i) = banana(a(i))\n").unwrap_err();
        assert!(e[0].msg.contains("data"));
    }

    #[test]
    fn lastlocal_treated_as_local() {
        let d = dir("c$doacross lastlocal(i)\n");
        let Directive::Doacross(d) = d else { panic!() };
        assert_eq!(d.locals, vec!["i"]);
    }
}
