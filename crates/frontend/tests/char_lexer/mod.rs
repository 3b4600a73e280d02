//! The char-based lexer the byte-level `dsm_frontend::lexer` replaced,
//! kept verbatim (less its `Display` impl) as the reference the
//! `lexer_oracle` property tests compare against: it lexes each line
//! from a `Vec<char>` and owns every identifier, so it cannot slice off a
//! char boundary or mis-share an offset.

use dsm_frontend::{CompileError, ErrorKind, Span};

/// A token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword (lower-cased).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Real literal (both `1.5e3` and `1.5d3` forms).
    Real(f64),
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `**`
    StarStar,
    /// `/`
    Slash,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `=`
    Assign,
    /// `<` or `.lt.`
    Lt,
    /// `<=` or `.le.`
    Le,
    /// `>` or `.gt.`
    Gt,
    /// `>=` or `.ge.`
    Ge,
    /// `==` or `.eq.`
    EqEq,
    /// `/=` or `.ne.`
    Ne,
    /// `.and.`
    And,
    /// `.or.`
    Or,
    /// `.not.`
    Not,
}

/// One logical source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    /// Location of the (first physical) line.
    pub span: Span,
    /// True when the line started with `c$`.
    pub directive: bool,
    /// Tokens.
    pub toks: Vec<Tok>,
}

/// True for a whole-line comment: `!`, or `c`/`C`/`*` in column 1 that is
/// not a `c$` directive.
fn is_comment(raw: &str) -> bool {
    let t = raw.trim_start();
    if t.starts_with('!') {
        return true;
    }
    let mut ch = raw.chars();
    match ch.next() {
        Some('c') | Some('C') => {
            let rest: String = ch.collect();
            !rest.starts_with('$')
        }
        Some('*') => true,
        _ => false,
    }
}

/// Lex a whole file into logical lines.
///
/// # Errors
///
/// Returns every bad character / malformed literal with its location.
pub fn lex(file: usize, file_name: &str, text: &str) -> Result<Vec<Line>, Vec<CompileError>> {
    let mut out: Vec<Line> = Vec::new();
    let mut errors = Vec::new();
    let mut continuing = false;
    for (lineno0, raw) in text.lines().enumerate() {
        let span = Span::new(file, lineno0 + 1);
        if raw.trim().is_empty() || is_comment(raw) {
            continue;
        }
        let (directive, body) =
            if let Some(stripped) = raw.strip_prefix("c$").or_else(|| raw.strip_prefix("C$")) {
                (true, stripped)
            } else {
                (false, raw)
            };
        // Strip inline comment (! outside any string — we have no strings).
        let body = match body.find('!') {
            Some(p) => &body[..p],
            None => body,
        };
        let mut body = body.trim_end();
        let continues_next = body.ends_with('&');
        if continues_next {
            body = body[..body.len() - 1].trim_end();
        }
        match lex_line(span, file_name, body) {
            Ok(toks) => {
                if continuing {
                    if let Some(last) = out.last_mut() {
                        last.toks.extend(toks);
                    }
                } else if !toks.is_empty() {
                    out.push(Line {
                        span,
                        directive,
                        toks,
                    });
                }
            }
            Err(mut e) => errors.append(&mut e),
        }
        continuing = continues_next;
    }
    if errors.is_empty() {
        Ok(out)
    } else {
        Err(errors)
    }
}

fn lex_line(span: Span, file_name: &str, body: &str) -> Result<Vec<Tok>, Vec<CompileError>> {
    let mut toks = Vec::new();
    let mut errors = Vec::new();
    let b: Vec<char> = body.chars().collect();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        match c {
            ' ' | '\t' => i += 1,
            '+' => {
                toks.push(Tok::Plus);
                i += 1;
            }
            '-' => {
                toks.push(Tok::Minus);
                i += 1;
            }
            '*' => {
                if b.get(i + 1) == Some(&'*') {
                    toks.push(Tok::StarStar);
                    i += 2;
                } else {
                    toks.push(Tok::Star);
                    i += 1;
                }
            }
            '/' => {
                if b.get(i + 1) == Some(&'=') {
                    toks.push(Tok::Ne);
                    i += 2;
                } else {
                    toks.push(Tok::Slash);
                    i += 1;
                }
            }
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            '=' => {
                if b.get(i + 1) == Some(&'=') {
                    toks.push(Tok::EqEq);
                    i += 2;
                } else {
                    toks.push(Tok::Assign);
                    i += 1;
                }
            }
            '<' => {
                if b.get(i + 1) == Some(&'=') {
                    toks.push(Tok::Le);
                    i += 2;
                } else {
                    toks.push(Tok::Lt);
                    i += 1;
                }
            }
            '>' => {
                if b.get(i + 1) == Some(&'=') {
                    toks.push(Tok::Ge);
                    i += 2;
                } else {
                    toks.push(Tok::Gt);
                    i += 1;
                }
            }
            '.' => {
                // Dot-operator or real literal starting with '.'.
                if b.get(i + 1).is_some_and(|c| c.is_ascii_alphabetic()) {
                    let mut j = i + 1;
                    while j < b.len() && b[j].is_ascii_alphabetic() {
                        j += 1;
                    }
                    if b.get(j) == Some(&'.') {
                        let word: String = b[i + 1..j].iter().collect::<String>().to_lowercase();
                        let tok = match word.as_str() {
                            "lt" => Some(Tok::Lt),
                            "le" => Some(Tok::Le),
                            "gt" => Some(Tok::Gt),
                            "ge" => Some(Tok::Ge),
                            "eq" => Some(Tok::EqEq),
                            "ne" => Some(Tok::Ne),
                            "and" => Some(Tok::And),
                            "or" => Some(Tok::Or),
                            "not" => Some(Tok::Not),
                            "true" => Some(Tok::Int(1)),
                            "false" => Some(Tok::Int(0)),
                            _ => None,
                        };
                        match tok {
                            Some(t) => {
                                toks.push(t);
                                i = j + 1;
                            }
                            None => {
                                errors.push(CompileError::new(
                                    span,
                                    ErrorKind::Lex,
                                    file_name,
                                    format!("unknown operator `.{word}.`"),
                                ));
                                i = j + 1;
                            }
                        }
                    } else {
                        errors.push(CompileError::new(
                            span,
                            ErrorKind::Lex,
                            file_name,
                            "stray `.`".to_string(),
                        ));
                        i += 1;
                    }
                } else if b.get(i + 1).is_some_and(|c| c.is_ascii_digit()) {
                    let (tok, next) = lex_number(&b, i);
                    toks.push(tok);
                    i = next;
                } else {
                    errors.push(CompileError::new(
                        span,
                        ErrorKind::Lex,
                        file_name,
                        "stray `.`".to_string(),
                    ));
                    i += 1;
                }
            }
            c if c.is_ascii_digit() => {
                let (tok, next) = lex_number(&b, i);
                toks.push(tok);
                i = next;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut j = i;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == '_' || b[j] == '$') {
                    j += 1;
                }
                let word: String = b[i..j].iter().collect::<String>().to_lowercase();
                // `real*8` — swallow the `*8` type width as part of the
                // keyword for simplicity.
                if word == "real" && b.get(j) == Some(&'*') {
                    let mut k = j + 1;
                    while k < b.len() && b[k].is_ascii_digit() {
                        k += 1;
                    }
                    toks.push(Tok::Ident("real".into()));
                    i = k;
                } else {
                    toks.push(Tok::Ident(word));
                    i = j;
                }
            }
            other => {
                errors.push(CompileError::new(
                    span,
                    ErrorKind::Lex,
                    file_name,
                    format!("unexpected character `{other}`"),
                ));
                i += 1;
            }
        }
    }
    if errors.is_empty() {
        Ok(toks)
    } else {
        Err(errors)
    }
}

/// Lex a numeric literal starting at `i`; returns the token and the next
/// index. Handles `123`, `1.5`, `.5`, `1e3`, `1.5d-3`, `2.`.
fn lex_number(b: &[char], mut i: usize) -> (Tok, usize) {
    let start = i;
    let mut is_real = false;
    while i < b.len() && b[i].is_ascii_digit() {
        i += 1;
    }
    if i < b.len() && b[i] == '.' {
        // Don't swallow a dot-operator: `1.lt.2`.
        let after = b.get(i + 1);
        if after.is_some_and(|c| c.is_ascii_digit()) {
            is_real = true;
            i += 1;
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
        } else if !after.is_some_and(|c| c.is_ascii_alphabetic()) {
            // `2.` (trailing dot, not an operator)
            is_real = true;
            i += 1;
        }
    }
    if i < b.len() && matches!(b[i], 'e' | 'E' | 'd' | 'D') {
        let mut j = i + 1;
        if j < b.len() && (b[j] == '+' || b[j] == '-') {
            j += 1;
        }
        if j < b.len() && b[j].is_ascii_digit() {
            is_real = true;
            i = j;
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
    let text: String = b[start..i]
        .iter()
        .map(|&c| if c == 'd' || c == 'D' { 'e' } else { c })
        .collect();
    if is_real {
        (Tok::Real(text.parse().unwrap_or(0.0)), i)
    } else {
        (Tok::Int(text.parse().unwrap_or(0)), i)
    }
}
