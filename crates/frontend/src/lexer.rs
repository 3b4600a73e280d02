//! Line-oriented lexer.
//!
//! Fortran is line-structured, and so are the directives (`c$` in column
//! 1). [`lex`] lowers the whole file once with `to_ascii_lowercase`,
//! which keeps every byte offset (the language folds case everywhere,
//! and no identifier byte is non-ASCII), and lexes those bytes into one
//! flat buffer of [`Copy`] tokens. An identifier is a byte range of the
//! lowered text. A *logical* line (continuations with a trailing `&` are
//! joined) is a range of the buffer plus whether it is a directive line;
//! [`Lexed::lines`] hands them out as borrowed [`Line`] views.

use std::fmt;
use std::ops::Range;

use crate::error::{CompileError, ErrorKind, Span};

/// A token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tok {
    /// Identifier or keyword: bytes `at..at + len` of the lowered text
    /// (see [`Tok::name`]).
    Ident {
        /// Byte offset in the lowered text.
        at: u32,
        /// Length in bytes.
        len: u32,
    },
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

const _: () = assert!(std::mem::size_of::<Tok>() == 16);

impl Tok {
    /// The identifier's name, read from `text`, the lowered text of the
    /// file it was lexed from ([`Line::text`]); `None` for other tokens.
    pub fn name(self, text: &str) -> Option<&str> {
        match self {
            Tok::Ident { at, len } => Some(&text[at as usize..(at + len) as usize]),
            _ => None,
        }
    }

    /// The token as diagnostics quote it, identifiers read from `text`
    /// as in [`Tok::name`].
    pub fn show(self, text: &str) -> impl fmt::Display + '_ {
        Shown(self, text)
    }
}

struct Shown<'a>(Tok, &'a str);

impl fmt::Display for Shown<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self.0 {
            Tok::Ident { .. } => self.0.name(self.1).unwrap_or_default(),
            Tok::Int(v) => return write!(f, "{v}"),
            Tok::Real(v) => return write!(f, "{v}"),
            Tok::Plus => "+",
            Tok::Minus => "-",
            Tok::Star => "*",
            Tok::StarStar => "**",
            Tok::Slash => "/",
            Tok::LParen => "(",
            Tok::RParen => ")",
            Tok::Comma => ",",
            Tok::Assign => "=",
            Tok::Lt => "<",
            Tok::Le => "<=",
            Tok::Gt => ">",
            Tok::Ge => ">=",
            Tok::EqEq => "==",
            Tok::Ne => "/=",
            Tok::And => ".and.",
            Tok::Or => ".or.",
            Tok::Not => ".not.",
        };
        f.write_str(s)
    }
}

/// One logical source line: a view into a [`Lexed`] file.
#[derive(Debug)]
pub struct Line<'a> {
    /// Location of the (first physical) line.
    pub span: Span,
    /// True when the line started with `c$`.
    pub directive: bool,
    /// Tokens.
    pub toks: &'a [Tok],
    /// The whole lowered file, which [`Tok::Ident`] ranges index.
    pub text: &'a str,
}

impl<'a> Line<'a> {
    /// The name of token `k`, if it is an identifier.
    pub fn ident(&self, k: usize) -> Option<&'a str> {
        self.toks.get(k)?.name(self.text)
    }
}

/// A lexed file: its lowered text, all of its tokens in one buffer, and
/// each logical line as `(span, directive, range of the buffer)`.
#[derive(Debug)]
pub struct Lexed {
    text: String,
    toks: Vec<Tok>,
    lines: Vec<(Span, bool, Range<usize>)>,
}

impl Lexed {
    /// The logical lines, in source order.
    pub fn lines(&self) -> impl ExactSizeIterator<Item = Line<'_>> {
        self.lines.iter().map(|(span, directive, r)| Line {
            span: *span,
            directive: *directive,
            toks: &self.toks[r.clone()],
            text: &self.text,
        })
    }
}

/// True for a whole-line comment: `!`, or `c`/`*` in column 1 that is not
/// a `c$` directive (`raw` is lowered).
fn is_comment(raw: &str) -> bool {
    raw.trim_start().starts_with('!')
        || raw.starts_with('*')
        || (raw.starts_with('c') && !raw.starts_with("c$"))
}

/// Lex a whole file into logical lines.
///
/// # Errors
///
/// Returns every bad character / malformed literal with its location.
pub fn lex(file: usize, file_name: &str, text: &str) -> Result<Lexed, Vec<CompileError>> {
    if u32::try_from(text.len()).is_err() {
        return Err(vec![CompileError::new(
            Span::new(file, 1),
            ErrorKind::Lex,
            file_name,
            "file larger than 4 GiB",
        )]);
    }
    let text = text.to_ascii_lowercase();
    let mut toks = Vec::new();
    let mut lines: Vec<(Span, bool, Range<usize>)> = Vec::new();
    let mut errors = Vec::new();
    let mut continuing = false;
    let mut next_at = 0;
    // A `\r` before a `\n` is trimmed below like any trailing whitespace,
    // and the empty piece after a final `\n` like any blank line.
    for (lineno0, raw) in text.split('\n').enumerate() {
        let at = next_at;
        next_at += raw.len() + 1;
        let span = Span::new(file, lineno0 + 1);
        if raw.trim().is_empty() || is_comment(raw) {
            continue;
        }
        let (directive, body, at) = match raw.strip_prefix("c$") {
            Some(stripped) => (true, stripped, at + 2),
            None => (false, raw, at),
        };
        // Strip inline comment (! outside any string — we have no strings).
        let body = body.find('!').map_or(body, |p| &body[..p]);
        let mut body = body.trim_end();
        let continues_next = body.ends_with('&');
        if continues_next {
            body = body[..body.len() - 1].trim_end();
        }
        // The last range always ends at the end of the buffer, so a
        // continuation extends it. Tokens no range takes (a continuation
        // with no line before it) are never read, and neither is any range
        // once a line has failed: the file is then an error.
        let first = toks.len();
        lex_line(&mut toks, &mut errors, span, file_name, body, at);
        if continuing {
            if let Some((_, _, r)) = lines.last_mut() {
                r.end = toks.len();
            }
        } else if toks.len() > first {
            lines.push((span, directive, first..toks.len()));
        }
        continuing = continues_next;
    }
    if errors.is_empty() {
        Ok(Lexed { text, toks, lines })
    } else {
        Err(errors)
    }
}

/// The operator starting with byte `c` (`next` follows it) and its width.
fn operator(c: u8, next: Option<u8>) -> Option<(Tok, usize)> {
    Some(match (c, next) {
        (b'+', _) => (Tok::Plus, 1),
        (b'-', _) => (Tok::Minus, 1),
        (b'*', Some(b'*')) => (Tok::StarStar, 2),
        (b'*', _) => (Tok::Star, 1),
        (b'/', Some(b'=')) => (Tok::Ne, 2),
        (b'/', _) => (Tok::Slash, 1),
        (b'(', _) => (Tok::LParen, 1),
        (b')', _) => (Tok::RParen, 1),
        (b',', _) => (Tok::Comma, 1),
        (b'=', Some(b'=')) => (Tok::EqEq, 2),
        (b'=', _) => (Tok::Assign, 1),
        (b'<', Some(b'=')) => (Tok::Le, 2),
        (b'<', _) => (Tok::Lt, 1),
        (b'>', Some(b'=')) => (Tok::Ge, 2),
        (b'>', _) => (Tok::Gt, 1),
        _ => return None,
    })
}

/// The dot-operator or logical constant `.word.`.
fn dot_word(word: &str) -> Option<Tok> {
    Some(match word {
        "lt" => Tok::Lt,
        "le" => Tok::Le,
        "gt" => Tok::Gt,
        "ge" => Tok::Ge,
        "eq" => Tok::EqEq,
        "ne" => Tok::Ne,
        "and" => Tok::And,
        "or" => Tok::Or,
        "not" => Tok::Not,
        "true" => Tok::Int(1),
        "false" => Tok::Int(0),
        _ => return None,
    })
}

/// First index at or after `i` whose byte fails `keep`.
fn scan(b: &[u8], mut i: usize, keep: impl Fn(u8) -> bool) -> usize {
    while i < b.len() && keep(b[i]) {
        i += 1;
    }
    i
}

/// Lex one physical line's `body`, which starts at byte `at` of the
/// lowered text, onto `toks`, pushing what fails to `errors`. Every
/// index stays on a char boundary: only ASCII bytes are stepped over
/// one at a time.
fn lex_line(
    toks: &mut Vec<Tok>,
    errors: &mut Vec<CompileError>,
    span: Span,
    file_name: &str,
    body: &str,
    at: usize,
) {
    let mut error =
        |msg: String| errors.push(CompileError::new(span, ErrorKind::Lex, file_name, msg));
    let b = body.as_bytes();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c == b' ' || c == b'\t' {
            i += 1;
        } else if let Some((tok, width)) = operator(c, b.get(i + 1).copied()) {
            toks.push(tok);
            i += width;
        } else if c == b'.' && b.get(i + 1).is_some_and(u8::is_ascii_alphabetic) {
            // Dot-operator, or a stray `.` before a name.
            let j = scan(b, i + 1, |c| c.is_ascii_alphabetic());
            if b.get(j) == Some(&b'.') {
                let word = &body[i + 1..j];
                match dot_word(word) {
                    Some(tok) => toks.push(tok),
                    None => error(format!("unknown operator `.{word}.`")),
                }
                i = j + 1;
            } else {
                error("stray `.`".to_string());
                i += 1;
            }
        } else if c.is_ascii_digit() || (c == b'.' && b.get(i + 1).is_some_and(u8::is_ascii_digit))
        {
            let (tok, next) = lex_number(body, i);
            toks.push(tok);
            i = next;
        } else if c == b'.' {
            error("stray `.`".to_string());
            i += 1;
        } else if c.is_ascii_alphabetic() || c == b'_' {
            let j = scan(b, i, |c| {
                c.is_ascii_alphanumeric() || c == b'_' || c == b'$'
            });
            // `real*8` — swallow the `*8` type width as part of the
            // keyword for simplicity.
            let end = if &body[i..j] == "real" && b.get(j) == Some(&b'*') {
                scan(b, j + 1, |c| c.is_ascii_digit())
            } else {
                j
            };
            // Both fit: `lex` refused texts whose offsets overflow `u32`.
            toks.push(Tok::Ident {
                at: (at + i) as u32,
                len: (j - i) as u32,
            });
            i = end;
        } else {
            let other = body[i..].chars().next().expect("i is on a char boundary");
            error(format!("unexpected character `{other}`"));
            i += other.len_utf8();
        }
    }
}

/// Lex a numeric literal starting at `start`; returns the token and the
/// next index. Handles `123`, `1.5`, `.5`, `1e3`, `1.5d-3`, `2.`.
fn lex_number(body: &str, start: usize) -> (Tok, usize) {
    let b = body.as_bytes();
    let digits = |i| scan(b, i, |c| c.is_ascii_digit());
    let mut i = digits(start);
    let mut is_real = false;
    if b.get(i) == Some(&b'.') {
        // Don't swallow a dot-operator: `1.lt.2`.
        let after = b.get(i + 1);
        if after.is_some_and(u8::is_ascii_digit) {
            is_real = true;
            i = digits(i + 1);
        } else if !after.is_some_and(u8::is_ascii_alphabetic) {
            // `2.` (trailing dot, not an operator)
            is_real = true;
            i += 1;
        }
    }
    let mut d_exponent = None;
    if matches!(b.get(i), Some(b'e' | b'd')) {
        let mut j = i + 1;
        if matches!(b.get(j), Some(b'+' | b'-')) {
            j += 1;
        }
        if b.get(j).is_some_and(u8::is_ascii_digit) {
            is_real = true;
            d_exponent = (b[i] == b'd').then_some(i - start);
            i = digits(j);
        }
    }
    let lit = &body[start..i];
    let tok = if !is_real {
        Tok::Int(lit.parse().unwrap_or(0))
    } else if let Some(d) = d_exponent {
        Tok::Real(parse_d_exponent(lit, d))
    } else {
        Tok::Real(lit.parse().unwrap_or(0.0))
    };
    (tok, i)
}

/// Parse the real literal `lit` whose exponent letter at byte `d` is `d`
/// (read as `e`), copying it into a stack buffer; only a literal longer
/// than the buffer allocates.
fn parse_d_exponent(lit: &str, d: usize) -> f64 {
    let mut buf = [0u8; 64];
    let Some(copy) = buf.get_mut(..lit.len()) else {
        return lit.replacen('d', "e", 1).parse().unwrap_or(0.0);
    };
    copy.copy_from_slice(lit.as_bytes());
    copy[d] = b'e';
    std::str::from_utf8(copy).map_or(0.0, |s| s.parse().unwrap_or(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tokens of a source holding one logical line.
    fn toks(src: &str) -> Vec<Tok> {
        let lexed = lex(0, "t.f", src).expect("lex ok");
        let lines: Vec<Line> = lexed.lines().collect();
        assert_eq!(lines.len(), 1, "expected a single logical line");
        lines[0].toks.to_vec()
    }

    /// The same tokens as diagnostics quote them.
    fn words(src: &str) -> Vec<String> {
        let lexed = lex(0, "t.f", src).expect("lex ok");
        let line = lexed.lines().next().expect("one line");
        line.toks
            .iter()
            .map(|t| t.show(line.text).to_string())
            .collect()
    }

    #[test]
    fn idents_and_numbers() {
        assert_eq!(words("a1 = 42"), ["a1", "=", "42"]);
        assert_eq!(words("A1 = 42"), ["a1", "=", "42"]);
        assert_eq!(toks("a1 = 42")[2], Tok::Int(42));
        assert_eq!(toks("x = 1.5")[2], Tok::Real(1.5));
        assert_eq!(toks("x = 1.5d2")[2], Tok::Real(150.0));
        assert_eq!(toks("x = 1.5D2")[2], Tok::Real(150.0));
        assert_eq!(toks("x = 2.")[2], Tok::Real(2.0));
        assert_eq!(toks("x = .5")[2], Tok::Real(0.5));
    }

    #[test]
    fn real_star_8_swallowed() {
        assert_eq!(words("real*8 a(10)"), ["real", "a", "(", "10", ")"]);
        assert_eq!(words("REAL*8 A(10)"), ["real", "a", "(", "10", ")"]);
    }

    #[test]
    fn dot_operators_and_symbols_equivalent() {
        assert_eq!(words("a .lt. b"), words("a < b"));
        assert_eq!(words("a .GE. b"), words("a >= b"));
        assert_eq!(words("a .ne. b"), words("a /= b"));
        assert_eq!(toks("a .and. b")[1], Tok::And);
    }

    #[test]
    fn number_dot_operator_not_confused() {
        // `1.lt.2` must lex as Int(1) Lt Int(2), not Real(1.) ...
        assert_eq!(
            toks("if (1.lt.2) x = 1")[2..5],
            [Tok::Int(1), Tok::Lt, Tok::Int(2)]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let src = "c a full-line comment\n! another\n      x = 1 ! trailing\n* star comment\n";
        let lexed = lex(0, "t.f", src).unwrap();
        let lines: Vec<Line> = lexed.lines().collect();
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].span.line, 3);
    }

    #[test]
    fn directive_lines_flagged() {
        let lexed = lex(0, "t.f", "C$DISTRIBUTE a(block)\n      x = 1\n").unwrap();
        let lines: Vec<Line> = lexed.lines().collect();
        assert!(lines[0].directive);
        assert!(!lines[1].directive);
        assert_eq!(lines[0].ident(0), Some("distribute"));
    }

    #[test]
    fn continuation_joins_lines() {
        let lexed = lex(0, "t.f", "      x = 1 + &\n          2\n").unwrap();
        let lines: Vec<Line> = lexed.lines().collect();
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].toks.last(), Some(&Tok::Int(2)));
    }

    #[test]
    fn power_and_star() {
        assert_eq!(toks("x = a ** 2")[3], Tok::StarStar);
        assert_eq!(toks("x = a * 2")[3], Tok::Star);
    }

    #[test]
    fn bad_char_reported() {
        let err = lex(0, "t.f", "      x = @\n").unwrap_err();
        assert_eq!(err[0].kind, ErrorKind::Lex);
        assert!(err[0].msg.contains('@'));
        let err = lex(0, "t.f", "      x = é + 1\n").unwrap_err();
        assert_eq!(err[0].msg, "unexpected character `é`");
    }

    #[test]
    fn c_dollar_is_directive_but_c_space_is_comment() {
        let lexed = lex(0, "t.f", "c$doacross local(i)\nC plain comment\n").unwrap();
        let lines: Vec<Line> = lexed.lines().collect();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].directive);
    }
}
