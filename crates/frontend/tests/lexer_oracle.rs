//! The byte-level lexer against the char-based reference lexer in
//! `char_lexer/`: equal logical lines (span, directive flag, tokens
//! rendered with identifiers spelt out) and equal diagnostics (kind,
//! span, message) on generated programs, mixed-case variants and garbage.

mod char_lexer;
mod common;

use common::{arb_garbage, arb_mixed_case, arb_program};
use dsm_frontend::lexer::{lex, Tok};
use dsm_frontend::{CompileError, Span};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

type Rendered = Result<Vec<(Span, bool, Vec<String>)>, Vec<CompileError>>;

fn byte_lexer(text: &str) -> Rendered {
    let lexed = lex(0, "f.f", text)?;
    let render = |t: Tok, text: &str| match t.name(text) {
        Some(name) => format!("Ident({name:?})"),
        None => format!("{t:?}"),
    };
    Ok(lexed
        .lines()
        .map(|l| {
            let toks = l.toks.iter().map(|&t| render(t, l.text)).collect();
            (l.span, l.directive, toks)
        })
        .collect())
}

fn char_lexer(text: &str) -> Rendered {
    let lines = char_lexer::lex(0, "f.f", text)?;
    Ok(lines
        .into_iter()
        .map(|l| {
            let toks = l.toks.iter().map(|t| format!("{t:?}")).collect();
            (l.span, l.directive, toks)
        })
        .collect())
}

fn agree(text: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(byte_lexer(text), char_lexer(text), "on {:?}", text);
    Ok(())
}

/// Line ends, continuations and literals at the edges of the lexer.
#[test]
fn edge_cases_lex_alike() {
    for text in [
        "",
        "&\n      x = 1\n",
        "      x = 1 + &\nc comment between\n\n      2\n",
        "      x = @ + &\n      y\n",
        "      x = 1\r\n      y = 2\r",
        "      x = 1\r      y = 2\n",
        "C$\n      x = 99999999999999999999 + 1.0D999 + 1e-999\n",
        "      v = 1.000000000000000000000000000000000000000000000000000000000000001D0\n",
        "      REAL*8 a, REAL*16 b, real*x, reals*8\n",
        "      x = .é. + é€😀 ! é\n",
        "      x = 1.LT.2 .x 3. .lt .5 1.e .Foo. 2.D+ 1d-3\n",
        " \t \n\t!x\n  c not a comment\n",
    ] {
        if let Err(e) = agree(text) {
            panic!("{e:?}");
        }
    }
}

proptest! {
    #[test]
    fn generated_programs_lex_alike(src in arb_program()) {
        agree(&src)?;
    }

    #[test]
    fn mixed_case_programs_lex_alike(src in arb_mixed_case()) {
        agree(&src)?;
    }

    #[test]
    fn garbage_lexes_alike(text in arb_garbage()) {
        agree(&text)?;
    }
}
