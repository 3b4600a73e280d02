//! Property-based tests of the frontend: generated programs survive the
//! lexer/parser round trip, and the front end never panics on arbitrary
//! text.

mod common;

use common::{arb_garbage, arb_program};
use dsm_frontend::{compile_sources, parse_source};
use proptest::prelude::*;

proptest! {
    /// Generated programs parse and analyze cleanly.
    #[test]
    fn generated_programs_compile(src in arb_program()) {
        let result = compile_sources(&[("gen.f", &src)]);
        prop_assert!(result.is_ok(), "failed on:\n{}\n{:?}", src, result.err());
    }

    /// Parsing and semantic analysis never panic on garbage, non-ASCII
    /// chars included — errors are diagnostics, not crashes.
    #[test]
    fn parser_total_on_ascii_garbage(text in arb_garbage()) {
        let _ = parse_source(0, "garbage.f", &text);
        let _ = compile_sources(&[("garbage.f", &text)]);
    }

    /// Integer literals round-trip through the lexer.
    #[test]
    fn integer_literals_roundtrip(v in 0i64..1_000_000) {
        let src = format!("      program main\n      integer i\n      i = {v}\n      end\n");
        let units = parse_source(0, "t.f", &src).expect("parses");
        let found = format!("{:?}", units[0].body);
        prop_assert!(found.contains(&v.to_string()));
    }

    /// Directive distributions parse for every dimension combination.
    #[test]
    fn distribute_directives_parse(
        dists in prop::collection::vec(0usize..4, 1..4),
        reshape in any::<bool>(),
    ) {
        let items: Vec<&str> = dists
            .iter()
            .map(|d| match d {
                0 => "block",
                1 => "cyclic",
                2 => "cyclic(3)",
                _ => "*",
            })
            .collect();
        let dims = vec!["10"; items.len()].join(", ");
        let dir = if reshape { "c$distribute_reshape" } else { "c$distribute" };
        // Skip the all-star case only in the sense that it is still legal.
        let src = format!(
            "      program main\n      real*8 a({dims})\n{dir} a({})\n      end\n",
            items.join(", ")
        );
        let r = compile_sources(&[("t.f", &src)]);
        prop_assert!(r.is_ok(), "failed on:\n{src}\n{:?}", r.err());
    }
}
