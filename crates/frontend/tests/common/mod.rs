//! Input generators shared by the frontend's property tests.

// Each test binary uses only some of them.
#![allow(dead_code)]

use proptest::prelude::*;

/// A tiny generator of well-formed programs.
pub fn arb_program() -> impl Strategy<Value = String> {
    let name = "[a-d]";
    let num = 1i64..100;
    (
        prop::collection::vec((name, num.clone()), 1..4),
        prop::collection::vec((name, num.clone(), num), 0..4),
    )
        .prop_map(|(arrays, loops)| {
            let mut src = String::from("      program main\n      integer i\n");
            let mut declared = std::collections::BTreeSet::new();
            for (n, sz) in &arrays {
                if declared.insert(n.clone()) {
                    src.push_str(&format!("      real*8 {n}({sz})\n"));
                }
            }
            for (n, lo, hi) in &loops {
                if declared.contains(n) {
                    let (lo, hi) = (*lo.min(hi), *lo.max(hi));
                    src.push_str(&format!(
                        "      do i = {lo}, {hi}\n        {n}(mod(i, 1) + 1) = i\n      enddo\n"
                    ));
                }
            }
            src.push_str("      end\n");
            src
        })
}

/// Lines in mixed case that use everything the lexer folds or joins.
const MIXED_LINES: &[&str] = &[
    "      REAL*8 B(10), C(20)",
    "C$DOACROSS LOCAL(I) SHARED(A) AFFINITY(I) = DATA(A(I))",
    "C$Distribute_Reshape A(*, BLOCK) ONTO(2, 1)",
    "      X = 1.5D3 + 2.E-1 * .5d0 ** 2",
    "      IF (I .LT. N .AND. .NOT. J .GE. 2) X = 1",
    "      Y = 1 + &",
    "     &  2 .EQ. 3",
    "C a comment",
    "! Bang",
    "* Star",
    "      Z = Y ! Trailing",
    "      END DO",
    "      Q = 3.LT.4 .OR. .TRUE.",
    "\tX = 1.5d+3\r",
    "      W = 1.0D999 + 12345678901234567890",
    "      V = 1.000000000000000000000000000000000000000000000000000000000000001D0",
];

/// [`arb_program`] with [`MIXED_LINES`] spliced in and the case of its
/// letters flipped by a repeating mask.
pub fn arb_mixed_case() -> impl Strategy<Value = String> {
    (
        arb_program(),
        prop::collection::vec((0..MIXED_LINES.len(), 0usize..64), 0..8),
        prop::collection::vec(any::<bool>(), 1..32),
    )
        .prop_map(|(src, inserts, mask)| {
            let mut lines: Vec<&str> = src.lines().collect();
            for (k, at) in inserts {
                lines.insert(at % (lines.len() + 1), MIXED_LINES[k]);
            }
            let mut flips = mask.iter().cycle();
            let mut out = String::new();
            for line in lines {
                for c in line.chars() {
                    let flip = c.is_ascii_alphabetic() && *flips.next().unwrap();
                    out.push(if flip { c.to_ascii_uppercase() } else { c });
                }
                out.push('\n');
            }
            out
        })
}

/// Pieces of lines: comment, directive and continuation markers, dot
/// operators, literals, keywords, and non-ASCII chars of two, three and
/// four UTF-8 bytes.
#[rustfmt::skip]
const FRAGMENTS: &[&str] = &[
    "\n", "\n", "\r\n", "\r", "c$", "C$", "c", "C", "*", "**", "!", "&", "&\n", " ", "  ", "\t",
    ".", ".LT.", ".lt", ".Foo.", ".TRUE.", "1", "25", "2.", ".5", "1.5D3", "1e", "E+", "d-", "7",
    "REAL*8", "real*", "x", "A_1", "$", "_", "(", ")", ",", "=", "==", "/=", "<=", ">", "/",
    "é", "€", "😀", "do", "END", "enddo", "if", "then", "else", "program", "subroutine", "call",
];

/// Garbage: printable ASCII (upper case, `!`, `$` and `.` included),
/// tabs, line ends, and the non-ASCII chars `é € 😀`, either char by char
/// or as runs of [`FRAGMENTS`] that reach the lexer's line-level paths.
pub fn arb_garbage() -> impl Strategy<Value = String> {
    prop_oneof![
        "[ -~\t\r\n\u{e9}\u{20ac}\u{1f600}]{0,300}",
        prop::collection::vec(0..FRAGMENTS.len(), 0..80)
            .prop_map(|ix| ix.iter().map(|&i| FRAGMENTS[i]).collect::<String>()),
    ]
}
