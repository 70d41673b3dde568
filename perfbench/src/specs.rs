//! The benchmark's inputs: fixed copies of the specifications it checks,
//! seeded renderings of them, and the set-up step that turns spec text
//! into a compiled `ArchSpec` and its Büchi automata.
//!
//! The copies live beside the benchmark so that editing an example spec
//! cannot silently change what the benchmark measures.

use pnp_kernel::SplitMix64;
use pnp_lang::{compile_ast, parse_system, ArchSpec, PropertySpec};

use crate::trace;

/// The repaired single-lane bridge (one car per side, unbounded laps).
pub const BRIDGE_FIXED: &str = include_str!("../specs/bridge_fixed.pnp");
/// The paper's initial bridge, whose crash the checker finds.
pub const BRIDGE_BUGGY: &str = include_str!("../specs/bridge_buggy.pnp");
/// The repaired bridge with a one-lap budget and `[] safe` as LTL.
pub const BRIDGE_LIVE: &str = include_str!("../specs/bridge_live.pnp");
/// One blue car and no red car: `[] <> blue` fails by a lasso.
pub const BRIDGE_STARVE: &str = include_str!("../specs/bridge_starve.pnp");
/// The tiny specs the service workload submits, by name.
pub const SERVICE_SPECS: [(&str, &str); 4] = [
    ("wire", include_str!("../specs/wire.pnp")),
    ("newswire", include_str!("../specs/newswire.pnp")),
    ("priority_mail", include_str!("../specs/priority_mail.pnp")),
    ("wire_lossy", include_str!("../specs/wire_lossy.pnp")),
];

/// An equivalent rendering of `text`: each space between tokens (outside
/// strings and comments) becomes a tab or stays a space, by the seed. The
/// token stream, and so the compiled spec and every verdict, is the same
/// for every seed, and so is the length, so parsing costs the same.
pub fn render(text: &str, rng: &mut SplitMix64) -> String {
    let mut out = String::with_capacity(text.len());
    let mut in_string = false;
    let mut in_comment = false;
    let mut prev = '\0';
    for c in text.chars() {
        match c {
            '\n' => in_comment = false,
            '"' if !in_comment => in_string = !in_string,
            '/' if prev == '/' && !in_string => in_comment = true,
            _ => {}
        }
        if c == ' ' && !in_string && !in_comment && rng.next_u64().is_multiple_of(2) {
            out.push('\t');
        } else {
            out.push(c);
        }
        prev = c;
    }
    out
}

/// A spec ready to verify, with the set-up counts the traced run reports.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The compiled spec.
    pub spec: ArchSpec,
    /// States of the Büchi automata of its LTL properties' negations.
    pub buchi_states: usize,
}

/// Set-up: parses and compiles `text`, and translates the negation of
/// each LTL property to a Büchi automaton.
///
/// # Errors
///
/// The parse or compile error, rendered.
pub fn prepare(text: &str) -> Result<Prepared, String> {
    let ast = {
        let _span = trace::span("lang.parse");
        parse_system(text).map_err(|e| format!("parse: {e}"))?
    };
    let spec = {
        let _span = trace::span("lang.compile");
        compile_ast(&ast).map_err(|e| format!("compile: {e}"))?
    };
    let mut buchi_states = 0;
    for property in spec.properties() {
        if let PropertySpec::Ltl { formula, .. } = property {
            let _span = trace::span("ltl.translate");
            buchi_states +=
                std::hint::black_box(pnp_ltl::translate(&formula.negated())).state_count();
        }
    }
    Ok(Prepared { spec, buchi_states })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renderings_keep_length_and_compile_the_same() {
        for text in [BRIDGE_FIXED, BRIDGE_BUGGY, BRIDGE_LIVE, SERVICE_SPECS[0].1] {
            let base = prepare(text).unwrap();
            for seed in 0..4 {
                let rendered = render(text, &mut SplitMix64::seed_from_u64(seed));
                assert_eq!(rendered.len(), text.len());
                let spec = prepare(&rendered).unwrap();
                assert_eq!(
                    spec.spec.system().program().transition_count(),
                    base.spec.system().program().transition_count()
                );
                assert_eq!(spec.buchi_states, base.buchi_states);
            }
        }
        let a = render(BRIDGE_FIXED, &mut SplitMix64::seed_from_u64(1));
        let b = render(BRIDGE_FIXED, &mut SplitMix64::seed_from_u64(2));
        assert_ne!(a, b, "the seed picks the rendering");
    }
}
