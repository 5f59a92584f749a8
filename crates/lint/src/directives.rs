//! Inline `lint:` directive parsing — the escape hatch and the
//! `no_alloc` region markers.
//!
//! Directives live in **plain `//` line comments** (never doc comments,
//! so rustdoc prose can quote the grammar without tripping the
//! parser). The grammar:
//!
//! ```text
//! // lint:allow(<rule>, reason = "<non-empty>")      single line
//! // lint:allow-region(<rule>, reason = "<non-empty>")
//! // lint:end-region(<rule>)
//! // lint:no_alloc                                   open alloc region
//! // lint:end_no_alloc                               close alloc region
//! ```
//!
//! A line-form `allow` waives the rule on its own line (trailing
//! comment) **and** the immediately following line (standalone comment
//! above the offending statement) — nothing further, so an allow can
//! never drift away from the code it excuses. The `reason` string is
//! **required and must be non-empty**: an exemption without a recorded
//! justification is itself a `directive` violation, as is an unknown
//! rule name, an unmatched region marker, or any `lint:`-prefixed
//! comment the parser cannot understand (typos fail loudly instead of
//! silently not applying).

use crate::diagnostics::{Diagnostic, Rule};
use crate::tokenizer::{Token, TokenKind};

/// An inclusive line span on which `rule` is waived.
#[derive(Debug, Clone)]
struct AllowSpan {
    rule: String,
    start: u32,
    end: u32,
}

/// Parsed directives of one file, plus any violations in the
/// directives themselves.
#[derive(Debug, Default)]
pub struct Directives {
    allows: Vec<AllowSpan>,
    no_alloc: Vec<(u32, u32)>,
    pub diags: Vec<Diagnostic>,
}

impl Directives {
    /// Whether `rule` is waived on `line` by an in-scope allow.
    pub fn allowed(&self, rule: Rule, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule.name() && a.start <= line && line <= a.end)
    }

    /// Whether `line` falls inside a `// lint:no_alloc` region.
    pub fn in_no_alloc(&self, line: u32) -> bool {
        self.no_alloc
            .iter()
            .any(|&(start, end)| start < line && line < end)
    }

    /// True when the file declares at least one `no_alloc` region.
    pub fn has_no_alloc_regions(&self) -> bool {
        !self.no_alloc.is_empty()
    }
}

/// Extracts directives from the comment tokens of `file`.
pub fn parse(file: &str, tokens: &[Token]) -> Directives {
    let mut d = Directives::default();
    let mut open_regions: Vec<AllowSpan> = Vec::new();
    let mut open_no_alloc: Vec<u32> = Vec::new();
    let mut last_line = 1u32;

    for tok in tokens {
        last_line = last_line.max(tok.line);
        if tok.kind != TokenKind::LineComment {
            continue;
        }
        // Strip `//`; skip doc comments (`///`, `//!`).
        let body = &tok.text[2..];
        if body.starts_with('/') || body.starts_with('!') {
            continue;
        }
        let body = body.trim();
        let Some(directive) = body.strip_prefix("lint:") else {
            continue;
        };
        let bad = |d: &mut Directives, msg: String| {
            d.diags.push(Diagnostic::new(
                file,
                tok.line,
                tok.col,
                Rule::Directive,
                msg,
            ));
        };
        if directive == "no_alloc" {
            if !open_no_alloc.is_empty() {
                bad(
                    &mut d,
                    "lint:no_alloc opened inside an already-open no_alloc region".into(),
                );
            }
            open_no_alloc.push(tok.line);
        } else if directive == "end_no_alloc" {
            match open_no_alloc.pop() {
                Some(start) => d.no_alloc.push((start, tok.line)),
                None => bad(&mut d, "lint:end_no_alloc without an open region".into()),
            }
        } else if let Some(rest) = directive.strip_prefix("allow-region(") {
            match parse_allow_args(rest) {
                Ok((rule, _reason)) => {
                    // Nested same-rule regions are a hard error: the
                    // inner end-region would silently close the outer
                    // span early, shrinking a reviewed waiver.
                    if open_regions.iter().any(|r| r.rule == rule) {
                        bad(
                            &mut d,
                            format!(
                                "lint:allow-region({rule}) nested inside an open \
                                 allow-region({rule})"
                            ),
                        );
                    }
                    open_regions.push(AllowSpan {
                        rule,
                        start: tok.line,
                        end: 0,
                    });
                }
                Err(msg) => bad(&mut d, msg),
            }
        } else if let Some(rest) = directive.strip_prefix("end-region(") {
            let rule = rest.trim_end_matches(')').trim();
            match open_regions.iter().rposition(|r| r.rule == rule) {
                Some(i) => {
                    let mut span = open_regions.remove(i);
                    span.end = tok.line;
                    d.allows.push(span);
                }
                None => bad(
                    &mut d,
                    format!("lint:end-region({rule}) without a matching allow-region"),
                ),
            }
        } else if let Some(rest) = directive.strip_prefix("allow(") {
            match parse_allow_args(rest) {
                Ok((rule, _reason)) => d.allows.push(AllowSpan {
                    rule,
                    start: tok.line,
                    end: tok.line + 1,
                }),
                Err(msg) => bad(&mut d, msg),
            }
        } else {
            bad(
                &mut d,
                format!("unrecognised lint directive `lint:{directive}`"),
            );
        }
    }

    for span in open_regions {
        d.diags.push(Diagnostic::new(
            file,
            span.start,
            1,
            Rule::Directive,
            format!("lint:allow-region({}) is never closed", span.rule),
        ));
    }
    for start in open_no_alloc {
        d.diags.push(Diagnostic::new(
            file,
            start,
            1,
            Rule::Directive,
            "lint:no_alloc region is never closed".to_string(),
        ));
    }
    d
}

/// Parses `<rule>, reason = "<text>")` — the argument tail shared by
/// `allow` and `allow-region`. Returns `(rule, reason)`.
fn parse_allow_args(rest: &str) -> Result<(String, String), String> {
    let Some((rule, tail)) = rest.split_once(',') else {
        return Err("lint:allow needs `(<rule>, reason = \"...\")`".into());
    };
    let rule = rule.trim().to_string();
    if !Rule::allowable(&rule) {
        return Err(format!(
            "`{rule}` is not an allowable rule (panic, index, determinism, alloc, atomics, \
             swallow)"
        ));
    }
    let tail = tail.trim();
    let Some(eq_tail) = tail.strip_prefix("reason") else {
        return Err("lint:allow requires a `reason = \"...\"` argument".into());
    };
    let Some(quoted) = eq_tail.trim_start().strip_prefix('=') else {
        return Err("lint:allow reason must use `reason = \"...\"`".into());
    };
    let quoted = quoted.trim_start();
    let Some(inner) = quoted.strip_prefix('"') else {
        return Err("lint:allow reason must be a quoted string".into());
    };
    let Some(end) = inner.rfind('"') else {
        return Err("lint:allow reason string is unterminated".into());
    };
    let reason = &inner[..end];
    if reason.trim().is_empty() {
        return Err("lint:allow reason must not be empty".into());
    }
    Ok((rule, reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn directives(src: &str) -> Directives {
        parse("f.rs", &tokenize(src))
    }

    #[test]
    fn line_allow_covers_its_line_and_the_next() {
        let d = directives("// lint:allow(panic, reason = \"bounded\")\nx.unwrap();\ny();");
        assert!(d.diags.is_empty());
        assert!(d.allowed(Rule::Panic, 1));
        assert!(d.allowed(Rule::Panic, 2));
        assert!(!d.allowed(Rule::Panic, 3));
        assert!(!d.allowed(Rule::Index, 2));
    }

    #[test]
    fn missing_or_empty_reason_is_a_directive_violation() {
        assert_eq!(directives("// lint:allow(panic)").diags.len(), 1);
        assert_eq!(
            directives("// lint:allow(panic, reason = \"  \")")
                .diags
                .len(),
            1
        );
        assert_eq!(
            directives("// lint:alow(panic, reason = \"x\")")
                .diags
                .len(),
            1
        );
        assert_eq!(
            directives("// lint:allow(gravity, reason = \"x\")")
                .diags
                .len(),
            1
        );
    }

    #[test]
    fn regions_must_balance() {
        let ok = directives(
            "// lint:allow-region(index, reason = \"tiled\")\na[0];\n// lint:end-region(index)",
        );
        assert!(ok.diags.is_empty());
        assert!(ok.allowed(Rule::Index, 2));

        let unclosed = directives("// lint:no_alloc\nlet v = Vec::new();");
        assert_eq!(unclosed.diags.len(), 1);
    }

    #[test]
    fn nested_same_rule_allow_regions_are_hard_errors() {
        let d = directives(
            "// lint:allow-region(index, reason = \"outer\")\n\
             // lint:allow-region(index, reason = \"inner\")\n\
             a[0];\n\
             // lint:end-region(index)\n\
             // lint:end-region(index)",
        );
        assert_eq!(d.diags.len(), 1, "{:?}", d.diags);
        assert!(d.diags[0].message.contains("nested"), "{:?}", d.diags);
    }

    #[test]
    fn overlapping_different_rule_regions_stay_legal() {
        // kernels.rs overlaps an allow-region(index) with a no_alloc
        // region — different kinds, no nesting error.
        let d = directives(
            "// lint:allow-region(index, reason = \"tiled\")\n\
             // lint:no_alloc\n\
             a[0];\n\
             // lint:end_no_alloc\n\
             // lint:end-region(index)",
        );
        assert!(d.diags.is_empty(), "{:?}", d.diags);
    }

    #[test]
    fn nested_no_alloc_regions_are_hard_errors() {
        let d = directives(
            "// lint:no_alloc\n// lint:no_alloc\nbody();\n\
             // lint:end_no_alloc\n// lint:end_no_alloc",
        );
        assert_eq!(d.diags.len(), 1, "{:?}", d.diags);
    }

    #[test]
    fn unterminated_region_at_eof_is_a_hard_error() {
        let d = directives("// lint:allow-region(panic, reason = \"x\")\nx.unwrap();");
        assert_eq!(d.diags.len(), 1, "{:?}", d.diags);
        assert!(d.diags[0].message.contains("never closed"), "{:?}", d.diags);
        // ...and the unterminated region waives nothing.
        assert!(!d.allowed(Rule::Panic, 2));
    }

    #[test]
    fn atomics_and_swallow_are_allowable_lock_order_and_condvar_are_not() {
        assert!(directives("// lint:allow(atomics, reason = \"x\")")
            .diags
            .is_empty());
        assert!(directives("// lint:allow(swallow, reason = \"x\")")
            .diags
            .is_empty());
        assert_eq!(
            directives("// lint:allow(lock-order, reason = \"x\")")
                .diags
                .len(),
            1
        );
        assert_eq!(
            directives("// lint:allow(condvar, reason = \"x\")")
                .diags
                .len(),
            1
        );
    }

    #[test]
    fn doc_comments_never_carry_directives() {
        let d = directives("/// // lint:allow(panic, reason = \"doc example\")\nfn f() {}");
        assert!(d.diags.is_empty());
        assert!(!d.allowed(Rule::Panic, 2));
    }

    #[test]
    fn no_alloc_region_is_exclusive_of_marker_lines() {
        let d = directives("// lint:no_alloc\nbody();\n// lint:end_no_alloc");
        assert!(d.in_no_alloc(2));
        assert!(!d.in_no_alloc(1));
        assert!(!d.in_no_alloc(3));
    }
}
