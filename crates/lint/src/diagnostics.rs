//! Diagnostic types, rule identities and source positions.

use std::fmt;

/// Every rule the analyzer can fire, grouped into the contract
/// families of DESIGN.md §9. The family decides the process exit bit,
/// so CI logs show *which* contract broke from the exit code alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/
    /// `unimplemented!` in a panic-free scope.
    Panic,
    /// Slice/array indexing (`x[i]`, `&x[a..b]`) in a panic-free scope.
    Index,
    /// Nondeterminism source (`HashMap`, `Instant::now`, …) in a
    /// numeric path.
    Determinism,
    /// Allocating call inside a `// lint:no_alloc` region.
    Alloc,
    /// Missing `#![deny(unsafe_code)]` crate-root attribute, or an
    /// `unsafe` token anywhere.
    Unsafe,
    /// A manifest dependency edge that points up (or sideways) in the
    /// crate layering.
    Layering,
    /// Raw `thread::spawn`/`thread::scope` in the tensor kernels, which
    /// are single-threaded: independent units are parallelised by the
    /// caller.
    Spawn,
    /// A cycle in the cross-file lock-order graph: two functions that
    /// acquire the same named locks in opposite orders.
    LockOrder,
    /// A `Condvar::wait`/`wait_timeout` not re-checked by an enclosing
    /// `while`/`loop` predicate (an `if`-guarded or bare wait loses
    /// wakeups).
    Condvar,
    /// `Ordering::Relaxed` on an atomic that other sites access with
    /// an acquire/release ordering, or that gates a condvar wait loop.
    Atomics,
    /// `let _ =` / `.ok()` discarding the `Result` of a lock, send,
    /// join or queue call on a serve/wire hot path.
    Swallow,
    /// Malformed/unknown `lint:` directive, missing reason, unmatched
    /// region marker.
    Directive,
}

/// Exit-code bits per rule family (OR-ed together; 0 = clean).
pub const EXIT_PANIC: i32 = 1;
pub const EXIT_DETERMINISM: i32 = 2;
pub const EXIT_ALLOC: i32 = 4;
pub const EXIT_LAYERING: i32 = 8;
pub const EXIT_DIRECTIVE: i32 = 16;
pub const EXIT_CONCURRENCY: i32 = 32;

impl Rule {
    /// Every rule the analyzer knows, in diagnostic sort order — the
    /// roster the DESIGN.md §9 table is asserted against.
    pub const ALL: [Rule; 12] = [
        Rule::Panic,
        Rule::Index,
        Rule::Determinism,
        Rule::Alloc,
        Rule::Unsafe,
        Rule::Layering,
        Rule::Spawn,
        Rule::LockOrder,
        Rule::Condvar,
        Rule::Atomics,
        Rule::Swallow,
        Rule::Directive,
    ];

    /// The name used in diagnostics and `lint:allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Panic => "panic",
            Rule::Index => "index",
            Rule::Determinism => "determinism",
            Rule::Alloc => "alloc",
            Rule::Unsafe => "unsafe",
            Rule::Layering => "layering",
            Rule::Spawn => "spawn",
            Rule::LockOrder => "lock-order",
            Rule::Condvar => "condvar",
            Rule::Atomics => "atomics",
            Rule::Swallow => "swallow",
            Rule::Directive => "directive",
        }
    }

    /// The family bit this rule contributes to the process exit code.
    pub fn exit_bit(self) -> i32 {
        match self {
            Rule::Panic | Rule::Index => EXIT_PANIC,
            Rule::Determinism => EXIT_DETERMINISM,
            Rule::Alloc => EXIT_ALLOC,
            Rule::Unsafe | Rule::Layering | Rule::Spawn => EXIT_LAYERING,
            Rule::LockOrder | Rule::Condvar | Rule::Atomics | Rule::Swallow => EXIT_CONCURRENCY,
            Rule::Directive => EXIT_DIRECTIVE,
        }
    }

    /// Rules an inline `lint:allow` may waive. `unsafe`/`layering`/
    /// `spawn` are structural contracts with no escape hatch, as are
    /// `lock-order` (a deadlock cannot be waived into correctness) and
    /// `condvar` (a lost wakeup neither); `directive` violations are
    /// errors in the escape hatch itself.
    pub fn allowable(name: &str) -> bool {
        matches!(
            name,
            "panic" | "index" | "determinism" | "alloc" | "atomics" | "swallow"
        )
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One violation at a source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Workspace-root-relative path with forward slashes.
    pub file: String,
    pub line: u32,
    pub col: u32,
    /// 0-based byte offset of the violation in the file — the stable
    /// sort key (filled in by [`crate::run`] from the file contents;
    /// `0` until then).
    pub offset: u32,
    pub rule: Rule,
    pub message: String,
}

impl Diagnostic {
    pub fn new(file: &str, line: u32, col: u32, rule: Rule, message: impl Into<String>) -> Self {
        Self {
            file: file.to_string(),
            line,
            col,
            offset: 0,
            rule,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: error[{}]: {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Byte offset of 1-based (`line`, `col`) in `src` (columns count
/// characters, offsets count bytes). Positions past the end of the
/// text saturate at its length, so a diagnostic on a synthetic
/// position still gets a stable key.
pub fn byte_offset(src: &str, line: u32, col: u32) -> u32 {
    let mut cur_line = 1u32;
    let mut cur_col = 1u32;
    let mut offset = 0u32;
    for c in src.chars() {
        if cur_line == line && cur_col == col {
            return offset;
        }
        if cur_line > line {
            break;
        }
        offset += c.len_utf8() as u32;
        if c == '\n' {
            cur_line += 1;
            cur_col = 1;
        } else {
            cur_col += 1;
        }
    }
    offset
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_has_a_distinct_name_and_a_family_bit() {
        let mut names = Vec::new();
        for rule in Rule::ALL {
            assert!(rule.exit_bit().count_ones() == 1, "{rule:?}");
            names.push(rule.name());
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Rule::ALL.len());
    }

    #[test]
    fn concurrency_rules_share_bit_32() {
        for rule in [Rule::LockOrder, Rule::Condvar, Rule::Atomics, Rule::Swallow] {
            assert_eq!(rule.exit_bit(), EXIT_CONCURRENCY);
        }
    }

    #[test]
    fn lock_order_and_condvar_have_no_hatch() {
        assert!(!Rule::allowable("lock-order"));
        assert!(!Rule::allowable("condvar"));
        assert!(Rule::allowable("atomics"));
        assert!(Rule::allowable("swallow"));
    }

    #[test]
    fn byte_offset_counts_bytes_not_chars() {
        let src = "ab\n\u{e9}cd\n";
        assert_eq!(byte_offset(src, 1, 1), 0);
        assert_eq!(byte_offset(src, 2, 1), 3);
        // `é` is two bytes, so column 2 of line 2 is offset 5.
        assert_eq!(byte_offset(src, 2, 2), 5);
        // Past-the-end saturates.
        assert_eq!(byte_offset(src, 9, 9), src.len() as u32);
    }
}
