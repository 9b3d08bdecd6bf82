//! Text serialization of QUBOs in the qbsolv `.qubo` format.
//!
//! The format D-Wave's qbsolv tool established and many QUBO tools
//! accept: a `p` header `p qubo 0 maxNodes nNodes nCouplers`, comment
//! lines starting with `c`, one `i i value` line per nonzero diagonal
//! (linear) term and one `i j value` line per coupler. (The constant
//! offset is not part of the format; we carry it in a comment so round
//! trips through our own writer are lossless.)
//!
//! Parsing is an untrusted-input path: every malformed document is
//! reported as a typed [`QuboIoError`], never a panic. The module's one
//! caller outside this crate is the CLI's `--qubo` flag, which prints
//! through [`to_qubo_file`].

use crate::qubo::Qubo;
use std::fmt;
use std::fmt::Write as _;

/// Typed parse failures for `.qubo` documents. Line numbers are
/// 1-based, as editors display them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QuboIoError {
    /// The document ended without a `p qubo` header.
    MissingHeader,
    /// A `p` line that is not `p qubo 0 maxNodes …`.
    MalformedHeader {
        /// 1-based line number.
        line: usize,
    },
    /// A numeric token failed to parse.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// What the token was supposed to be (`"offset"`, `"node
        /// count"`, `"index"`, `"value"`).
        what: &'static str,
        /// The offending token.
        token: String,
    },
    /// A term line appeared before the `p qubo` header.
    TermBeforeHeader {
        /// 1-based line number.
        line: usize,
    },
    /// A term line that is not `i j value`.
    MalformedTerm {
        /// 1-based line number.
        line: usize,
    },
    /// A term referenced a variable outside the declared node count.
    IndexOutOfRange {
        /// 1-based line number.
        line: usize,
        /// The offending index.
        index: usize,
        /// The declared variable count.
        declared: usize,
    },
}

impl fmt::Display for QuboIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuboIoError::MissingHeader => write!(f, "missing 'p qubo' header"),
            QuboIoError::MalformedHeader { line } => write!(f, "line {line}: malformed p line"),
            QuboIoError::BadNumber { line, what, token } => {
                write!(f, "line {line}: bad {what}: {token:?}")
            }
            QuboIoError::TermBeforeHeader { line } => {
                write!(f, "line {line}: term before 'p qubo' header")
            }
            QuboIoError::MalformedTerm { line } => {
                write!(f, "line {line}: expected 'i j value'")
            }
            QuboIoError::IndexOutOfRange { line, index, declared } => {
                write!(f, "line {line}: index {index} out of declared range {declared}")
            }
        }
    }
}

impl std::error::Error for QuboIoError {}

/// Render `q` as a `.qubo` document.
pub fn to_qubo_file(q: &Qubo) -> String {
    let mut out = String::new();
    let nodes = q.linear_terms().count();
    let couplers = q.num_interactions();
    out.push_str("c generated by nck-qubo\n");
    if q.offset() != 0.0 {
        let _ = writeln!(out, "c offset {}", q.offset());
    }
    let _ = writeln!(out, "p qubo 0 {} {} {}", q.num_vars(), nodes, couplers);
    for (i, c) in q.linear_terms() {
        let _ = writeln!(out, "{i} {i} {c}");
    }
    for ((i, j), c) in q.quadratic_terms() {
        let _ = writeln!(out, "{i} {j} {c}");
    }
    out
}

/// Parse a `.qubo` document.
pub fn from_qubo_file(text: &str) -> Result<Qubo, QuboIoError> {
    let mut q: Option<Qubo> = None;
    let mut offset = 0.0f64;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        let lineno = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('c') {
            // Recover the offset comment our writer emits.
            let parts: Vec<&str> = rest.split_whitespace().collect();
            if let ["offset", v] = parts.as_slice() {
                offset = v.parse().map_err(|_| QuboIoError::BadNumber {
                    line: lineno,
                    what: "offset",
                    token: v.to_string(),
                })?;
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix('p') {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            match parts.as_slice() {
                ["qubo", _topology, max_nodes, ..] => {
                    let n: usize = max_nodes.parse().map_err(|_| QuboIoError::BadNumber {
                        line: lineno,
                        what: "node count",
                        token: max_nodes.to_string(),
                    })?;
                    q = Some(Qubo::new(n));
                }
                _ => return Err(QuboIoError::MalformedHeader { line: lineno }),
            }
            continue;
        }
        let qubo = q.as_mut().ok_or(QuboIoError::TermBeforeHeader { line: lineno })?;
        let parts: Vec<&str> = line.split_whitespace().collect();
        let [i, j, v] = parts.as_slice() else {
            return Err(QuboIoError::MalformedTerm { line: lineno });
        };
        let parse_idx = |tok: &str| -> Result<usize, QuboIoError> {
            tok.parse().map_err(|_| QuboIoError::BadNumber {
                line: lineno,
                what: "index",
                token: tok.to_string(),
            })
        };
        let i: usize = parse_idx(i)?;
        let j: usize = parse_idx(j)?;
        let v: f64 = v.parse().map_err(|_| QuboIoError::BadNumber {
            line: lineno,
            what: "value",
            token: v.to_string(),
        })?;
        if i >= qubo.num_vars() || j >= qubo.num_vars() {
            return Err(QuboIoError::IndexOutOfRange {
                line: lineno,
                index: i.max(j),
                declared: qubo.num_vars(),
            });
        }
        if i == j {
            qubo.add_linear(i, v);
        } else {
            qubo.add_quadratic(i, j, v);
        }
    }
    let mut qubo = q.ok_or(QuboIoError::MissingHeader)?;
    qubo.add_offset(offset);
    Ok(qubo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Qubo {
        let mut q = Qubo::new(4);
        q.add_linear(0, -1.5);
        q.add_linear(3, 2.0);
        q.add_quadratic(0, 1, 1.0);
        q.add_quadratic(2, 3, -0.25);
        q.add_offset(7.5);
        q
    }

    #[test]
    fn round_trip() {
        let q = sample();
        let text = to_qubo_file(&q);
        let back = from_qubo_file(&text).unwrap();
        assert_eq!(back.num_vars(), 4);
        for bits in 0..16u64 {
            assert!((q.energy_bits(bits) - back.energy_bits(bits)).abs() < 1e-12);
        }
    }

    #[test]
    fn header_counts() {
        let text = to_qubo_file(&sample());
        assert!(text.contains("p qubo 0 4 2 2"), "header in {text}");
        assert!(text.contains("c offset 7.5"));
    }

    #[test]
    fn parse_errors_are_typed() {
        assert_eq!(
            from_qubo_file("0 0 1.0\n").unwrap_err(),
            QuboIoError::TermBeforeHeader { line: 1 }
        );
        assert_eq!(
            from_qubo_file("p qubo 0 2 1 0\n5 5 1.0\n").unwrap_err(),
            QuboIoError::IndexOutOfRange { line: 2, index: 5, declared: 2 }
        );
        assert_eq!(
            from_qubo_file("p qubo 0 2 1 0\n1 2\n").unwrap_err(),
            QuboIoError::MalformedTerm { line: 2 }
        );
        assert_eq!(
            from_qubo_file("p spin 0 2 1 0\n").unwrap_err(),
            QuboIoError::MalformedHeader { line: 1 }
        );
        assert_eq!(from_qubo_file("c nothing\n").unwrap_err(), QuboIoError::MissingHeader);
        assert_eq!(
            from_qubo_file("p qubo 0 2 1 0\n0 1 not-a-number\n").unwrap_err(),
            QuboIoError::BadNumber { line: 2, what: "value", token: "not-a-number".to_string() }
        );
        assert_eq!(
            from_qubo_file("c offset nope\np qubo 0 1 0 0\n").unwrap_err(),
            QuboIoError::BadNumber { line: 1, what: "offset", token: "nope".to_string() }
        );
        // Display keeps the old human-readable phrasing.
        assert!(from_qubo_file("0 0 1.0\n").unwrap_err().to_string().contains("before 'p qubo'"));
        assert!(from_qubo_file("p qubo 0 2 1 0\n5 5 1.0\n")
            .unwrap_err()
            .to_string()
            .contains("out of declared range"));
    }

    #[test]
    fn hostile_documents_never_panic() {
        // A grab-bag of malformed inputs: each must return Err, not
        // panic (this is the CLI's untrusted-file path).
        let cases = [
            "",
            "p",
            "p qubo",
            "p qubo 0",
            "p qubo 0 99999999999999999999999",
            "p qubo 0 3 1 1\n1",
            "p qubo 0 3 1 1\n1 2 3 4",
            "p qubo 0 3 1 1\n-1 0 1.0",
            "p qubo 0 3 1 1\n0 0 NaN-ish",
            "c offset\nc offset x y\np qubo 0 1 0 0\n0 0",
        ];
        for text in cases {
            assert!(from_qubo_file(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "c hello\n\np qubo 0 2 1 1\nc mid\n0 0 3.0\n0 1 -1.0\n";
        let q = from_qubo_file(text).unwrap();
        assert_eq!(q.linear(0), 3.0);
        assert_eq!(q.quadratic(0, 1), -1.0);
    }

    #[test]
    fn zero_qubo_round_trip() {
        let q = Qubo::new(3);
        let back = from_qubo_file(&to_qubo_file(&q)).unwrap();
        assert_eq!(back.num_vars(), 3);
        assert_eq!(back.num_terms(), 0);
    }
}
