//! A small concrete syntax for collective pipelines.
//!
//! The paper writes programs as `map f ; scan (⊗) ; reduce (⊕) ; map g ;
//! bcast`; this module parses exactly that shape so pipelines can come
//! from the command line (see the `collopt` binary) or config files:
//!
//! ```text
//! pipeline := stage (';' stage)*
//! stage    := 'bcast' | 'gather' | 'scatter' | 'allgather'
//!           | 'scan' '(' op ')'
//!           | 'reduce' '(' op ')'
//!           | 'allreduce' '(' op ')'
//!           | 'map' ident ('@' number)?      -- opaque local stage,
//!                                               optional ops/element
//! op       := 'add' | 'mul' | 'max' | 'min' | 'and' | 'or'
//!           | 'fadd' | 'fmul' | 'maxplus'    -- add distributing over max
//! ```
//!
//! `map` stages parse to identity functions carrying the given label and
//! cost — sufficient for cost analysis and rule matching, which never look
//! inside local stages. Whitespace is free. Parse errors carry a byte
//! [`Span`], 1-based line/column, and a description; [`ParseError::render`]
//! produces a caret-underlined report. [`parse_pipeline_spanned`]
//! additionally returns the byte span of every parsed stage, which the
//! `collopt-analysis` linter reuses to anchor its diagnostics in the
//! source text.

use crate::op::{lib, BinOp};
use crate::term::Program;

/// The most stages a pipeline may have. The optimizer and the linter
/// recurse once per stage, so an unbounded pipeline could overflow the
/// stack of whatever thread parses it (a `collopt serve` connection
/// thread, say) and abort the whole process; a stage past the bound is a
/// [`ParseError`] spanning it.
pub const MAX_STAGES: usize = 256;

/// A half-open byte range `[start, end)` into the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
}

impl Span {
    /// A new span; `end < start` is clamped to the empty span at `start`.
    pub fn new(start: usize, end: usize) -> Self {
        Span {
            start,
            end: end.max(start),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the span covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The spanned slice of `src` (empty if out of bounds).
    pub fn slice<'s>(&self, src: &'s str) -> &'s str {
        src.get(self.start..self.end).unwrap_or("")
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// A parse error with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input the error was detected at (`span.start`).
    pub at: usize,
    /// Byte span of the offending token (empty when the error is at a
    /// position rather than a token, e.g. unexpected end of input).
    pub span: Span,
    /// 1-based line of `at`.
    pub line: usize,
    /// 1-based column of `at`, in characters.
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    fn new(src: &str, span: Span, message: String) -> Self {
        let at = span.start;
        let prefix = &src[..at.min(src.len())];
        let line = prefix.matches('\n').count() + 1;
        let line_start = prefix.rfind('\n').map_or(0, |i| i + 1);
        let col = prefix[line_start..].chars().count() + 1;
        ParseError {
            at,
            span,
            line,
            col,
            message,
        }
    }

    /// Render the error against its source with a caret underline:
    ///
    /// ```text
    /// error: unknown operator 'xor' (…)
    ///  --> line 1, column 6
    ///   |
    ///   | scan(xor)
    ///   |      ^^^
    /// ```
    pub fn render(&self, src: &str) -> String {
        let line_src = src.lines().nth(self.line - 1).unwrap_or("");
        let pad = " ".repeat(self.col - 1);
        let carets = "^".repeat(self.span.slice(src).chars().count().max(1));
        format!(
            "error: {}\n --> line {}, column {}\n  |\n  | {}\n  | {}{}",
            self.message, self.line, self.col, line_src, pad, carets
        )
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "parse error at line {}, column {} (byte {}): {}",
            self.line, self.col, self.at, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Byte span of each parsed stage, in order.
    spans: Vec<Span>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            src,
            pos: 0,
            spans: Vec::new(),
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        // Span the next character if there is one, else the end position.
        let end = self.src[self.pos..]
            .chars()
            .next()
            .map_or(self.pos, |c| self.pos + c.len_utf8());
        ParseError::new(self.src, Span::new(self.pos, end), message.into())
    }

    fn error_span(&self, span: Span, message: impl Into<String>) -> ParseError {
        ParseError::new(self.src, span, message.into())
    }

    fn skip_ws(&mut self) {
        while self.src[self.pos..].starts_with(|c: char| c.is_whitespace()) {
            self.pos += self.src[self.pos..].chars().next().unwrap().len_utf8();
        }
    }

    fn eat(&mut self, token: char) -> Result<(), ParseError> {
        self.skip_ws();
        if self.src[self.pos..].starts_with(token) {
            self.pos += token.len_utf8();
            Ok(())
        } else {
            Err(self.error(format!("expected '{token}'")))
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.src[self.pos..].chars().next()
    }

    fn ident(&mut self) -> Result<&'a str, ParseError> {
        self.skip_ws();
        let start = self.pos;
        let rest = &self.src[start..];
        let len = rest
            .char_indices()
            .take_while(|(_, c)| c.is_alphanumeric() || *c == '_')
            .map(|(i, c)| i + c.len_utf8())
            .last()
            .unwrap_or(0);
        if len == 0 {
            return Err(self.error("expected an identifier"));
        }
        self.pos += len;
        Ok(&rest[..len])
    }

    fn number(&mut self) -> Result<f64, ParseError> {
        self.skip_ws();
        let start = self.pos;
        let rest = &self.src[start..];
        let len = rest
            .char_indices()
            .take_while(|(_, c)| c.is_ascii_digit() || *c == '.')
            .map(|(i, c)| i + c.len_utf8())
            .last()
            .unwrap_or(0);
        if len == 0 {
            return Err(self.error("expected a number"));
        }
        self.pos += len;
        rest[..len]
            .parse()
            .map_err(|e| self.error(format!("bad number: {e}")))
    }

    fn operator(&mut self) -> Result<BinOp, ParseError> {
        self.skip_ws();
        let name_pos = self.pos;
        let name = self.ident()?;
        match name {
            "add" => Ok(lib::add()),
            "mul" => Ok(lib::mul()),
            "max" => Ok(lib::max()),
            "min" => Ok(lib::min()),
            "and" => Ok(lib::and()),
            "or" => Ok(lib::or()),
            "fadd" => Ok(lib::fadd()),
            "fmul" => Ok(lib::fmul()),
            "maxplus" => Ok(lib::add_tropical()),
            other => Err(self.error_span(
                Span::new(name_pos, name_pos + other.len()),
                format!(
                    "unknown operator '{other}' (expected add, mul, max, min, and, or, fadd, fmul, maxplus)"
                ),
            )),
        }
    }

    fn stage(&mut self, prog: Program) -> Result<Program, ParseError> {
        self.skip_ws();
        let kw_pos = self.pos;
        let kw = self.ident()?;
        match kw {
            "bcast" => Ok(prog.bcast()),
            "gather" => Ok(prog.gather()),
            "scatter" => Ok(prog.scatter()),
            "allgather" => Ok(prog.allgather()),
            "scan" | "reduce" | "allreduce" => {
                self.eat('(')?;
                let op = self.operator()?;
                self.eat(')')?;
                Ok(match kw {
                    "scan" => prog.scan(op),
                    "reduce" => prog.reduce(op),
                    _ => prog.allreduce(op),
                })
            }
            "map" => {
                let label = self.ident()?.to_string();
                let ops = if self.peek() == Some('@') {
                    self.eat('@')?;
                    self.number()?
                } else {
                    1.0
                };
                Ok(prog.map(label, ops, |v| v.clone()))
            }
            other => Err(self.error_span(
                Span::new(kw_pos, kw_pos + other.len()),
                format!(
                    "unknown stage '{other}' (expected bcast, gather, scatter, allgather, \
                     scan, reduce, allreduce, map)"
                ),
            )),
        }
    }

    /// Parse one stage and record its byte span. `stage` appends exactly
    /// one [`crate::term::Stage`], so `spans[i]` covers `stages()[i]`.
    fn spanned_stage(&mut self, prog: Program) -> Result<Program, ParseError> {
        self.skip_ws();
        let start = self.pos;
        let prog = self.stage(prog)?;
        // `stage` may have skipped trailing whitespace while peeking for
        // an optional token; don't let the span cover it.
        let end = start + self.src[start..self.pos].trim_end().len();
        self.spans.push(Span::new(start, end));
        Ok(prog)
    }

    fn pipeline(&mut self) -> Result<Program, ParseError> {
        let mut prog = self.spanned_stage(Program::new())?;
        loop {
            self.skip_ws();
            if self.pos >= self.src.len() {
                return Ok(prog);
            }
            self.eat(';')?;
            self.skip_ws();
            if self.pos >= self.src.len() {
                return Ok(prog); // tolerate a trailing semicolon
            }
            prog = self.spanned_stage(prog)?;
            if prog.len() > MAX_STAGES {
                let span = self.spans[MAX_STAGES];
                return Err(self.error_span(
                    span,
                    format!("too many stages: a pipeline has at most {MAX_STAGES}"),
                ));
            }
        }
    }
}

/// Parse a pipeline string into a [`Program`].
pub fn parse_pipeline(src: &str) -> Result<Program, ParseError> {
    parse_pipeline_spanned(src).map(|(prog, _)| prog)
}

/// Parse a pipeline string into a [`Program`] together with the byte span
/// of each stage: `spans[i]` covers `program.stages()[i]` in `src`. The
/// linter uses these to anchor diagnostics on the offending stages.
pub fn parse_pipeline_spanned(src: &str) -> Result<(Program, Vec<Span>), ParseError> {
    let mut p = Parser::new(src);
    p.skip_ws();
    if p.pos >= src.len() {
        return Err(p.error("empty pipeline"));
    }
    let prog = p.pipeline()?;
    debug_assert_eq!(prog.len(), p.spans.len());
    Ok((prog, p.spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_example() {
        let prog = parse_pipeline("map f ; scan(mul) ; reduce(add) ; map g ; bcast").unwrap();
        assert_eq!(
            prog.to_string(),
            "map f ; scan(mul) ; reduce(add) ; map g ; bcast"
        );
        assert_eq!(prog.collective_count(), 3);
    }

    #[test]
    fn parses_without_spaces() {
        let prog = parse_pipeline("bcast;scan(add);scan(add)").unwrap();
        assert_eq!(prog.to_string(), "bcast ; scan(add) ; scan(add)");
    }

    #[test]
    fn parses_map_with_cost_annotation() {
        let prog = parse_pipeline("map heavy@12.5 ; allreduce(max)").unwrap();
        assert_eq!(prog.to_string(), "map heavy ; allreduce(max)");
        // Cost shows up in the estimate: 12.5 ops x m.
        let params = collopt_cost::MachineParams::new(1, 0.0, 0.0);
        assert_eq!(crate::rewrite::program_cost(&prog, &params, 2.0), 25.0);
    }

    #[test]
    fn parsed_operators_carry_their_algebra() {
        let prog = parse_pipeline("scan(maxplus) ; allreduce(max)").unwrap();
        // maxplus distributes over max: SR2 must fire.
        let res = crate::rewrite::Rewriter::exhaustive().optimize(&prog);
        assert_eq!(res.steps.len(), 1);
        assert_eq!(res.steps[0].rule, crate::rules::Rule::Sr2Reduction);
    }

    #[test]
    fn tolerates_trailing_semicolon_and_whitespace() {
        let prog = parse_pipeline("  bcast ;  reduce( add ) ;  ").unwrap();
        assert_eq!(prog.to_string(), "bcast ; reduce(add)");
    }

    #[test]
    fn rejects_unknown_stage() {
        let err = parse_pipeline("shuffle(add)").unwrap_err();
        assert!(err.message.contains("unknown stage"));
        assert_eq!(err.at, 0);
    }

    #[test]
    fn parses_gather_family() {
        let prog = parse_pipeline("gather ; scatter ; allgather").unwrap();
        assert_eq!(prog.to_string(), "gather ; scatter ; allgather");
    }

    #[test]
    fn rejects_unknown_operator_with_position() {
        let err = parse_pipeline("scan(xor)").unwrap_err();
        assert!(err.message.contains("unknown operator 'xor'"));
        assert_eq!(err.at, 5);
    }

    #[test]
    fn rejects_missing_parenthesis() {
        let err = parse_pipeline("scan add").unwrap_err();
        assert!(err.message.contains("expected '('"));
    }

    #[test]
    fn rejects_empty_input() {
        assert!(parse_pipeline("   ").is_err());
        assert!(parse_pipeline("").is_err());
    }

    #[test]
    fn rejects_garbage_between_stages() {
        let err = parse_pipeline("bcast scan(add)").unwrap_err();
        assert!(err.message.contains("expected ';'"));
    }

    #[test]
    fn spanned_parse_covers_every_stage() {
        let src = "map f ; scan(mul) ; reduce(add) ; bcast";
        let (prog, spans) = parse_pipeline_spanned(src).unwrap();
        assert_eq!(spans.len(), prog.len());
        assert_eq!(spans[0].slice(src), "map f");
        assert_eq!(spans[1].slice(src), "scan(mul)");
        assert_eq!(spans[2].slice(src), "reduce(add)");
        assert_eq!(spans[3].slice(src), "bcast");
    }

    #[test]
    fn spans_ignore_surrounding_whitespace() {
        let src = "  bcast ;  reduce( add ) ;  ";
        let (_, spans) = parse_pipeline_spanned(src).unwrap();
        assert_eq!(spans[0].slice(src), "bcast");
        assert_eq!(spans[1].slice(src), "reduce( add )");
    }

    #[test]
    fn errors_carry_line_and_column() {
        let err = parse_pipeline("scan(xor)").unwrap_err();
        assert_eq!((err.line, err.col), (1, 6));
        assert_eq!(err.span.slice("scan(xor)"), "xor");
        let err = parse_pipeline("bcast ;\nscan(add) ;\nshuffle").unwrap_err();
        assert_eq!((err.line, err.col), (3, 1));
        assert!(err.to_string().contains("line 3, column 1"));
    }

    #[test]
    fn render_underlines_the_offending_token() {
        let src = "scan(mul) ; reduce(bogus)";
        let err = parse_pipeline(src).unwrap_err();
        let rendered = err.render(src);
        assert!(rendered.contains("  | scan(mul) ; reduce(bogus)"));
        assert!(rendered.contains("  |                    ^^^^^"));
        assert!(rendered.contains("line 1, column 20"));
    }

    #[test]
    fn a_stage_past_the_bound_is_an_error_spanning_it() {
        let at_bound = vec!["bcast"; MAX_STAGES].join(" ; ");
        assert_eq!(parse_pipeline(&at_bound).unwrap().len(), MAX_STAGES);
        let src = format!("{at_bound} ; scan(add) ; bcast");
        let err = parse_pipeline(&src).unwrap_err();
        assert_eq!(err.span.slice(&src), "scan(add)");
        assert!(err.message.contains(&MAX_STAGES.to_string()), "{err}");
    }

    #[test]
    fn parsed_pipeline_round_trips_through_display() {
        for src in [
            "bcast",
            "scan(add) ; reduce(add)",
            "map f ; bcast ; scan(mul) ; scan(add)",
            "scan(fmul) ; allreduce(fadd)",
        ] {
            let prog = parse_pipeline(src).unwrap();
            let reparsed = parse_pipeline(&prog.to_string()).unwrap();
            assert_eq!(prog.to_string(), reparsed.to_string(), "{src}");
        }
    }
}
