//! The `.mnl` structural netlist language.
//!
//! The paper requires "the circuit schematic expressed in a standard
//! hardware description language" (§3). `.mnl` (maestro netlist) is the
//! minimal structural format carrying exactly what the estimator consumes:
//!
//! ```text
//! # a full adder on standard cells
//! module full_adder;
//! input a, b, cin;
//! output sum, cout;
//! net t1, t2, t3;
//! device x1 XOR2 (A=a, B=b, Y=t1);
//! device x2 XOR2 (A=t1, B=cin, Y=sum);
//! device a1 AND2 (A=a, B=b, Y=t2);
//! device a2 AND2 (A=t1, B=cin, Y=t3);
//! device o1 OR2 (A=t2, B=t3, Y=cout);
//! endmodule
//! ```
//!
//! Identifiers are `[A-Za-z_][A-Za-z0-9_]*`; `#` starts a line comment;
//! nets may be declared lazily by first use inside a `device` binding.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt::Write as _;

use maestro_trace as trace;

use crate::{fan_out, Module, ModuleBuilder, NetlistError, ParseErrorKind, PortDirection};

/// One lexical token. Identifiers borrow their text from the source, so
/// lexing allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Token<'src> {
    Ident(&'src str),
    Semi,
    Comma,
    LParen,
    RParen,
    Equals,
}

#[derive(Debug, Clone, Copy)]
struct Spanned<'src> {
    token: Token<'src>,
    line: usize,
}

/// A streaming lexer: the parser pulls one token at a time, so no
/// whole-file token vector is ever built. The first lexical error ends
/// the stream and is kept for [`Lexer::first_error`].
struct Lexer<'src> {
    source: &'src str,
    pos: usize,
    line: usize,
    /// Line of the most recently yielded token (1 before the first).
    last_line: usize,
    error: Option<NetlistError>,
}

impl<'src> Lexer<'src> {
    fn new(source: &'src str) -> Self {
        Lexer {
            source,
            pos: 0,
            line: 1,
            last_line: 1,
            error: None,
        }
    }

    fn next_token(&mut self) -> Option<Spanned<'src>> {
        let bytes = self.source.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            let token = match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                    continue;
                }
                b' ' | b'\t' | b'\r' => {
                    self.pos += 1;
                    continue;
                }
                // A comment runs to the end of its line.
                b'#' => {
                    self.pos = bytes[self.pos..]
                        .iter()
                        .position(|&c| c == b'\n')
                        .map_or(bytes.len(), |k| self.pos + k);
                    continue;
                }
                b';' => Token::Semi,
                b',' => Token::Comma,
                b'(' => Token::LParen,
                b')' => Token::RParen,
                b'=' => Token::Equals,
                b if b.is_ascii_alphabetic() || b == b'_' => {
                    let start = self.pos;
                    self.pos = bytes[start..]
                        .iter()
                        .position(|&c| !(c.is_ascii_alphanumeric() || c == b'_'))
                        .map_or(bytes.len(), |k| start + k);
                    self.last_line = self.line;
                    return Some(Spanned {
                        token: Token::Ident(&self.source[start..self.pos]),
                        line: self.line,
                    });
                }
                _ => {
                    // Whitespace is Unicode `White_Space` (what `str::trim`,
                    // and so `split_design`, strips), not just ASCII.
                    let c = self.source[self.pos..]
                        .chars()
                        .next()
                        .expect("the lexer stays on char boundaries");
                    if c.is_whitespace() {
                        self.pos += c.len_utf8();
                        continue;
                    }
                    self.pos = bytes.len();
                    self.error = Some(NetlistError::parse(
                        ParseErrorKind::UnexpectedToken,
                        self.line,
                        format!("unexpected character `{c}`"),
                    ));
                    return None;
                }
            };
            self.pos += 1;
            self.last_line = self.line;
            return Some(Spanned {
                token,
                line: self.line,
            });
        }
        None
    }

    /// The first lexical error of the whole source: the one that ended
    /// the stream, or else the first one in the text not yet lexed.
    fn first_error(&mut self) -> Option<NetlistError> {
        while self.next_token().is_some() {}
        self.error.take()
    }
}

struct Parser<'src> {
    lexer: Lexer<'src>,
    peeked: Option<Spanned<'src>>,
}

impl<'src> Parser<'src> {
    fn peek(&mut self) -> Option<Spanned<'src>> {
        if self.peeked.is_none() {
            self.peeked = self.lexer.next_token();
        }
        self.peeked
    }

    fn next(&mut self) -> Option<Spanned<'src>> {
        self.peeked.take().or_else(|| self.lexer.next_token())
    }

    /// End of input where `what` was expected, reported at the last token
    /// of the source.
    fn eof(&self, what: &str) -> NetlistError {
        NetlistError::parse(
            ParseErrorKind::UnexpectedEof,
            self.lexer.last_line,
            format!("expected {what}"),
        )
    }

    fn expect_ident(&mut self, what: &str) -> Result<(&'src str, usize), NetlistError> {
        match self.next() {
            Some(Spanned {
                token: Token::Ident(s),
                line,
            }) => Ok((s, line)),
            Some(Spanned { token, line }) => Err(NetlistError::parse(
                ParseErrorKind::UnexpectedToken,
                line,
                format!("expected {what}, found {token:?}"),
            )),
            None => Err(self.eof(what)),
        }
    }

    fn expect(&mut self, token: Token<'_>, what: &str) -> Result<usize, NetlistError> {
        match self.next() {
            Some(Spanned { token: t, line }) if t == token => Ok(line),
            Some(Spanned { token: t, line }) => Err(NetlistError::parse(
                ParseErrorKind::UnexpectedToken,
                line,
                format!("expected {what}, found {t:?}"),
            )),
            None => Err(self.eof(what)),
        }
    }

    /// Consumes the next token if it is `token`.
    fn eat(&mut self, token: Token<'_>) -> bool {
        let hit = matches!(self.peek(), Some(t) if t.token == token);
        if hit {
            self.peeked = None;
        }
        hit
    }

    fn name_list(&mut self) -> Result<Vec<(&'src str, usize)>, NetlistError> {
        let mut names = vec![self.expect_ident("a name")?];
        while self.eat(Token::Comma) {
            names.push(self.expect_ident("a name")?);
        }
        self.expect(Token::Semi, "`;`")?;
        Ok(names)
    }
}

/// Parses a single `.mnl` module.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] with a 1-based line number on any
/// lexical or syntactic problem, duplicate declaration, or missing
/// `endmodule`.
///
/// # Examples
///
/// ```
/// let m = maestro_netlist::mnl::parse(
///     "module inv_pair;\n\
///      input a;\n\
///      output y;\n\
///      device u1 INV (A=a, Y=t);\n\
///      device u2 INV (A=t, Y=y);\n\
///      endmodule\n",
/// )?;
/// assert_eq!(m.device_count(), 2);
/// assert_eq!(m.net_count(), 3); // a, y, t (lazily declared)
/// # Ok::<(), maestro_netlist::NetlistError>(())
/// ```
pub fn parse(source: &str) -> Result<Module, NetlistError> {
    let modules = parse_design(source)?;
    match <[Module; 1]>::try_from(modules) {
        Ok([module]) => Ok(module),
        Err(modules) => Err(NetlistError::parse(
            ParseErrorKind::Malformed,
            1,
            format!(
                "expected exactly one module, found {} (use parse_design for multi-module files)",
                modules.len()
            ),
        )),
    }
}

/// Parses a multi-module `.mnl` design: a sequence of
/// `module … endmodule` blocks in one file — the "global module
/// descriptions … for the whole chip" of the paper's Figure 1 database.
///
/// A lexical error (a character outside the language) is reported in
/// preference to any other error, wherever it lies in the source.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] on any syntax problem, or a
/// [`ParseErrorKind::DuplicateName`] error, at the line of the second
/// `module` keyword, when two modules share a name.
///
/// # Examples
///
/// ```
/// let design = maestro_netlist::mnl::parse_design(
///     "module a;\ninput x;\ndevice u INV (A=x, Y=y);\nendmodule\n\
///      module b;\ninput x;\ndevice u BUF (A=x, Y=y);\nendmodule\n",
/// )?;
/// assert_eq!(design.len(), 2);
/// # Ok::<(), maestro_netlist::NetlistError>(())
/// ```
pub fn parse_design(source: &str) -> Result<Vec<Module>, NetlistError> {
    let mut p = Parser {
        lexer: Lexer::new(source),
        peeked: None,
    };
    let parsed = parse_modules(&mut p);
    match p.lexer.first_error() {
        Some(lexical) => Err(lexical),
        None => parsed,
    }
}

/// [`parse_design`] with the per-module work fanned out over up to `jobs`
/// worker threads: [`parse_chunks`] over the [`split_design`] chunks on
/// `min(jobs, chunks)` workers (`jobs <= 1` parses on the calling
/// thread), and the whole-file [`parse_design`] whenever that gives
/// `None`. So the result — every diagnostic included — is the whole-file
/// one for every `jobs`.
///
/// # Errors
///
/// Exactly those of [`parse_design`].
///
/// # Examples
///
/// ```
/// use maestro_netlist::mnl;
///
/// let source = "module a;\ninput x;\nendmodule\nmodule b;\ninput y;\nendmodule\n";
/// assert_eq!(mnl::parse_design_parallel(source, 2)?, mnl::parse_design(source)?);
/// # Ok::<(), maestro_netlist::NetlistError>(())
/// ```
pub fn parse_design_parallel(source: &str, jobs: usize) -> Result<Vec<Module>, NetlistError> {
    let chunks = split_design(source);
    let count = chunks.as_ref().map_or(0, Vec::len);
    let workers = jobs.clamp(1, count.max(1));
    let _span = trace::span_with("mnl.parse", || {
        format!("bytes={} chunks={count} workers={workers}", source.len())
    });
    match chunks.and_then(|chunks| parse_chunks(&chunks, workers, |chunk| parse(chunk).ok())) {
        Some(modules) => Ok(modules),
        None => parse_design(source),
    }
}

/// Parses each of the [`split_design`] `chunks` as one module with
/// `parse_chunk`, on `min(workers, chunks)` threads (on the calling
/// thread for one), keeping chunk order.
///
/// Returns `None` when any chunk gives `None` or two modules share a
/// name; the caller then parses the whole source with [`parse_design`],
/// which owns every diagnostic. This is the rule that keeps a chunked
/// parse — [`parse_design_parallel`], or a memo of chunk parses —
/// identical to the whole-file one.
pub fn parse_chunks<M>(
    chunks: &[&str],
    workers: usize,
    parse_chunk: impl Fn(&str) -> Option<M> + Sync,
) -> Option<Vec<M>>
where
    M: Borrow<Module> + Send,
{
    let modules: Option<Vec<M>> = if workers <= 1 {
        chunks.iter().map(|chunk| parse_chunk(chunk)).collect()
    } else {
        fan_out(chunks.len(), workers, |_| (), |i| parse_chunk(chunks[i]))
            .into_iter()
            .collect()
    };
    let modules = modules?;
    let mut names = HashSet::with_capacity(modules.len());
    modules
        .iter()
        .all(|m| names.insert(m.borrow().name()))
        .then_some(modules)
}

fn parse_modules(p: &mut Parser<'_>) -> Result<Vec<Module>, NetlistError> {
    let mut modules = Vec::new();
    let mut names = HashSet::new();
    while let Some(first) = p.peek() {
        let (module, name) = parse_one(p)?;
        if !names.insert(name) {
            return Err(NetlistError::parse(
                ParseErrorKind::DuplicateName,
                first.line,
                format!("module `{name}` defined twice"),
            ));
        }
        modules.push(module);
    }
    if modules.is_empty() {
        return Err(NetlistError::parse(
            ParseErrorKind::Malformed,
            1,
            "source contains no modules",
        ));
    }
    Ok(modules)
}

/// Parses one `module … endmodule` block, returning the module and its
/// name as spelled in the source.
fn parse_one<'src>(p: &mut Parser<'src>) -> Result<(Module, &'src str), NetlistError> {
    match p.next() {
        Some(Spanned {
            token: Token::Ident("module"),
            ..
        }) => {}
        // Better message when the first token isn't `module`.
        other => {
            return Err(NetlistError::parse(
                ParseErrorKind::Malformed,
                other.map_or(p.lexer.last_line, |t| t.line),
                "netlist must start with `module <name>;`",
            ));
        }
    }
    let (module_name, _) = p.expect_ident("module name")?;
    p.expect(Token::Semi, "`;`")?;

    let mut b = ModuleBuilder::new(module_name);
    let mut bindings: Vec<(&str, &str)> = Vec::new();
    loop {
        let (kw, line) = p.expect_ident("a statement keyword")?;
        match kw {
            "endmodule" => break,
            "input" | "output" | "inout" => {
                let dir = match kw {
                    "input" => PortDirection::Input,
                    "output" => PortDirection::Output,
                    _ => PortDirection::InOut,
                };
                for (name, line) in p.name_list()? {
                    if b.has_port(name) {
                        return Err(NetlistError::parse(
                            ParseErrorKind::DuplicateName,
                            line,
                            format!("port `{name}` declared twice"),
                        ));
                    }
                    b.port(name, dir);
                }
            }
            "net" => {
                for (name, _) in p.name_list()? {
                    b.net(name);
                }
            }
            "device" => {
                let (inst, line) = p.expect_ident("device instance name")?;
                if b.has_device(inst) {
                    return Err(NetlistError::parse(
                        ParseErrorKind::DuplicateName,
                        line,
                        format!("device `{inst}` declared twice"),
                    ));
                }
                let (template, _) = p.expect_ident("device template name")?;
                p.expect(Token::LParen, "`(`")?;
                bindings.clear();
                if !matches!(p.peek(), Some(t) if t.token == Token::RParen) {
                    loop {
                        let (pin, line) = p.expect_ident("pin name")?;
                        p.expect(Token::Equals, "`=`")?;
                        let (net, _) = p.expect_ident("net name")?;
                        if bindings.iter().any(|&(existing, _)| existing == pin) {
                            return Err(NetlistError::parse(
                                ParseErrorKind::DuplicateName,
                                line,
                                format!("pin `{pin}` bound twice on `{inst}`"),
                            ));
                        }
                        bindings.push((pin, net));
                        if !p.eat(Token::Comma) {
                            break;
                        }
                    }
                }
                p.expect(Token::RParen, "`)`")?;
                p.expect(Token::Semi, "`;`")?;
                // Nets bound here are declared only once the whole
                // statement has parsed, in binding order.
                let pins: Vec<(&str, crate::NetId)> = bindings
                    .iter()
                    .map(|&(pin, net)| (pin, b.net(net)))
                    .collect();
                b.device(inst, template, pins);
            }
            other => {
                return Err(NetlistError::parse(
                    ParseErrorKind::UnexpectedToken,
                    line,
                    format!("unknown statement `{other}`"),
                ));
            }
        }
    }

    Ok((b.finish(), module_name))
}

/// Serializes a module back to `.mnl` text.
///
/// The output parses back to a structurally identical module (same device,
/// net and port order), which the round-trip tests rely on.
pub fn to_mnl(module: &Module) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "module {};", module.name());
    for dir in [
        PortDirection::Input,
        PortDirection::Output,
        PortDirection::InOut,
    ] {
        let names: Vec<&str> = module
            .ports()
            .filter(|(_, p)| p.direction() == dir)
            .map(|(_, p)| p.name())
            .collect();
        if !names.is_empty() {
            let kw = match dir {
                PortDirection::Input => "input",
                PortDirection::Output => "output",
                PortDirection::InOut => "inout",
            };
            let _ = writeln!(s, "{kw} {};", names.join(", "));
        }
    }
    let internal: Vec<&str> = module
        .nets()
        .filter(|(_, n)| !n.is_external())
        .map(|(_, n)| n.name())
        .collect();
    if !internal.is_empty() {
        let _ = writeln!(s, "net {};", internal.join(", "));
    }
    for (_, d) in module.devices() {
        let pins: Vec<String> = d
            .pins()
            .iter()
            .map(|(pin, net)| format!("{pin}={}", module.net(*net).name()))
            .collect();
        let _ = writeln!(
            s,
            "device {} {} ({});",
            d.name(),
            d.template(),
            pins.join(", ")
        );
    }
    s.push_str("endmodule\n");
    s
}

/// Splits a multi-module design source into per-module text chunks
/// *without* parsing — the cheap first half of an incremental re-parse.
///
/// Each chunk runs from its `module …` line through its `endmodule` line
/// inclusive; blank lines and `#` comments between modules belong to no
/// chunk (they carry no semantics, so a caller hashing chunks for a parse
/// memo stays insensitive to them). The split is deliberately
/// conservative: it only recognizes the canonical one-declaration-per-line
/// shape [`to_mnl`] emits, and returns `None` for anything else — content
/// outside a block, an unterminated block, an empty source — so callers
/// fall back to [`parse_design`], which reports the canonical error.
///
/// A chunk is *not* guaranteed to be a valid module, only to cover the
/// same text [`parse_design`] would consume for it: parse each chunk (or
/// serve it from a memo) and fall back to the whole source on failure.
///
/// # Examples
///
/// ```
/// let source = "# two blocks\nmodule a;\ninput x;\nendmodule\n\nmodule b;\ninput y;\nendmodule\n";
/// let chunks = maestro_netlist::mnl::split_design(source).expect("canonical shape");
/// assert_eq!(chunks.len(), 2);
/// assert!(chunks[0].starts_with("module a;"));
/// assert!(chunks[1].ends_with("endmodule\n"));
/// ```
pub fn split_design(source: &str) -> Option<Vec<&str>> {
    let mut chunks = Vec::new();
    let mut start: Option<usize> = None;
    let mut offset = 0;
    for line in source.split_inclusive('\n') {
        let trimmed = line.trim();
        match start {
            None => {
                if trimmed.starts_with("module ") || trimmed.starts_with("module\t") {
                    start = Some(offset);
                } else if !trimmed.is_empty() && !trimmed.starts_with('#') {
                    return None;
                }
            }
            Some(s) => {
                if trimmed == "endmodule" {
                    chunks.push(&source[s..offset + line.len()]);
                    start = None;
                }
            }
        }
        offset += line.len();
    }
    if start.is_some() || chunks.is_empty() {
        return None;
    }
    Some(chunks)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL_ADDER: &str = "\
# a full adder on standard cells
module full_adder;
input a, b, cin;
output sum, cout;
net t1, t2, t3;
device x1 XOR2 (A=a, B=b, Y=t1);
device x2 XOR2 (A=t1, B=cin, Y=sum);
device a1 AND2 (A=a, B=b, Y=t2);
device a2 AND2 (A=t1, B=cin, Y=t3);
device o1 OR2 (A=t2, B=t3, Y=cout);
endmodule
";

    #[test]
    fn parses_full_adder() {
        let m = parse(FULL_ADDER).expect("parses");
        assert_eq!(m.name(), "full_adder");
        assert_eq!(m.device_count(), 5);
        assert_eq!(m.port_count(), 5);
        assert_eq!(m.net_count(), 8); // 5 port nets + t1, t2, t3
        let t1 = m.find_net("t1").expect("t1 exists");
        assert_eq!(m.net(t1).component_count(), 3);
    }

    #[test]
    fn lazily_declared_nets_work() {
        let m = parse(
            "module m;\ninput a;\noutput y;\ndevice u INV (A=a, Y=y);\n\
             device v INV (A=y, Y=hidden);\nendmodule\n",
        )
        .expect("parses");
        assert!(m.find_net("hidden").is_some());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let m = parse("module m; # trailing comment\n\n# full line\nendmodule").expect("parses");
        assert_eq!(m.device_count(), 0);
    }

    #[test]
    fn device_with_no_pins_parses() {
        let m = parse("module m;\ndevice u INV ();\nendmodule").expect("parses");
        assert_eq!(m.device(m.find_device("u").unwrap()).pins().len(), 0);
    }

    #[test]
    fn error_unknown_statement_carries_line() {
        let err = parse("module m;\nfrobnicate x;\nendmodule").unwrap_err();
        match err {
            NetlistError::Parse { kind, line, .. } => {
                assert_eq!(kind, ParseErrorKind::UnexpectedToken);
                assert_eq!(line, 2);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn error_duplicate_port() {
        let err = parse("module m;\ninput a;\ninput a;\nendmodule").unwrap_err();
        assert!(matches!(
            err,
            NetlistError::Parse {
                kind: ParseErrorKind::DuplicateName,
                line: 3,
                ..
            }
        ));
    }

    #[test]
    fn error_duplicate_device() {
        let err = parse("module m;\ndevice u INV ();\ndevice u INV ();\nendmodule").unwrap_err();
        assert!(matches!(
            err,
            NetlistError::Parse {
                kind: ParseErrorKind::DuplicateName,
                ..
            }
        ));
    }

    #[test]
    fn error_missing_endmodule() {
        let err = parse("module m;\ninput a;\n").unwrap_err();
        assert!(matches!(
            err,
            NetlistError::Parse {
                kind: ParseErrorKind::UnexpectedEof,
                ..
            }
        ));
    }

    #[test]
    fn error_bad_character() {
        let err = parse("module m;\ninput a$;\nendmodule").unwrap_err();
        assert!(matches!(
            err,
            NetlistError::Parse {
                kind: ParseErrorKind::UnexpectedToken,
                line: 2,
                ..
            }
        ));
    }

    #[test]
    fn error_not_starting_with_module() {
        let err = parse("input a;\n").unwrap_err();
        assert!(matches!(
            err,
            NetlistError::Parse {
                kind: ParseErrorKind::Malformed,
                ..
            }
        ));
    }

    #[test]
    fn round_trip_preserves_structure() {
        let m = parse(FULL_ADDER).expect("parses");
        let text = to_mnl(&m);
        let m2 = parse(&text).expect("round-trip parses");
        assert_eq!(m, m2);
    }

    #[test]
    fn design_with_multiple_modules_parses() {
        let src = format!("{FULL_ADDER}\nmodule buf1;\ninput a;\noutput y;\ndevice u BUF (A=a, Y=y);\nendmodule\n");
        let design = parse_design(&src).expect("parses");
        assert_eq!(design.len(), 2);
        assert_eq!(design[0].name(), "full_adder");
        assert_eq!(design[1].name(), "buf1");
    }

    #[test]
    fn single_module_parse_rejects_designs() {
        let src = "module a;\nendmodule\nmodule b;\nendmodule\n";
        let err = parse(src).unwrap_err();
        assert!(err.to_string().contains("parse_design"), "{err}");
        assert_eq!(parse_design(src).unwrap().len(), 2);
    }

    #[test]
    fn duplicate_module_names_rejected() {
        let src = "module a;\nendmodule\nmodule a;\nendmodule\n";
        let err = parse_design(src).unwrap_err();
        assert!(matches!(
            err,
            NetlistError::Parse {
                kind: ParseErrorKind::DuplicateName,
                ..
            }
        ));
    }

    #[test]
    fn duplicate_module_is_reported_at_its_second_header() {
        // `a` is redefined on line 4; the file ends on line 10.
        let src = "module a;\nendmodule\n\nmodule a;\ninput x;\nendmodule\n\
                   module b;\ninput y;\noutput z;\nendmodule\n";
        let err = parse_design(src).unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 4: duplicate name: module `a` defined twice"
        );
    }

    #[test]
    fn a_lexical_error_outranks_an_earlier_syntax_error() {
        let err = parse_design("module a;\ndevice ;\nendmodule\nmodule b;\nnet $;\nendmodule\n")
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 5: unexpected token: unexpected character `$`"
        );
    }

    #[test]
    fn eof_errors_report_the_last_token_line() {
        let err = parse("module m;\ninput a\n\n# trailing comment\n").unwrap_err();
        assert_eq!(
            err,
            NetlistError::parse(ParseErrorKind::UnexpectedEof, 2, "expected `;`")
        );
    }

    #[test]
    fn empty_design_rejected() {
        let err = parse_design("# nothing here\n").unwrap_err();
        assert!(matches!(
            err,
            NetlistError::Parse {
                kind: ParseErrorKind::Malformed,
                ..
            }
        ));
    }

    #[test]
    fn duplicate_pin_binding_rejected() {
        let err = parse("module m;\ndevice u INV (A=x, A=y);\nendmodule").unwrap_err();
        assert!(matches!(
            err,
            NetlistError::Parse {
                kind: ParseErrorKind::DuplicateName,
                ..
            }
        ));
    }

    #[test]
    fn split_design_covers_every_block_and_reparses_identically() {
        let source = "# header comment\n\nmodule a;\ninput x;\ndevice u INV (A=x, Y=y);\nendmodule\n\n# between\nmodule b;\ninput x;\ndevice u BUF (A=x, Y=y);\nendmodule\n";
        let chunks = split_design(source).expect("canonical shape splits");
        assert_eq!(chunks.len(), 2);
        let whole = parse_design(source).expect("whole source parses");
        for (chunk, reference) in chunks.iter().zip(&whole) {
            let one = parse(chunk).expect("chunk parses alone");
            assert_eq!(one.name(), reference.name());
            assert_eq!(to_mnl(&one), to_mnl(reference));
        }
    }

    #[test]
    fn split_design_rejects_non_canonical_shapes() {
        // Content outside a block.
        assert!(split_design("stray\nmodule a;\nendmodule\n").is_none());
        // Unterminated block.
        assert!(split_design("module a;\ninput x;\n").is_none());
        // Trailing junk after the last block.
        assert!(split_design("module a;\nendmodule\njunk\n").is_none());
        // Empty source.
        assert!(split_design("").is_none());
        assert!(split_design("# only comments\n").is_none());
    }

    #[test]
    fn split_design_handles_a_missing_final_newline() {
        let chunks = split_design("module a;\ninput x;\nendmodule").expect("splits");
        assert_eq!(chunks.len(), 1);
        assert!(parse(chunks[0]).is_ok());
    }
}
