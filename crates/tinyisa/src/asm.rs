//! A line-oriented assembler and disassembler.
//!
//! Syntax (one instruction per line; `;` and `#` start comments):
//!
//! ```text
//! .func name            ; optional function extents
//! entry:                ; labels end with ':'
//!     li   r1, 10
//! loop:
//!     addi r1, r1, -1
//!     bne  r1, r0, loop
//!     ld   r2, 4(r3)    ; word-addressed base+offset
//!     ret
//! .endfunc
//! .loopbound loop 10    ; annotation: back edge to 'loop' taken <= 10x
//! ```

use crate::instr::{Instr, Target};
use crate::program::{Function, Program};
use crate::reg::Reg;
use std::collections::BTreeMap;
use std::error::Error as StdError;
use std::fmt;

/// An assembly error with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number in the source text.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl StdError for AsmError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, AsmError> {
    Err(AsmError {
        line,
        message: message.into(),
    })
}

fn parse_reg(tok: &str, line: usize) -> Result<Reg, AsmError> {
    let rest = tok.strip_prefix('r').ok_or_else(|| AsmError {
        line,
        message: format!("expected register, found `{tok}`"),
    })?;
    let idx: u8 = rest.parse().map_err(|_| AsmError {
        line,
        message: format!("invalid register `{tok}`"),
    })?;
    Reg::try_new(idx).ok_or_else(|| AsmError {
        line,
        message: format!("register index out of range in `{tok}`"),
    })
}

fn parse_imm(tok: &str, line: usize) -> Result<i64, AsmError> {
    let (neg, body) = match tok.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, tok),
    };
    let v = if let Some(hex) = body.strip_prefix("0x") {
        i64::from_str_radix(hex, 16)
    } else {
        body.parse()
    };
    match v {
        Ok(v) => Ok(if neg { -v } else { v }),
        Err(_) => err(line, format!("invalid immediate `{tok}`")),
    }
}

/// Parses `off(rN)` into `(offset, base)`.
fn parse_mem(tok: &str, line: usize) -> Result<(i32, Reg), AsmError> {
    let open = tok.find('(').ok_or_else(|| AsmError {
        line,
        message: format!("expected `offset(base)`, found `{tok}`"),
    })?;
    if !tok.ends_with(')') {
        return err(line, format!("missing `)` in `{tok}`"));
    }
    let off_str = &tok[..open];
    let base_str = &tok[open + 1..tok.len() - 1];
    let offset = if off_str.is_empty() {
        0
    } else {
        parse_imm(off_str, line)? as i32
    };
    Ok((offset, parse_reg(base_str, line)?))
}

/// Assembles source text into a [`Program`].
///
/// # Errors
///
/// Returns an [`AsmError`] carrying the offending line for syntax
/// errors, unknown mnemonics, malformed operands, duplicate or undefined
/// labels, and unbalanced `.func`/`.endfunc`.
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    let mut instrs: Vec<Instr> = Vec::new();
    let mut fixups: Vec<(usize, String, usize)> = Vec::new(); // (instr idx, label, line)
    let mut labels: BTreeMap<String, Target> = BTreeMap::new();
    let mut functions: Vec<Function> = Vec::new();
    let mut loop_bounds: BTreeMap<String, u32> = BTreeMap::new();
    let mut open_func: Option<(String, u32, usize)> = None;

    for (lineno, raw) in source.lines().enumerate() {
        let line = lineno + 1;
        let mut text = raw;
        if let Some(pos) = text.find([';', '#']) {
            text = &text[..pos];
        }
        let text = text.trim();
        if text.is_empty() {
            continue;
        }

        // Directives.
        if let Some(rest) = text.strip_prefix(".func") {
            let name = rest.trim();
            if name.is_empty() {
                return err(line, ".func requires a name");
            }
            if open_func.is_some() {
                return err(line, "nested .func is not allowed");
            }
            // A function name doubles as a label at its entry so that
            // `call name` resolves.
            let entry = instrs.len() as Target;
            if let Some(&prev) = labels.get(name) {
                if prev != entry {
                    return err(line, format!("label `{name}` already defined elsewhere"));
                }
            } else {
                labels.insert(name.to_string(), entry);
            }
            open_func = Some((name.to_string(), entry, line));
            continue;
        }
        if text == ".endfunc" {
            match open_func.take() {
                Some((name, start, _)) => functions.push(Function {
                    name,
                    start,
                    end: instrs.len() as u32,
                }),
                None => return err(line, ".endfunc without .func"),
            }
            continue;
        }
        if let Some(rest) = text.strip_prefix(".loopbound") {
            let mut it = rest.split_whitespace();
            let (Some(label), Some(count)) = (it.next(), it.next()) else {
                return err(line, ".loopbound requires `label count`");
            };
            let count: u32 = count.parse().map_err(|_| AsmError {
                line,
                message: format!("invalid loop bound `{count}`"),
            })?;
            loop_bounds.insert(label.to_string(), count);
            continue;
        }
        if text.starts_with('.') {
            return err(line, format!("unknown directive `{text}`"));
        }

        // Labels (possibly followed by an instruction on the same line).
        let mut text = text;
        while let Some(colon) = text.find(':') {
            let (label, rest) = text.split_at(colon);
            let label = label.trim();
            if label.is_empty() || label.contains(char::is_whitespace) {
                break; // not a label; let instruction parsing complain
            }
            if labels
                .insert(label.to_string(), instrs.len() as Target)
                .is_some()
            {
                return err(line, format!("duplicate label `{label}`"));
            }
            text = rest[1..].trim();
            if text.is_empty() {
                break;
            }
        }
        if text.is_empty() {
            continue;
        }

        // Instruction.
        let (mnemonic, rest) = match text.find(char::is_whitespace) {
            Some(pos) => (&text[..pos], text[pos..].trim()),
            None => (text, ""),
        };
        let ops: Vec<&str> = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(',').map(str::trim).collect()
        };

        let nops = ops.len();
        let need = |n: usize| -> Result<(), AsmError> {
            if nops == n {
                Ok(())
            } else {
                err(
                    line,
                    format!("`{mnemonic}` expects {n} operands, found {nops}"),
                )
            }
        };

        let mut pending: Option<(String, usize)> = None;

        let ins = match mnemonic {
            "add" | "sub" | "mul" | "div" | "and" | "or" | "xor" | "slt" | "sll" | "srl" => {
                need(3)?;
                let d = parse_reg(ops[0], line)?;
                let a = parse_reg(ops[1], line)?;
                let b = parse_reg(ops[2], line)?;
                match mnemonic {
                    "add" => Instr::Add(d, a, b),
                    "sub" => Instr::Sub(d, a, b),
                    "mul" => Instr::Mul(d, a, b),
                    "div" => Instr::Div(d, a, b),
                    "and" => Instr::And(d, a, b),
                    "or" => Instr::Or(d, a, b),
                    "xor" => Instr::Xor(d, a, b),
                    "slt" => Instr::Slt(d, a, b),
                    "sll" => Instr::Sll(d, a, b),
                    _ => Instr::Srl(d, a, b),
                }
            }
            "cmov" => {
                need(3)?;
                Instr::Cmov {
                    rd: parse_reg(ops[0], line)?,
                    rs: parse_reg(ops[1], line)?,
                    rc: parse_reg(ops[2], line)?,
                }
            }
            "addi" | "slti" => {
                need(3)?;
                let d = parse_reg(ops[0], line)?;
                let a = parse_reg(ops[1], line)?;
                let imm = parse_imm(ops[2], line)? as i32;
                if mnemonic == "addi" {
                    Instr::Addi(d, a, imm)
                } else {
                    Instr::Slti(d, a, imm)
                }
            }
            "li" => {
                need(2)?;
                Instr::Li(parse_reg(ops[0], line)?, parse_imm(ops[1], line)?)
            }
            "ld" => {
                need(2)?;
                let rd = parse_reg(ops[0], line)?;
                let (offset, base) = parse_mem(ops[1], line)?;
                Instr::Ld { rd, base, offset }
            }
            "st" => {
                need(2)?;
                let rs = parse_reg(ops[0], line)?;
                let (offset, base) = parse_mem(ops[1], line)?;
                Instr::St { rs, base, offset }
            }
            "beq" | "bne" | "blt" | "bge" => {
                need(3)?;
                let a = parse_reg(ops[0], line)?;
                let b = parse_reg(ops[1], line)?;
                pending = Some((ops[2].to_string(), line));
                match mnemonic {
                    "beq" => Instr::Beq(a, b, 0),
                    "bne" => Instr::Bne(a, b, 0),
                    "blt" => Instr::Blt(a, b, 0),
                    _ => Instr::Bge(a, b, 0),
                }
            }
            "jmp" | "call" => {
                need(1)?;
                pending = Some((ops[0].to_string(), line));
                if mnemonic == "jmp" {
                    Instr::Jmp(0)
                } else {
                    Instr::Call(0)
                }
            }
            "ret" => {
                need(0)?;
                Instr::Ret
            }
            "nop" => {
                need(0)?;
                Instr::Nop
            }
            "halt" => {
                need(0)?;
                Instr::Halt
            }
            other => return err(line, format!("unknown mnemonic `{other}`")),
        };

        if let Some((label, l)) = pending {
            fixups.push((instrs.len(), label, l));
        }
        instrs.push(ins);
    }

    if let Some((name, _, line)) = open_func {
        return err(line, format!(".func {name} is never closed"));
    }

    for (idx, label, line) in fixups {
        // `@N` denotes a raw instruction index (used by the disassembler
        // for targets that carry no label).
        let target = if let Some(raw) = label.strip_prefix('@') {
            raw.parse::<Target>().ok()
        } else {
            labels.get(&label).copied()
        };
        match target {
            Some(t) if (t as usize) <= instrs.len() => {
                instrs[idx] = instrs[idx].with_target(t);
            }
            _ => return err(line, format!("undefined label `{label}`")),
        }
    }

    let program = Program {
        instrs,
        labels,
        functions,
        loop_bounds,
    };
    program
        .validate()
        .map_err(|message| AsmError { line: 0, message })?;
    Ok(program)
}

/// Disassembles a program back to assembler source accepted by
/// [`assemble`].
///
/// A pc gets at most one ordinary label line: the first label by name
/// order at that pc, omitted when it names a function starting there
/// (`.func` defines it). A label that a `.loopbound` names is printed
/// as well, on its own line, when another label comes first at its
/// pc. A target prints as the first label at its pc, or as the raw
/// `@N` form when that pc has no label; no label is invented. An empty
/// function opens and closes where it starts, and labels and empty
/// functions placed after the last instruction follow it. The output
/// is byte-stable: disassembling the reassembled program gives it
/// back.
///
/// An unvalidated program ([`Program::from_instrs`]) disassembles
/// without panicking: out-of-range targets print as `@N` and labels
/// past the end are dropped.
pub fn disassemble(program: &Program) -> String {
    let mut out = String::with_capacity(24 * program.instrs.len() + 16 * program.labels.len());
    write_disassembly(program, &mut out).expect("writing to a String cannot fail");
    out
}

/// Writes [`disassemble`]'s output to `out` in one pass over the
/// program.
pub(crate) fn write_disassembly(program: &Program, out: &mut dyn fmt::Write) -> fmt::Result {
    let n = program.instrs.len();
    // The first label by name order at each pc; slot `n` is the end.
    let mut first: Vec<Option<&str>> = vec![None; n + 1];
    for (name, &pc) in &program.labels {
        if let Some(slot @ None) = first.get_mut(pc as usize) {
            *slot = Some(name);
        }
    }
    // Loop-bound labels that are not the first label at their pc.
    let mut extra: Vec<(Target, &str)> = program
        .loop_bounds
        .keys()
        .filter_map(|name| Some((program.resolve(name)?, name.as_str())))
        .filter(|&(pc, name)| matches!(first.get(pc as usize), Some(&Some(l)) if l != name))
        .collect();
    extra.sort_unstable();
    let mut extra = extra.into_iter().peekable();

    // What precedes the instruction at `pc` (or, at `n`, ends the
    // text): the functions opening there, empty ones closed at once,
    // then its labels.
    let mut head = |out: &mut dyn fmt::Write, pc: Target| -> fmt::Result {
        let opening = || program.functions.iter().filter(move |f| f.start == pc);
        for f in opening() {
            writeln!(out, ".func {}", f.name)?;
            if f.is_empty() {
                out.write_str(".endfunc\n")?;
            }
        }
        let extras = std::iter::from_fn(|| extra.next_if(|&(at, _)| at == pc).map(|(_, l)| l));
        for label in first[pc as usize].into_iter().chain(extras) {
            if !opening().any(|f| f.name == label) {
                writeln!(out, "{label}:")?;
            }
        }
        Ok(())
    };

    for (pc, ins) in program.instrs.iter().enumerate() {
        let pc = pc as Target;
        head(out, pc)?;
        out.write_str("    ")?;
        match ins.target().and_then(|t| *first.get(t as usize)?) {
            Some(label) => ins.write_with_target(out, &label)?,
            None => write!(out, "{ins}")?,
        }
        out.write_char('\n')?;
        let closing = program.functions.iter().filter(|f| f.end == pc + 1);
        for _ in closing.filter(|f| !f.is_empty()) {
            out.write_str(".endfunc\n")?;
        }
    }
    head(out, n as Target)?;
    for (label, bound) in &program.loop_bounds {
        writeln!(out, ".loopbound {label} {bound}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instr;
    use crate::reg::Reg;

    #[test]
    fn assembles_basic_program() {
        let p = assemble(
            r"
            li r1, 10
        loop:
            addi r1, r1, -1
            bne r1, r0, loop
            halt
        ",
        )
        .unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.resolve("loop"), Some(1));
        assert_eq!(p.instrs[2], Instr::Bne(Reg::new(1), Reg::ZERO, 1));
    }

    #[test]
    fn memory_operands() {
        let p = assemble("ld r1, 4(r2)\nst r3, -2(r4)\nld r5, (r6)\nhalt").unwrap();
        assert_eq!(
            p.instrs[0],
            Instr::Ld {
                rd: Reg::new(1),
                base: Reg::new(2),
                offset: 4
            }
        );
        assert_eq!(
            p.instrs[1],
            Instr::St {
                rs: Reg::new(3),
                base: Reg::new(4),
                offset: -2
            }
        );
        assert_eq!(
            p.instrs[2],
            Instr::Ld {
                rd: Reg::new(5),
                base: Reg::new(6),
                offset: 0
            }
        );
    }

    #[test]
    fn functions_and_loop_bounds() {
        let p = assemble(
            r"
        .func main
            call helper
            halt
        .endfunc
        .func helper
        body:
            addi r1, r1, 1
            ret
        .endfunc
        .loopbound body 4
        ",
        )
        .unwrap();
        assert_eq!(p.functions.len(), 2);
        assert_eq!(p.functions[0].name, "main");
        assert_eq!(p.functions[1].start, 2);
        assert_eq!(p.loop_bounds["body"], 4);
        assert_eq!(p.instrs[0], Instr::Call(2));
    }

    #[test]
    fn hex_and_negative_immediates() {
        let p = assemble("li r1, 0x10\nli r2, -0x10\nli r3, -7\nhalt").unwrap();
        assert_eq!(p.instrs[0], Instr::Li(Reg::new(1), 16));
        assert_eq!(p.instrs[1], Instr::Li(Reg::new(2), -16));
        assert_eq!(p.instrs[2], Instr::Li(Reg::new(3), -7));
    }

    #[test]
    fn error_reporting() {
        assert!(assemble("bogus r1, r2")
            .unwrap_err()
            .message
            .contains("unknown mnemonic"));
        assert!(assemble("add r1, r2")
            .unwrap_err()
            .message
            .contains("expects 3"));
        assert!(assemble("jmp nowhere")
            .unwrap_err()
            .message
            .contains("undefined label"));
        assert!(assemble("li r99, 1")
            .unwrap_err()
            .message
            .contains("out of range"));
        assert!(assemble("x:\nx:\nhalt")
            .unwrap_err()
            .message
            .contains("duplicate"));
        assert!(assemble(".func f\nnop")
            .unwrap_err()
            .message
            .contains("never closed"));
        assert!(assemble(".endfunc")
            .unwrap_err()
            .message
            .contains("without .func"));
        let e = assemble("nop\nadd r1").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().starts_with("line 2:"));
    }

    #[test]
    fn label_on_same_line_as_instruction() {
        let p = assemble("start: li r1, 1\njmp start").unwrap();
        assert_eq!(p.resolve("start"), Some(0));
        assert_eq!(p.instrs[1], Instr::Jmp(0));
    }

    #[test]
    fn comments_are_ignored() {
        let p = assemble("; full comment\nnop ; trailing\n# hash comment\nhalt # x").unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn disassemble_round_trip() {
        round_trip(
            r"
        .func main
            li r1, 3
        loop:
            addi r1, r1, -1
            mul r2, r1, r1
            ld r3, 2(r2)
            st r3, (r2)
            bne r1, r0, loop
            call helper
            halt
        .endfunc
        .func helper
            cmov r4, r3, r1
            ret
        .endfunc
        .loopbound loop 3
        ",
        );
    }

    /// Disassembles `src`, reassembles the text and checks the program
    /// survives; returns the text.
    fn round_trip(src: &str) -> String {
        let original = assemble(src).unwrap();
        let text = disassemble(&original);
        let again = assemble(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(original.instrs, again.instrs);
        assert_eq!(original.functions, again.functions);
        assert_eq!(original.loop_bounds, again.loop_bounds);
        assert_eq!(disassemble(&again), text, "not a fixpoint");
        text
    }

    #[test]
    fn unlabelled_targets_print_raw_and_never_collide_with_labels() {
        // An invented `L1` would duplicate the real label `L1` at pc 0.
        let text = round_trip("L1:\n    jmp @1\n    halt\n");
        assert_eq!(text, "L1:\n    jmp @1\n    halt\n");
    }

    #[test]
    fn loop_bound_labels_sharing_a_pc_are_kept() {
        // `a` comes first at pc 1; `loop` must still be defined.
        let text = round_trip(
            "    li r1, 2\na:\nloop:\n    addi r1, r1, -1\n    bne r1, r0, loop\n    halt\n.loopbound loop 2\n",
        );
        assert!(text.contains("a:\nloop:\n    addi"), "{text}");
        assert!(text.contains("bne r1, r0, a\n"), "{text}");
    }

    #[test]
    fn trailing_loop_bound_labels_are_kept() {
        let text = round_trip("    halt\nend:\n.loopbound end 1\n");
        assert_eq!(text, "    halt\nend:\n.loopbound end 1\n");
    }

    #[test]
    fn empty_functions_open_and_close_in_place() {
        let src = ".func a\n.endfunc\n.func main\n    halt\n.endfunc\n.func z\n.endfunc\n";
        assert_eq!(round_trip(src), src);
    }

    #[test]
    fn unvalidated_programs_disassemble_without_panicking() {
        let mut p = Program::from_instrs(vec![Instr::Jmp(7), Instr::Call(u32::MAX), Instr::Halt]);
        p.labels.insert("far".into(), 99);
        p.loop_bounds.insert("far".into(), 1);
        p.loop_bounds.insert("ghost".into(), 1);
        assert_eq!(
            disassemble(&p),
            format!(
                "    jmp @7\n    call @{}\n    halt\n.loopbound far 1\n.loopbound ghost 1\n",
                u32::MAX
            )
        );
    }
}
