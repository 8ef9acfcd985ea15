//! Structural Verilog export: write a [`Netlist`] as a gate-level Verilog
//! module so generated designs can be inspected, fed to external EDA
//! tools, or diffed against a reference flow.
//!
//! The emitted module instantiates one primitive per gate using the cell
//! library's names (`INV_X1`, `NAND2_X1`, …), with `input`/`output` ports
//! matching the netlist's named buses. `MUX2_X1` and `MAJ3_X1` are emitted
//! as `assign` expressions since they have no Verilog primitive.

use crate::cell::CellKind;
use crate::netlist::Netlist;
use std::fmt::Write as _;
use std::io::{self, Write};

/// Write `nl` as a structural Verilog module named `module_name`.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Examples
///
/// ```
/// use ntc_netlist::{Builder, verilog};
///
/// # fn main() -> std::io::Result<()> {
/// let mut b = Builder::new();
/// let a = b.input("a");
/// let c = b.input("b");
/// let y = b.xor(a, c);
/// b.output("y", y);
/// let nl = b.finish();
///
/// let mut out = Vec::new();
/// verilog::write_verilog(&nl, "toy", &mut out)?;
/// let text = String::from_utf8(out).expect("verilog is ascii");
/// assert!(text.contains("module toy"));
/// assert!(text.contains("XOR2_X1"));
/// # Ok(())
/// # }
/// ```
pub fn write_verilog<W: Write>(nl: &Netlist, module_name: &str, mut w: W) -> io::Result<()> {
    let mut ports: Vec<String> = Vec::new();
    for p in nl.input_ports() {
        ports.push(p.name.clone());
    }
    for p in nl.output_ports() {
        ports.push(p.name.clone());
    }
    writeln!(w, "// generated by ntc-netlist")?;
    writeln!(w, "module {module_name} ({});", ports.join(", "))?;

    // Port declarations.
    for p in nl.input_ports() {
        writeln!(w, "  input {}{};", range_of(p.bits.len()), p.name)?;
    }
    for p in nl.output_ports() {
        writeln!(w, "  output {}{};", range_of(p.bits.len()), p.name)?;
    }

    // Net name per signal: inputs take their port bit name, everything
    // else gets a generated wire.
    let mut names: Vec<String> = vec![String::new(); nl.len()];
    for p in nl.input_ports() {
        for (i, s) in p.bits.iter().enumerate() {
            names[s.index()] = bit_name(&p.name, p.bits.len(), i);
        }
    }
    let mut wires = String::new();
    for (i, g) in nl.gates().iter().enumerate() {
        if names[i].is_empty() {
            names[i] = format!("n{i}");
            if !g.kind().is_pseudo() {
                let _ = writeln!(wires, "  wire n{i};");
            }
        }
    }
    w.write_all(wires.as_bytes())?;

    // Gate instances.
    for (i, g) in nl.gates().iter().enumerate() {
        let y = &names[i];
        let ins: Vec<&str> = g
            .inputs()
            .iter()
            .map(|s| names[s.index()].as_str())
            .collect();
        match g.kind() {
            CellKind::Input => {}
            CellKind::Const0 => writeln!(w, "  assign {y} = 1'b0;")?,
            CellKind::Const1 => writeln!(w, "  assign {y} = 1'b1;")?,
            CellKind::Mux2 => writeln!(
                w,
                "  assign {y} = {} ? {} : {}; // MUX2_X1",
                ins[2], ins[1], ins[0]
            )?,
            CellKind::Maj3 => writeln!(
                w,
                "  assign {y} = ({a} & {b}) | ({b} & {c}) | ({a} & {c}); // MAJ3_X1",
                a = ins[0],
                b = ins[1],
                c = ins[2]
            )?,
            kind => {
                let prim = match kind {
                    CellKind::Inv => "not",
                    CellKind::Buf => "buf",
                    CellKind::And2 => "and",
                    CellKind::Or2 => "or",
                    CellKind::Nand2 => "nand",
                    CellKind::Nor2 => "nor",
                    CellKind::Xor2 => "xor",
                    CellKind::Xnor2 => "xnor",
                    _ => unreachable!("arity-0/3 cells handled above"),
                };
                writeln!(w, "  {prim} g{i} ({y}, {}); // {}", ins.join(", "), kind)?;
            }
        }
    }

    // Output port connections.
    for p in nl.output_ports() {
        for (i, s) in p.bits.iter().enumerate() {
            writeln!(
                w,
                "  assign {} = {};",
                bit_name(&p.name, p.bits.len(), i),
                names[s.index()]
            )?;
        }
    }
    writeln!(w, "endmodule")
}

fn range_of(width: usize) -> String {
    if width == 1 {
        String::new()
    } else {
        format!("[{}:0] ", width - 1)
    }
}

fn bit_name(port: &str, width: usize, bit: usize) -> String {
    if width == 1 {
        port.to_owned()
    } else {
        format!("{port}[{bit}]")
    }
}

/// Render `nl` to a Verilog string (convenience over [`write_verilog`]).
pub fn to_verilog_string(nl: &Netlist, module_name: &str) -> String {
    let mut out = Vec::new();
    write_verilog(nl, module_name, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("emitted verilog is ascii")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::alu::Alu;
    use crate::Builder;

    #[test]
    fn full_adder_verilog_structure() {
        let mut b = Builder::new();
        let a = b.input("a");
        let x = b.input("b");
        let cin = b.input("cin");
        let axb = b.xor(a, x);
        let sum = b.xor(axb, cin);
        let cout = b.maj(a, x, cin);
        b.output("sum", sum);
        b.output("cout", cout);
        let nl = b.finish();

        let v = to_verilog_string(&nl, "full_adder");
        assert!(v.starts_with("// generated"));
        assert!(v.contains("module full_adder (a, b, cin, sum, cout);"));
        assert!(v.contains("input a;"));
        assert!(v.contains("output sum;"));
        assert_eq!(v.matches("xor ").count(), 2, "two XOR primitives");
        assert!(v.contains("MAJ3_X1"), "majority as assign expression");
        assert!(v.trim_end().ends_with("endmodule"));
    }

    #[test]
    fn buses_get_ranges_and_indices() {
        let mut b = Builder::new();
        let bus = b.input_bus("data", 4);
        let inv: Vec<_> = bus.iter().map(|&s| b.not(s)).collect();
        b.output_bus("q", &inv);
        let v = to_verilog_string(&b.finish(), "invbank");
        assert!(v.contains("input [3:0] data;"));
        assert!(v.contains("output [3:0] q;"));
        assert!(v.contains("data[0]"));
        assert!(v.contains("assign q[3] ="));
    }

    #[test]
    fn alu_emits_one_instance_per_logic_gate() {
        let alu = Alu::new(8);
        let v = to_verilog_string(alu.netlist(), "alu8");
        // Every logic gate appears exactly once, as a primitive or assign.
        let instances = v.matches("\n  assign n").count()
            + v.matches("\n  assign result").count()
            + v.matches("\n  assign zero").count()
            + v.lines()
                .filter(|l| {
                    let t = l.trim_start();
                    [
                        "not ", "buf ", "and ", "or ", "nand ", "nor ", "xor ", "xnor ",
                    ]
                    .iter()
                    .any(|p| t.starts_with(p))
                })
                .count();
        assert!(
            instances >= alu.netlist().logic_gate_count(),
            "instances {instances} vs gates {}",
            alu.netlist().logic_gate_count()
        );
        assert!(v.contains("module alu8"));
    }

    #[test]
    fn constants_are_tied() {
        let mut b = Builder::new();
        let a = b.input("a");
        let c1 = b.const1();
        let y = b.and(a, c1);
        b.output("y", y);
        let v = to_verilog_string(&b.finish(), "tied");
        assert!(v.contains("= 1'b1;"));
    }
}
