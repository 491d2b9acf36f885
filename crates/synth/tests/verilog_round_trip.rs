//! The soft-IP deliverable read back: a parser for the gate-level
//! Verilog dialect `emit_verilog` writes (the netlist `netlist_export`
//! ships), and round trips proving the emitted text is the netlist —
//! the "netlist in / netlist out" check a downstream integrator would
//! run before trusting the artifact.
//!
//! The dialect is machine-generated and line-oriented, so the parser is
//! a strict line classifier, not a general Verilog front end: it
//! understands exactly the primitive instances, constant/IO `assign`s,
//! and `SCAN_REGISTER` cells the emitter writes, and rejects anything
//! else.

#![allow(clippy::unwrap_used)]

use std::collections::HashMap;

use ga_synth::builder::Builder;
use ga_synth::gadesign::elaborate_ga_core;
use ga_synth::netlist::{bus_to_u64, u64_to_bus, Gate, GateKind, NetId, Netlist, RegCell};
use ga_synth::verilog::emit_verilog;

/// Parse one emitted module back into a [`Netlist`]. A lexical or shape
/// problem, or a netlist [`Netlist::validate`] rejects, is an error
/// message.
fn parse_verilog(src: &str) -> Result<Netlist, String> {
    let mut gates: Vec<Option<Gate>> = Vec::new();
    let mut inputs: Vec<(String, Vec<(usize, NetId)>)> = Vec::new();
    let mut outputs: Vec<(String, Vec<(usize, NetId)>)> = Vec::new();
    let mut regs: Vec<(usize, RegCell)> = Vec::new();

    fn ensure(gates: &mut Vec<Option<Gate>>, id: usize) {
        if gates.len() <= id {
            gates.resize(id + 1, None);
        }
    }
    fn set_gate(gates: &mut Vec<Option<Gate>>, id: usize, g: Gate) -> Result<(), String> {
        ensure(gates, id);
        if gates[id].is_some() {
            return Err(format!("net n[{id}] defined twice"));
        }
        gates[id] = Some(g);
        Ok(())
    }

    /// Extract `n[<id>]` from a pin expression like `.y(n[42])`.
    fn net_of(expr: &str) -> Result<NetId, String> {
        let inner = expr
            .trim()
            .strip_prefix("n[")
            .and_then(|s| s.strip_suffix(']'))
            .ok_or_else(|| format!("expected n[..], got {expr:?}"))?;
        inner.parse::<NetId>().map_err(|e| e.to_string())
    }

    /// Split `KIND uID (.y(n[a]), .a(n[b]), .b(n[c]));` into pin exprs.
    fn pins(line: &str) -> Result<Vec<String>, String> {
        let open = line.find('(').ok_or("missing (")?;
        let close = line.rfind(')').ok_or("missing )")?;
        let body = &line[open + 1..close];
        // Split on top-level commas; pin bodies contain one '[..]' pair
        // and no nested commas, so a plain split is safe.
        Ok(body
            .split(',')
            .map(|p| {
                let p = p.trim();
                let inner_open = p.find('(').unwrap_or(0);
                let inner_close = p.rfind(')').unwrap_or(p.len());
                p[inner_open + 1..inner_close].to_string()
            })
            .collect())
    }

    for raw in src.lines() {
        let line = raw.trim();
        if line.is_empty()
            || line.starts_with("//")
            || line.starts_with("module")
            || line.starts_with("input ")
            || line.starts_with("input  wire")
            || line.starts_with("output wire")
            || line.starts_with("wire ")
            || line.starts_with(");")
            || line == "endmodule"
        {
            continue;
        }
        if let Some(rest) = line.strip_prefix("assign ") {
            let rest = rest.strip_suffix(';').ok_or("missing ;")?;
            let (lhs, rhs) = rest.split_once('=').ok_or("missing =")?;
            let (lhs, rhs) = (lhs.trim(), rhs.trim());
            if lhs == "scan_out" {
                continue; // chain tail binding, reconstructed from regs
            }
            if let Ok(id) = net_of(lhs) {
                // Constant or input binding.
                match rhs {
                    "1'b0" => set_gate(
                        &mut gates,
                        id as usize,
                        Gate {
                            kind: GateKind::Const0,
                            inputs: vec![],
                        },
                    )?,
                    "1'b1" => set_gate(
                        &mut gates,
                        id as usize,
                        Gate {
                            kind: GateKind::Const1,
                            inputs: vec![],
                        },
                    )?,
                    _ => {
                        // name[bit]
                        let (name, bit) = rhs
                            .split_once('[')
                            .ok_or_else(|| format!("bad input binding {rhs:?}"))?;
                        let bit: usize = bit
                            .strip_suffix(']')
                            .ok_or("missing ]")?
                            .parse()
                            .map_err(|e: std::num::ParseIntError| e.to_string())?;
                        set_gate(
                            &mut gates,
                            id as usize,
                            Gate {
                                kind: GateKind::Input,
                                inputs: vec![],
                            },
                        )?;
                        match inputs.iter_mut().find(|(n, _)| n == name) {
                            Some((_, bits)) => bits.push((bit, id)),
                            None => inputs.push((name.to_string(), vec![(bit, id)])),
                        }
                    }
                }
            } else {
                // Output binding: name[bit] = n[id].
                let id = net_of(rhs)?;
                let (name, bit) = lhs
                    .split_once('[')
                    .ok_or_else(|| format!("bad output binding {lhs:?}"))?;
                let bit: usize = bit
                    .strip_suffix(']')
                    .ok_or("missing ]")?
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?;
                match outputs.iter_mut().find(|(n, _)| n == name) {
                    Some((_, bits)) => bits.push((bit, id)),
                    None => outputs.push((name.to_string(), vec![(bit, id)])),
                }
            }
            continue;
        }
        // Primitive instances.
        let kind_token = line.split_whitespace().next().unwrap_or("");
        let kind = match kind_token {
            "BUF" => Some(GateKind::Buf),
            "INV" => Some(GateKind::Inv),
            "AND2" => Some(GateKind::And2),
            "OR2" => Some(GateKind::Or2),
            "XOR2" => Some(GateKind::Xor2),
            "NAND2" => Some(GateKind::Nand2),
            "NOR2" => Some(GateKind::Nor2),
            "MUXCY" => Some(GateKind::CarryMux),
            _ => None,
        };
        if let Some(kind) = kind {
            let p = pins(line)?;
            let y = net_of(&p[0])? as usize;
            let ins: Vec<NetId> = p[1..1 + kind.arity()]
                .iter()
                .map(|e| net_of(e))
                .collect::<Result<_, _>>()?;
            set_gate(&mut gates, y, Gate { kind, inputs: ins })?;
            continue;
        }
        if kind_token == "SCAN_REGISTER" {
            // SCAN_REGISTER rK (.clk(clk), .d(n[d]), .q(n[q]), .se(..), .si(..), .so(..));
            let ordinal: usize = line
                .split_whitespace()
                .nth(1)
                .and_then(|t| t.strip_prefix('r'))
                .ok_or("bad scan register name")?
                .parse()
                .map_err(|e: std::num::ParseIntError| e.to_string())?;
            let p = pins(line)?;
            let d = net_of(&p[1])?;
            let q = net_of(&p[2])?;
            set_gate(
                &mut gates,
                q as usize,
                Gate {
                    kind: GateKind::RegQ,
                    inputs: vec![],
                },
            )?;
            regs.push((ordinal, RegCell { d, q }));
            continue;
        }
        return Err(format!("unrecognized line: {line:?}"));
    }

    // Finalize: every net must be defined.
    let gates: Vec<Gate> = gates
        .into_iter()
        .enumerate()
        .map(|(i, g)| g.ok_or(format!("net n[{i}] never defined")))
        .collect::<Result<_, _>>()?;

    let fix_bus = |mut bits: Vec<(usize, NetId)>| -> Vec<NetId> {
        bits.sort_by_key(|&(b, _)| b);
        bits.into_iter().map(|(_, n)| n).collect()
    };
    regs.sort_by_key(|&(o, _)| o);

    let nl = Netlist {
        gates,
        inputs: inputs.into_iter().map(|(n, b)| (n, fix_bus(b))).collect(),
        outputs: outputs.into_iter().map(|(n, b)| (n, fix_bus(b))).collect(),
        regs: regs.into_iter().map(|(_, r)| r).collect(),
    };
    nl.validate().map_err(|e| e.to_string())?;
    Ok(nl)
}

/// Structural equality up to what the emission preserves: same gate
/// multiset per kind, same reg count and chain order, same bus shapes.
fn structurally_equal(a: &Netlist, b: &Netlist) -> bool {
    use GateKind::*;
    let kinds = [
        Const0, Const1, Input, RegQ, Buf, Inv, And2, Or2, Xor2, Nand2, Nor2, CarryMux,
    ];
    let count = |nl: &Netlist| -> HashMap<GateKind, usize> {
        kinds.iter().map(|&k| (k, nl.count_kind(k))).collect()
    };
    count(a) == count(b)
        && a.regs.len() == b.regs.len()
        && a.inputs
            .iter()
            .map(|(n, v)| (n.clone(), v.len()))
            .collect::<Vec<_>>()
            == b.inputs
                .iter()
                .map(|(n, v)| (n.clone(), v.len()))
                .collect::<Vec<_>>()
        && a.outputs
            .iter()
            .map(|(n, v)| (n.clone(), v.len()))
            .collect::<Vec<_>>()
            == b.outputs
                .iter()
                .map(|(n, v)| (n.clone(), v.len()))
                .collect::<Vec<_>>()
}

fn demo_netlist() -> Netlist {
    let mut b = Builder::new();
    let x = b.input("x", 8);
    let y = b.input("y", 8);
    let zero = b.const0();
    let (s, c) = b.adder(&x, &y, zero).unwrap();
    let gt = b.gt(&x, &y).unwrap();
    let mut d = s;
    d.push(c);
    d.push(gt);
    let q = b.reg_bank(&d);
    b.output("q", &q);
    b.finish()
}

#[test]
fn round_trip_preserves_structure() {
    let original = demo_netlist();
    let v = emit_verilog(&original, "demo");
    let parsed = parse_verilog(&v).expect("parse back");
    assert!(structurally_equal(&original, &parsed));
}

#[test]
fn round_trip_is_functionally_equivalent() {
    let original = demo_netlist();
    let parsed = parse_verilog(&emit_verilog(&original, "demo")).unwrap();
    // Co-simulate one sequential step on both.
    for (a, b) in [(13u64, 200u64), (255, 255), (0, 1), (90, 89)] {
        let run = |nl: &Netlist| -> u64 {
            let mut inp = HashMap::new();
            u64_to_bus(nl.input_bus("x").unwrap(), a, &mut inp);
            u64_to_bus(nl.input_bus("y").unwrap(), b, &mut inp);
            let regs = nl.regs.iter().map(|r| (r.q, false)).collect();
            let next = nl.step_seq(&inp, &regs);
            let vals = nl.eval_comb(&inp, &next);
            bus_to_u64(nl.output_bus("q").unwrap(), &vals)
        };
        assert_eq!(run(&original), run(&parsed), "inputs {a},{b}");
    }
}

#[test]
fn ga_core_round_trips() {
    let (nl, _) = elaborate_ga_core();
    let v = emit_verilog(&nl, "ga_ip_core");
    let parsed = parse_verilog(&v).expect("parse the full core");
    assert!(structurally_equal(&nl, &parsed));
    assert_eq!(parsed.regs.len(), nl.regs.len());
}

#[test]
fn rejects_garbage() {
    assert!(parse_verilog("NONSENSE u0 (.y(n[0]));").is_err());
    assert!(parse_verilog("assign n[0] = 1'b0;\nassign n[0] = 1'b1;\nendmodule").is_err());
}

#[test]
fn rejects_undefined_nets() {
    // A gate referencing a never-defined net must not validate.
    let src = "AND2 u5 (.y(n[5]), .a(n[0]), .b(n[1]));\nendmodule";
    assert!(parse_verilog(src).is_err());
}
