//! Levelized static timing analysis.
//!
//! Delay model calibrated to Virtex-II Pro speed grade -7 class numbers:
//! LUT4 ≈ 0.44 ns plus ≈ 0.8 ns average net delay per logic level,
//! MUXCY ≈ 0.06 ns per bit on the dedicated chain, 0.4 ns clock-to-Q
//! and 0.4 ns setup. The engine computes per-net arrival times over the
//! topological order and reports the critical register-to-register (or
//! input-to-register) path — the number the paper turns into its
//! "50 MHz" clock row in Table VI.

use crate::netlist::{GateKind, Netlist};

/// Per-primitive delay model (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayModel {
    /// LUT4 propagation delay.
    pub lut: f64,
    /// Average routing delay per logic level.
    pub net: f64,
    /// MUXCY delay per carry bit.
    pub carry: f64,
    /// Register clock-to-Q.
    pub clk_to_q: f64,
    /// Register setup time.
    pub setup: f64,
}

impl Default for DelayModel {
    fn default() -> Self {
        DelayModel {
            lut: 0.44,
            net: 0.80,
            carry: 0.06,
            clk_to_q: 0.40,
            setup: 0.40,
        }
    }
}

/// Timing report.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Critical path delay in ns (including clk-to-Q and setup).
    pub critical_ns: f64,
    /// Maximum clock frequency in MHz.
    pub fmax_mhz: f64,
    /// Depth (logic levels) of the critical path.
    pub levels: u32,
}

/// Post-mapping analysis: LUT delay is charged only at cluster roots
/// (absorbed gates are free inside their LUT), the way real STA sees the
/// mapped network. Each `multicycle` entry `(reg_d_net, n)` lets the
/// path ending at that register D pin take `n` clock cycles (the XDC
/// `set_multicycle_path` of the real flow — here used for the selection
/// multiplier, which the controller gives four cycles).
pub fn analyze_mapped(
    nl: &Netlist,
    model: &DelayModel,
    multicycle: &[(crate::netlist::NetId, u32)],
) -> TimingReport {
    let (_, roots) = crate::mapper::map_with_roots(nl);
    let order = nl.validate().expect("netlist must validate before timing");
    let n = nl.gates.len();
    let mut arrival = vec![0.0f64; n];
    let mut depth = vec![0u32; n];

    for &id in &order {
        let g = &nl.gates[id as usize];
        let (own_delay, own_level) = match g.kind {
            GateKind::Const0 | GateKind::Const1 | GateKind::Input => (0.0, 0),
            GateKind::RegQ => (model.clk_to_q, 0),
            GateKind::Buf => (0.0, 0),
            GateKind::CarryMux => (model.carry, 0),
            // Only cluster roots cost a LUT + net hop; absorbed gates
            // evaluate inside the root's LUT.
            _ if !roots[id as usize] => (0.0, 0),
            _ => (model.lut + model.net, 1),
        };
        let (in_arr, in_depth) = g
            .inputs
            .iter()
            .map(|&i| (arrival[i as usize], depth[i as usize]))
            .fold((0.0f64, 0u32), |(a, d), (ia, idep)| {
                (a.max(ia), d.max(idep))
            });
        arrival[id as usize] = in_arr + own_delay;
        depth[id as usize] = in_depth + own_level;
    }

    // Critical path: the worst (per-cycle-budget normalized) arrival at
    // any register D pin or primary output, plus setup.
    let factor_of = |net: crate::netlist::NetId| -> f64 {
        multicycle
            .iter()
            .find(|&&(n, _)| n == net)
            .map(|&(_, k)| k.max(1) as f64)
            .unwrap_or(1.0)
    };
    let mut worst = 0.0f64;
    let mut worst_depth = 0u32;
    for r in &nl.regs {
        let eff = (arrival[r.d as usize] + model.setup) / factor_of(r.d);
        if eff > worst {
            worst = eff;
            worst_depth = depth[r.d as usize];
        }
    }
    for (_, bus) in &nl.outputs {
        for &b in bus {
            let eff = arrival[b as usize] + model.setup;
            if eff > worst {
                worst = eff;
                worst_depth = depth[b as usize];
            }
        }
    }
    let critical = worst;
    TimingReport {
        critical_ns: critical,
        fmax_mhz: if critical > 0.0 {
            1000.0 / critical
        } else {
            f64::INFINITY
        },
        levels: worst_depth,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::builder::Builder;

    #[test]
    fn single_gate_path() {
        let mut b = Builder::new();
        let i = b.input("i", 2);
        let y = b.and(i[0], i[1]);
        let q = b.reg_bank(&[y]);
        b.output("q", &q);
        let r = analyze_mapped(&b.finish(), &DelayModel::default(), &[]);
        // input → LUT+net → setup.
        assert!((r.critical_ns - (0.44 + 0.80 + 0.40)).abs() < 1e-9);
        assert_eq!(r.levels, 1);
    }

    #[test]
    fn chain_depth_counts_luts() {
        // Ten chained two-input gates over eleven inputs: the first LUT4
        // absorbs three gates over four inputs, each later one the
        // previous LUT plus three gates, so the path crosses four LUTs.
        let mut b = Builder::new();
        let i = b.input("i", 11);
        let mut y = b.and(i[0], i[1]);
        for &x in &i[2..] {
            y = b.xor(y, x);
        }
        let q = b.reg_bank(&[y]);
        b.output("q", &q);
        let r = analyze_mapped(&b.finish(), &DelayModel::default(), &[]);
        assert_eq!(r.levels, 4);
        assert!((r.critical_ns - (4.0 * 1.24 + 0.40)).abs() < 1e-9);
    }

    #[test]
    fn multicycle_paths_get_their_cycles() {
        let mut b = Builder::new();
        let zero = b.const0();
        let q1 = b.reg_bank(&[zero]);
        let inv = b.not(q1[0]);
        b.reg_bank(&[inv]);
        let nl = b.finish();
        let one = analyze_mapped(&nl, &DelayModel::default(), &[]);
        let two = analyze_mapped(&nl, &DelayModel::default(), &[(inv, 2)]);
        assert!((two.critical_ns - one.critical_ns / 2.0).abs() < 1e-9);
    }

    #[test]
    fn carry_chain_is_much_faster_than_lut_ripple() {
        // A 24-bit adder's carry path: 24 MUXCY ≈ 1.4 ns, versus 24 LUT
        // levels ≈ 30 ns if built from plain gates.
        let mut b = Builder::new();
        let x = b.input("x", 24);
        let y = b.input("y", 24);
        let zero = b.const0();
        let (s, _c) = b.adder(&x, &y, zero).unwrap();
        let q = b.reg_bank(&s);
        b.output("q", &q);
        let r = analyze_mapped(&b.finish(), &DelayModel::default(), &[]);
        assert!(
            r.critical_ns < 6.0,
            "24-bit carry-chain adder must close well under 20 ns: {} ns",
            r.critical_ns
        );
    }

    #[test]
    fn reg_to_reg_includes_clk_to_q() {
        let mut b = Builder::new();
        let zero = b.const0();
        let q1 = b.reg_bank(&[zero]);
        let inv = b.not(q1[0]);
        let q2 = b.reg_bank(&[inv]);
        b.output("q", &q2);
        let r = analyze_mapped(&b.finish(), &DelayModel::default(), &[]);
        assert!((r.critical_ns - (0.40 + 1.24 + 0.40)).abs() < 1e-9);
    }

    #[test]
    fn fmax_inverts_critical_path() {
        let mut b = Builder::new();
        let i = b.input("i", 2);
        let y = b.or(i[0], i[1]);
        let q = b.reg_bank(&[y]);
        b.output("q", &q);
        let r = analyze_mapped(&b.finish(), &DelayModel::default(), &[]);
        assert!((r.fmax_mhz - 1000.0 / r.critical_ns).abs() < 1e-9);
    }
}
