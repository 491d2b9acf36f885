//! Golden fixtures: one deliberately broken design per rule, asserting
//! the exact diagnostic fires — plus the clean-design checks on the
//! shipping elaborations (the CI acceptance contract).

#![allow(clippy::unwrap_used)]

use ga_synth::fsm::{FsmSpec, Guard, Transition};
use ga_synth::netlist::{Gate, Netlist, RegCell};
use ga_synth::GateKind;
use galint::{run_all, AreaBudget, DesignModel, Element, Severity};

fn gate(kind: GateKind, inputs: Vec<u32>) -> Gate {
    Gate { kind, inputs }
}

/// An empty FSM shell for rule fixtures.
fn fsm(n_states: usize, n_conds: usize, transitions: Vec<Transition>) -> FsmSpec {
    FsmSpec {
        n_states,
        n_conds,
        transitions,
        state_names: Vec::new(),
    }
}

fn t(from: usize, guard: Guard, to: usize) -> Transition {
    Transition { from, guard, to }
}

/// Findings of one rule at one severity.
fn findings(model: &DesignModel, rule: &str, sev: Severity) -> Vec<String> {
    run_all(model)
        .diagnostics
        .into_iter()
        .filter(|d| d.rule == rule && d.severity == sev)
        .map(|d| format!("{}: {}", d.element, d.message))
        .collect()
}

// ---------------------------------------------------------------- netlist

#[test]
fn comb_loop_is_an_error() {
    let mut nl = Netlist::default();
    nl.gates.push(gate(GateKind::Buf, vec![1]));
    nl.gates.push(gate(GateKind::Buf, vec![0]));
    let found = findings(
        &DesignModel::new("fixture", nl),
        "comb-loop",
        Severity::Error,
    );
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(
        found[0].contains("combinational loop through 2 gate(s)"),
        "{found:?}"
    );
    assert!(found[0].starts_with("gate 0"), "{found:?}");
}

#[test]
fn self_feeding_gate_is_a_comb_loop() {
    let mut nl = Netlist::default();
    nl.gates.push(gate(GateKind::Input, vec![]));
    nl.gates.push(gate(GateKind::And2, vec![0, 1])); // feeds itself
    let found = findings(
        &DesignModel::new("fixture", nl),
        "comb-loop",
        Severity::Error,
    );
    assert_eq!(found.len(), 1, "{found:?}");
}

#[test]
fn duplicate_reg_q_is_multi_driver() {
    let mut nl = Netlist::default();
    nl.gates.push(gate(GateKind::RegQ, vec![]));
    nl.gates.push(gate(GateKind::Input, vec![]));
    nl.regs.push(RegCell { d: 1, q: 0 });
    nl.regs.push(RegCell { d: 1, q: 0 }); // second driver of net 0
    let found = findings(
        &DesignModel::new("fixture", nl),
        "multi-driver",
        Severity::Error,
    );
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(
        found[0].contains("already driven by register 0"),
        "{found:?}"
    );
}

#[test]
fn register_on_combinational_net_is_multi_driver() {
    let mut nl = Netlist::default();
    nl.gates.push(gate(GateKind::Input, vec![]));
    nl.gates.push(gate(GateKind::Inv, vec![0]));
    nl.regs.push(RegCell { d: 0, q: 1 }); // q points at the Inv's net
    let found = findings(
        &DesignModel::new("fixture", nl),
        "multi-driver",
        Severity::Error,
    );
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].contains("Inv"), "{found:?}");
}

#[test]
fn orphan_regq_is_a_floating_net_error() {
    let mut nl = Netlist::default();
    nl.gates.push(gate(GateKind::RegQ, vec![])); // no RegCell owns it
    let found = findings(
        &DesignModel::new("fixture", nl),
        "floating-net",
        Severity::Error,
    );
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].contains("orphan RegQ"), "{found:?}");
}

#[test]
fn unused_logic_is_a_floating_net_warning() {
    let mut nl = Netlist::default();
    nl.gates.push(gate(GateKind::Input, vec![]));
    nl.gates.push(gate(GateKind::Input, vec![]));
    nl.gates.push(gate(GateKind::Xor2, vec![0, 1])); // drives nothing
    nl.inputs.push(("a".into(), vec![0]));
    nl.inputs.push(("b".into(), vec![1]));
    let model = DesignModel::new("fixture", nl);
    let warns = findings(&model, "floating-net", Severity::Warn);
    assert_eq!(warns.len(), 1, "{warns:?}");
    assert!(warns[0].starts_with("gate 2"), "{warns:?}");
    assert!(warns[0].contains("Xor2 output floats"), "{warns:?}");
}

#[test]
fn bad_arity_is_a_width_mismatch() {
    let mut nl = Netlist::default();
    nl.gates.push(gate(GateKind::Input, vec![]));
    nl.gates.push(gate(GateKind::And2, vec![0])); // one pin short
    let found = findings(
        &DesignModel::new("fixture", nl),
        "width-mismatch",
        Severity::Error,
    );
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(
        found[0].contains("has 1 input pin(s), its kind requires 2"),
        "{found:?}"
    );
}

#[test]
fn dangling_net_reference_is_a_width_mismatch() {
    let mut nl = Netlist::default();
    nl.gates.push(gate(GateKind::Inv, vec![7])); // net 7 doesn't exist
    let found = findings(
        &DesignModel::new("fixture", nl),
        "width-mismatch",
        Severity::Error,
    );
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].contains("nonexistent net 7"), "{found:?}");
}

#[test]
fn dangling_output_bus_bit_is_anchored_to_the_output() {
    let mut nl = Netlist::default();
    nl.gates.push(gate(GateKind::Input, vec![]));
    nl.inputs.push(("a".into(), vec![0]));
    nl.outputs.push(("best".into(), vec![9])); // net 9 doesn't exist
    let found = findings(
        &DesignModel::new("fixture", nl),
        "width-mismatch",
        Severity::Error,
    );
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].starts_with("output 'best'"), "{found:?}");
    assert!(found[0].contains("nonexistent net 9"), "{found:?}");
}

#[test]
fn off_chain_flip_flop_breaks_scan_completeness() {
    let mut nl = Netlist::default();
    nl.gates.push(gate(GateKind::RegQ, vec![])); // on chain
    nl.gates.push(gate(GateKind::RegQ, vec![])); // NOT on chain
    nl.gates.push(gate(GateKind::Input, vec![]));
    nl.regs.push(RegCell { d: 2, q: 0 });
    let found = findings(
        &DesignModel::new("fixture", nl),
        "scan-chain",
        Severity::Error,
    );
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].starts_with("gate 1"), "{found:?}");
    assert!(found[0].contains("not on the scan chain"), "{found:?}");
}

#[test]
fn off_chain_flip_flop_is_not_an_injectable_site() {
    // Same shape as the scan-chain fixture: the fault injector's site
    // list (one site per chain position) cannot reach gate 1's state.
    let mut nl = Netlist::default();
    nl.gates.push(gate(GateKind::RegQ, vec![]));
    nl.gates.push(gate(GateKind::RegQ, vec![])); // unreachable
    nl.gates.push(gate(GateKind::Input, vec![]));
    nl.regs.push(RegCell { d: 2, q: 0 });
    let found = findings(
        &DesignModel::new("fixture", nl),
        "scan-site-coverage",
        Severity::Error,
    );
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].starts_with("gate 1"), "{found:?}");
    assert!(
        found[0].contains("not an injectable fault site"),
        "{found:?}"
    );
}

#[test]
fn aliased_fault_sites_are_an_error() {
    let mut nl = Netlist::default();
    nl.gates.push(gate(GateKind::RegQ, vec![]));
    nl.gates.push(gate(GateKind::Input, vec![]));
    nl.regs.push(RegCell { d: 1, q: 0 });
    nl.regs.push(RegCell { d: 1, q: 0 }); // site 1 corrupts site 0's FF
    let found = findings(
        &DesignModel::new("fixture", nl),
        "scan-site-coverage",
        Severity::Error,
    );
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].starts_with("register 1"), "{found:?}");
    assert!(found[0].contains("aliases site 0"), "{found:?}");
}

#[test]
fn fault_site_on_combinational_net_is_an_error() {
    let mut nl = Netlist::default();
    nl.gates.push(gate(GateKind::Input, vec![]));
    nl.gates.push(gate(GateKind::Inv, vec![0]));
    nl.regs.push(RegCell { d: 0, q: 1 }); // site 0 would corrupt an Inv
    let found = findings(
        &DesignModel::new("fixture", nl),
        "scan-site-coverage",
        Severity::Error,
    );
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].contains("not a flip-flop output"), "{found:?}");
}

#[test]
fn frozen_and_constant_registers_are_flagged() {
    let mut nl = Netlist::default();
    nl.gates.push(gate(GateKind::RegQ, vec![]));
    nl.gates.push(gate(GateKind::RegQ, vec![]));
    nl.gates.push(gate(GateKind::Const1, vec![]));
    nl.regs.push(RegCell { d: 0, q: 0 }); // frozen: D = own Q
    nl.regs.push(RegCell { d: 2, q: 1 }); // constant D
    let found = findings(
        &DesignModel::new("fixture", nl),
        "reg-enable",
        Severity::Warn,
    );
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found[0].contains("never change"), "{found:?}");
    assert!(found[1].contains("holds a constant"), "{found:?}");
}

// ------------------------------------------------------------------- fsm

#[test]
fn unreachable_and_trap_states_are_errors() {
    // 0 → 1; 2 unreachable; 1 is a trap (no way out).
    let spec = fsm(
        3,
        1,
        vec![t(0, Guard::always(), 1), t(2, Guard::always(), 0)],
    );
    let model = DesignModel::new("fixture", Netlist::default()).with_fsm(spec);
    let found = findings(&model, "fsm-dead-state", Severity::Error);
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found
        .iter()
        .any(|f| f.starts_with("state 2") && f.contains("unreachable")));
    assert!(found
        .iter()
        .any(|f| f.starts_with("state 1") && f.contains("trap state")));
}

#[test]
fn contradictory_guard_is_unsatisfiable() {
    let spec = fsm(
        2,
        1,
        vec![
            t(0, Guard(vec![(0, true), (0, false)]), 1),
            t(0, Guard::always(), 1),
        ],
    );
    let model = DesignModel::new("fixture", Netlist::default()).with_fsm(spec);
    let found = findings(&model, "fsm-unsat-guard", Severity::Error);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].starts_with("transition 0"), "{found:?}");
    assert!(found[0].contains("unsatisfiable"), "{found:?}");
}

#[test]
fn out_of_range_condition_is_an_error() {
    let spec = fsm(
        2,
        1,
        vec![t(0, Guard::when(5, true), 1), t(1, Guard::always(), 0)],
    );
    let model = DesignModel::new("fixture", Netlist::default()).with_fsm(spec);
    let found = findings(&model, "fsm-unsat-guard", Severity::Error);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].contains("condition 5"), "{found:?}");
}

#[test]
fn priority_shadowed_transition_is_a_warning() {
    // The unconditional transition 0 shadows transition 1 forever.
    let spec = fsm(
        3,
        1,
        vec![
            t(0, Guard::always(), 1),
            t(0, Guard::when(0, true), 2),
            t(1, Guard::always(), 0),
            t(2, Guard::always(), 0),
        ],
    );
    let model = DesignModel::new("fixture", Netlist::default()).with_fsm(spec);
    let found = findings(&model, "fsm-unsat-guard", Severity::Warn);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].starts_with("transition 1"), "{found:?}");
    assert!(found[0].contains("never fires"), "{found:?}");
}

#[test]
fn wait_state_without_exit_fails_handshake_liveness() {
    let spec = FsmSpec {
        n_states: 2,
        n_conds: 1,
        transitions: vec![t(0, Guard::always(), 1)], // FitWait has no exit
        state_names: vec!["Start".into(), "FitWait".into()],
    };
    let model = DesignModel::new("fixture", Netlist::default()).with_fsm(spec);
    let found = findings(&model, "handshake-liveness", Severity::Error);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].contains("state 1 (FitWait)"), "{found:?}");
    assert!(found[0].contains("deadlock"), "{found:?}");
}

#[test]
fn wait_state_whose_exit_tests_a_phantom_condition_is_dead() {
    // The only exit guards on condition 7, which doesn't exist — the
    // transition can never fire, so the wait state still deadlocks.
    let spec = FsmSpec {
        n_states: 2,
        n_conds: 1,
        transitions: vec![t(0, Guard::always(), 1), t(1, Guard::when(7, true), 0)],
        state_names: vec!["Start".into(), "FitWait".into()],
    };
    let model = DesignModel::new("fixture", Netlist::default()).with_fsm(spec);
    let found = findings(&model, "handshake-liveness", Severity::Error);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].contains("state 1 (FitWait)"), "{found:?}");
}

#[test]
fn wait_state_whose_exit_is_priority_shadowed_is_dead() {
    // An unconditional self-loop is declared before the exit; under
    // priority order the exit never fires.
    let spec = FsmSpec {
        n_states: 2,
        n_conds: 1,
        transitions: vec![
            t(0, Guard::always(), 1),
            t(1, Guard::always(), 1), // self-loop wins every cycle
            t(1, Guard::when(0, true), 0),
        ],
        state_names: vec!["Start".into(), "FitWait".into()],
    };
    let model = DesignModel::new("fixture", Netlist::default()).with_fsm(spec);
    let found = findings(&model, "handshake-liveness", Severity::Error);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].contains("deadlock"), "{found:?}");
}

#[test]
fn wait_state_with_guarded_exit_is_live() {
    let spec = FsmSpec {
        n_states: 2,
        n_conds: 1,
        transitions: vec![t(0, Guard::always(), 1), t(1, Guard::when(0, true), 0)],
        state_names: vec!["Start".into(), "FitWait".into()],
    };
    let model = DesignModel::new("fixture", Netlist::default()).with_fsm(spec);
    assert!(findings(&model, "handshake-liveness", Severity::Error).is_empty());
}

// ------------------------------------------------------------------ area

#[test]
fn gate_budget_overflow_is_an_error() {
    let mut nl = Netlist::default();
    for _ in 0..4 {
        nl.gates.push(gate(GateKind::Input, vec![]));
    }
    let model = DesignModel::new("fixture", nl).with_budget(AreaBudget {
        max_slice_pct: 18,
        min_fmax_mhz: 50.0,
        max_gates: 3,
    });
    let found = findings(&model, "area-budget", Severity::Error);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(
        found[0].contains("4 gates exceed the budget of 3"),
        "{found:?}"
    );
}

#[test]
fn slow_or_oversubscribed_implementation_is_an_error() {
    let model = DesignModel::new("fixture", Netlist::default()).with_area(galint::AreaStats {
        slices: 5000,
        slice_pct: 37,
        fmax_mhz: 41.0,
    });
    let found = findings(&model, "area-budget", Severity::Error);
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found[0].contains("37%"), "{found:?}");
    assert!(found[1].contains("41.0 MHz"), "{found:?}");
}

// -------------------------------------------------------------- dataflow

/// q0 toggles, q1 is frozen at its reset value (D = own Q), and the
/// output AND is gated by q1 — so `y` is provably stuck at 0 under a
/// reset-to-0 regime.
fn frozen_gate_netlist() -> Netlist {
    let mut nl = Netlist::default();
    nl.gates.push(gate(GateKind::RegQ, vec![])); // 0 = q0
    nl.gates.push(gate(GateKind::RegQ, vec![])); // 1 = q1 (frozen)
    nl.gates.push(gate(GateKind::Inv, vec![0])); // 2 = d0
    nl.gates.push(gate(GateKind::And2, vec![1, 0])); // 3 = y
    nl.regs.push(RegCell { d: 2, q: 0 });
    nl.regs.push(RegCell { d: 1, q: 1 });
    nl.outputs.push(("y".into(), vec![3]));
    nl
}

/// The seed shape: q feeds only its own hold mux, the output comes from
/// elsewhere.
fn hold_only_netlist() -> Netlist {
    let mut nl = Netlist::default();
    nl.gates.push(gate(GateKind::RegQ, vec![])); // 0 = q
    nl.gates.push(gate(GateKind::Input, vec![])); // 1 = load
    nl.gates.push(gate(GateKind::Input, vec![])); // 2 = value
    nl.gates.push(gate(GateKind::CarryMux, vec![1, 2, 0])); // 3 = d
    nl.gates.push(gate(GateKind::Input, vec![])); // 4 = other
    nl.regs.push(RegCell { d: 3, q: 0 });
    nl.inputs.push(("load".into(), vec![1]));
    nl.inputs.push(("value".into(), vec![2]));
    nl.inputs.push(("other".into(), vec![4]));
    nl.outputs.push(("y".into(), vec![4]));
    nl
}

#[test]
fn stuck_logic_is_a_const_net_warning() {
    let model = DesignModel::new("fixture", frozen_gate_netlist());
    let found = findings(&model, "const-net", Severity::Warn);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].starts_with("gate 3"), "{found:?}");
    assert!(found[0].contains("stuck at 0"), "{found:?}");
}

#[test]
fn scan_programmed_init_washes_out_const_net() {
    // Same netlist, but with no reset assumption q1 may power up 1 —
    // nothing is provably stuck.
    let model = DesignModel::new("fixture", frozen_gate_netlist()).with_scan_programmed_init();
    let found = findings(&model, "const-net", Severity::Warn);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn uninitialized_register_leaking_x_is_an_x_prop_warning() {
    // An uninitialized self-holding register driving the output: its X
    // survives forever and is observable.
    let mut nl = Netlist::default();
    nl.gates.push(gate(GateKind::RegQ, vec![])); // 0 = q
    nl.regs.push(RegCell { d: 0, q: 0 });
    nl.outputs.push(("y".into(), vec![0]));
    let model = DesignModel::new("fixture", nl).with_uninit_regs(vec![0]);
    let found = findings(&model, "x-prop", Severity::Warn);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].starts_with("register 0"), "{found:?}");
    assert!(found[0].contains("reaches output 'y'"), "{found:?}");
}

#[test]
fn contained_uninitialized_register_passes_x_prop() {
    // The same declaration on a hold-only register: the X never reaches
    // an output, so no warning.
    let model = DesignModel::new("fixture", hold_only_netlist()).with_uninit_regs(vec![0]);
    let found = findings(&model, "x-prop", Severity::Warn);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn hold_only_register_is_an_unobservable_site_warning() {
    let model = DesignModel::new("fixture", hold_only_netlist());
    let found = findings(&model, "unobservable-fault-site", Severity::Warn);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].starts_with("register 0"), "{found:?}");
    assert!(found[0].contains("statically masked"), "{found:?}");
}

#[test]
fn constant_pruning_masks_the_gated_site() {
    // Under reset-0 the frozen q1 pins the AND, so q0 (register 0) has
    // no live path out; q1 itself reaches the output by flipping the
    // very gate that blocked q0.
    let model = DesignModel::new("fixture", frozen_gate_netlist());
    let found = findings(&model, "unobservable-fault-site", Severity::Warn);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].starts_with("register 0"), "{found:?}");
}

// ---------------------------------------------------------- clean designs

#[test]
fn elaborated_ga_core_is_error_free() {
    let model = DesignModel::ga_core().expect("elaboration");
    let report = run_all(&model);
    assert_eq!(
        report.error_count(),
        0,
        "GA core must lint clean:\n{}",
        report.to_text()
    );
    // The only accepted warnings are the 16 seed-register
    // unobservable-fault-site findings: the seed shadow register is
    // hold-only by design (the RNG seeds from the value bus directly),
    // and the fault campaign's --xcheck relies on exactly this verdict.
    let warns: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Warn)
        .collect();
    assert_eq!(warns.len(), 16, "{}", report.to_text());
    for (i, d) in warns.iter().enumerate() {
        assert_eq!(d.rule, "unobservable-fault-site", "{}", report.to_text());
        assert_eq!(d.element, Element::Register(16 + i), "seed occupies 16..32");
    }
}

#[test]
fn elaborated_ca_rng_is_error_free() {
    let model = DesignModel::ca_rng().expect("elaboration");
    let report = run_all(&model);
    assert_eq!(
        report.error_count(),
        0,
        "CA RNG must lint clean:\n{}",
        report.to_text()
    );
    assert_eq!(
        report.warn_count(),
        0,
        "every CA-RNG flip-flop drives the output bus directly:\n{}",
        report.to_text()
    );
}

#[test]
fn shipping_designs_report_only_truly_unconnected_input_bits() {
    // An input bit that feeds a gate is used: only `rn_ext`, which the
    // elaborated core never reads, and one `ctl` bit stay advisory.
    let info = |model: DesignModel| findings(&model, "floating-net", Severity::Info);
    assert_eq!(
        info(DesignModel::ga_core().expect("elaboration")),
        [
            "input 'rn_ext': 16 of 16 bit(s) unconnected",
            "input 'ctl': 1 of 6 bit(s) unconnected",
        ]
    );
    assert_eq!(
        info(DesignModel::ca_rng().expect("elaboration")),
        ["design: 16 constant gate(s) drive nothing (harmless dead area)"]
    );
}

#[test]
fn clean_report_serializes_for_ci() {
    let model = DesignModel::ca_rng().expect("elaboration");
    let json = run_all(&model).to_json();
    assert!(json.contains("\"design\":\"ca_rng\""));
    assert!(json.contains("\"errors\":0"));
}

#[test]
fn every_registered_rule_has_a_distinct_name() {
    let names: Vec<&str> = galint::registry().iter().map(|r| r.name()).collect();
    let mut dedup = names.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(names.len(), dedup.len(), "{names:?}");
    assert!(names.len() >= 14, "at least 14 rules: {names:?}");
}

#[test]
fn diagnostics_carry_usable_elements() {
    // The element of a finding must point at the offending item, not a
    // generic location — spot-check the State element formatting.
    let spec = fsm(2, 1, vec![t(0, Guard::always(), 0)]);
    let model = DesignModel::new("fixture", Netlist::default()).with_fsm(spec);
    let report = run_all(&model);
    let dead = report.by_rule("fsm-dead-state");
    assert!(dead.iter().any(|d| d.element
        == Element::State {
            index: 1,
            name: "S1".into()
        }));
}
