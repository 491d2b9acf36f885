//! The 424-site observability report: every fault-injection site of the
//! dynamic campaign (`fault_campaign`) mapped to a static verdict.
//!
//! The campaign injects into two domains:
//!
//! * **scan** — the 408 scan-chain positions of the cycle-accurate
//!   `GaCoreHw` (one per architectural register bit). Each position is
//!   mapped onto the gate-level register with the same architectural
//!   meaning through `GaCoreHw::SCAN_FIELDS` (bit position → field) and
//!   `GA_CORE_REG_LAYOUT` (field → register index). The four hardware
//!   accumulators are 32-bit while the gate-level ones are 24-bit; the
//!   32 unmapped high bits get a conservative *observable* verdict.
//! * **net** — the 16 flip-flops of the standalone CA-RNG netlist,
//!   analyzed directly on that netlist.
//!
//! Both designs are scan-programmed, so the constant lattice is seeded
//! all-`X` (no reset assumption) — every *unobservable* verdict here is
//! purely structural and therefore holds for any programmed state.

use ga_core::GaCoreHw;
use ga_synth::gadesign::{ga_core_reg_field, try_elaborate_ca_rng, try_elaborate_ga_core};
use ga_synth::{CompiledNetlist, SynthError, Tern};

use super::fixpoint::ternary_fixpoint;
use super::observe::{fault_cone, ConeReport};

/// Which injection campaign a site belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteDomain {
    /// Scan-chain position on the cycle-accurate core (0..408).
    Scan,
    /// Flip-flop of the CA-RNG netlist (0..16).
    Net,
}

impl SiteDomain {
    /// Stable lower-case name for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            SiteDomain::Scan => "scan",
            SiteDomain::Net => "net",
        }
    }
}

/// Static verdict for one fault site.
#[derive(Debug, Clone)]
pub struct SiteVerdict {
    /// Injection domain.
    pub domain: SiteDomain,
    /// Site index within the domain (scan position / netlist site id).
    pub index: usize,
    /// Architectural name, e.g. `seed[3]` or `ca_rng[7]`.
    pub field: String,
    /// Gate-level register index the site maps to, when one exists.
    pub reg: Option<usize>,
    /// Can a fault here reach any primary output?
    pub observable: bool,
    /// Tainted-net count of the fault cone (0 for unmapped sites).
    pub cone_size: usize,
    /// Human-readable justification.
    pub reason: String,
}

/// The full static observability report over all 424 campaign sites.
#[derive(Debug, Clone)]
pub struct ObservabilityReport {
    /// Per-site verdicts: the 408 scan positions in chain order, then
    /// the 16 CA-RNG sites.
    pub sites: Vec<SiteVerdict>,
    /// Sequential iterations of the GA-core ternary fixpoint.
    pub ga_core_iterations: usize,
}

impl ObservabilityReport {
    /// Number of sites claimed statically unobservable.
    pub fn unobservable(&self) -> usize {
        self.sites.iter().filter(|s| !s.observable).count()
    }

    /// Verdict for a scan-chain position.
    pub fn scan_site(&self, position: usize) -> Option<&SiteVerdict> {
        self.sites
            .iter()
            .find(|s| s.domain == SiteDomain::Scan && s.index == position)
    }

    /// Verdict for a CA-RNG netlist site.
    pub fn net_site(&self, site: usize) -> Option<&SiteVerdict> {
        self.sites
            .iter()
            .find(|s| s.domain == SiteDomain::Net && s.index == site)
    }

    /// Hand-rolled JSON rendering (the workspace is dependency-free by
    /// design): a summary header plus one object per site.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"sites\":{},\"observable\":{},\"unobservable\":{},",
            self.sites.len(),
            self.sites.len() - self.unobservable(),
            self.unobservable()
        ));
        out.push_str(&format!(
            "\"ga_core_iterations\":{},\"entries\":[",
            self.ga_core_iterations
        ));
        for (i, s) in self.sites.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"domain\":\"{}\",\"index\":{},\"field\":\"{}\",\"observable\":{},\
                 \"cone_size\":{},\"reason\":\"{}\"}}",
                s.domain.as_str(),
                s.index,
                s.field,
                s.observable,
                s.cone_size,
                ga_harness::json_escape(&s.reason)
            ));
        }
        out.push_str("]}");
        out
    }
}

fn verdict_from_cone(cone: &ConeReport, field: &str, reg: usize) -> (bool, usize, String) {
    if let Some(output) = &cone.first_output {
        (
            true,
            cone.cone_size,
            format!(
                "{field} (register {reg}) fans out to output '{output}' \
                 through a {}-net cone",
                cone.cone_size
            ),
        )
    } else {
        (
            false,
            cone.cone_size,
            format!(
                "{field} (register {reg}) has no structural path to any \
                 primary output: its {}-net cone is self-contained",
                cone.cone_size
            ),
        )
    }
}

/// Build the full 424-site report: elaborate both shipping designs,
/// run the ternary fixpoint (all-`X` register init — both are
/// scan-programmed), and compute one fault cone per mapped register.
pub fn observability_report() -> Result<ObservabilityReport, SynthError> {
    let (ga_nl, _) = try_elaborate_ga_core()?;
    let ga = CompiledNetlist::compile(&ga_nl)?;
    let ga_fix = ternary_fixpoint(&ga, &vec![Tern::X; ga.ff_count()]);

    // Memoize cones per gate-level register (multi-bit fields share
    // nothing, but repeated report builds reuse the same indices).
    let mut cones: Vec<Option<ConeReport>> = vec![None; ga.ff_count()];
    let mut cone_for = |reg: usize| -> ConeReport {
        if cones[reg].is_none() {
            cones[reg] = Some(fault_cone(&ga, &ga_fix.nets, reg));
        }
        cones[reg].clone().expect("just computed")
    };

    let mut sites = Vec::with_capacity(GaCoreHw::SCAN_LENGTH + 16);
    let mut position = 0usize;
    for &(field, width) in GaCoreHw::SCAN_FIELDS {
        let mapped = ga_core_reg_field(field);
        for bit in 0..width {
            let field_bit = format!("{field}[{bit}]");
            let verdict = match mapped {
                Some((start, gate_width)) if bit < gate_width => {
                    let reg = start + bit;
                    let cone = cone_for(reg);
                    let (observable, cone_size, reason) = verdict_from_cone(&cone, &field_bit, reg);
                    SiteVerdict {
                        domain: SiteDomain::Scan,
                        index: position,
                        field: field_bit,
                        reg: Some(reg),
                        observable,
                        cone_size,
                        reason,
                    }
                }
                _ => SiteVerdict {
                    domain: SiteDomain::Scan,
                    index: position,
                    field: field_bit.clone(),
                    reg: None,
                    observable: true,
                    cone_size: 0,
                    reason: format!(
                        "{field_bit} has no gate-level counterpart (the \
                         hardware accumulator is 32-bit, the gate-level one \
                         24-bit); conservatively assumed observable"
                    ),
                },
            };
            sites.push(verdict);
            position += 1;
        }
    }
    debug_assert_eq!(position, GaCoreHw::SCAN_LENGTH);

    let rng_nl = try_elaborate_ca_rng()?;
    let rng = CompiledNetlist::compile(&rng_nl)?;
    let rng_fix = ternary_fixpoint(&rng, &vec![Tern::X; rng.ff_count()]);
    for reg in 0..rng.ff_count() {
        let field = format!("ca_rng[{reg}]");
        let cone = fault_cone(&rng, &rng_fix.nets, reg);
        let (observable, cone_size, reason) = verdict_from_cone(&cone, &field, reg);
        sites.push(SiteVerdict {
            domain: SiteDomain::Net,
            index: reg,
            field,
            reg: Some(reg),
            observable,
            cone_size,
            reason,
        });
    }

    Ok(ObservabilityReport {
        sites,
        ga_core_iterations: ga_fix.iterations,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn report_covers_all_424_sites() {
        let report = observability_report().unwrap();
        assert_eq!(report.sites.len(), 424);
        assert_eq!(
            report
                .sites
                .iter()
                .filter(|s| s.domain == SiteDomain::Scan)
                .count(),
            GaCoreHw::SCAN_LENGTH
        );
        assert_eq!(report.net_site(15).unwrap().field, "ca_rng[15]");
    }

    #[test]
    fn seed_is_the_unobservable_population() {
        // The gate-level seed register's Q feeds only its own hold mux
        // (the RNG seeds from the value bus directly), so exactly the
        // 16 seed bits are statically masked; everything else reaches
        // an output.
        let report = observability_report().unwrap();
        let masked: Vec<&SiteVerdict> = report.sites.iter().filter(|s| !s.observable).collect();
        assert_eq!(masked.len(), 16, "{:#?}", masked);
        for (bit, s) in masked.iter().enumerate() {
            assert_eq!(s.domain, SiteDomain::Scan);
            assert_eq!(s.field, format!("seed[{bit}]"));
            assert_eq!(s.index, bit, "seed heads the scan chain");
        }
    }

    #[test]
    fn every_ca_rng_site_is_observable() {
        let report = observability_report().unwrap();
        for site in 0..16 {
            let v = report.net_site(site).unwrap();
            assert!(v.observable, "{v:?}");
            assert!(v.cone_size >= 1);
        }
    }

    #[test]
    fn unmapped_accumulator_bits_are_conservative() {
        let report = observability_report().unwrap();
        let unmapped: Vec<&SiteVerdict> = report.sites.iter().filter(|s| s.reg.is_none()).collect();
        assert_eq!(unmapped.len(), 32, "4 accumulators × 8 high bits");
        assert!(unmapped.iter().all(|s| s.observable && s.cone_size == 0));
        assert!(unmapped.iter().all(|s| s.field.starts_with("fit_sum[")
            || s.field.starts_with("new_sum[")
            || s.field.starts_with("threshold[")
            || s.field.starts_with("cum[")));
    }

    #[test]
    fn json_report_is_well_formed() {
        let report = observability_report().unwrap();
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"sites\":424"));
        assert!(json.contains("\"unobservable\":16"));
        assert!(json.contains("\"field\":\"seed[0]\""));
    }
}
