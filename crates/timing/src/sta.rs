//! Static timing analysis: the latest possible arrival time of every
//! signal under a per-chip delay signature, and the critical delay they
//! give. Ranked path extraction lives in [`crate::paths`].
//!
//! Static analysis is topological and input-independent (every path is
//! assumed sensitizable); the *dynamic* analysis in [`crate::dynamic`]
//! refines this with actual input vectors.
//!
//! # Counters
//!
//! Every [`StaticTiming::analyze`] pass counts one
//! [`Metric::StaFull`] in [`ntc_varmodel::telemetry`], which the
//! delay-oracle stats report as `sta_full`.

use ntc_netlist::Netlist;
use ntc_varmodel::telemetry::{self, Metric};
use ntc_varmodel::ChipSignature;

/// Static latest-arrival times for every signal of a netlist under one
/// chip's delay signature.
#[derive(Debug, Clone)]
pub struct StaticTiming {
    max_arrival: Vec<f64>,
}

impl StaticTiming {
    /// Run static max-arrival analysis.
    ///
    /// # Panics
    ///
    /// Panics if the signature was fabricated for a different netlist
    /// (length mismatch).
    pub fn analyze(nl: &Netlist, sig: &ChipSignature) -> Self {
        assert_eq!(
            sig.delays_ps().len(),
            nl.len(),
            "signature/netlist mismatch"
        );
        telemetry::add(Metric::StaFull, 1);
        let mut max_arrival = vec![0.0; nl.len()];
        for (i, gate) in nl.gates().iter().enumerate() {
            if gate.kind().is_pseudo() {
                continue;
            }
            let mut hi = 0.0f64;
            for s in gate.inputs() {
                hi = hi.max(max_arrival[s.index()]);
            }
            max_arrival[i] = hi + sig.delay_ps(i);
        }
        StaticTiming { max_arrival }
    }

    /// Latest possible arrival at signal index `idx`, ps.
    #[inline]
    pub fn max_arrival(&self, idx: usize) -> f64 {
        self.max_arrival[idx]
    }

    /// The circuit's static critical-path delay: max arrival over outputs.
    pub fn critical_delay_ps(&self, nl: &Netlist) -> f64 {
        nl.outputs()
            .iter()
            .map(|s| self.max_arrival[s.index()])
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_netlist::generators::alu::Alu;
    use ntc_netlist::Builder;
    use ntc_varmodel::{ChipSignature, Corner, VariationParams};

    #[test]
    fn chain_delay_adds_up() {
        let mut b = Builder::new();
        let a = b.input("a");
        let g1 = b.not(a);
        let g2 = b.not(g1);
        let g3 = b.not(g2);
        b.output("y", g3);
        let nl = b.finish();
        let sig = ChipSignature::nominal(&nl, Corner::STC);
        let t = StaticTiming::analyze(&nl, &sig);
        let inv = ntc_netlist::CellKind::Inv.nominal_delay_ps();
        assert!((t.critical_delay_ps(&nl) - 3.0 * inv).abs() < 1e-9);
    }

    #[test]
    fn pv_moves_the_critical_delay() {
        let alu = Alu::new(8);
        let nom = ChipSignature::nominal(alu.netlist(), Corner::NTC);
        let pv = ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), 5);
        let t_nom = StaticTiming::analyze(alu.netlist(), &nom).critical_delay_ps(alu.netlist());
        let t_pv = StaticTiming::analyze(alu.netlist(), &pv).critical_delay_ps(alu.netlist());
        assert!((t_pv - t_nom).abs() / t_nom > 0.02, "nom {t_nom} pv {t_pv}");
    }
}
