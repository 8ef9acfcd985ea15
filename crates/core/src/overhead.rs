//! Hardware-overhead accounting (§3.5.6, §4.5.7): the DCS and Trident
//! blocks are synthesized gate-by-gate through `ntc-netlist::synth`, and
//! their area / power / wirelength are reported relative to the EX stage
//! and the full pipeline — the substitute for the paper's Cadence SoC
//! Encounter place-and-route numbers.

use crate::trident::EID_BITS;
use ntc_isa::ErrorTag;
use ntc_netlist::generators::ex_stage::ExStage;
use ntc_netlist::synth::{
    synth_associative_table, synth_bloom_filter, synth_controller, synth_set_associative_table,
    synth_tdc, HardwareReport,
};

/// Overheads of one scheme's hardware, absolute and relative.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadReport {
    /// Scheme name.
    pub scheme: &'static str,
    /// Per-block synthesized reports.
    pub blocks: Vec<HardwareReport>,
    /// Total gate-equivalents of the scheme's hardware.
    pub total_gates: usize,
    /// Area relative to the full pipeline, percent.
    pub area_pct_pipeline: f64,
    /// Power relative to the core, percent.
    pub power_pct_pipeline: f64,
    /// Wirelength relative to the pipeline, percent.
    pub wirelength_pct_pipeline: f64,
    /// Area relative to the EX stage alone, percent.
    pub area_pct_ex: f64,
    /// Power relative to the EX stage alone, percent.
    pub power_pct_ex: f64,
    /// Wirelength relative to the EX stage alone, percent.
    pub wirelength_pct_ex: f64,
}

/// Reference sizes of the processor the overheads are normalized against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineBaseline {
    /// EX-stage area, µm².
    pub ex_area_um2: f64,
    /// EX-stage leakage + activity power proxy, nW.
    pub ex_power_nw: f64,
    /// EX-stage wirelength, µm.
    pub ex_wirelength_um: f64,
    /// Whole-pipeline multiples of the EX stage (the EX stage is one of 11
    /// stages, but stages differ in size; the paper's ratios imply the
    /// pipeline is roughly an order of magnitude larger than EX).
    pub pipeline_to_ex_ratio: f64,
}

impl PipelineBaseline {
    /// Synthesize the EX stage and derive the baseline numbers.
    ///
    /// The paper synthesizes a 64-bit EX datapath (§3.2.2), so the
    /// baseline uses the 64-bit ExStage even though the architectural
    /// trace simulations run 32-bit operands. The pipeline/EX ratio
    /// reflects a 4-wide out-of-order FabScalar core (rename, issue
    /// queues, LSQ, ROB, register files) against the single EX datapath.
    pub fn synthesize() -> Self {
        let ex = ExStage::new(64);
        let nl = ex.netlist();
        // Power proxy: leakage + an activity-weighted switching term.
        let switch: f64 = nl
            .gates()
            .iter()
            .map(|g| g.kind().switch_energy_fj())
            .sum::<f64>()
            * 0.15;
        PipelineBaseline {
            ex_area_um2: nl.area_um2(),
            ex_power_nw: nl.leakage_nw() + switch,
            ex_wirelength_um: nl.estimated_wirelength_um(),
            pipeline_to_ex_ratio: 40.0,
        }
    }

    fn pipeline_area(&self) -> f64 {
        self.ex_area_um2 * self.pipeline_to_ex_ratio
    }

    fn pipeline_power(&self) -> f64 {
        self.ex_power_nw * self.pipeline_to_ex_ratio
    }

    fn pipeline_wirelength(&self) -> f64 {
        self.ex_wirelength_um * self.pipeline_to_ex_ratio
    }
}

fn finish(
    scheme: &'static str,
    blocks: Vec<HardwareReport>,
    base: &PipelineBaseline,
) -> OverheadReport {
    let area: f64 = blocks.iter().map(|b| b.area_um2).sum();
    let gates: usize = blocks.iter().map(|b| b.gate_equivalents).sum();
    let wire: f64 = blocks.iter().map(|b| b.wirelength_um).sum();
    // Power proxy consistent with the baseline: leakage + access energy
    // charged per cycle.
    let power: f64 = blocks
        .iter()
        .map(|b| b.leakage_nw + b.access_energy_fj * 0.4)
        .sum();
    OverheadReport {
        scheme,
        total_gates: gates,
        area_pct_pipeline: 100.0 * area / base.pipeline_area(),
        power_pct_pipeline: 100.0 * power / base.pipeline_power(),
        wirelength_pct_pipeline: 100.0 * wire / base.pipeline_wirelength(),
        area_pct_ex: 100.0 * area / base.ex_area_um2,
        power_pct_ex: 100.0 * power / base.ex_power_nw,
        wirelength_pct_ex: 100.0 * wire / base.ex_wirelength_um,
        blocks,
    }
}

/// Synthesize the DCS-ICSLT hardware: the CSLT (fully associative,
/// `entries` × 18-bit tags), the Choke Controller with its De→WB history
/// buffer, and the Bloom-filter lookup front-end.
pub fn dcs_icslt_overheads(entries: usize, base: &PipelineBaseline) -> OverheadReport {
    let blocks = vec![
        synth_associative_table("CSLT (ICSLT)", entries, ErrorTag::BITS),
        // The opcode-OWM buffer spans De→WB: six intermediate stages of
        // the Core-1 pipeline.
        synth_controller("Choke Controller", 6, ErrorTag::BITS),
        synth_bloom_filter("Bloom filter", (entries * 4).next_power_of_two(), 2),
    ];
    finish("DCS-ICSLT", blocks, base)
}

/// Synthesize the DCS-ACSLT hardware: the set-associative CSLT (`sets`
/// errant pairs × `ways` previous pairs, 9-bit half-tags), controller and
/// Bloom filter.
pub fn dcs_acslt_overheads(sets: usize, ways: usize, base: &PipelineBaseline) -> OverheadReport {
    let blocks = vec![
        synth_set_associative_table("CSLT (ACSLT)", sets, ways, 9, 9),
        synth_controller("Choke Controller", 6, ErrorTag::BITS),
        synth_bloom_filter("Bloom filter", (sets * ways * 2).next_power_of_two(), 2),
    ];
    finish("DCS-ACSLT", blocks, base)
}

/// Synthesize the Trident hardware: the CET (EID-keyed), the CDC, the CCR
/// (instruction buffer between De and WB), and one TDC per monitored
/// pipestage output register.
pub fn trident_overheads(cet_entries: usize, base: &PipelineBaseline) -> OverheadReport {
    let monitored_outputs = 64 + 2; // the 64-bit result bus + flags
    let blocks = vec![
        synth_associative_table("CET", cet_entries, EID_BITS),
        synth_controller("CDC + CCR", 6, EID_BITS),
        synth_tdc("TDC (EX)", monitored_outputs),
    ];
    finish("Trident", blocks, base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overheads_are_small_fractions_of_the_pipeline() {
        let base = PipelineBaseline::synthesize();
        let icslt = dcs_icslt_overheads(128, &base);
        let acslt = dcs_acslt_overheads(32, 16, &base);
        let trident = trident_overheads(128, &base);
        for r in [&icslt, &acslt, &trident] {
            // The paper reports sub-2 % pipeline overheads for all three.
            assert!(
                r.area_pct_pipeline < 2.0,
                "{}: {:.2}% of pipeline area",
                r.scheme,
                r.area_pct_pipeline
            );
            assert!(r.power_pct_pipeline < 2.0, "{}", r.scheme);
            assert!(r.wirelength_pct_pipeline < 2.0, "{}", r.scheme);
            assert!(r.total_gates > 100);
        }
        // ACSLT stores more ways → more hardware than ICSLT (the paper:
        // 3241 vs 1553 gates).
        assert!(acslt.total_gates > icslt.total_gates);
    }

    #[test]
    fn gate_counts_are_paper_order_of_magnitude() {
        let base = PipelineBaseline::synthesize();
        let icslt = dcs_icslt_overheads(128, &base);
        let acslt = dcs_acslt_overheads(32, 16, &base);
        // §3.5.6 reports 1553 / 3241 gates; ours count gate-equivalents of
        // the same structures and must land within the same order.
        assert!(
            (500..8_000).contains(&icslt.total_gates),
            "ICSLT {}",
            icslt.total_gates
        );
        assert!(
            (1000..12_000).contains(&acslt.total_gates),
            "ACSLT {}",
            acslt.total_gates
        );
    }

    #[test]
    fn baseline_is_positive() {
        let base = PipelineBaseline::synthesize();
        assert!(base.ex_area_um2 > 0.0);
        assert!(base.ex_power_nw > 0.0);
        assert!(base.ex_wirelength_um > 0.0);
    }
}
