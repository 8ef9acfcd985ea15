//! Gate-level synthesis of the resilience hardware (lookup tables,
//! controllers, transition detectors) so the overhead tables (§3.5.6,
//! §4.5.7) can be computed from real structure counts instead of guesses.
//!
//! Storage is modelled the way the paper builds it: the CSLT/CET are
//! "managed dynamically, in the form of a RAM" (§3.3.4) with a Bloom-filter
//! lookup front-end — *not* a CAM with per-entry comparators. Gate counts
//! therefore cover the peripheral logic (address decode, one verify
//! comparator, replacement bookkeeping, controller FSMs), while table bits
//! are charged at SRAM density. Small architectural registers (history
//! buffers, counters) are charged as flip-flops.

use crate::cell::CellKind;
use crate::netlist::{Builder, Netlist};

/// Gate-equivalents charged per flip-flop bit (a D flip-flop is roughly six
/// NAND2-equivalents in a standard-cell library).
pub const DFF_GATE_EQUIV: f64 = 6.0;

/// Area charged per flip-flop bit, in square micrometres (15 nm class).
pub const DFF_AREA_UM2: f64 = 1.1;

/// Gate-equivalents charged per SRAM bit (6T cell ≈ one-third of a NAND2
/// pair's transistor budget).
pub const RAM_BIT_GATE_EQUIV: f64 = 0.35;

/// Area per SRAM bit, µm² (15 nm class bitcell).
pub const RAM_BIT_AREA_UM2: f64 = 0.055;

/// Leakage per SRAM bit, nW.
pub const RAM_BIT_LEAKAGE_NW: f64 = 0.22;

/// Synthesized hardware block report: gate count, area, leakage and an
/// activity-based dynamic energy estimate per access.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareReport {
    /// Block name.
    pub name: String,
    /// Flip-flop storage bits (registers, counters).
    pub ff_bits: usize,
    /// RAM storage bits (table payload).
    pub ram_bits: usize,
    /// Combinational logic gate count (peripheral logic).
    pub logic_gates: usize,
    /// Total gate-equivalents (logic + storage equivalents).
    pub gate_equivalents: usize,
    /// Total area, µm².
    pub area_um2: f64,
    /// Leakage, nW, at the nominal corner.
    pub leakage_nw: f64,
    /// Estimated dynamic energy per lookup/access, fJ at 0.8 V.
    pub access_energy_fj: f64,
    /// Estimated wirelength, µm.
    pub wirelength_um: f64,
}

impl HardwareReport {
    fn from_netlist(name: &str, ff_bits: usize, ram_bits: usize, nl: &Netlist) -> Self {
        let logic_gates = nl.logic_gate_count();
        // ~25% of combinational cells toggle on a typical access; storage
        // contributes word-line/bit-line energy.
        let access_energy_fj: f64 = nl
            .gates()
            .iter()
            .map(|g| g.kind().switch_energy_fj())
            .sum::<f64>()
            * 0.25
            + ff_bits as f64 * 0.4
            + (ram_bits as f64).sqrt() * 0.8;
        let gate_equivalents = logic_gates as f64
            + ff_bits as f64 * DFF_GATE_EQUIV
            + ram_bits as f64 * RAM_BIT_GATE_EQUIV;
        HardwareReport {
            name: name.to_owned(),
            ff_bits,
            ram_bits,
            logic_gates,
            gate_equivalents: gate_equivalents.round() as usize,
            area_um2: nl.area_um2()
                + ff_bits as f64 * DFF_AREA_UM2
                + ram_bits as f64 * RAM_BIT_AREA_UM2,
            leakage_nw: nl.leakage_nw()
                + ff_bits as f64 * 2.5
                + ram_bits as f64 * RAM_BIT_LEAKAGE_NW,
            access_energy_fj,
            wirelength_um: nl.estimated_wirelength_um()
                + ff_bits as f64 * 3.0
                + ram_bits as f64 * 0.4,
        }
    }
}

/// Equality comparator over `tag_bits` (XNOR per bit + AND tree) gated by a
/// valid bit — one verify comparator of a RAM-based lookup table. Its
/// ports are `probe`, `stored`, `valid` and `hit`, each name prefixed by
/// `port_prefix`.
fn tag_comparator(b: &mut Builder, port_prefix: &str, tag_bits: usize) {
    let probe = b.input_bus(&format!("{port_prefix}probe"), tag_bits);
    let stored = b.input_bus(&format!("{port_prefix}stored"), tag_bits);
    let valid = b.input(&format!("{port_prefix}valid"));
    let eq_bits: Vec<_> = probe
        .iter()
        .zip(stored.iter())
        .map(|(&p, &s)| b.gate2(CellKind::Xnor2, p, s))
        .collect();
    let eq = crate::generators::logic::and_tree(b, &eq_bits);
    let hit = b.and(eq, valid);
    b.output(&format!("{port_prefix}hit"), hit);
}

fn index_bits(entries: usize) -> usize {
    (usize::BITS - (entries.max(2) - 1).leading_zeros()) as usize
}

/// Synthesize a fully-associative, RAM-backed lookup table (the DCS
/// **ICSLT** or the Trident **CET**): the Bloom filter screens lookups, a
/// hashed index addresses the RAM, and one verify comparator confirms the
/// tag; pseudo-LRU bookkeeping handles replacement.
pub fn synth_associative_table(name: &str, entries: usize, tag_bits: usize) -> HardwareReport {
    assert!(entries > 0 && tag_bits > 0);
    let mut b = Builder::new();
    // Address decoder for the RAM row.
    let idx = b.input_bus("index", index_bits(entries));
    let rows = crate::generators::logic::decoder(&mut b, &idx, entries.min(1 << idx.len()));
    // Row-select OR tree models the word-line driver network.
    let _wl = crate::generators::logic::or_tree(&mut b, &rows);
    // Verify comparator on the read-out tag.
    tag_comparator(&mut b, "", tag_bits);
    // Pseudo-LRU update logic: one mux + one AND per tree level.
    let lvl = index_bits(entries);
    let seed = b.input("lru_in");
    let mut cur = seed;
    for level in 0..lvl {
        let s = b.input(&format!("lru_sel{level}"));
        cur = b.mux(cur, s, s);
    }
    b.output("lru_out", cur);
    let nl = b.finish();

    // RAM payload: tag + valid per entry, plus the pseudo-LRU tree bits.
    let plru_bits = entries.saturating_sub(1);
    let ram_bits = entries * (tag_bits + 1) + plru_bits;
    HardwareReport::from_netlist(name, 0, ram_bits, &nl)
}

/// Synthesize a set-associative, RAM-backed lookup table (the DCS
/// **ACSLT**): a set directory keyed by the errant opcode+OWM pair and a
/// way array of previous-cycle pairs; two verify comparators (set + way).
pub fn synth_set_associative_table(
    name: &str,
    sets: usize,
    ways: usize,
    set_tag_bits: usize,
    way_tag_bits: usize,
) -> HardwareReport {
    assert!(sets > 0 && ways > 0);
    let mut b = Builder::new();
    let set_idx = b.input_bus("set_index", index_bits(sets));
    let rows = crate::generators::logic::decoder(&mut b, &set_idx, sets.min(1 << set_idx.len()));
    let _wl = crate::generators::logic::or_tree(&mut b, &rows);
    tag_comparator(&mut b, "", set_tag_bits);
    // Way comparators are time-multiplexed in the RAM design: one way
    // comparator plus a way-select decoder.
    let way_idx = b.input_bus("way_index", index_bits(ways));
    let wsel = crate::generators::logic::decoder(&mut b, &way_idx, ways.min(1 << way_idx.len()));
    let _ws = crate::generators::logic::or_tree(&mut b, &wsel);
    tag_comparator(&mut b, "way_", way_tag_bits);
    let nl = b.finish();

    let plru_bits = sets * ways.saturating_sub(1) + sets.saturating_sub(1);
    let ram_bits = sets * (set_tag_bits + 1) + sets * ways * (way_tag_bits + 1) + plru_bits;
    HardwareReport::from_netlist(name, 0, ram_bits, &nl)
}

/// Synthesize the Choke Controller / Choke Detection Controller: a small
/// FSM with stall/flush outputs, an opcode-OWM history buffer (the paper's
/// De→WB buffer or Trident's CCR), and the replay address register.
pub fn synth_controller(name: &str, pipeline_stages: usize, entry_bits: usize) -> HardwareReport {
    assert!(pipeline_stages > 0);
    let mut b = Builder::new();
    // FSM: 2 state bits, decode to 4 states, stall/flush outputs.
    let state = b.input_bus("state", 2);
    let hit = b.input("hit");
    let error = b.input("error");
    let states = crate::generators::logic::decoder(&mut b, &state, 4);
    let stall = b.and(states[1], hit);
    let flush = b.and(states[2], error);
    let ns0 = b.mux(states[0], stall, hit);
    let ns1 = b.mux(states[3], flush, error);
    let ns0b = b.or(ns0, flush);
    let ns1b = b.or(ns1, stall);
    b.output("stall", stall);
    b.output("flush", flush);
    b.output("ns0", ns0b);
    b.output("ns1", ns1b);
    let nl = b.finish();

    // History buffer: one entry_bits-wide register per stage between De and
    // WB, plus PC register (32 bits) for replay and the FSM state.
    let ff_bits = pipeline_stages * entry_bits + 32 + 2;
    HardwareReport::from_netlist(name, ff_bits, 0, &nl)
}

/// Synthesize one Trident Transition Detector and Counter (TDC): a
/// double-edge-triggered detector per monitored output plus a 2-bit
/// saturating counter and the detection-clock gating.
pub fn synth_tdc(name: &str, monitored_outputs: usize) -> HardwareReport {
    assert!(monitored_outputs > 0);
    let mut b = Builder::new();
    let data = b.input_bus("data", monitored_outputs);
    let prev = b.input_bus("prev", monitored_outputs);
    let window = b.input("window");
    // Transition detect: XOR current vs previous sample, gated by the
    // detection window.
    let toggles: Vec<_> = data
        .iter()
        .zip(prev.iter())
        .map(|(&d, &p)| b.xor(d, p))
        .collect();
    let any = crate::generators::logic::or_tree(&mut b, &toggles);
    let illegal = b.and(any, window);
    // 2-bit counter increment logic.
    let c0 = b.input("c0");
    let c1 = b.input("c1");
    let nc0 = b.xor(c0, illegal);
    let carry = b.and(c0, illegal);
    let nc1 = b.or(c1, carry);
    b.output("illegal", illegal);
    b.output("nc0", nc0);
    b.output("nc1", nc1);
    let nl = b.finish();

    // Double-edge flops per monitored output (sample + shadow) + counter.
    let ff_bits = monitored_outputs * 2 + 2;
    HardwareReport::from_netlist(name, ff_bits, 0, &nl)
}

/// Bloom-filter lookup front-end: two hash-index XOR networks plus the
/// membership bit array (RAM density).
pub fn synth_bloom_filter(name: &str, bits: usize, hashes: usize) -> HardwareReport {
    assert!(
        bits.is_power_of_two(),
        "bloom array size must be a power of two"
    );
    let index_bits = bits.trailing_zeros() as usize;
    let mut b = Builder::new();
    let tag = b.input_bus("tag", 18);
    let mut hit_terms = Vec::with_capacity(hashes);
    for h in 0..hashes {
        // Hash network: XOR-fold the tag down to index_bits.
        let mut folded = tag.to_vec();
        while folded.len() > index_bits {
            let a = folded.remove(0);
            let last = folded.len() - 1;
            let mixed = b.xor(folded[last], a);
            folded[last] = mixed;
        }
        let bit_in = b.input(&format!("bit{h}"));
        let gate = crate::generators::logic::or_tree(&mut b, &folded);
        hit_terms.push(b.and(bit_in, gate));
    }
    let hit = crate::generators::logic::and_tree(&mut b, &hit_terms);
    b.output("hit", hit);
    let nl = b.finish();
    HardwareReport::from_netlist(name, 0, bits, &nl)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn icslt_style_table_counts() {
        // 128-entry ICSLT with the DCS tag: 2 × (8-bit opcode + 1-bit OWM)
        // = 18 tag bits. The paper reports 567 gates for the CSLT proper;
        // the RAM-based structure must land in the same order of magnitude.
        let r = synth_associative_table("ICSLT-128", 128, 18);
        assert!(r.ram_bits >= 128 * 19);
        assert!(
            (200..4000).contains(&r.gate_equivalents),
            "gate equivalents {}",
            r.gate_equivalents
        );
        assert!(r.area_um2 > 0.0);
        assert!(r.logic_gates > 50, "peripheral logic present: {}", r.logic_gates);
    }

    #[test]
    fn acslt_larger_than_icslt_but_denser_per_instance() {
        // 32 sets × 16 ways stores 512 error instances; a flat table with
        // the same capacity stores the errant pair redundantly per entry.
        let acslt = synth_set_associative_table("ACSLT-32x16", 32, 16, 9, 9);
        let flat = synth_associative_table("ICSLT-512", 32 * 16, 18);
        assert!(acslt.ram_bits < flat.ram_bits);
        // And the paper's chosen configs: ACSLT-32x16 costs more hardware
        // than ICSLT-128 (3241 vs 1553 gates).
        let icslt = synth_associative_table("ICSLT-128", 128, 18);
        assert!(acslt.gate_equivalents > icslt.gate_equivalents);
    }

    #[test]
    fn controller_and_tdc_are_small() {
        let cc = synth_controller("CC", 11, 18);
        let tdc = synth_tdc("TDC", 34);
        assert!(cc.gate_equivalents < 2500);
        assert!(tdc.gate_equivalents < 1000);
        assert!(cc.ff_bits > 0);
        assert_eq!(cc.ram_bits, 0);
    }

    #[test]
    fn bloom_filter_storage_matches_bits() {
        let r = synth_bloom_filter("bloom", 256, 2);
        assert_eq!(r.ram_bits, 256);
        assert!(r.logic_gates > 10, "hash networks synthesized");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bloom_filter_rejects_non_pow2() {
        let _ = synth_bloom_filter("bloom", 100, 2);
    }

    #[test]
    fn reports_have_consistent_totals() {
        let r = synth_associative_table("t", 64, 18);
        let expect = r.logic_gates as f64
            + r.ff_bits as f64 * DFF_GATE_EQUIV
            + r.ram_bits as f64 * RAM_BIT_GATE_EQUIV;
        assert_eq!(r.gate_equivalents, expect.round() as usize);
    }
}
