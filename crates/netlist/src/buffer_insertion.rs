//! Razor-style hold fixing: pad short paths with buffers so no capture
//! point can switch before the minimum-path-delay constraint — without
//! hurting the setup side.
//!
//! This is the classic slack-aware formulation: buffers are inserted on
//! individual gate-input *edges* whose earliest arrival violates the hold
//! requirement, and only up to the edge's setup slack, so padding lands on
//! the short source branches (e.g. a bypass unit's feed into the result
//! mux) rather than on shared trunks that also carry critical paths.
//!
//! The paper (Ch. 4) shows this classic technique backfires at NTC because
//! the inserted buffers are themselves subject to process variation and
//! can become *choke buffers*; this pass exists so that effect can be
//! studied (Fig. 4.2's buffered vs. bufferless comparison).

use crate::cell::CellKind;
use crate::netlist::{Builder, Netlist, Signal};

/// Report produced by [`insert_hold_buffers`].
#[derive(Debug, Clone, PartialEq)]
pub struct BufferReport {
    /// Number of buffer cells inserted.
    pub buffers_inserted: usize,
    /// Number of gate-input edges that received a chain.
    pub edges_padded: usize,
    /// The shortest output arrival (ps, nominal delays) before padding.
    pub min_delay_before_ps: f64,
    /// The shortest output arrival (ps, nominal delays) after padding.
    pub min_delay_after_ps: f64,
    /// The critical (setup) delay before padding.
    pub max_delay_before_ps: f64,
    /// The critical (setup) delay after padding — must not regress.
    pub max_delay_after_ps: f64,
}

/// Indices (into the new netlist's gate array) of inserted buffer gates.
#[derive(Debug, Clone, Default)]
pub struct InsertedBuffers(pub Vec<Signal>);

/// Clone `nl`, inserting hold-fix buffer chains so every primary output's
/// earliest nominal arrival is at least `min_delay_ps`, while keeping all
/// latest arrivals within `setup_ps`.
///
/// Arrival analysis uses nominal (PV-free) cell delays, which is exactly
/// what a design-time hold-fixing flow sees — and why the fix is defeated
/// post-silicon when PV shrinks the buffer delays themselves.
///
/// Paths whose hold requirement cannot be fully met within the available
/// setup slack are padded as far as the slack allows (matching real flows,
/// which report the residual as a hold violation).
///
/// # Panics
///
/// Panics if `min_delay_ps` is negative or `setup_ps <= min_delay_ps`.
pub fn insert_hold_buffers(
    nl: &Netlist,
    min_delay_ps: f64,
    setup_ps: f64,
) -> (Netlist, InsertedBuffers, BufferReport) {
    assert!(min_delay_ps >= 0.0, "hold constraint must be non-negative");
    assert!(
        setup_ps > min_delay_ps,
        "setup target must exceed the hold target"
    );

    let n = nl.len();
    let (min_arr, max_arr) = nominal_arrivals(nl);

    // Backward pass 1 — setup requirement: latest permissible arrival.
    let mut latest = vec![f64::INFINITY; n];
    for &o in nl.outputs() {
        latest[o.index()] = latest[o.index()].min(setup_ps);
    }
    // Backward pass 2 — hold requirement: earliest permissible arrival.
    // Edges are padded locally where slack affords it; residual need
    // propagates upward.
    let mut need = vec![0.0f64; n];
    for &o in nl.outputs() {
        need[o.index()] = need[o.index()].max(min_delay_ps);
    }

    let buf_delay = CellKind::Buf.nominal_delay_ps();
    // Per-edge padding: (gate index, input pin) -> buffer count.
    let mut edge_pads: std::collections::HashMap<(usize, usize), usize> =
        std::collections::HashMap::new();

    for i in (0..n).rev() {
        let gate = &nl.gates()[i];
        if gate.kind().is_pseudo() {
            continue;
        }
        let d = gate.kind().nominal_delay_ps();
        for (pin, &u) in gate.inputs().iter().enumerate() {
            let ui = u.index();
            let cand = need[i] - d;
            let mut padded_delay = 0.0;
            if cand > min_positive_eps() && min_arr[ui] + 1e-9 < cand {
                let deficit = cand - min_arr[ui];
                let setup_slack = (latest[i] - d - max_arr[ui]).max(0.0);
                let affordable = setup_slack.min(deficit);
                let bufs = (affordable / buf_delay).floor() as usize;
                if bufs > 0 {
                    *edge_pads.entry((i, pin)).or_insert(0) += bufs;
                    padded_delay = bufs as f64 * buf_delay;
                }
                let residual = cand - padded_delay;
                if residual > min_arr[ui] + 1e-9 {
                    need[ui] = need[ui].max(residual);
                }
            }
            // The pad consumes setup slack on this edge: upstream fixes
            // must respect the tightened latest-arrival requirement.
            latest[ui] = latest[ui].min(latest[i] - d - padded_delay);
        }
    }
    // Primary-output pads: if an output's min arrival still misses the
    // target (residual reached a PI), pad the output pin itself within the
    // setup slack there.
    let mut po_pads: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    {
        // Recompute effective min arrivals including edge pads.
        let eff_min = effective_min_arrivals(nl, &edge_pads, buf_delay);
        for &o in nl.outputs() {
            let oi = o.index();
            let deficit = min_delay_ps - eff_min[oi];
            if deficit > 1e-9 {
                let slack = (setup_ps - max_arr[oi]).max(0.0);
                let bufs = ((deficit.min(slack)) / buf_delay).ceil() as usize;
                let affordable = (slack / buf_delay).floor() as usize;
                let bufs = bufs.min(affordable);
                if bufs > 0 {
                    po_pads.insert(oi, bufs);
                }
            }
        }
    }

    // Rebuild the netlist with the chains in place.
    let mut b = Builder::new();
    let mut remap: Vec<Signal> = Vec::with_capacity(n);
    let pending_inputs: Vec<(String, usize)> = nl
        .input_ports()
        .iter()
        .map(|p| (p.name.clone(), p.bits.len()))
        .collect();
    let mut new_inputs: Vec<Signal> = Vec::new();
    for (name, width) in &pending_inputs {
        new_inputs.extend(b.input_bus(name, *width));
    }
    let mut new_input_iter = new_inputs.into_iter();
    let mut inserted = InsertedBuffers::default();

    for (idx, gate) in nl.gates().iter().enumerate() {
        let mapped = match gate.kind() {
            CellKind::Input => new_input_iter.next().expect("input count preserved"),
            CellKind::Const0 => b.const0(),
            CellKind::Const1 => b.const1(),
            kind => {
                let ins: Vec<Signal> = gate
                    .inputs()
                    .iter()
                    .enumerate()
                    .map(|(pin, s)| {
                        let mut sig = remap[s.index()];
                        if let Some(&count) = edge_pads.get(&(idx, pin)) {
                            for _ in 0..count {
                                sig = b.buf(sig);
                                inserted.0.push(sig);
                            }
                        }
                        sig
                    })
                    .collect();
                match kind.arity() {
                    1 => b.gate1(kind, ins[0]),
                    2 => b.gate2(kind, ins[0], ins[1]),
                    _ => b.gate3(kind, ins[0], ins[1], ins[2]),
                }
            }
        };
        remap.push(mapped);
    }
    for port in nl.output_ports() {
        let padded: Vec<Signal> = port
            .bits
            .iter()
            .map(|s| {
                let mut sig = remap[s.index()];
                if let Some(&count) = po_pads.get(&s.index()) {
                    for _ in 0..count {
                        sig = b.buf(sig);
                        inserted.0.push(sig);
                    }
                }
                sig
            })
            .collect();
        b.output_bus(&port.name, &padded);
    }

    let out = b.finish();
    let (min_after_arr, max_after_arr) = nominal_arrivals(&out);
    let fold_outputs = |arr: &[f64], init: f64, f: fn(f64, f64) -> f64, outs: &[Signal]| {
        outs.iter().map(|s| arr[s.index()]).fold(init, f)
    };
    let report = BufferReport {
        buffers_inserted: inserted.0.len(),
        edges_padded: edge_pads.len() + po_pads.len(),
        min_delay_before_ps: fold_outputs(&min_arr, f64::INFINITY, f64::min, nl.outputs()),
        min_delay_after_ps: fold_outputs(&min_after_arr, f64::INFINITY, f64::min, out.outputs()),
        max_delay_before_ps: fold_outputs(&max_arr, 0.0, f64::max, nl.outputs()),
        max_delay_after_ps: fold_outputs(&max_after_arr, 0.0, f64::max, out.outputs()),
    };
    (out, inserted, report)
}

#[inline]
fn min_positive_eps() -> f64 {
    1e-9
}

/// Forward min/max nominal arrival times for every signal.
pub fn nominal_arrivals(nl: &Netlist) -> (Vec<f64>, Vec<f64>) {
    let mut min_arr = vec![0.0f64; nl.len()];
    let mut max_arr = vec![0.0f64; nl.len()];
    for (i, gate) in nl.gates().iter().enumerate() {
        if gate.kind().is_pseudo() {
            continue;
        }
        let d = gate.kind().nominal_delay_ps();
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for s in gate.inputs() {
            lo = lo.min(min_arr[s.index()]);
            hi = hi.max(max_arr[s.index()]);
        }
        min_arr[i] = lo + d;
        max_arr[i] = hi + d;
    }
    (min_arr, max_arr)
}

/// Minimum nominal arrival per signal with per-edge pad delays applied.
fn effective_min_arrivals(
    nl: &Netlist,
    edge_pads: &std::collections::HashMap<(usize, usize), usize>,
    buf_delay: f64,
) -> Vec<f64> {
    let mut arr = vec![0.0f64; nl.len()];
    for (i, gate) in nl.gates().iter().enumerate() {
        if gate.kind().is_pseudo() {
            continue;
        }
        let d = gate.kind().nominal_delay_ps();
        let mut lo = f64::INFINITY;
        for (pin, s) in gate.inputs().iter().enumerate() {
            let pad = edge_pads.get(&(i, pin)).copied().unwrap_or(0) as f64 * buf_delay;
            lo = lo.min(arr[s.index()] + pad);
        }
        arr[i] = lo + d;
    }
    arr
}

/// Backwards-compatible helper: earliest nominal arrival per signal.
pub fn nominal_min_arrivals(nl: &Netlist) -> Vec<f64> {
    nominal_arrivals(nl).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::alu::{Alu, ALL_ALU_FUNCS};

    fn alu8_bounds() -> (f64, f64) {
        let alu = Alu::new(8);
        let (min_arr, max_arr) = nominal_arrivals(alu.netlist());
        let min = alu
            .netlist()
            .outputs()
            .iter()
            .map(|s| min_arr[s.index()])
            .fold(f64::INFINITY, f64::min);
        let max = alu
            .netlist()
            .outputs()
            .iter()
            .map(|s| max_arr[s.index()])
            .fold(0.0, f64::max);
        (min, max)
    }

    #[test]
    fn padding_meets_constraint_without_hurting_setup() {
        let alu = Alu::new(8);
        let (min0, max0) = alu8_bounds();
        // A demanding hold target: 40% of the critical delay.
        let hold = max0 * 0.4;
        assert!(hold > min0, "test premise: hold target above intrinsic min");
        let (padded, bufs, report) = insert_hold_buffers(alu.netlist(), hold, max0 * 1.001);
        assert!(
            report.min_delay_after_ps >= hold - 1e-6,
            "after padding min delay {:.1} must meet {:.1}",
            report.min_delay_after_ps,
            hold
        );
        assert!(
            report.max_delay_after_ps <= max0 * 1.001 + 1e-6,
            "setup must not regress: {:.1} vs {:.1}",
            report.max_delay_after_ps,
            max0
        );
        assert!(!bufs.0.is_empty());
        assert_eq!(report.buffers_inserted, bufs.0.len());
        padded.validate().expect("padded netlist is well-formed");
    }

    #[test]
    fn padding_preserves_function() {
        let alu = Alu::new(8);
        let (_, max0) = alu8_bounds();
        let (padded, _, _) = insert_hold_buffers(alu.netlist(), max0 * 0.35, max0 * 1.001);
        for func in ALL_ALU_FUNCS {
            for (a, b) in [(0xA5u64, 0x3Cu64), (0xFF, 0x01), (0x12, 0x34)] {
                let pis = alu.encode(func, a, b);
                assert_eq!(
                    alu.netlist().eval(&pis),
                    padded.eval(&pis),
                    "{func} a={a:#x} b={b:#x}"
                );
            }
        }
    }

    #[test]
    fn zero_constraint_is_a_noop() {
        let alu = Alu::new(8);
        let (_, max0) = alu8_bounds();
        let (_, bufs, report) = insert_hold_buffers(alu.netlist(), 0.0, max0 * 2.0);
        assert_eq!(bufs.0.len(), 0);
        assert_eq!(report.edges_padded, 0);
        assert!((report.max_delay_after_ps - report.max_delay_before_ps).abs() < 1e-9);
    }

    #[test]
    fn inserted_signals_are_buffers() {
        let alu = Alu::new(8);
        let (_, max0) = alu8_bounds();
        let (padded, bufs, _) = insert_hold_buffers(alu.netlist(), max0 * 0.35, max0 * 1.001);
        for s in &bufs.0 {
            assert_eq!(padded.gate(*s).kind(), CellKind::Buf);
        }
    }

    #[test]
    fn arrivals_monotone_nonnegative() {
        let alu = Alu::new(8);
        let (min_arr, max_arr) = nominal_arrivals(alu.netlist());
        for (lo, hi) in min_arr.iter().zip(max_arr.iter()) {
            assert!(*lo >= 0.0 && lo.is_finite());
            assert!(*hi >= *lo - 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "setup target must exceed")]
    fn setup_below_hold_rejected() {
        let alu = Alu::new(8);
        let _ = insert_hold_buffers(alu.netlist(), 100.0, 50.0);
    }

    #[test]
    fn chains_dominate_padded_short_paths() {
        // The choke-buffer premise: after padding a short path to a large
        // hold target, buffers make up most of that path's delay.
        let alu = Alu::new(8);
        let (min0, max0) = alu8_bounds();
        let hold = max0 * 0.4;
        let (_, _, report) = insert_hold_buffers(alu.netlist(), hold, max0 * 1.001);
        let padding = report.min_delay_after_ps - min0;
        // The 8-bit test ALU is shallow (min/max depth ratio is mild);
        // even so the chains must carry a substantial share. Wider ALUs
        // give the chains an outright majority.
        assert!(
            padding / report.min_delay_after_ps > 0.3,
            "buffer share {:.2} of the padded min path",
            padding / report.min_delay_after_ps
        );
    }
}
