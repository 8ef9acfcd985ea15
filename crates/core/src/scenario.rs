//! The scenario layer: a data-driven vocabulary for "run scheme S over
//! benchmark B on chip C under regime R".
//!
//! Two pieces live here, at the core level, because they speak only the
//! scheme/simulator vocabulary (the grid driver that expands benchmarks ×
//! chips × schemes lives with the experiment harness):
//!
//! * [`SchemeSpec`] — a registry of every resilience scheme in the study,
//!   constructible by stable string name ([`SchemeSpec::parse`]) from one
//!   roster ([`SchemeSpec::roster`]). A spec is *data*: plain integer
//!   parameters, hashable, comparable, and cheap to copy — adding a scheme
//!   to every comparison grid is a one-variant change here rather than an
//!   edit to half a dozen duplicated experiment loops. Per-chip
//!   parameterization (HFG's post-silicon guardband stretch, OCST's
//!   trace-scaled tuning interval) happens at [`SchemeSpec::build`] time
//!   from a [`ChipContext`].
//! * [`SimAccumulator`] — the single per-benchmark fold over
//!   [`SimResult`]s: explicit sums plus a run count. Counter fields add
//!   exactly; per-run ratios (prediction accuracy, period stretch) are
//!   accumulated as sums and divided by the count, which makes the
//!   aggregate a true mean over chips (the old inline folds computed a
//!   running half-average for the HFG stretch — see `mean_period_stretch`).

use crate::baselines::{HardenedRazor, Hfg, Ocst, Razor};
use crate::dcs::{CsltKind, Dcs};
use crate::dvs::{DvsController, DvsLevel, DVS_TARGET_PPM};
use crate::scheme::ResilienceScheme;
use crate::sim::SimResult;
use crate::trident::Trident;
use ntc_pipeline::RunCost;
use ntc_timing::{ClockSpec, ErrorClass};
use ntc_varmodel::OperatingPoint;

/// The guardband margin HFG's sensor network applies on top of the chip's
/// post-silicon static critical delay (§3.5.4: the controller cannot know
/// which paths a workload will sensitize, so it must cover the worst one).
pub const HFG_GUARDBAND_MARGIN: f64 = 1.02;

/// Everything a [`SchemeSpec`] may parameterize on when instantiating a
/// scheme for one fabricated chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipContext {
    /// Static critical delay of the PV-affected die the scheme runs on, ps
    /// (HFG derives its post-silicon guardband stretch from this).
    pub static_critical_delay_ps: f64,
    /// The base clock the scheme will be evaluated at.
    pub clock: ClockSpec,
    /// Length of the instruction trace, in instructions (OCST scales its
    /// tuning interval to keep the paper's tuning-to-run ratio).
    pub trace_len: usize,
    /// The operating point the cell is evaluated at (the DVS controller
    /// derives its undervolting ladder from it; corner-pinned callers pass
    /// [`OperatingPoint::NTC`]).
    pub point: OperatingPoint,
}

/// One registered resilience scheme, as pure data.
///
/// Construct from a stable string name with [`SchemeSpec::parse`], or pick
/// from the canonical [`SchemeSpec::roster`]. Instantiate per chip with
/// [`SchemeSpec::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeSpec {
    /// Razor as evaluated in Ch. 3: maximum-timing violations only.
    RazorCh3,
    /// Razor as evaluated in Ch. 4: choke buffers defeat the hold fix, so
    /// minimum violations pass undetected (silent corruption).
    RazorCh4,
    /// HFG adaptive guardbanding; the stretch is derived per chip from its
    /// post-silicon static critical delay at build time.
    Hfg,
    /// DCS with the independent CSLT organization.
    DcsIcslt {
        /// Fully-associative CSLT tuples.
        entries: usize,
    },
    /// DCS with the associative CSLT organization.
    DcsAcslt {
        /// Set tuples (errant opcode+OWM pairs).
        entries: usize,
        /// Previous-cycle pairs per tuple.
        associativity: usize,
    },
    /// Trident with a CET of the given capacity.
    Trident {
        /// Choke Error Table entries.
        cet_entries: usize,
    },
    /// OCST with the paper's skew budget; the tuning interval is scaled to
    /// the trace length at build time (ten tuning opportunities per run).
    Ocst,
    /// Closed-loop dynamic voltage scaling (Kaul et al.): a Razor-style
    /// corrector whose supply walks the operating-point roster below the
    /// grid point until the measured correction rate crosses the target.
    /// The undervolting ladder is derived from the cell's
    /// [`ChipContext::point`] at build time.
    Dvs,
    /// Selective-hardening ablation: de-rate only the top-k slow choke
    /// gates before fabrication (the harness builds the oracle from the
    /// de-rated signature — see [`SchemeSpec::hardened_top_k`]), then
    /// detect Razor-style.
    HardenChoke {
        /// Choke gates hardened, slowest first.
        top_k: usize,
    },
}

/// Failure to resolve a scheme name against the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSchemeError {
    /// The name that failed to resolve.
    pub input: String,
}

impl std::fmt::Display for ParseSchemeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown scheme `{}`; registered: {}",
            self.input,
            SchemeSpec::roster()
                .iter()
                .map(|s| s.name())
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

impl std::error::Error for ParseSchemeError {}

impl SchemeSpec {
    /// The canonical roster: every scheme of the study in its
    /// paper-settled configuration, in figure order.
    pub fn roster() -> &'static [SchemeSpec] {
        const ROSTER: [SchemeSpec; 9] = [
            SchemeSpec::RazorCh3,
            SchemeSpec::RazorCh4,
            SchemeSpec::Hfg,
            SchemeSpec::DcsIcslt { entries: 128 },
            SchemeSpec::DcsAcslt {
                entries: 32,
                associativity: 16,
            },
            SchemeSpec::Trident { cet_entries: 128 },
            SchemeSpec::Ocst,
            SchemeSpec::Dvs,
            SchemeSpec::HardenChoke { top_k: 8 },
        ];
        &ROSTER
    }

    /// The stable registry name: parseable back via [`SchemeSpec::parse`].
    /// Paper-default capacities use the bare base name; other capacities
    /// append them (`dcs-icslt:64`, `dcs-acslt:16/8`, `trident:512`).
    pub fn name(&self) -> String {
        match *self {
            SchemeSpec::RazorCh3 => "razor".into(),
            SchemeSpec::RazorCh4 => "razor-ch4".into(),
            SchemeSpec::Hfg => "hfg".into(),
            SchemeSpec::DcsIcslt { entries: 128 } => "dcs-icslt".into(),
            SchemeSpec::DcsIcslt { entries } => format!("dcs-icslt:{entries}"),
            SchemeSpec::DcsAcslt {
                entries: 32,
                associativity: 16,
            } => "dcs-acslt".into(),
            SchemeSpec::DcsAcslt {
                entries,
                associativity,
            } => format!("dcs-acslt:{entries}/{associativity}"),
            SchemeSpec::Trident { cet_entries: 128 } => "trident".into(),
            SchemeSpec::Trident { cet_entries } => format!("trident:{cet_entries}"),
            SchemeSpec::Ocst => "ocst".into(),
            SchemeSpec::Dvs => "dvs".into(),
            SchemeSpec::HardenChoke { top_k: 8 } => "harden-choke".into(),
            SchemeSpec::HardenChoke { top_k } => format!("harden-choke:{top_k}"),
        }
    }

    /// The human-facing display name. Unique across the roster (the two
    /// Razor variants are distinguished), so `--list` output and figure
    /// legends never alias two registered schemes.
    pub fn display_name(&self) -> String {
        match *self {
            SchemeSpec::RazorCh3 => "Razor".into(),
            SchemeSpec::RazorCh4 => "Razor (min-unsafe)".into(),
            SchemeSpec::Hfg => "HFG".into(),
            SchemeSpec::DcsIcslt { entries: 128 } => "DCS-ICSLT".into(),
            SchemeSpec::DcsIcslt { entries } => format!("DCS-ICSLT ({entries})"),
            SchemeSpec::DcsAcslt {
                entries: 32,
                associativity: 16,
            } => "DCS-ACSLT".into(),
            SchemeSpec::DcsAcslt {
                entries,
                associativity,
            } => format!("DCS-ACSLT ({entries}/{associativity})"),
            SchemeSpec::Trident { cet_entries: 128 } => "Trident".into(),
            SchemeSpec::Trident { cet_entries } => format!("Trident ({cet_entries})"),
            SchemeSpec::Ocst => "OCST".into(),
            SchemeSpec::Dvs => "DVS".into(),
            SchemeSpec::HardenChoke { top_k: 8 } => "Harden-choke".into(),
            SchemeSpec::HardenChoke { top_k } => format!("Harden-choke ({top_k})"),
        }
    }

    /// Resolve a registry name. Accepts every [`SchemeSpec::name`] output
    /// plus explicit capacities for the parameterizable schemes
    /// (`dcs-icslt:64`, `dcs-acslt:32/16`, `trident:256`).
    ///
    /// # Errors
    ///
    /// Returns [`ParseSchemeError`] (naming the registered schemes) for
    /// anything the registry cannot resolve, including zero capacities.
    pub fn parse(input: &str) -> Result<SchemeSpec, ParseSchemeError> {
        let err = || ParseSchemeError {
            input: input.to_owned(),
        };
        let (base, args) = match input.split_once(':') {
            Some((b, a)) => (b, Some(a)),
            None => (input, None),
        };
        let spec = match (base, args) {
            ("razor", None) => SchemeSpec::RazorCh3,
            ("razor-ch4", None) => SchemeSpec::RazorCh4,
            ("hfg", None) => SchemeSpec::Hfg,
            ("ocst", None) => SchemeSpec::Ocst,
            ("dcs-icslt", None) => SchemeSpec::DcsIcslt { entries: 128 },
            ("dcs-icslt", Some(a)) => SchemeSpec::DcsIcslt {
                entries: a.parse().map_err(|_| err())?,
            },
            ("dcs-acslt", None) => SchemeSpec::DcsAcslt {
                entries: 32,
                associativity: 16,
            },
            ("dcs-acslt", Some(a)) => {
                let (e, w) = a.split_once('/').ok_or_else(err)?;
                SchemeSpec::DcsAcslt {
                    entries: e.parse().map_err(|_| err())?,
                    associativity: w.parse().map_err(|_| err())?,
                }
            }
            ("trident", None) => SchemeSpec::Trident { cet_entries: 128 },
            ("trident", Some(a)) => SchemeSpec::Trident {
                cet_entries: a.parse().map_err(|_| err())?,
            },
            ("dvs", None) => SchemeSpec::Dvs,
            ("harden-choke", None) => SchemeSpec::HardenChoke { top_k: 8 },
            ("harden-choke", Some(a)) => SchemeSpec::HardenChoke {
                top_k: a.parse().map_err(|_| err())?,
            },
            _ => return Err(err()),
        };
        if spec.capacity_params().contains(&0) {
            return Err(err());
        }
        Ok(spec)
    }

    /// The spec's capacity parameters (empty for unparameterized schemes).
    fn capacity_params(&self) -> Vec<usize> {
        match *self {
            SchemeSpec::DcsIcslt { entries } | SchemeSpec::Trident { cet_entries: entries } => {
                vec![entries]
            }
            SchemeSpec::DcsAcslt {
                entries,
                associativity,
            } => vec![entries, associativity],
            SchemeSpec::HardenChoke { top_k } => vec![top_k],
            _ => Vec::new(),
        }
    }

    /// For the selective-hardening ablation, the number of slow choke
    /// gates the harness must de-rate in the chip signature before
    /// building the cell's delay oracle; `None` for every other scheme.
    pub fn hardened_top_k(&self) -> Option<usize> {
        match *self {
            SchemeSpec::HardenChoke { top_k } => Some(top_k),
            _ => None,
        }
    }

    /// Whether the scheme's detector design requires the hold-buffered
    /// netlist variant (Razor-lineage double sampling in the Ch. 4
    /// setting; Trident deliberately runs bufferless).
    pub fn wants_buffered_netlist(&self) -> bool {
        matches!(self, SchemeSpec::RazorCh4 | SchemeSpec::Ocst)
    }

    /// Whether the scheme is clocked against the transition-detector guard
    /// interval instead of the double-sampling hold window.
    pub fn uses_tdc_clock(&self) -> bool {
        matches!(self, SchemeSpec::Trident { .. })
    }

    /// Instantiate the scheme for one chip.
    pub fn build(&self, ctx: &ChipContext) -> Box<dyn ResilienceScheme> {
        match *self {
            SchemeSpec::RazorCh3 => Box::new(Razor::ch3()),
            SchemeSpec::RazorCh4 => Box::new(Razor::ch4()),
            SchemeSpec::Hfg => {
                // The sensor-driven guardband must cover the chip's
                // post-silicon worst case — the static critical delay of
                // the PV-affected die — because the controller cannot know
                // which paths a workload will sensitize.
                let stretch = (ctx.static_critical_delay_ps * HFG_GUARDBAND_MARGIN
                    / ctx.clock.period_ps)
                    .max(1.0);
                Box::new(Hfg::with_stretch(stretch))
            }
            SchemeSpec::DcsIcslt { entries } => {
                Box::new(Dcs::new(CsltKind::Independent { entries }))
            }
            SchemeSpec::DcsAcslt {
                entries,
                associativity,
            } => Box::new(Dcs::new(CsltKind::Associative {
                entries,
                associativity,
            })),
            SchemeSpec::Trident { cet_entries } => Box::new(Trident::new(cet_entries)),
            SchemeSpec::Ocst => {
                // The paper tunes every 100 k cycles over 1 M-cycle runs
                // (ten tuning opportunities); shorter traces keep the same
                // tuning-to-run ratio.
                let interval = (ctx.trace_len as u64 / 10).clamp(1, 100_000);
                Box::new(Ocst::new(interval, 0.30))
            }
            SchemeSpec::Dvs => {
                // The undervolting ladder: from the grid operating point
                // down to the roster's NTC endpoint. Undervolting by one
                // rung multiplies every delay by the alpha-power factor
                // ratio, which is identical to shrinking the effective
                // clock by its inverse — the scale stored per rung.
                let grid_factor = ctx.point.corner().delay_factor();
                let mut levels = Vec::new();
                let mut rung = Some(ctx.point);
                while let Some(p) = rung {
                    levels.push(DvsLevel {
                        vdd: p.vdd(),
                        period_scale: grid_factor / p.corner().delay_factor(),
                    });
                    rung = p.step_down();
                }
                // Retune often enough for the controller to settle within
                // one run (twenty windows), bounded like OCST's interval.
                let window = (ctx.trace_len as u64 / 20).clamp(100, 50_000);
                Box::new(DvsController::new(levels, window, DVS_TARGET_PPM))
            }
            SchemeSpec::HardenChoke { top_k } => Box::new(HardenedRazor::new(top_k)),
        }
    }
}

/// Explicit sum+count fold over [`SimResult`]s — the one per-benchmark
/// accumulator every grid experiment shares.
///
/// Counters add exactly in push order (so integer aggregates are
/// order-exact and float sums are bit-identical to the sequential fold at
/// any thread count); per-run ratios are recovered as true means over the
/// run count. The fields are public so the experiments crate's persistent
/// grid cache can write and read them byte-exactly, float sums as bit
/// patterns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimAccumulator {
    /// Display name of the accumulated scheme (from the first result;
    /// `None` for an empty accumulator).
    pub scheme: Option<&'static str>,
    /// Results accumulated so far.
    pub runs: u64,
    /// Summed cycle accounting.
    pub cost: RunCost,
    /// Summed true-prediction stalls.
    pub avoided: u64,
    /// Summed false-positive stalls.
    pub false_positives: u64,
    /// Summed after-the-fact recoveries.
    pub recovered: u64,
    /// Summed silent corruptions.
    pub corruptions: u64,
    /// Summed per-class recoveries.
    pub recovered_by_class: [u64; ErrorClass::COUNT],
    /// Sum of per-run period stretches (divide by `runs` for the mean).
    pub stretch_sum: f64,
    /// Sum of per-run prediction accuracies (divide by `runs`).
    pub accuracy_sum: f64,
    /// The scheme's constant power overhead (from the first result).
    pub power_overhead: f64,
}

impl SimAccumulator {
    /// Fold one run into the accumulator.
    pub fn push(&mut self, r: &SimResult) {
        if self.runs == 0 {
            self.scheme = Some(r.scheme);
            self.power_overhead = r.power_overhead;
        }
        self.runs += 1;
        self.cost.instructions += r.cost.instructions;
        self.cost.stall_cycles += r.cost.stall_cycles;
        self.cost.flush_cycles += r.cost.flush_cycles;
        self.cost.flush_events += r.cost.flush_events;
        self.avoided += r.avoided;
        self.false_positives += r.false_positives;
        self.recovered += r.recovered;
        self.corruptions += r.corruptions;
        for (acc, c) in self.recovered_by_class.iter_mut().zip(r.recovered_by_class) {
            *acc += c;
        }
        self.stretch_sum += r.period_stretch;
        self.accuracy_sum += r.prediction_accuracy();
    }

    /// Fold one run in `weight` times, as `weight` runs of its own
    /// result. Kept only because the benchmark's `layer-trace` binary
    /// (under `perfbench/`) calls it; the grid folds through
    /// [`push`](Self::push). `push_weighted(r, 1)` is *not* guaranteed
    /// bit-identical to `push(r)` (the `f64` sums multiply by `1.0`).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is zero.
    pub fn push_weighted(&mut self, r: &SimResult, weight: u64) {
        assert!(weight > 0, "fold weight must be positive");
        if self.runs == 0 {
            self.scheme = Some(r.scheme);
            self.power_overhead = r.power_overhead;
        }
        self.runs += weight;
        self.cost.instructions += r.cost.instructions * weight;
        self.cost.stall_cycles += r.cost.stall_cycles * weight;
        self.cost.flush_cycles += r.cost.flush_cycles * weight;
        self.cost.flush_events += r.cost.flush_events * weight;
        self.avoided += r.avoided * weight;
        self.false_positives += r.false_positives * weight;
        self.recovered += r.recovered * weight;
        self.corruptions += r.corruptions * weight;
        for (acc, c) in self.recovered_by_class.iter_mut().zip(r.recovered_by_class) {
            *acc += c * weight;
        }
        self.stretch_sum += r.period_stretch * weight as f64;
        self.accuracy_sum += r.prediction_accuracy() * weight as f64;
    }

    /// Number of runs folded in.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Mean per-run prediction accuracy (%), matching the per-cell
    /// accuracy average the capacity figures chart.
    ///
    /// # Panics
    ///
    /// Panics if no run was pushed.
    pub fn mean_prediction_accuracy(&self) -> f64 {
        assert!(self.runs > 0, "empty accumulator has no accuracy");
        self.accuracy_sum / self.runs as f64
    }

    /// Mean per-run period stretch: a true mean over chips (sum ÷ count),
    /// replacing the old inline `(agg + r) / 2` running half-average that
    /// over-weighted later chips.
    ///
    /// # Panics
    ///
    /// Panics if no run was pushed.
    pub fn mean_period_stretch(&self) -> f64 {
        assert!(self.runs > 0, "empty accumulator has no stretch");
        self.stretch_sum / self.runs as f64
    }

    /// The aggregate as a [`SimResult`]: summed counters, mean period
    /// stretch — the shape the normalized comparison figures consume.
    ///
    /// # Panics
    ///
    /// Panics if no run was pushed.
    pub fn result(&self) -> SimResult {
        SimResult {
            scheme: self.scheme.expect("empty accumulator has no result"),
            cost: self.cost,
            avoided: self.avoided,
            false_positives: self.false_positives,
            recovered: self.recovered,
            corruptions: self.corruptions,
            recovered_by_class: self.recovered_by_class,
            period_stretch: self.mean_period_stretch(),
            power_overhead: self.power_overhead,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn sample(stretch: f64, avoided: u64, recovered: u64) -> SimResult {
        let mut cost = RunCost::new(1000);
        cost.add_stalls(avoided);
        let mut by_class = [0u64; ErrorClass::COUNT];
        by_class[ErrorClass::SingleMax.index()] = recovered;
        SimResult {
            scheme: "test",
            cost,
            avoided,
            false_positives: 1,
            recovered,
            corruptions: 2,
            recovered_by_class: by_class,
            period_stretch: stretch,
            power_overhead: 0.01,
        }
    }

    #[test]
    fn push_weighted_equals_pushing_weight_times() {
        let a = sample(1.05, 7, 3);
        let b = sample(1.10, 2, 9);
        let mut repeated = SimAccumulator::default();
        for _ in 0..4 {
            repeated.push(&a);
        }
        repeated.push(&b);
        let mut weighted = SimAccumulator::default();
        weighted.push_weighted(&a, 4);
        weighted.push_weighted(&b, 1);
        assert_eq!(repeated.runs(), weighted.runs());
        let (r, w) = (&repeated, &weighted);
        assert_eq!(r.cost, w.cost);
        assert_eq!(r.avoided, w.avoided);
        assert_eq!(r.recovered_by_class, w.recovered_by_class);
        // f64 sums: repeated adds vs. one multiply agree to rounding,
        // not necessarily to the last bit.
        assert!((r.stretch_sum - w.stretch_sum).abs() < 1e-12);
        assert!((r.accuracy_sum - w.accuracy_sum).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "fold weight must be positive")]
    fn zero_weight_push_is_rejected() {
        let mut acc = SimAccumulator::default();
        acc.push_weighted(&sample(1.0, 1, 1), 0);
    }

    #[test]
    fn roster_round_trips_and_display_names_are_unique() {
        let mut names = HashSet::new();
        let mut displays = HashSet::new();
        for spec in SchemeSpec::roster() {
            assert_eq!(
                SchemeSpec::parse(&spec.name()).as_ref(),
                Ok(spec),
                "{} must round-trip",
                spec.name()
            );
            assert!(names.insert(spec.name()), "duplicate name {}", spec.name());
            assert!(
                displays.insert(spec.display_name()),
                "duplicate display name {}",
                spec.display_name()
            );
        }
    }

    #[test]
    fn parameterized_names_parse() {
        assert_eq!(
            SchemeSpec::parse("dcs-icslt:64"),
            Ok(SchemeSpec::DcsIcslt { entries: 64 })
        );
        assert_eq!(
            SchemeSpec::parse("dcs-acslt:16/8"),
            Ok(SchemeSpec::DcsAcslt {
                entries: 16,
                associativity: 8
            })
        );
        assert_eq!(
            SchemeSpec::parse("trident:512"),
            Ok(SchemeSpec::Trident { cet_entries: 512 })
        );
        assert_eq!(
            SchemeSpec::parse("harden-choke:4"),
            Ok(SchemeSpec::HardenChoke { top_k: 4 })
        );
        // Paper defaults collapse to the bare name.
        assert_eq!(SchemeSpec::parse("dcs-icslt:128").unwrap().name(), "dcs-icslt");
        assert_eq!(SchemeSpec::parse("harden-choke:8").unwrap().name(), "harden-choke");
    }

    #[test]
    fn unknown_and_malformed_names_error_cleanly() {
        for bad in [
            "",
            "no-such-scheme",
            "dcs-icslt:",
            "dcs-icslt:many",
            "dcs-acslt:32",
            "trident:0",
            "razor:1",
            "harden-choke:0",
            "dvs:1",
        ] {
            let e = SchemeSpec::parse(bad).expect_err(bad);
            assert_eq!(e.input, bad);
            assert!(e.to_string().contains("registered: razor"), "{e}");
        }
    }

    #[test]
    fn build_parameterizes_per_chip() {
        let ctx = ChipContext {
            static_critical_delay_ps: 1500.0,
            clock: ClockSpec {
                period_ps: 1100.0,
                hold_ps: 100.0,
            },
            trace_len: 60_000,
            point: OperatingPoint::NTC,
        };
        let hfg = SchemeSpec::Hfg.build(&ctx);
        let expect = 1500.0 * HFG_GUARDBAND_MARGIN / 1100.0;
        assert!((hfg.period_stretch() - expect).abs() < 1e-12);
        // A fast chip needs no guardband; the stretch clamps at 1.
        let fast = ChipContext {
            static_critical_delay_ps: 900.0,
            ..ctx
        };
        assert_eq!(SchemeSpec::Hfg.build(&fast).period_stretch(), 1.0);
        // Every roster entry constructs.
        for spec in SchemeSpec::roster() {
            assert!(!spec.build(&ctx).name().is_empty());
        }
        // The hardening count flows through to the harness hook.
        assert_eq!(SchemeSpec::HardenChoke { top_k: 8 }.hardened_top_k(), Some(8));
        assert_eq!(SchemeSpec::Dvs.hardened_top_k(), None);
    }

    #[test]
    fn accumulator_sums_counters_and_means_ratios() {
        let mut acc = SimAccumulator::default();
        acc.push(&sample(1.5, 10, 2));
        acc.push(&sample(1.1, 20, 6));
        acc.push(&sample(1.0, 30, 10));
        assert_eq!(acc.runs(), 3);
        let r = acc.result();
        assert_eq!(r.avoided, 60);
        assert_eq!(r.recovered, 18);
        assert_eq!(r.corruptions, 6);
        assert_eq!(r.cost.instructions, 3000);
        assert_eq!(r.recovered_by_class[ErrorClass::SingleMax.index()], 18);
        // True mean, not the old running half-average (which would give
        // ((1.5 + 1.1)/2 + 1.0)/2 = 1.15).
        assert!((r.period_stretch - (1.5 + 1.1 + 1.0) / 3.0).abs() < 1e-12);
        // Mean of per-run accuracies, not accuracy of the sums.
        let accuracy = |a: u64, rec: u64| 100.0 * a as f64 / (a + rec) as f64;
        let expect = (accuracy(10, 2) + accuracy(20, 6) + accuracy(30, 10)) / 3.0;
        assert!((acc.mean_prediction_accuracy() - expect).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty accumulator")]
    fn empty_accumulator_has_no_result() {
        let _ = SimAccumulator::default().result();
    }
}
