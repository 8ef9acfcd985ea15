//! Bench: the computational kernel behind each paper figure and table, one
//! row per timed function in [`KERNELS`].
//!
//! Every row shares one sampling configuration ([`settings`]) and one lazily
//! built [`Fixtures`] set, so adding a figure is one table line. Positional
//! arguments filter rows by substring of `group/id`:
//!
//! ```text
//! cargo bench -p ntc-bench --features bench --bench figures -- fig3_10 overheads
//! ```
use ntc_bench::harness::{measurement::WallTime, Bencher, BenchmarkGroup, Criterion};
use ntc_bench::SchemeFixture;
use ntc_core::baselines::{Hfg, Ocst, Razor};
use ntc_core::dcs::{CsltKind, Dcs};
use ntc_core::scheme::ResilienceScheme;
use ntc_core::sim::{profile_errors, run_scheme, SimResult};
use ntc_core::trident::Trident;
use ntc_experiments::ch3::choke_study::run_choke_study;
use ntc_netlist::generators::alu::{Alu, AluFunc};
use ntc_netlist::synth;
use ntc_pipeline::{EnergyModel, Pipeline};
use ntc_timing::{DynamicSim, StaticTiming};
use ntc_varmodel::{ChipSignature, Corner, VariationParams};
use ntc_workload::Benchmark;
use std::time::Duration;

/// The inputs the kernels run on: warmed scheme fixtures (built on first
/// use per benchmark) and two fabricated ALUs.
struct Fixtures {
    schemes: Vec<(Benchmark, SchemeFixture)>,
    /// 16-bit ALU and one fabricated chip of it (the Fig. 4.2 pair).
    alu16: (Alu, ChipSignature),
    /// 32-bit ALU and one fabricated chip of it (the substrate kernels).
    alu32: (Alu, ChipSignature),
}

impl Fixtures {
    fn new() -> Self {
        let chip = |width, seed| {
            let alu = Alu::new(width);
            let sig =
                ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), seed);
            (alu, sig)
        };
        Fixtures {
            schemes: Vec::new(),
            alu16: chip(16, 7),
            alu32: chip(32, 1),
        }
    }

    fn scheme(&mut self, bench: Benchmark) -> &mut SchemeFixture {
        let idx = match self.schemes.iter().position(|(b, _)| *b == bench) {
            Some(idx) => idx,
            None => {
                self.schemes.push((bench, SchemeFixture::new(bench)));
                self.schemes.len() - 1
            }
        };
        &mut self.schemes[idx].1
    }
}

/// One timed function: bench group (the figure or table), function id, and
/// the kernel. A kernel may prepare untimed state before `Bencher::iter`.
type Kernel = fn(&mut Fixtures, &mut Bencher);

const KERNELS: &[(&str, &str, Kernel)] = &[
    ("fig3_2", "choke_study_ntc_16bit", |_, b| {
        b.iter(|| run_choke_study(Corner::NTC, 16, 2, 4, 0x32))
    }),
    ("fig3_3", "choke_study_owm_split", |_, b| {
        b.iter(|| run_choke_study(Corner::NTC, 16, 2, 6, 0x33))
    }),
    ("fig3_4", "profile_vortex_4k", |f, b| {
        let fx = f.scheme(Benchmark::Vortex);
        b.iter(|| profile_errors(&mut fx.oracle, &fx.trace, fx.clock))
    }),
    ("fig3_8", "icslt_32", |f, b| {
        icslt(f.scheme(Benchmark::Vortex), b, 32)
    }),
    ("fig3_8", "icslt_128", |f, b| {
        icslt(f.scheme(Benchmark::Vortex), b, 128)
    }),
    ("fig3_9", "acslt_16x8", |f, b| {
        acslt(f.scheme(Benchmark::Vortex), b, 16, 8)
    }),
    ("fig3_9", "acslt_32x16", |f, b| {
        acslt(f.scheme(Benchmark::Vortex), b, 32, 16)
    }),
    ("fig3_10", "razor", |f, b| {
        let fx = f.scheme(Benchmark::Mcf);
        b.iter(|| run(fx, &mut Razor::ch3()))
    }),
    ("fig3_10", "dcs_icslt", |f, b| {
        let fx = f.scheme(Benchmark::Mcf);
        b.iter(|| run(fx, &mut Dcs::icslt_default()))
    }),
    ("fig3_11", "hfg", |f, b| {
        let fx = f.scheme(Benchmark::Gzip);
        b.iter(|| run(fx, &mut Hfg::with_stretch(1.8)))
    }),
    ("fig3_11", "dcs_acslt", |f, b| {
        let fx = f.scheme(Benchmark::Gzip);
        b.iter(|| run(fx, &mut Dcs::acslt_default()))
    }),
    ("fig3_12", "energy_report", |f, b| {
        let fx = f.scheme(Benchmark::Gzip);
        let r = run(fx, &mut Dcs::icslt_default());
        b.iter(|| r.energy(EnergyModel::ntc_core()))
    }),
    ("overheads3", "synth_icslt_128", |_, b| {
        b.iter(|| synth::synth_associative_table("CSLT", 128, 18))
    }),
    ("overheads3", "synth_acslt_32x16", |_, b| {
        b.iter(|| synth::synth_set_associative_table("ACSLT", 32, 16, 9, 9))
    }),
    ("fig4_2", "dynamic_pair_16bit", |f, b| {
        let (alu, sig) = &f.alu16;
        let init = alu.encode(AluFunc::Mult, 0, 0);
        let sens = alu.encode(AluFunc::Mult, 0xBEEF, 0x1357);
        let mut sim = DynamicSim::new(alu.netlist(), sig);
        b.iter(|| sim.simulate_pair(&init, &sens))
    }),
    ("fig4_3", "profile_gap_minmax", |f, b| {
        let fx = f.scheme(Benchmark::Gap);
        b.iter(|| profile_errors(&mut fx.oracle, &fx.trace, fx.clock))
    }),
    ("fig4_4", "size_split", |f, b| {
        let fx = f.scheme(Benchmark::Mcf);
        let profile = profile_errors(&mut fx.oracle, &fx.trace, fx.clock);
        b.iter(|| {
            profile.by_size.values().fold([0u64; 4], |mut acc, s| {
                for k in 0..4 {
                    acc[k] += s[k];
                }
                acc
            })
        })
    }),
    ("fig4_8", "classify_parser", |f, b| {
        let fx = f.scheme(Benchmark::Parser);
        b.iter(|| profile_errors(&mut fx.oracle, &fx.trace, fx.clock))
    }),
    ("fig4_9", "trident_cet_32", |f, b| {
        trident(f.scheme(Benchmark::Vortex), b, 32)
    }),
    ("fig4_9", "trident_cet_128", |f, b| {
        trident(f.scheme(Benchmark::Vortex), b, 128)
    }),
    ("fig4_10", "ocst", |f, b| {
        let fx = f.scheme(Benchmark::Mcf);
        b.iter(|| run(fx, &mut Ocst::new(500, 0.30)))
    }),
    ("fig4_10", "trident", |f, b| {
        let fx = f.scheme(Benchmark::Mcf);
        b.iter(|| run_tdc(fx, &mut Trident::paper()))
    }),
    ("fig4_11", "performance_metric", |f, b| {
        let fx = f.scheme(Benchmark::Gzip);
        let r = run_tdc(fx, &mut Trident::paper());
        b.iter(|| r.performance())
    }),
    ("fig4_12", "energy_metric", |f, b| {
        let fx = f.scheme(Benchmark::Gzip);
        let r = run_tdc(fx, &mut Trident::paper());
        b.iter(|| r.energy(EnergyModel::ntc_core()))
    }),
    ("overheads4", "synth_cet_128", |_, b| {
        b.iter(|| synth::synth_associative_table("CET", 128, 26))
    }),
    ("overheads4", "synth_tdc_66", |_, b| {
        b.iter(|| synth::synth_tdc("TDC", 66))
    }),
    ("substrates", "generate_alu_32", |_, b| {
        b.iter(|| Alu::new(32))
    }),
    ("substrates", "fabricate_chip", |f, b| {
        let (alu, _) = &f.alu32;
        b.iter(|| ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), 1))
    }),
    ("substrates", "static_timing_32", |f, b| {
        let (alu, sig) = &f.alu32;
        b.iter(|| StaticTiming::analyze(alu.netlist(), sig))
    }),
    ("substrates", "eval_alu_32", |f, b| {
        let (alu, _) = &f.alu32;
        b.iter(|| alu.execute(AluFunc::Mult, 0xDEAD_BEEF, 0xCAFE_F00D))
    }),
];

/// One run of `scheme` over the fixture's trace at the Razor-family clock.
fn run(fx: &mut SchemeFixture, scheme: &mut dyn ResilienceScheme) -> SimResult {
    run_scheme(
        scheme,
        &mut fx.oracle,
        &fx.trace,
        fx.clock,
        Pipeline::core1(),
    )
}

/// The same at the Trident (TDC guard interval) clock.
fn run_tdc(fx: &mut SchemeFixture, scheme: &mut dyn ResilienceScheme) -> SimResult {
    run_scheme(
        scheme,
        &mut fx.oracle,
        &fx.trace,
        fx.tdc_clock,
        Pipeline::core1(),
    )
}

/// DCS with an independent CSLT of `entries` entries.
fn icslt(fx: &mut SchemeFixture, b: &mut Bencher, entries: usize) {
    b.iter(|| {
        let mut dcs = Dcs::new(CsltKind::Independent { entries });
        run(fx, &mut dcs)
    })
}

/// DCS with a `sets`×`ways` associative CSLT.
fn acslt(fx: &mut SchemeFixture, b: &mut Bencher, sets: usize, ways: usize) {
    b.iter(|| {
        let mut dcs = Dcs::new(CsltKind::Associative {
            entries: sets,
            associativity: ways,
        });
        run(fx, &mut dcs)
    })
}

/// Trident with a CET of `entries` entries, at the TDC clock.
fn trident(fx: &mut SchemeFixture, b: &mut Bencher, entries: usize) {
    b.iter(|| run_tdc(fx, &mut Trident::new(entries)))
}

/// The one sampling configuration every row runs under.
fn settings<'a>(c: &'a mut Criterion, group: &str) -> BenchmarkGroup<'a, WallTime> {
    let mut g = c.benchmark_group(group);
    g.sample_size(10);
    g.measurement_time(Duration::from_millis(1500));
    g.warm_up_time(Duration::from_millis(300));
    g
}

fn main() {
    // `cargo bench` passes `--bench`; anything else positional is a filter.
    let filters: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .collect();
    let mut c = Criterion::default();
    let mut fixtures = Fixtures::new();
    for &(group, id, kernel) in KERNELS {
        let name = format!("{group}/{id}");
        if !filters.is_empty() && !filters.iter().any(|f| name.contains(f.as_str())) {
            continue;
        }
        settings(&mut c, group).bench_function(id, |b| kernel(&mut fixtures, b));
    }
}
