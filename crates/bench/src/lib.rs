//! The `maestro` experiment harness: functions that regenerate every table
//! and figure of Chen & Bushnell, DAC 1988, against this workspace's
//! substrates. Used by the `repro-*` binaries and the Criterion benches.
//!
//! Experiment index (DESIGN.md §4):
//!
//! | id | paper artifact | function |
//! |----|----------------|----------|
//! | E1 | Table 1        | [`table1::rows`] / [`table1::render`] |
//! | E2 | Table 2        | [`table2::rows`] / [`table2::render`] |
//! | E3 | Figure 1       | [`figure1::run`] |
//! | E4 | runtime claims | Criterion benches `table1`, `table2`, `estimator_scaling` |
//! | E5 | §7 iterations  | [`extensions::iteration_experiment`] |
//! | E6 | §7 track sharing | [`extensions::track_sharing_table`] |
//! | E7 | §7 multi-aspect | [`extensions::multi_aspect_table`] |
//! | E8 | §4.1 central row | [`extensions::central_row_experiment`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Experiment E1: Table 1 — full-custom estimates vs synthesized layouts.
pub mod table1 {
    use maestro::netlist::library_circuits;
    use maestro::prelude::*;

    /// One row of Table 1.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Experiment number (1-based).
        pub experiment: usize,
        /// Module name.
        pub name: String,
        /// `# Devices`.
        pub devices: usize,
        /// `# Nets`.
        pub nets: usize,
        /// `# Ports`.
        pub ports: usize,
        /// `Device Area (λ²)`.
        pub device_area: LambdaArea,
        /// `Estimated Wire Area`, exact device areas.
        pub wire_exact: LambdaArea,
        /// `Estimated Wire Area`, average device areas.
        pub wire_average: LambdaArea,
        /// `Total Estimated Area`, exact.
        pub total_exact: LambdaArea,
        /// `Total Estimated Area`, average.
        pub total_average: LambdaArea,
        /// `Real Area` from the layout synthesizer.
        pub real_area: LambdaArea,
        /// `Estimated Aspect Ratio`, exact.
        pub aspect_exact: AspectRatio,
        /// `Estimated Aspect Ratio`, average.
        pub aspect_average: AspectRatio,
        /// `Real Aspect Ratio`.
        pub real_aspect: AspectRatio,
    }

    impl Row {
        /// Signed relative error of the exact estimate vs reality.
        pub fn error_exact(&self) -> f64 {
            self.total_exact.relative_error(self.real_area)
        }

        /// Signed relative error of the average estimate vs reality.
        pub fn error_average(&self) -> f64 {
            self.total_average.relative_error(self.real_area)
        }
    }

    /// Runs the five Table 1 experiments.
    pub fn rows() -> Vec<Row> {
        let tech = builtin::nmos25();
        library_circuits::table1_suite()
            .into_iter()
            .enumerate()
            .map(|(i, module)| {
                let stats = NetlistStats::resolve(&module, &tech, LayoutStyle::FullCustom)
                    .expect("suite resolves");
                let est = full_custom::estimate(&stats, &tech);
                let layout = synthesize(&module, &tech, &SynthesisParams::default())
                    .expect("suite synthesizes");
                Row {
                    experiment: i + 1,
                    name: module.name().to_owned(),
                    devices: stats.device_count(),
                    nets: stats.net_count(),
                    ports: stats.port_count(),
                    device_area: est.device_area,
                    wire_exact: est.wire_area_exact,
                    wire_average: est.wire_area_average,
                    total_exact: est.total_exact,
                    total_average: est.total_average,
                    real_area: layout.area(),
                    aspect_exact: est.aspect_exact,
                    aspect_average: est.aspect_average,
                    real_aspect: layout.aspect_ratio(),
                }
            })
            .collect()
    }

    /// Formats the rows in the paper's layout.
    pub fn render(rows: &[Row]) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        s.push_str("Table 1: Full-Custom Module Layout Area Estimates\n");
        s.push_str(
            "exp | module                      | dev | nets | ports | dev area | wire(ex) | wire(av) | total(ex) | total(av) | real area | err(ex) | err(av) | AR(ex) | AR(av) | AR real\n",
        );
        for r in rows {
            let _ = writeln!(
                s,
                "{:>3} | {:<27} | {:>3} | {:>4} | {:>5} | {:>8} | {:>8} | {:>8} | {:>9} | {:>9} | {:>9} | {:>+6.1}% | {:>+6.1}% | {:>6} | {:>6} | {:>7}",
                r.experiment,
                r.name,
                r.devices,
                r.nets,
                r.ports,
                r.device_area.get(),
                r.wire_exact.get(),
                r.wire_average.get(),
                r.total_exact.get(),
                r.total_average.get(),
                r.real_area.get(),
                r.error_exact() * 100.0,
                r.error_average() * 100.0,
                r.aspect_exact.to_string(),
                r.aspect_average.to_string(),
                r.real_aspect.to_string(),
            );
        }
        let avg = rows.iter().map(|r| r.error_exact().abs()).sum::<f64>() / rows.len() as f64;
        let _ = writeln!(
            s,
            "average |error| (exact variant): {:.1}%  (paper: 12%, range −17%..+26%)",
            avg * 100.0
        );
        s
    }
}

/// Experiment E2: Table 2 — standard-cell estimates vs place & route.
pub mod table2 {
    use maestro::estimator::standard_cell;
    use maestro::netlist::library_circuits;
    use maestro::prelude::*;

    /// One row of Table 2 (one module at one row count).
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Experiment number (1-based).
        pub experiment: usize,
        /// Module name.
        pub name: String,
        /// Row count.
        pub rows: u32,
        /// `# Devices`.
        pub devices: usize,
        /// `# External Ports`.
        pub ports: usize,
        /// Estimated module height.
        pub est_height: Lambda,
        /// Estimated module width.
        pub est_width: Lambda,
        /// `# Tracks Estimated`.
        pub tracks_estimated: u32,
        /// `# Tracks Real` from the channel router.
        pub tracks_real: u32,
        /// `Total Est. Area`.
        pub est_area: LambdaArea,
        /// `Real Area` from place & route.
        pub real_area: LambdaArea,
        /// `Est. Aspect Ratio`.
        pub est_aspect: AspectRatio,
        /// `Real Aspect Ratio`.
        pub real_aspect: AspectRatio,
    }

    impl Row {
        /// Signed overestimate fraction (positive = upper bound held).
        pub fn overestimate(&self) -> f64 {
            self.est_area.relative_error(self.real_area)
        }
    }

    /// The row counts swept per experiment: three for experiment 1, two
    /// for experiment 2, like the paper.
    pub const ROW_SWEEPS: [&[u32]; 2] = [&[2, 3, 4], &[4, 6]];

    /// Runs the Table 2 experiments.
    pub fn rows() -> Vec<Row> {
        let tech = builtin::nmos25();
        let mut out = Vec::new();
        for (i, (module, sweep)) in library_circuits::table2_suite()
            .into_iter()
            .zip(ROW_SWEEPS)
            .enumerate()
        {
            let stats = NetlistStats::resolve(&module, &tech, LayoutStyle::StandardCell)
                .expect("suite resolves");
            for &rows in sweep {
                let est = standard_cell::estimate_with_rows(&stats, &tech, rows);
                let placed = place(
                    &module,
                    &tech,
                    &PlaceParams {
                        rows,
                        ..Default::default()
                    },
                )
                .expect("suite places");
                let routed = route(&placed);
                out.push(Row {
                    experiment: i + 1,
                    name: module.name().to_owned(),
                    rows,
                    devices: stats.device_count(),
                    ports: stats.port_count(),
                    est_height: est.height,
                    est_width: est.width,
                    tracks_estimated: est.tracks,
                    tracks_real: routed.total_tracks(),
                    est_area: est.area,
                    real_area: routed.area(),
                    est_aspect: est.aspect_ratio,
                    real_aspect: routed.aspect_ratio(),
                });
            }
        }
        out
    }

    /// Formats the rows in the paper's layout.
    pub fn render(rows: &[Row]) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        s.push_str("Table 2: Standard-Cell Module Layout Area Estimates\n");
        s.push_str(
            "exp | module               | rows | dev | ports | est H | est W | trk(est) | trk(real) | est area | real area | over   | AR est | AR real\n",
        );
        for r in rows {
            let _ = writeln!(
                s,
                "{:>3} | {:<20} | {:>4} | {:>3} | {:>5} | {:>5} | {:>5} | {:>8} | {:>9} | {:>8} | {:>9} | {:>+5.0}% | {:>6} | {:>7}",
                r.experiment,
                r.name,
                r.rows,
                r.devices,
                r.ports,
                r.est_height.get(),
                r.est_width.get(),
                r.tracks_estimated,
                r.tracks_real,
                r.est_area.get(),
                r.real_area.get(),
                r.overestimate() * 100.0,
                r.est_aspect.to_string(),
                r.real_aspect.to_string(),
            );
        }
        s.push_str("(paper: overestimates of +42%..+70%, decreasing with more rows; upper bound from one-net-per-track)\n");
        s
    }
}

/// Experiment E3: Figure 1 — the end-to-end pipeline dataflow.
pub mod figure1 {
    use maestro::estimator::pipeline::Pipeline;
    use maestro::netlist::{generate, library_circuits};
    use maestro::prelude::*;

    /// Runs the Figure 1 dataflow and returns a textual trace plus the
    /// resulting floorplan.
    pub fn run() -> (String, maestro::floorplan::Floorplan) {
        let mut out = String::new();
        out.push_str("Figure 1: Structure of the Module Area Estimator\n");
        out.push_str("  [process DB] + [circuit schematics] -> estimators -> [results DB] -> floorplanner\n\n");

        let tech = builtin::nmos25();
        out.push_str(&format!("process database : {tech}\n"));

        let modules = [
            generate::ripple_adder(4),
            generate::counter(6),
            library_circuits::nmos_full_adder(),
            library_circuits::pass_chain(6),
            generate::mux_tree(3),
        ];
        let pipeline = Pipeline::new(tech);
        let db = pipeline.run_all(modules.iter()).expect("suite estimates");
        out.push_str(&format!("results database : {} module records\n", db.len()));
        for rec in db.records() {
            let style = match (&rec.standard_cell, &rec.full_custom) {
                (Some(_), None) => "standard-cell",
                (None, Some(_)) => "full-custom",
                _ => "both",
            };
            let area = rec.preferred_area().expect("estimated");
            out.push_str(&format!("  {:<24} [{style}] {area}\n", rec.module_name));
        }

        let blocks: Vec<Block> = db
            .records()
            .iter()
            .filter_map(|r| Block::from_record(r, 5))
            .collect();
        let plan = floorplan(&blocks, &PlanParams::default());
        out.push_str(&format!(
            "floorplanner     : chip {} × {} = {} (utilization {:.0}%)\n",
            plan.width(),
            plan.height(),
            plan.area(),
            plan.utilization() * 100.0
        ));
        (out, plan)
    }
}

/// Experiments E5–E8: the paper's future-work extensions and the
/// central-row verification.
pub mod extensions {
    use maestro::estimator::{feedthrough, multi_aspect, standard_cell, track_sharing};
    use maestro::floorplan::iterate::{converge, ModuleTruth};
    use maestro::netlist::{generate, library_circuits};
    use maestro::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// E8: Monte-Carlo vs analytic feed-through row profile. Returns a
    /// rendered table; every row reports the argmax of each method.
    pub fn central_row_experiment() -> String {
        let mut out = String::new();
        out.push_str("E8: central-row feed-through probability (paper §4.1 claim)\n");
        out.push_str("  n  |  D | analytic argmax | monte-carlo argmax | p(center)\n");
        let mut rng = StdRng::seed_from_u64(1988);
        for &(n, d) in &[(3u32, 2u32), (5, 2), (7, 3), (9, 5), (11, 8), (15, 12)] {
            let analytic = feedthrough::most_likely_row(n, d);
            let trials = 40_000;
            let mut counts = vec![0u32; n as usize];
            for _ in 0..trials {
                let rows: Vec<u32> = (0..d).map(|_| rng.gen_range(0..n)).collect();
                for i in 0..n {
                    if rows.iter().any(|&r| r < i) && rows.iter().any(|&r| r > i) {
                        counts[i as usize] += 1;
                    }
                }
            }
            let mc = counts
                .iter()
                .enumerate()
                .max_by_key(|&(_, c)| *c)
                .map(|(i, _)| i as u32 + 1)
                .expect("non-empty");
            let p_center = feedthrough::feedthrough_probability(n, d, n.div_ceil(2));
            out.push_str(&format!(
                "  {n:>2} | {d:>2} | {analytic:>15} | {mc:>18} | {p_center:.3}\n"
            ));
        }
        out.push_str(
            "  (both argmaxes sit at the central row for every n, D — the paper's claim)\n",
        );
        out
    }

    /// E6: the track-sharing correction against the routed truth.
    pub fn track_sharing_table() -> String {
        let tech = builtin::nmos25();
        let mut out = String::new();
        out.push_str("E6: track-sharing correction (paper §7 future work)\n");
        out.push_str(
            "  module               | rows | bound | shared | real | bound err | shared err\n",
        );
        for (module, sweep) in library_circuits::table2_suite()
            .into_iter()
            .zip(super::table2::ROW_SWEEPS)
        {
            let stats =
                NetlistStats::resolve(&module, &tech, LayoutStyle::StandardCell).expect("resolves");
            for &rows in sweep {
                let sh = track_sharing::estimate_with_sharing(&stats, &tech, rows);
                let placed = place(
                    &module,
                    &tech,
                    &PlaceParams {
                        rows,
                        ..Default::default()
                    },
                )
                .expect("places");
                let routed = route(&placed);
                let be = sh.upper_bound.area.relative_error(routed.area()) * 100.0;
                let se = sh.corrected.area.relative_error(routed.area()) * 100.0;
                out.push_str(&format!(
                    "  {:<20} | {rows:>4} | {:>5} | {:>6} | {:>4} | {be:>+8.0}% | {se:>+9.0}%\n",
                    module.name(),
                    sh.upper_bound.tracks,
                    sh.shared_tracks,
                    routed.total_tracks(),
                ));
            }
        }
        out
    }

    /// E7: multi-aspect candidates for the Table 2 modules.
    pub fn multi_aspect_table() -> String {
        let tech = builtin::nmos25();
        let mut out = String::new();
        out.push_str("E7: multiple aspect-ratio candidates (paper §7 future work)\n");
        for module in library_circuits::table2_suite() {
            let stats =
                NetlistStats::resolve(&module, &tech, LayoutStyle::StandardCell).expect("resolves");
            let cands = multi_aspect::sc_candidates(&stats, &tech, 5);
            out.push_str(&format!("  {}:\n", module.name()));
            for c in cands {
                out.push_str(&format!(
                    "    rows {:>2}: {:>5} × {:<5} area {:>9} aspect {}\n",
                    c.rows, c.width, c.height, c.area, c.aspect_ratio
                ));
            }
        }
        out
    }

    /// E11: wire-aware floorplanning with the results database's "global
    /// interconnections" (Figure 1): the connectivity-aware planner must
    /// shorten global wiring relative to area-only planning.
    pub fn wire_aware_floorplan() -> String {
        use maestro::estimator::pipeline::Pipeline;
        use maestro::floorplan::{floorplan_connected, ChipNetlist, ConnectedPlanParams};

        let tech = builtin::nmos25();
        let modules = [
            generate::ripple_adder(4),
            generate::counter(6),
            generate::shift_register(8),
            generate::decoder(3),
            generate::mux_tree(3),
            generate::counter(3),
        ];
        let pipeline = Pipeline::new(tech);
        let db = pipeline.run_all(modules.iter()).expect("estimates");
        let blocks: Vec<Block> = db
            .records()
            .iter()
            .filter_map(|r| Block::from_record(r, 5))
            .collect();
        // A datapath-style chain plus a control net fanning out.
        let mut netlist = ChipNetlist::new();
        for i in 0..blocks.len() as u32 - 1 {
            netlist.add_net([i, i + 1]);
        }
        netlist.add_net(0..blocks.len() as u32);

        let area_only = floorplan(&blocks, &PlanParams::default());
        let base_wl = netlist.wirelength(&area_only);
        let (plan, wl) = floorplan_connected(&blocks, &netlist, &ConnectedPlanParams::default());
        let mut out = String::new();
        out.push_str("E11: connectivity-aware floorplanning (Figure 1 global interconnections)\n");
        out.push_str(&format!(
            "  area-only plan : {} chip, global wirelength {}\n",
            area_only.area(),
            base_wl
        ));
        out.push_str(&format!(
            "  wire-aware plan: {} chip, global wirelength {}\n",
            plan.area(),
            wl
        ));
        out.push_str(&format!(
            "  wirelength change: {:+.0}%\n",
            (wl.as_f64() / base_wl.as_f64() - 1.0) * 100.0
        ));
        out
    }

    /// E10: estimator accuracy statistics over a population of seeded
    /// random modules — beyond the paper's five/two hand-picked
    /// circuits. Reports mean/min/max signed error for the full-custom
    /// estimator (vs synthesis), the sharing-corrected standard-cell
    /// estimator (vs place & route), and the wirelength predictor
    /// (vs placed HPWL).
    pub fn accuracy_sweep() -> String {
        use maestro::estimator::wirelength;
        use maestro::fullcustom::SynthesisParams;
        use maestro::netlist::generate::RandomLogicConfig;

        let tech = builtin::nmos25();
        let mut out = String::new();
        out.push_str("E10: accuracy statistics over random module populations\n");

        // Full-custom: 10 random transistor modules.
        let mut fc_errors = Vec::new();
        let mut fc_observations = Vec::new();
        for seed in 0..10u64 {
            let module = generate::random_nmos_logic(seed, 12 + (seed as usize % 5) * 4);
            let stats =
                NetlistStats::resolve(&module, &tech, LayoutStyle::FullCustom).expect("resolves");
            let est = full_custom::estimate(&stats, &tech);
            let real = synthesize(&module, &tech, &SynthesisParams::quick()).expect("synthesizes");
            fc_errors.push(est.total_exact.relative_error(real.area()));
            fc_observations.push((est.total_exact, real.area()));
        }
        let (mean, lo, hi) = summarize(&fc_errors);
        out.push_str(&format!(
            "  full-custom estimate vs synthesis    (10 modules): mean {mean:+.1}%, range {lo:+.1}%..{hi:+.1}%\n"
        ));
        // CHAMP-style empirical calibration (estimator::calibrate):
        // leave-one-out over the same population.
        {
            use maestro::estimator::calibrate::{Calibration, Observation};
            let obs: Vec<Observation> = fc_observations
                .iter()
                .map(|&(e, r)| Observation {
                    estimated: e,
                    real: r,
                })
                .collect();
            let mut raw_sum = 0.0;
            let mut cal_sum = 0.0;
            for i in 0..obs.len() {
                let train: Vec<Observation> = obs
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, o)| *o)
                    .collect();
                let held_out = [obs[i]];
                raw_sum += Calibration::identity().mean_abs_error(&held_out);
                cal_sum += Calibration::fit(&train).mean_abs_error(&held_out);
            }
            let n = obs.len() as f64;
            out.push_str(&format!(
                "  with leave-one-out calibration       (10 modules): mean |err| {:.1}% -> {:.1}%\n",
                raw_sum / n * 100.0,
                cal_sum / n * 100.0
            ));
        }

        // Standard-cell (sharing-corrected): 10 random gate modules.
        let mut sc_errors = Vec::new();
        let mut wl_ratios = Vec::new();
        for seed in 0..10u64 {
            let cfg = RandomLogicConfig {
                device_count: 24 + (seed as usize % 4) * 12,
                ..RandomLogicConfig::default()
            };
            let module = generate::random_logic(seed, &cfg);
            let stats =
                NetlistStats::resolve(&module, &tech, LayoutStyle::StandardCell).expect("resolves");
            let rows = 3u32;
            let corrected = track_sharing::estimate_with_sharing(&stats, &tech, rows).corrected;
            let placed = place(
                &module,
                &tech,
                &PlaceParams {
                    rows,
                    ..Default::default()
                },
            )
            .expect("places");
            let routed = route(&placed);
            sc_errors.push(corrected.area.relative_error(routed.area()));
            let wl = wirelength::estimate(&stats, &tech, rows);
            wl_ratios.push(wl.total().as_f64() / placed.hpwl().as_f64().max(1.0));
        }
        let (mean, lo, hi) = summarize(&sc_errors);
        out.push_str(&format!(
            "  corrected SC estimate vs place&route (10 modules): mean {mean:+.1}%, range {lo:+.1}%..{hi:+.1}%\n"
        ));
        let mean_r = wl_ratios.iter().sum::<f64>() / wl_ratios.len() as f64;
        let lo_r = wl_ratios.iter().cloned().fold(f64::MAX, f64::min);
        let hi_r = wl_ratios.iter().cloned().fold(f64::MIN, f64::max);
        out.push_str(&format!(
            "  predicted wirelength / placed HPWL   (10 modules): mean {mean_r:.2}x, range {lo_r:.2}x..{hi_r:.2}x\n"
        ));
        out
    }

    fn summarize(errors: &[f64]) -> (f64, f64, f64) {
        let mean = errors.iter().sum::<f64>() / errors.len() as f64 * 100.0;
        let lo = errors.iter().cloned().fold(f64::MAX, f64::min) * 100.0;
        let hi = errors.iter().cloned().fold(f64::MIN, f64::max) * 100.0;
        (mean, lo, hi)
    }

    /// E9: the multi-process claim (§3: "deals with different chip
    /// fabrication technologies … can easily be adjusted to cope with new
    /// chip fabrication processes"): the same netlists estimated and laid
    /// out under nMOS and CMOS, upper bound checked in both.
    pub fn cross_process_table() -> String {
        let mut out = String::new();
        out.push_str("E9: multi-process estimation (paper §3 requirement)\n");
        out.push_str("  module               | process | rows | est area | real area | over\n");
        for tech in [builtin::nmos25(), builtin::cmos_generic()] {
            for module in library_circuits::table2_suite() {
                let stats = NetlistStats::resolve(&module, &tech, LayoutStyle::StandardCell)
                    .expect("both libraries carry the cell set");
                let rows = 3u32;
                let est = standard_cell::estimate_with_rows(&stats, &tech, rows);
                let placed = place(
                    &module,
                    &tech,
                    &PlaceParams {
                        rows,
                        ..Default::default()
                    },
                )
                .expect("places");
                let routed = route(&placed);
                let over = est.area.relative_error(routed.area()) * 100.0;
                out.push_str(&format!(
                    "  {:<20} | {:<7} | {rows:>4} | {:>8} | {:>9} | {over:>+5.0}%\n",
                    module.name(),
                    if tech.name().contains("nmos") {
                        "nmos"
                    } else {
                        "cmos"
                    },
                    est.area.get(),
                    routed.area().get(),
                ));
            }
        }
        out.push_str("  (the upper-bound property holds under both processes)\n");
        out
    }

    /// E5: the floorplanning-iteration experiment; returns the rendered
    /// table plus (estimator iterations, naive iterations).
    pub fn iteration_experiment() -> (String, u32, u32) {
        let tech = builtin::nmos25();
        let modules = [
            generate::ripple_adder(4),
            generate::counter(6),
            generate::shift_register(8),
            generate::decoder(3),
            generate::mux_tree(3),
            generate::ripple_adder(2),
            generate::counter(3),
            generate::shift_register(4),
        ];
        let mut est_beliefs = Vec::new();
        let mut naive_beliefs = Vec::new();
        for module in &modules {
            let stats =
                NetlistStats::resolve(module, &tech, LayoutStyle::StandardCell).expect("resolves");
            let seed = standard_cell::estimate(&stats, &tech, &ScParams::default());
            let corrected =
                track_sharing::estimate_with_sharing(&stats, &tech, seed.rows).corrected;
            let placed = place(
                module,
                &tech,
                &PlaceParams {
                    rows: seed.rows,
                    ..Default::default()
                },
            )
            .expect("places");
            let routed = route(&placed);
            est_beliefs.push(ModuleTruth {
                name: module.name().to_owned(),
                estimated: corrected.area,
                true_width: routed.width(),
                true_height: routed.height(),
            });
            naive_beliefs.push(ModuleTruth {
                name: module.name().to_owned(),
                estimated: stats.total_device_area(),
                true_width: routed.width(),
                true_height: routed.height(),
            });
        }
        let est = converge(&est_beliefs, 0.40, &PlanParams::quick());
        let naive = converge(&naive_beliefs, 0.40, &PlanParams::quick());
        let mut out = String::new();
        out.push_str("E5: floorplanning-iteration reduction (paper §1/§7 claim)\n");
        out.push_str(&format!(
            "  estimator-seeded beliefs : {} floorplanning iterations\n",
            est.iterations
        ));
        out.push_str(&format!(
            "  naive (device-area-only) : {} floorplanning iterations\n",
            naive.iterations
        ));
        (out, est.iterations, naive.iterations)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn table1_has_five_experiments() {
        let rows = super::table1::rows();
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.real_area.get() > 0);
            assert!(r.total_exact.get() > 0);
        }
        let rendered = super::table1::render(&rows);
        assert!(rendered.contains("Table 1"));
    }

    #[test]
    fn table2_has_five_rows_over_two_experiments() {
        let rows = super::table2::rows();
        assert_eq!(rows.len(), 5); // 3 + 2 row counts
        for r in &rows {
            assert!(r.overestimate() > 0.0, "{} rows={}", r.name, r.rows);
        }
        let rendered = super::table2::render(&rows);
        assert!(rendered.contains("Table 2"));
    }

    #[test]
    fn table1_average_error_stays_in_band() {
        // The headline reproduction number: paper 12 %, ours ~11 %.
        let rows = super::table1::rows();
        let avg = rows.iter().map(|r| r.error_exact().abs()).sum::<f64>() / rows.len() as f64;
        assert!(avg < 0.25, "average |error| {:.1}% drifted", avg * 100.0);
        // The footnote module contributes zero wire area.
        let chain = rows.iter().find(|r| r.name.contains("pass_chain")).unwrap();
        assert_eq!(chain.wire_exact.get(), 0);
        assert_eq!(chain.total_exact, chain.device_area);
    }

    #[test]
    fn table2_estimates_decrease_with_rows_within_experiments() {
        let rows = super::table2::rows();
        for exp in [1usize, 2] {
            let areas: Vec<i64> = rows
                .iter()
                .filter(|r| r.experiment == exp)
                .map(|r| r.est_area.get())
                .collect();
            for w in areas.windows(2) {
                assert!(w[1] < w[0], "exp {exp}: {areas:?} not decreasing");
            }
        }
    }

    #[test]
    fn figure1_produces_a_floorplan() {
        let (trace, plan) = super::figure1::run();
        assert!(trace.contains("results database"));
        assert!(plan.utilization() > 0.4);
    }
}
