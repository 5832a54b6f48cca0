//! Figs. 6, 7, 8 — mean speedup when sweeping one parameter.
//!
//! * Fig. 6: vector length 128→2048, STREAM and miniBUDE only (the two
//!   vectorised codes), restricted to configurations whose load bandwidth
//!   is at least 256 bytes "to ensure a fair comparison, given this is the
//!   minimum a result with vector length 2048 has".
//! * Fig. 7: ROB size 8→512, all applications.
//! * Fig. 8: FP/SVE physical registers 38→512, all applications.
//!
//! Where the paper bins its random dataset by the swept parameter, we use
//! the paired-sample equivalent: a set of random base configurations is
//! re-simulated at every sweep value, and the speedup is the ratio of
//! mean cycles against the sweep's reference value. Pairing removes the
//! between-configuration variance that binning averages out with volume
//! (we run thousands of simulations, not 180,000).

use crate::report;
use armdse_core::config::FEATURE_NAMES;
use armdse_core::dataset::Row;
use armdse_core::engine::Engine;
use armdse_core::{ArmdseError, DesignConfig, JobSpec};
use armdse_kernels::App;

/// ROB sizes swept in Fig. 7. The list includes the paper's knee, 152;
/// the measured knee is whichever listed value first reaches 90 % of
/// the peak (`headline`), so it can land only on a listed value.
pub(crate) const ROB_POINTS: [u32; 10] = [8, 16, 32, 64, 96, 128, 152, 256, 384, 512];

/// FP/SVE register counts swept in Fig. 8, from the minimum 38. The list
/// includes the paper's knee, 144; the measured knee, as for
/// `ROB_POINTS`, is a listed value.
pub(crate) const FP_POINTS: [u32; 9] = [38, 72, 104, 144, 176, 240, 320, 424, 512];

/// Vector lengths swept in Fig. 6.
pub(crate) const VL_POINTS: [u32; 5] = [128, 256, 512, 1024, 2048];

/// One speedup series.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSeries {
    /// Application name.
    pub app: String,
    /// (swept value, mean cycles, speedup vs reference).
    pub points: Vec<(u32, f64, f64)>,
}

/// A full sweep figure.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepFig {
    /// Figure label.
    pub label: String,
    /// Name of the swept parameter.
    pub param: String,
    /// One series per application.
    pub series: Vec<SweepSeries>,
}

/// Fig. 6: speedup vs vector length for the vectorised codes.
pub fn fig6(engine: &Engine, spec: &JobSpec) -> Result<SweepFig, ArmdseError> {
    let fig = (
        "Fig. 6",
        "Vector-Length",
        &[App::Stream, App::MiniBude][..],
        &VL_POINTS[..],
    );
    sweep(engine, &bases(spec)?, spec, fig, |c, v| {
        // The paper's Load-Bandwidth >= 256 filter (applied to stores
        // too, so every VL is admissible on every base).
        c.core.load_bandwidth = c.core.load_bandwidth.max(256);
        c.core.store_bandwidth = c.core.store_bandwidth.max(256);
        c.core.vector_length = v;
    })
}

/// Fig. 7: speedup vs ROB size for all applications.
pub fn fig7(engine: &Engine, spec: &JobSpec) -> Result<SweepFig, ArmdseError> {
    let fig = ("Fig. 7", "ROB-Size", &App::ALL[..], &ROB_POINTS[..]);
    sweep(engine, &bases(spec)?, spec, fig, |c, v| c.core.rob_size = v)
}

/// Fig. 8: speedup vs FP/SVE register count for all applications.
pub fn fig8(engine: &Engine, spec: &JobSpec) -> Result<SweepFig, ArmdseError> {
    let fig = ("Fig. 8", "FP-SVE-Registers", &App::ALL[..], &FP_POINTS[..]);
    sweep(engine, &bases(spec)?, spec, fig, |c, v| c.core.fp_regs = v)
}

/// The paired bases: the design points of `spec`'s sampled plan, its
/// pins applied.
fn bases(spec: &JobSpec) -> Result<Vec<DesignConfig>, ArmdseError> {
    spec.plan()?.design_points()
}

/// Figure `label` over feature `param`: each base re-simulated with
/// `apply(config, v)` at every swept value `v`, as one listed campaign;
/// per app, the mean validated cycles at each value (at least one).
fn sweep(
    engine: &Engine,
    bases: &[DesignConfig],
    spec: &JobSpec,
    (label, param, apps, points): (&str, &str, &[App], &[u32]),
    apply: impl Fn(&mut DesignConfig, u32),
) -> Result<SweepFig, ArmdseError> {
    let paired = |v| bases.iter().map(move |&b| (b, v));
    let list = points.iter().flat_map(|&v| paired(v)).map(|(mut c, v)| {
        apply(&mut c, v);
        c
    });
    let data = crate::campaign(engine, list.collect(), apps, spec)?;
    let feature = FEATURE_NAMES.iter().position(|&f| f == param);
    let feature = feature.expect("a sweep's parameter is one of the 30 features");
    let series = apps.iter().map(|&app| -> Result<_, ArmdseError> {
        let means = points.iter().enumerate().map(|(p, &v)| {
            let at_v = |r: &&Row| r.app == app && r.features[feature] == f64::from(v);
            let cycles: Vec<u64> = data.rows.iter().filter(at_v).map(|r| r.cycles).collect();
            if cycles.is_empty() {
                let slots = p * bases.len()..(p + 1) * bases.len();
                let app = app.name();
                return Err(ArmdseError::InvalidPlan(format!(
                    "{label}: no validated run of {app} at {param} {v} (list slots {slots:?})"
                )));
            }
            Ok((v, cycles.iter().sum::<u64>() as f64 / cycles.len() as f64))
        });
        let means = means.collect::<Result<Vec<(u32, f64)>, _>>()?;
        let reference = means[0].1;
        let points = means.iter().map(|&(v, c)| (v, c, reference / c)).collect();
        let app = app.name().to_string();
        Ok(SweepSeries { app, points })
    });
    let series = series.collect::<Result<_, _>>()?;
    Ok(SweepFig {
        label: label.into(),
        param: param.into(),
        series,
    })
}

impl SweepFig {
    /// Speedup of `app` at swept value `v`.
    pub fn speedup(&self, app: App, v: u32) -> Option<f64> {
        self.series
            .iter()
            .find(|s| s.app == app.name())?
            .points
            .iter()
            .find(|(x, _, _)| *x == v)
            .map(|(_, _, s)| *s)
    }

    /// The knee: smallest swept value whose speedup reaches `frac` of the
    /// maximum speedup for `app`.
    pub(crate) fn knee(&self, app: App, frac: f64) -> Option<u32> {
        let s = self.series.iter().find(|s| s.app == app.name())?;
        let max = s
            .points
            .iter()
            .map(|(_, _, sp)| *sp)
            .fold(f64::MIN, f64::max);
        s.points
            .iter()
            .find(|(_, _, sp)| *sp >= frac * max)
            .map(|(v, _, _)| *v)
    }

    /// Render the speedup curves as an ASCII line chart.
    pub fn to_chart(&self) -> String {
        let series: Vec<(String, Vec<(f64, f64)>)> = self
            .series
            .iter()
            .map(|s| {
                (
                    s.app.clone(),
                    s.points
                        .iter()
                        .map(|&(v, _, sp)| ((v as f64).log2(), sp))
                        .collect(),
                )
            })
            .collect();
        crate::plot::line_chart(
            &format!("{}: speedup vs log2({})", self.label, self.param),
            &series,
            60,
            14,
        )
    }

    /// The structured artifact (rows = swept values, columns = apps).
    pub fn table(&self) -> report::Table {
        let mut headers = vec![self.param.as_str()];
        let names: Vec<&str> = self.series.iter().map(|s| s.app.as_str()).collect();
        headers.extend(names.iter());
        let values: Vec<u32> = self.series[0].points.iter().map(|(v, _, _)| *v).collect();
        let rows: Vec<Vec<String>> = values
            .iter()
            .map(|&v| {
                let mut r = vec![v.to_string()];
                for s in &self.series {
                    let sp = s
                        .points
                        .iter()
                        .find(|(x, _, _)| *x == v)
                        .map(|(_, _, sp)| *sp)
                        .unwrap_or(f64::NAN);
                    r.push(format!("{sp:.2}x"));
                }
                r
            })
            .collect();
        report::Table::new(
            &format!(
                "{}: mean speedup vs {} (relative to {})",
                self.label, self.param, values[0]
            ),
            &headers,
            rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use armdse_kernels::WorkloadScale;

    fn quick() -> JobSpec {
        JobSpec {
            seed: 55,
            ..crate::test_support::quick(3)
        }
    }

    #[test]
    fn fig6_vectorised_codes_speed_up_strongly() {
        // Small scale: Tiny inputs have too few poses/elements for long
        // vectors to shrink the trip counts (the paper's effect needs a
        // non-degenerate problem size).
        let spec = JobSpec {
            scale: WorkloadScale::Small,
            ..quick()
        };
        let f = fig6(&Engine::idealized(), &spec).unwrap();
        for app in [App::Stream, App::MiniBude] {
            assert_eq!(f.speedup(app, 128), Some(1.0));
            let s = f.speedup(app, 2048).unwrap();
            assert!(s > 2.0, "{app:?} vl speedup only {s}");
        }
    }

    #[test]
    fn a_value_without_a_validated_run_names_the_app_and_slots() {
        // Validates, but wedges against the cycle limit at every ROB size.
        let mut wedged = DesignConfig::thunderx2();
        wedged.mem.l1_latency = 100_000;
        wedged.mem.l2_latency = 200_000;
        let fig = ("Fig. T", "ROB-Size", &[App::Stream][..], &[8, 16][..]);
        let e = Engine::idealized();
        let err = sweep(&e, &[wedged], &quick(), fig, |c, v| c.core.rob_size = v)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("STREAM at ROB-Size 8 (list slots 0..1)"),
            "{err}"
        );
    }

    #[test]
    fn fig7_rob_speedup_saturates() {
        let f = fig7(&Engine::idealized(), &quick()).unwrap();
        for app in App::ALL {
            let early = f.speedup(app, 8).unwrap();
            let knee = f.speedup(app, 152).unwrap();
            let late = f.speedup(app, 512).unwrap();
            assert_eq!(early, 1.0);
            assert!(knee >= 1.0);
            // Beyond the knee the curve flattens.
            assert!(late <= knee * 1.3, "{app:?}: {late} vs {knee}");
        }
    }

    #[test]
    fn bases_wrap_past_the_largest_seed() {
        let space = armdse_core::space::ParamSpace::paper();
        let spec = JobSpec {
            seed: u64::MAX - 1,
            ..quick()
        };
        let want: Vec<DesignConfig> = [u64::MAX - 1, u64::MAX, 0]
            .iter()
            .map(|&seed| space.sample_seeded(seed))
            .collect();
        assert_eq!(bases(&spec).unwrap(), want);
        let f = fig7(&Engine::idealized(), &spec).unwrap();
        for app in App::ALL {
            assert_eq!(f.speedup(app, 8), Some(1.0), "{app:?}");
        }
    }

    #[test]
    fn bases_honour_the_specs_pins() {
        let spec = JobSpec {
            configs: 8,
            pins: vec![("Vector-Length".into(), 128.0)],
            ..quick()
        };
        let bases = bases(&spec).unwrap();
        assert_eq!(bases.len(), 8);
        for b in &bases {
            assert_eq!(b.core.vector_length, 128, "{b:?}");
        }
    }

    #[test]
    fn fig8_fp_regs_monotoneish() {
        let f = fig8(&Engine::idealized(), &quick()).unwrap();
        for app in App::ALL {
            assert_eq!(f.speedup(app, 38), Some(1.0));
            let s = f.speedup(app, 512).unwrap();
            assert!(s >= 0.95, "{app:?} fp sweep regressed: {s}");
        }
    }

    #[test]
    fn table_renders() {
        let f = fig7(&Engine::idealized(), &quick()).unwrap();
        let t = f.table().to_text();
        assert!(t.contains("ROB-Size"));
        assert!(t.contains("152"));
    }

    #[test]
    fn knee_detection() {
        let f = SweepFig {
            label: "t".into(),
            param: "p".into(),
            series: vec![SweepSeries {
                app: "STREAM".into(),
                points: vec![(8, 100.0, 1.0), (16, 50.0, 2.0), (32, 48.0, 2.08)],
            }],
        };
        assert_eq!(f.knee(App::Stream, 0.9), Some(16));
    }
}

#[cfg(test)]
mod chart_tests {
    use super::*;

    #[test]
    fn chart_renders_series_legend() {
        let f = SweepFig {
            label: "Fig. T".into(),
            param: "ROB-Size".into(),
            series: vec![
                SweepSeries {
                    app: "STREAM".into(),
                    points: vec![(8, 100.0, 1.0), (64, 25.0, 4.0), (512, 20.0, 5.0)],
                },
                SweepSeries {
                    app: "TeaLeaf".into(),
                    points: vec![(8, 50.0, 1.0), (64, 30.0, 1.7), (512, 25.0, 2.0)],
                },
            ],
        };
        let c = f.to_chart();
        assert!(c.contains("a = STREAM"));
        assert!(c.contains("b = TeaLeaf"));
        assert!(c.contains("log2(ROB-Size)"));
    }
}
