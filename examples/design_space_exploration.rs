//! Design-space exploration: the paper's full workflow as a library user
//! would drive it — generate a simulated dataset, train the per-app
//! surrogate trees, inspect feature importances, then use the surrogate
//! for cheap what-if queries that would otherwise need fresh simulations.
//!
//! ```sh
//! cargo run --release --example design_space_exploration
//! ```

use armdse::core::space::ParamSpace;
use armdse::core::JobSpec;
use armdse::core::{DseDataset, Engine, SurrogateSuite};
use armdse::kernels::{App, WorkloadScale};
use armdse::mltree::Regressor;

fn main() {
    let space = ParamSpace::paper();

    // T1+T2: sample design points and simulate every app on each.
    // (The paper used 180,006 rows on 640 cores; scale to taste.)
    let opts = JobSpec {
        configs: 120,
        scale: WorkloadScale::Small,
        seed: 99,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        apps: App::ALL.to_vec(),
        ..JobSpec::default()
    };
    println!(
        "simulating {} configs x {} apps ...",
        opts.configs,
        opts.apps.len()
    );
    let plan = opts.plan().expect("valid plan");
    let engine = Engine::idealized();
    let mut data = DseDataset::default();
    engine
        .run(&plan, &mut data)
        .expect("in-memory sink cannot fail");
    println!("dataset: {} validated rows\n", data.rows.len());

    // T3: train one decision tree per application (80/20 split).
    let suite = SurrogateSuite::train(&data, 0.2, 7);
    for m in &suite.models {
        println!(
            "{:10}  test MAE={:>10.0} cycles  accuracy={:>6.2}%  top features: {}",
            m.app.name(),
            m.metrics.mae,
            m.metrics.accuracy_pct,
            m.importance
                .top(3)
                .iter()
                .map(|f| format!("{} ({:.1}%)", f.name, f.percent))
                .collect::<Vec<_>>()
                .join(", "),
        );
    }

    // Use the surrogate for what-if analysis: how do cycles respond to a
    // bigger ROB on an otherwise fixed design? A simulation costs tens of
    // milliseconds; a surrogate query costs microseconds.
    let model = suite.model(App::Stream).expect("stream model");
    let base = space.sample_seeded(5);
    println!("\nsurrogate what-if on STREAM (base config seed 5):");
    for rob in [8u32, 64, 152, 512] {
        let mut cfg = base;
        cfg.core.rob_size = rob;
        let predicted = model.tree.predict_one(&cfg.to_features());
        println!("  ROB {rob:>3} -> predicted {predicted:>10.0} cycles");
    }

    // The tree is directly interpretable: show the exact comparisons
    // behind one prediction (the paper's stated reason for choosing
    // decision trees).
    let names: Vec<String> = armdse::core::config::FEATURE_NAMES
        .iter()
        .map(|s| s.to_string())
        .collect();
    println!("\ndecision path for that prediction:");
    let mut probe = base;
    probe.core.rob_size = 152;
    print!("{}", model.tree.explain(&probe.to_features(), &names));

    // Find the best simulated configuration for a target app.
    let best = best_config(&data, App::MiniBude);
    println!(
        "\nfastest simulated MiniBude config: {} cycles (VL={}, ROB={}, FP regs={})",
        best.0, best.1.core.vector_length, best.1.core.rob_size, best.1.core.fp_regs
    );
}

fn best_config(data: &DseDataset, app: App) -> (u64, armdse::core::DesignConfig) {
    let row = data
        .for_app(app)
        .into_iter()
        .min_by_key(|r| r.cycles)
        .expect("rows exist");
    (row.cycles, DseDataset::config_of(row))
}
