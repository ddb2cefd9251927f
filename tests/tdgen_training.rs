//! TDGEN acceptance properties (paper §V, Fig 8):
//!
//! (a) the piecewise degree-5 log-log interpolant is **exact at its
//!     knots** and keeps a bounded q-error between them, on real
//!     (skeleton, assignment) runtime curves from the simulator;
//! (b) **β-pruning is sound and complete**: every sampled or enumerated
//!     assignment stays within β switches, and `β = usize::MAX` recovers
//!     exactly the unpruned feasible set (cross-checked against an
//!     independent brute force over all `k^n` codes);
//! (c) both [`TrainingSource`] implementations are **deterministic**:
//!     the same seed reproduces a bit-identical [`TrainingSet`].

use robopt_ml::{q_error, simulator_training_set, SamplerConfig, TrainingSet, TrainingSource};
use robopt_plan::{SplitMix64, N_OPERATOR_KINDS};
use robopt_platforms::{PlatformId, PlatformRegistry, RuntimeSimulator};
use robopt_tdgen::{
    enumerate_assignments, log_knots, max_switches, sample_assignment, sample_skeleton,
    tdgen_training_set, JobSkeleton, PiecewisePoly, ShapeKind, TdgenConfig, TdgenGenerator,
};
use robopt_vector::FeatureLayout;

fn named_setup() -> (PlatformRegistry, FeatureLayout) {
    let registry = PlatformRegistry::named();
    let layout = FeatureLayout::new(registry.len(), N_OPERATOR_KINDS);
    (registry, layout)
}

/// Property (a): on noiseless simulator curves the fit reproduces every
/// knot to roundoff, and synthesized labels between knots stay within a
/// small q-error of direct simulation.
#[test]
fn interpolant_is_exact_at_knots_and_bounded_between_them() {
    let (registry, _) = named_setup();
    let sim = RuntimeSimulator::new(&registry, 42).with_noise(0.0);
    let mut rng = SplitMix64::new(0x07d9_ef17);
    let (lo, hi) = (1e4, 1e9);
    let knot_scales = log_knots(lo, hi, 11);
    let mut q_sum = 0.0;
    let mut probes = 0usize;
    let mut curves = 0usize;
    while curves < 12 {
        let shape = ShapeKind::ALL[rng.gen_range(ShapeKind::ALL.len())];
        let n_ops = shape.min_ops() + rng.gen_range(6);
        let skel = sample_skeleton(&mut rng, &registry, shape, n_ops);
        let Some(assign) = sample_assignment(&skel, &registry, 3, &mut rng, 64) else {
            continue;
        };
        let mut ln_xs = Vec::new();
        let mut ys = Vec::new();
        let mut secs = Vec::new();
        let mut finite = true;
        for &scale in &knot_scales {
            let s = sim.simulate_raw(&skel.instantiate(scale), &assign);
            if !s.is_finite() {
                finite = false;
                break;
            }
            ln_xs.push(scale.ln());
            ys.push(s.ln_1p());
            secs.push(s);
        }
        if !finite {
            continue;
        }
        let poly = PiecewisePoly::fit(&ln_xs, &ys);

        // Knot exactness: the Newton form must pass through its own data.
        for ((&x, &y), &s) in ln_xs.iter().zip(&ys).zip(&secs) {
            let at_knot = poly.eval(x);
            assert!(
                (at_knot - y).abs() <= 1e-9 * (1.0 + y.abs()),
                "curve {curves}: knot at ln-scale {x} drifted: {at_knot} vs {y}"
            );
            assert!(q_error(TrainingSet::label_to_seconds(at_knot), s) < 1.0 + 1e-6);
        }

        // Held-out scales: bounded q-error against direct simulation.
        for _ in 0..16 {
            let ln_s = ln_xs[0] + (ln_xs[ln_xs.len() - 1] - ln_xs[0]) * rng.next_f64();
            let predicted = TrainingSet::label_to_seconds(poly.eval(ln_s));
            let actual = sim.simulate_raw(&skel.instantiate(ln_s.exp()), &assign);
            let q = q_error(predicted, actual);
            assert!(
                q < 10.0,
                "curve {curves}: runaway interpolation q-error {q} at ln-scale {ln_s}"
            );
            q_sum += q;
            probes += 1;
        }
        curves += 1;
    }
    let q_mean = q_sum / probes as f64;
    assert!(
        q_mean < 1.25,
        "mean held-out q-error {q_mean} over {probes} probes is too loose"
    );
}

/// Independent brute force over all `k^n` platform codes: feasible means
/// every operator's kind is available on its platform and every edge
/// connects convertible platforms. Deliberately shares no code with
/// `enumerate_assignments`.
fn brute_force_feasible(skel: &JobSkeleton, registry: &PlatformRegistry) -> Vec<Vec<u8>> {
    let k = registry.len();
    let n = skel.n_ops();
    let mut out = Vec::new();
    for mut code in 0..(k as u64).pow(n as u32) {
        let mut assign = vec![0u8; n];
        for slot in assign.iter_mut() {
            *slot = (code % k as u64) as u8;
            code /= k as u64;
        }
        let kinds_ok = assign.iter().enumerate().all(|(op, &p)| {
            registry.is_available(skel.ops[op].kind, PlatformId::from_index(p as usize))
        });
        let edges_ok = skel.edges.iter().all(|&(u, v)| {
            registry.convertible(
                PlatformId::from_index(assign[u as usize] as usize),
                PlatformId::from_index(assign[v as usize] as usize),
            )
        });
        if kinds_ok && edges_ok {
            out.push(assign);
        }
    }
    out
}

/// Property (b): β-pruning never lets a >β assignment through, and
/// disabling it (`β = usize::MAX`) recovers the unpruned feasible set.
#[test]
fn beta_pruning_is_sound_and_max_beta_recovers_the_feasible_set() {
    let (registry, _) = named_setup();
    let mut rng = SplitMix64::new(0xbe7a);
    for (case, &shape) in ShapeKind::ALL.iter().enumerate() {
        // Keep n small: the cross-check enumerates all 5^n codes.
        let n_ops = shape.min_ops().max(5);
        let skel = sample_skeleton(&mut rng, &registry, shape, n_ops);

        let brute = brute_force_feasible(&skel, &registry);
        let unpruned = enumerate_assignments(&skel, &registry, usize::MAX, usize::MAX);
        assert_eq!(
            unpruned.len(),
            brute.len(),
            "case {case} ({}): beta = MAX must recover the feasible set",
            shape.name()
        );

        for beta in [0usize, 1, 2, 3] {
            let pruned = enumerate_assignments(&skel, &registry, beta, usize::MAX);
            for a in &pruned {
                assert!(
                    max_switches(&skel, a) <= beta,
                    "case {case}: enumerated assignment {a:?} exceeds beta = {beta}"
                );
            }
            // The DFS must agree with filtering the brute-force set.
            let expected = brute
                .iter()
                .filter(|a| max_switches(&skel, a) <= beta)
                .count();
            assert_eq!(pruned.len(), expected, "case {case} beta {beta}: count");

            for draw in 0..8 {
                if let Some(a) = sample_assignment(&skel, &registry, beta, &mut rng, 64) {
                    assert!(
                        max_switches(&skel, &a) <= beta,
                        "case {case} draw {draw}: sampled assignment exceeds beta = {beta}"
                    );
                }
            }
        }
    }
}

fn assert_bit_identical(a: &TrainingSet, b: &TrainingSet) {
    assert_eq!(a.layout, b.layout);
    assert_eq!(a.rows, b.rows, "feature matrices must match bit for bit");
    assert_eq!(a.labels, b.labels, "labels must match bit for bit");
    assert_eq!(a.seconds, b.seconds, "seconds must match bit for bit");
}

/// Property (c): both sources are pure functions of (config, call
/// sequence) — equal seeds reproduce bit-identical sets, and the split
/// `generate(n); generate(n)` stream equals one `generate(2n)` draw.
#[test]
fn equal_seeds_reproduce_bit_identical_training_sets() {
    let (registry, layout) = named_setup();

    let cfg = TdgenConfig::new()
        .with_seed(0x000d_5eed)
        .with_knots(6)
        .with_rows_per_curve(24)
        .with_ops_range(5, 8);
    let once = tdgen_training_set(&registry, &layout, &cfg, 120);
    let again = tdgen_training_set(&registry, &layout, &cfg, 120);
    assert_eq!(once.len(), 120);
    assert_bit_identical(&once, &again);

    let mut split = TdgenGenerator::new(&registry, layout, cfg.clone());
    let first = split.generate(60);
    let second = split.generate(60);
    assert_eq!(&once.labels[..60], &first.labels[..]);
    assert_eq!(&once.labels[60..], &second.labels[..]);

    let reseeded = tdgen_training_set(&registry, &layout, &cfg.with_seed(0x000d_5eee), 120);
    assert_ne!(once.labels, reseeded.labels, "the seed must matter");

    let sampler = SamplerConfig::new().with_seed(0x5eed).with_noise(0.05);
    let direct_a = simulator_training_set(&registry, &layout, &sampler, 80);
    let direct_b = simulator_training_set(&registry, &layout, &sampler, 80);
    assert_bit_identical(&direct_a, &direct_b);
}

/// The `TrainingSource` seam: a harness holding only `&mut dyn
/// TrainingSource` gets layout-consistent sets from either provenance.
#[test]
fn dyn_sources_agree_on_the_layout_contract() {
    let (registry, layout) = named_setup();
    let mut tdgen = TdgenGenerator::new(
        &registry,
        layout,
        TdgenConfig::new().with_knots(6).with_rows_per_curve(24),
    );
    let sim = RuntimeSimulator::new(&registry, 1);
    let mut direct = robopt_ml::BackendSource::new(&sim, &registry, layout, 1);
    let sources: [&mut dyn TrainingSource; 2] = [&mut tdgen, &mut direct];
    for source in sources {
        assert_eq!(source.layout(), layout);
        let set = source.generate(24);
        assert_eq!(set.len(), 24);
        assert_eq!(set.width(), layout.width);
        assert!(set.labels.iter().all(|l| l.is_finite()));
        for (&label, &seconds) in set.labels.iter().zip(&set.seconds) {
            assert!(
                (TrainingSet::label_to_seconds(label) - seconds).abs()
                    <= 1e-9 * (1.0 + seconds.abs()),
                "labels and seconds must stay inverse transforms"
            );
        }
    }
}
