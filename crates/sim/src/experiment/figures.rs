//! Figure experiments (Figs. 1, 3, 6–12 plus the §5.3 load-balance
//! numbers).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ansmet_core::analysis::{et_frequency_profile, normalized_prefix_entropy_profile};
use ansmet_core::sampling::{kl_divergence, SamplingConfig, SamplingProfile};

/// Smooth a termination histogram with a small binomial kernel so the KL
/// divergence measures distribution *shape* rather than exact-bucket
/// overlap (sampled and true positions differ by a bit or two).
fn smooth(h: &[f64]) -> Vec<f64> {
    let mut out = h.to_vec();
    for _ in 0..2 {
        let prev = out.clone();
        for i in 0..out.len() {
            let l = if i > 0 { prev[i - 1] } else { prev[i] };
            let r = if i + 1 < prev.len() {
                prev[i + 1]
            } else {
                prev[i]
            };
            out[i] = 0.25 * l + 0.5 * prev[i] + 0.25 * r;
        }
    }
    out
}
use ansmet_ndp::PartitionScheme;
use ansmet_vecdata::SynthSpec;

use crate::design::Design;
use crate::energy::SystemEnergyModel;
use crate::experiment::{Scale, Suite};
use crate::report::{pct, speedup, Table};
use crate::timing::run_design;
use crate::workload::{IndexKind, Workload};
use crate::SystemConfig;

/// Fig. 1 — CPU time breakdown of IVF and HNSW on SIFT and GIST:
/// index+sort vs. distance comparison (split into accepted / rejected).
pub fn fig1(suite: &Suite) -> String {
    let mut t = Table::new(
        "Fig.1: CPU-Base performance breakdown",
        &[
            "workload",
            "index+sort",
            "dist (accepted)",
            "dist (rejected)",
        ],
    );
    let (scale, cfg) = (suite.scale, suite.config());
    for (kind, label) in [(IndexKind::Hnsw, "HNSW"), (IndexKind::Ivf, "IVF")] {
        for spec in [scale.spec(SynthSpec::sift()), scale.spec(SynthSpec::gist())] {
            let wl = suite.workload(&spec, 10, None, kind);
            let r = suite.replay(Design::CpuBase, &wl, &cfg);
            let dist = r.breakdown.dist_comp as f64;
            let other = (r.total_cycles - r.breakdown.dist_comp) as f64;
            let total = r.total_cycles as f64;
            // Attribute distance time by the line split.
            let acc_frac = r.effectual_lines as f64 / r.total_lines().max(1) as f64;
            t.row(vec![
                format!("{label}-{}", wl.name),
                pct(other / total),
                pct(dist * acc_frac / total),
                pct(dist * (1.0 - acc_frac) / total),
            ]);
        }
    }
    t.render()
}

/// Fig. 3 — prefix entropy and early-termination frequency per prefix
/// bit length, on GIST / DEEP / BigANN / SPACEV.
pub fn fig3(scale: Scale) -> String {
    let mut out = String::new();
    for base in [
        SynthSpec::gist(),
        SynthSpec::deep(),
        SynthSpec::bigann(),
        SynthSpec::spacev(),
    ] {
        let spec = scale.spec(base);
        let (data, _) = spec.generate();
        let profile = SamplingProfile::build(
            &data,
            &SamplingConfig::default().with_samples(100.min(data.len() / 2)),
        );
        let entropy = normalized_prefix_entropy_profile(&data, &profile.sample_ids);
        let queries: Vec<Vec<f32>> = profile
            .sample_ids
            .iter()
            .take(20)
            .map(|&i| data.vector(i).to_vec())
            .collect();
        let ids: Vec<usize> = profile
            .sample_ids
            .iter()
            .skip(20)
            .take(40)
            .copied()
            .collect();
        let freq = et_frequency_profile(&data, &ids, &queries, profile.threshold);
        let mut t = Table::new(
            format!("Fig.3: {} prefix profile", data.name()),
            &["prefix bits", "norm. entropy", "ET frequency"],
        );
        let bits = data.dtype().bits() as usize;
        let stride = if bits > 16 { 2 } else { 1 };
        for p in (1..=bits).step_by(stride) {
            t.row(vec![
                p.to_string(),
                format!("{:.3}", entropy[p - 1]),
                format!("{:.3}", freq[p - 1]),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Fig. 6 — speedups of all nine designs over CPU-Base, for each dataset
/// and k ∈ {1, 5, 10} (k = 10 only at quick scale).
pub fn fig6(suite: &Suite) -> String {
    let ks: &[usize] = match suite.scale {
        Scale::Quick => &[10],
        Scale::Full => &[1, 5, 10],
    };
    let cfg = suite.config();
    let mut out = String::new();
    for &k in ks {
        let mut t = Table::new(
            format!("Fig.6: speedup over CPU-Base (k = {k})"),
            &[
                "dataset",
                "CPU-ET",
                "CPU-ETOpt",
                "NDP-Base",
                "NDP-DimET",
                "NDP-BitET",
                "NDP-ET",
                "NDP-ET+Dual",
                "NDP-ETOpt",
            ],
        );
        let mut geo: Vec<f64> = vec![1.0; 8];
        let mut n = 0usize;
        for spec in suite.scale.datasets() {
            let wl = suite.workload(&spec, k, None, IndexKind::Hnsw);
            let base = suite.replay(Design::CpuBase, &wl, &cfg).total_cycles as f64;
            let mut row = vec![wl.name.clone()];
            for (i, d) in Design::all().iter().skip(1).enumerate() {
                let r = suite.replay(*d, &wl, &cfg);
                let s = base / r.total_cycles as f64;
                geo[i] *= s;
                row.push(speedup(s));
            }
            n += 1;
            t.row(row);
        }
        let mut row = vec!["geomean".to_string()];
        for g in geo {
            row.push(speedup(g.powf(1.0 / n.max(1) as f64)));
        }
        t.row(row);
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Fig. 7 — system energy of the six Fig. 7 designs, normalized to
/// CPU-Base.
pub fn fig7(suite: &Suite) -> String {
    let cfg = suite.config();
    let model = SystemEnergyModel::default();
    let designs = [
        Design::CpuBase,
        Design::CpuEtOpt,
        Design::NdpBase,
        Design::NdpDimEt,
        Design::NdpBitEt,
        Design::NdpEtOpt,
    ];
    let mut t = Table::new(
        "Fig.7: system energy normalized to CPU-Base",
        &[
            "dataset",
            "CPU-Base",
            "CPU-ETOpt",
            "NDP-Base",
            "NDP-DimET",
            "NDP-BitET",
            "NDP-ETOpt",
        ],
    );
    for spec in suite.scale.datasets() {
        let wl = suite.workload(&spec, 10, None, IndexKind::Hnsw);
        let base = model
            .compute(&suite.replay(Design::CpuBase, &wl, &cfg), &cfg)
            .total_nj();
        let mut row = vec![wl.name.clone()];
        for d in designs {
            let e = model.compute(&suite.replay(d, &wl, &cfg), &cfg).total_nj();
            row.push(format!("{:.3}", e / base));
        }
        t.row(row);
    }
    t.render()
}

/// Fig. 8 — recall@10 vs. QPS for SIFT and GIST under CPU-Base,
/// NDP-Base, and NDP-ETOpt, sweeping the result-queue size k′.
pub fn fig8(suite: &Suite) -> String {
    let cfg = suite.config();
    let mut out = String::new();
    for base_spec in [SynthSpec::sift(), SynthSpec::gist()] {
        let spec = suite.scale.spec(base_spec);
        let mut wl = (*suite.workload(&spec, 10, Some(10), IndexKind::Hnsw)).clone();
        let mut t = Table::new(
            format!("Fig.8: recall vs QPS — {}", wl.name),
            &[
                "ef (k')",
                "recall@10",
                "CPU-Base QPS",
                "NDP-Base QPS",
                "NDP-ETOpt QPS",
            ],
        );
        for ef in [10usize, 20, 40, 80, 160] {
            // retrace is deterministic, so the prepared ef=10 traces are
            // already exactly what retrace(10) would rebuild.
            if wl.ef != ef {
                wl.retrace(ef);
            }
            let mut row = vec![ef.to_string(), format!("{:.3}", wl.recall)];
            for d in [Design::CpuBase, Design::NdpBase, Design::NdpEtOpt] {
                let r = run_design(d, &wl, &cfg);
                row.push(format!("{:.0}", r.qps(cfg.dram.clock_mhz)));
            }
            t.row(row);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Fig. 9 — per-query latency breakdown on SIFT: CPU-Base, NDP-Base,
/// NDP-ETOpt with conventional 100 ns polling, and with adaptive polling.
/// Normalized to NDP-Base.
pub fn fig9(suite: &Suite) -> String {
    let spec = suite.scale.spec(SynthSpec::sift());
    let wl = suite.workload(&spec, 10, None, IndexKind::Hnsw);
    let runs = [
        ("CPU-Base", Design::CpuBase, suite.config()),
        ("NDP-Base", Design::NdpBase, suite.config()),
        (
            "NDP-ETOpt+ConvPoll",
            Design::NdpEtOpt,
            suite.config().with_conventional_polling(),
        ),
        ("NDP-ETOpt+AdaptPoll", Design::NdpEtOpt, suite.config()),
    ];
    let norm = suite
        .replay(Design::NdpBase, &wl, &suite.config())
        .total_cycles as f64;
    let mut t = Table::new(
        "Fig.9: latency breakdown (normalized to NDP-Base)",
        &[
            "design",
            "traversal",
            "offload",
            "dist comp",
            "result collect",
            "total",
        ],
    );
    for (label, d, cfg) in runs {
        let r = suite.replay(d, &wl, &cfg);
        let b = r.breakdown;
        t.row(vec![
            label.to_string(),
            format!("{:.3}", b.traversal as f64 / norm),
            format!("{:.3}", b.offload as f64 / norm),
            format!("{:.3}", b.dist_comp as f64 / norm),
            format!("{:.3}", b.result_collect as f64 / norm),
            format!("{:.3}", r.total_cycles as f64 / norm),
        ]);
    }
    t.render()
}

/// Fig. 10 — access traffic split into effectual and ineffectual fetches
/// for the six NDP designs, normalized to NDP-Base.
pub fn fig10(suite: &Suite) -> String {
    let cfg = suite.config();
    let mut t = Table::new(
        "Fig.10: normalized fetched lines (effectual + ineffectual)",
        &[
            "dataset",
            "design",
            "effectual",
            "ineffectual",
            "utilization",
        ],
    );
    for spec in suite.scale.datasets() {
        let wl = suite.workload(&spec, 10, None, IndexKind::Hnsw);
        let base = suite.replay(Design::NdpBase, &wl, &cfg).total_lines() as f64;
        for d in Design::ndp_designs() {
            let r = suite.replay(d, &wl, &cfg);
            t.row(vec![
                wl.name.clone(),
                d.label().to_string(),
                format!("{:.3}", r.effectual_lines as f64 / base),
                format!(
                    "{:.3}",
                    (r.ineffectual_lines + r.backup_lines) as f64 / base
                ),
                pct(r.fetch_utilization()),
            ]);
        }
    }
    t.render()
}

/// Fig. 11 — KL divergence between the sampled early-termination
/// distribution and the true one, sweeping the sample count and the
/// threshold percentile (DEEP dataset).
pub fn fig11(suite: &Suite) -> String {
    let spec = suite.scale.spec(SynthSpec::deep());
    let wl = suite.workload(&spec, 10, None, IndexKind::Hnsw);
    let data = &wl.data;
    // "True" distribution: the early-termination positions real queries
    // produce on the full dataset, under the thresholds the search
    // actually carried at each comparison (from the functional traces).
    let bits = data.dtype().bits() as usize;
    let mut truth = vec![0.0f64; bits];
    let mut mass = 0.0;
    let mut probes = 0usize;
    'outer: for (qi, t) in wl.traces.iter().enumerate() {
        for e in t.hops.iter().flat_map(|h| &h.evals) {
            if !e.threshold.is_finite() {
                continue;
            }
            probes += 1;
            if probes > 2000 {
                break 'outer;
            }
            if let Some(p) = ansmet_core::analysis::first_termination_position(
                data,
                e.id,
                &wl.queries[qi],
                e.threshold,
            ) {
                let idx = (p as usize).clamp(1, bits) - 1;
                truth[idx] += 1.0;
                mass += 1.0;
            }
        }
    }
    if mass > 0.0 {
        for v in truth.iter_mut() {
            *v /= mass;
        }
    }

    let mut out = String::new();
    let mut t = Table::new(
        "Fig.11a: KL divergence vs number of sampled vectors (thr = 10%)",
        &["#samples", "KL divergence"],
    );
    for n in [5usize, 10, 50, 100] {
        let prof = SamplingProfile::build(
            data,
            &SamplingConfig::default().with_samples(n.min(data.len() / 2)),
        );
        t.row(vec![
            n.to_string(),
            format!(
                "{:.4}",
                kl_divergence(&smooth(&truth), &smooth(&prof.et_histogram))
            ),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    let mut t = Table::new(
        "Fig.11b: KL divergence vs threshold percentile (100 samples)",
        &["percentile", "KL divergence"],
    );
    for p in [0.02, 0.05, 0.10, 0.20, 0.50] {
        let prof = SamplingProfile::build(
            data,
            &SamplingConfig::default()
                .with_samples(100.min(data.len() / 2))
                .with_percentile(p),
        );
        t.row(vec![
            format!("{:.0}%", p * 100.0),
            format!(
                "{:.4}",
                kl_divergence(&smooth(&truth), &smooth(&prof.et_histogram))
            ),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Fig. 12 — vector-data partitioning sweep on GIST: Vertical, Hybrid
/// 256 B / 512 B / 1 kB / 2 kB, Horizontal. Normalized to Hybrid 1 kB.
pub fn fig12(suite: &Suite) -> String {
    let spec = suite.scale.spec(SynthSpec::gist());
    let wl = suite.workload(&spec, 10, None, IndexKind::Hnsw);
    let schemes = [
        ("Vertical", PartitionScheme::Vertical),
        ("Hybrid 256B", PartitionScheme::Hybrid { subvec_bytes: 256 }),
        ("Hybrid 512B", PartitionScheme::Hybrid { subvec_bytes: 512 }),
        ("Hybrid 1kB", PartitionScheme::Hybrid { subvec_bytes: 1024 }),
        ("Hybrid 2kB", PartitionScheme::Hybrid { subvec_bytes: 2048 }),
        ("Horizontal", PartitionScheme::Horizontal),
    ];
    let base = suite.replay(
        Design::NdpEtOpt,
        &wl,
        &suite
            .config()
            .with_partition(PartitionScheme::Hybrid { subvec_bytes: 1024 }),
    );
    let (norm_cycles, norm_lines) = (base.total_cycles as f64, base.total_lines() as f64);
    let mut t = Table::new(
        "Fig.12: NDP-ETOpt by partitioning (GIST, norm. to Hybrid 1kB)",
        &[
            "scheme",
            "single-query latency perf",
            "throughput perf (1/lines)",
        ],
    );
    for (label, scheme) in schemes {
        let r = suite.replay(
            Design::NdpEtOpt,
            &wl,
            &suite.config().with_partition(scheme),
        );
        t.row(vec![
            label.to_string(),
            format!("{:.3}", norm_cycles / r.total_cycles as f64),
            format!("{:.3}", norm_lines / r.total_lines() as f64),
        ]);
    }
    t.render()
}

/// §5.3 — load-imbalance ratio with and without hot-vector replication,
/// with uniform and zipf-skewed query mixes (GIST).
pub fn loadbal(suite: &Suite) -> String {
    let spec = suite.scale.spec(SynthSpec::gist());
    let mut wl = (*suite.workload(&spec, 10, None, IndexKind::Hnsw)).clone();
    let mut t = Table::new(
        "§5.3: rank load imbalance (max / average)",
        &["query mix", "no replication", "with replication"],
    );
    let imbalance = |wl: &Workload, replicate: bool| -> f64 {
        let cfg = SystemConfig {
            replicate_hot: replicate,
            ..suite.config()
        };
        let r = run_design(Design::NdpEtOpt, wl, &cfg);
        let max = *r.rank_loads.iter().max().unwrap_or(&0) as f64;
        let avg = r.rank_loads.iter().sum::<u64>() as f64 / r.rank_loads.len().max(1) as f64;
        if avg == 0.0 {
            1.0
        } else {
            max / avg
        }
    };
    t.row(vec![
        "uniform".into(),
        format!("{:.2}x", imbalance(&wl, false)),
        format!("{:.2}x", imbalance(&wl, true)),
    ]);

    // Zipf(α = 2) skew: repeat a few queries heavily.
    let mut rng = SmallRng::seed_from_u64(0x21BF);
    let base_queries = wl.queries.clone();
    let mut skewed = Vec::with_capacity(base_queries.len());
    for _ in 0..base_queries.len() {
        // Approximate zipf by inverse-power sampling.
        let u: f64 = rng.gen_range(0.0..1.0f64);
        let idx = ((base_queries.len() as f64).powf(u) as usize - 1).min(base_queries.len() - 1);
        skewed.push(base_queries[idx].clone());
    }
    wl.queries = skewed;
    wl.retrace(wl.ef);
    t.row(vec![
        "zipf (a=2.0)".into(),
        format!("{:.2}x", imbalance(&wl, false)),
        format!("{:.2}x", imbalance(&wl, true)),
    ]);
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_runs_quick() {
        let s = fig9(&Suite::new(Scale::Quick, 1));
        assert!(s.contains("NDP-ETOpt+AdaptPoll"));
        assert!(s.contains("CPU-Base"));
    }

    #[test]
    fn fig3_has_all_four_datasets() {
        let s = fig3(Scale::Quick);
        for name in ["GIST", "DEEP", "BigANN", "SPACEV"] {
            assert!(s.contains(name), "{name} missing");
        }
    }
}
