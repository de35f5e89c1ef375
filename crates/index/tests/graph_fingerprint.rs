//! Pinned HNSW adjacency: construction must produce exactly this graph.
//!
//! Each case hashes every `neighbors(layer, node)` list (in stored order)
//! plus the entry point and compares it with a value recorded from a
//! known-good build. Any change to level sampling, descent, beam search
//! or neighbor selection that alters one edge fails here, so speed-ups of
//! the construction kernels are checked against a fixed graph rather than
//! against themselves.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use ansmet_index::{Hnsw, HnswParams, VisitedSet};
use ansmet_vecdata::{Dataset, SynthSpec};

/// FNV-1a over the graph: layer count, entry point, then each list's
/// length and ids, layer by layer.
fn fingerprint(hnsw: &Hnsw) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(hnsw.layer_count() as u64);
    eat(hnsw.entry_point() as u64);
    for layer in 0..hnsw.layer_count() {
        for node in 0..hnsw.len() {
            let nbrs = hnsw.neighbors(layer, node);
            eat(nbrs.len() as u64);
            for &nb in nbrs {
                eat(nb as u64);
            }
        }
    }
    h
}

fn params(m: usize) -> HnswParams {
    HnswParams {
        m,
        m_max0: 2 * m,
        ..HnswParams::quick()
    }
}

#[test]
fn u8_l2_graph_is_pinned() {
    let (data, _) = SynthSpec::sift().scaled(400, 1).generate();
    let hnsw = Hnsw::build(&data, params(8));
    assert_eq!(fingerprint(&hnsw), PINNED_U8_L2);
}

#[test]
fn f32_l2_graph_is_pinned() {
    let (data, _) = SynthSpec::deep().scaled(400, 2).generate();
    let hnsw = Hnsw::build(&data, HnswParams::quick());
    assert_eq!(fingerprint(&hnsw), PINNED_F32_L2);
}

#[test]
fn ip_graph_is_pinned() {
    let (data, _) = SynthSpec::glove().scaled(400, 3).generate();
    let hnsw = Hnsw::build(&data, params(6));
    assert_eq!(fingerprint(&hnsw), PINNED_IP);
}

/// The incremental paths share the kernels: stream the tail of a SIFT
/// shape in with `insert_point`, then `unlink` a few nodes.
#[test]
fn streamed_and_unlinked_graph_is_pinned() {
    let (full, _) = SynthSpec::sift().scaled(360, 4).generate();
    let p = params(8);
    let values: Vec<f32> = (0..300).flat_map(|i| full.vector(i).to_vec()).collect();
    let mut data = Dataset::from_values(
        full.name().to_string(),
        full.dtype(),
        full.metric(),
        full.dim(),
        values,
    );
    let mut hnsw = Hnsw::build(&data, p.clone());
    let mut rng = SmallRng::seed_from_u64(7);
    let mut visited = VisitedSet::new(data.len());
    for i in 300..full.len() {
        data.push_vector(full.vector(i));
        hnsw.insert_point(&data, p.sample_level(&mut rng), &mut visited);
    }
    let mut alive = vec![true; data.len()];
    for victim in [hnsw.entry_point(), 17, 250, 333] {
        alive[victim] = false;
        hnsw.unlink(&data, victim, &alive);
    }
    assert_eq!(fingerprint(&hnsw), PINNED_STREAMED);
}

const PINNED_U8_L2: u64 = 0x5c2a_1ee5_938e_d7b0;
const PINNED_F32_L2: u64 = 0x73f1_a083_cba2_c5f8;
const PINNED_IP: u64 = 0xa14e_536f_34cc_b63a;
const PINNED_STREAMED: u64 = 0x7d72_db22_52cc_dc57;
