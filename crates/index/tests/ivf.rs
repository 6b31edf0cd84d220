//! IVF index behavior with its k-means coarse quantizer.

use neutraj_cluster::{KMeans, KMeansParams};
use neutraj_index::IvfIndex;
use neutraj_trajectory::rng::splitmix64;

/// Deterministic clustered rows: `blobs` centers, `per` rows each.
fn blob_rows(blobs: usize, per: usize, dim: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    let mut next = move || splitmix64(&mut state);
    let centers: Vec<f64> = (0..blobs * dim).map(|_| (next() % 500) as f64).collect();
    let mut data = Vec::with_capacity(blobs * per * dim);
    for b in 0..blobs {
        for _ in 0..per {
            for d in 0..dim {
                data.push(centers[b * dim + d] + (next() % 100) as f64 / 100.0);
            }
        }
    }
    data
}

fn ivf_over(data: &[f64], dim: usize, nlists: usize) -> IvfIndex {
    let q = KMeans::fit(
        data,
        dim,
        &KMeansParams {
            k: nlists,
            ..Default::default()
        },
    );
    IvfIndex::build(q, data)
}

#[test]
fn lists_partition_the_corpus() {
    let dim = 4;
    let data = blob_rows(6, 30, dim, 42);
    let ivf = ivf_over(&data, dim, 6);
    assert_eq!(ivf.len(), 180);
    let mut all: Vec<u32> = (0..ivf.nlists())
        .flat_map(|j| ivf.list(j).to_vec())
        .collect();
    all.sort_unstable();
    assert_eq!(all, (0..180u32).collect::<Vec<_>>());
}

#[test]
fn probing_all_lists_yields_every_id() {
    let dim = 3;
    let data = blob_rows(4, 25, dim, 7);
    let ivf = ivf_over(&data, dim, 4);
    let mut out = Vec::new();
    let probed = ivf.candidates_into(&data[..dim], ivf.nlists(), &mut out);
    assert_eq!(probed, ivf.nlists());
    let mut sorted = out.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..100u32).collect::<Vec<_>>());
    // nprobe beyond nlists clamps.
    let probed = ivf.candidates_into(&data[..dim], 999, &mut out);
    assert_eq!(probed, ivf.nlists());
}

#[test]
fn probe_order_is_nearest_first_and_finds_the_home_cell() {
    let dim = 2;
    let data = blob_rows(5, 40, dim, 13);
    let ivf = ivf_over(&data, dim, 5);
    // Probing one list for a stored row must surface that row.
    for i in [0usize, 57, 140, 199] {
        let q = &data[i * dim..(i + 1) * dim];
        let mut out = Vec::new();
        let probed = ivf.candidates_into(q, 1, &mut out);
        assert_eq!(probed, 1);
        assert!(out.contains(&(i as u32)), "row {i} missing from home cell");
    }
}

#[test]
fn incremental_insert_matches_bulk_rebuild() {
    let dim = 5;
    let data = blob_rows(4, 30, dim, 99);
    let n = data.len() / dim;
    let cut = n / 2;
    // Quantizer fitted on the first half; index grown over it by
    // inserting the rest one by one.
    let q = KMeans::fit(
        &data[..cut * dim],
        dim,
        &KMeansParams {
            k: 4,
            ..Default::default()
        },
    );
    let mut grown = IvfIndex::build(q.clone(), &data[..cut * dim]);
    for i in cut..n {
        let id = grown.insert(&data[i * dim..(i + 1) * dim]);
        assert_eq!(id, i);
    }
    // Same quantizer, bulk assignment over everything.
    let rebuilt = IvfIndex::build(q, &data);
    assert_eq!(grown, rebuilt);
}

#[test]
fn codec_roundtrips_exactly() {
    let dim = 3;
    let data = blob_rows(5, 20, dim, 5);
    let ivf = ivf_over(&data, dim, 5);
    let bytes = ivf.to_bytes();
    let back = IvfIndex::from_bytes(&bytes).expect("decode");
    assert_eq!(ivf, back);
}

#[test]
fn codec_rejects_corruption() {
    let dim = 2;
    let data = blob_rows(3, 15, dim, 1);
    let ivf = ivf_over(&data, dim, 3);
    let good = ivf.to_bytes();
    let decode = IvfIndex::from_bytes;

    // Bad magic.
    let mut bad = good.clone();
    bad[0] ^= 0xff;
    assert!(decode(&bad).is_err());

    // Truncation at every prefix short of the full section.
    for cut in [0, 7, 8, 20, good.len() / 2, good.len() - 1] {
        assert!(decode(&good[..cut]).is_err(), "cut {cut}");
    }

    // Trailing garbage.
    let mut long = good.clone();
    long.push(0);
    assert!(decode(&long).is_err());

    // An out-of-range id (last 4 bytes of some list entry).
    let mut bad = good.clone();
    let tail = bad.len() - 4;
    bad[tail..].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(decode(&bad).is_err());

    // Non-finite centroid.
    let mut bad = good;
    bad[8 + 24..8 + 32].copy_from_slice(&f64::NAN.to_le_bytes());
    assert!(decode(&bad).is_err());
}

#[test]
fn empty_corpus_insert_only_index_works() {
    // An index can be built from a fitted quantizer with no rows yet
    // (the rebuild-then-refill path).
    let q = KMeans::from_centroids(2, vec![0.0, 0.0, 100.0, 100.0]);
    let mut ivf = IvfIndex::from_parts(q, vec![Vec::new(), Vec::new()]);
    assert!(ivf.is_empty());
    assert_eq!(ivf.insert(&[1.0, 1.0]), 0);
    assert_eq!(ivf.insert(&[99.0, 99.0]), 1);
    assert_eq!(ivf.list(0), &[0]);
    assert_eq!(ivf.list(1), &[1]);
    let back = IvfIndex::from_bytes(&ivf.to_bytes()).expect("decode");
    assert_eq!(ivf, back);
}
