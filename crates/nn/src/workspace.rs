//! Reusable scratch buffers for the RNN forward/backward hot paths
//! (the lockstep step's packed weight panels among them), and the one
//! lockstep loop every forward runs — training and inference alike.
//!
//! Every cell used to allocate a handful of `vec![0.0; d]` temporaries per
//! timestep (and per backward step). A [`Workspace`] owns those buffers
//! once; the two entry points of [`crate::LstmCell`], [`crate::GruCell`]
//! and [`crate::SamLstmCell`] (`forward_batch`, `backward`) reuse them
//! across steps and across batches, so steady-state training performs
//! zero per-timestep heap allocations outside the (exactly-sized,
//! once-per-sequence) BPTT caches.

/// Scratch buffers shared by all RNN cells.
///
/// A workspace is plain reusable memory: it carries no results between
/// calls and any cell entry point may be called with any (possibly
/// previously used) workspace. Each worker thread owns one.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// `dh` (backward).
    pub(crate) h: Vec<f64>,
    /// `dc` (backward).
    pub(crate) c: Vec<f64>,
    /// Gradient of the concatenation (`2d`, SAM).
    pub(crate) dcat: Vec<f64>,
    /// Small `d`-sized scratch (SAM write weights, LSTM `tanh c`, GRU
    /// `dh` columns…).
    pub(crate) t1: Vec<f64>,
    /// Small `d`-sized scratch.
    pub(crate) t2: Vec<f64>,
    /// Small `d`-sized scratch.
    pub(crate) t3: Vec<f64>,
    /// Small `d`-sized scratch.
    pub(crate) t4: Vec<f64>,
    /// Attention-window scratch (unrecorded attention weights, `d_attn`;
    /// size `K ≤ (2w+1)²`).
    pub(crate) win: Vec<f64>,
    /// Attention-window scratch (`d_scores`).
    pub(crate) win2: Vec<f64>,
    /// Attention-window row ids, size `K`.
    pub(crate) ids: Vec<u32>,
    /// Gate gradients `da_t` of a whole sequence, `T ×` up to `5d` (BPTT).
    pub(crate) da_all: Vec<f64>,
    /// Second per-sequence gradient block, `T × d` (SAM `dpre_his_t`, GRU
    /// candidate gradients).
    pub(crate) dpre_all: Vec<f64>,
    // --- Lockstep buffers (`B` = batch size). All are plain scratch like
    // the rest of the workspace: sized on entry, carrying nothing between
    // calls.
    /// Stacked `z_t = [x; h; 1]` rows, `B × zlen`.
    pub(crate) bz: Vec<f64>,
    /// Second stacked `z` buffer (GRU's `[x; r ⊙ h; 1]`), `B × zlen`.
    pub(crate) bz2: Vec<f64>,
    /// Stacked hidden states, `B × d`.
    pub(crate) bh: Vec<f64>,
    /// Stacked cell states, `B × d`.
    pub(crate) bc: Vec<f64>,
    /// Stacked gate pre-activations, up to `B × 5d`.
    pub(crate) bgates: Vec<f64>,
    /// Stacked GRU candidates, `B × d`.
    pub(crate) bmix: Vec<f64>,
    /// Stacked SAM `[ĉ; mix]` concatenations, `B × 2d`.
    pub(crate) bcat: Vec<f64>,
    /// Stacked SAM historical states `c_his`, `B × d`.
    pub(crate) bhis: Vec<f64>,
    /// The step's first weight matrix packed into GEMM panels once per
    /// `forward_batch` call (SAM and LSTM `p`, GRU `pzr`); a batch
    /// narrower than `PACK_MIN_M` packs nothing (`linalg::PackedNt`).
    pub(crate) panels: Vec<f64>,
    /// The step's second weight matrix, packed likewise (SAM `w_his`, GRU
    /// `ph`).
    pub(crate) panels2: Vec<f64>,
}

impl Workspace {
    /// A fresh (empty) workspace; buffers grow on first use and are then
    /// reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Resets `v` to `n` zeros without shrinking its allocation. Returns the
/// buffer as a slice for convenience.
#[inline]
pub(crate) fn prep(v: &mut Vec<f64>, n: usize) -> &mut [f64] {
    v.clear();
    v.resize(n, 0.0);
    v.as_mut_slice()
}

/// `n` values of scratch without the zero fill of [`prep`]: contents are
/// arbitrary and the caller writes every element before reading it. For
/// the per-sequence BPTT blocks, whose `T × 5d` memset would be paid per
/// sequence.
#[inline]
pub(crate) fn scratch<T: Copy + Default>(v: &mut Vec<T>, n: usize) -> &mut [T] {
    if v.len() < n {
        v.resize(n, T::default());
    }
    &mut v[..n]
}

/// Slot order for the lockstep batched forward: input indices sorted by
/// descending sequence length (stable, so equal lengths keep input
/// order). With lengths descending, the sequences still running at any
/// timestep are a contiguous slot prefix — finished ones retire off the
/// end and every per-step GEMM runs over a dense `active × len` block.
fn lockstep_order(lens: impl Iterator<Item = usize>) -> Vec<usize> {
    let lens: Vec<usize> = lens.collect();
    let mut order: Vec<usize> = (0..lens.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(lens[i]));
    order
}

/// The lockstep loop every cell's `forward_batch` runs, recording or not:
/// all `b` coordinate sequences (`coords(i)` is the `i`-th) advance one
/// timestep together, so a cell's per-step products are GEMMs over the
/// sequences still running instead of one matvec each.
///
/// Slots are [`lockstep_order`]ed; a sequence retires — its hidden state
/// becomes its embedding — as soon as its last step is done. Per timestep
/// the driver stacks `z_t = [x; y; h_{t-1}; 1]` of the `active` running
/// slots and calls `step(t, slots, z, h)`: `slots[s]` is the input index
/// of slot `s`, `z` the `active × (d + 3)` stack, and `h` the
/// `active × d` hidden states the step overwrites. State beyond `h` (cell
/// states, gate blocks) is the step's own, indexed by slot: a slot's
/// index never changes while it runs; what a step records goes to
/// `slots[s]`'s own cache or tape at step `t`. The closure is a type
/// parameter, so nothing here is dispatched dynamically.
///
/// `h` and `z` are the workspace buffers the two stacks live in.
/// Embeddings come back in input order; an empty batch is an empty
/// result. Panics when any sequence is empty.
pub(crate) fn lockstep<'a>(
    b: usize,
    coords: impl Fn(usize) -> &'a [(f64, f64)],
    d: usize,
    h: &mut Vec<f64>,
    z: &mut Vec<f64>,
    mut step: impl FnMut(usize, &[usize], &[f64], &mut [f64]),
) -> Vec<Vec<f64>> {
    if b == 0 {
        return Vec::new();
    }
    let order = lockstep_order((0..b).map(|i| coords(i).len()));
    assert!(
        !coords(order[b - 1]).is_empty(),
        "cannot encode an empty sequence"
    );
    let zlen = d + 3;
    let h = prep(h, b * d);
    let z = prep(z, b * zlen);
    let mut out: Vec<Vec<f64>> = vec![Vec::new(); b];
    let mut active = b;
    for t in 0..coords(order[0]).len() {
        while coords(order[active - 1]).len() <= t {
            active -= 1;
            out[order[active]] = h[active * d..(active + 1) * d].to_vec();
        }
        for s in 0..active {
            let (x, y) = coords(order[s])[t];
            let zr = &mut z[s * zlen..(s + 1) * zlen];
            zr[0] = x;
            zr[1] = y;
            zr[2..2 + d].copy_from_slice(&h[s * d..(s + 1) * d]);
            zr[2 + d] = 1.0;
        }
        step(
            t,
            &order[..active],
            &z[..active * zlen],
            &mut h[..active * d],
        );
    }
    for s in 0..active {
        out[order[s]] = h[s * d..(s + 1) * d].to_vec();
    }
    out
}

#[cfg(test)]
pub(crate) mod lockstep_tests {
    use super::*;

    #[test]
    fn order_is_descending_and_stable() {
        let lens = [3usize, 7, 3, 9, 7];
        let order = lockstep_order(lens.iter().copied());
        assert_eq!(order, vec![3, 1, 4, 0, 2]);
    }

    /// Coordinates plus grid cells (on a 6 × 6 grid) of one sequence.
    pub(crate) type Seq = (Vec<(f64, f64)>, Vec<(u32, u32)>);

    /// The bit patterns of `parts`, concatenated: what the lockstep tests
    /// compare.
    pub(crate) fn bits<'a>(parts: impl IntoIterator<Item = &'a [f64]>) -> Vec<u64> {
        parts.into_iter().flatten().map(|x| x.to_bits()).collect()
    }

    /// The one body of the three cells' lockstep tests: `batch` (a cell's
    /// recording `forward_batch`, one [`bits`] vector per sequence: the
    /// final state and everything recorded for the backward pass) against
    /// `scalar` (the cell's `#[cfg(test)]` per-sequence oracle, the same
    /// for one sequence) on every shape the [`lockstep`] loop branches
    /// on — a batch of one, equal lengths (nothing retires early),
    /// duplicate lengths (stable retirement), a one-step sequence among
    /// long ones, input that is already descending, ascending or shuffled,
    /// and an empty batch. Slot `i`'s sequence depends on `i`, so equality
    /// per index also pins the input order of the results. One workspace
    /// throughout: every call finds it dirty.
    pub(crate) fn matches_scalar(
        batch: impl Fn(&[Seq], &mut Workspace) -> Vec<Vec<u64>>,
        scalar: impl Fn(&Seq) -> Vec<u64>,
    ) {
        let batches: [&[usize]; 8] = [
            &[3, 8, 13, 7, 12, 6, 11, 5, 10],
            &[7],
            &[5, 5, 5, 5],
            &[6, 3, 6, 3, 6],
            &[12, 1, 9],
            &[9, 7, 4, 2],
            &[2, 4, 7, 9],
            &[],
        ];
        let mut ws = Workspace::new();
        for lens in batches {
            let seqs: Vec<Seq> = (0u32..)
                .zip(lens)
                .map(|(i, &len)| {
                    (0..len as u32)
                        .map(|t| {
                            let (tf, fi) = (t as f64, i as f64);
                            (
                                ((0.17 * tf + fi).sin(), (tf - 0.3 * fi).cos()),
                                ((t + i) % 6, (2 * t + i) % 6),
                            )
                        })
                        .unzip()
                })
                .collect();
            let got = batch(&seqs, &mut ws);
            assert_eq!(got.len(), seqs.len(), "lens {lens:?}");
            for (i, (seq, got)) in seqs.iter().zip(&got).enumerate() {
                assert_eq!(got, &scalar(seq), "lens {lens:?}, sequence {i}");
            }
        }
    }

    /// `batch` (a cell's `forward_batch`) packs no weight panels for a
    /// batch narrower than `PACK_MIN_M` — no step of it can read them, and
    /// a lone query must not pay for them — and packs its `products` (1 or
    /// 2) weight matrices for a batch of `PACK_MIN_M`. Fresh workspaces, so
    /// an untouched buffer has no allocation at all.
    pub(crate) fn packs_only_wide_batches(
        batch: impl Fn(&[Seq], &mut Workspace) -> Vec<Vec<f64>>,
        products: usize,
    ) {
        use crate::linalg::PACK_MIN_M;
        let seqs = |b: u32| -> Vec<Seq> {
            (0..b)
                .map(|i| {
                    (0..5 + i)
                        .map(|t| ((0.1 * t as f64, 0.3 * i as f64), (t % 6, i % 6)))
                        .unzip()
                })
                .collect()
        };
        for b in 1..PACK_MIN_M as u32 {
            let mut ws = Workspace::new();
            assert_eq!(batch(&seqs(b), &mut ws).len(), b as usize);
            assert_eq!(ws.panels.capacity() + ws.panels2.capacity(), 0, "B = {b}");
        }
        let mut ws = Workspace::new();
        batch(&seqs(PACK_MIN_M as u32), &mut ws);
        let packed = [&ws.panels, &ws.panels2].map(|p| !p.is_empty());
        assert_eq!(packed, [true, products == 2]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prep_zeroes_and_keeps_capacity() {
        let mut v = vec![1.0; 16];
        let cap = v.capacity();
        let s = prep(&mut v, 8);
        assert_eq!(s, &[0.0; 8]);
        assert_eq!(v.len(), 8);
        assert!(v.capacity() >= cap);
        prep(&mut v, 16);
        assert!(v.iter().all(|x| *x == 0.0));
    }
}
