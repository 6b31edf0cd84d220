//! Reusable scratch buffers for the RNN forward/backward hot paths.
//!
//! Every cell used to allocate a handful of `vec![0.0; d]` temporaries per
//! timestep (and per backward step). A [`Workspace`] owns those buffers
//! once; the `*_ws` entry points on [`crate::LstmCell`], [`crate::GruCell`]
//! and [`crate::SamLstmCell`] reuse them across steps and across
//! sequences, so steady-state training performs zero per-timestep heap
//! allocations outside the (exactly-sized, once-per-sequence) BPTT caches.

/// Scratch buffers shared by all RNN cells.
///
/// A workspace is plain reusable memory: it carries no results between
/// calls and any `*_ws` method may be called with any (possibly
/// previously used) workspace. Each worker thread owns one.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Running hidden state (forward) / `dh` (backward).
    pub(crate) h: Vec<f64>,
    /// Running cell state (forward) / `dc` (backward).
    pub(crate) c: Vec<f64>,
    /// Gate pre-activations (forward) / `da` (backward); up to `5d`.
    pub(crate) gates: Vec<f64>,
    /// Gradient of the concatenation (`2d`, SAM).
    pub(crate) dcat: Vec<f64>,
    /// Small `d`-sized scratch (SAM write weights, `dĉ`, GRU `dh_prev`…).
    pub(crate) t1: Vec<f64>,
    /// Small `d`-sized scratch.
    pub(crate) t2: Vec<f64>,
    /// Small `d`-sized scratch.
    pub(crate) t3: Vec<f64>,
    /// Small `d`-sized scratch.
    pub(crate) t4: Vec<f64>,
    /// Attention-window scratch (`d_attn`, size `K ≤ (2w+1)²`).
    pub(crate) win: Vec<f64>,
    /// Attention-window scratch (`d_scores`).
    pub(crate) win2: Vec<f64>,
    /// Attention-window row ids (memory rows only), size `K`.
    pub(crate) ids: Vec<u32>,
    /// Gate gradients `da_t` of a whole sequence, `T ×` up to `5d` (BPTT).
    pub(crate) da_all: Vec<f64>,
    /// Second per-sequence gradient block, `T × d` (SAM `dpre_his_t`, GRU
    /// candidate gradients).
    pub(crate) dpre_all: Vec<f64>,
    // --- Lockstep batched-inference buffers (`B` = batch size). All are
    // plain scratch like the rest of the workspace: sized on entry,
    // carrying nothing between calls.
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
    /// Stacked SAM intermediate cell states `ĉ`, `B × d`.
    pub(crate) bchat: Vec<f64>,
    /// Stacked SAM attention mixes / GRU candidates, `B × d`.
    pub(crate) bmix: Vec<f64>,
    /// Stacked SAM `[ĉ; mix]` concatenations, `B × 2d`.
    pub(crate) bcat: Vec<f64>,
    /// Stacked SAM historical states `c_his`, `B × d`.
    pub(crate) bhis: Vec<f64>,
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
pub(crate) fn lockstep_order(lens: impl ExactSizeIterator<Item = usize>) -> Vec<usize> {
    let lens: Vec<usize> = lens.collect();
    let mut order: Vec<usize> = (0..lens.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(lens[i]));
    order
}

#[cfg(test)]
mod lockstep_tests {
    use super::*;

    #[test]
    fn order_is_descending_and_stable() {
        let lens = [3usize, 7, 3, 9, 7];
        let order = lockstep_order(lens.iter().copied());
        assert_eq!(order, vec![3, 1, 4, 0, 2]);
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
