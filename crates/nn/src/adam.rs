//! The Adam optimizer.

use neutraj_obs::Counter;

/// Adam (Kingma & Ba) with bias correction — the optimizer the paper
/// trains NeuTraj with (§V-B).
///
/// Parameter tensors are registered once via [`Adam::register`]; each call
/// returns a slot id whose first/second-moment buffers persist across
/// steps. A training step then calls [`Adam::step`] per tensor after
/// advancing the shared timestep with [`Adam::next_step`].
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// Exponential decay for the first moment.
    pub beta1: f64,
    /// Exponential decay for the second moment.
    pub beta2: f64,
    /// Numerical-stability epsilon.
    pub eps: f64,
    t: i32,
    slots: Vec<Moments>,
    /// Optional optimizer-step counter
    /// (`neutraj_nn_adam_steps_total`); `None` records nothing.
    steps: Option<Counter>,
}

#[derive(Debug, Clone)]
struct Moments {
    m: Vec<f64>,
    v: Vec<f64>,
}

/// A snapshot of the optimizer's mutable state — timestep plus the
/// first/second moment buffers of every registered slot — in slot
/// registration order. Exported by [`Adam::export_state`] and restored by
/// [`Adam::import_state`], so a checkpointed training run resumes with
/// **bit-identical** optimizer behaviour.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdamState {
    /// Completed optimizer steps ([`Adam::timestep`]).
    pub t: i32,
    /// Per-slot `(first moment, second moment)` buffers.
    pub moments: Vec<(Vec<f64>, Vec<f64>)>,
}

impl Adam {
    /// Creates Adam with the standard defaults (β₁=0.9, β₂=0.999, ε=1e-8).
    pub fn new(lr: f64) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            slots: Vec::new(),
            steps: None,
        }
    }

    /// Counts every optimizer step (each [`Adam::next_step`] call) into
    /// `counter`, which callers typically resolve as
    /// `registry.counter("neutraj_nn_adam_steps_total")`.
    pub fn instrument(&mut self, counter: Counter) {
        self.steps = Some(counter);
    }

    /// Registers a parameter tensor of `len` values; returns its slot id.
    pub fn register(&mut self, len: usize) -> usize {
        self.slots.push(Moments {
            m: vec![0.0; len],
            v: vec![0.0; len],
        });
        self.slots.len() - 1
    }

    /// Advances the global timestep. Call once per optimization step,
    /// before the per-tensor [`Adam::step`] calls.
    pub fn next_step(&mut self) {
        self.t += 1;
        if let Some(c) = &self.steps {
            c.inc();
        }
    }

    /// Current timestep (number of completed `next_step` calls).
    pub fn timestep(&self) -> i32 {
        self.t
    }

    /// Snapshots the mutable optimizer state (timestep + moment buffers)
    /// for checkpointing.
    pub fn export_state(&self) -> AdamState {
        AdamState {
            t: self.t,
            moments: self
                .slots
                .iter()
                .map(|s| (s.m.clone(), s.v.clone()))
                .collect(),
        }
    }

    /// Restores state captured by [`Adam::export_state`]. The optimizer
    /// must already have the same slots registered (same count, same
    /// lengths, same order); mismatches are rejected with a descriptive
    /// message so a checkpoint from a different architecture can never be
    /// silently applied.
    pub fn import_state(&mut self, state: &AdamState) -> Result<(), String> {
        if state.moments.len() != self.slots.len() {
            return Err(format!(
                "adam state has {} slots, optimizer has {}",
                state.moments.len(),
                self.slots.len()
            ));
        }
        for (i, ((m, v), slot)) in state.moments.iter().zip(&self.slots).enumerate() {
            if m.len() != slot.m.len() || v.len() != slot.v.len() {
                return Err(format!(
                    "adam slot {i} length mismatch: state {}x{}, optimizer {}",
                    m.len(),
                    v.len(),
                    slot.m.len()
                ));
            }
        }
        if state.t < 0 {
            return Err(format!("negative adam timestep {}", state.t));
        }
        self.t = state.t;
        for (slot, (m, v)) in self.slots.iter_mut().zip(&state.moments) {
            slot.m.copy_from_slice(m);
            slot.v.copy_from_slice(v);
        }
        Ok(())
    }

    /// Applies one Adam update to `param` given `grad`, using the moment
    /// buffers of `slot`. Panics on length mismatch or an unregistered
    /// slot, and debug-asserts that `next_step` has been called.
    pub fn step(&mut self, slot: usize, param: &mut [f64], grad: &[f64]) {
        self.step_scaled(slot, param, grad, 1.0);
    }

    /// [`Self::step`] on `scale · grad` (e.g. `1/batch` over a summed
    /// gradient) without materializing the scaled tensor: the one multiply
    /// per element happens where the gradient is read, so the update is
    /// bit-identical to stepping on a pre-scaled copy.
    pub fn step_scaled(&mut self, slot: usize, param: &mut [f64], grad: &[f64], scale: f64) {
        debug_assert!(self.t > 0, "call next_step() before step()");
        let mom = &mut self.slots[slot];
        assert_eq!(param.len(), grad.len(), "param/grad length mismatch");
        assert_eq!(param.len(), mom.m.len(), "slot registered with other len");
        let b1t = 1.0 - self.beta1.powi(self.t);
        let b2t = 1.0 - self.beta2.powi(self.t);
        for i in 0..param.len() {
            let g = grad[i] * scale;
            mom.m[i] = self.beta1 * mom.m[i] + (1.0 - self.beta1) * g;
            mom.v[i] = self.beta2 * mom.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = mom.m[i] / b1t;
            let v_hat = mom.v[i] / b2t;
            param[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_a_quadratic() {
        // f(x) = (x - 3)², gradient 2(x - 3).
        let mut adam = Adam::new(0.1);
        let slot = adam.register(1);
        let mut x = [0.0f64];
        for _ in 0..500 {
            adam.next_step();
            let g = [2.0 * (x[0] - 3.0)];
            adam.step(slot, &mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-3, "x = {}", x[0]);
    }

    #[test]
    fn first_step_size_is_about_lr() {
        // With bias correction, the very first update has magnitude ≈ lr.
        let mut adam = Adam::new(0.01);
        let slot = adam.register(1);
        let mut x = [0.0f64];
        adam.next_step();
        adam.step(slot, &mut x, &[123.0]);
        assert!((x[0].abs() - 0.01).abs() < 1e-6, "step {}", x[0]);
    }

    #[test]
    fn scaled_step_is_the_step_on_a_scaled_copy() {
        let grad = [0.3, -1.7, 0.0, 5e-324, 123.456];
        let scale = 1.0 / 20.0;
        let scaled: Vec<f64> = grad.iter().map(|g| g * scale).collect();
        let (mut a, mut b) = (Adam::new(0.008), Adam::new(0.008));
        let (sa, sb) = (a.register(5), b.register(5));
        let (mut xa, mut xb) = ([0.5; 5], [0.5; 5]);
        for _ in 0..3 {
            a.next_step();
            b.next_step();
            a.step(sa, &mut xa, &scaled);
            b.step_scaled(sb, &mut xb, &grad, scale);
        }
        assert_eq!(xa.map(f64::to_bits), xb.map(f64::to_bits));
        assert_eq!(a.export_state(), b.export_state());
    }

    #[test]
    fn slots_are_independent() {
        let mut adam = Adam::new(0.1);
        let a = adam.register(1);
        let b = adam.register(1);
        let mut xa = [0.0f64];
        let mut xb = [0.0f64];
        adam.next_step();
        adam.step(a, &mut xa, &[1.0]);
        // Slot b is untouched by slot a's moments.
        adam.step(b, &mut xb, &[1.0]);
        assert!((xa[0] - xb[0]).abs() < 1e-15);
    }

    #[test]
    fn instrumented_adam_counts_steps() {
        let counter = Counter::new();
        let mut adam = Adam::new(0.1);
        adam.instrument(counter.clone());
        let slot = adam.register(1);
        let mut x = [0.0f64];
        for _ in 0..7 {
            adam.next_step();
            adam.step(slot, &mut x, &[1.0]);
        }
        assert_eq!(counter.get(), 7);
        assert_eq!(adam.timestep(), 7);
    }

    #[test]
    fn state_roundtrip_resumes_bit_identically() {
        // Optimize for 5 steps, snapshot, run 5 more; then restore the
        // snapshot into a fresh optimizer and replay the last 5 steps —
        // the parameter trajectories must be bit-identical.
        let grad_at = |step: i32| [(step as f64 * 0.37).sin() + 0.5];
        let mut adam = Adam::new(0.05);
        let slot = adam.register(1);
        let mut x = [1.0f64];
        for s in 1..=5 {
            adam.next_step();
            adam.step(slot, &mut x, &grad_at(s));
        }
        let snap = adam.export_state();
        let x_snap = x;
        for s in 6..=10 {
            adam.next_step();
            adam.step(slot, &mut x, &grad_at(s));
        }
        let mut resumed = Adam::new(0.05);
        let slot2 = resumed.register(1);
        resumed.import_state(&snap).unwrap();
        assert_eq!(resumed.timestep(), 5);
        let mut y = x_snap;
        for s in 6..=10 {
            resumed.next_step();
            resumed.step(slot2, &mut y, &grad_at(s));
        }
        assert_eq!(x[0].to_bits(), y[0].to_bits());
    }

    #[test]
    fn import_state_rejects_mismatched_shapes() {
        let mut adam = Adam::new(0.1);
        let _ = adam.register(2);
        let bad = AdamState {
            t: 1,
            moments: vec![(vec![0.0; 3], vec![0.0; 3])],
        };
        assert!(adam.import_state(&bad).unwrap_err().contains("mismatch"));
        let bad = AdamState {
            t: 1,
            moments: vec![],
        };
        assert!(adam.import_state(&bad).unwrap_err().contains("slots"));
        let bad = AdamState {
            t: -3,
            moments: vec![(vec![0.0; 2], vec![0.0; 2])],
        };
        assert!(adam.import_state(&bad).unwrap_err().contains("negative"));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let mut adam = Adam::new(0.1);
        let slot = adam.register(2);
        let mut x = [0.0f64; 2];
        adam.next_step();
        adam.step(slot, &mut x, &[1.0]);
    }
}
