//! Reusable scratch-buffer arena for the batched execution engine.
//!
//! Every batched forward/backward pass needs a handful of activation,
//! gate and delta buffers whose shapes repeat exactly from one local
//! iteration to the next. A [`Workspace`] owns those buffers between
//! iterations: kernels *check out* zero-filled storage with
//! [`Workspace::take`]/[`Workspace::take_matrix`] and return it with the
//! matching `give` call, so the steady-state round loop performs **no
//! data-sized allocations** — after the first (warm-up) iteration every
//! checkout is served from the pool. [`Workspace::churn`] counts the
//! checkouts that had to allocate or grow, which is what the arena's
//! regression tests pin to zero after warm-up.
//!
//! The arena is deliberately *not* thread-safe: each client's local run
//! owns one `Workspace` (the per-client arena), mirroring how the round
//! loop hands each rayon worker disjoint client state.

use crate::matrix::Matrix;

/// A pool of reusable `f32`/`usize`/`u64` buffers (and `Vec<Matrix>`
/// shells).
#[derive(Debug, Default)]
pub struct Workspace {
    f32_pool: Vec<Vec<f32>>,
    usize_pool: Vec<Vec<usize>>,
    u64_pool: Vec<Vec<u64>>,
    shells: Vec<Vec<Matrix>>,
    churn: u64,
}

/// Best-fit checkout from `pool`: the smallest buffer whose capacity
/// already covers `len`, so big buffers are not wasted on small asks.
fn take_from<T: Clone>(pool: &mut Vec<Vec<T>>, len: usize, fill: T, churn: &mut u64) -> Vec<T> {
    let mut best: Option<(usize, usize)> = None;
    for (i, b) in pool.iter().enumerate() {
        let cap = b.capacity();
        if cap >= len && best.is_none_or(|(_, c)| cap < c) {
            best = Some((i, cap));
        }
    }
    match best {
        Some((i, _)) => {
            let mut v = pool.swap_remove(i);
            v.clear();
            v.resize(len, fill);
            v
        }
        None => {
            *churn += 1;
            vec![fill; len]
        }
    }
}

impl Workspace {
    /// Fresh, empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Check out a zero-filled `f32` buffer of exactly `len` elements.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        take_from(&mut self.f32_pool, len, 0.0, &mut self.churn)
    }

    /// Return a buffer checked out with [`Workspace::take`].
    pub fn give(&mut self, buf: Vec<f32>) {
        self.f32_pool.push(buf);
    }

    /// Check out a zero-filled `rows × cols` matrix.
    pub fn take_matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, self.take(rows * cols))
    }

    /// Return a matrix checked out with [`Workspace::take_matrix`].
    pub fn give_matrix(&mut self, m: Matrix) {
        self.give(m.into_vec());
    }

    /// Check out a zero-filled `usize` buffer (argmax indices, row orders).
    pub fn take_usize(&mut self, len: usize) -> Vec<usize> {
        take_from(&mut self.usize_pool, len, 0, &mut self.churn)
    }

    /// Return a buffer checked out with [`Workspace::take_usize`].
    pub fn give_usize(&mut self, buf: Vec<usize>) {
        self.usize_pool.push(buf);
    }

    /// Check out a zero-filled `u64` buffer (order-statistic keys).
    pub fn take_u64(&mut self, len: usize) -> Vec<u64> {
        take_from(&mut self.u64_pool, len, 0, &mut self.churn)
    }

    /// Return a buffer checked out with [`Workspace::take_u64`].
    pub fn give_u64(&mut self, buf: Vec<u64>) {
        self.u64_pool.push(buf);
    }

    /// Check out an empty `Vec<Matrix>` shell (per-layer buffer lists).
    /// The shell's own heap block is recycled, so growing it to a
    /// previously seen layer count allocates nothing.
    pub fn take_shell(&mut self) -> Vec<Matrix> {
        match self.shells.pop() {
            Some(mut s) => {
                debug_assert!(s.is_empty());
                s.clear();
                s
            }
            None => {
                self.churn += 1;
                Vec::new()
            }
        }
    }

    /// Return a shell: its matrices drain back into the `f32` pool and
    /// the emptied `Vec` is kept for the next [`Workspace::take_shell`].
    pub fn give_shell(&mut self, mut shell: Vec<Matrix>) {
        for m in shell.drain(..) {
            self.give_matrix(m);
        }
        self.shells.push(shell);
    }

    /// Number of checkouts that could not be served from the pool and had
    /// to allocate. Constant across iterations ⇒ the steady-state loop is
    /// allocation-free.
    pub fn churn(&self) -> u64 {
        self.churn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zero_filled_and_sized() {
        let mut ws = Workspace::new();
        let mut b = ws.take(5);
        assert_eq!(b, vec![0.0; 5]);
        b[0] = 7.0;
        ws.give(b);
        // Recycled storage comes back zeroed.
        let b = ws.take(3);
        assert_eq!(b, vec![0.0; 3]);
    }

    #[test]
    fn steady_state_has_zero_churn() {
        let mut ws = Workspace::new();
        // Warm-up iteration: three shapes, interleaved with a matrix.
        let iteration = |ws: &mut Workspace| {
            let a = ws.take(128);
            let m = ws.take_matrix(8, 16);
            let b = ws.take(32);
            let idx = ws.take_usize(8);
            let keys = ws.take_u64(65);
            ws.give(a);
            ws.give_matrix(m);
            ws.give(b);
            ws.give_usize(idx);
            ws.give_u64(keys);
        };
        iteration(&mut ws);
        let warm = ws.churn();
        for _ in 0..10 {
            iteration(&mut ws);
        }
        assert_eq!(ws.churn(), warm, "steady-state checkouts must not allocate");
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let mut ws = Workspace::new();
        let small = ws.take(4);
        let large = ws.take(1024);
        ws.give(large);
        ws.give(small);
        let churn = ws.churn();
        // A 4-element ask must reuse the 4-capacity buffer, leaving the
        // 1024-capacity one for the next large ask.
        let b = ws.take(4);
        assert!(b.capacity() < 1024);
        let big = ws.take(1024);
        assert_eq!(big.len(), 1024);
        assert_eq!(ws.churn(), churn, "both asks served from the pool");
    }

    #[test]
    fn shells_recycle_matrices() {
        let mut ws = Workspace::new();
        let mut shell = ws.take_shell();
        shell.push(ws.take_matrix(4, 4));
        shell.push(ws.take_matrix(2, 8));
        ws.give_shell(shell);
        let warm = ws.churn();
        let mut shell = ws.take_shell();
        shell.push(ws.take_matrix(4, 4));
        shell.push(ws.take_matrix(2, 8));
        ws.give_shell(shell);
        assert_eq!(ws.churn(), warm);
    }
}
