//! Elementwise / classification kernels and their cost models.
//!
//! These are the small kernels around Aggregation and Update: ReLU (and its
//! backward mask), softmax cross-entropy, and the SGD weight update. They
//! are bandwidth-bound streams; each costs one launch plus its memory
//! traffic.

use gpu_sim::{BlockCost, DeviceSpec, KernelRun};
use graph_sparse::DenseMatrix;

/// Simulate an elementwise kernel that reads `reads` f32 values and writes
/// `writes` f32 values.
pub fn elementwise_run(reads: u64, writes: u64, dev: &DeviceSpec) -> KernelRun {
    // Stream split across enough blocks to fill the device.
    let total_bytes = (reads + writes) * 4;
    let blocks_n = (total_bytes / (64 * 1024)).clamp(1, 4 * dev.num_sms as u64) as usize;
    let mut blocks = Vec::with_capacity(blocks_n);
    for _ in 0..blocks_n {
        let mut b = BlockCost {
            warps: 8,
            ..Default::default()
        };
        b.dram.bytes_loaded = reads * 4 / blocks_n as u64;
        b.dram.bytes_stored = writes * 4 / blocks_n as u64;
        b.dram.transactions =
            (b.dram.bytes_loaded + b.dram.bytes_stored) / dev.transaction_bytes as u64;
        b.cuda_fma_issues = (reads / blocks_n as u64) / 32;
        blocks.push(b);
    }
    dev.execute(&blocks)
}

/// ReLU forward: returns the activated matrix and the kernel run.
pub fn relu(x: &DenseMatrix, dev: &DeviceSpec) -> (DenseMatrix, KernelRun) {
    let out = x.map(|v| v.max(0.0));
    let n = x.data.len() as u64;
    (out, elementwise_run(n, n, dev))
}

/// ReLU backward: gradient masked by the forward activation's sign.
pub fn relu_backward(
    grad: &DenseMatrix,
    activated: &DenseMatrix,
    dev: &DeviceSpec,
) -> (DenseMatrix, KernelRun) {
    assert_eq!(grad.data.len(), activated.data.len());
    let data = grad
        .data
        .iter()
        .zip(&activated.data)
        .map(|(&g, &a)| if a > 0.0 { g } else { 0.0 })
        .collect();
    let out = DenseMatrix {
        rows: grad.rows,
        cols: grad.cols,
        data,
    };
    let n = grad.data.len() as u64;
    (out, elementwise_run(2 * n, n, dev))
}

/// Rows per pool block of [`softmax_cross_entropy`].
const SOFTMAX_BLOCK_ROWS: usize = 64;

/// Work units charged per `exp` in the pool's work hint (an f64 `exp`
/// costs tens of the simple scalar operations a unit stands for).
const EXP_WORK: u64 = 32;

/// Softmax cross-entropy over rows: returns `(mean loss, dLogits)` plus the
/// kernel run. `labels[i]` is row `i`'s class.
///
/// Rows are independent, so blocks of rows run on the `hc-parallel` pool,
/// each row in one pass over a per-block exp buffer. The per-row losses
/// are then folded in row order on the calling thread, keeping the total
/// bit-identical to the serial loop.
///
/// # Panics
///
/// If `labels.len() != logits.rows`, or if a label is not below
/// `logits.cols`.
pub fn softmax_cross_entropy(
    logits: &DenseMatrix,
    labels: &[usize],
    dev: &DeviceSpec,
) -> (f64, DenseMatrix, KernelRun) {
    let (rows, cols) = (logits.rows, logits.cols);
    assert_eq!(rows, labels.len());
    for (r, &y) in labels.iter().enumerate() {
        assert!(
            y < cols,
            "softmax_cross_entropy: row {r} has label {y}, but the logits have {cols} classes"
        );
    }
    let mut grad = DenseMatrix::zeros(rows, cols);
    let mut losses = vec![0.0f64; rows];
    // Every row has a label below `cols`, so rows > 0 implies cols > 0.
    if cols > 0 {
        let mut blocks: Vec<(&mut [f32], &mut [f64])> = grad
            .data
            .chunks_mut(SOFTMAX_BLOCK_ROWS * cols)
            .zip(losses.chunks_mut(SOFTMAX_BLOCK_ROWS))
            .collect();
        let work = (EXP_WORK + 8) * logits.data.len() as u64;
        hc_parallel::par_chunks_mut(&mut blocks, 1, work, |blk, block| {
            let (grad, losses) = &mut block[0];
            let mut exps = vec![0.0f64; cols];
            let r0 = blk * SOFTMAX_BLOCK_ROWS;
            for (i, (g, loss)) in grad.chunks_mut(cols).zip(losses.iter_mut()).enumerate() {
                *loss = softmax_row(logits.row(r0 + i), labels[r0 + i], rows, &mut exps, g);
            }
        });
    }
    // Folded from `+0.0` like the serial loop; a row's loss can be `−0.0`.
    let loss = losses.iter().fold(0.0f64, |acc, l| acc + l);
    let n = logits.data.len() as u64;
    let run = elementwise_run(2 * n, n, dev);
    (loss / rows as f64, grad, run)
}

/// One row of [`softmax_cross_entropy`]: writes the row's gradient
/// (scaled by `1 / rows`) into `g` and returns its loss. `exps` is a
/// scratch buffer of the row's length.
fn softmax_row(row: &[f32], y: usize, rows: usize, exps: &mut [f64], g: &mut [f32]) -> f64 {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f64;
    for (e, &v) in exps.iter_mut().zip(row) {
        *e = ((v - max) as f64).exp();
        sum += *e;
    }
    for (c, (g, &e)) in g.iter_mut().zip(exps.iter()).enumerate() {
        let p = e / sum;
        *g = (p - if c == y { 1.0 } else { 0.0 }) as f32 / rows as f32;
    }
    -(exps[y] / sum).max(1e-30).ln()
}

/// SGD step `w -= lr · dw`, in place, with its kernel cost.
pub fn sgd_step(w: &mut DenseMatrix, dw: &DenseMatrix, lr: f32, dev: &DeviceSpec) -> KernelRun {
    assert_eq!((w.rows, w.cols), (dw.rows, dw.cols));
    for (a, b) in w.data.iter_mut().zip(&dw.data) {
        *a -= lr * b;
    }
    let n = w.data.len() as u64;
    elementwise_run(2 * n, n, dev)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_and_masks() {
        let dev = DeviceSpec::rtx3090();
        let x = DenseMatrix::from_rows(&[&[-1.0, 2.0], &[0.5, -0.5]]);
        let (y, _) = relu(&x, &dev);
        assert_eq!(y.row(0), &[0.0, 2.0]);
        let g = DenseMatrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let (gx, _) = relu_backward(&g, &y, &dev);
        assert_eq!(gx.row(0), &[0.0, 1.0]);
        assert_eq!(gx.row(1), &[1.0, 0.0]);
    }

    #[test]
    fn softmax_loss_of_perfect_logits_is_small() {
        let dev = DeviceSpec::rtx3090();
        let logits = DenseMatrix::from_rows(&[&[10.0, -10.0], &[-10.0, 10.0]]);
        let (loss, grad, _) = softmax_cross_entropy(&logits, &[0, 1], &dev);
        assert!(loss < 1e-6);
        assert!(grad.data.iter().all(|v| v.abs() < 1e-6));
    }

    #[test]
    fn softmax_gradient_matches_finite_differences() {
        let dev = DeviceSpec::rtx3090();
        let mut logits = DenseMatrix::random_features(4, 3, 9);
        let labels = [0usize, 2, 1, 1];
        let (_, grad, _) = softmax_cross_entropy(&logits, &labels, &dev);
        let eps = 1e-3f32;
        for r in 0..4 {
            for c in 0..3 {
                let orig = logits[(r, c)];
                logits[(r, c)] = orig + eps;
                let (lp, _, _) = softmax_cross_entropy(&logits, &labels, &dev);
                logits[(r, c)] = orig - eps;
                let (lm, _, _) = softmax_cross_entropy(&logits, &labels, &dev);
                logits[(r, c)] = orig;
                let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
                assert!(
                    (fd - grad[(r, c)]).abs() < 1e-3,
                    "grad mismatch at ({r},{c}): fd {fd} vs {}",
                    grad[(r, c)]
                );
            }
        }
    }

    /// The per-row softmax cross-entropy the block-parallel one replaced:
    /// two heap vectors per row, losses folded in row order.
    fn softmax_oracle(logits: &DenseMatrix, labels: &[usize]) -> (f64, DenseMatrix) {
        let rows: Vec<(f64, Vec<f32>)> = (0..logits.rows)
            .map(|r| {
                let y = labels[r];
                let row = logits.row(r);
                let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let exps: Vec<f64> = row.iter().map(|&v| ((v - max) as f64).exp()).collect();
                let sum: f64 = exps.iter().sum();
                let loss = -(exps[y] / sum).max(1e-30).ln();
                let g: Vec<f32> = exps
                    .iter()
                    .enumerate()
                    .map(|(c, &e)| {
                        let p = e / sum;
                        (p - if c == y { 1.0 } else { 0.0 }) as f32 / logits.rows as f32
                    })
                    .collect();
                (loss, g)
            })
            .collect();
        let mut grad = DenseMatrix::zeros(logits.rows, logits.cols);
        let mut loss = 0.0f64;
        for (r, (l, g)) in rows.into_iter().enumerate() {
            loss += l;
            grad.row_mut(r).copy_from_slice(&g);
        }
        (loss / logits.rows as f64, grad)
    }

    #[test]
    fn softmax_matches_the_per_row_oracle_bit_for_bit() {
        let dev = DeviceSpec::rtx3090();
        let saved = hc_parallel::thread_override();
        hc_parallel::set_parallel_mode(hc_parallel::ParallelMode::Force);
        for classes in [1usize, 2, 8, 33, 100] {
            // Row counts around and between the pool's block size, none a
            // multiple of it; one row of logits large enough that the
            // label's probability underflows to the 1e-30 floor.
            for rows in [1usize, 63, 65, 130, 201] {
                let mut logits =
                    DenseMatrix::random_features(rows, classes, rows as u64).scale(8.0);
                logits.row_mut(rows / 2)[0] = 1e4;
                let labels: Vec<usize> = (0..rows).map(|r| (r * 7 + 3) % classes).collect();
                let (want_loss, want_grad) = softmax_oracle(&logits, &labels);
                for threads in [1, 2, 8] {
                    hc_parallel::set_threads(threads);
                    let (loss, grad, _) = softmax_cross_entropy(&logits, &labels, &dev);
                    let at = format!("{classes} classes, {rows} rows, {threads} threads");
                    assert_eq!(loss.to_bits(), want_loss.to_bits(), "loss, {at}");
                    let bits =
                        |m: &DenseMatrix| m.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&grad), bits(&want_grad), "gradient, {at}");
                }
            }
        }
        hc_parallel::set_parallel_mode(hc_parallel::ParallelMode::Auto);
        hc_parallel::set_threads(saved);
    }

    #[test]
    #[should_panic(expected = "row 2 has label 3, but the logits have 3 classes")]
    fn softmax_rejects_an_out_of_range_label() {
        let dev = DeviceSpec::rtx3090();
        let logits = DenseMatrix::random_features(4, 3, 5);
        softmax_cross_entropy(&logits, &[0, 1, 3, 2], &dev);
    }

    #[test]
    fn sgd_moves_against_gradient() {
        let dev = DeviceSpec::rtx3090();
        let mut w = DenseMatrix::from_rows(&[&[1.0, 1.0]]);
        let dw = DenseMatrix::from_rows(&[&[0.5, -0.5]]);
        sgd_step(&mut w, &dw, 0.1, &dev);
        assert_eq!(w.row(0), &[0.95, 1.05]);
    }

    #[test]
    fn elementwise_time_scales_with_volume() {
        let dev = DeviceSpec::rtx3090();
        let small = elementwise_run(1 << 10, 1 << 10, &dev);
        let big = elementwise_run(1 << 24, 1 << 24, &dev);
        assert!(big.time_ms > small.time_ms);
    }
}
