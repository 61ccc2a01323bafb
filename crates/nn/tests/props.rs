//! Property-based invariants for the neural-network layers.

use bf_nn::tensor::{matmul_packed, transpose_into, OutLayout};
use bf_nn::{
    softmax_cross_entropy, Adam, CnnLstm, CnnLstmConfig, Conv1d, Dense, Dropout, Layer, Lstm,
    MaxPool1d, Relu, Tensor,
};
use bf_stats::SeedRng;
use proptest::prelude::*;

fn tensor3(n: usize, c: usize, l: usize, seed: u64) -> Tensor {
    let mut rng = SeedRng::new(seed);
    Tensor::new(
        &[n, c, l],
        (0..n * c * l).map(|_| rng.standard_normal() as f32).collect(),
    )
}

/// Values shaped like ReLU/max-pool outputs and gradients: 40 % +0.0,
/// 10 % -0.0, the rest standard normal.
fn sparse_signed(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = SeedRng::new(seed);
    (0..len)
        .map(|_| {
            let u = rng.uniform();
            if u < 0.4 {
                0.0
            } else if u < 0.5 {
                -0.0
            } else {
                rng.standard_normal() as f32
            }
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The textbook `Conv1d` loops over `(N, C_in, L)` input `x` and
/// `(N, C_out, L_out)` gradient `g`: the forward output (bias first,
/// then `(ci, k)` order), and the weight, bias and input gradients
/// (`(i, p)`-major per parameter, `(co, p, ci, k)` per input element),
/// every zero gradient skipped.
fn textbook_conv(
    w: &[f32],
    b: &[f32],
    x: &[f32],
    g: &[f32],
    (n, cin, cout, k, stride, l): (usize, usize, usize, usize, usize, usize),
) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
    let lo = (l - k) / stride + 1;
    // Flat indices of weight `(co, ci, kk)` and of the input sample
    // `(i, ci)` under output position `p`'s window tap `kk`.
    let wi = |co: usize, ci: usize, kk: usize| (co * cin + ci) * k + kk;
    let xi = |i: usize, ci: usize, p: usize, kk: usize| (i * cin + ci) * l + p * stride + kk;
    let mut y = vec![0.0f32; n * cout * lo];
    let mut wg = vec![0.0f32; w.len()];
    let mut bg = vec![0.0f32; cout];
    let mut dx = vec![0.0f32; x.len()];
    for i in 0..n {
        for co in 0..cout {
            for p in 0..lo {
                let mut acc = b[co];
                for ci in 0..cin {
                    for kk in 0..k {
                        acc += w[wi(co, ci, kk)] * x[xi(i, ci, p, kk)];
                    }
                }
                y[(i * cout + co) * lo + p] = acc;
            }
        }
    }
    for co in 0..cout {
        for i in 0..n {
            for p in 0..lo {
                let gv = g[(i * cout + co) * lo + p];
                if gv == 0.0 {
                    continue;
                }
                bg[co] += gv;
                for ci in 0..cin {
                    for kk in 0..k {
                        wg[wi(co, ci, kk)] += gv * x[xi(i, ci, p, kk)];
                    }
                }
            }
        }
    }
    for i in 0..n {
        for co in 0..cout {
            for p in 0..lo {
                let gv = g[(i * cout + co) * lo + p];
                if gv == 0.0 {
                    continue;
                }
                for ci in 0..cin {
                    for kk in 0..k {
                        dx[xi(i, ci, p, kk)] += gv * w[wi(co, ci, kk)];
                    }
                }
            }
        }
    }
    (y, wg, bg, dx)
}

/// `CnnLstm::new`'s layer stack, built from the same seed stream.
fn reference_stack(cfg: CnnLstmConfig, seed: u64) -> Vec<Box<dyn Layer>> {
    let mut rng = SeedRng::new(seed);
    let f = cfg.conv_filters;
    vec![
        Box::new(Conv1d::new(1, f, cfg.conv_kernel, cfg.conv_stride, &mut rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool1d::new(cfg.pool_size)),
        Box::new(Conv1d::new(f, f, cfg.conv_kernel, cfg.conv_stride, &mut rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool1d::new(cfg.pool_size)),
        Box::new(Lstm::with_activation(f, cfg.lstm_units, cfg.lstm_activation, &mut rng)),
        Box::new(Dropout::new(cfg.dropout, rng.next_raw())),
        Box::new(Dense::new(cfg.lstm_units, cfg.n_classes, &mut rng)),
    ]
}

/// Run a `Conv1d` of shape `(n, cin, cout, k, stride, l)` forward and
/// backward on inputs and gradients with ReLU-style zeros and signed
/// zeros, and assert every output, gradient and input-gradient bit
/// against [`textbook_conv`].
fn check_conv_against_textbook(shape: (usize, usize, usize, usize, usize, usize), seed: u64) {
    let (n, cin, cout, k, stride, l) = shape;
    let mut conv = Conv1d::new(cin, cout, k, stride, &mut SeedRng::new(seed));
    let lo = conv.out_len(l);
    let x = sparse_signed(n * cin * l, seed ^ 3);
    let g = sparse_signed(n * cout * lo, seed ^ 5);
    let (w, b) = {
        let ps = conv.params_mut();
        (ps[0].value.clone(), ps[1].value.clone())
    };
    let (y_ref, wg_ref, bg_ref, dx_ref) = textbook_conv(&w, &b, &x, &g, shape);
    let y = conv.forward(&Tensor::new(&[n, cin, l], x), true);
    let dx = conv.backward(&Tensor::new(&[n, cout, lo], g));
    assert_eq!(bits(y.data()), bits(&y_ref), "forward {shape:?}");
    assert_eq!(bits(dx.data()), bits(&dx_ref), "input gradient {shape:?}");
    let ps = conv.params_mut();
    assert_eq!(bits(&ps[0].grad), bits(&wg_ref), "weight gradient {shape:?}");
    assert_eq!(bits(&ps[1].grad), bits(&bg_ref), "bias gradient {shape:?}");
}

#[test]
fn conv_matches_textbook_loops_at_every_sweep_path() {
    // `(n, cin, cout, k, stride, l)`: the default-scale first conv (the
    // width-8 sweep), width 8 from two channels, the paired sweep at a
    // narrow width (15) and at the default-scale second conv's, and a
    // shape below the im2col gate (the scalar path).
    let shapes = [
        (3, 1, 16, 8, 3, 600),
        (2, 2, 8, 4, 2, 1100),
        (2, 3, 8, 5, 1, 200),
        (3, 16, 16, 8, 3, 49),
        (2, 2, 3, 3, 2, 20),
    ];
    for (s, shape) in shapes.into_iter().enumerate() {
        check_conv_against_textbook(shape, 40 + s as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `Conv1d` forward output, parameter gradients and input gradient
    /// equal the textbook loops bit for bit on random shapes (see
    /// [`check_conv_against_textbook`]).
    #[test]
    fn conv_matches_textbook_loops_bitwise(
        n in 1usize..4,
        cin in 1usize..4,
        cout in 1usize..7,
        k in 1usize..10,
        stride in 1usize..4,
        extra in 0usize..400,
        seed in 0u64..1_000,
    ) {
        check_conv_against_textbook((n, cin, cout, k, stride, k + extra), seed);
    }

    /// `backward_params` accumulates exactly the parameter gradients
    /// `backward` does.
    #[test]
    fn conv_backward_params_matches_backward(
        cin in 1usize..3,
        cout in 1usize..6,
        extra in 0usize..300,
        seed in 0u64..1_000,
    ) {
        let (n, k, stride) = (2, 8, 3);
        let l = k + extra;
        let mut a = Conv1d::new(cin, cout, k, stride, &mut SeedRng::new(seed));
        let mut b = a.clone();
        let x = Tensor::new(&[n, cin, l], sparse_signed(n * cin * l, seed ^ 7));
        let lo = a.out_len(l);
        let g = Tensor::new(&[n, cout, lo], sparse_signed(n * cout * lo, seed ^ 9));
        let _ = a.forward(&x, true);
        let _ = b.forward(&x, true);
        let _ = a.backward(&g);
        b.backward_params(&g);
        for (pa, pb) in a.params_mut().into_iter().zip(b.params_mut()) {
            prop_assert_eq!(bits(&pa.grad), bits(&pb.grad));
        }
    }

    /// The packed matmul equals the textbook triple loop in both output
    /// layouts on ragged shapes: odd `m` straddling the 16/8/4-lane
    /// strips, `n` not a multiple of the two-row block, and `k` down to
    /// 1, with signed zeros in the operands.
    #[test]
    fn matmul_packed_matches_textbook(
        m in 1usize..40,
        n in 1usize..12,
        k in 1usize..20,
        seed in 0u64..1_000,
    ) {
        let w = sparse_signed(m * k, seed);
        let x = sparse_signed(n * k, seed ^ 1);
        let init = sparse_signed(m, seed ^ 2);
        let mut want = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = init[i];
                for t in 0..k {
                    acc += w[i * k + t] * x[j * k + t];
                }
                want[i * n + j] = acc;
            }
        }
        let mut wt = vec![0.0f32; m * k];
        transpose_into(&w, m, k, &mut wt);
        let mut rows = vec![0.0f32; m * n];
        matmul_packed(&wt, &x, m, n, k, &init, OutLayout::RowMajor, &mut rows);
        prop_assert_eq!(bits(&rows), bits(&want));
        let mut cols = vec![0.0f32; m * n];
        matmul_packed(&wt, &x, m, n, k, &init, OutLayout::ColMajor, &mut cols);
        let cols_t: Vec<f32> = (0..m * n).map(|e| cols[(e % n) * m + e / n]).collect();
        prop_assert_eq!(bits(&cols_t), bits(&want));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A `CnnLstm::train_batch` step, which skips the first layer's
    /// input gradient, leaves the same parameter bits as a reference
    /// step that runs plain `backward` through every layer.
    #[test]
    fn train_step_matches_full_backward_reference(
        filters in 4usize..17,
        batch in 1usize..9,
        seed in 0u64..1_000,
    ) {
        let cfg = CnnLstmConfig {
            dropout: 0.5,
            learning_rate: 0.01,
            ..CnnLstmConfig::scaled(300, 4, filters)
        };
        let x = Tensor::new(&[batch, 1, 300], sparse_signed(batch * 300, seed ^ 11));
        let labels: Vec<usize> = (0..batch).map(|i| i % 4).collect();
        let mut net = CnnLstm::new(cfg, seed);
        let mut layers = reference_stack(cfg, seed);
        let mut adam = Adam::new(cfg.learning_rate);
        for _ in 0..2 {
            net.train_batch(&x, &labels);
            let mut act = x.clone();
            for layer in layers.iter_mut() {
                act = layer.forward(&act, true);
            }
            let (_, mut g) = softmax_cross_entropy(&act, &labels);
            for layer in layers.iter_mut().rev() {
                g = layer.backward(&g);
            }
            adam.begin_step();
            let mut pi = 0;
            for layer in layers.iter_mut() {
                layer.for_each_param(&mut |p| {
                    adam.step_param(pi, p);
                    pi += 1;
                });
            }
        }
        let want: Vec<Vec<u32>> = layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .map(|p| bits(&p.value))
            .collect();
        let got: Vec<Vec<u32>> = net.save_params().iter().map(|p| bits(p)).collect();
        prop_assert_eq!(got, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Conv output geometry always matches the closed-form out_len.
    #[test]
    fn conv_output_geometry(
        n in 1usize..3,
        cin in 1usize..3,
        cout in 1usize..4,
        k in 1usize..6,
        stride in 1usize..4,
        extra in 0usize..20,
        seed in 0u64..1_000,
    ) {
        let l = k + extra;
        let mut rng = SeedRng::new(seed);
        let mut conv = Conv1d::new(cin, cout, k, stride, &mut rng);
        let x = tensor3(n, cin, l, seed);
        let y = conv.forward(&x, false);
        prop_assert_eq!(y.shape(), &[n, cout, conv.out_len(l)]);
    }

    /// Max pooling: every output equals the max of its window, and the
    /// backward pass routes exactly the incoming gradient mass.
    #[test]
    fn maxpool_routes_gradient_mass(
        n in 1usize..3,
        c in 1usize..3,
        windows in 1usize..6,
        size in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let l = windows * size;
        let mut pool = MaxPool1d::new(size);
        let x = tensor3(n, c, l, seed);
        let y = pool.forward(&x, true);
        // Output values present in input.
        for &v in y.data() {
            prop_assert!(x.data().contains(&v));
        }
        let g = tensor3(n, c, windows, seed ^ 1);
        let dx = pool.backward(&g);
        let g_sum: f32 = g.data().iter().sum();
        let dx_sum: f32 = dx.data().iter().sum();
        prop_assert!((g_sum - dx_sum).abs() < 1e-4 * (1.0 + g_sum.abs()));
    }

    /// ReLU backward zeroes exactly the positions forward zeroed.
    #[test]
    fn relu_mask_consistency(n in 1usize..4, f in 1usize..20, seed in 0u64..1_000) {
        let mut relu = Relu::new();
        let x = {
            let mut rng = SeedRng::new(seed);
            Tensor::new(&[n, f], (0..n * f).map(|_| rng.standard_normal() as f32).collect())
        };
        let y = relu.forward(&x, true);
        let ones = Tensor::new(&[n, f], vec![1.0; n * f]);
        let dx = relu.backward(&ones);
        for i in 0..n * f {
            prop_assert_eq!(dx.data()[i] != 0.0, y.data()[i] > 0.0);
        }
    }

    /// Dense layers are affine: f(a+b) - f(b) = f(a) - f(0).
    #[test]
    fn dense_is_affine(fin in 1usize..8, fout in 1usize..6, seed in 0u64..1_000) {
        let mut rng = SeedRng::new(seed);
        let mut d = Dense::new(fin, fout, &mut rng);
        let mut gen = SeedRng::new(seed ^ 77);
        let a: Vec<f32> = (0..fin).map(|_| gen.standard_normal() as f32).collect();
        let b: Vec<f32> = (0..fin).map(|_| gen.standard_normal() as f32).collect();
        let ab: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let run = |d: &mut Dense, v: &[f32]| {
            d.forward(&Tensor::new(&[1, v.len()], v.to_vec()), false).into_data()
        };
        let f_ab = run(&mut d, &ab);
        let f_a = run(&mut d, &a);
        let f_b = run(&mut d, &b);
        let f_0 = run(&mut d, &vec![0.0; fin]);
        for i in 0..fout {
            let lhs = f_ab[i] - f_b[i];
            let rhs = f_a[i] - f_0[i];
            prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
        }
    }
}
