//! Property tests pinning the crate's bit-equality contract: every
//! dispatch level supported on the host — the scalar level included —
//! must produce byte-for-byte the results of a naive in-test reference
//! written straight from each op's documented formula, for every op,
//! across randomized shapes, lane counts, and data. Comparing against
//! the formula rather than the scalar level keeps the shared kernel
//! bodies honest: a change to them moves the scalar level too.

use emvolt_simd::{supported_levels, SimdLevel};
use proptest::prelude::*;

/// Finite, well-scaled sample values.
fn vals(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0e3f64..1.0e3, len)
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Runs `op` once per supported level and asserts the output bits match
/// `reference` exactly.
fn assert_levels_match(reference: Vec<Vec<u64>>, mut op: impl FnMut(SimdLevel) -> Vec<Vec<u64>>) {
    for &lv in supported_levels() {
        let got = op(lv);
        assert_eq!(
            got,
            reference,
            "level {} diverged from the naive reference",
            lv.as_str()
        );
    }
}

/// The lane-major fold's formula: per lane, zero `xn`, then
/// `xn[i] = w[j].mul_add(cols[j*n_nodes + i], xn[i])` for `j` ascending.
/// `lanes == 1` is the serial fold.
fn naive_fold(cols: &[f64], n_nodes: usize, inputs: &[f64], lanes: usize) -> Vec<f64> {
    let mut xn = vec![0.0; n_nodes * lanes];
    for j in 0..inputs.len() / lanes {
        for i in 0..n_nodes {
            for l in 0..lanes {
                let x = &mut xn[i * lanes + l];
                *x = inputs[j * lanes + l].mul_add(cols[j * n_nodes + i], *x);
            }
        }
    }
    xn
}

/// `out[k*lanes + l] = g[k].mul_add(v[k*lanes + l], i[k*lanes + l])`.
fn naive_gather(g: &[f64], v: &[f64], i: &[f64], lanes: usize) -> Vec<f64> {
    (0..g.len() * lanes)
        .map(|at| g[at / lanes].mul_add(v[at], i[at]))
        .collect()
}

/// Per element `k` and lane `l`, with `vn = state[a][l] - state[b][l]`:
/// `hist = g.mul_add(v, i)`, then `i = g.mul_add(vn, -hist)` for a
/// capacitor or `g.mul_add(vn, hist)` for an inductor, and `v = vn`.
fn naive_updates(
    g: &[f64],
    rows: &[[u32; 2]],
    state: &[f64],
    lanes: usize,
    v: &mut [f64],
    i: &mut [f64],
    cap: bool,
) {
    for (k, (&gk, row)) in g.iter().zip(rows).enumerate() {
        for l in 0..lanes {
            let at = k * lanes + l;
            let vn = state[row[0] as usize * lanes + l] - state[row[1] as usize * lanes + l];
            let hist = gk.mul_add(v[at], i[at]);
            i[at] = if cap {
                gk.mul_add(vn, -hist)
            } else {
                gk.mul_add(vn, hist)
            };
            v[at] = vn;
        }
    }
}

/// The single-sample Goertzel recurrence, one sample at a time.
fn naive_goertzel(samples: &[f64], coeff: &[f64], s1: &mut [f64], s2: &mut [f64]) {
    for &x in samples {
        for ((&c, a), b) in coeff.iter().zip(s1.iter_mut()).zip(s2.iter_mut()) {
            let s0 = c.mul_add(*a, x - *b);
            *b = *a;
            *a = s0;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fold_cols_matches_reference(
        n_nodes in 1usize..=16,
        n_inputs in 1usize..=12,
        seed in vals(16 * 12 + 12),
    ) {
        let cols = &seed[..n_nodes * n_inputs];
        let inputs = &seed[n_nodes * n_inputs..n_nodes * n_inputs + n_inputs];
        let want = vec![bits(&naive_fold(cols, n_nodes, inputs, 1))];
        assert_levels_match(want, |lv| {
            let mut xn = vec![0.0; n_nodes];
            lv.fold_cols(cols, n_nodes, inputs, &mut xn);
            vec![bits(&xn)]
        });
    }

    #[test]
    fn fold_cols_lanes_matches_reference(
        n_nodes in 1usize..=16,
        n_inputs in 1usize..=12,
        lanes in 1usize..=20,
        seed in vals(16 * 12 + 12 * 20),
    ) {
        let cols = &seed[..n_nodes * n_inputs];
        let inputs = &seed[n_nodes * n_inputs..n_nodes * n_inputs + n_inputs * lanes];
        let want = vec![bits(&naive_fold(cols, n_nodes, inputs, lanes))];
        assert_levels_match(want, |lv| {
            // Stale contents must not leak into the result.
            let mut xn = vec![f64::NAN; n_nodes * lanes];
            lv.fold_cols_lanes(cols, n_nodes, inputs, lanes, &mut xn);
            vec![bits(&xn)]
        });
    }

    #[test]
    fn gather_hist_matches_reference(
        n in 1usize..24,
        lanes in 1usize..=20,
        seed in vals(24 + 2 * 24 * 20),
    ) {
        let g = &seed[..n];
        let v = &seed[n..n + n * lanes];
        let i = &seed[n + n * lanes..n + 2 * n * lanes];
        let want = vec![bits(&naive_gather(g, v, i, lanes))];
        assert_levels_match(want, |lv| {
            let mut out = vec![0.0; n * lanes];
            lv.gather_hist(g, v, i, lanes, &mut out);
            vec![bits(&out)]
        });
    }

    #[test]
    fn elem_updates_match_reference(
        n in 1usize..16,
        n_rows in 2usize..8,
        lanes in 1usize..=20,
        row_seed in prop::collection::vec(0u32..8, 2 * 16),
        seed in vals(16 + 8 * 20 + 2 * 16 * 20),
        cap in any::<bool>(),
    ) {
        let rows: Vec<[u32; 2]> = (0..n)
            .map(|k| [row_seed[2 * k] % n_rows as u32, row_seed[2 * k + 1] % n_rows as u32])
            .collect();
        let g = &seed[..n];
        let state = &seed[n..n + n_rows * lanes];
        let v0 = &seed[n + n_rows * lanes..n + n_rows * lanes + n * lanes];
        let i0 = &seed[n + n_rows * lanes + n * lanes..n + n_rows * lanes + 2 * n * lanes];
        let (mut v, mut i) = (v0.to_vec(), i0.to_vec());
        naive_updates(g, &rows, state, lanes, &mut v, &mut i, cap);
        assert_levels_match(vec![bits(&v), bits(&i)], |lv| {
            let mut v = v0.to_vec();
            let mut i = i0.to_vec();
            if cap {
                lv.cap_updates(g, &rows, state, lanes, &mut v, &mut i);
            } else {
                lv.ind_updates(g, &rows, state, lanes, &mut v, &mut i);
            }
            vec![bits(&v), bits(&i)]
        });
    }

    #[test]
    fn goertzel_matches_reference(
        n_samples in 1usize..64,
        n_bins in 1usize..24,
        samples in vals(64),
        coeff in prop::collection::vec(-2.0f64..2.0, 24),
        state in vals(2 * 24),
    ) {
        let samples = &samples[..n_samples];
        let coeff = &coeff[..n_bins];
        let (mut s1, mut s2) = (state[..n_bins].to_vec(), state[24..24 + n_bins].to_vec());
        naive_goertzel(samples, coeff, &mut s1, &mut s2);
        assert_levels_match(vec![bits(&s1), bits(&s2)], |lv| {
            let mut s1 = state[..n_bins].to_vec();
            let mut s2 = state[24..24 + n_bins].to_vec();
            lv.goertzel(samples, coeff, &mut s1, &mut s2);
            vec![bits(&s1), bits(&s2)]
        });
    }

    #[test]
    fn mul_matches_reference(n in 1usize..64, seed in vals(2 * 64)) {
        let x = &seed[..n];
        let y = &seed[64..64 + n];
        let want: Vec<f64> = x.iter().zip(y).map(|(a, b)| a * b).collect();
        assert_levels_match(vec![bits(&want)], |lv| {
            let mut out = vec![0.0; n];
            lv.mul(x, y, &mut out);
            vec![bits(&out)]
        });
    }
}
