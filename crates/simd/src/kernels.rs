//! The shared kernel bodies, generic over a [`Vf64`] width.
//!
//! Each kernel vectorizes only across *independent* elements (nodes,
//! lanes, bins): a block of `V::W` elements is advanced with one vector
//! op per scalar op of the reference sequence, and the sub-`W` tail
//! falls back to the literal scalar `mul_add` forms. Instantiated at
//! `f64` (width 1) the block loop *is* the reference sequence, so the
//! scalar dispatch level and the vector levels share one definition and
//! cannot drift apart.
//!
//! The lane-major kernels (batched fold, gather and companion updates)
//! run on lane blocks of compile-time width `B <= 8` (see
//! `lane_blocks!`): `B / V::W` vectors plus `B % V::W` scalar lanes,
//! all fixed at monomorphization, so no block runs a runtime-length
//! tail loop. Runtime tails over a row that the next iteration reads back
//! were the batched transient's partial-group cliff: the compiler turns
//! them into masked AVX loads and stores (`vmaskmovpd`), and a masked
//! load of a row just written by a masked store cannot be forwarded
//! from the store buffer.
//!
//! All functions are `unsafe` only because [`Vf64::load`]/[`Vf64::store`]
//! take raw pointers; every pointer passed stays inside the bounds of
//! the slice it came from. Callers must ensure the instantiated vector
//! type's target features are available (see [`crate::vector::Vf64`]).

use crate::vector::Vf64;

/// Emits one `#[target_feature]` entry point per kernel, instantiated
/// at a vector type — invoked once per dispatch tier by the per-arch
/// modules.
macro_rules! target_kernels {
    ($feat:literal, $vec:ty) => {
        /// [`crate::SimdLevel::fold_cols`] at this tier's width.
        ///
        /// # Safety
        ///
        /// The tier's target features must be present at runtime.
        #[target_feature(enable = $feat)]
        pub(crate) unsafe fn fold_cols(
            cols: &[f64],
            n_nodes: usize,
            inputs: &[f64],
            xn: &mut [f64],
        ) {
            // SAFETY: forwarded contract.
            unsafe { crate::kernels::fold_cols::<$vec>(cols, n_nodes, inputs, xn) }
        }

        /// [`crate::SimdLevel::fold_cols_lanes`] at this tier's width.
        ///
        /// # Safety
        ///
        /// The tier's target features must be present at runtime.
        #[target_feature(enable = $feat)]
        pub(crate) unsafe fn fold_cols_lanes(
            cols: &[f64],
            n_nodes: usize,
            inputs: &[f64],
            lanes: usize,
            xn: &mut [f64],
        ) {
            // SAFETY: forwarded contract.
            unsafe { crate::kernels::fold_cols_lanes::<$vec>(cols, n_nodes, inputs, lanes, xn) }
        }

        /// [`crate::SimdLevel::gather_hist`] at this tier's width.
        ///
        /// # Safety
        ///
        /// The tier's target features must be present at runtime.
        #[target_feature(enable = $feat)]
        pub(crate) unsafe fn gather_hist(
            g: &[f64],
            v: &[f64],
            i: &[f64],
            lanes: usize,
            out: &mut [f64],
        ) {
            // SAFETY: forwarded contract.
            unsafe { crate::kernels::gather_hist::<$vec>(g, v, i, lanes, out) }
        }

        /// [`crate::SimdLevel::cap_updates`] at this tier's width.
        ///
        /// # Safety
        ///
        /// The tier's target features must be present at runtime.
        #[target_feature(enable = $feat)]
        pub(crate) unsafe fn cap_updates(
            g: &[f64],
            rows: &[[u32; 2]],
            state: &[f64],
            lanes: usize,
            v: &mut [f64],
            i: &mut [f64],
        ) {
            // SAFETY: forwarded contract.
            unsafe { crate::kernels::cap_updates::<$vec>(g, rows, state, lanes, v, i) }
        }

        /// [`crate::SimdLevel::ind_updates`] at this tier's width.
        ///
        /// # Safety
        ///
        /// The tier's target features must be present at runtime.
        #[target_feature(enable = $feat)]
        pub(crate) unsafe fn ind_updates(
            g: &[f64],
            rows: &[[u32; 2]],
            state: &[f64],
            lanes: usize,
            v: &mut [f64],
            i: &mut [f64],
        ) {
            // SAFETY: forwarded contract.
            unsafe { crate::kernels::ind_updates::<$vec>(g, rows, state, lanes, v, i) }
        }

        /// [`crate::SimdLevel::goertzel`] at this tier's width.
        ///
        /// # Safety
        ///
        /// The tier's target features must be present at runtime.
        #[target_feature(enable = $feat)]
        pub(crate) unsafe fn goertzel(
            samples: &[f64],
            coeff: &[f64],
            s1: &mut [f64],
            s2: &mut [f64],
        ) {
            // SAFETY: forwarded contract.
            unsafe { crate::kernels::goertzel::<$vec>(samples, coeff, s1, s2) }
        }

        /// [`crate::SimdLevel::mul`] at this tier's width.
        ///
        /// # Safety
        ///
        /// The tier's target features must be present at runtime.
        #[target_feature(enable = $feat)]
        pub(crate) unsafe fn mul(x: &[f64], y: &[f64], out: &mut [f64]) {
            // SAFETY: forwarded contract.
            unsafe { crate::kernels::mul::<$vec>(x, y, out) }
        }
    };
}

pub(crate) use target_kernels;

/// Serial response-column fold; see [`crate::SimdLevel::fold_cols`].
#[inline(always)]
pub(crate) unsafe fn fold_cols<V: Vf64>(
    cols: &[f64],
    n_nodes: usize,
    inputs: &[f64],
    xn: &mut [f64],
) {
    debug_assert_eq!(xn.len(), n_nodes);
    debug_assert_eq!(cols.len(), n_nodes * inputs.len());
    xn.fill(0.0);
    for (col, &w) in cols.chunks_exact(n_nodes.max(1)).zip(inputs) {
        let wv = V::splat(w);
        let mut ci = col.chunks_exact(V::W);
        let mut xi = xn.chunks_exact_mut(V::W);
        for (c, x) in ci.by_ref().zip(xi.by_ref()) {
            // SAFETY: both chunks hold exactly V::W elements.
            unsafe {
                wv.fmadd(V::load(c.as_ptr()), V::load(x.as_ptr()))
                    .store(x.as_mut_ptr())
            };
        }
        for (x, &c) in xi.into_remainder().iter_mut().zip(ci.remainder()) {
            *x = w.mul_add(c, *x);
        }
    }
}

/// Widest lane block a lane-major kernel runs as one compile-time-width
/// body; wider batches split into blocks of this width plus one
/// remainder block.
const MAX_BLOCK: usize = 8;

/// Nodes whose accumulators one fold pass keeps in registers.
const NODE_BLOCK: usize = 4;

/// Splits `lanes` into [`MAX_BLOCK`]-wide blocks plus one remainder
/// block and runs `$body::<V, B, ..>(l0, args..)` on each, with the block
/// width `B` a compile-time constant and `l0` the block's first lane.
macro_rules! lane_blocks {
    ($lanes:expr, $body:ident::<$v:ty $(, $extra:tt)*>($($arg:expr),* $(,)?)) => {{
        let lanes: usize = $lanes;
        let mut l0 = 0;
        while l0 < lanes {
            let width = (lanes - l0).min(MAX_BLOCK);
            match width {
                8 => $body::<$v, 8 $(, $extra)*>(l0, $($arg),*),
                7 => $body::<$v, 7 $(, $extra)*>(l0, $($arg),*),
                6 => $body::<$v, 6 $(, $extra)*>(l0, $($arg),*),
                5 => $body::<$v, 5 $(, $extra)*>(l0, $($arg),*),
                4 => $body::<$v, 4 $(, $extra)*>(l0, $($arg),*),
                3 => $body::<$v, 3 $(, $extra)*>(l0, $($arg),*),
                2 => $body::<$v, 2 $(, $extra)*>(l0, $($arg),*),
                _ => $body::<$v, 1 $(, $extra)*>(l0, $($arg),*),
            }
            l0 += width;
        }
    }};
}

/// Lane-major batched fold; see [`crate::SimdLevel::fold_cols_lanes`].
#[inline(always)]
pub(crate) unsafe fn fold_cols_lanes<V: Vf64>(
    cols: &[f64],
    n_nodes: usize,
    inputs: &[f64],
    lanes: usize,
    xn: &mut [f64],
) {
    debug_assert!(lanes > 0);
    debug_assert_eq!(xn.len(), n_nodes * lanes);
    debug_assert_eq!(inputs.len() * n_nodes, cols.len() * lanes);
    // SAFETY: every block lies inside `0..lanes`.
    unsafe { lane_blocks!(lanes, fold_block::<V>(cols, n_nodes, inputs, lanes, xn)) }
}

/// The fold for lanes `l0..l0 + B`: node blocks of [`NODE_BLOCK`], then
/// the leftover nodes one at a time.
///
/// # Safety
///
/// `l0 + B <= lanes`, plus the shape contract of [`fold_cols_lanes`].
#[inline(always)]
unsafe fn fold_block<V: Vf64, const B: usize>(
    l0: usize,
    cols: &[f64],
    n_nodes: usize,
    inputs: &[f64],
    lanes: usize,
    xn: &mut [f64],
) {
    debug_assert!(l0 + B <= lanes);
    let mut i0 = 0;
    while i0 + NODE_BLOCK <= n_nodes {
        // SAFETY: `i0 + NODE_BLOCK <= n_nodes`; forwarded lane bound.
        unsafe { fold_nodes::<V, B, NODE_BLOCK>(l0, i0, cols, n_nodes, inputs, lanes, xn) };
        i0 += NODE_BLOCK;
    }
    while i0 < n_nodes {
        // SAFETY: `i0 < n_nodes`; forwarded lane bound.
        unsafe { fold_nodes::<V, B, 1>(l0, i0, cols, n_nodes, inputs, lanes, xn) };
        i0 += 1;
    }
}

/// Register-blocked fold of nodes `i0..i0 + N` over lanes `l0..l0 + B`.
/// Each (node, lane) accumulator starts at `+0.0` and takes
/// `w.mul_add(c, acc)` for every input `j` in ascending order — the
/// reference sequence — in `B / V::W` vectors plus `B % V::W` scalars
/// held in registers across the whole `j` loop, then is stored once.
///
/// # Safety
///
/// `i0 + N <= n_nodes` and `l0 + B <= lanes`, plus the shape contract of
/// [`fold_cols_lanes`].
#[inline(always)]
unsafe fn fold_nodes<V: Vf64, const B: usize, const N: usize>(
    l0: usize,
    i0: usize,
    cols: &[f64],
    n_nodes: usize,
    inputs: &[f64],
    lanes: usize,
    xn: &mut [f64],
) {
    debug_assert!(i0 + N <= n_nodes && l0 + B <= lanes);
    let nv = B / V::W;
    let ns = nv * V::W;
    let mut vacc = [[V::splat(0.0); MAX_BLOCK]; N];
    let mut sacc = [[0.0f64; MAX_BLOCK]; N];
    for (j, w) in inputs.chunks_exact(lanes).enumerate() {
        let w = &w[l0..l0 + B];
        let c = &cols[j * n_nodes + i0..j * n_nodes + i0 + N];
        let mut wv = [V::splat(0.0); MAX_BLOCK];
        for (q, x) in wv[..nv].iter_mut().enumerate() {
            // SAFETY: `(q + 1) * V::W <= ns <= B = w.len()`.
            *x = unsafe { V::load(w.as_ptr().add(q * V::W)) };
        }
        for ((va, sa), &cn) in vacc.iter_mut().zip(&mut sacc).zip(c) {
            let cv = V::splat(cn);
            for (a, &x) in va[..nv].iter_mut().zip(&wv[..nv]) {
                *a = x.fmadd(cv, *a);
            }
            for (a, &x) in sa[..B - ns].iter_mut().zip(&w[ns..]) {
                *a = x.mul_add(cn, *a);
            }
        }
    }
    for (n, (va, sa)) in vacc.iter().zip(&sacc).enumerate() {
        let at = (i0 + n) * lanes + l0;
        let row = &mut xn[at..at + B];
        for (q, a) in va[..nv].iter().enumerate() {
            // SAFETY: `(q + 1) * V::W <= ns <= B = row.len()`.
            unsafe { a.store(row.as_mut_ptr().add(q * V::W)) };
        }
        row[ns..].copy_from_slice(&sa[..B - ns]);
    }
}

/// Trapezoidal history gather; see [`crate::SimdLevel::gather_hist`].
#[inline(always)]
pub(crate) unsafe fn gather_hist<V: Vf64>(
    g: &[f64],
    v: &[f64],
    i: &[f64],
    lanes: usize,
    out: &mut [f64],
) {
    debug_assert_eq!(out.len(), g.len() * lanes);
    debug_assert_eq!(v.len(), out.len());
    debug_assert_eq!(i.len(), out.len());
    if lanes == 1 {
        // Serial gather: vectorize across the element dimension.
        let mut gc = g.chunks_exact(V::W);
        let mut vc = v.chunks_exact(V::W);
        let mut ic = i.chunks_exact(V::W);
        let mut oc = out.chunks_exact_mut(V::W);
        for (((gk, vk), ik), ok) in gc
            .by_ref()
            .zip(vc.by_ref())
            .zip(ic.by_ref())
            .zip(oc.by_ref())
        {
            // SAFETY: all chunks hold exactly V::W elements.
            unsafe {
                V::load(gk.as_ptr())
                    .fmadd(V::load(vk.as_ptr()), V::load(ik.as_ptr()))
                    .store(ok.as_mut_ptr())
            };
        }
        for (((&gk, &vk), &ik), ok) in gc
            .remainder()
            .iter()
            .zip(vc.remainder())
            .zip(ic.remainder())
            .zip(oc.into_remainder())
        {
            *ok = gk.mul_add(vk, ik);
        }
        return;
    }
    // Batched gather: vectorize across the lane dimension per element.
    // SAFETY: every block lies inside `0..lanes`.
    unsafe { lane_blocks!(lanes, gather_block::<V>(g, v, i, lanes, out)) }
}

/// The batched gather for lanes `l0..l0 + B` of every element.
///
/// # Safety
///
/// `l0 + B <= lanes`, plus the shape contract of [`gather_hist`].
#[inline(always)]
unsafe fn gather_block<V: Vf64, const B: usize>(
    l0: usize,
    g: &[f64],
    v: &[f64],
    i: &[f64],
    lanes: usize,
    out: &mut [f64],
) {
    debug_assert!(l0 + B <= lanes);
    let nv = B / V::W;
    let ns = nv * V::W;
    for (k, &gk) in g.iter().enumerate() {
        let row = k * lanes + l0..k * lanes + l0 + B;
        let (vk, ik, ok) = (&v[row.clone()], &i[row.clone()], &mut out[row]);
        let gv = V::splat(gk);
        for q in 0..nv {
            let at = q * V::W;
            // SAFETY: `at + V::W <= ns <= B`, the length of all three rows.
            unsafe {
                gv.fmadd(V::load(vk.as_ptr().add(at)), V::load(ik.as_ptr().add(at)))
                    .store(ok.as_mut_ptr().add(at))
            };
        }
        for l in ns..B {
            ok[l] = gk.mul_add(vk[l], ik[l]);
        }
    }
}

/// Companion update shared by capacitors (`CAP = true`, history enters
/// with a minus) and inductors (`CAP = false`, plus); see
/// [`crate::SimdLevel::cap_updates`] / [`crate::SimdLevel::ind_updates`].
#[inline(always)]
unsafe fn elem_updates<V: Vf64, const CAP: bool>(
    g: &[f64],
    rows: &[[u32; 2]],
    state: &[f64],
    lanes: usize,
    v: &mut [f64],
    i: &mut [f64],
) {
    debug_assert!(lanes > 0);
    debug_assert_eq!(rows.len(), g.len());
    debug_assert_eq!(v.len(), g.len() * lanes);
    debug_assert_eq!(i.len(), v.len());
    // SAFETY: every block lies inside `0..lanes`.
    unsafe { lane_blocks!(lanes, elem_block::<V, CAP>(g, rows, state, lanes, v, i)) }
}

/// The companion update for lanes `l0..l0 + B` of every element.
///
/// # Safety
///
/// `l0 + B <= lanes`, plus the shape contract of [`elem_updates`].
#[inline(always)]
unsafe fn elem_block<V: Vf64, const B: usize, const CAP: bool>(
    l0: usize,
    g: &[f64],
    rows: &[[u32; 2]],
    state: &[f64],
    lanes: usize,
    v: &mut [f64],
    i: &mut [f64],
) {
    debug_assert!(l0 + B <= lanes);
    let nv = B / V::W;
    let ns = nv * V::W;
    for (k, (&gk, row)) in g.iter().zip(rows).enumerate() {
        let a = row[0] as usize * lanes + l0;
        let b = row[1] as usize * lanes + l0;
        let base = k * lanes + l0;
        let (sa, sb) = (&state[a..a + B], &state[b..b + B]);
        let (vk, ik) = (&mut v[base..base + B], &mut i[base..base + B]);
        let gv = V::splat(gk);
        for q in 0..nv {
            let at = q * V::W;
            // SAFETY: `at + V::W <= ns <= B`, the length of all four rows.
            unsafe {
                let vn = V::load(sa.as_ptr().add(at)).sub(V::load(sb.as_ptr().add(at)));
                let hist = gv.fmadd(V::load(vk.as_ptr().add(at)), V::load(ik.as_ptr().add(at)));
                let next = if CAP {
                    gv.fmsub(vn, hist)
                } else {
                    gv.fmadd(vn, hist)
                };
                next.store(ik.as_mut_ptr().add(at));
                vn.store(vk.as_mut_ptr().add(at));
            }
        }
        for l in ns..B {
            let vn = sa[l] - sb[l];
            let hist = gk.mul_add(vk[l], ik[l]);
            ik[l] = if CAP {
                gk.mul_add(vn, -hist)
            } else {
                gk.mul_add(vn, hist)
            };
            vk[l] = vn;
        }
    }
}

/// Capacitor companion update; see [`crate::SimdLevel::cap_updates`].
#[inline(always)]
pub(crate) unsafe fn cap_updates<V: Vf64>(
    g: &[f64],
    rows: &[[u32; 2]],
    state: &[f64],
    lanes: usize,
    v: &mut [f64],
    i: &mut [f64],
) {
    // SAFETY: forwarded contract.
    unsafe { elem_updates::<V, true>(g, rows, state, lanes, v, i) }
}

/// Inductor companion update; see [`crate::SimdLevel::ind_updates`].
#[inline(always)]
pub(crate) unsafe fn ind_updates<V: Vf64>(
    g: &[f64],
    rows: &[[u32; 2]],
    state: &[f64],
    lanes: usize,
    v: &mut [f64],
    i: &mut [f64],
) {
    // SAFETY: forwarded contract.
    unsafe { elem_updates::<V, false>(g, rows, state, lanes, v, i) }
}

/// Goertzel recurrence; see [`crate::SimdLevel::goertzel`]. Quad-sample
/// outer loop over bin-vector blocks, exactly the shape of the historic
/// scalar loop — four samples advance per state load/store so the pass
/// stays memory-lean, and per bin the chain is the single-sample
/// recurrence unrolled.
#[inline(always)]
pub(crate) unsafe fn goertzel<V: Vf64>(
    samples: &[f64],
    coeff: &[f64],
    s1: &mut [f64],
    s2: &mut [f64],
) {
    let nb = coeff.len();
    debug_assert_eq!(s1.len(), nb);
    debug_assert_eq!(s2.len(), nb);
    let mut quads = samples.chunks_exact(4);
    for quad in quads.by_ref() {
        let (x0, x1, x2, x3) = (quad[0], quad[1], quad[2], quad[3]);
        let (v0, v1, v2, v3) = (V::splat(x0), V::splat(x1), V::splat(x2), V::splat(x3));
        let mut j = 0;
        while j + V::W <= nb {
            // SAFETY: `j + V::W <= nb` bounds every pointer.
            unsafe {
                let c = V::load(coeff.as_ptr().add(j));
                let a = V::load(s1.as_ptr().add(j));
                let b = V::load(s2.as_ptr().add(j));
                let t0 = c.fmadd(a, v0.sub(b));
                let t1 = c.fmadd(t0, v1.sub(a));
                let t2 = c.fmadd(t1, v2.sub(t0));
                let t3 = c.fmadd(t2, v3.sub(t1));
                t3.store(s1.as_mut_ptr().add(j));
                t2.store(s2.as_mut_ptr().add(j));
            }
            j += V::W;
        }
        while j < nb {
            let c = coeff[j];
            let (a, b) = (s1[j], s2[j]);
            let t0 = c.mul_add(a, x0 - b);
            let t1 = c.mul_add(t0, x1 - a);
            let t2 = c.mul_add(t1, x2 - t0);
            let t3 = c.mul_add(t2, x3 - t1);
            s1[j] = t3;
            s2[j] = t2;
            j += 1;
        }
    }
    for &xv in quads.remainder() {
        for ((c, a), b) in coeff.iter().zip(s1.iter_mut()).zip(s2.iter_mut()) {
            let s0 = c.mul_add(*a, xv - *b);
            *b = *a;
            *a = s0;
        }
    }
}

/// Elementwise product; see [`crate::SimdLevel::mul`].
#[inline(always)]
pub(crate) unsafe fn mul<V: Vf64>(x: &[f64], y: &[f64], out: &mut [f64]) {
    debug_assert_eq!(x.len(), out.len());
    debug_assert_eq!(y.len(), out.len());
    let mut xc = x.chunks_exact(V::W);
    let mut yc = y.chunks_exact(V::W);
    let mut oc = out.chunks_exact_mut(V::W);
    for ((xk, yk), ok) in xc.by_ref().zip(yc.by_ref()).zip(oc.by_ref()) {
        // SAFETY: all chunks hold exactly V::W elements.
        unsafe {
            V::load(xk.as_ptr())
                .mul(V::load(yk.as_ptr()))
                .store(ok.as_mut_ptr())
        };
    }
    for ((&xk, &yk), ok) in xc
        .remainder()
        .iter()
        .zip(yc.remainder())
        .zip(oc.into_remainder())
    {
        *ok = xk * yk;
    }
}
