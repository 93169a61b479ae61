#include "rns/simd_kernels.h"

#include <algorithm>

#include "rns/bconv.h"
#include "rns/modulus.h"
#include "rns/ntt.h"
#include "rns/poly.h"

#if (defined(__x86_64__) || defined(__i386__)) &&                        \
    (defined(__GNUC__) || defined(__clang__))
#define ARK_SIMD_X86 1
#include <immintrin.h>
// GCC's AVX-512 intrinsic headers self-initialize the result of
// _mm512_undefined_epi32() (`__Y = __Y`), which trips
// -Wmaybe-uninitialized when those intrinsics inline into our
// kernels (GCC bug 105593). The value is overwritten by the masked
// builtin before use; silence the false positive for this TU only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif
#endif

namespace ark {

#ifdef ARK_SIMD_X86

// Function-level target attributes (instead of per-file -mavx* flags)
// keep every vector instruction inside these bodies: nothing outside
// can accidentally be auto-vectorized with an ISA the host lacks, and
// runtime dispatch via detectSimdTier() stays safe in one binary.
#define ARK_T512 __attribute__((target("avx512f,avx512dq")))
#define ARK_T256 __attribute__((target("avx2")))

namespace {

// ---------------------------------------------------------------------------
// AVX-512F helpers: 64x64 multiplies built from 32x32->64 partial
// products (_mm512_mul_epu32 reads the low 32 bits of each lane).
// All arithmetic is exact mod 2^64, so lane k computes precisely what
// the scalar loop computes for element k.
// ---------------------------------------------------------------------------

ARK_T512 inline __m512i
set1_512(u64 v)
{
    return _mm512_set1_epi64(static_cast<long long>(v));
}

ARK_T512 inline __m512i
load512(const u64 *p)
{
    return _mm512_loadu_si512(p);
}

ARK_T512 inline void
store512(u64 *p, __m512i v)
{
    _mm512_storeu_si512(p, v);
}

/** v >= bound ? v - bound : v (unsigned), lane-wise. */
ARK_T512 inline __m512i
csub512(__m512i v, __m512i bound)
{
    return _mm512_mask_sub_epi64(
        v, _mm512_cmpge_epu64_mask(v, bound), v, bound);
}

/** Low 64 bits of x * c per lane; c_hi is unused on this tier (the
 *  tier requires AVX-512DQ, whose vpmullq is a native 64-bit low
 *  multiply) but kept so call sites read the same as the AVX2 path. */
ARK_T512 inline __m512i
mullo64_512(__m512i x, __m512i c, __m512i c_hi)
{
    (void)c_hi;
    return _mm512_mullo_epi64(x, c);
}

/** High 64 bits of x * c per lane. */
ARK_T512 inline __m512i
mulhi64_512(__m512i x, __m512i c, __m512i c_hi, __m512i m32)
{
    const __m512i x_hi = _mm512_srli_epi64(x, 32);
    const __m512i ll = _mm512_mul_epu32(x, c);
    const __m512i lh = _mm512_mul_epu32(x, c_hi);
    const __m512i hl = _mm512_mul_epu32(x_hi, c);
    const __m512i hh = _mm512_mul_epu32(x_hi, c_hi);
    const __m512i mid = _mm512_add_epi64(
        _mm512_add_epi64(_mm512_srli_epi64(ll, 32),
                         _mm512_and_si512(lh, m32)),
        _mm512_and_si512(hl, m32));
    return _mm512_add_epi64(
        _mm512_add_epi64(hh, _mm512_srli_epi64(lh, 32)),
        _mm512_add_epi64(_mm512_srli_epi64(hl, 32),
                         _mm512_srli_epi64(mid, 32)));
}

/** Full 128-bit product x * c per lane, as (lo, hi) vectors. */
ARK_T512 inline void
mul64_512(__m512i x, __m512i c, __m512i c_hi, __m512i m32, __m512i *lo,
          __m512i *hi)
{
    const __m512i x_hi = _mm512_srli_epi64(x, 32);
    const __m512i ll = _mm512_mul_epu32(x, c);
    const __m512i lh = _mm512_mul_epu32(x, c_hi);
    const __m512i hl = _mm512_mul_epu32(x_hi, c);
    const __m512i hh = _mm512_mul_epu32(x_hi, c_hi);
    const __m512i mid = _mm512_add_epi64(
        _mm512_add_epi64(_mm512_srli_epi64(ll, 32),
                         _mm512_and_si512(lh, m32)),
        _mm512_and_si512(hl, m32));
    *lo = _mm512_or_si512(_mm512_slli_epi64(mid, 32),
                          _mm512_and_si512(ll, m32));
    *hi = _mm512_add_epi64(
        _mm512_add_epi64(hh, _mm512_srli_epi64(lh, 32)),
        _mm512_add_epi64(_mm512_srli_epi64(hl, 32),
                         _mm512_srli_epi64(mid, 32)));
}

/** Modulus::mulShoupLazy lane-wise: result in [0, 2q) per lane. */
ARK_T512 inline __m512i
mulShoupLazy512(__m512i x, __m512i w, __m512i w_hi, __m512i ws,
                __m512i ws_hi, __m512i q, __m512i q_hi, __m512i m32)
{
    const __m512i hi = mulhi64_512(x, ws, ws_hi, m32);
    return _mm512_sub_epi64(mullo64_512(x, w, w_hi),
                            mullo64_512(hi, q, q_hi));
}

/**
 * Shoup product with an approximate quotient: drops the low x low
 * partial and the mid-column carry of mulhi(x, ws), so the quotient
 * underestimates floor(x * ws / 2^64) by at most 2 and the result
 * lands in [0, 4q) instead of Shoup's usual [0, 2q). The NTT kernels
 * absorb the wider range in their lazy domain (values stay below 8q,
 * hence the q < 2^60 kernel guard) and re-canonicalize at the end, so
 * outputs still match the scalar transforms bit for bit while each
 * butterfly spends three 32x32 partials instead of five.
 */
ARK_T512 inline __m512i
mulShoupApprox512(__m512i x, __m512i w, __m512i ws, __m512i ws_hi,
                  __m512i q)
{
    const __m512i x_hi = _mm512_srli_epi64(x, 32);
    const __m512i lh = _mm512_mul_epu32(x, ws_hi);
    const __m512i hl = _mm512_mul_epu32(x_hi, ws);
    const __m512i hh = _mm512_mul_epu32(x_hi, ws_hi);
    const __m512i q_est = _mm512_add_epi64(
        _mm512_add_epi64(hh, _mm512_srli_epi64(lh, 32)),
        _mm512_srli_epi64(hl, 32));
    return _mm512_sub_epi64(_mm512_mullo_epi64(x, w),
                            _mm512_mullo_epi64(q_est, q));
}

/** Broadcast reduction constants of one Modulus. */
struct Mod512
{
    __m512i q, q_hi, two_q;
    __m512i b_lo, b_lo_hi, b_hi, b_hi_hi;
    __m512i m32;
};

ARK_T512 inline Mod512
loadMod512(const Modulus &m)
{
    Mod512 md;
    md.q = set1_512(m.value());
    md.q_hi = set1_512(m.value() >> 32);
    md.two_q = set1_512(m.twoQ());
    md.b_lo = set1_512(m.barrettLo());
    md.b_lo_hi = set1_512(m.barrettLo() >> 32);
    md.b_hi = set1_512(m.barrettHi());
    md.b_hi_hi = set1_512(m.barrettHi() >> 32);
    md.m32 = set1_512(0xffffffffULL);
    return md;
}

/**
 * Modulus::reduce lane-wise: Barrett reduction of the 128-bit value
 * (x_hi:x_lo) to [0, q). Same partial products, same carry counting,
 * same two conditional subtracts — bit-identical per lane.
 */
ARK_T512 inline __m512i
barrett512(__m512i x_lo, __m512i x_hi, const Mod512 &md)
{
    const __m512i lolo_hi = mulhi64_512(x_lo, md.b_lo, md.b_lo_hi, md.m32);
    __m512i lohi_lo, lohi_hi;
    mul64_512(x_lo, md.b_hi, md.b_hi_hi, md.m32, &lohi_lo, &lohi_hi);
    __m512i hilo_lo, hilo_hi;
    mul64_512(x_hi, md.b_lo, md.b_lo_hi, md.m32, &hilo_lo, &hilo_hi);
    const __m512i hihi_lo = mullo64_512(x_hi, md.b_hi, md.b_hi_hi);

    const __m512i one = _mm512_set1_epi64(1);
    const __m512i mid = _mm512_add_epi64(lolo_hi, lohi_lo);
    __m512i mid_hi = _mm512_maskz_mov_epi64(
        _mm512_cmplt_epu64_mask(mid, lohi_lo), one);
    const __m512i mid2 = _mm512_add_epi64(mid, hilo_lo);
    mid_hi = _mm512_mask_add_epi64(
        mid_hi, _mm512_cmplt_epu64_mask(mid2, hilo_lo), mid_hi, one);

    const __m512i q_est =
        _mm512_add_epi64(_mm512_add_epi64(hihi_lo, lohi_hi),
                         _mm512_add_epi64(hilo_hi, mid_hi));
    __m512i r =
        _mm512_sub_epi64(x_lo, mullo64_512(q_est, md.q, md.q_hi));
    r = csub512(r, md.two_q);
    return csub512(r, md.q);
}

/**
 * Lane-shuffle constants for NTT stages whose butterfly span t is
 * below the 8-lane vector width: a 16-element window is deinterleaved
 * into the x vector (first butterfly halves) and y vector (second
 * halves), the per-block twiddles are broadcast to their lanes, and
 * the results are interleaved back.
 */
ARK_T512 inline void
smallStageWin512(size_t t, __m512i *idx_x, __m512i *idx_y,
                 __m512i *bcast, __m512i *back0, __m512i *back1)
{
    if (t == 4) {
        *idx_x = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
        *idx_y = _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15);
        *bcast = _mm512_setr_epi64(0, 0, 0, 0, 1, 1, 1, 1);
        *back0 = *idx_x;
        *back1 = *idx_y;
    } else if (t == 2) {
        *idx_x = _mm512_setr_epi64(0, 1, 4, 5, 8, 9, 12, 13);
        *idx_y = _mm512_setr_epi64(2, 3, 6, 7, 10, 11, 14, 15);
        *bcast = _mm512_setr_epi64(0, 0, 1, 1, 2, 2, 3, 3);
        *back0 = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
        *back1 = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
    } else { // t == 1
        *idx_x = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
        *idx_y = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
        *bcast = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
        *back0 = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
        *back1 = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
    }
}

// ---------------------------------------------------------------------------
// AVX-512 NTT: the Harvey lazy transform of NttTables::forward /
// inverse, eight butterflies per step. The approximate Shoup quotient
// widens the lazy domains vs the scalar kernel (forward values stay
// in [0,8q), inverse in [0,4q)); the closing canonicalization brings
// every lane back to [0,q), so outputs are still bit-identical.
// ---------------------------------------------------------------------------

ARK_T512 void
nttForwardAvx512(u64 *a, const NttTables &tb)
{
    const size_t n = tb.degree();
    const Modulus &mod = tb.modulus();
    const u64 *w = tb.rootPowers().data();
    const u64 *ws = tb.rootPowersShoup().data();
    const __m512i q = set1_512(mod.value());
    const __m512i two_q = set1_512(mod.twoQ());
    const __m512i four_q = set1_512(mod.twoQ() * 2);

    size_t t = n >> 1;
    size_t m = 1;
    // Fused stage pairs: two butterfly levels per pass over the data,
    // which halves the memory traffic of the big stages and doubles
    // the independent work in flight (the Shoup product chain is long,
    // so the extra ILP matters as much as the bandwidth). The [0,8q)
    // invariant needs only a single fold on the additive side — the
    // approximate product accepts any 64-bit input — so level-1
    // outputs (u in [0,4q) plus v in [0,4q)) land back below 8q and
    // level 2 repeats the identical step. Block i of the first level
    // splits into blocks 2i / 2i+1 of the second, hence the three
    // twiddle broadcasts.
    for (; t >= 16; m <<= 2, t >>= 2) {
        const size_t ht = t >> 1;
        for (size_t i = 0; i < m; ++i) {
            const u64 w1 = w[m + i], ws1 = ws[m + i];
            const u64 w2a = w[2 * m + 2 * i], ws2a = ws[2 * m + 2 * i];
            const u64 w2b = w[2 * m + 2 * i + 1];
            const u64 ws2b = ws[2 * m + 2 * i + 1];
            const __m512i vw1 = set1_512(w1), vws1 = set1_512(ws1);
            const __m512i vws1_hi = set1_512(ws1 >> 32);
            const __m512i vw2a = set1_512(w2a), vws2a = set1_512(ws2a);
            const __m512i vws2a_hi = set1_512(ws2a >> 32);
            const __m512i vw2b = set1_512(w2b), vws2b = set1_512(ws2b);
            const __m512i vws2b_hi = set1_512(ws2b >> 32);
            u64 *x = a + 2 * i * t;
            u64 *y = x + t;
            for (size_t j = 0; j < ht; j += 8) {
                const __m512i u0 = csub512(load512(x + j), four_q);
                const __m512i v0 = mulShoupApprox512(
                    load512(y + j), vw1, vws1, vws1_hi, q);
                const __m512i u1 =
                    csub512(load512(x + ht + j), four_q);
                const __m512i v1 = mulShoupApprox512(
                    load512(y + ht + j), vw1, vws1, vws1_hi, q);
                const __m512i a0 = _mm512_add_epi64(u0, v0);
                const __m512i b0 = _mm512_sub_epi64(
                    _mm512_add_epi64(u0, four_q), v0);
                const __m512i a1 = _mm512_add_epi64(u1, v1);
                const __m512i b1 = _mm512_sub_epi64(
                    _mm512_add_epi64(u1, four_q), v1);
                const __m512i ua = csub512(a0, four_q);
                const __m512i va =
                    mulShoupApprox512(a1, vw2a, vws2a, vws2a_hi, q);
                store512(x + j, _mm512_add_epi64(ua, va));
                store512(x + ht + j,
                         _mm512_sub_epi64(_mm512_add_epi64(ua, four_q),
                                          va));
                const __m512i ub = csub512(b0, four_q);
                const __m512i vb =
                    mulShoupApprox512(b1, vw2b, vws2b, vws2b_hi, q);
                store512(y + j, _mm512_add_epi64(ub, vb));
                store512(y + ht + j,
                         _mm512_sub_epi64(_mm512_add_epi64(ub, four_q),
                                          vb));
            }
        }
    }
    // Epilogue: every remaining stage (t = 8 when the pair loop left
    // an odd one, then t = 4, 2, 1) runs on a 16-element window that
    // stays in registers, so the tail of the transform costs a single
    // pass over the data. The masked twiddle loads never read past the
    // table's live block range, and the t = 1 step canonicalizes its
    // outputs in-register, replacing the scalar kernel's separate
    // reduceLazy4q sweep. min_ntt_degree keeps n >= 16 here.
    {
        const size_t t_hi = t; // 8 or 4
        __m512i idx_x[3], idx_y[3], bcast[3], back0[3], back1[3];
        for (size_t s = 0, tt = 4; tt >= 1; tt >>= 1, ++s)
            smallStageWin512(tt, &idx_x[s], &idx_y[s], &bcast[s],
                             &back0[s], &back1[s]);
        for (size_t base = 0, win = 0; base < n; base += 16, ++win) {
            __m512i v0 = load512(a + base);
            __m512i v1 = load512(a + base + 8);
            size_t mm = m;
            if (t_hi == 8) {
                const u64 wi = w[mm + win], wsi = ws[mm + win];
                const __m512i vw = set1_512(wi);
                const __m512i vws = set1_512(wsi);
                const __m512i u = csub512(v0, four_q);
                const __m512i v = mulShoupApprox512(
                    v1, vw, vws, set1_512(wsi >> 32), q);
                v0 = _mm512_add_epi64(u, v);
                v1 = _mm512_sub_epi64(_mm512_add_epi64(u, four_q), v);
                mm <<= 1;
            }
            for (size_t s = 0, tt = 4; tt >= 1; tt >>= 1, ++s, mm <<= 1) {
                const size_t blocks = 8 / tt;
                const __mmask8 lmask =
                    static_cast<__mmask8>((1u << blocks) - 1);
                const __m512i x =
                    _mm512_permutex2var_epi64(v0, idx_x[s], v1);
                const __m512i y =
                    _mm512_permutex2var_epi64(v0, idx_y[s], v1);
                const __m512i vw = _mm512_permutexvar_epi64(
                    bcast[s],
                    _mm512_maskz_loadu_epi64(lmask,
                                             w + mm + win * blocks));
                const __m512i vws = _mm512_permutexvar_epi64(
                    bcast[s],
                    _mm512_maskz_loadu_epi64(lmask,
                                             ws + mm + win * blocks));
                const __m512i u = csub512(x, four_q);
                const __m512i v = mulShoupApprox512(
                    y, vw, vws, _mm512_srli_epi64(vws, 32), q);
                __m512i nx = _mm512_add_epi64(u, v);
                __m512i ny =
                    _mm512_sub_epi64(_mm512_add_epi64(u, four_q), v);
                if (tt == 1) {
                    nx = csub512(csub512(csub512(nx, four_q), two_q),
                                 q);
                    ny = csub512(csub512(csub512(ny, four_q), two_q),
                                 q);
                }
                v0 = _mm512_permutex2var_epi64(nx, back0[s], ny);
                v1 = _mm512_permutex2var_epi64(nx, back1[s], ny);
            }
            store512(a + base, v0);
            store512(a + base + 8, v1);
        }
    }
}

ARK_T512 void
nttInverseAvx512(u64 *a, const NttTables &tb)
{
    const size_t n = tb.degree();
    const Modulus &mod = tb.modulus();
    const u64 *iw = tb.invRootPowers().data();
    const u64 *iws = tb.invRootPowersShoup().data();
    const __m512i q = set1_512(mod.value());
    const __m512i two_q = set1_512(mod.twoQ());
    const __m512i four_q = set1_512(mod.twoQ() * 2);

    size_t t = 1;
    // Prologue: the sub-vector stages (Gentleman-Sande runs t upward)
    // plus the first whole-vector stage (t = 8) run fused on
    // 16-element windows, a single pass over the data. Values stay in
    // [0,4q): sums fold once from [0,8q), differences feed the
    // approximate Shoup product, whose result is back in [0,4q).
    // min_ntt_degree keeps n >= 16 here.
    {
        __m512i idx_x[3], idx_y[3], bcast[3], back0[3], back1[3];
        for (size_t s = 0, tt = 1; tt <= 4; tt <<= 1, ++s)
            smallStageWin512(tt, &idx_x[s], &idx_y[s], &bcast[s],
                             &back0[s], &back1[s]);
        const size_t h8 = n >> 4;
        for (size_t base = 0, win = 0; base < n; base += 16, ++win) {
            __m512i v0 = load512(a + base);
            __m512i v1 = load512(a + base + 8);
            size_t hh = n >> 1;
            for (size_t s = 0, tt = 1; tt <= 4; tt <<= 1, ++s, hh >>= 1) {
                const size_t blocks = 8 / tt;
                const __mmask8 lmask =
                    static_cast<__mmask8>((1u << blocks) - 1);
                const __m512i x =
                    _mm512_permutex2var_epi64(v0, idx_x[s], v1);
                const __m512i y =
                    _mm512_permutex2var_epi64(v0, idx_y[s], v1);
                const __m512i vw = _mm512_permutexvar_epi64(
                    bcast[s],
                    _mm512_maskz_loadu_epi64(lmask,
                                             iw + hh + win * blocks));
                const __m512i vws = _mm512_permutexvar_epi64(
                    bcast[s],
                    _mm512_maskz_loadu_epi64(lmask,
                                             iws + hh + win * blocks));
                const __m512i sv =
                    csub512(_mm512_add_epi64(x, y), four_q);
                const __m512i d =
                    _mm512_sub_epi64(_mm512_add_epi64(x, four_q), y);
                const __m512i ny = mulShoupApprox512(
                    d, vw, vws, _mm512_srli_epi64(vws, 32), q);
                v0 = _mm512_permutex2var_epi64(sv, back0[s], ny);
                v1 = _mm512_permutex2var_epi64(sv, back1[s], ny);
            }
            // t = 8: one butterfly across the two window vectors.
            const u64 wi = iw[h8 + win], wsi = iws[h8 + win];
            const __m512i vw = set1_512(wi);
            const __m512i vws = set1_512(wsi);
            const __m512i sv = csub512(_mm512_add_epi64(v0, v1), four_q);
            const __m512i d =
                _mm512_sub_epi64(_mm512_add_epi64(v0, four_q), v1);
            store512(a + base, sv);
            store512(a + base + 8,
                     mulShoupApprox512(d, vw, vws, set1_512(wsi >> 32),
                                       q));
        }
        t = 16;
    }
    // Fused stage pairs (t, 2t): stage-t blocks 2i / 2i+1 feed stage-2t
    // block i, so a radix-4 group of four vectors turns over in
    // registers and the pass count over the array halves. Every value
    // stays in [0,4q) exactly as in the unfused stages.
    for (; t <= n >> 2; t <<= 2) {
        const size_t h = n / (2 * t);
        const size_t h2 = h >> 1;
        for (size_t i = 0; i < h2; ++i) {
            const u64 wa = iw[h + 2 * i], wsa = iws[h + 2 * i];
            const u64 wb = iw[h + 2 * i + 1], wsb = iws[h + 2 * i + 1];
            const u64 wc = iw[h2 + i], wsc = iws[h2 + i];
            const __m512i vwa = set1_512(wa), vwsa = set1_512(wsa);
            const __m512i vwsa_hi = set1_512(wsa >> 32);
            const __m512i vwb = set1_512(wb), vwsb = set1_512(wsb);
            const __m512i vwsb_hi = set1_512(wsb >> 32);
            const __m512i vwc = set1_512(wc), vwsc = set1_512(wsc);
            const __m512i vwsc_hi = set1_512(wsc >> 32);
            u64 *p = a + 4 * i * t;
            for (size_t j = 0; j < t; j += 8) {
                const __m512i p0 = load512(p + j);
                const __m512i p1 = load512(p + t + j);
                const __m512i p2 = load512(p + 2 * t + j);
                const __m512i p3 = load512(p + 3 * t + j);
                const __m512i s01 =
                    csub512(_mm512_add_epi64(p0, p1), four_q);
                const __m512i d01 = mulShoupApprox512(
                    _mm512_sub_epi64(_mm512_add_epi64(p0, four_q), p1),
                    vwa, vwsa, vwsa_hi, q);
                const __m512i s23 =
                    csub512(_mm512_add_epi64(p2, p3), four_q);
                const __m512i d23 = mulShoupApprox512(
                    _mm512_sub_epi64(_mm512_add_epi64(p2, four_q), p3),
                    vwb, vwsb, vwsb_hi, q);
                store512(p + j,
                         csub512(_mm512_add_epi64(s01, s23), four_q));
                store512(p + 2 * t + j,
                         mulShoupApprox512(
                             _mm512_sub_epi64(
                                 _mm512_add_epi64(s01, four_q), s23),
                             vwc, vwsc, vwsc_hi, q));
                store512(p + t + j,
                         csub512(_mm512_add_epi64(d01, d23), four_q));
                store512(p + 3 * t + j,
                         mulShoupApprox512(
                             _mm512_sub_epi64(
                                 _mm512_add_epi64(d01, four_q), d23),
                             vwc, vwsc, vwsc_hi, q));
            }
        }
    }
    // Leftover single stage (t == n/2) when the main-stage count is
    // odd.
    for (; t <= n >> 1; t <<= 1) {
        const size_t h = n / (2 * t);
        for (size_t i = 0; i < h; ++i) {
            const u64 wi = iw[h + i], wsi = iws[h + i];
            const __m512i vw = set1_512(wi);
            const __m512i vws = set1_512(wsi);
            const __m512i vws_hi = set1_512(wsi >> 32);
            u64 *x = a + 2 * i * t;
            u64 *y = x + t;
            for (size_t j = 0; j < t; j += 8) {
                const __m512i xv = load512(x + j);
                const __m512i yv = load512(y + j);
                store512(x + j,
                         csub512(_mm512_add_epi64(xv, yv), four_q));
                const __m512i d =
                    _mm512_sub_epi64(_mm512_add_epi64(xv, four_q), yv);
                store512(y + j,
                         mulShoupApprox512(d, vw, vws, vws_hi, q));
            }
        }
    }
    // 1/N Shoup scaling pass canonicalizes [0, 4q) -> [0, q).
    const u64 ni = tb.nInv(), nis = tb.nInvShoup();
    const __m512i vni = set1_512(ni);
    const __m512i vnis = set1_512(nis), vnis_hi = set1_512(nis >> 32);
    for (size_t j = 0; j < n; j += 8) {
        const __m512i v =
            mulShoupApprox512(load512(a + j), vni, vnis, vnis_hi, q);
        store512(a + j, csub512(csub512(v, two_q), q));
    }
}

// ---------------------------------------------------------------------------
// AVX-512 fused BConv tile: the convertTile contract with limb-major
// scratch (scratch[j * tile + c]) so lanes run across coefficients and
// no transpose is needed. Each coefficient's MAC accumulates in the
// same j order as the scalar kernel; regrouping an exact 128-bit sum
// is exact, so outputs are bit-identical.
// ---------------------------------------------------------------------------

ARK_T512 void
bconvTileAvx512(const BaseConverter &bc, const u64 *const *in, size_t c0,
                size_t c1, u64 *scratch, u64 *const *out)
{
    const size_t nb = bc.inBase().size();
    const size_t nc = bc.outBase().size();
    const size_t tile = c1 - c0;
    const __m512i m32 = set1_512(0xffffffffULL);
    const __m512i one = _mm512_set1_epi64(1);

    // Scale stage: strict Shoup product per lane (lazy + csub q).
    for (size_t j = 0; j < nb; ++j) {
        const Modulus &pj = bc.inBase()[j];
        const u64 s = bc.phatInvModP(j);
        const u64 ss = bc.phatInvModPShoup(j);
        const u64 *src = in[j] + c0;
        u64 *dst = scratch + j * tile;
        const __m512i q = set1_512(pj.value());
        const __m512i q_hi = set1_512(pj.value() >> 32);
        const __m512i vs = set1_512(s), vs_hi = set1_512(s >> 32);
        const __m512i vss = set1_512(ss), vss_hi = set1_512(ss >> 32);
        size_t c = 0;
        for (; c + 8 <= tile; c += 8) {
            const __m512i r = mulShoupLazy512(load512(src + c), vs,
                                              vs_hi, vss, vss_hi, q,
                                              q_hi, m32);
            store512(dst + c, csub512(r, q));
        }
        for (; c < tile; ++c)
            dst[c] = pj.mulShoup(src[c], s, ss);
    }

    // MAC stage: 128-bit accumulation per lane as (lo, hi) vector
    // pairs with explicit carry counting, then the Barrett reduce.
    for (size_t i = 0; i < nc; ++i) {
        const Modulus &qi = bc.outBase()[i];
        const Mod512 md = loadMod512(qi);
        u64 *dst = out[i] + c0;
        size_t c = 0;
        for (; c + 8 <= tile; c += 8) {
            __m512i acc_lo = _mm512_setzero_si512();
            __m512i acc_hi = _mm512_setzero_si512();
            for (size_t j = 0; j < nb; ++j) {
                const u64 rj = bc.baseTable(i, j);
                const __m512i r = set1_512(rj);
                const __m512i r_hi = set1_512(rj >> 32);
                __m512i p_lo, p_hi;
                mul64_512(load512(scratch + j * tile + c), r, r_hi, m32,
                          &p_lo, &p_hi);
                acc_lo = _mm512_add_epi64(acc_lo, p_lo);
                const __mmask8 carry =
                    _mm512_cmplt_epu64_mask(acc_lo, p_lo);
                acc_hi = _mm512_add_epi64(acc_hi, p_hi);
                acc_hi = _mm512_mask_add_epi64(acc_hi, carry, acc_hi, one);
            }
            store512(dst + c, barrett512(acc_lo, acc_hi, md));
        }
        for (; c < tile; ++c) {
            u128 acc = 0;
            for (size_t j = 0; j < nb; ++j)
                acc += static_cast<u128>(scratch[j * tile + c]) *
                       bc.baseTable(i, j);
            dst[c] = qi.reduce(acc);
        }
    }
}

// ---------------------------------------------------------------------------
// AVX-512 evk MAC limb: ab += d * kb, aa += d * ka with Barrett
// reduction (or a plain store of the products for the first digit),
// mirroring the KernelBackend::evkMulAcc inner loop.
// ---------------------------------------------------------------------------

template <bool kAccumulate>
ARK_T512 void
evkMacLimbAvx512Impl(const Modulus &m, const u64 *pd, const u64 *kb,
                     const u64 *ka, u64 *ab, u64 *aa, size_t n)
{
    const Mod512 md = loadMod512(m);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i d = load512(pd + i);
        const __m512i d_hi = _mm512_srli_epi64(d, 32);
        {
            __m512i p_lo, p_hi;
            mul64_512(load512(kb + i), d, d_hi, md.m32, &p_lo, &p_hi);
            const __m512i t = barrett512(p_lo, p_hi, md);
            if (kAccumulate) {
                const __m512i acc = _mm512_add_epi64(load512(ab + i), t);
                store512(ab + i, csub512(acc, md.q));
            } else {
                store512(ab + i, t);
            }
        }
        {
            __m512i p_lo, p_hi;
            mul64_512(load512(ka + i), d, d_hi, md.m32, &p_lo, &p_hi);
            const __m512i t = barrett512(p_lo, p_hi, md);
            if (kAccumulate) {
                const __m512i acc = _mm512_add_epi64(load512(aa + i), t);
                store512(aa + i, csub512(acc, md.q));
            } else {
                store512(aa + i, t);
            }
        }
    }
    for (; i < n; ++i) {
        const u64 tb = m.mul(pd[i], kb[i]);
        const u64 ta = m.mul(pd[i], ka[i]);
        ab[i] = kAccumulate ? m.add(ab[i], tb) : tb;
        aa[i] = kAccumulate ? m.add(aa[i], ta) : ta;
    }
}

ARK_T512 void
evkMacLimbAvx512(const Modulus &m, const u64 *pd, const u64 *kb,
                 const u64 *ka, u64 *ab, u64 *aa, size_t n,
                 bool accumulate)
{
    if (accumulate)
        evkMacLimbAvx512Impl<true>(m, pd, kb, ka, ab, aa, n);
    else
        evkMacLimbAvx512Impl<false>(m, pd, kb, ka, ab, aa, n);
}

// ---------------------------------------------------------------------------
// AVX2 helpers: 4 lanes of u64. No unsigned 64-bit compare below
// AVX-512, so comparisons run signed after XOR-ing the sign bit in.
// ---------------------------------------------------------------------------

ARK_T256 inline __m256i
set1_256(u64 v)
{
    return _mm256_set1_epi64x(static_cast<long long>(v));
}

ARK_T256 inline __m256i
load256(const u64 *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

ARK_T256 inline void
store256(u64 *p, __m256i v)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
}

/** a < b (unsigned) per lane, as an all-ones/all-zeros mask. */
ARK_T256 inline __m256i
cmpltu256(__m256i a, __m256i b, __m256i bias)
{
    return _mm256_cmpgt_epi64(_mm256_xor_si256(b, bias),
                              _mm256_xor_si256(a, bias));
}

/** Conditional-subtract bound: the bound vector plus its biased
 *  (bound - 1) companion for the signed compare. */
struct Bound256
{
    __m256i bound;
    __m256i biased_m1;
};

ARK_T256 inline Bound256
makeBound256(u64 bound)
{
    Bound256 b;
    b.bound = set1_256(bound);
    b.biased_m1 = set1_256((bound - 1) ^ 0x8000000000000000ULL);
    return b;
}

/** v >= bound ? v - bound : v (unsigned), lane-wise. */
ARK_T256 inline __m256i
csub256(__m256i v, const Bound256 &b, __m256i bias)
{
    const __m256i ge =
        _mm256_cmpgt_epi64(_mm256_xor_si256(v, bias), b.biased_m1);
    return _mm256_sub_epi64(v, _mm256_and_si256(ge, b.bound));
}

ARK_T256 inline __m256i
mullo64_256(__m256i x, __m256i c, __m256i c_hi)
{
    const __m256i x_hi = _mm256_srli_epi64(x, 32);
    const __m256i ll = _mm256_mul_epu32(x, c);
    const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(x_hi, c),
                                           _mm256_mul_epu32(x, c_hi));
    return _mm256_add_epi64(ll, _mm256_slli_epi64(cross, 32));
}

ARK_T256 inline __m256i
mulhi64_256(__m256i x, __m256i c, __m256i c_hi, __m256i m32)
{
    const __m256i x_hi = _mm256_srli_epi64(x, 32);
    const __m256i ll = _mm256_mul_epu32(x, c);
    const __m256i lh = _mm256_mul_epu32(x, c_hi);
    const __m256i hl = _mm256_mul_epu32(x_hi, c);
    const __m256i hh = _mm256_mul_epu32(x_hi, c_hi);
    const __m256i mid = _mm256_add_epi64(
        _mm256_add_epi64(_mm256_srli_epi64(ll, 32),
                         _mm256_and_si256(lh, m32)),
        _mm256_and_si256(hl, m32));
    return _mm256_add_epi64(
        _mm256_add_epi64(hh, _mm256_srli_epi64(lh, 32)),
        _mm256_add_epi64(_mm256_srli_epi64(hl, 32),
                         _mm256_srli_epi64(mid, 32)));
}

ARK_T256 inline void
mul64_256(__m256i x, __m256i c, __m256i c_hi, __m256i m32, __m256i *lo,
          __m256i *hi)
{
    const __m256i x_hi = _mm256_srli_epi64(x, 32);
    const __m256i ll = _mm256_mul_epu32(x, c);
    const __m256i lh = _mm256_mul_epu32(x, c_hi);
    const __m256i hl = _mm256_mul_epu32(x_hi, c);
    const __m256i hh = _mm256_mul_epu32(x_hi, c_hi);
    const __m256i mid = _mm256_add_epi64(
        _mm256_add_epi64(_mm256_srli_epi64(ll, 32),
                         _mm256_and_si256(lh, m32)),
        _mm256_and_si256(hl, m32));
    *lo = _mm256_or_si256(_mm256_slli_epi64(mid, 32),
                          _mm256_and_si256(ll, m32));
    *hi = _mm256_add_epi64(
        _mm256_add_epi64(hh, _mm256_srli_epi64(lh, 32)),
        _mm256_add_epi64(_mm256_srli_epi64(hl, 32),
                         _mm256_srli_epi64(mid, 32)));
}

ARK_T256 inline __m256i
mulShoupLazy256(__m256i x, __m256i w, __m256i w_hi, __m256i ws,
                __m256i ws_hi, __m256i q, __m256i q_hi, __m256i m32)
{
    const __m256i hi = mulhi64_256(x, ws, ws_hi, m32);
    return _mm256_sub_epi64(mullo64_256(x, w, w_hi),
                            mullo64_256(hi, q, q_hi));
}

/** The approximate-quotient Shoup product (see mulShoupApprox512):
 *  result in [0, 4q) per lane. */
ARK_T256 inline __m256i
mulShoupApprox256(__m256i x, __m256i w, __m256i w_hi, __m256i ws,
                  __m256i ws_hi, __m256i q, __m256i q_hi)
{
    const __m256i x_hi = _mm256_srli_epi64(x, 32);
    const __m256i lh = _mm256_mul_epu32(x, ws_hi);
    const __m256i hl = _mm256_mul_epu32(x_hi, ws);
    const __m256i hh = _mm256_mul_epu32(x_hi, ws_hi);
    const __m256i q_est = _mm256_add_epi64(
        _mm256_add_epi64(hh, _mm256_srli_epi64(lh, 32)),
        _mm256_srli_epi64(hl, 32));
    return _mm256_sub_epi64(mullo64_256(x, w, w_hi),
                            mullo64_256(q_est, q, q_hi));
}

/** Conditional-subtract for the NTT kernels only: the q < 2^60 kernel
 *  guard keeps every lazy value under 8q < 2^63, so the sign bit is
 *  never set and the plain signed compare needs no bias XOR. */
struct SBound256
{
    __m256i b;
    __m256i b_m1;
};

ARK_T256 inline SBound256
makeSBound256(u64 bound)
{
    SBound256 s;
    s.b = set1_256(bound);
    s.b_m1 = set1_256(bound - 1);
    return s;
}

ARK_T256 inline __m256i
csubs256(__m256i v, const SBound256 &b)
{
    return _mm256_sub_epi64(
        v, _mm256_and_si256(_mm256_cmpgt_epi64(v, b.b_m1), b.b));
}

struct Mod256
{
    __m256i q, q_hi;
    __m256i b_lo, b_lo_hi, b_hi, b_hi_hi;
    __m256i m32, bias;
    Bound256 bq, b2q;
};

ARK_T256 inline Mod256
loadMod256(const Modulus &m)
{
    Mod256 md;
    md.q = set1_256(m.value());
    md.q_hi = set1_256(m.value() >> 32);
    md.b_lo = set1_256(m.barrettLo());
    md.b_lo_hi = set1_256(m.barrettLo() >> 32);
    md.b_hi = set1_256(m.barrettHi());
    md.b_hi_hi = set1_256(m.barrettHi() >> 32);
    md.m32 = set1_256(0xffffffffULL);
    md.bias = set1_256(0x8000000000000000ULL);
    md.bq = makeBound256(m.value());
    md.b2q = makeBound256(m.twoQ());
    return md;
}

ARK_T256 inline __m256i
barrett256(__m256i x_lo, __m256i x_hi, const Mod256 &md)
{
    const __m256i lolo_hi = mulhi64_256(x_lo, md.b_lo, md.b_lo_hi, md.m32);
    __m256i lohi_lo, lohi_hi;
    mul64_256(x_lo, md.b_hi, md.b_hi_hi, md.m32, &lohi_lo, &lohi_hi);
    __m256i hilo_lo, hilo_hi;
    mul64_256(x_hi, md.b_lo, md.b_lo_hi, md.m32, &hilo_lo, &hilo_hi);
    const __m256i hihi_lo = mullo64_256(x_hi, md.b_hi, md.b_hi_hi);

    // Subtracting an all-ones compare mask adds 1 per carrying lane.
    const __m256i mid = _mm256_add_epi64(lolo_hi, lohi_lo);
    __m256i mid_hi = _mm256_sub_epi64(_mm256_setzero_si256(),
                                      cmpltu256(mid, lohi_lo, md.bias));
    const __m256i mid2 = _mm256_add_epi64(mid, hilo_lo);
    mid_hi =
        _mm256_sub_epi64(mid_hi, cmpltu256(mid2, hilo_lo, md.bias));

    const __m256i q_est =
        _mm256_add_epi64(_mm256_add_epi64(hihi_lo, lohi_hi),
                         _mm256_add_epi64(hilo_hi, mid_hi));
    __m256i r =
        _mm256_sub_epi64(x_lo, mullo64_256(q_est, md.q, md.q_hi));
    r = csub256(r, md.b2q, md.bias);
    return csub256(r, md.bq, md.bias);
}

// ---------------------------------------------------------------------------
// AVX2 NTT. Main stages handle t >= 4; the t = 2 and t = 1 stages run
// on 8-element windows, deinterleaved with permute2x128 / unpack.
// ---------------------------------------------------------------------------

ARK_T256 void
nttForwardAvx2(u64 *a, const NttTables &tb)
{
    const size_t n = tb.degree();
    const Modulus &mod = tb.modulus();
    const u64 *w = tb.rootPowers().data();
    const u64 *ws = tb.rootPowersShoup().data();
    const __m256i q = set1_256(mod.value());
    const __m256i q_hi = set1_256(mod.value() >> 32);
    const SBound256 sq = makeSBound256(mod.value());
    const SBound256 s2q = makeSBound256(mod.twoQ());
    const SBound256 s4q = makeSBound256(mod.twoQ() * 2);
    const __m256i four_q = s4q.b;

    size_t t = n >> 1;
    size_t m = 1;
    for (; t >= 4; m <<= 1, t >>= 1) {
        for (size_t i = 0; i < m; ++i) {
            const u64 wi = w[m + i], wsi = ws[m + i];
            const __m256i vw = set1_256(wi), vw_hi = set1_256(wi >> 32);
            const __m256i vws = set1_256(wsi);
            const __m256i vws_hi = set1_256(wsi >> 32);
            u64 *x = a + 2 * i * t;
            u64 *y = x + t;
            for (size_t j = 0; j < t; j += 4) {
                const __m256i u = csubs256(load256(x + j), s4q);
                const __m256i v =
                    mulShoupApprox256(load256(y + j), vw, vw_hi, vws,
                                      vws_hi, q, q_hi);
                store256(x + j, _mm256_add_epi64(u, v));
                store256(y + j,
                         _mm256_sub_epi64(_mm256_add_epi64(u, four_q),
                                          v));
            }
        }
    }
    if (t == 2) {
        // Window {e0..e7}: x = {e0,e1,e4,e5}, y = {e2,e3,e6,e7}; the
        // two block twiddles broadcast pairwise.
        for (size_t base = 0, b = 0; base < n; base += 8, b += 2) {
            const __m256i v0 = load256(a + base);
            const __m256i v1 = load256(a + base + 4);
            const __m256i x = _mm256_permute2x128_si256(v0, v1, 0x20);
            const __m256i y = _mm256_permute2x128_si256(v0, v1, 0x31);
            const __m128i tw = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(w + m + b));
            const __m128i tws = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(ws + m + b));
            const __m256i vw = _mm256_permute4x64_epi64(
                _mm256_castsi128_si256(tw), 0x50);
            const __m256i vws = _mm256_permute4x64_epi64(
                _mm256_castsi128_si256(tws), 0x50);
            const __m256i u = csubs256(x, s4q);
            const __m256i v = mulShoupApprox256(
                y, vw, _mm256_srli_epi64(vw, 32), vws,
                _mm256_srli_epi64(vws, 32), q, q_hi);
            const __m256i nx = _mm256_add_epi64(u, v);
            const __m256i ny =
                _mm256_sub_epi64(_mm256_add_epi64(u, four_q), v);
            store256(a + base, _mm256_permute2x128_si256(nx, ny, 0x20));
            store256(a + base + 4,
                     _mm256_permute2x128_si256(nx, ny, 0x31));
        }
        m <<= 1;
        t = 1;
    }
    if (t == 1) {
        // Window {e0..e7}: unpack gives x = {e0,e4,e2,e6} (blocks
        // 0,2,1,3), so the twiddle vector is permuted to match. The
        // outputs canonicalize in-register (no separate sweep).
        for (size_t base = 0, b = 0; base < n; base += 8, b += 4) {
            const __m256i v0 = load256(a + base);
            const __m256i v1 = load256(a + base + 4);
            const __m256i x = _mm256_unpacklo_epi64(v0, v1);
            const __m256i y = _mm256_unpackhi_epi64(v0, v1);
            const __m256i vw =
                _mm256_permute4x64_epi64(load256(w + m + b), 0xD8);
            const __m256i vws =
                _mm256_permute4x64_epi64(load256(ws + m + b), 0xD8);
            const __m256i u = csubs256(x, s4q);
            const __m256i v = mulShoupApprox256(
                y, vw, _mm256_srli_epi64(vw, 32), vws,
                _mm256_srli_epi64(vws, 32), q, q_hi);
            __m256i nx = _mm256_add_epi64(u, v);
            __m256i ny =
                _mm256_sub_epi64(_mm256_add_epi64(u, four_q), v);
            nx = csubs256(csubs256(csubs256(nx, s4q), s2q), sq);
            ny = csubs256(csubs256(csubs256(ny, s4q), s2q), sq);
            store256(a + base, _mm256_unpacklo_epi64(nx, ny));
            store256(a + base + 4, _mm256_unpackhi_epi64(nx, ny));
        }
    }
}

ARK_T256 void
nttInverseAvx2(u64 *a, const NttTables &tb)
{
    const size_t n = tb.degree();
    const Modulus &mod = tb.modulus();
    const u64 *iw = tb.invRootPowers().data();
    const u64 *iws = tb.invRootPowersShoup().data();
    const __m256i q = set1_256(mod.value());
    const __m256i q_hi = set1_256(mod.value() >> 32);
    const SBound256 sq = makeSBound256(mod.value());
    const SBound256 s2q = makeSBound256(mod.twoQ());
    const SBound256 s4q = makeSBound256(mod.twoQ() * 2);
    const __m256i four_q = s4q.b;

    // t = 1 stage: adjacent pairs, twiddles iw[n/2 + i].
    {
        const size_t h = n >> 1;
        for (size_t base = 0, b = 0; base < n; base += 8, b += 4) {
            const __m256i v0 = load256(a + base);
            const __m256i v1 = load256(a + base + 4);
            const __m256i x = _mm256_unpacklo_epi64(v0, v1);
            const __m256i y = _mm256_unpackhi_epi64(v0, v1);
            const __m256i vw =
                _mm256_permute4x64_epi64(load256(iw + h + b), 0xD8);
            const __m256i vws =
                _mm256_permute4x64_epi64(load256(iws + h + b), 0xD8);
            const __m256i s = csubs256(_mm256_add_epi64(x, y), s4q);
            const __m256i d =
                _mm256_sub_epi64(_mm256_add_epi64(x, four_q), y);
            const __m256i ny = mulShoupApprox256(
                d, vw, _mm256_srli_epi64(vw, 32), vws,
                _mm256_srli_epi64(vws, 32), q, q_hi);
            store256(a + base, _mm256_unpacklo_epi64(s, ny));
            store256(a + base + 4, _mm256_unpackhi_epi64(s, ny));
        }
    }
    // t = 2 stage.
    {
        const size_t h = n >> 2;
        for (size_t base = 0, b = 0; base < n; base += 8, b += 2) {
            const __m256i v0 = load256(a + base);
            const __m256i v1 = load256(a + base + 4);
            const __m256i x = _mm256_permute2x128_si256(v0, v1, 0x20);
            const __m256i y = _mm256_permute2x128_si256(v0, v1, 0x31);
            const __m128i tw = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(iw + h + b));
            const __m128i tws = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(iws + h + b));
            const __m256i vw = _mm256_permute4x64_epi64(
                _mm256_castsi128_si256(tw), 0x50);
            const __m256i vws = _mm256_permute4x64_epi64(
                _mm256_castsi128_si256(tws), 0x50);
            const __m256i s = csubs256(_mm256_add_epi64(x, y), s4q);
            const __m256i d =
                _mm256_sub_epi64(_mm256_add_epi64(x, four_q), y);
            const __m256i ny = mulShoupApprox256(
                d, vw, _mm256_srli_epi64(vw, 32), vws,
                _mm256_srli_epi64(vws, 32), q, q_hi);
            store256(a + base, _mm256_permute2x128_si256(s, ny, 0x20));
            store256(a + base + 4,
                     _mm256_permute2x128_si256(s, ny, 0x31));
        }
    }
    for (size_t t = 4; t <= n >> 1; t <<= 1) {
        const size_t h = n / (2 * t);
        for (size_t i = 0; i < h; ++i) {
            const u64 wi = iw[h + i], wsi = iws[h + i];
            const __m256i vw = set1_256(wi), vw_hi = set1_256(wi >> 32);
            const __m256i vws = set1_256(wsi);
            const __m256i vws_hi = set1_256(wsi >> 32);
            u64 *x = a + 2 * i * t;
            u64 *y = x + t;
            for (size_t j = 0; j < t; j += 4) {
                const __m256i xv = load256(x + j);
                const __m256i yv = load256(y + j);
                store256(x + j,
                         csubs256(_mm256_add_epi64(xv, yv), s4q));
                const __m256i d =
                    _mm256_sub_epi64(_mm256_add_epi64(xv, four_q), yv);
                store256(y + j, mulShoupApprox256(d, vw, vw_hi, vws,
                                                  vws_hi, q, q_hi));
            }
        }
    }
    const u64 ni = tb.nInv(), nis = tb.nInvShoup();
    const __m256i vni = set1_256(ni), vni_hi = set1_256(ni >> 32);
    const __m256i vnis = set1_256(nis), vnis_hi = set1_256(nis >> 32);
    for (size_t j = 0; j < n; j += 4) {
        const __m256i v =
            mulShoupApprox256(load256(a + j), vni, vni_hi, vnis,
                              vnis_hi, q, q_hi);
        store256(a + j, csubs256(csubs256(v, s2q), sq));
    }
}

// ---------------------------------------------------------------------------
// AVX2 fused BConv tile and evk MAC: structure identical to the
// AVX-512 versions, carries tracked with mask subtraction.
// ---------------------------------------------------------------------------

ARK_T256 void
bconvTileAvx2(const BaseConverter &bc, const u64 *const *in, size_t c0,
              size_t c1, u64 *scratch, u64 *const *out)
{
    const size_t nb = bc.inBase().size();
    const size_t nc = bc.outBase().size();
    const size_t tile = c1 - c0;
    const __m256i m32 = set1_256(0xffffffffULL);
    const __m256i bias = set1_256(0x8000000000000000ULL);

    for (size_t j = 0; j < nb; ++j) {
        const Modulus &pj = bc.inBase()[j];
        const u64 s = bc.phatInvModP(j);
        const u64 ss = bc.phatInvModPShoup(j);
        const u64 *src = in[j] + c0;
        u64 *dst = scratch + j * tile;
        const __m256i q = set1_256(pj.value());
        const __m256i q_hi = set1_256(pj.value() >> 32);
        const Bound256 bqj = makeBound256(pj.value());
        const __m256i vs = set1_256(s), vs_hi = set1_256(s >> 32);
        const __m256i vss = set1_256(ss), vss_hi = set1_256(ss >> 32);
        size_t c = 0;
        for (; c + 4 <= tile; c += 4) {
            const __m256i r = mulShoupLazy256(load256(src + c), vs,
                                              vs_hi, vss, vss_hi, q,
                                              q_hi, m32);
            store256(dst + c, csub256(r, bqj, bias));
        }
        for (; c < tile; ++c)
            dst[c] = pj.mulShoup(src[c], s, ss);
    }

    for (size_t i = 0; i < nc; ++i) {
        const Modulus &qi = bc.outBase()[i];
        const Mod256 md = loadMod256(qi);
        u64 *dst = out[i] + c0;
        size_t c = 0;
        for (; c + 4 <= tile; c += 4) {
            __m256i acc_lo = _mm256_setzero_si256();
            __m256i acc_hi = _mm256_setzero_si256();
            for (size_t j = 0; j < nb; ++j) {
                const u64 rj = bc.baseTable(i, j);
                const __m256i r = set1_256(rj);
                const __m256i r_hi = set1_256(rj >> 32);
                __m256i p_lo, p_hi;
                mul64_256(load256(scratch + j * tile + c), r, r_hi, m32,
                          &p_lo, &p_hi);
                acc_lo = _mm256_add_epi64(acc_lo, p_lo);
                const __m256i carry = cmpltu256(acc_lo, p_lo, bias);
                acc_hi = _mm256_add_epi64(acc_hi, p_hi);
                acc_hi = _mm256_sub_epi64(acc_hi, carry);
            }
            store256(dst + c, barrett256(acc_lo, acc_hi, md));
        }
        for (; c < tile; ++c) {
            u128 acc = 0;
            for (size_t j = 0; j < nb; ++j)
                acc += static_cast<u128>(scratch[j * tile + c]) *
                       bc.baseTable(i, j);
            dst[c] = qi.reduce(acc);
        }
    }
}

template <bool kAccumulate>
ARK_T256 void
evkMacLimbAvx2Impl(const Modulus &m, const u64 *pd, const u64 *kb,
                   const u64 *ka, u64 *ab, u64 *aa, size_t n)
{
    const Mod256 md = loadMod256(m);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i d = load256(pd + i);
        const __m256i d_hi = _mm256_srli_epi64(d, 32);
        {
            __m256i p_lo, p_hi;
            mul64_256(load256(kb + i), d, d_hi, md.m32, &p_lo, &p_hi);
            const __m256i t = barrett256(p_lo, p_hi, md);
            if (kAccumulate) {
                const __m256i acc = _mm256_add_epi64(load256(ab + i), t);
                store256(ab + i, csub256(acc, md.bq, md.bias));
            } else {
                store256(ab + i, t);
            }
        }
        {
            __m256i p_lo, p_hi;
            mul64_256(load256(ka + i), d, d_hi, md.m32, &p_lo, &p_hi);
            const __m256i t = barrett256(p_lo, p_hi, md);
            if (kAccumulate) {
                const __m256i acc = _mm256_add_epi64(load256(aa + i), t);
                store256(aa + i, csub256(acc, md.bq, md.bias));
            } else {
                store256(aa + i, t);
            }
        }
    }
    for (; i < n; ++i) {
        const u64 tb = m.mul(pd[i], kb[i]);
        const u64 ta = m.mul(pd[i], ka[i]);
        ab[i] = kAccumulate ? m.add(ab[i], tb) : tb;
        aa[i] = kAccumulate ? m.add(aa[i], ta) : ta;
    }
}

ARK_T256 void
evkMacLimbAvx2(const Modulus &m, const u64 *pd, const u64 *kb,
               const u64 *ka, u64 *ab, u64 *aa, size_t n, bool accumulate)
{
    if (accumulate)
        evkMacLimbAvx2Impl<true>(m, pd, kb, ka, ab, aa, n);
    else
        evkMacLimbAvx2Impl<false>(m, pd, kb, ka, ab, aa, n);
}

} // namespace

#endif // ARK_SIMD_X86

const SimdKernels &
simdKernels(SimdTier tier)
{
    static const SimdKernels scalar_kernels{};
#ifdef ARK_SIMD_X86
    static const SimdKernels avx2_kernels = [] {
        SimdKernels k;
        k.tier = SimdTier::Avx2;
        k.min_ntt_degree = 8;
        k.ntt_forward = &nttForwardAvx2;
        k.ntt_inverse = &nttInverseAvx2;
        k.bconv_tile = &bconvTileAvx2;
        k.evk_mac_limb = &evkMacLimbAvx2;
        return k;
    }();
    static const SimdKernels avx512_kernels = [] {
        SimdKernels k;
        k.tier = SimdTier::Avx512;
        k.min_ntt_degree = 16;
        k.ntt_forward = &nttForwardAvx512;
        k.ntt_inverse = &nttInverseAvx512;
        k.bconv_tile = &bconvTileAvx512;
        k.evk_mac_limb = &evkMacLimbAvx512;
        return k;
    }();
    const SimdTier effective = std::min(tier, detectSimdTier());
    if (effective == SimdTier::Avx512)
        return avx512_kernels;
    if (effective == SimdTier::Avx2)
        return avx2_kernels;
    return scalar_kernels;
#else
    (void)tier;
    return scalar_kernels;
#endif
}

} // namespace ark
