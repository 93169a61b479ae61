#include "rns/bconv.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "rns/poly_pool.h"

namespace ark {

BaseConverter::BaseConverter(std::vector<Modulus> in_base,
                             std::vector<Modulus> out_base)
    : in_base_(std::move(in_base)), out_base_(std::move(out_base))
{
    const size_t nb = in_base_.size();
    const size_t nc = out_base_.size();
    ARK_ASSERT(nb > 0 && nc > 0, "empty base");
    // Accumulating up to 256 products of two <2^60 words stays inside
    // 128 bits; all ARK parameter sets have |B| <= 30 input limbs.
    // Also guarantees tileCoeffs() >= 8.
    ARK_ASSERT(nb <= 256, "too many input limbs for lazy accumulation");
    tile_coeffs_ = std::max<size_t>(kTileWords / nb, 1) & ~size_t(7);
    tile_coeffs_ = std::max<size_t>(tile_coeffs_, 8);

    phat_inv_mod_pj_.resize(nb);
    phat_inv_mod_pj_shoup_.resize(nb);
    base_table_.resize(nc * nb);

    for (size_t j = 0; j < nb; ++j) {
        const Modulus &pj = in_base_[j];
        // phat_j mod p_j = prod_{k != j} p_k mod p_j.
        u64 phat_mod_pj = 1;
        for (size_t k = 0; k < nb; ++k) {
            if (k != j)
                phat_mod_pj = pj.mul(phat_mod_pj, in_base_[k].value() %
                                                      pj.value());
        }
        u64 inv = pj.inv(phat_mod_pj);
        phat_inv_mod_pj_[j] = inv;
        phat_inv_mod_pj_shoup_[j] = pj.shoupPrecompute(inv);

        for (size_t i = 0; i < nc; ++i) {
            const Modulus &qi = out_base_[i];
            u64 phat_mod_qi = 1;
            for (size_t k = 0; k < nb; ++k) {
                if (k != j)
                    phat_mod_qi = qi.mul(phat_mod_qi,
                                         in_base_[k].value() % qi.value());
            }
            base_table_[i * nb + j] = phat_mod_qi;
        }
    }
}

RnsPoly
BaseConverter::scaleStage(const RnsPoly &in) const
{
    ARK_ASSERT(in.rep() == Rep::Coeff, "BConv needs Coeff rep");
    ARK_ASSERT(in.numLimbs() == in_base_.size(),
               "input limb count must match input base");
    const size_t n = in.degree();
    // Pooled: every word is written below, so the stale contents of a
    // recycled buffer are never observable.
    RnsPoly scaled =
        PolyPool::process().acquire(n, in_base_.size(), Rep::Coeff);
    for (size_t j = 0; j < in_base_.size(); ++j) {
        const Modulus &pj = in_base_[j];
        const u64 s = phat_inv_mod_pj_[j];
        const u64 ss = phat_inv_mod_pj_shoup_[j];
        const u64 *src = in.limb(j);
        u64 *dst = scaled.limb(j);
        for (size_t c = 0; c < n; ++c)
            dst[c] = pj.mulShoup(src[c], s, ss);
    }
    return scaled;
}

RnsPoly
BaseConverter::matmulStage(const RnsPoly &scaled) const
{
    // Frozen pre-PR reference kernel (limb-strided MAC, pre-PR
    // Barrett correction) kept for parity tests and lazy-vs-strict
    // benchmarking, like NttTables::forwardStrict. Bit-identical to
    // the fused tile path by construction.
    const size_t nb = in_base_.size();
    const size_t nc = out_base_.size();
    const size_t n = scaled.degree();

    RnsPoly out = PolyPool::process().acquire(n, nc, Rep::Coeff);
    for (size_t i = 0; i < nc; ++i) {
        const Modulus &qi = out_base_[i];
        u64 *dst = out.limb(i);
        for (size_t c = 0; c < n; ++c) {
            u128 acc = 0;
            for (size_t j = 0; j < nb; ++j) {
                u64 y = scaled.limb(j)[c];
                // y < p_j may exceed q_i; the MAC multiplies raw words
                // and the final Barrett reduction handles the excess.
                acc += static_cast<u128>(y) * base_table_[i * nb + j];
            }
            dst[c] = qi.reduceReference(acc);
        }
    }
    return out;
}

RnsPoly
BaseConverter::convert(const RnsPoly &in) const
{
    ARK_ASSERT(in.rep() == Rep::Coeff, "BConv needs Coeff rep");
    ARK_ASSERT(in.numLimbs() == in_base_.size(),
               "input limb count must match input base");
    const size_t n = in.degree();
    RnsPoly out =
        PolyPool::process().acquire(n, out_base_.size(), Rep::Coeff);
    alignas(64) u64 scratch[kTileWords];
    const auto in_rows = in.rows(0, in.numLimbs());
    const auto out_rows = out.mutableRows(0, out.numLimbs());
    const size_t tile = tile_coeffs_;
    for (size_t c0 = 0; c0 < n; c0 += tile)
        convertTile(in_rows.data(), c0, std::min(c0 + tile, n), scratch,
                    out_rows.data());
    return out;
}

} // namespace ark
