/**
 * @file
 * RNS polynomial: the (limbs x N) word matrix at the heart of CKKS.
 *
 * A polynomial in R_Q = Z_Q[X]/(X^N + 1) is stored as one row ("limb",
 * paper Table I) per RNS prime, each row holding N words. A
 * representation flag tracks whether rows hold coefficients or NTT
 * evaluations; the arithmetic free functions check it so that, e.g., a
 * pointwise multiply on coefficient-representation data is caught
 * immediately instead of producing silent garbage.
 *
 * The free functions below are convenience wrappers over the
 * process-wide KernelBackend (rns/backend.h) for callers that do not
 * hold a CkksContext; scheme code dispatches through the context's own
 * backend instead.
 */

#pragma once

#include <cstddef>

#include <vector>

#include "rns/modulus.h"
#include "rns/ntt.h"

namespace ark {

/** Which domain the limb data lives in. */
enum class Rep { Coeff, Eval };

/** A polynomial in RNS form: numLimbs() rows of degree() words. */
class RnsPoly
{
  public:
    RnsPoly() = default;
    RnsPoly(size_t degree, size_t num_limbs, Rep rep);

    size_t degree() const { return degree_; }
    size_t numLimbs() const { return num_limbs_; }
    Rep rep() const { return rep_; }
    void setRep(Rep rep) { rep_ = rep; }

    u64 *limb(size_t i) { return data_.data() + i * degree_; }
    const u64 *limb(size_t i) const { return data_.data() + i * degree_; }

    /** Row pointers of limbs [lo, hi): a non-owning view that lets a
     *  kernel read a limb range in place instead of copying it. */
    std::vector<const u64 *> rows(size_t lo, size_t hi) const;
    /** Writable row pointers of limbs [lo, hi). */
    std::vector<u64 *> mutableRows(size_t lo, size_t hi);

    /** Drop limbs beyond @p keep (HRescale / ModDown bookkeeping). */
    void resizeLimbs(size_t keep);

    /** Append @p extra zeroed limbs (limb extension). */
    void extendLimbs(size_t extra);

    bool sameShape(const RnsPoly &o) const
    {
        return degree_ == o.degree_ && num_limbs_ == o.num_limbs_;
    }

    /** Size of the polynomial in bytes (8 bytes per word). */
    size_t byteSize() const { return data_.size() * sizeof(u64); }

  private:
    /**
     * PolyPool (rns/poly_pool.h) constructs polys over recycled
     * backing buffers without the zero-fill of the public constructor
     * and harvests the buffer back on release; no other caller may
     * adopt a buffer, because skipping the zero-fill is only safe for
     * temporaries every word of which is overwritten before being
     * read.
     */
    friend class PolyPool;

    /** Adopt @p buf as backing storage (contents left as-is beyond a
     *  resize to the exact word count — NOT zeroed when recycled). */
    RnsPoly(std::vector<u64> &&buf, size_t degree, size_t num_limbs,
            Rep rep);

    /** Surrender the backing buffer, leaving an empty poly. */
    std::vector<u64> takeBuffer() &&;

    size_t degree_ = 0;
    size_t num_limbs_ = 0;
    Rep rep_ = Rep::Coeff;
    std::vector<u64> data_;
};

/** r = a + b limb-wise; shapes and reps must match. */
void polyAdd(const RnsPoly &a, const RnsPoly &b,
             const std::vector<Modulus> &moduli, RnsPoly &r);

/** r = a - b limb-wise. */
void polySub(const RnsPoly &a, const RnsPoly &b,
             const std::vector<Modulus> &moduli, RnsPoly &r);

/** r = -a limb-wise. */
void polyNeg(const RnsPoly &a, const std::vector<Modulus> &moduli,
             RnsPoly &r);

/** r = a * b pointwise; both must be in Eval representation. */
void polyMulEval(const RnsPoly &a, const RnsPoly &b,
                 const std::vector<Modulus> &moduli, RnsPoly &r);

/** r += a * b pointwise (Eval rep). */
void polyMulAccEval(const RnsPoly &a, const RnsPoly &b,
                    const std::vector<Modulus> &moduli, RnsPoly &r);

/** r = a * c where c gives one scalar per limb. */
void polyMulScalar(const RnsPoly &a, const std::vector<u64> &scalar_per_limb,
                   const std::vector<Modulus> &moduli, RnsPoly &r);

/**
 * r[l][i] = a[l][i] + scalar_per_limb[l] for every word i of every
 * limb l — the scalar is added to ALL N positions of its limb, not
 * just coefficient 0. CAdd relies on this: a constant polynomial is
 * constant across the evaluation domain, so adding the per-limb
 * residue of a scalar to every Eval-rep word adds that scalar to
 * every message slot.
 */
void polyAddScalar(const RnsPoly &a, const std::vector<u64> &scalar_per_limb,
                   const std::vector<Modulus> &moduli, RnsPoly &r);

/** In-place forward NTT of every limb; poly must be in Coeff rep. */
void polyNttForward(RnsPoly &p, const std::vector<NttTables> &tables);

/** In-place inverse NTT of every limb; poly must be in Eval rep. */
void polyNttInverse(RnsPoly &p, const std::vector<NttTables> &tables);

/**
 * Lift a vector of signed coefficients into RNS form (Coeff rep):
 * limb i holds coeffs mod q_i.
 */
RnsPoly polyFromSigned(const std::vector<i64> &coeffs,
                       const std::vector<Modulus> &moduli);

} // namespace ark
