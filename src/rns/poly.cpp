#include "rns/poly.h"

#include "common/logging.h"
#include "rns/backend.h"

namespace ark {

RnsPoly::RnsPoly(size_t degree, size_t num_limbs, Rep rep)
    : degree_(degree), num_limbs_(num_limbs), rep_(rep),
      data_(degree * num_limbs, 0)
{
    ARK_ASSERT(isPowerOfTwo(degree), "degree must be a power of two");
}

RnsPoly::RnsPoly(std::vector<u64> &&buf, size_t degree, size_t num_limbs,
                 Rep rep)
    : degree_(degree), num_limbs_(num_limbs), rep_(rep),
      data_(std::move(buf))
{
    ARK_ASSERT(isPowerOfTwo(degree), "degree must be a power of two");
    // A recycled buffer arrives at exactly this size (the pool keys on
    // (degree, limbs)), making this a no-op that preserves its stale
    // contents; a fresh buffer is empty and value-initializes.
    data_.resize(degree * num_limbs);
}

std::vector<u64>
RnsPoly::takeBuffer() &&
{
    degree_ = 0;
    num_limbs_ = 0;
    return std::move(data_);
}

std::vector<const u64 *>
RnsPoly::rows(size_t lo, size_t hi) const
{
    ARK_ASSERT(lo <= hi && hi <= num_limbs_, "limb range out of bounds");
    std::vector<const u64 *> out;
    for (size_t l = lo; l < hi; ++l)
        out.push_back(limb(l));
    return out;
}

std::vector<u64 *>
RnsPoly::mutableRows(size_t lo, size_t hi)
{
    ARK_ASSERT(lo <= hi && hi <= num_limbs_, "limb range out of bounds");
    std::vector<u64 *> out;
    for (size_t l = lo; l < hi; ++l)
        out.push_back(limb(l));
    return out;
}

void
RnsPoly::resizeLimbs(size_t keep)
{
    ARK_ASSERT(keep <= num_limbs_, "cannot grow with resizeLimbs");
    num_limbs_ = keep;
    data_.resize(keep * degree_);
}

void
RnsPoly::extendLimbs(size_t extra)
{
    num_limbs_ += extra;
    data_.resize(num_limbs_ * degree_, 0);
}

// The limb-level loops behind these wrappers live in rns/backend.cpp;
// the process-wide backend honours ARK_BACKEND / ARK_THREADS.

void
polyAdd(const RnsPoly &a, const RnsPoly &b,
        const std::vector<Modulus> &moduli, RnsPoly &r)
{
    processBackend().add(a, b, moduli, r);
}

void
polySub(const RnsPoly &a, const RnsPoly &b,
        const std::vector<Modulus> &moduli, RnsPoly &r)
{
    processBackend().sub(a, b, moduli, r);
}

void
polyNeg(const RnsPoly &a, const std::vector<Modulus> &moduli, RnsPoly &r)
{
    processBackend().neg(a, moduli, r);
}

void
polyMulEval(const RnsPoly &a, const RnsPoly &b,
            const std::vector<Modulus> &moduli, RnsPoly &r)
{
    processBackend().mulEval(a, b, moduli, r);
}

void
polyMulAccEval(const RnsPoly &a, const RnsPoly &b,
               const std::vector<Modulus> &moduli, RnsPoly &r)
{
    processBackend().mulAccEval(a, b, moduli, r);
}

void
polyMulScalar(const RnsPoly &a, const std::vector<u64> &scalar_per_limb,
              const std::vector<Modulus> &moduli, RnsPoly &r)
{
    processBackend().mulScalar(a, scalar_per_limb, moduli, r);
}

void
polyAddScalar(const RnsPoly &a, const std::vector<u64> &scalar_per_limb,
              const std::vector<Modulus> &moduli, RnsPoly &r)
{
    processBackend().addScalar(a, scalar_per_limb, moduli, r);
}

void
polyNttForward(RnsPoly &p, const std::vector<NttTables> &tables)
{
    processBackend().nttForward(p, tables);
}

void
polyNttInverse(RnsPoly &p, const std::vector<NttTables> &tables)
{
    processBackend().nttInverse(p, tables);
}

RnsPoly
polyFromSigned(const std::vector<i64> &coeffs,
               const std::vector<Modulus> &moduli)
{
    RnsPoly p(coeffs.size(), moduli.size(), Rep::Coeff);
    for (size_t l = 0; l < moduli.size(); ++l) {
        const u64 q = moduli[l].value();
        u64 *pl = p.limb(l);
        for (size_t i = 0; i < coeffs.size(); ++i) {
            i64 c = coeffs[i];
            pl[i] = c >= 0 ? static_cast<u64>(c) % q
                           : q - (static_cast<u64>(-c) % q);
        }
    }
    return p;
}

} // namespace ark
